//! Automatic witness reduction: delta-debugging over AST nodes.
//!
//! Given a diverging program and the probe it diverges on, the reducer
//! repeatedly tries structural shrink operations — delete a statement,
//! hoist a compound statement's body, drop an `else` branch, delete an
//! unused global or helper function — keeping an edit only when the
//! shrunk program still (a) passes the frontend and (b) diverges with the
//! *same witness pair*: the first two implementations that landed in
//! different output classes in the original run. Edits are enumerated in
//! a fixed depth-first order and applied first-fit to a fixpoint, so the
//! reducer is fully deterministic (no PRNG at all) and idempotent by
//! construction: reducing a reduced witness finds no applicable edit and
//! returns it unchanged.
//!
//! Condition (b) is decided pair first (see `PairOracle`): a step
//! compiles and runs only the pair's two implementations, and the full
//! 10-implementation oracle runs only when a pair member times out. The
//! final witness is re-verified through the full oracle before it is
//! returned.

use compdiff::{signature_with_hash, CompDiff, DiffConfig};
use minc::ast::{Node, NodeMut, Program, Stmt, StmtKind};
use minc::CheckedProgram;
use minc_compile::CompilerImpl;
use minc_vm::{ExecSession, ExitStatus, VmConfig};

/// A successfully reduced witness.
#[derive(Debug, Clone)]
pub struct ReduceOutcome {
    /// The minimal diverging source.
    pub source: String,
    /// Oracle evaluations performed (the paper-style "reduction steps").
    pub steps: u64,
    /// Hash-keyed signature of the reduced program's divergence.
    pub signature: String,
    /// The two implementation indices whose divergence was preserved.
    pub witness_pair: (usize, usize),
}

/// One candidate shrink operation, addressed structurally.
#[derive(Debug, Clone)]
enum Edit {
    /// Delete the statement at `path` inside function `func`'s body.
    DeleteStmt {
        func: usize,
        path: Vec<usize>,
    },
    /// Replace the compound statement at `path` with (a part of) its
    /// body: `arm` 0 = then/body contents, 1 = else contents.
    Hoist {
        func: usize,
        path: Vec<usize>,
        arm: usize,
    },
    /// Remove the `else` branch of the `if` at `path`.
    DropElse {
        func: usize,
        path: Vec<usize>,
    },
    DeleteGlobal(usize),
    DeleteFunction(usize),
    DeleteStruct(usize),
}

/// Enumerates candidate edits in depth-first order: biggest wins first
/// (whole-statement deletion), then structural flattening, then
/// program-level deletions.
fn enumerate_edits(p: &Program) -> Vec<Edit> {
    let mut edits = Vec::new();
    for (fi, f) in p.functions.iter().enumerate() {
        let mut stack: Vec<(Vec<usize>, &Stmt)> = vec![(Vec::new(), &f.body)];
        while let Some((path, node)) = stack.pop() {
            // Deleting is only meaningful for elements of a Block parent.
            if let StmtKind::Block(v) = &node.kind {
                for i in 0..v.len() {
                    let mut child_path = path.clone();
                    child_path.push(i);
                    edits.push(Edit::DeleteStmt {
                        func: fi,
                        path: child_path,
                    });
                }
            }
            match &node.kind {
                StmtKind::If { els, .. } => {
                    edits.push(Edit::Hoist {
                        func: fi,
                        path: path.clone(),
                        arm: 0,
                    });
                    if els.is_some() {
                        edits.push(Edit::Hoist {
                            func: fi,
                            path: path.clone(),
                            arm: 1,
                        });
                        edits.push(Edit::DropElse {
                            func: fi,
                            path: path.clone(),
                        });
                    }
                }
                StmtKind::While { .. } | StmtKind::DoWhile { .. } | StmtKind::For { .. } => {
                    edits.push(Edit::Hoist {
                        func: fi,
                        path: path.clone(),
                        arm: 0,
                    });
                }
                _ => {}
            }
            // A path indexes the statement children in source order.
            let mut i = 0;
            node.kind.for_each_child(|c| {
                if let Node::Stmt(child) = c {
                    let mut child_path = path.clone();
                    child_path.push(i);
                    stack.push((child_path, child));
                    i += 1;
                }
            });
        }
    }
    for gi in 0..p.globals.len() {
        edits.push(Edit::DeleteGlobal(gi));
    }
    for (fi, f) in p.functions.iter().enumerate() {
        if f.name != "main" {
            edits.push(Edit::DeleteFunction(fi));
        }
    }
    for si in 0..p.structs.len() {
        edits.push(Edit::DeleteStruct(si));
    }
    edits
}

/// The statement an edit's `path` addresses below `root`: each index
/// picks one of the statement children, in source order.
fn resolve_mut<'a>(root: &'a mut Stmt, path: &[usize]) -> Option<&'a mut Stmt> {
    let mut cur = root;
    for &i in path {
        let (mut k, mut found) = (0, None);
        cur.kind.for_each_child_mut(|c| {
            if let NodeMut::Stmt(child) = c {
                if k == i {
                    found = Some(child);
                }
                k += 1;
            }
        });
        cur = found?;
    }
    Some(cur)
}

/// The statements a compound statement's `arm` hoists to (clones).
fn hoist_body(s: &Stmt, arm: usize) -> Option<Vec<Stmt>> {
    let unwrap = |b: &Stmt| match &b.kind {
        StmtKind::Block(v) => v.clone(),
        _ => vec![b.clone()],
    };
    match (&s.kind, arm) {
        (StmtKind::If { then, .. }, 0) => Some(unwrap(then)),
        (StmtKind::If { els: Some(e), .. }, 1) => Some(unwrap(e)),
        (StmtKind::While { body, .. }, 0)
        | (StmtKind::DoWhile { body, .. }, 0)
        | (StmtKind::For { body, .. }, 0) => Some(unwrap(body)),
        _ => None,
    }
}

/// Applies `edit` to a clone of `p`; `None` when it does not apply (the
/// tree changed since enumeration).
fn apply_edit(p: &Program, edit: &Edit) -> Option<Program> {
    let mut out = p.clone();
    match edit {
        Edit::DeleteStmt { func, path } => {
            let (parent_path, last) = path.split_at(path.len() - 1);
            let f = out.functions.get_mut(*func)?;
            let parent = resolve_mut(&mut f.body, parent_path)?;
            match &mut parent.kind {
                StmtKind::Block(v) if last[0] < v.len() => {
                    v.remove(last[0]);
                }
                _ => return None,
            }
        }
        Edit::Hoist { func, path, arm } => {
            let f = out.functions.get_mut(*func)?;
            let node = resolve_mut(&mut f.body, path)?;
            let body = hoist_body(node, *arm)?;
            node.kind = StmtKind::Block(body);
        }
        Edit::DropElse { func, path } => {
            let f = out.functions.get_mut(*func)?;
            let node = resolve_mut(&mut f.body, path)?;
            match &mut node.kind {
                StmtKind::If { els, .. } if els.is_some() => *els = None,
                _ => return None,
            }
        }
        Edit::DeleteGlobal(i) => {
            if *i >= out.globals.len() {
                return None;
            }
            out.globals.remove(*i);
        }
        Edit::DeleteFunction(i) => {
            if *i >= out.functions.len() || out.functions[*i].name == "main" {
                return None;
            }
            out.functions.remove(*i);
        }
        Edit::DeleteStruct(i) => {
            if *i >= out.structs.len() {
                return None;
            }
            out.structs.remove(*i);
        }
    }
    Some(out)
}

/// The witness predicate: does a candidate still diverge on the probe
/// with the witness pair in different output classes?
///
/// It answers exactly what the full oracle's `divergent && hashes[a] !=
/// hashes[b]` answers, from the pair alone whenever it can. Escalation
/// reruns only timed-out results, so when neither pair member times out
/// the full run holds the same two digests: equal digests make the
/// verdict false, and two settled, different digests make `divergent`
/// true whether or not other implementations stay unresolved. When a
/// pair member times out, the verdict depends on the other
/// implementations, and the full oracle decides.
struct PairOracle<'a> {
    /// The initial engine: implementation order and output digests.
    engine: &'a CompDiff,
    probe: &'a [u8],
    pair: (usize, usize),
    impls: Vec<CompilerImpl>,
    /// Execution limits (the reducer's engines use `DiffConfig::default()`;
    /// tests lower the step limit to force timeouts).
    vm: VmConfig,
    /// One session per pair member, kept across steps: a session reruns
    /// any binary of its implementation bit for bit.
    sessions: [ExecSession; 2],
}

impl<'a> PairOracle<'a> {
    fn new(engine: &'a CompDiff, probe: &'a [u8], pair: (usize, usize), vm: VmConfig) -> Self {
        let bins = engine.binaries();
        PairOracle {
            engine,
            probe,
            pair,
            impls: engine.impls(),
            vm,
            sessions: [
                ExecSession::new(&bins[pair.0]),
                ExecSession::new(&bins[pair.1]),
            ],
        }
    }

    fn still_diverges(&mut self, checked: &CheckedProgram) -> bool {
        let (a, b) = self.pair;
        let (pair_bins, _) = minc_compile::compile_all(checked, &[self.impls[a], self.impls[b]]);
        let [sa, sb] = &mut self.sessions;
        let ra = sa.run(&pair_bins[0], self.probe, &self.vm);
        let rb = sb.run(&pair_bins[1], self.probe, &self.vm);
        if ra.status != ExitStatus::TimedOut && rb.status != ExitStatus::TimedOut {
            return self.engine.digest(&ra) != self.engine.digest(&rb);
        }
        let (binaries, _) = minc_compile::compile_all(checked, &self.impls);
        let config = DiffConfig {
            vm: self.vm.clone(),
            ..DiffConfig::default()
        };
        let outcome = CompDiff::new(binaries, config).run_input(self.probe);
        outcome.divergent && outcome.hashes[a] != outcome.hashes[b]
    }
}

/// Reduces `src` to a minimal program that still diverges on `probe`
/// under the same implementation pair as the original run.
///
/// # Errors
///
/// Returns a message when `src` does not compile or does not diverge on
/// `probe` (there is nothing to reduce).
pub fn reduce(src: &str, probe: &[u8]) -> Result<ReduceOutcome, String> {
    let diff = CompDiff::from_source_default(src, DiffConfig::default())
        .map_err(|e| format!("frontend: {e}"))?;
    let outcome = diff.run_input(probe);
    if !outcome.divergent {
        return Err("program does not diverge on the given probe".to_string());
    }
    // Witness pair: representatives of the first two output classes.
    let pair = (outcome.classes[0][0], outcome.classes[1][0]);

    let mut program = minc::parse(src).map_err(|e| format!("parse: {e}"))?;
    let mut oracle = PairOracle::new(&diff, probe, pair, VmConfig::default());
    let mut steps = 0u64;

    // First-fit passes to a fixpoint: retry the full edit enumeration
    // after every successful shrink (the tree changed under it).
    loop {
        let mut progressed = false;
        for edit in enumerate_edits(&program) {
            let Some(candidate) = apply_edit(&program, &edit) else {
                continue;
            };
            let Ok(checked) = minc::check(&minc::pretty::program(&candidate)) else {
                continue;
            };
            steps += 1;
            if oracle.still_diverges(&checked) {
                program = candidate;
                progressed = true;
                break;
            }
        }
        if !progressed {
            break;
        }
    }

    // Final re-verification through the full oracle.
    let source = minc::pretty::program(&program);
    let final_diff = CompDiff::from_source_default(&source, DiffConfig::default())
        .map_err(|e| format!("reduced witness stopped compiling: {e}"))?;
    let final_outcome = final_diff.run_input(probe);
    if !final_outcome.divergent || final_outcome.hashes[pair.0] == final_outcome.hashes[pair.1] {
        return Err("reduced witness no longer diverges (oracle violation)".to_string());
    }
    let signature = signature_with_hash(final_diff.src_hash(), &final_diff.impls(), &final_outcome);
    Ok(ReduceOutcome {
        source,
        steps,
        signature,
        witness_pair: pair,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An uninit read wrapped in removable noise.
    const NOISY: &str = r#"
int SINK;
int helper(int x) { return x + 1; }
int main() {
    int a = 3;
    int b = helper(a);
    if (b > 0) { SINK = SINK + b; } else { SINK = 0; }
    int u;
    printf("u %d\n", u & 255);
    printf("end %d\n", a + b);
    return 0;
}
"#;

    #[test]
    fn reduction_strips_noise_and_preserves_divergence() {
        let out = reduce(NOISY, b"").expect("reduces");
        assert!(out.steps > 0);
        assert!(
            out.source.len() < NOISY.len(),
            "got no smaller: {}",
            out.source
        );
        assert!(out.source.contains("printf"), "witness stays observable");
        // Oracle preservation is checked inside reduce(); double-check
        // from the outside too.
        let diff = CompDiff::from_source_default(&out.source, DiffConfig::default()).unwrap();
        let oc = diff.run_input(b"");
        assert!(oc.divergent);
        assert_ne!(oc.hashes[out.witness_pair.0], oc.hashes[out.witness_pair.1]);
    }

    #[test]
    fn reduction_is_deterministic() {
        let a = reduce(NOISY, b"").unwrap();
        let b = reduce(NOISY, b"").unwrap();
        assert_eq!(a.source, b.source);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.signature, b.signature);
    }

    #[test]
    fn reduction_is_idempotent() {
        let once = reduce(NOISY, b"").unwrap();
        let twice = reduce(&once.source, b"").unwrap();
        assert_eq!(once.source, twice.source, "fixpoint reached");
    }

    /// The full oracle's witness verdict on `src` at execution limits `vm`.
    fn full_verdict(src: &str, probe: &[u8], pair: (usize, usize), vm: &VmConfig) -> bool {
        let config = DiffConfig {
            vm: vm.clone(),
            ..DiffConfig::default()
        };
        let outcome = CompDiff::from_source_default(src, config)
            .unwrap()
            .run_input(probe);
        outcome.divergent && outcome.hashes[pair.0] != outcome.hashes[pair.1]
    }

    /// Candidates of a first edit pass, by the verdict they got and by
    /// whether a pair member timed out on them.
    #[derive(Debug, Default)]
    struct PassCounts {
        candidates: usize,
        diverging: usize,
        timeouts: usize,
    }

    /// Asserts that the pair predicate agrees with the full oracle on
    /// every candidate of the first edit pass over `src` (every edit that
    /// checks, not only up to the first kept one).
    fn assert_first_pass_agrees(src: &str, probe: &[u8], vm: &VmConfig) -> PassCounts {
        let engine = CompDiff::from_source_default(src, DiffConfig::default()).unwrap();
        let outcome = engine.run_input(probe);
        let pair = (outcome.classes[0][0], outcome.classes[1][0]);
        let mut oracle = PairOracle::new(&engine, probe, pair, vm.clone());
        let program = minc::parse(src).unwrap();
        let mut counts = PassCounts::default();
        for edit in enumerate_edits(&program) {
            let Some(candidate) = apply_edit(&program, &edit) else {
                continue;
            };
            let rendered = minc::pretty::program(&candidate);
            let Ok(checked) = minc::check(&rendered) else {
                continue;
            };
            let timed_out = [pair.0, pair.1].iter().any(|&i| {
                let bin = minc_compile::compile(&checked, oracle.impls[i]);
                minc_vm::execute(&bin, probe, vm).status == ExitStatus::TimedOut
            });
            let verdict = oracle.still_diverges(&checked);
            assert_eq!(
                verdict,
                full_verdict(&rendered, probe, pair, vm),
                "{edit:?} on pair {pair:?}:\n{rendered}"
            );
            counts.candidates += 1;
            counts.diverging += usize::from(verdict);
            counts.timeouts += usize::from(timed_out);
        }
        counts
    }

    /// The finds `ci.sh` evolves and byte-compares: seed 7, population
    /// 6, two generations.
    fn seed7_finds() -> Vec<crate::DivergentFind> {
        let mut state = crate::EvolveState::new(&crate::EvolveConfig {
            seed: 7,
            population: 6,
        });
        crate::run_generations(&mut state, 2, |_| {});
        state.divergents
    }

    #[test]
    fn pair_predicate_matches_the_full_oracle() {
        let vm = VmConfig::default();
        let finds = seed7_finds();
        assert_eq!(finds.len(), 8);
        let mut counts = vec![assert_first_pass_agrees(NOISY, b"", &vm)];
        for find in &finds {
            counts.push(assert_first_pass_agrees(&find.source, &find.probe, &vm));
        }
        let candidates: usize = counts.iter().map(|c| c.candidates).sum();
        let diverging: usize = counts.iter().map(|c| c.diverging).sum();
        assert!(candidates > 100, "only {candidates} candidates");
        assert!(0 < diverging && diverging < candidates, "{counts:?}");
    }

    #[test]
    fn pair_timeouts_fall_back_to_the_full_oracle() {
        // A step limit between the pair's two step counts times out one
        // member on the original program and on many of its candidates.
        let engine = CompDiff::from_source_default(NOISY, DiffConfig::default()).unwrap();
        let outcome = engine.run_input(b"");
        let (a, b) = (outcome.classes[0][0], outcome.classes[1][0]);
        let (sa, sb) = (outcome.results[a].steps, outcome.results[b].steps);
        assert_ne!(sa, sb, "the pair must differ in steps");
        let vm = VmConfig {
            step_limit: sa.midpoint(sb),
            ..VmConfig::default()
        };
        let counts = assert_first_pass_agrees(NOISY, b"", &vm);
        assert!(
            0 < counts.timeouts && counts.timeouts < counts.candidates,
            "{counts:?}"
        );
    }

    #[test]
    fn non_divergent_input_is_rejected() {
        let err = reduce("int main() { printf(\"hi\\n\"); return 0; }", b"").unwrap_err();
        assert!(err.contains("does not diverge"), "{err}");
    }
}
