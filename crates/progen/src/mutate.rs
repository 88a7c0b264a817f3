//! Typed mutation and crossover operators over the MinC AST.
//!
//! Operators work on the genome's [`Program`] directly — statement splice,
//! expression perturbation, fresh-idiom injection, loop/branch
//! restructuring — and every mutant is validated through
//! [`minc::check`] before it is accepted. Invalid mutants (a deleted
//! declaration whose variable is still used, say) are rejected and the
//! operator retries under the same PRNG stream, so mutation is total and
//! deterministic: the same parent and seed always yield the same child.

use crate::gen::{self, Genome, IDIOMS};
use fuzzing::Rng;
use minc::ast::{BinOp, Expr, ExprKind, Node, NodeMut, Program, Stmt, StmtKind};

/// How many candidate mutants to try before falling back to the parent.
const RETRY_BUDGET: usize = 8;

/// Interesting integer constants for literal perturbation.
const INTERESTING: [i64; 8] = [0, 1, -1, 127, 255, 33, 1073741824, 2147483647];

/// The statement index where idiom fragments start in a generated `main`
/// (after the fixed input-reading prologue).
const PROLOGUE_LEN: usize = 6;

fn main_body(p: &Program) -> Option<&Vec<Stmt>> {
    let f = p.functions.iter().find(|f| f.name == "main")?;
    match &f.body.kind {
        StmtKind::Block(stmts) => Some(stmts),
        _ => None,
    }
}

fn main_body_mut(p: &mut Program) -> Option<&mut Vec<Stmt>> {
    let f = p.functions.iter_mut().find(|f| f.name == "main")?;
    match &mut f.body.kind {
        StmtKind::Block(stmts) => Some(stmts),
        _ => None,
    }
}

/// True when the mutated program still checks.
fn valid(p: &Program) -> bool {
    minc::check(&minc::pretty::program(p)).is_ok()
}

// ---- Expression perturbation ----

/// How many expressions of `main`'s body `is` picks out, counted in the
/// walk order the `k`-th-node operators index.
fn count_in_main(p: &Program, is: impl Fn(&ExprKind) -> bool) -> usize {
    let mut n = 0;
    for st in main_body(p).into_iter().flatten() {
        st.walk(&mut |node| {
            if let Node::Expr(e) = node {
                n += usize::from(is(&e.kind));
            }
        });
    }
    n
}

/// Nudges the `k`-th integer literal in the program.
fn perturb_int_lit(p: &mut Program, rng: &mut Rng) -> bool {
    let total = count_in_main(p, |k| matches!(k, ExprKind::IntLit { .. }));
    if total == 0 {
        return false;
    }
    let target = rng.below(total);
    let delta = *rng.choose(&INTERESTING);
    let add = rng.one_in(2);
    let mut seen = 0usize;
    if let Some(body) = main_body_mut(p) {
        for st in body.iter_mut() {
            st.walk_mut(&mut |node| {
                if let NodeMut::Expr(Expr {
                    kind: ExprKind::IntLit { value, .. },
                    ..
                }) = node
                {
                    if seen == target {
                        *value = if add {
                            value.wrapping_add(delta)
                        } else {
                            delta
                        };
                    }
                    seen += 1;
                }
            });
        }
    }
    true
}

/// Swaps one binary operator for a near neighbour (comparison family or
/// arithmetic family), preserving typability in almost all cases.
fn swap_binop(p: &mut Program, rng: &mut Rng) -> bool {
    let total = count_in_main(p, |k| matches!(k, ExprKind::Binary { .. }));
    if total == 0 {
        return false;
    }
    let target = rng.below(total);
    let roll = rng.next_u64();
    let mut seen = 0usize;
    if let Some(body) = main_body_mut(p) {
        for st in body.iter_mut() {
            st.walk_mut(&mut |node| {
                if let NodeMut::Expr(Expr {
                    kind: ExprKind::Binary { op, .. },
                    ..
                }) = node
                {
                    if seen == target {
                        *op = neighbour_op(*op, roll);
                    }
                    seen += 1;
                }
            });
        }
    }
    true
}

fn neighbour_op(op: BinOp, roll: u64) -> BinOp {
    use BinOp::*;
    let flip = roll & 1 == 0;
    match op {
        Add => Sub,
        Sub => Add,
        Mul => {
            if flip {
                Add
            } else {
                Sub
            }
        }
        Lt => {
            if flip {
                Le
            } else {
                Gt
            }
        }
        Le => Lt,
        Gt => {
            if flip {
                Ge
            } else {
                Lt
            }
        }
        Ge => Gt,
        Eq => Ne,
        Ne => Eq,
        Shl => Shr,
        Shr => Shl,
        BitAnd => {
            if flip {
                BitOr
            } else {
                BitXor
            }
        }
        BitOr => BitAnd,
        BitXor => BitOr,
        other => other,
    }
}

// ---- Statement-level operators ----

/// Duplicates a non-declaration statement elsewhere in the idiom region.
fn splice(p: &mut Program, rng: &mut Rng) -> bool {
    let Some(body) = main_body_mut(p) else {
        return false;
    };
    // Keep the trailing printf/return epilogue fixed.
    let hi = body.len().saturating_sub(2);
    if hi <= PROLOGUE_LEN {
        return false;
    }
    let from = PROLOGUE_LEN + rng.below(hi - PROLOGUE_LEN);
    if matches!(body[from].kind, StmtKind::Decl { .. } | StmtKind::Return(_)) {
        return false;
    }
    let to = PROLOGUE_LEN + rng.below(hi - PROLOGUE_LEN + 1);
    let cloned = body[from].clone();
    body.insert(to, cloned);
    true
}

/// Deletes one statement from the idiom region.
fn remove(p: &mut Program, rng: &mut Rng) -> bool {
    let Some(body) = main_body_mut(p) else {
        return false;
    };
    let hi = body.len().saturating_sub(2);
    if hi <= PROLOGUE_LEN {
        return false;
    }
    let at = PROLOGUE_LEN + rng.below(hi - PROLOGUE_LEN);
    body.remove(at);
    true
}

/// Inserts a fresh idiom instance at a random point in the idiom region.
/// The instance index is derived from the body length so names stay
/// unique without scanning.
fn inject(p: &mut Program, rng: &mut Rng) -> bool {
    let fresh = {
        let Some(body) = main_body(p) else {
            return false;
        };
        100 + body.len() as u32
    };
    let idiom = *rng.choose(&IDIOMS);
    if idiom == crate::gen::Idiom::PtrCmpGlobals && !p.globals.iter().any(|g| g.name == "G_A") {
        // Would reference missing globals; validation would reject it, so
        // don't waste the attempt.
        return false;
    }
    let stmts = idiom.stmts(fresh, rng);
    let Some(body) = main_body_mut(p) else {
        return false;
    };
    let hi = body.len().saturating_sub(2);
    if hi < PROLOGUE_LEN {
        return false;
    }
    let at = PROLOGUE_LEN + rng.below(hi - PROLOGUE_LEN + 1);
    for (i, s) in stmts.into_iter().enumerate() {
        body.insert(at + i, s);
    }
    true
}

/// Wraps a statement from the idiom region in a gate or a short counted
/// loop — structural material for the unroll/branch passes.
fn restructure(p: &mut Program, rng: &mut Rng) -> bool {
    let Some(body) = main_body_mut(p) else {
        return false;
    };
    let hi = body.len().saturating_sub(2);
    if hi <= PROLOGUE_LEN {
        return false;
    }
    let at = PROLOGUE_LEN + rng.below(hi - PROLOGUE_LEN);
    if matches!(body[at].kind, StmtKind::Decl { .. } | StmtKind::Return(_)) {
        return false;
    }
    let inner = body.remove(at);
    let wrapped = if rng.one_in(2) {
        // Gate on an input byte.
        let gate = i64::from(rng.byte() & 63);
        gen::sif(
            gen::bin(BinOp::Ge, gen::var("a"), gen::int(gate)),
            vec![inner],
            None,
        )
    } else {
        // Run it twice through a tiny counted loop (fresh counter name
        // derived from position).
        let k = format!("rk{at}");
        gen::sfor(
            gen::decl(&k, minc::Type::Int, Some(gen::int(0))),
            gen::bin(BinOp::Lt, gen::var(&k), gen::int(2)),
            minc::ast::Expr {
                id: minc::NodeId(0),
                span: minc::Span::dummy(),
                kind: ExprKind::Assign {
                    op: Some(BinOp::Add),
                    target: Box::new(gen::var(&k)),
                    value: Box::new(gen::int(1)),
                },
            },
            vec![inner],
        )
    };
    body.insert(at, wrapped);
    true
}

// ---- Public operators ----

/// Produces a mutated child of `parent`. Always returns a valid genome:
/// invalid candidates are rejected and retried, and after
/// [`RETRY_BUDGET`] failures the parent is returned unchanged (the PRNG
/// stream consumed so far keeps the run deterministic either way).
pub fn mutate(parent: &Genome, rng: &mut Rng) -> Genome {
    for _ in 0..RETRY_BUDGET {
        let mut child = parent.program.clone();
        let applied = match rng.below(6) {
            0 => splice(&mut child, rng),
            1 => remove(&mut child, rng),
            2 => perturb_int_lit(&mut child, rng),
            3 => swap_binop(&mut child, rng),
            4 => inject(&mut child, rng),
            _ => restructure(&mut child, rng),
        };
        if applied && valid(&child) {
            let mut probes = parent.probes.clone();
            // Occasionally nudge a probe byte alongside the code change.
            if rng.one_in(4) {
                let pi = rng.below(probes.len());
                if probes[pi].is_empty() {
                    probes[pi] = vec![rng.byte() & 0x7f];
                } else {
                    let bi = rng.below(probes[pi].len());
                    probes[pi][bi] = rng.byte() & 0x7f;
                }
            }
            return Genome {
                program: child,
                probes,
            };
        }
    }
    parent.clone()
}

/// Single-point crossover on the `main` idiom regions: the child takes
/// `a`'s prologue and head plus `b`'s tail (and `a`'s probes). Falls back
/// to a clone of `a` when the splice does not produce a valid program.
pub fn crossover(a: &Genome, b: &Genome, rng: &mut Rng) -> Genome {
    let (Some(body_a), Some(body_b)) = (main_body(&a.program), main_body(&b.program)) else {
        return a.clone();
    };
    let hi_a = body_a.len().saturating_sub(2);
    let hi_b = body_b.len().saturating_sub(2);
    if hi_a <= PROLOGUE_LEN || hi_b <= PROLOGUE_LEN {
        return a.clone();
    }
    let cut_a = PROLOGUE_LEN + rng.below(hi_a - PROLOGUE_LEN + 1);
    let cut_b = PROLOGUE_LEN + rng.below(hi_b - PROLOGUE_LEN + 1);
    let mut child = a.program.clone();
    // Child needs b's globals too (union, a's first).
    for g in &b.program.globals {
        if !child.globals.iter().any(|cg| cg.name == g.name) {
            child.globals.push(g.clone());
        }
    }
    let tail: Vec<Stmt> = b.program.functions[0].body.kind.clone_block_range(cut_b);
    if let Some(body) = main_body_mut(&mut child) {
        body.truncate(cut_a);
        body.extend(tail);
    }
    if valid(&child) {
        Genome {
            program: child,
            probes: a.probes.clone(),
        }
    } else {
        a.clone()
    }
}

/// Helper trait to pull a suffix of a block's statements.
trait CloneBlockRange {
    fn clone_block_range(&self, from: usize) -> Vec<Stmt>;
}

impl CloneBlockRange for StmtKind {
    fn clone_block_range(&self, from: usize) -> Vec<Stmt> {
        match self {
            StmtKind::Block(stmts) if from <= stmts.len() => stmts[from..].to_vec(),
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn mutants_are_always_valid() {
        let mut rng = Rng::new(11);
        let mut g = generate(&mut rng);
        for _ in 0..30 {
            g = mutate(&g, &mut rng);
            assert!(valid(&g.program), "mutant failed check:\n{}", g.source());
        }
    }

    #[test]
    fn mutation_is_deterministic() {
        let parent = generate(&mut Rng::new(5));
        let a = mutate(&parent, &mut Rng::new(99));
        let b = mutate(&parent, &mut Rng::new(99));
        assert_eq!(a.source(), b.source());
        assert_eq!(a.probes, b.probes);
    }

    #[test]
    fn crossover_children_are_valid() {
        let mut rng = Rng::new(21);
        let a = generate(&mut rng);
        let b = generate(&mut rng);
        for seed in 0..10 {
            let child = crossover(&a, &b, &mut Rng::new(seed));
            assert!(valid(&child.program), "bad child:\n{}", child.source());
        }
    }

    #[test]
    fn generated_bodies_have_literals_to_perturb() {
        let g = generate(&mut Rng::new(2));
        let lits = count_in_main(&g.program, |k| matches!(k, ExprKind::IntLit { .. }));
        assert!(lits > 0, "prologue alone carries literals");
    }
}
