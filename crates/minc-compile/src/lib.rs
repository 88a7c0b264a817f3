//! # minc-compile — ten simulated compiler implementations for MinC
//!
//! The CompDiff paper (ASPLOS 2023) uses gcc 11.1.0 and clang 13.0.1 at
//! `-O0 -O1 -O2 -O3 -Os` as its ten "compiler implementations". This crate
//! reproduces that setup in simulation: one frontend ([`minc`]), one IR,
//! and ten [`CompilerImpl`]s whose *legal* differences — argument
//! evaluation order, stack/global/heap layout, junk in uninitialized
//! storage, UB-assuming optimizations, `__LINE__` attribution, `pow`
//! lowering — make binaries of UB-containing programs observably diverge.
//!
//! ## Quick start
//!
//! ```
//! use minc_compile::{compile_source, CompilerImpl};
//!
//! # fn main() -> Result<(), minc::FrontendError> {
//! let src = "int main() { printf(\"%d\\n\", 6 * 7); return 0; }";
//! let gcc_o0 = compile_source(src, CompilerImpl::parse("gcc-O0").unwrap())?;
//! let clang_o2 = compile_source(src, CompilerImpl::parse("clang-O2").unwrap())?;
//! assert_ne!(gcc_o0.personality.stack_base, clang_o2.personality.stack_base);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
pub mod binary;
pub mod display;
pub mod ir;
pub mod layout;
pub mod lower;
pub mod passes;
pub mod personality;
pub mod rewrite_log;

pub use binary::Binary;
pub use ir::IrProgram;
pub use personality::{CompilerImpl, Family, OptLevel, PassKind, Personality};
pub use rewrite_log::{RewriteEntry, RewriteLog, UbReason};

use minc::{CheckedProgram, FrontendError};

/// Compiles a checked program with one compiler implementation.
pub fn compile(checked: &CheckedProgram, impl_id: CompilerImpl) -> Binary {
    compile_with_personality(checked, impl_id.personality())
}

/// Compiles with an explicit (possibly customized) personality — used by
/// sanitizer builds, which force extra frame padding for stack redzones.
pub fn compile_with_personality(checked: &CheckedProgram, personality: Personality) -> Binary {
    let mut ir = lower::lower(checked, &personality);
    passes::run_pipeline(&mut ir, &personality);
    Binary::link(ir, personality)
}

/// Runs one implementation's optimization pipeline over `checked` and
/// returns the optimized IR together with the rewrite-provenance log —
/// every UB-justified rewrite the pipeline performed, mapped back to
/// source lines. This is the per-implementation reference that
/// [`optimize_all`] must equal; no binary is linked.
pub fn optimize_logged(checked: &CheckedProgram, impl_id: CompilerImpl) -> (IrProgram, RewriteLog) {
    let personality = impl_id.personality();
    let mut ir = lower::lower(checked, &personality);
    let mut log = RewriteLog::new();
    passes::run_pipeline_logged(&mut ir, &personality, Some(&mut log));
    (ir, log)
}

/// Builds every implementation in `impls` (any subset, order or
/// repetition) and returns, in `impls` order, what [`optimize_logged`]
/// returns for each.
///
/// One family's pipelines share their leading passes, and a pass's
/// effect depends only on its [`PassKind`] and the family (see
/// [`Personality`]). So each family is lowered once, and its pass lists
/// are walked as a prefix tree: a pass shared by several
/// implementations runs once, and the IR is cloned only where the lists
/// fork or one of them ends. For the default set that is 2 lowerings and
/// 56 pass runs instead of 10 and 107. The only per-implementation field
/// in a log is [`RewriteEntry::impl_id`]; shared passes log once, and
/// each implementation's copy is relabelled.
pub fn optimize_all(
    checked: &CheckedProgram,
    impls: &[CompilerImpl],
) -> Vec<(IrProgram, RewriteLog)> {
    let mut built: Vec<Option<(IrProgram, RewriteLog)>> = impls.iter().map(|_| None).collect();
    for family in [Family::Gcc, Family::Clang] {
        let members: Vec<Member> = impls
            .iter()
            .enumerate()
            .filter(|(_, ci)| ci.family == family)
            .map(|(slot, ci)| (slot, ci.personality().pipeline))
            .collect();
        let Some(&(first, _)) = members.first() else {
            continue;
        };
        let personality = impls[first].personality();
        let ir = lower::lower(checked, &personality);
        let tree = PrefixTree {
            personality: &personality,
            impls,
        };
        tree.grow((ir, RewriteLog::new()), 0, members, &mut built);
    }
    built
        .into_iter()
        .map(|b| b.expect("every requested implementation is built"))
        .collect()
}

/// A requested implementation in [`optimize_all`]: its slot in `impls`
/// and its pass list.
type Member = (usize, Vec<PassKind>);

/// One family's walk in [`optimize_all`].
struct PrefixTree<'a> {
    /// Any implementation of the family: the passes read only its family.
    personality: &'a Personality,
    impls: &'a [CompilerImpl],
}

impl PrefixTree<'_> {
    /// Continues from the node reached after `depth` passes: `members`
    /// are the requested slots (with their pass lists) that share those
    /// passes, and `node` is the IR and log they leave.
    fn grow(
        &self,
        node: (IrProgram, RewriteLog),
        depth: usize,
        members: Vec<Member>,
        built: &mut [Option<(IrProgram, RewriteLog)>],
    ) {
        let (ended, rest): (Vec<_>, Vec<_>) =
            members.into_iter().partition(|(_, p)| p.len() == depth);
        // The continuing members, grouped by their next pass.
        let mut branches: Vec<(PassKind, Vec<Member>)> = Vec::new();
        for member in rest {
            let pass = member.1[depth];
            match branches.iter_mut().find(|(p, _)| *p == pass) {
                Some((_, group)) => group.push(member),
                None => branches.push((pass, vec![member])),
            }
        }
        // Each use of the node clones it, except the last, which takes it.
        let mut uses = ended.len() + branches.len();
        let mut node = Some(node);
        let mut take = || {
            uses -= 1;
            let next = if uses == 0 { node.take() } else { node.clone() };
            next.expect("the node is not used after its last use")
        };
        for (slot, _) in ended {
            let (ir, mut log) = take();
            for entry in &mut log.entries {
                entry.impl_id = self.impls[slot];
            }
            built[slot] = Some((ir, log));
        }
        for (pass, group) in branches {
            let (mut ir, mut log) = take();
            passes::run_pass_logged(&mut ir, pass, self.personality, Some(&mut log));
            self.grow((ir, log), depth + 1, group, built);
        }
    }
}

/// [`optimize_all`] with each IR linked: `impls`' binaries, each equal to
/// [`compile`]'s (`uid` aside), and their rewrite logs, in `impls` order.
pub fn compile_all(
    checked: &CheckedProgram,
    impls: &[CompilerImpl],
) -> (Vec<Binary>, Vec<RewriteLog>) {
    optimize_all(checked, impls)
        .into_iter()
        .zip(impls)
        .map(|((ir, log), ci)| (Binary::link(ir, ci.personality()), log))
        .unzip()
}

/// Parses, checks, and compiles source with one compiler implementation.
///
/// # Errors
///
/// Returns the frontend error if the source does not parse or check.
pub fn compile_source(src: &str, impl_id: CompilerImpl) -> Result<Binary, FrontendError> {
    let checked = minc::check(src)?;
    Ok(compile(&checked, impl_id))
}

/// Compiles source with every implementation in `impls`.
///
/// # Errors
///
/// Returns the frontend error if the source does not parse or check
/// (checking happens once; compilation itself is infallible).
pub fn compile_many(src: &str, impls: &[CompilerImpl]) -> Result<Vec<Binary>, FrontendError> {
    let checked = minc::check(src)?;
    Ok(compile_all(&checked, impls).0)
}

/// Compiles source with the paper's default ten implementations.
///
/// # Errors
///
/// Returns the frontend error if the source does not parse or check.
pub fn compile_default_set(src: &str) -> Result<Vec<Binary>, FrontendError> {
    compile_many(src, &CompilerImpl::default_set())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_with_all_ten_impls() {
        let src = r#"
            int add(int a, int b) { return a + b; }
            int main() {
                int x = add(20, 22);
                printf("%d\n", x);
                return 0;
            }
        "#;
        let bins = compile_default_set(src).unwrap();
        assert_eq!(bins.len(), 10);
        // O0 binaries are bigger (no DCE) than O2 of the same family.
        let by_name = |n: &str| bins.iter().find(|b| b.impl_id.to_string() == n).unwrap();
        assert!(by_name("gcc-O0").size() >= by_name("gcc-O2").size());
    }

    #[test]
    fn frontend_errors_propagate() {
        assert!(compile_source("int main( { }", CompilerImpl::parse("gcc-O0").unwrap()).is_err());
        assert!(compile_default_set("int f() { return 0; }").is_err()); // no main
    }
}
