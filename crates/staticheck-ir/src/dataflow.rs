//! A small forward-dataflow framework over the minc-compile CFG.
//!
//! The IR uses *mutable* virtual registers (not SSA), so analyses here are
//! classic iterative dataflow: a worklist drives per-block transfer
//! functions to a fixpoint over block *input* states. Analyses supply the
//! lattice through [`Analysis::join`]; may-analyses join by union,
//! must-analyses by intersection, and numeric domains widen inside `join`
//! so the fixpoint terminates on loops.
//!
//! The worklist visits blocks in reverse postorder: it always takes the
//! queued block that comes first in that order, and holds each block at
//! most once at a time. Outside loops a block is then visited only after
//! all its predecessors, so an acyclic function costs one visit per
//! reachable block, however many branches join.

use minc_compile::ir::{BlockId, Inst, IrFunction, Terminator};
use std::collections::BTreeSet;

/// One forward dataflow analysis: the state type plus its transfer and
/// join functions.
pub trait Analysis {
    /// The abstract state attached to each program point.
    type State: Clone;

    /// State on entry to the function (entry block input).
    fn entry_state(&self, f: &IrFunction) -> Self::State;

    /// Applies one instruction's effect to `st`.
    fn transfer_inst(&self, st: &mut Self::State, inst: &Inst, f: &IrFunction);

    /// Applies a terminator's effect (most analyses need nothing here).
    fn transfer_term(&self, _st: &mut Self::State, _term: &Terminator, _f: &IrFunction) {}

    /// Merges `from` into `into` at a control-flow join, returning `true`
    /// iff `into` changed. Must be monotone (and widening where the domain
    /// has infinite ascending chains) or the fixpoint will not terminate.
    fn join(&self, into: &mut Self::State, from: &Self::State) -> bool;
}

/// Fixpoint result: the input state of every block (`None` = unreachable).
pub struct BlockStates<S> {
    /// Input state per block, indexed by `BlockId.0`.
    pub inputs: Vec<Option<S>>,
}

#[cfg(test)]
thread_local! {
    /// Fixpoints run on this thread, so tests can pin how often each
    /// analysis runs.
    pub(crate) static FIXPOINTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Fixpoint replays ([`scan_with_blocks`] calls) run on this thread,
    /// so tests can pin how often each fixpoint is replayed.
    pub(crate) static SCANS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Runs `a` to fixpoint over `f` and returns per-block input states.
pub fn fixpoint<A: Analysis>(f: &IrFunction, a: &A) -> BlockStates<A::State> {
    #[cfg(test)]
    FIXPOINTS.with(|c| c.set(c.get() + 1));
    let n = f.blocks.len();
    let mut inputs: Vec<Option<A::State>> = (0..n).map(|_| None).collect();
    if n == 0 {
        return BlockStates { inputs };
    }
    inputs[0] = Some(a.entry_state(f));
    let order = reverse_postorder(f);
    let mut rank = vec![0; n];
    for (r, b) in order.iter().enumerate() {
        rank[b.0 as usize] = r;
    }
    // Queued blocks by rank; the entry block has rank 0.
    let mut work = BTreeSet::from([0]);
    // Defense in depth against a non-monotone join: every analysis domain
    // here has finite height, but a hard cap keeps the lint total even if
    // a future domain gets widening wrong.
    let mut budget = 256usize.saturating_mul(n.max(1));
    while let Some(r) = work.pop_first() {
        if budget == 0 {
            break;
        }
        budget -= 1;
        let b = order[r];
        let Some(mut st) = inputs[b.0 as usize].clone() else {
            continue;
        };
        let blk = &f.blocks[b.0 as usize];
        for inst in &blk.insts {
            a.transfer_inst(&mut st, inst, f);
        }
        a.transfer_term(&mut st, &blk.term, f);
        for s in blk.term.successors() {
            let slot = &mut inputs[s.0 as usize];
            let changed = match slot {
                None => {
                    *slot = Some(st.clone());
                    true
                }
                Some(cur) => a.join(cur, &st),
            };
            if changed {
                work.insert(rank[s.0 as usize]);
            }
        }
    }
    BlockStates { inputs }
}

/// The blocks reachable from the entry, in reverse postorder of a
/// depth-first search that takes successors in terminator order.
fn reverse_postorder(f: &IrFunction) -> Vec<BlockId> {
    let mut seen = vec![false; f.blocks.len()];
    let mut post = Vec::new();
    let mut stack = vec![(BlockId(0), 0)];
    seen[0] = true;
    while let Some(top) = stack.last_mut() {
        let (b, i) = *top;
        top.1 += 1;
        match f.blocks[b.0 as usize].term.successors().get(i) {
            Some(&s) if !seen[s.0 as usize] => {
                seen[s.0 as usize] = true;
                stack.push((s, 0));
            }
            Some(_) => {}
            None => {
                post.push(b);
                stack.pop();
            }
        }
    }
    post.reverse();
    post
}

/// Where a visited instruction sits: its block and its index in the
/// block, `insts.len()` for the terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// The block.
    pub block: BlockId,
    /// The instruction's index in the block.
    pub inst: usize,
}

/// One program point handed to [`scan_with_blocks`]'s visitor.
pub enum Visit<'a> {
    /// A straight-line instruction.
    Inst(&'a Inst),
    /// A block terminator.
    Term(&'a Terminator),
}

/// Replays the fixpoint over every reachable block, in block order,
/// calling `visit` with the point, the state *before* each instruction
/// and the state before the terminator. This is how detectors turn a
/// fixpoint into findings without duplicating the transfer logic;
/// consumers that need execution certainty (is this point on the
/// unconditional path from entry?) key it off the point.
pub fn scan_with_blocks<A: Analysis>(
    f: &IrFunction,
    a: &A,
    states: &BlockStates<A::State>,
    mut visit: impl FnMut(Point, &A::State, Visit),
) {
    #[cfg(test)]
    SCANS.with(|c| c.set(c.get() + 1));
    for (bi, blk) in f.blocks.iter().enumerate() {
        let Some(input) = &states.inputs[bi] else {
            continue;
        };
        let block = BlockId(bi as u32);
        let mut st = input.clone();
        for (i, inst) in blk.insts.iter().enumerate() {
            visit(Point { block, inst: i }, &st, Visit::Inst(inst));
            a.transfer_inst(&mut st, inst, f);
        }
        let end = Point {
            block,
            inst: blk.insts.len(),
        };
        visit(end, &st, Visit::Term(&blk.term));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minc_compile::personality::{CompilerImpl, Family, OptLevel};

    /// A trivial may-analysis counting defined registers, to exercise the
    /// worklist on a loopy CFG.
    struct Defined;

    impl Analysis for Defined {
        type State = std::collections::BTreeSet<u32>;

        fn entry_state(&self, f: &IrFunction) -> Self::State {
            (0..f.param_count).collect()
        }

        fn transfer_inst(&self, st: &mut Self::State, inst: &Inst, _f: &IrFunction) {
            if let Some(d) = inst.dst() {
                st.insert(d.0);
            }
        }

        fn join(&self, into: &mut Self::State, from: &Self::State) -> bool {
            let before = into.len();
            into.extend(from.iter().copied());
            into.len() != before
        }
    }

    /// [`Defined`], counting block visits (one `transfer_term` each).
    #[derive(Default)]
    struct CountVisits(std::cell::Cell<usize>);

    impl Analysis for CountVisits {
        type State = <Defined as Analysis>::State;

        fn entry_state(&self, f: &IrFunction) -> Self::State {
            Defined.entry_state(f)
        }

        fn transfer_inst(&self, st: &mut Self::State, inst: &Inst, f: &IrFunction) {
            Defined.transfer_inst(st, inst, f);
        }

        fn transfer_term(&self, _st: &mut Self::State, _term: &Terminator, _f: &IrFunction) {
            self.0.set(self.0.get() + 1);
        }

        fn join(&self, into: &mut Self::State, from: &Self::State) -> bool {
            Defined.join(into, from)
        }
    }

    #[test]
    fn acyclic_functions_visit_each_reachable_block_once() {
        // 200 nested ternaries lower to a chain of 200 diamonds, with a
        // state that grows along it.
        let src = format!(
            "int main() {{ int x = 1; return {}x; }}",
            "x ? x : ".repeat(200)
        );
        let checked = minc::check(&src).unwrap();
        let p = CompilerImpl::new(Family::Gcc, OptLevel::O0).personality();
        let ir = minc_compile::lower::lower(&checked, &p);
        let f = &ir.functions[0];
        let visits = CountVisits::default();
        fixpoint(f, &visits);
        assert_eq!(visits.0.get(), f.reachable_blocks().len());
    }

    #[test]
    fn fixpoint_reaches_loop_blocks() {
        let src = r#"
            int main() {
                int i;
                int acc = 0;
                for (i = 0; i < 10; i++) { acc += i; }
                return acc;
            }
        "#;
        let checked = minc::check(src).unwrap();
        let p = CompilerImpl::new(Family::Gcc, OptLevel::O0).personality();
        let ir = minc_compile::lower::lower(&checked, &p);
        let f = &ir.functions[0];
        let states = fixpoint(f, &Defined);
        for b in f.reachable_blocks() {
            assert!(states.inputs[b.0 as usize].is_some(), "{b} unreachable?");
        }
        // The exit block's input knows every register defined on the path.
        let mut seen = 0;
        scan_with_blocks(f, &Defined, &states, |_, st, _| seen = seen.max(st.len()));
        assert!(seen > 0);
    }

    #[test]
    fn unreachable_blocks_stay_none() {
        let src = "int main() { return 0; int x = 1; return x; }";
        let checked = minc::check(src).unwrap();
        let p = CompilerImpl::new(Family::Gcc, OptLevel::O0).personality();
        let ir = minc_compile::lower::lower(&checked, &p);
        let f = &ir.functions[0];
        let states = fixpoint(f, &Defined);
        let reachable: std::collections::HashSet<u32> =
            f.reachable_blocks().iter().map(|b| b.0).collect();
        for (i, s) in states.inputs.iter().enumerate() {
            assert_eq!(s.is_some(), reachable.contains(&(i as u32)), "block {i}");
        }
    }
}
