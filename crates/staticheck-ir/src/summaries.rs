//! Per-function summaries for interprocedural dataflow.
//!
//! The three abstract domains were originally intraprocedural: a `Call`
//! killed the destination register and nothing else, so junk returned
//! from a helper, a dereference inside a callee, or a constant-returning
//! helper were all invisible at the call site. This module computes a
//! bottom-up summary per function — what flows *out* through the return
//! value and what the callee *requires* of its pointer arguments — and
//! the domains consult it in their `Call` transfer functions.
//!
//! Summaries are computed callee-first over the call graph. Cycles
//! (recursion) are broken conservatively: an in-cycle callee contributes
//! the unknown summary, which degrades precision (fewer facts, therefore
//! fewer findings) but never soundness of what *is* reported.

use crate::dataflow::{fixpoint, scan_with_blocks, Visit};
use crate::domains::{Interval, IntervalAnalysis, JunkAnalysis, NullAnalysis};
use minc_compile::ir::{Callee, FuncId, Inst, IrProgram, Terminator};
use std::collections::BTreeMap;

/// Junk ids at or above this value are *parameter sentinels*: the summary
/// computation seeds parameter `i` of the function under analysis with
/// junk id `PARAM_JUNK_BASE + i` to discover which parameters flow to the
/// return value. Real junk ids keep bit 31 clear (mem2reg packs
/// `0x4000_0000 | func_index << 12 | slot`, the lowerer uses small ids),
/// so bit 31 marks a sentinel; sentinels never leak into findings because
/// callers re-run the analysis with real states.
pub const PARAM_JUNK_BASE: u32 = 1 << 31;

/// What one function exposes to its callers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// Number of parameters (guards index lookups at ragged call sites).
    pub params: usize,
    /// The function may return a junk value even when every argument is
    /// clean (an uninitialized local escaping through `return`); the id
    /// is the mem2reg junk id, kept for provenance corroboration.
    pub returns_junk: Option<u32>,
    /// `param_junk_to_ret[i]`: junk passed in parameter `i` may flow to
    /// the return value.
    pub param_junk_to_ret: Vec<bool>,
    /// `derefs_param[i]`: parameter `i` is dereferenced on *every* path
    /// from entry to every return — the interprocedural precondition for
    /// null-check-after-deref at the caller.
    pub derefs_param: Vec<bool>,
    /// Interval of the return value provable with unknown parameters
    /// (`None` = unknown on at least one return path).
    pub ret_interval: Option<Interval>,
}

/// Summaries for every function of a program, keyed by [`FuncId`].
#[derive(Debug, Clone, Default)]
pub struct FnSummaries {
    map: BTreeMap<u32, FnSummary>,
}

impl FnSummaries {
    /// The empty map: every lookup misses, reproducing the old
    /// intraprocedural behaviour exactly.
    pub fn empty() -> FnSummaries {
        FnSummaries::default()
    }

    /// Summary for `f`, if one has been computed.
    pub fn get(&self, f: FuncId) -> Option<&FnSummary> {
        self.map.get(&f.0)
    }

    /// Computes summaries for every function of `prog`, callees first.
    pub fn of(prog: &IrProgram) -> FnSummaries {
        let n = prog.functions.len();
        // Callee lists per function, deduplicated, deterministic order.
        let callees: Vec<Vec<u32>> = prog
            .functions
            .iter()
            .map(|f| {
                let mut cs: Vec<u32> = f
                    .blocks
                    .iter()
                    .flat_map(|b| &b.insts)
                    .filter_map(|i| match i {
                        Inst::Call {
                            callee: Callee::Func(fid),
                            ..
                        } => Some(fid.0),
                        _ => None,
                    })
                    .collect();
                cs.sort_unstable();
                cs.dedup();
                cs
            })
            .collect();

        // Iterative DFS post-order; a function is summarized only after
        // every callee outside its own cycle. Back edges (recursion) hit
        // a function that is on the stack or not yet summarized — its
        // lookup simply misses, which is the conservative unknown.
        let mut summaries = FnSummaries::empty();
        let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
        for root in 0..n {
            if state[root] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            state[root] = 1;
            while let Some(&mut (f, ref mut next)) = stack.last_mut() {
                if let Some(&c) = callees[f].get(*next) {
                    *next += 1;
                    if state[c as usize] == 0 {
                        state[c as usize] = 1;
                        stack.push((c as usize, 0));
                    }
                } else {
                    stack.pop();
                    state[f] = 2;
                    let summary = summarize_one(prog, f, &summaries);
                    summaries.map.insert(f as u32, summary);
                }
            }
        }
        summaries
    }
}

/// Summarizes one function given the (partial) summaries of its callees.
fn summarize_one(prog: &IrProgram, idx: usize, done: &FnSummaries) -> FnSummary {
    let f = &prog.functions[idx];
    let params = f.param_count as usize;
    let mut out = FnSummary {
        params,
        param_junk_to_ret: vec![false; params],
        derefs_param: vec![false; params],
        ..FnSummary::default()
    };

    // Junk flow: seed each parameter with its sentinel id and watch the
    // return registers. Real junk ids (below the sentinel base) mean the
    // function manufactures junk itself.
    let junk = JunkAnalysis {
        summaries: done,
        seed_params: true,
    };
    let jstates = fixpoint(f, &junk);
    scan_with_blocks(f, &junk, &jstates, |_, st, v| {
        if let Visit::Term(Terminator::Ret(Some(r))) = v {
            if let Some(&id) = st.get(&r.0) {
                if id >= PARAM_JUNK_BASE {
                    let p = (id - PARAM_JUNK_BASE) as usize;
                    if p < params {
                        out.param_junk_to_ret[p] = true;
                    }
                } else {
                    out.returns_junk = Some(out.returns_junk.map_or(id, |cur| cur.min(id)));
                }
            }
        }
    });

    // Must-deref of parameters: intersect the derefed set over every
    // return point. A function with no reachable return derefs nothing
    // (claiming a must-fact on a diverging path would be wrong for the
    // caller's remaining code only in the trivial sense, but stay safe).
    let null = NullAnalysis { summaries: done };
    let nstates = fixpoint(f, &null);
    let mut derefed_at_rets: Option<Vec<bool>> = None;
    scan_with_blocks(f, &null, &nstates, |_, st, v| {
        if let Visit::Term(Terminator::Ret(_)) = v {
            let here: Vec<bool> = (0..params as u32)
                .map(|p| st.derefed.contains(&st.root(p)))
                .collect();
            derefed_at_rets = Some(match derefed_at_rets.take() {
                None => here,
                Some(acc) => acc.iter().zip(&here).map(|(a, b)| *a && *b).collect(),
            });
        }
    });
    if let Some(d) = derefed_at_rets {
        out.derefs_param = d;
    }

    // Return interval: the hull over all return points; unknown anywhere
    // means unknown overall.
    let ivals = IntervalAnalysis { summaries: done };
    let istates = fixpoint(f, &ivals);
    let mut seen_ret = false;
    let mut acc: Option<Interval> = None;
    scan_with_blocks(f, &ivals, &istates, |_, st, v| {
        if let Visit::Term(Terminator::Ret(Some(r))) = v {
            let here = st.get(&r.0).copied();
            acc = if !seen_ret {
                here
            } else {
                match (acc, here) {
                    (Some(a), Some(h)) => Some(Interval {
                        lo: a.lo.min(h.lo),
                        hi: a.hi.max(h.hi),
                    }),
                    _ => None,
                }
            };
            seen_ret = true;
        }
    });
    out.ret_interval = acc;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_ir(src: &str) -> IrProgram {
        crate::reference_ir(&minc::check(src).unwrap())
    }

    fn summary_of<'a>(prog: &IrProgram, s: &'a FnSummaries, name: &str) -> &'a FnSummary {
        s.get(prog.func_by_name(name).unwrap()).unwrap()
    }

    #[test]
    fn uninit_escaping_through_return_is_summarized() {
        let ir = reference_ir(
            r#"
            int helper() { int u; return u; }
            int main() { printf("%d\n", helper()); return 0; }
        "#,
        );
        let s = FnSummaries::of(&ir);
        assert!(summary_of(&ir, &s, "helper").returns_junk.is_some());
        assert!(summary_of(&ir, &s, "main").returns_junk.is_none());
    }

    #[test]
    fn junk_parameter_flows_to_return() {
        let ir = reference_ir(
            r#"
            int pass(int x) { return x + 1; }
            int zero(int x) { return 0; }
            int main() { printf("%d\n", pass(1) + zero(2)); return 0; }
        "#,
        );
        let s = FnSummaries::of(&ir);
        assert_eq!(summary_of(&ir, &s, "pass").param_junk_to_ret, vec![true]);
        assert_eq!(summary_of(&ir, &s, "zero").param_junk_to_ret, vec![false]);
    }

    #[test]
    fn junk_return_propagates_through_wrappers() {
        // Two hops: wrapper() returns helper()'s junk.
        let ir = reference_ir(
            r#"
            int helper() { int u; return u; }
            int wrapper() { return helper(); }
            int main() { printf("%d\n", wrapper()); return 0; }
        "#,
        );
        let s = FnSummaries::of(&ir);
        assert!(summary_of(&ir, &s, "wrapper").returns_junk.is_some());
    }

    #[test]
    fn must_derefed_parameter_is_summarized() {
        let ir = reference_ir(
            r#"
            int always(int* p) { return *p; }
            int sometimes(int* p, int c) {
                if (c) { return *p; }
                return 0;
            }
            int main() {
                int x = 1;
                printf("%d %d\n", always(&x), sometimes(&x, 0));
                return 0;
            }
        "#,
        );
        let s = FnSummaries::of(&ir);
        assert_eq!(summary_of(&ir, &s, "always").derefs_param, vec![true]);
        // Only one path derefs: not a must-fact.
        assert_eq!(
            summary_of(&ir, &s, "sometimes").derefs_param,
            vec![false, false]
        );
    }

    #[test]
    fn constant_return_interval_is_summarized() {
        let ir = reference_ir(
            r#"
            int big() { return 40; }
            int main() { printf("%d\n", big()); return 0; }
        "#,
        );
        let s = FnSummaries::of(&ir);
        assert_eq!(
            summary_of(&ir, &s, "big").ret_interval,
            Some(Interval::point(40))
        );
    }

    #[test]
    fn recursion_degrades_to_unknown_not_divergence() {
        let ir = reference_ir(
            r#"
            int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            int main() { printf("%d\n", fib(5)); return 0; }
        "#,
        );
        let s = FnSummaries::of(&ir);
        let fib = summary_of(&ir, &s, "fib");
        // The recursive call contributes unknown; nothing blows up and no
        // junk is invented.
        assert!(fib.returns_junk.is_none());
        assert_eq!(fib.ret_interval, None);
    }
}
