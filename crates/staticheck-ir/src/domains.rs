//! Abstract domains for the IR lint.
//!
//! Three domains cover the unstable-code classes the lint reports
//! directly:
//!
//! * [`JunkAnalysis`] — which registers *may* carry an indeterminate
//!   ([`ConstVal::Junk`]) value, tagged with the mem2reg junk id so a
//!   finding can be correlated with the promotion that introduced it;
//! * [`NullAnalysis`] — which registers have been dereferenced on *every*
//!   path (the null-check-after-deref precondition);
//! * [`IntervalAnalysis`] — value intervals with widening, used to prove
//!   shift amounts out of range for the operand width.
//!
//! Every domain carries a [`FnSummaries`] reference: `Call` transfer
//! functions consult the callee's summary instead of blindly killing the
//! destination, which is what makes the lint interprocedural. Passing
//! [`FnSummaries::empty`] reproduces the old intraprocedural behaviour.

use crate::dataflow::Analysis;
use crate::summaries::{FnSummaries, PARAM_JUNK_BASE};
use minc_compile::ir::{Callee, ConstVal, Inst, IrFunction, IrType};
use std::collections::{BTreeMap, BTreeSet};

// ------------------------------------------------------------------- junk

/// May-analysis: registers possibly holding mem2reg junk (an uninitialized
/// promoted local, or a value computed from one).
pub struct JunkAnalysis<'a> {
    /// Callee summaries for junk flow through calls.
    pub summaries: &'a FnSummaries,
    /// Seed each parameter register with its sentinel junk id
    /// ([`PARAM_JUNK_BASE`]` + i`) — the summary-computation mode that
    /// discovers parameter-to-return flow. Detector scans leave this off.
    pub seed_params: bool,
}

impl<'a> JunkAnalysis<'a> {
    /// Detector-mode analysis (no parameter seeding).
    pub fn new(summaries: &'a FnSummaries) -> Self {
        JunkAnalysis {
            summaries,
            seed_params: false,
        }
    }
}

/// State for [`JunkAnalysis`]: register -> junk id it may carry.
pub type JunkState = BTreeMap<u32, u32>;

impl Analysis for JunkAnalysis<'_> {
    type State = JunkState;

    fn entry_state(&self, f: &IrFunction) -> JunkState {
        let mut st = JunkState::new();
        if self.seed_params {
            for p in 0..f.param_count {
                st.insert(p, PARAM_JUNK_BASE + p);
            }
        }
        st
    }

    fn transfer_inst(&self, st: &mut JunkState, inst: &Inst, _f: &IrFunction) {
        match inst {
            Inst::Const {
                dst,
                val: ConstVal::Junk(id),
                ..
            } => {
                st.insert(dst.0, *id);
            }
            Inst::Copy { dst, src, .. } => match st.get(&src.0).copied() {
                Some(id) => {
                    st.insert(dst.0, id);
                }
                None => {
                    st.remove(&dst.0);
                }
            },
            // Junk is poison: arithmetic on an indeterminate value yields
            // an indeterminate value (the MSan shadow-propagation rule).
            Inst::Bin { .. } | Inst::Un { .. } | Inst::Cast { .. } => {
                let mut tainted = None;
                inst.for_each_use(|u| tainted = tainted.or_else(|| st.get(&u.0).copied()));
                let dst = inst.dst().expect("bin/un/cast produce a value");
                match tainted {
                    Some(id) => {
                        st.insert(dst.0, id);
                    }
                    None => {
                        st.remove(&dst.0);
                    }
                }
            }
            // Calls: the callee summary says whether junk comes back —
            // either junk the callee manufactures itself or junk passed
            // in through an argument that flows to the return value.
            Inst::Call {
                dst,
                callee: Callee::Func(fid),
                args,
                ..
            } => {
                let flow = self.summaries.get(*fid).and_then(|s| {
                    let own = s.returns_junk;
                    let via_args = args
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| s.param_junk_to_ret.get(*i).copied().unwrap_or(false))
                        .filter_map(|(_, a)| st.get(&a.0).copied())
                        .min();
                    match (own, via_args) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    }
                });
                if let Some(d) = dst {
                    match flow {
                        Some(id) => {
                            st.insert(d.0, id);
                        }
                        None => {
                            st.remove(&d.0);
                        }
                    }
                }
            }
            // Memory and builtin-call results are treated as clean: the
            // lint only chases register junk introduced by promotion.
            _ => {
                if let Some(dst) = inst.dst() {
                    st.remove(&dst.0);
                }
            }
        }
    }

    fn join(&self, into: &mut JunkState, from: &JunkState) -> bool {
        let mut changed = false;
        for (r, id) in from {
            match into.get(r) {
                // Two different junk sources meeting: keep the smaller id
                // deterministically; either attribution is valid evidence.
                Some(cur) if cur <= id => {}
                _ => {
                    into.insert(*r, *id);
                    changed = true;
                }
            }
        }
        changed
    }
}

// ------------------------------------------------------------------- null

/// Must-analysis: registers known dereferenced on every path, plus the
/// copy-alias and known-zero facts needed to recognize `p == 0` checks.
#[derive(Clone, Default, PartialEq)]
pub struct NullState {
    /// Roots dereferenced on all paths to this point.
    pub derefed: BTreeSet<u32>,
    /// Copy aliases: register -> the root register it currently mirrors.
    pub alias: BTreeMap<u32, u32>,
    /// Registers currently holding the constant 0 (a null literal).
    pub zeros: BTreeSet<u32>,
    /// Pointer-arithmetic derivations: register -> the root register its
    /// value offsets (`q = p + k`). A dereference of `q` implies `p` is
    /// non-null too (a null base plus an offset is already UB), which is
    /// what lets `p[i]`-style accesses feed the check-after-deref facts.
    pub derived: BTreeMap<u32, u32>,
}

impl NullState {
    /// Resolves a register through the copy-alias map.
    pub fn root(&self, r: u32) -> u32 {
        self.alias.get(&r).copied().unwrap_or(r)
    }

    /// Resolves a register to the pointer base it was derived from:
    /// through copies, then through pointer-arithmetic offsets, then
    /// through copies again (one offset level is all the lowerer emits
    /// per subscript, but chase a short chain to be safe).
    pub fn base(&self, r: u32) -> u32 {
        *self.deref_chain(r).last().expect("chain starts at root(r)")
    }

    /// Every root along the derivation chain from `r` down to its base.
    /// Dereferencing `r` proves *all* of them non-null: a null base plus
    /// an offset is already UB, so `p` is covered by a `p[i]` access even
    /// though the loaded address is the derived `p + i*size` temporary.
    pub fn deref_chain(&self, r: u32) -> Vec<u32> {
        let mut cur = self.root(r);
        let mut chain = vec![cur];
        for _ in 0..8 {
            match self.derived.get(&cur) {
                Some(&b) => {
                    cur = self.root(b);
                    chain.push(cur);
                }
                None => break,
            }
        }
        chain
    }
}

/// Must-derefed analysis backing the null-check-after-deref detector.
pub struct NullAnalysis<'a> {
    /// Callee summaries: arguments passed to a parameter the callee
    /// dereferences on every path become derefed facts at the call site.
    pub summaries: &'a FnSummaries,
}

impl<'a> NullAnalysis<'a> {
    /// Analysis over the given summaries.
    pub fn new(summaries: &'a FnSummaries) -> Self {
        NullAnalysis { summaries }
    }
}

impl Analysis for NullAnalysis<'_> {
    type State = NullState;

    fn entry_state(&self, _f: &IrFunction) -> NullState {
        NullState::default()
    }

    fn transfer_inst(&self, st: &mut NullState, inst: &Inst, _f: &IrFunction) {
        // Any (re)definition invalidates old facts about the register.
        let kill = |st: &mut NullState, d: u32| {
            st.derefed.remove(&d);
            st.alias.remove(&d);
            st.zeros.remove(&d);
            st.derived.remove(&d);
        };
        match inst {
            Inst::Copy { dst, src, .. } => {
                let root = st.root(src.0);
                let src_zero = st.zeros.contains(&src.0);
                kill(st, dst.0);
                st.alias.insert(dst.0, root);
                if src_zero {
                    st.zeros.insert(dst.0);
                }
            }
            Inst::Const { dst, val, .. } => {
                kill(st, dst.0);
                if matches!(val, ConstVal::I64(0) | ConstVal::I32(0)) {
                    st.zeros.insert(dst.0);
                }
            }
            // A null literal reaches pointer width through a widening
            // cast (`p == 0` lowers the 0 as I32 + sext); zero survives.
            Inst::Cast {
                dst,
                kind:
                    minc_compile::ir::CastKind::SextI32I64 | minc_compile::ir::CastKind::ZextI32I64,
                a,
            } => {
                let src_zero = st.zeros.contains(&a.0);
                kill(st, dst.0);
                if src_zero {
                    st.zeros.insert(dst.0);
                }
            }
            Inst::Load { dst, addr, .. } => {
                let chain = st.deref_chain(addr.0);
                kill(st, dst.0);
                st.derefed.extend(chain);
            }
            Inst::Store { addr, .. } => {
                let chain = st.deref_chain(addr.0);
                st.derefed.extend(chain);
            }
            // Pointer arithmetic (`p + k`, `p - k`, the lowering of
            // subscripts and pointer `++`/`--`): remember the base so a
            // later dereference of the derived value marks the base.
            Inst::Bin {
                dst,
                ty: IrType::I64,
                op: minc_compile::ir::BinKind::Add | minc_compile::ir::BinKind::Sub,
                a,
                ..
            } => {
                let base = st.root(a.0);
                kill(st, dst.0);
                if base != dst.0 {
                    st.derived.insert(dst.0, base);
                }
            }
            Inst::Call {
                dst,
                callee: Callee::Func(fid),
                args,
                ..
            } => {
                // The callee dereferences some parameters on every path;
                // the matching arguments are therefore derefed here too.
                let mut new_facts: Vec<u32> = Vec::new();
                if let Some(s) = self.summaries.get(*fid) {
                    for (i, arg) in args.iter().enumerate() {
                        if s.derefs_param.get(i).copied().unwrap_or(false) {
                            new_facts.push(st.base(arg.0));
                        }
                    }
                }
                if let Some(d) = dst {
                    kill(st, d.0);
                }
                st.derefed.extend(new_facts);
            }
            other => {
                if let Some(d) = other.dst() {
                    kill(st, d.0);
                }
            }
        }
    }

    fn join(&self, into: &mut NullState, from: &NullState) -> bool {
        let before = (
            into.derefed.len(),
            into.alias.len(),
            into.zeros.len(),
            into.derived.len(),
        );
        into.derefed.retain(|r| from.derefed.contains(r));
        into.alias.retain(|r, root| from.alias.get(r) == Some(root));
        into.zeros.retain(|r| from.zeros.contains(r));
        into.derived.retain(|r, b| from.derived.get(r) == Some(b));
        (
            into.derefed.len(),
            into.alias.len(),
            into.zeros.len(),
            into.derived.len(),
        ) != before
    }
}

// -------------------------------------------------------------- intervals

/// A closed integer interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Interval {
    /// The single-point interval `[v, v]`.
    pub fn point(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// True if `v` lies inside the interval.
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// State for [`IntervalAnalysis`]: register -> interval. Absent = unknown.
pub type IntervalState = BTreeMap<u32, Interval>;

/// Interval analysis with widening at joins; precise enough to prove a
/// shift amount constant (or constant-derived) and out of range.
pub struct IntervalAnalysis<'a> {
    /// Callee summaries: a call to a function with a provable return
    /// interval gives the destination that interval.
    pub summaries: &'a FnSummaries,
}

impl<'a> IntervalAnalysis<'a> {
    /// Analysis over the given summaries.
    pub fn new(summaries: &'a FnSummaries) -> Self {
        IntervalAnalysis { summaries }
    }
}

impl Analysis for IntervalAnalysis<'_> {
    type State = IntervalState;

    fn entry_state(&self, _f: &IrFunction) -> IntervalState {
        IntervalState::new()
    }

    fn transfer_inst(&self, st: &mut IntervalState, inst: &Inst, _f: &IrFunction) {
        use minc_compile::ir::BinKind::*;
        let get = |st: &IntervalState, v: u32| st.get(&v).copied();
        // Bounds are computed in i64, but the VM wraps an `I32` result:
        // one that leaves the i32 range is unknown.
        let fits = |ty: IrType, out: Option<Interval>| {
            out.filter(|i| {
                ty != IrType::I32 || (i.lo >= i32::MIN as i64 && i.hi <= i32::MAX as i64)
            })
        };
        match inst {
            Inst::Const { dst, val, .. } => {
                match val {
                    ConstVal::I32(v) => {
                        st.insert(dst.0, Interval::point(*v as i64));
                    }
                    ConstVal::I64(v) => {
                        st.insert(dst.0, Interval::point(*v));
                    }
                    _ => {
                        st.remove(&dst.0);
                    }
                };
            }
            Inst::Copy { dst, src, .. } => match get(st, src.0) {
                Some(i) => {
                    st.insert(dst.0, i);
                }
                None => {
                    st.remove(&dst.0);
                }
            },
            Inst::Bin {
                dst, ty, op, a, b, ..
            } => {
                let out = match (op, get(st, a.0), get(st, b.0)) {
                    (Add, Some(x), Some(y)) => {
                        x.lo.checked_add(y.lo)
                            .zip(x.hi.checked_add(y.hi))
                            .map(|(lo, hi)| Interval { lo, hi })
                    }
                    (Sub, Some(x), Some(y)) => {
                        x.lo.checked_sub(y.hi)
                            .zip(x.hi.checked_sub(y.lo))
                            .map(|(lo, hi)| Interval { lo, hi })
                    }
                    (Mul, Some(x), Some(y)) => {
                        // Hull of the four corner products (any corner may
                        // be extremal once signs mix).
                        let corners = [
                            x.lo.checked_mul(y.lo),
                            x.lo.checked_mul(y.hi),
                            x.hi.checked_mul(y.lo),
                            x.hi.checked_mul(y.hi),
                        ];
                        corners
                            .iter()
                            .copied()
                            .try_fold((i64::MAX, i64::MIN), |(lo, hi), c| {
                                c.map(|c| (lo.min(c), hi.max(c)))
                            })
                            .map(|(lo, hi)| Interval { lo, hi })
                    }
                    (And, _, Some(y)) if y.lo == y.hi && y.lo >= 0 => {
                        // `x & mask` with a non-negative constant mask.
                        Some(Interval { lo: 0, hi: y.lo })
                    }
                    (op, _, _) if op.is_comparison() => Some(Interval { lo: 0, hi: 1 }),
                    _ => None,
                };
                match fits(*ty, out) {
                    Some(i) => {
                        st.insert(dst.0, i);
                    }
                    None => {
                        st.remove(&dst.0);
                    }
                }
            }
            Inst::Un { dst, ty, op, a, .. } => {
                use minc_compile::ir::UnKind;
                let out = match (op, get(st, a.0)) {
                    (UnKind::Neg, Some(i)) => {
                        i.hi.checked_neg()
                            .zip(i.lo.checked_neg())
                            .map(|(lo, hi)| Interval { lo, hi })
                    }
                    _ => None,
                };
                match fits(*ty, out) {
                    Some(i) => {
                        st.insert(dst.0, i);
                    }
                    None => {
                        st.remove(&dst.0);
                    }
                }
            }
            Inst::Cast { dst, kind, a } => {
                use minc_compile::ir::CastKind::*;
                let out = match (kind, get(st, a.0)) {
                    (SextI32I64 | SI32F64 | SI64F64, Some(i)) => Some(i),
                    // A negative operand zero-extends to a large positive.
                    (ZextI32I64, Some(i)) if i.lo >= 0 => Some(i),
                    (TruncI64I32, Some(i))
                        if i.lo >= i32::MIN as i64 && i.hi <= i32::MAX as i64 =>
                    {
                        Some(i)
                    }
                    _ => None,
                };
                match out {
                    Some(i) => {
                        st.insert(dst.0, i);
                    }
                    None => {
                        st.remove(&dst.0);
                    }
                }
            }
            Inst::Call {
                dst,
                callee: Callee::Func(fid),
                ..
            } => {
                if let Some(d) = dst {
                    match self.summaries.get(*fid).and_then(|s| s.ret_interval) {
                        Some(i) => {
                            st.insert(d.0, i);
                        }
                        None => {
                            st.remove(&d.0);
                        }
                    }
                }
            }
            other => {
                if let Some(d) = other.dst() {
                    st.remove(&d.0);
                }
            }
        }
    }

    fn join(&self, into: &mut IntervalState, from: &IntervalState) -> bool {
        let mut changed = false;
        let keys: Vec<u32> = into.keys().copied().collect();
        for k in keys {
            match from.get(&k) {
                None => {
                    into.remove(&k);
                    changed = true;
                }
                Some(f) => {
                    let i = into.get_mut(&k).expect("key just listed");
                    // Widen any growing bound straight to +-inf so loops
                    // converge in one extra iteration.
                    if f.lo < i.lo {
                        i.lo = i64::MIN;
                        changed = true;
                    }
                    if f.hi > i.hi {
                        i.hi = i64::MAX;
                        changed = true;
                    }
                }
            }
        }
        changed
    }
}

/// Bit width of an IR type for shift-range checking.
pub fn shift_width(ty: IrType) -> i64 {
    match ty {
        IrType::I32 => 32,
        IrType::I64 => 64,
        IrType::F64 => 64,
    }
}
