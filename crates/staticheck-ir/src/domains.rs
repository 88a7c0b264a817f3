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
//!
//! Every state is built from [`RegMap`], a register-keyed map kept as a
//! vector sorted by register.

use crate::dataflow::Analysis;
use crate::summaries::{FnSummaries, PARAM_JUNK_BASE};
use minc_compile::ir::{Callee, ConstVal, Inst, IrFunction, IrType};

// --------------------------------------------------------------- states

/// A register-keyed map, kept as its entries sorted by register.
///
/// A state is cloned on every block visit and joined at every merge, and
/// it holds the few registers a path has facts about, not every register
/// of the function. So a clone is one allocation and copy, a join one
/// linear merge ([`union_with`](Self::union_with),
/// [`intersect_with`](Self::intersect_with)), and iteration runs in
/// ascending register order. A dense array indexed by register would
/// make each clone cost the function's whole register count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegMap<V> {
    entries: Vec<(u32, V)>,
}

/// A set of registers.
pub type RegSet = RegMap<()>;

impl<V> Default for RegMap<V> {
    fn default() -> Self {
        RegMap {
            entries: Vec::new(),
        }
    }
}

impl<V> RegMap<V> {
    /// The empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Where `r`'s entry is, or where it would be inserted.
    fn position(&self, r: u32) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&r, |&(k, _)| k)
    }

    /// The value of register `r`.
    pub fn get(&self, r: u32) -> Option<&V> {
        self.position(r).ok().map(|i| &self.entries[i].1)
    }

    /// True if register `r` has an entry.
    pub fn contains(&self, r: u32) -> bool {
        self.position(r).is_ok()
    }

    /// Sets register `r`'s value, returning the old one.
    pub fn insert(&mut self, r: u32, v: V) -> Option<V> {
        match self.position(r) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, v)),
            Err(i) => {
                self.entries.insert(i, (r, v));
                None
            }
        }
    }

    /// Removes register `r`'s entry, returning its value.
    pub fn remove(&mut self, r: u32) -> Option<V> {
        self.position(r).ok().map(|i| self.entries.remove(i).1)
    }

    /// Keeps only the entries for which `keep` holds.
    pub fn retain(&mut self, mut keep: impl FnMut(u32, &mut V) -> bool) {
        self.entries.retain_mut(|(r, v)| keep(*r, v));
    }

    /// The entries in ascending register order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        self.entries.iter().map(|(r, v)| (*r, v))
    }

    /// Adds every entry of `from` that `self` lacks, and calls
    /// `merge(mine, theirs)` for each register both have; returns true if
    /// an entry was added or a `merge` returned true (it changed `mine`).
    pub fn union_with(&mut self, from: &Self, mut merge: impl FnMut(&mut V, &V) -> bool) -> bool
    where
        V: Clone,
    {
        let mut changed = false;
        let mut missing = 0;
        let mut mine = self.entries.iter_mut().peekable();
        for (r, theirs) in &from.entries {
            while mine.next_if(|(m, _)| m < r).is_some() {}
            match mine.next_if(|(m, _)| m == r) {
                Some((_, v)) => changed |= merge(v, theirs),
                None => missing += 1,
            }
        }
        if missing > 0 {
            let merged = Vec::with_capacity(self.entries.len() + missing);
            let old = std::mem::replace(&mut self.entries, merged);
            let mut theirs = from.entries.iter().peekable();
            for (r, v) in old {
                while let Some(e) = theirs.next_if(|(t, _)| *t < r) {
                    self.entries.push(e.clone());
                }
                theirs.next_if(|(t, _)| *t == r);
                self.entries.push((r, v));
            }
            self.entries.extend(theirs.cloned());
            changed = true;
        }
        changed
    }

    /// Keeps the entries whose register `from` also has and for which
    /// `keep(mine, theirs)` holds (it may change `mine`); returns true if
    /// an entry was dropped.
    pub fn intersect_with(
        &mut self,
        from: &Self,
        mut keep: impl FnMut(&mut V, &V) -> bool,
    ) -> bool {
        let before = self.len();
        let mut theirs = from.entries.iter().peekable();
        self.retain(|r, v| {
            while theirs.next_if(|(t, _)| *t < r).is_some() {}
            match theirs.next_if(|(t, _)| *t == r) {
                Some((_, w)) => keep(v, w),
                None => false,
            }
        });
        self.len() != before
    }
}

impl Extend<u32> for RegSet {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, regs: I) {
        for r in regs {
            self.insert(r, ());
        }
    }
}

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
pub type JunkState = RegMap<u32>;

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
            Inst::Copy { dst, src, .. } => match st.get(src.0).copied() {
                Some(id) => {
                    st.insert(dst.0, id);
                }
                None => {
                    st.remove(dst.0);
                }
            },
            // Junk is poison: arithmetic on an indeterminate value yields
            // an indeterminate value (the MSan shadow-propagation rule).
            Inst::Bin { .. } | Inst::Un { .. } | Inst::Cast { .. } => {
                let mut tainted = None;
                inst.for_each_use(|u| tainted = tainted.or_else(|| st.get(u.0).copied()));
                let dst = inst.dst().expect("bin/un/cast produce a value");
                match tainted {
                    Some(id) => {
                        st.insert(dst.0, id);
                    }
                    None => {
                        st.remove(dst.0);
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
                        .filter_map(|(_, a)| st.get(a.0).copied())
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
                            st.remove(d.0);
                        }
                    }
                }
            }
            // Memory and builtin-call results are treated as clean: the
            // lint only chases register junk introduced by promotion.
            _ => {
                if let Some(dst) = inst.dst() {
                    st.remove(dst.0);
                }
            }
        }
    }

    fn join(&self, into: &mut JunkState, from: &JunkState) -> bool {
        // Two different junk sources meeting: keep the smaller id
        // deterministically; either attribution is valid evidence.
        into.union_with(from, |cur, id| {
            let smaller = *id < *cur;
            if smaller {
                *cur = *id;
            }
            smaller
        })
    }
}

// ------------------------------------------------------------------- null

/// Must-analysis: registers known dereferenced on every path, plus the
/// copy-alias and known-zero facts needed to recognize `p == 0` checks.
#[derive(Clone, Default, PartialEq)]
pub struct NullState {
    /// Roots dereferenced on all paths to this point.
    pub derefed: RegSet,
    /// Copy aliases: register -> the root register it currently mirrors.
    pub alias: RegMap<u32>,
    /// Registers currently holding the constant 0 (a null literal).
    pub zeros: RegSet,
    /// Pointer-arithmetic derivations: register -> the root register its
    /// value offsets (`q = p + k`). A dereference of `q` implies `p` is
    /// non-null too (a null base plus an offset is already UB), which is
    /// what lets `p[i]`-style accesses feed the check-after-deref facts.
    pub derived: RegMap<u32>,
}

impl NullState {
    /// Resolves a register through the copy-alias map.
    pub fn root(&self, r: u32) -> u32 {
        self.alias.get(r).copied().unwrap_or(r)
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
            match self.derived.get(cur) {
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
            st.derefed.remove(d);
            st.alias.remove(d);
            st.zeros.remove(d);
            st.derived.remove(d);
        };
        match inst {
            Inst::Copy { dst, src, .. } => {
                let root = st.root(src.0);
                let src_zero = st.zeros.contains(src.0);
                kill(st, dst.0);
                st.alias.insert(dst.0, root);
                if src_zero {
                    st.zeros.insert(dst.0, ());
                }
            }
            Inst::Const { dst, val, .. } => {
                kill(st, dst.0);
                if matches!(val, ConstVal::I64(0) | ConstVal::I32(0)) {
                    st.zeros.insert(dst.0, ());
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
                let src_zero = st.zeros.contains(a.0);
                kill(st, dst.0);
                if src_zero {
                    st.zeros.insert(dst.0, ());
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
        let same = |a: &mut u32, b: &u32| *a == *b;
        let derefed = into.derefed.intersect_with(&from.derefed, |_, _| true);
        let alias = into.alias.intersect_with(&from.alias, same);
        let zeros = into.zeros.intersect_with(&from.zeros, |_, _| true);
        let derived = into.derived.intersect_with(&from.derived, same);
        derefed | alias | zeros | derived
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
pub type IntervalState = RegMap<Interval>;

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
        let get = |st: &IntervalState, v: u32| st.get(v).copied();
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
                        st.remove(dst.0);
                    }
                };
            }
            Inst::Copy { dst, src, .. } => match get(st, src.0) {
                Some(i) => {
                    st.insert(dst.0, i);
                }
                None => {
                    st.remove(dst.0);
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
                        st.remove(dst.0);
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
                        st.remove(dst.0);
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
                        st.remove(dst.0);
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
                            st.remove(d.0);
                        }
                    }
                }
            }
            other => {
                if let Some(d) = other.dst() {
                    st.remove(d.0);
                }
            }
        }
    }

    fn join(&self, into: &mut IntervalState, from: &IntervalState) -> bool {
        let mut widened = false;
        let dropped = into.intersect_with(from, |i, f| {
            // Widen any growing bound straight to +-inf so loops
            // converge in one extra iteration.
            if f.lo < i.lo {
                i.lo = i64::MIN;
                widened = true;
            }
            if f.hi > i.hi {
                i.hi = i64::MAX;
                widened = true;
            }
            true
        });
        dropped || widened
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// SplitMix64 (public domain algorithm): draws the model test's
    /// operations deterministically.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }

        /// A register from a range small enough that draws collide.
        fn reg(&mut self) -> u32 {
            self.below(24) as u32
        }
    }

    fn entries<V: Copy>(m: &RegMap<V>) -> Vec<(u32, V)> {
        m.iter().map(|(r, v)| (r, *v)).collect()
    }

    fn tree_entries<V: Copy>(m: &BTreeMap<u32, V>) -> Vec<(u32, V)> {
        m.iter().map(|(r, v)| (*r, *v)).collect()
    }

    fn set_of(s: &BTreeSet<u32>) -> RegSet {
        let mut out = RegSet::new();
        out.extend(s.iter().copied());
        out
    }

    fn map_of<V: Copy>(m: &BTreeMap<u32, V>) -> RegMap<V> {
        let mut out = RegMap::new();
        for (r, v) in m {
            out.insert(*r, *v);
        }
        out
    }

    /// A random map over few registers: empty, a subset of `like`, or
    /// drawn afresh, so joins meet disjoint, overlapping and contained
    /// states.
    fn tree_map<V: Copy>(
        rng: &mut Rng,
        like: &BTreeMap<u32, V>,
        mut value: impl FnMut(&mut Rng) -> V,
    ) -> BTreeMap<u32, V> {
        match rng.below(4) {
            0 => BTreeMap::new(),
            1 => like
                .iter()
                .filter(|_| rng.below(3) != 0)
                .map(|(r, v)| (*r, *v))
                .collect(),
            _ => (0..rng.below(12))
                .map(|_| (rng.reg(), value(rng)))
                .collect(),
        }
    }

    /// The join the junk state had as a `BTreeMap`.
    fn tree_junk_join(into: &mut BTreeMap<u32, u32>, from: &BTreeMap<u32, u32>) -> bool {
        let mut changed = false;
        for (r, id) in from {
            match into.get(r) {
                Some(cur) if cur <= id => {}
                _ => {
                    into.insert(*r, *id);
                    changed = true;
                }
            }
        }
        changed
    }

    /// The join the interval state had as a `BTreeMap`.
    fn tree_interval_join(
        into: &mut BTreeMap<u32, Interval>,
        from: &BTreeMap<u32, Interval>,
    ) -> bool {
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

    /// [`NullState`]'s four fields as the `BTreeSet`s and `BTreeMap`s
    /// they were.
    #[derive(Clone)]
    struct TreeNull {
        derefed: BTreeSet<u32>,
        alias: BTreeMap<u32, u32>,
        zeros: BTreeSet<u32>,
        derived: BTreeMap<u32, u32>,
    }

    impl TreeNull {
        fn random(rng: &mut Rng, like: &TreeNull) -> TreeNull {
            let set = |rng: &mut Rng, like: &BTreeSet<u32>| {
                let as_map: BTreeMap<u32, ()> = like.iter().map(|r| (*r, ())).collect();
                tree_map(rng, &as_map, |_| ()).into_keys().collect()
            };
            let reg = |rng: &mut Rng| rng.reg();
            TreeNull {
                derefed: set(rng, &like.derefed),
                alias: tree_map(rng, &like.alias, reg),
                zeros: set(rng, &like.zeros),
                derived: tree_map(rng, &like.derived, reg),
            }
        }

        fn state(&self) -> NullState {
            NullState {
                derefed: set_of(&self.derefed),
                alias: map_of(&self.alias),
                zeros: set_of(&self.zeros),
                derived: map_of(&self.derived),
            }
        }

        /// The join the null state had over these fields.
        fn join(&mut self, from: &TreeNull) -> bool {
            let before = (
                self.derefed.len(),
                self.alias.len(),
                self.zeros.len(),
                self.derived.len(),
            );
            self.derefed.retain(|r| from.derefed.contains(r));
            self.alias.retain(|r, root| from.alias.get(r) == Some(root));
            self.zeros.retain(|r| from.zeros.contains(r));
            self.derived.retain(|r, b| from.derived.get(r) == Some(b));
            (
                self.derefed.len(),
                self.alias.len(),
                self.zeros.len(),
                self.derived.len(),
            ) != before
        }
    }

    #[test]
    fn reg_map_matches_the_btree_map() {
        let mut ops = [0usize; 7];
        for seed in 0..64 {
            let mut rng = Rng(seed);
            let (mut a, mut b) = (RegMap::<u32>::new(), RegMap::<u32>::new());
            let (mut ta, mut tb) = (BTreeMap::<u32, u32>::new(), BTreeMap::<u32, u32>::new());
            let (mut s, mut ts) = (RegSet::new(), BTreeSet::<u32>::new());
            for step in 0..200 {
                let (m, t) = if rng.below(2) == 0 {
                    (&mut a, &mut ta)
                } else {
                    (&mut b, &mut tb)
                };
                let r = rng.reg();
                let op = rng.below(7) as usize;
                ops[op] += 1;
                match op {
                    0 | 1 => {
                        let v = rng.below(6) as u32;
                        assert_eq!(m.insert(r, v), t.insert(r, v), "seed {seed} step {step}");
                    }
                    2 => assert_eq!(m.remove(r), t.remove(&r), "seed {seed} step {step}"),
                    3 => {
                        assert_eq!(m.get(r), t.get(&r), "seed {seed} step {step}");
                        assert_eq!(m.contains(r), t.contains_key(&r));
                    }
                    4 => {
                        let k = 1 + rng.below(4) as u32;
                        m.retain(|r, v| (r + *v) % k != 0);
                        t.retain(|r, v| (r + *v) % k != 0);
                    }
                    5 => {
                        let regs: Vec<u32> = (0..rng.below(6)).map(|_| rng.reg()).collect();
                        s.extend(regs.iter().copied());
                        ts.extend(regs.iter().copied());
                        let kept = rng.below(24) as u32;
                        s.retain(|r, _| r != kept);
                        ts.retain(|r| *r != kept);
                    }
                    _ => {
                        assert_eq!(a == b, ta == tb, "seed {seed} step {step}");
                        // Sometimes make the two equal, so `==` sees both answers.
                        if rng.below(3) == 0 {
                            b = a.clone();
                            tb = ta.clone();
                        }
                    }
                }
                assert_eq!(entries(&a), tree_entries(&ta), "seed {seed} step {step}");
                assert_eq!(entries(&b), tree_entries(&tb), "seed {seed} step {step}");
                assert_eq!((a.len(), b.len()), (ta.len(), tb.len()));
                assert_eq!(a.is_empty(), ta.is_empty());
                let set: Vec<u32> = s.iter().map(|(r, _)| r).collect();
                assert_eq!(set, ts.iter().copied().collect::<Vec<_>>(), "seed {seed}");
                assert_eq!(s.len(), ts.len());
            }
        }
        assert!(ops.iter().all(|&n| n > 1000), "{ops:?}");
    }

    #[test]
    fn joins_match_the_btree_joins() {
        let none = FnSummaries::empty();
        let (junk, intervals, null) = (
            JunkAnalysis::new(&none),
            IntervalAnalysis::new(&none),
            NullAnalysis::new(&none),
        );
        // How often each join reported a change, out of how many.
        let mut changed = [0usize; 3];
        let rounds = 4000;
        let mut rng = Rng(7);
        let interval = |rng: &mut Rng| {
            let lo = rng.below(9) as i64 - 4;
            Interval {
                lo,
                hi: lo + rng.below(5) as i64,
            }
        };
        for round in 0..rounds {
            let into = tree_map(&mut rng, &BTreeMap::new(), |rng| rng.below(6) as u32);
            let from = tree_map(&mut rng, &into, |rng| rng.below(6) as u32);
            let (mut t, mut m) = (into.clone(), map_of(&into));
            let want = tree_junk_join(&mut t, &from);
            assert_eq!(
                junk.join(&mut m, &map_of(&from)),
                want,
                "junk round {round}"
            );
            assert_eq!(entries(&m), tree_entries(&t), "junk round {round}");
            changed[0] += usize::from(want);

            let into = tree_map(&mut rng, &BTreeMap::new(), interval);
            let from = tree_map(&mut rng, &into, interval);
            let (mut t, mut m) = (into.clone(), map_of(&into));
            let want = tree_interval_join(&mut t, &from);
            let got = intervals.join(&mut m, &map_of(&from));
            assert_eq!(got, want, "interval round {round}");
            assert_eq!(entries(&m), tree_entries(&t), "interval round {round}");
            changed[1] += usize::from(want);

            let empty = TreeNull {
                derefed: BTreeSet::new(),
                alias: BTreeMap::new(),
                zeros: BTreeSet::new(),
                derived: BTreeMap::new(),
            };
            let into = TreeNull::random(&mut rng, &empty);
            let from = TreeNull::random(&mut rng, &into);
            let (mut t, mut m) = (into.clone(), into.state());
            let want = t.join(&from);
            assert_eq!(null.join(&mut m, &from.state()), want, "null round {round}");
            assert!(m == t.state(), "null round {round}");
            changed[2] += usize::from(want);
        }
        // Both answers of every join's `changed` are exercised.
        for n in changed {
            assert!(n > rounds / 10 && n < rounds * 9 / 10, "{changed:?}");
        }
    }
}
