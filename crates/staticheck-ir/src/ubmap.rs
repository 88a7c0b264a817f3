//! Static UB ground-truth map: where undefined behaviour is provably
//! reachable, and with what certainty.
//!
//! The lint ([`crate::UnstableLint`]) answers "which lines are unstable?"
//! — useful for a human triaging reports. The sanitizer meta-oracle needs
//! a stronger artifact: a per-program map of *(line, UB class, certainty)*
//! sites where
//!
//! * `must` means the UB executes on every run (the site is on the
//!   unconditional path from `main`'s entry and the triggering condition
//!   is proven by exact dataflow facts), so a sanitizer in scope that
//!   stays silent has a **false negative**;
//! * `may` means the UB is possible but input- or path-dependent, so a
//!   sanitizer firing there is justified and silence proves nothing.
//!
//! The map fuses the same two evidence channels as the lint — reference-IR
//! dataflow and rewrite provenance — but keeps them honest against each
//! other: a provenance entry on a line the dataflow channel *proved clean*
//! is surfaced as a [`Contradiction`] diagnostic instead of being silently
//! merged, because one of the two channels is necessarily wrong.
//!
//! Judging a sanitizer *false positive* ("it fired where no UB exists")
//! additionally requires knowing when the static side is blind. Each UB
//! class the analysis cannot fully decide for this program is recorded in
//! [`UbSiteMap::unknown`]; the meta-oracle only calls a firing spurious
//! when the class is statically covered, not unknown, and has no site.

use crate::dataflow::{scan_with_blocks, Point, Visit};
use crate::detectors::{self, FnFacts, ProgramFacts};
use crate::domains::{shift_width, Interval, IntervalAnalysis};
use crate::summaries::FnSummaries;
use crate::{reference_ir, rewrite_logs, Origin};
use minc::{Builtin, CheckedProgram};
use minc_compile::ir::{BinKind, BlockId, Callee, Inst, IrFunction, IrProgram, IrType, Terminator};
use minc_compile::personality::CompilerImpl;
use minc_compile::{RewriteEntry, RewriteLog, UbReason};
use staticheck::Defect;
use std::collections::{BTreeMap, BTreeSet};

/// UBSan's null-page threshold: addresses below this are "null-like".
/// Mirrors `crates/sanitizers`' load/store check.
pub const NULL_PAGE: i64 = 4096;

/// The UB classes the map speaks about. A superset of what the static
/// side can prove: the dynamic-only classes (heap/stack errors) exist so
/// sanitizer verdicts can be classified, but they never get `must` sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UbClass {
    /// Use of an uninitialized (indeterminate) value.
    Uninit,
    /// Signed integer overflow (including `MIN / -1`).
    SignedOverflow,
    /// Shift amount out of range, or signed left-shift overflow.
    OversizedShift,
    /// Division or remainder by zero.
    DivByZero,
    /// Null (or null-page) pointer dereference.
    NullDeref,
    /// Relational comparison of pointers into different objects.
    PointerCompare,
    /// Out-of-bounds access (dynamic-only here).
    OutOfBounds,
    /// Use after free (dynamic-only here).
    UseAfterFree,
    /// Double free (dynamic-only here).
    DoubleFree,
    /// Free of non-heap memory (dynamic-only here).
    BadFree,
    /// Implementation-specific loop trip count (seeded miscompilation).
    LoopTripCount,
}

impl UbClass {
    /// True when the static analyses in this module actually look for the
    /// class — the precondition for ever judging a sanitizer firing of
    /// this class to be a false positive.
    pub fn statically_covered(self) -> bool {
        matches!(
            self,
            UbClass::Uninit
                | UbClass::SignedOverflow
                | UbClass::OversizedShift
                | UbClass::DivByZero
                | UbClass::NullDeref
        )
    }
}

impl std::fmt::Display for UbClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            UbClass::Uninit => "uninit",
            UbClass::SignedOverflow => "signed-overflow",
            UbClass::OversizedShift => "oversized-shift",
            UbClass::DivByZero => "div-by-zero",
            UbClass::NullDeref => "null-deref",
            UbClass::PointerCompare => "pointer-compare",
            UbClass::OutOfBounds => "out-of-bounds",
            UbClass::UseAfterFree => "use-after-free",
            UbClass::DoubleFree => "double-free",
            UbClass::BadFree => "bad-free",
            UbClass::LoopTripCount => "loop-trip-count",
        })
    }
}

/// Maps the shared defect taxonomy into UB classes (lossy: purely
/// stylistic defects like `FormatMismatch` have no UB class).
pub fn class_of_defect(d: Defect) -> Option<UbClass> {
    Some(match d {
        Defect::Uninitialized => UbClass::Uninit,
        Defect::IntegerOverflow => UbClass::SignedOverflow,
        Defect::BadShift => UbClass::OversizedShift,
        Defect::DivByZero => UbClass::DivByZero,
        Defect::NullDeref => UbClass::NullDeref,
        Defect::PointerCompare | Defect::PointerSubtraction => UbClass::PointerCompare,
        Defect::OutOfBounds => UbClass::OutOfBounds,
        Defect::UseAfterFree => UbClass::UseAfterFree,
        Defect::DoubleFree => UbClass::DoubleFree,
        Defect::BadFree => UbClass::BadFree,
        Defect::MiscompiledLoop => UbClass::LoopTripCount,
        _ => return None,
    })
}

/// Classifies a sanitizer fault category string (the `Fault::category`
/// values the `sanitizers` crate emits).
pub fn class_of_category(cat: &str) -> Option<UbClass> {
    Some(match cat {
        "use-of-uninitialized-value" => UbClass::Uninit,
        "signed-integer-overflow" => UbClass::SignedOverflow,
        "shift-out-of-bounds" => UbClass::OversizedShift,
        "integer-divide-by-zero" => UbClass::DivByZero,
        "null-dereference" => UbClass::NullDeref,
        "heap-buffer-overflow" | "stack-buffer-overflow" => UbClass::OutOfBounds,
        "heap-use-after-free" => UbClass::UseAfterFree,
        "double-free" => UbClass::DoubleFree,
        "bad-free" => UbClass::BadFree,
        _ => return None,
    })
}

/// Maps a rewrite justification to its UB class.
pub fn class_of_reason(reason: UbReason) -> UbClass {
    match reason {
        UbReason::SignedOverflowCheck => UbClass::SignedOverflow,
        UbReason::NullCheckAfterDeref => UbClass::NullDeref,
        UbReason::OversizedShift => UbClass::OversizedShift,
        UbReason::UninitPromotion => UbClass::Uninit,
        UbReason::UnrollTripCount => UbClass::LoopTripCount,
    }
}

/// How certain the map is that the UB executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Certainty {
    /// Possible, but input- or path-dependent.
    May,
    /// Executes on every run of the program.
    Must,
}

impl std::fmt::Display for Certainty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Certainty::May => "may",
            Certainty::Must => "must",
        })
    }
}

/// One UB site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UbSite {
    /// 1-based source line.
    pub line: u32,
    /// Function the site is in.
    pub function: String,
    /// UB class.
    pub class: UbClass,
    /// Execution certainty.
    pub certainty: Certainty,
    /// Which evidence channel(s) produced the site.
    pub origin: Origin,
    /// Human-readable detail.
    pub message: String,
}

/// The two evidence channels disagreeing about one line: a rewrite log
/// claims a UB-justified rewrite where dataflow proved the UB impossible.
/// One of the channels is wrong — exactly the kind of oracle defect this
/// module exists to surface, so it is reported, never silently merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contradiction {
    /// 1-based source line.
    pub line: u32,
    /// Contested UB class.
    pub class: UbClass,
    /// Display names of the impls whose logs contain the entry, sorted.
    pub impls: Vec<String>,
    /// Detail from the first contradicting rewrite entry.
    pub detail: String,
}

/// The fused static UB ground-truth map for one program.
#[derive(Debug, Clone, Default)]
pub struct UbSiteMap {
    /// UB sites, sorted by `(line, class)`.
    pub sites: Vec<UbSite>,
    /// Channel disagreements, sorted by `(line, class)`.
    pub contradictions: Vec<Contradiction>,
    /// Classes the static side cannot decide for this program: no
    /// sanitizer firing of these classes may be called a false positive.
    pub unknown: BTreeSet<UbClass>,
}

impl UbSiteMap {
    /// Builds the map for a checked program, fusing dataflow facts with
    /// the rewrite provenance of `impls`.
    pub fn build(checked: &CheckedProgram, impls: &[CompilerImpl]) -> UbSiteMap {
        UbSiteMap::build_with_logs(checked, &rewrite_logs(checked, impls))
    }

    /// [`UbSiteMap::build`] over rewrite logs the caller already has, one
    /// per implementation in order, as
    /// [`optimize_all`](minc_compile::optimize_all) returns them.
    pub fn build_with_logs(checked: &CheckedProgram, logs: &[RewriteLog]) -> UbSiteMap {
        let df = dataflow_evidence(&reference_ir(checked));
        fuse(&df, logs.iter().flat_map(|log| &log.entries))
    }

    /// True if any site (either certainty) has the class.
    pub fn has_site(&self, class: UbClass) -> bool {
        self.sites.iter().any(|s| s.class == class)
    }

    /// True when a sanitizer firing of `class` can be judged spurious:
    /// the class is statically covered, the analysis was not blind to it
    /// in this program, and no site of the class exists.
    pub fn refutes(&self, class: UbClass) -> bool {
        class.statically_covered() && !self.unknown.contains(&class) && !self.has_site(class)
    }

    /// Human-readable rendering, one line per site/contradiction.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "ub-site-map: {} site(s), {} contradiction(s)\n",
            self.sites.len(),
            self.contradictions.len()
        ));
        for s in &self.sites {
            out.push_str(&format!(
                "  line {:>4} [{}] {} ({}) in {}: {}\n",
                s.line, s.certainty, s.class, s.origin, s.function, s.message
            ));
        }
        for c in &self.contradictions {
            out.push_str(&format!(
                "  line {:>4} [CONTRADICTION] {}: dataflow proves the site clean \
                 but {} logged a UB-justified rewrite: {}\n",
                c.line,
                c.class,
                c.impls.join("+"),
                c.detail
            ));
        }
        if !self.unknown.is_empty() {
            let names: Vec<String> = self.unknown.iter().map(|c| c.to_string()).collect();
            out.push_str(&format!("  statically undecided: {}\n", names.join(", ")));
        }
        out
    }
}

/// One dataflow-channel site, pre-fusion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfSite {
    /// The site is on the unconditional path and its condition is exact.
    pub must: bool,
    /// Function name.
    pub function: String,
    /// Human-readable detail.
    pub message: String,
}

/// Everything the dataflow channel learned about one program.
#[derive(Debug, Clone, Default)]
pub struct DataflowEvidence {
    /// Sites keyed by `(line, class)`.
    pub sites: BTreeMap<(u32, UbClass), DfSite>,
    /// `(line, class)` pairs *proved clean* — a provenance entry here is
    /// a contradiction, not evidence.
    pub clean: BTreeSet<(u32, UbClass)>,
    /// Classes the analysis is blind to in this program.
    pub unknown: BTreeSet<UbClass>,
    /// Junk ids observed reaching a sink (corroboration set for
    /// `UninitPromotion` provenance entries).
    pub observed_junk: BTreeSet<u32>,
}

impl DataflowEvidence {
    fn add_site(&mut self, line: u32, class: UbClass, must: bool, function: &str, msg: &str) {
        if line == 0 {
            return; // no source attribution, useless to the oracle
        }
        let e = self.sites.entry((line, class)).or_insert_with(|| DfSite {
            must,
            function: function.to_string(),
            message: msg.to_string(),
        });
        if must && !e.must {
            e.must = true;
            e.message = msg.to_string();
        }
    }
}

/// The points of a function that execute on *every* run reaching it:
/// the chain from entry following unconditional jumps into join-free
/// blocks, up to and including the first call that never returns (see
/// [`noreturn_functions`]). Inside it the (join-free) dataflow facts are
/// exact, so "may" facts are "must" facts. An entry block with a back
/// edge means even entry state is joined; then nothing is certain.
#[derive(Debug, Default)]
struct MustPath {
    blocks: BTreeSet<u32>,
    /// The chain's last block and the index of its no-return call, when
    /// the chain ends at one: nothing after the call runs.
    cut: Option<(u32, usize)>,
}

impl MustPath {
    fn of(f: &IrFunction, noreturn: &BTreeSet<u32>) -> MustPath {
        let mut preds = vec![0u32; f.blocks.len()];
        for b in &f.blocks {
            for s in b.term.successors() {
                preds[s.0 as usize] += 1;
            }
        }
        let mut path = MustPath::default();
        if f.blocks.is_empty() || preds[0] > 0 {
            return path;
        }
        let mut cur = 0usize;
        loop {
            path.blocks.insert(cur as u32);
            let blk = &f.blocks[cur];
            if let Some(i) = blk.insts.iter().position(|i| never_returns(i, noreturn)) {
                path.cut = Some((cur as u32, i));
                break;
            }
            match &blk.term {
                Terminator::Jump(t) if preds[t.0 as usize] <= 1 && !path.blocks.contains(&t.0) => {
                    cur = t.0 as usize;
                }
                _ => break,
            }
        }
        path
    }

    fn contains(&self, p: Point) -> bool {
        self.blocks.contains(&p.block.0)
            && self.cut.is_none_or(|(b, i)| b != p.block.0 || p.inst <= i)
    }
}

/// True for a call that never returns: `exit`, `abort`, or a function in
/// `noreturn`.
fn never_returns(inst: &Inst, noreturn: &BTreeSet<u32>) -> bool {
    match inst {
        Inst::Call {
            callee: Callee::Builtin(Builtin::Exit | Builtin::Abort),
            ..
        } => true,
        Inst::Call {
            callee: Callee::Func(fid),
            ..
        } => noreturn.contains(&fid.0),
        _ => false,
    }
}

/// The functions that never return: no `Ret` is reachable from entry
/// without passing a call that never returns. Grown to a fixpoint, so a
/// function whose every path calls one of these is one too.
fn noreturn_functions(prog: &IrProgram) -> BTreeSet<u32> {
    let returns = |f: &IrFunction, noreturn: &BTreeSet<u32>| {
        let mut seen = BTreeSet::new();
        let mut work = vec![0usize];
        while let Some(b) = work.pop() {
            if !seen.insert(b) {
                continue;
            }
            let blk = &f.blocks[b];
            if blk.insts.iter().any(|i| never_returns(i, noreturn)) {
                continue;
            }
            if matches!(blk.term, Terminator::Ret(_)) {
                return true;
            }
            work.extend(blk.term.successors().iter().map(|s| s.0 as usize));
        }
        false
    };
    let mut noreturn = BTreeSet::new();
    loop {
        let before = noreturn.len();
        for (fi, f) in prog.functions.iter().enumerate() {
            if !f.blocks.is_empty() && !returns(f, &noreturn) {
                noreturn.insert(fi as u32);
            }
        }
        if noreturn.len() == before {
            return noreturn;
        }
    }
}

/// Each function that executes on every run — `main`, plus everything
/// called on the must path of such a function, transitively — with its
/// must path.
fn must_paths(prog: &IrProgram) -> BTreeMap<u32, MustPath> {
    let noreturn = noreturn_functions(prog);
    let mut out = BTreeMap::new();
    let mut work = vec![prog.main.0];
    while let Some(fi) = work.pop() {
        if out.contains_key(&fi) {
            continue;
        }
        let f = &prog.functions[fi as usize];
        let path = MustPath::of(f, &noreturn);
        for &bi in &path.blocks {
            for (i, inst) in f.blocks[bi as usize].insts.iter().enumerate() {
                if let Inst::Call {
                    callee: Callee::Func(fid),
                    ..
                } = inst
                {
                    if path.contains(Point {
                        block: BlockId(bi),
                        inst: i,
                    }) {
                        work.push(fid.0);
                    }
                }
            }
        }
        out.insert(fi, path);
    }
    out
}

/// Numeric range of an IR integer type, or `None` for floats.
fn ty_range(ty: IrType) -> Option<(i128, i128)> {
    match ty {
        IrType::I32 => Some((i32::MIN as i128, i32::MAX as i128)),
        IrType::I64 => Some((i64::MIN as i128, i64::MAX as i128)),
        IrType::F64 => None,
    }
}

/// Collects the dataflow channel's evidence over a reference IR. One
/// `ProgramFacts` serves twice: the detectors' findings seed the map,
/// then the same states give each site its certainty and the interval
/// sites.
pub fn dataflow_evidence(prog: &IrProgram) -> DataflowEvidence {
    let facts = ProgramFacts::of(prog);
    let mut ev = DataflowEvidence::default();

    // Seed with the lint detectors' findings — all May; the exactness
    // upgrades below promote the ones on the unconditional path.
    let direct = detectors::scan_program(&facts);
    ev.observed_junk = detectors::observed_junk_ids(&direct);
    for fnd in &direct {
        // Check-instability classes stay May no matter where they sit: a
        // deleted null check or overflow check only bites when the input
        // actually makes the pointer null / the addition wrap, which the
        // static side cannot decide.
        if let Some(c) = class_of_defect(fnd.defect) {
            ev.add_site(fnd.line, c, false, &fnd.function, &fnd.message);
        }
    }

    // Blindness: junk through memory is untracked (mem2reg leaves arrays
    // and address-taken slots in memory, and JunkAnalysis treats every
    // Load result as clean), so any Load makes Uninit undecidable.
    let has_load = prog
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .flat_map(|b| &b.insts)
        .any(|i| matches!(i, Inst::Load { .. }));
    if has_load {
        ev.unknown.insert(UbClass::Uninit);
    }

    let mut must = must_paths(prog);
    for (fi, ff) in facts.fns.iter().enumerate() {
        let path = must.remove(&(fi as u32)).unwrap_or_default();
        // A junk read on the must path is a Must site: the join-free path
        // from entry makes the may-fact exact.
        for (p, line, _, what) in detectors::junk_sinks(ff, &facts.summaries) {
            ev.add_site(
                line,
                UbClass::Uninit,
                path.contains(p),
                &ff.f.name,
                &format!("{what} observes an uninitialized (indeterminate) value"),
            );
        }
        collect_intervals(ff, &facts.summaries, &path, &mut ev);
    }
    ev
}

/// Interval-driven evidence: shifts, division, signed arithmetic, and
/// null-page addresses. Also records clean proofs and blindness.
fn collect_intervals(
    ff: &FnFacts,
    summaries: &FnSummaries,
    path: &MustPath,
    ev: &mut DataflowEvidence,
) {
    let f = ff.f;
    let a = IntervalAnalysis::new(summaries);
    enum Rec {
        Site(u32, UbClass, bool, String),
        Clean(u32, UbClass),
        Unknown(UbClass),
    }
    let mut recs: Vec<Rec> = Vec::new();
    scan_with_blocks(f, &a, &ff.intervals, |p, st, v| {
        let must = path.contains(p);
        let Visit::Inst(inst) = v else { return };
        match inst {
            Inst::Bin {
                dst,
                ty,
                op: op @ (BinKind::Shl | BinKind::ShrS | BinKind::ShrU),
                a: lhs,
                b: amt,
                ub_signed,
            } => {
                let line = f.line_of(*dst);
                let width = shift_width(*ty);
                match st.get(&amt.0).copied() {
                    None => recs.push(Rec::Unknown(UbClass::OversizedShift)),
                    Some(am) if am.lo >= width || am.hi < 0 => {
                        recs.push(Rec::Site(
                            line,
                            UbClass::OversizedShift,
                            must,
                            format!(
                                "shift amount [{}, {}] provably out of range for a \
                                 {width}-bit value",
                                am.lo, am.hi
                            ),
                        ));
                    }
                    Some(am) if am.lo < 0 || am.hi >= width => {
                        recs.push(Rec::Site(
                            line,
                            UbClass::OversizedShift,
                            false,
                            format!(
                                "shift amount [{}, {}] may leave the range [0, {width})",
                                am.lo, am.hi
                            ),
                        ));
                    }
                    Some(am) => {
                        // Amount in range. A signed left shift can still
                        // overflow; the clean proof needs the operand too.
                        if *op == BinKind::Shl && *ub_signed {
                            match (st.get(&lhs.0).copied(), ty_range(*ty)) {
                                (Some(x), Some((_, max)))
                                    if x.lo >= 0
                                        && (x.hi as i128) << (am.hi.max(0) as u32) <= max =>
                                {
                                    recs.push(Rec::Clean(line, UbClass::OversizedShift));
                                }
                                (Some(x), Some((_, max))) => {
                                    let wide =
                                        (x.hi.max(x.lo.abs()) as i128) << (am.hi.max(0) as u32);
                                    let definite = x.lo >= 0 && (x.lo as i128) << am.lo > max;
                                    if x.lo < 0 || wide > max {
                                        recs.push(Rec::Site(
                                            line,
                                            UbClass::OversizedShift,
                                            must && definite,
                                            "signed left shift may overflow or shift a \
                                             negative value"
                                                .to_string(),
                                        ));
                                    } else {
                                        recs.push(Rec::Clean(line, UbClass::OversizedShift));
                                    }
                                }
                                _ => recs.push(Rec::Unknown(UbClass::OversizedShift)),
                            }
                        } else {
                            recs.push(Rec::Clean(line, UbClass::OversizedShift));
                        }
                    }
                }
            }
            Inst::Bin {
                dst,
                ty,
                op: op @ (BinKind::DivS | BinKind::DivU | BinKind::RemS | BinKind::RemU),
                a: num,
                b: den,
                ..
            } => {
                let line = f.line_of(*dst);
                let d = st.get(&den.0).copied();
                match d {
                    None => recs.push(Rec::Unknown(UbClass::DivByZero)),
                    Some(dv) if dv == Interval::point(0) => {
                        recs.push(Rec::Site(
                            line,
                            UbClass::DivByZero,
                            must,
                            "divisor is provably zero".to_string(),
                        ));
                    }
                    Some(dv) if dv.contains(0) => {
                        recs.push(Rec::Site(
                            line,
                            UbClass::DivByZero,
                            false,
                            format!("divisor interval [{}, {}] includes zero", dv.lo, dv.hi),
                        ));
                    }
                    Some(_) => recs.push(Rec::Clean(line, UbClass::DivByZero)),
                }
                // `MIN / -1` overflows in signed division.
                if matches!(op, BinKind::DivS | BinKind::RemS) {
                    if let Some((min, _)) = ty_range(*ty) {
                        let n = st.get(&num.0).copied();
                        let n_may_min = n.is_none_or(|i| i.contains(min as i64));
                        let d_may_neg1 = d.is_none_or(|i| i.contains(-1));
                        if n_may_min && d_may_neg1 {
                            let definite = n == Some(Interval::point(min as i64))
                                && d == Some(Interval::point(-1));
                            if definite {
                                recs.push(Rec::Site(
                                    line,
                                    UbClass::SignedOverflow,
                                    must,
                                    "signed division MIN / -1 provably overflows".to_string(),
                                ));
                            } else if n.is_none() || d.is_none() {
                                recs.push(Rec::Unknown(UbClass::SignedOverflow));
                            } else {
                                recs.push(Rec::Site(
                                    line,
                                    UbClass::SignedOverflow,
                                    false,
                                    "signed division may hit MIN / -1".to_string(),
                                ));
                            }
                        }
                    }
                }
            }
            Inst::Bin {
                dst,
                ty,
                op: op @ (BinKind::Add | BinKind::Sub | BinKind::Mul),
                a: lhs,
                b: rhs,
                ub_signed: true,
            } => {
                let line = f.line_of(*dst);
                let Some((min, max)) = ty_range(*ty) else {
                    return;
                };
                match (st.get(&lhs.0).copied(), st.get(&rhs.0).copied()) {
                    (Some(x), Some(y)) => {
                        let (xl, xh) = (x.lo as i128, x.hi as i128);
                        let (yl, yh) = (y.lo as i128, y.hi as i128);
                        let (lo, hi) = match op {
                            BinKind::Add => (xl + yl, xh + yh),
                            BinKind::Sub => (xl - yh, xh - yl),
                            _ => {
                                let cs = [xl * yl, xl * yh, xh * yl, xh * yh];
                                (
                                    cs.iter().copied().min().unwrap_or(0),
                                    cs.iter().copied().max().unwrap_or(0),
                                )
                            }
                        };
                        if lo > max || hi < min {
                            recs.push(Rec::Site(
                                line,
                                UbClass::SignedOverflow,
                                must,
                                format!(
                                    "signed arithmetic provably overflows: result range \
                                     [{lo}, {hi}] lies outside the type"
                                ),
                            ));
                        } else if lo < min || hi > max {
                            recs.push(Rec::Site(
                                line,
                                UbClass::SignedOverflow,
                                false,
                                format!(
                                    "signed arithmetic may overflow: result range \
                                     [{lo}, {hi}] exceeds the type"
                                ),
                            ));
                        }
                        // In-range: no site, but no clean proof either —
                        // SignedOverflowCheck provenance flags a *deleted
                        // check*, which is consistent with a non-overflow
                        // proof, not contradicted by it.
                    }
                    _ => recs.push(Rec::Unknown(UbClass::SignedOverflow)),
                }
            }
            Inst::Load { dst, addr, .. } | Inst::Store { addr, src: dst, .. } => {
                let line = f.line_of(*dst);
                match st.get(&addr.0).copied() {
                    None => recs.push(Rec::Unknown(UbClass::NullDeref)),
                    Some(av) if av.lo >= 0 && av.hi < NULL_PAGE => {
                        recs.push(Rec::Site(
                            line,
                            UbClass::NullDeref,
                            must,
                            format!(
                                "accessed address [{}, {}] is provably in the null page",
                                av.lo, av.hi
                            ),
                        ));
                    }
                    Some(av) if av.lo < NULL_PAGE && av.hi >= 0 => {
                        recs.push(Rec::Site(
                            line,
                            UbClass::NullDeref,
                            false,
                            format!(
                                "accessed address [{}, {}] may fall in the null page",
                                av.lo, av.hi
                            ),
                        ));
                    }
                    Some(_) => {}
                }
            }
            _ => {}
        }
    });
    for r in recs {
        match r {
            Rec::Site(line, c, must, msg) => ev.add_site(line, c, must, &f.name, &msg),
            Rec::Clean(line, c) => {
                ev.clean.insert((line, c));
            }
            Rec::Unknown(c) => {
                ev.unknown.insert(c);
            }
        }
    }
    // A clean proof cannot coexist with a site on the same key (distinct
    // instructions folded onto one source line): the site wins, because a
    // contradiction diagnostic needs the *proof* to be unequivocal.
    ev.clean.retain(|k| !ev.sites.contains_key(k));
}

/// Fuses the dataflow evidence with rewrite-provenance entries into the
/// final map. Pure — tests drive every fusion case through it directly.
pub fn fuse<'a>(
    df: &DataflowEvidence,
    entries: impl IntoIterator<Item = &'a RewriteEntry>,
) -> UbSiteMap {
    let mut sites: BTreeMap<(u32, UbClass), UbSite> = df
        .sites
        .iter()
        .map(|(&(line, class), s)| {
            (
                (line, class),
                UbSite {
                    line,
                    function: s.function.clone(),
                    class,
                    certainty: if s.must {
                        Certainty::Must
                    } else {
                        Certainty::May
                    },
                    origin: Origin::Dataflow,
                    message: s.message.clone(),
                },
            )
        })
        .collect();
    let mut contra: BTreeMap<(u32, UbClass), (BTreeSet<String>, String)> = BTreeMap::new();

    for e in entries {
        if e.line == 0 {
            continue;
        }
        // A promotion is only evidence if the junk was observably read.
        if e.reason == UbReason::UninitPromotion && !df.observed_junk.contains(&e.key) {
            continue;
        }
        let class = class_of_reason(e.reason);
        let key = (e.line, class);
        if df.clean.contains(&key) {
            let slot = contra
                .entry(key)
                .or_insert_with(|| (BTreeSet::new(), e.detail.clone()));
            slot.0.insert(e.impl_id.to_string());
            continue;
        }
        match sites.get_mut(&key) {
            Some(site) => site.origin = Origin::Both,
            None => {
                sites.insert(
                    key,
                    UbSite {
                        line: e.line,
                        function: e.function.clone(),
                        class,
                        certainty: Certainty::May,
                        origin: Origin::Provenance,
                        message: e.detail.clone(),
                    },
                );
            }
        }
    }

    UbSiteMap {
        sites: sites.into_values().collect(),
        contradictions: contra
            .into_iter()
            .map(|((line, class), (impls, detail))| Contradiction {
                line,
                class,
                impls: impls.into_iter().collect(),
                detail,
            })
            .collect(),
        unknown: df.unknown.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minc_compile::personality::{Family, OptLevel};

    fn evidence(src: &str) -> DataflowEvidence {
        dataflow_evidence(&reference_ir(&minc::check(src).unwrap()))
    }

    fn entry(reason: UbReason, line: u32, key: u32) -> RewriteEntry {
        RewriteEntry {
            impl_id: CompilerImpl::new(Family::Gcc, OptLevel::O2),
            function: "main".to_string(),
            reason,
            line,
            key,
            detail: "synthetic".to_string(),
        }
    }

    // ---------------------------------------------------- fusion cases

    #[test]
    fn fuse_dataflow_only_site_keeps_dataflow_origin() {
        let mut df = DataflowEvidence::default();
        df.sites.insert(
            (7, UbClass::DivByZero),
            DfSite {
                must: true,
                function: "main".to_string(),
                message: "divisor is provably zero".to_string(),
            },
        );
        let map = fuse(&df, &[]);
        assert_eq!(map.sites.len(), 1);
        assert_eq!(map.sites[0].origin, Origin::Dataflow);
        assert_eq!(map.sites[0].certainty, Certainty::Must);
        assert!(map.contradictions.is_empty());
    }

    #[test]
    fn fuse_provenance_only_site_is_may() {
        let df = DataflowEvidence::default();
        let map = fuse(&df, &[entry(UbReason::SignedOverflowCheck, 12, 0)]);
        assert_eq!(map.sites.len(), 1);
        assert_eq!(map.sites[0].class, UbClass::SignedOverflow);
        assert_eq!(map.sites[0].origin, Origin::Provenance);
        assert_eq!(map.sites[0].certainty, Certainty::May);
    }

    #[test]
    fn fuse_agreeing_channels_merge_to_both() {
        let mut df = DataflowEvidence::default();
        df.sites.insert(
            (9, UbClass::OversizedShift),
            DfSite {
                must: false,
                function: "main".to_string(),
                message: "shift amount out of range".to_string(),
            },
        );
        let map = fuse(&df, &[entry(UbReason::OversizedShift, 9, 0)]);
        assert_eq!(map.sites.len(), 1);
        assert_eq!(map.sites[0].origin, Origin::Both);
    }

    #[test]
    fn fuse_contradicting_channels_surface_distinctly() {
        let mut df = DataflowEvidence::default();
        df.clean.insert((5, UbClass::OversizedShift));
        let map = fuse(&df, &[entry(UbReason::OversizedShift, 5, 0)]);
        // Not silently merged into sites; reported as its own diagnostic.
        assert!(map.sites.is_empty());
        assert_eq!(map.contradictions.len(), 1);
        assert_eq!(map.contradictions[0].line, 5);
        assert_eq!(map.contradictions[0].class, UbClass::OversizedShift);
        assert_eq!(map.contradictions[0].impls, vec!["gcc-O2".to_string()]);
        assert!(map.render().contains("CONTRADICTION"));
    }

    #[test]
    fn fuse_ignores_uncorroborated_promotions() {
        let df = DataflowEvidence::default();
        let map = fuse(&df, &[entry(UbReason::UninitPromotion, 3, 42)]);
        assert!(map.sites.is_empty());
        let mut df2 = DataflowEvidence::default();
        df2.observed_junk.insert(42);
        let map2 = fuse(&df2, &[entry(UbReason::UninitPromotion, 3, 42)]);
        assert_eq!(map2.sites.len(), 1);
        assert_eq!(map2.sites[0].class, UbClass::Uninit);
    }

    // --------------------------------------------- evidence collection

    #[test]
    fn uninit_branch_on_unconditional_path_is_must() {
        let ev = evidence(
            r#"
            int main() {
                int u;
                if (u > 0) { printf("a\n"); }
                return 0;
            }
        "#,
        );
        let site = ev
            .sites
            .iter()
            .find(|((_, c), _)| *c == UbClass::Uninit)
            .map(|(_, s)| s)
            .expect("uninit site");
        assert!(site.must, "entry-block junk branch must be Must");
        assert!(!ev.unknown.contains(&UbClass::Uninit));
    }

    #[test]
    fn uninit_behind_branch_stays_may() {
        let ev = evidence(
            r#"
            int main() {
                if (input_size() > 1) {
                    int u;
                    if (u > 0) { printf("a\n"); }
                }
                return 0;
            }
        "#,
        );
        let site = ev
            .sites
            .iter()
            .find(|((_, c), _)| *c == UbClass::Uninit)
            .map(|(_, s)| s)
            .expect("uninit site");
        assert!(!site.must, "junk read behind a branch is only May");
    }

    /// Programs whose UB sits after a call that never returns: `exit` in
    /// `main`, `exit` inside a helper, and an uninitialized branch after
    /// `exit`. All ten implementations print `a` and exit 0, so no line
    /// after the call is a must site.
    const AFTER_NORETURN: [&str; 3] = [
        r#"
        int main() {
            int z = 0;
            printf("a\n");
            exit(0);
            int t = 5 / z;
            printf("%d\n", t);
            return 0;
        }
    "#,
        r#"
        void stop() {
            exit(0);
        }
        int main() {
            int z = 0;
            printf("a\n");
            stop();
            int t = 5 / z;
            printf("%d\n", t);
            return 0;
        }
    "#,
        r#"
        int main() {
            int u;
            printf("a\n");
            exit(0);
            if (u > 0) { printf("y\n"); }
            return 0;
        }
    "#,
    ];

    #[test]
    fn nothing_after_a_call_that_never_returns_is_must() {
        for src in AFTER_NORETURN {
            let ev = evidence(src);
            assert!(!ev.sites.is_empty(), "the site is still found: {src}");
            assert!(ev.sites.values().all(|s| !s.must), "{src}: {:?}", ev.sites);
        }
    }

    #[test]
    fn the_must_path_runs_up_to_and_into_the_call() {
        // UB before the exit, and in the exit's own argument, stays must;
        // a helper that only sometimes exits does not cut the path.
        let ev = evidence(
            r#"
            int maybe(int c) {
                if (c > 3) { exit(1); }
                return c;
            }
            int main() {
                int z = 0;
                int t = 5 / z;
                int s = maybe(t);
                int w = 7 / z;
                exit(s + w);
                return 0;
            }
        "#,
        );
        let must: Vec<u32> = ev
            .sites
            .iter()
            .filter(|((_, c), s)| *c == UbClass::DivByZero && s.must)
            .map(|((line, _), _)| *line)
            .collect();
        assert_eq!(must, vec![8, 10], "{:?}", ev.sites);
    }

    #[test]
    fn constant_zero_divisor_is_must_site() {
        let ev = evidence(
            r#"
            int main() {
                int z = 0;
                int t = 5 / z;
                printf("%d\n", t);
                return 0;
            }
        "#,
        );
        let ((_, c), s) = ev
            .sites
            .iter()
            .find(|((_, c), _)| *c == UbClass::DivByZero)
            .expect("div-by-zero site");
        assert_eq!(*c, UbClass::DivByZero);
        assert!(s.must);
    }

    #[test]
    fn provably_oversized_shift_is_must_and_in_range_is_clean() {
        let ev = evidence(
            r#"
            int main() {
                int a = 1 << 2;
                int s = 40;
                int b = a << s;
                printf("%d %d\n", a, b);
                return 0;
            }
        "#,
        );
        let shift_sites: Vec<_> = ev
            .sites
            .iter()
            .filter(|((_, c), _)| *c == UbClass::OversizedShift)
            .collect();
        assert_eq!(shift_sites.len(), 1, "only the oversized shift is a site");
        assert!(shift_sites[0].1.must);
        // The in-range `1 << 2` produced a clean proof on its line.
        assert!(
            ev.clean.iter().any(|(_, c)| *c == UbClass::OversizedShift),
            "in-range shift proves clean: {:?}",
            ev.clean
        );
    }

    #[test]
    fn memory_traffic_makes_uninit_and_nullderef_unknown() {
        let ev = evidence(
            r#"
            int main() {
                int a[2];
                a[0] = 1;
                printf("%d\n", a[0]);
                return 0;
            }
        "#,
        );
        assert!(ev.unknown.contains(&UbClass::Uninit));
        assert!(ev.unknown.contains(&UbClass::NullDeref));
    }

    #[test]
    fn pure_arithmetic_program_is_fully_decided() {
        let ev = evidence(
            r#"
            int main() {
                int x = 3;
                int y = x * 2 + 1;
                printf("%d\n", y);
                return 0;
            }
        "#,
        );
        assert!(ev.sites.is_empty(), "{:?}", ev.sites);
        assert!(
            !ev.unknown.contains(&UbClass::Uninit)
                && !ev.unknown.contains(&UbClass::SignedOverflow)
                && !ev.unknown.contains(&UbClass::DivByZero),
            "{:?}",
            ev.unknown
        );
    }

    #[test]
    fn interprocedural_constant_feeds_must_shift() {
        // The shift amount arrives through a helper's summarized return
        // interval — intraprocedurally this would be unknown.
        let ev = evidence(
            r#"
            int amount() { return 40; }
            int main() {
                int x = 1;
                int y = x << amount();
                printf("%d\n", y);
                return 0;
            }
        "#,
        );
        let site = ev
            .sites
            .iter()
            .find(|((_, c), _)| *c == UbClass::OversizedShift)
            .map(|(_, s)| s)
            .expect("interprocedural oversized shift");
        assert!(site.must);
    }

    #[test]
    fn loop_carried_call_argument_widens_and_stays_may() {
        // The counter flows through a call on every iteration and is
        // incremented; the interval join must widen it so the fixpoint
        // converges, and the widened `[0, +inf]` increment is a May
        // overflow site — never a Must one.
        let ev = evidence(
            r#"
            int observe(int k) { return k; }
            int main() {
                int n = (int)input_size();
                int i = 0;
                int sum = 0;
                while (i < n) {
                    sum = observe(i);
                    i = i + 1;
                }
                printf("%d\n", sum);
                return 0;
            }
        "#,
        );
        let overflow_sites: Vec<_> = ev
            .sites
            .iter()
            .filter(|((_, c), _)| *c == UbClass::SignedOverflow)
            .collect();
        assert!(
            overflow_sites.iter().all(|(_, s)| !s.must),
            "widened loop counter must not yield a Must overflow: {overflow_sites:?}"
        );
        assert!(
            !overflow_sites.is_empty() || ev.unknown.contains(&UbClass::SignedOverflow),
            "the widened increment is either a May site or declared unknown"
        );
    }

    #[test]
    fn subscript_deref_marks_pointer_base_for_check_after_deref() {
        // `p[1]` lowers to a load of `p + offset`; the null analysis must
        // chase the derived value back to `p` so the later `p == 0` test
        // is recognized as a check-after-deref. Pointer `++` is another
        // Add-derivation layer on the same base.
        let checked = minc::check(
            r#"
            int main() {
                int a[4];
                a[0] = 7;
                int *p = a;
                p++;
                int x = p[1];
                if (p == 0) { printf("null\n"); }
                printf("%d\n", x);
                return 0;
            }
        "#,
        )
        .unwrap();
        let ir = reference_ir(&checked);
        let findings = detectors::scan_program(&ProgramFacts::of(&ir));
        assert!(
            findings
                .iter()
                .any(|f| f.defect == staticheck::Defect::NullDeref),
            "derived-base deref did not feed the null-check-after-deref \
             detector: {findings:?}"
        );
    }

    #[test]
    fn build_end_to_end_reports_uninit_with_both_origins() {
        let checked = minc::check(
            r#"
            int main() {
                int u;
                if (u > 0) { printf("a\n"); }
                return 0;
            }
        "#,
        )
        .unwrap();
        let map = UbSiteMap::build(&checked, &CompilerImpl::default_set());
        let uninit: Vec<_> = map
            .sites
            .iter()
            .filter(|s| s.class == UbClass::Uninit)
            .collect();
        assert_eq!(uninit.len(), 1, "{}", map.render());
        assert_eq!(uninit[0].certainty, Certainty::Must);
        assert_eq!(uninit[0].origin, Origin::Both);
        assert!(map.render().contains("uninit"));
    }

    #[test]
    fn refutes_requires_coverage_and_no_blindness() {
        let checked = minc::check("int main() { int x = 3; printf(\"%d\\n\", x); return 0; }");
        let map = UbSiteMap::build(&checked.unwrap(), &[]);
        assert!(map.refutes(UbClass::SignedOverflow));
        assert!(map.refutes(UbClass::DivByZero));
        // Dynamic-only classes are never refutable statically.
        assert!(!map.refutes(UbClass::OutOfBounds));
        assert!(!map.refutes(UbClass::UseAfterFree));
    }
}
