//! IR-level detectors for the unstable-code classes the lint reports
//! directly from dataflow (independent of any optimizer's rewrite log).
//!
//! All detectors run on the *reference IR*: an `-O0` lowering with only
//! `mem2reg` applied. That shape makes uninitialized locals explicit as
//! [`ConstVal::Junk`] registers while every register still carries the
//! source line it was allocated for (copy propagation would erase the
//! line-stamped copies).

use crate::dataflow::{fixpoint, scan_with_blocks, Point, Visit};
use crate::domains::{Interval, IntervalAnalysis, JunkAnalysis, NullAnalysis};
use crate::summaries::FnSummaries;
use crate::ubmap::UbClass;
use minc_compile::ir::{
    BinKind, CastKind, ConstVal, IdMap, Inst, IrFunction, IrProgram, IrType, Terminator, ValueId,
};
use minc_compile::personality::NULL_PAGE;
use staticheck::Defect;
use std::collections::BTreeSet;

/// One IR-level finding, before merging with the provenance channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IrFinding {
    /// Function the finding is in.
    pub(crate) function: String,
    /// Defect class (shared with the staticheck tools).
    pub(crate) defect: Defect,
    /// 1-based source line (0 if the IR carried no attribution).
    pub(crate) line: u32,
    /// Human-readable detail.
    pub(crate) message: String,
    /// For uninitialized-use findings: the mem2reg junk id observed, used
    /// to corroborate `UninitPromotion` provenance entries.
    pub(crate) junk_id: Option<u32>,
}

/// The dataflow facts of one program: what each analysis's replay
/// recorded over each function. The lint's detectors and the UB-site
/// map read the same records.
pub(crate) struct ProgramFacts<'p> {
    /// One entry per function, in program order.
    pub(crate) fns: Vec<FnFacts<'p>>,
}

/// What the three analyses recorded over one function, each in scan
/// order. The block states behind them are dropped once replayed.
pub(crate) struct FnFacts<'p> {
    /// The function.
    pub(crate) f: &'p IrFunction,
    /// Every observable use of a register that may carry mem2reg junk.
    pub(crate) junk_sinks: Vec<JunkSink>,
    /// The interval verdict at each shift, division, signed arithmetic
    /// operation and memory access.
    pub(crate) intervals: Vec<IntervalRec>,
    /// Lines of `p == 0` / `p != 0` tests of a pointer already
    /// dereferenced on every path to the test — exactly the checks the
    /// optimizer deletes.
    pub(crate) null_checks: Vec<u32>,
}

/// A call argument, stored value, branch condition or returned value
/// that may carry mem2reg junk.
pub(crate) struct JunkSink {
    /// Where the use is.
    pub(crate) point: Point,
    /// The used register's source line.
    pub(crate) line: u32,
    /// The junk id it may carry.
    pub(crate) id: u32,
    /// What kind of use it is.
    pub(crate) what: &'static str,
}

/// What the interval analysis decided about one UB class at one
/// instruction.
pub(crate) struct IntervalRec {
    /// Where the instruction is.
    pub(crate) point: Point,
    /// Its source line.
    pub(crate) line: u32,
    /// The UB class decided.
    pub(crate) class: UbClass,
    /// The decision.
    pub(crate) verdict: Verdict,
}

/// An interval decision.
#[derive(Clone, Copy)]
pub(crate) enum Verdict {
    /// The UB is possible here, and certain whenever the instruction runs
    /// when `exact` (the condition is proven, not just possible).
    Site { exact: bool, why: Why },
    /// The UB provably cannot happen here.
    Clean,
    /// The analysis has no fact to decide it.
    Unknown,
}

/// The facts behind a site, from which each consumer renders its message.
/// The comments give the `exact` reading first.
#[derive(Clone, Copy)]
pub(crate) enum Why {
    /// A shift amount outside, or possibly leaving, `[0, width)`.
    Shift { width: i64, amount: Interval },
    /// A signed left shift that overflows, or that may overflow or shift
    /// a negative value.
    ShlOverflow,
    /// A divisor interval that is `[0, 0]`, or that includes zero.
    ZeroDivisor(Interval),
    /// A signed division that hits, or may hit, `MIN / -1`.
    DivOverflow,
    /// A signed arithmetic result range outside, or exceeding, the type.
    Overflow { lo: i128, hi: i128 },
    /// An accessed address range inside, or overlapping, the null page.
    NullPage(Interval),
}

impl<'p> ProgramFacts<'p> {
    /// Summarizes `prog`, then runs each analysis to fixpoint over each
    /// function and replays it once.
    pub(crate) fn of(prog: &'p IrProgram) -> ProgramFacts<'p> {
        let summaries = FnSummaries::of(prog);
        let fns = prog
            .functions
            .iter()
            .map(|f| FnFacts {
                f,
                junk_sinks: junk_sinks(f, &summaries),
                intervals: interval_records(f, &summaries),
                null_checks: null_checks(f, &summaries),
            })
            .collect();
        ProgramFacts { fns }
    }
}

/// Runs every detector over every function's facts.
pub(crate) fn scan_program(facts: &ProgramFacts) -> Vec<IrFinding> {
    let mut out = Vec::new();
    for ff in &facts.fns {
        let finding = |defect, line, message, junk_id| IrFinding {
            function: ff.f.name.clone(),
            defect,
            line,
            message,
            junk_id,
        };
        for s in &ff.junk_sinks {
            out.push(finding(
                Defect::Uninitialized,
                s.line,
                format!(
                    "{} may observe an uninitialized (indeterminate) value",
                    s.what
                ),
                Some(s.id),
            ));
        }
        for r in &ff.intervals {
            if let Verdict::Site {
                exact: true,
                why: Why::Shift { width, amount },
            } = r.verdict
            {
                let shown = if amount.lo == amount.hi {
                    format!("{}", amount.lo)
                } else {
                    format!("[{}, {}]", amount.lo, amount.hi)
                };
                out.push(finding(
                    Defect::BadShift,
                    r.line,
                    format!(
                        "shift amount {shown} is out of range for a {width}-bit value; \
                         implementations legally disagree on the result"
                    ),
                    None,
                ));
            }
        }
        block_patterns(ff.f, &mut out);
        for &line in &ff.null_checks {
            out.push(finding(
                Defect::NullDeref,
                line,
                "null check of a pointer already dereferenced on this path; \
                 optimizers delete the check, `-O0` keeps it"
                    .to_string(),
                None,
            ));
        }
    }
    // Deterministic order + per-line dedup (a junk value read five times
    // on one line is one finding).
    out.sort_by(|a, b| {
        (a.line, &a.function, a.defect.name(), &a.message).cmp(&(
            b.line,
            &b.function,
            b.defect.name(),
            &b.message,
        ))
    });
    out.dedup_by(|a, b| a.function == b.function && a.defect == b.defect && a.line == b.line);
    out
}

/// The junk ids whose reads the junk sinks observed anywhere in `prog` —
/// the corroboration set for `UninitPromotion` provenance entries.
pub(crate) fn observed_junk_ids(findings: &[IrFinding]) -> BTreeSet<u32> {
    findings.iter().filter_map(|f| f.junk_id).collect()
}

// ----------------------------------------------------- uninitialized use

/// Every observable use of a register that may carry mem2reg junk — call
/// arguments, stored values, branch conditions and return values.
fn junk_sinks(f: &IrFunction, summaries: &FnSummaries) -> Vec<JunkSink> {
    let a = JunkAnalysis::new(summaries);
    let mut sinks = Vec::new();
    scan_with_blocks(f, &a, &fixpoint(f, &a), |point, st, v| {
        let (used, what) = match v {
            Visit::Inst(Inst::Call { args, .. }) => (&args[..], "call argument"),
            Visit::Inst(Inst::Store { src, .. }) => (std::slice::from_ref(src), "stored value"),
            Visit::Term(Terminator::Br { cond, .. }) => {
                (std::slice::from_ref(cond), "branch condition")
            }
            Visit::Term(Terminator::Ret(Some(r))) => (std::slice::from_ref(r), "returned value"),
            _ => return,
        };
        for r in used {
            if let Some(&id) = st.get(r.0) {
                sinks.push(JunkSink {
                    point,
                    line: f.line_of(*r),
                    id,
                    what,
                });
            }
        }
    });
    sinks
}

// ------------------------------------------------------ interval verdicts

/// The interval verdicts of `f`: shift amounts against the operand width
/// (and signed left shifts against the type), divisors against zero and
/// `MIN / -1`, signed arithmetic against the type, and accessed addresses
/// against the null page.
fn interval_records(f: &IrFunction, summaries: &FnSummaries) -> Vec<IntervalRec> {
    use BinKind::*;
    use UbClass::{DivByZero, NullDeref, OversizedShift, SignedOverflow};
    let a = IntervalAnalysis::new(summaries);
    let site = |exact, why| Verdict::Site { exact, why };
    let mut recs = Vec::new();
    scan_with_blocks(f, &a, &fixpoint(f, &a), |point, st, v| {
        let Visit::Inst(inst) = v else { return };
        let mut push = |dst: &ValueId, class, verdict| {
            recs.push(IntervalRec {
                point,
                line: f.line_of(*dst),
                class,
                verdict,
            })
        };
        match inst {
            Inst::Bin {
                dst,
                ty,
                op: op @ (Shl | ShrS | ShrU),
                a: lhs,
                b: amt,
                ub_signed,
            } => {
                let width = i64::from(ty.bits());
                let verdict = match st.get(amt.0).copied() {
                    None => Verdict::Unknown,
                    Some(amount) if amount.lo >= width || amount.hi < 0 => {
                        site(true, Why::Shift { width, amount })
                    }
                    Some(amount) if amount.lo < 0 || amount.hi >= width => {
                        site(false, Why::Shift { width, amount })
                    }
                    // Amount in range. A signed left shift can still
                    // overflow; the clean proof needs the operand too.
                    Some(am) if *op == Shl && *ub_signed => {
                        let max = i128::from(ty.signed_range().1);
                        match st.get(lhs.0).copied() {
                            Some(x)
                                if x.lo >= 0 && (x.hi as i128) << (am.hi.max(0) as u32) <= max =>
                            {
                                Verdict::Clean
                            }
                            Some(x) => {
                                let wide = (x.hi.max(x.lo.abs()) as i128) << (am.hi.max(0) as u32);
                                let definite = x.lo >= 0 && (x.lo as i128) << am.lo > max;
                                if x.lo < 0 || wide > max {
                                    site(definite, Why::ShlOverflow)
                                } else {
                                    Verdict::Clean
                                }
                            }
                            None => Verdict::Unknown,
                        }
                    }
                    Some(_) => Verdict::Clean,
                };
                push(dst, OversizedShift, verdict);
            }
            Inst::Bin {
                dst,
                ty,
                op: op @ (DivS | DivU | RemS | RemU),
                a: num,
                b: den,
                ..
            } => {
                let d = st.get(den.0).copied();
                let verdict = match d {
                    None => Verdict::Unknown,
                    Some(dv) if dv.contains(0) => {
                        site(dv == Interval::point(0), Why::ZeroDivisor(dv))
                    }
                    Some(_) => Verdict::Clean,
                };
                push(dst, DivByZero, verdict);
                // `MIN / -1` overflows in signed division.
                if matches!(op, DivS | RemS) {
                    let min = ty.signed_range().0;
                    let n = st.get(num.0).copied();
                    let n_may_min = n.is_none_or(|i| i.contains(min));
                    let d_may_neg1 = d.is_none_or(|i| i.contains(-1));
                    if n_may_min && d_may_neg1 {
                        let definite =
                            n == Some(Interval::point(min)) && d == Some(Interval::point(-1));
                        let verdict = if definite {
                            site(true, Why::DivOverflow)
                        } else if n.is_none() || d.is_none() {
                            Verdict::Unknown
                        } else {
                            site(false, Why::DivOverflow)
                        };
                        push(dst, SignedOverflow, verdict);
                    }
                }
            }
            Inst::Bin {
                dst,
                ty,
                op: op @ (Add | Sub | Mul),
                a: lhs,
                b: rhs,
                ub_signed: true,
            } => {
                let (min, max) = ty.signed_range();
                let (min, max) = (i128::from(min), i128::from(max));
                let (Some(x), Some(y)) = (st.get(lhs.0), st.get(rhs.0)) else {
                    push(dst, SignedOverflow, Verdict::Unknown);
                    return;
                };
                let (xl, xh) = (x.lo as i128, x.hi as i128);
                let (yl, yh) = (y.lo as i128, y.hi as i128);
                let (lo, hi) = match op {
                    Add => (xl + yl, xh + yh),
                    Sub => (xl - yh, xh - yl),
                    _ => {
                        let cs = [xl * yl, xl * yh, xh * yl, xh * yh];
                        (
                            cs.iter().copied().min().unwrap_or(0),
                            cs.iter().copied().max().unwrap_or(0),
                        )
                    }
                };
                // In range: no record, and no clean proof either —
                // SignedOverflowCheck provenance flags a *deleted check*,
                // which is consistent with a non-overflow proof, not
                // contradicted by it.
                let exact = lo > max || hi < min;
                if exact || lo < min || hi > max {
                    push(dst, SignedOverflow, site(exact, Why::Overflow { lo, hi }));
                }
            }
            Inst::Load { dst, addr, .. } | Inst::Store { addr, src: dst, .. } => {
                let page = NULL_PAGE as i64;
                let verdict = match st.get(addr.0).copied() {
                    None => Verdict::Unknown,
                    Some(av) if av.lo >= 0 && av.hi < page => site(true, Why::NullPage(av)),
                    Some(av) if av.lo < page && av.hi >= 0 => site(false, Why::NullPage(av)),
                    Some(_) => return,
                };
                push(dst, NullDeref, verdict);
            }
            _ => {}
        }
    });
    recs
}

// --------------------------------------------- null check after deref

/// The lines of `p == 0` / `p != 0` tests of a pointer already
/// dereferenced on every path to the test.
fn null_checks(f: &IrFunction, summaries: &FnSummaries) -> Vec<u32> {
    let a = NullAnalysis::new(summaries);
    let mut lines = Vec::new();
    scan_with_blocks(f, &a, &fixpoint(f, &a), |_, st, v| {
        if let Visit::Inst(Inst::Bin {
            dst,
            ty: IrType::I64,
            op: BinKind::Eq | BinKind::Ne,
            a,
            b,
            ..
        }) = v
        {
            let null_cmp = |p: ValueId, z: ValueId| {
                st.zeros.contains(z.0) && st.derefed.contains(st.root(p.0))
            };
            if null_cmp(*a, *b) || null_cmp(*b, *a) {
                lines.push(f.line_of(*dst));
            }
        }
    });
    lines
}

// ------------------------------------------- block-local pattern scans

/// Where a pointer value originates, for cross-object compare detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PtrBase {
    Slot(u32),
    Global(u32),
    Str(u32),
}

/// A versioned value origin: `(register, version)`, where a fresh version
/// is minted per non-copy definition.
type OriginId = (u32, u32);

/// Block-local detectors that need value-identity rather than a lattice:
/// the `a + b < a` overflow-check idiom and relational comparison of
/// pointers into different objects. Copies are resolved through an
/// *origin* map (register -> versioned defining value), which makes the
/// scans transparent to the mem2reg `Load`/`Store` -> `Copy` rewrites.
fn block_patterns(f: &IrFunction, out: &mut Vec<IrFinding>) {
    for blk in &f.blocks {
        // Versioned origins: a fresh version per non-copy definition, so
        // register reuse (the IR is not SSA) cannot alias stale values.
        let mut origin: IdMap<u32, OriginId> = IdMap::default();
        let mut next_version = 0u32;
        // Overflow-check candidates: origin of an `ub_signed` Add/Sub ->
        // (is_add, origins of its operands).
        let mut arith: IdMap<OriginId, (bool, OriginId, OriginId)> = IdMap::default();
        let mut bases: IdMap<OriginId, PtrBase> = IdMap::default();

        let origin_of = |r: ValueId, origin: &mut IdMap<u32, OriginId>, next_version: &mut u32| {
            *origin.entry(r.0).or_insert_with(|| {
                *next_version += 1;
                (r.0, *next_version)
            })
        };
        let fresh = |r: ValueId, origin: &mut IdMap<u32, OriginId>, next_version: &mut u32| {
            *next_version += 1;
            let o = (r.0, *next_version);
            origin.insert(r.0, o);
            o
        };

        for inst in &blk.insts {
            match inst {
                Inst::Copy { dst, src, .. } => {
                    let o = origin_of(*src, &mut origin, &mut next_version);
                    origin.insert(dst.0, o);
                }
                Inst::Const { dst, val, .. } => {
                    let o = fresh(*dst, &mut origin, &mut next_version);
                    match val {
                        ConstVal::GlobalAddr(g, _) => {
                            bases.insert(o, PtrBase::Global(g.0));
                        }
                        ConstVal::StrAddr(s, _) => {
                            bases.insert(o, PtrBase::Str(s.0));
                        }
                        _ => {}
                    }
                }
                Inst::FrameAddr { dst, slot } => {
                    let o = fresh(*dst, &mut origin, &mut next_version);
                    bases.insert(o, PtrBase::Slot(slot.0));
                }
                Inst::Cast {
                    dst,
                    kind: CastKind::SextI32I64 | CastKind::ZextI32I64,
                    a,
                } => {
                    // Width-extending casts preserve pointer identity for
                    // the base-tracking (pointers are I64 already, but be
                    // permissive about re-extended offsets).
                    let oa = origin_of(*a, &mut origin, &mut next_version);
                    let o = fresh(*dst, &mut origin, &mut next_version);
                    if let Some(b) = bases.get(&oa).copied() {
                        bases.insert(o, b);
                    }
                }
                Inst::Bin {
                    dst,
                    op,
                    a,
                    b,
                    ub_signed,
                    ..
                } => {
                    let oa = origin_of(*a, &mut origin, &mut next_version);
                    let ob = origin_of(*b, &mut origin, &mut next_version);
                    use BinKind::*;

                    // (1) `a + b < a` family, mirroring the optimizer's
                    // rewrite precondition exactly.
                    if matches!(op, LtS | LeS | GtS | GeS) {
                        let mut hit = false;
                        if let Some((is_add, xa, xb)) = arith.get(&oa) {
                            // add/sub on the left: cmp(arith(x,y), x); the
                            // sub form only matches its minuend.
                            hit = *xa == ob || (*is_add && *xb == ob);
                        }
                        if !hit {
                            if let Some((is_add, xa, xb)) = arith.get(&ob) {
                                // add on the right: cmp(x, add(x,y)).
                                hit = *is_add && (*xa == oa || *xb == oa);
                            }
                        }
                        if hit {
                            out.push(IrFinding {
                                function: f.name.clone(),
                                defect: Defect::IntegerOverflow,
                                line: f.line_of(*dst),
                                message: "overflow check of the `a + b < a` family relies on \
                                          signed wraparound; optimizers may delete it"
                                    .to_string(),
                                junk_id: None,
                            });
                        }
                    }

                    // (2) relational compare of pointers into different
                    // objects (== and != stay legal).
                    if matches!(op, LtS | LeS | GtS | GeS | LtU | LeU | GtU | GeU) {
                        if let (Some(ba), Some(bb)) = (bases.get(&oa), bases.get(&ob)) {
                            if ba != bb {
                                out.push(IrFinding {
                                    function: f.name.clone(),
                                    defect: Defect::PointerCompare,
                                    line: f.line_of(*dst),
                                    message: "relational comparison of pointers into \
                                              different objects; the result depends on \
                                              implementation-chosen layout"
                                        .to_string(),
                                    junk_id: None,
                                });
                            }
                        }
                    }

                    let o = fresh(*dst, &mut origin, &mut next_version);
                    match (op, ub_signed) {
                        (Add, true) => {
                            arith.insert(o, (true, oa, ob));
                        }
                        (Sub, true) => {
                            arith.insert(o, (false, oa, ob));
                        }
                        (Add | Sub, _) => {
                            // Pointer arithmetic keeps the base object.
                            let base = match (bases.get(&oa), bases.get(&ob)) {
                                (Some(b), None) => Some(*b),
                                (None, Some(b)) if *op == Add => Some(*b),
                                _ => None,
                            };
                            if let Some(b) = base {
                                bases.insert(o, b);
                            }
                        }
                        _ => {}
                    }
                }
                other => {
                    if let Some(d) = other.dst() {
                        fresh(d, &mut origin, &mut next_version);
                    }
                }
            }
        }
    }
}
