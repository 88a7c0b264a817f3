//! IR-level detectors for the unstable-code classes the lint reports
//! directly from dataflow (independent of any optimizer's rewrite log).
//!
//! All detectors run on the *reference IR*: an `-O0` lowering with only
//! `mem2reg` applied. That shape makes uninitialized locals explicit as
//! [`ConstVal::Junk`] registers while every register still carries the
//! source line it was allocated for (copy propagation would erase the
//! line-stamped copies).

use crate::dataflow::{fixpoint, scan_with_blocks, BlockStates, Point, Visit};
use crate::domains::{
    shift_width, Interval, IntervalAnalysis, IntervalState, JunkAnalysis, JunkState, NullAnalysis,
    NullState,
};
use crate::summaries::FnSummaries;
use minc_compile::ir::{
    BinKind, CastKind, ConstVal, IdMap, Inst, IrFunction, IrProgram, Terminator, ValueId,
};
use staticheck::Defect;
use std::collections::BTreeSet;

/// One IR-level finding, before merging with the provenance channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrFinding {
    /// Function the finding is in.
    pub function: String,
    /// Defect class (shared with the staticheck tools).
    pub defect: Defect,
    /// 1-based source line (0 if the IR carried no attribution).
    pub line: u32,
    /// Human-readable detail.
    pub message: String,
    /// For uninitialized-use findings: the mem2reg junk id observed, used
    /// to corroborate `UninitPromotion` provenance entries.
    pub junk_id: Option<u32>,
}

/// The dataflow facts of one program: its summaries, and the fixpoint
/// of each analysis over each function, each computed once. The lint's
/// detectors and the UB-site map's collectors read the same states.
pub(crate) struct ProgramFacts<'p> {
    /// Interprocedural summaries, computed callee-first.
    pub(crate) summaries: FnSummaries,
    /// One entry per function, in program order.
    pub(crate) fns: Vec<FnFacts<'p>>,
}

/// The fixpoints of one function; scans replay them with an analysis
/// built over [`ProgramFacts::summaries`].
pub(crate) struct FnFacts<'p> {
    /// The function.
    pub(crate) f: &'p IrFunction,
    /// [`JunkAnalysis`] input state per block.
    junk: BlockStates<JunkState>,
    /// [`IntervalAnalysis`] input state per block.
    pub(crate) intervals: BlockStates<IntervalState>,
    /// [`NullAnalysis`] input state per block.
    null: BlockStates<NullState>,
}

impl<'p> ProgramFacts<'p> {
    /// Summarizes `prog`, then runs each analysis over each function.
    pub(crate) fn of(prog: &'p IrProgram) -> ProgramFacts<'p> {
        let summaries = FnSummaries::of(prog);
        let fns = prog
            .functions
            .iter()
            .map(|f| FnFacts {
                f,
                junk: fixpoint(f, &JunkAnalysis::new(&summaries)),
                intervals: fixpoint(f, &IntervalAnalysis::new(&summaries)),
                null: fixpoint(f, &NullAnalysis::new(&summaries)),
            })
            .collect();
        ProgramFacts { summaries, fns }
    }
}

/// Runs every detector over every function's facts.
pub(crate) fn scan_program(facts: &ProgramFacts) -> Vec<IrFinding> {
    let mut out = Vec::new();
    for ff in &facts.fns {
        junk_reads(ff, &facts.summaries, &mut out);
        oversized_shifts(ff, &facts.summaries, &mut out);
        block_patterns(ff.f, &mut out);
        null_check_after_deref(ff, &facts.summaries, &mut out);
    }
    // Deterministic order + per-line dedup (a junk value read five times
    // on one line is one finding).
    out.sort_by(|a, b| {
        (a.line, &a.function, format!("{}", a.defect), &a.message).cmp(&(
            b.line,
            &b.function,
            format!("{}", b.defect),
            &b.message,
        ))
    });
    out.dedup_by(|a, b| a.function == b.function && a.defect == b.defect && a.line == b.line);
    out
}

// ----------------------------------------------------- uninitialized use

/// Every observable use of a register that may carry mem2reg junk — call
/// arguments, stored values, branch conditions and return values — as
/// `(point, line, junk id, what)`, in scan order.
pub(crate) fn junk_sinks(
    ff: &FnFacts,
    summaries: &FnSummaries,
) -> Vec<(Point, u32, u32, &'static str)> {
    let f = ff.f;
    let mut sinks = Vec::new();
    scan_with_blocks(f, &JunkAnalysis::new(summaries), &ff.junk, |b, st, v| {
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
                sinks.push((b, f.line_of(*r), id, what));
            }
        }
    });
    sinks
}

/// Flags every junk sink as a possibly uninitialized read.
fn junk_reads(ff: &FnFacts, summaries: &FnSummaries, out: &mut Vec<IrFinding>) {
    for (_, line, id, what) in junk_sinks(ff, summaries) {
        out.push(IrFinding {
            function: ff.f.name.clone(),
            defect: Defect::Uninitialized,
            line,
            message: format!("{what} may observe an uninitialized (indeterminate) value"),
            junk_id: Some(id),
        });
    }
}

/// The junk ids whose reads `junk_reads` observed anywhere in `prog` —
/// the corroboration set for `UninitPromotion` provenance entries.
pub fn observed_junk_ids(findings: &[IrFinding]) -> BTreeSet<u32> {
    findings.iter().filter_map(|f| f.junk_id).collect()
}

// ----------------------------------------------------------- bad shifts

/// Flags shifts whose amount is provably out of range for the operand
/// width (`>= width` or negative) via interval analysis.
fn oversized_shifts(ff: &FnFacts, summaries: &FnSummaries, out: &mut Vec<IrFinding>) {
    let f = ff.f;
    let a = IntervalAnalysis::new(summaries);
    let mut sink: Vec<(u32, i64, Interval)> = Vec::new();
    scan_with_blocks(f, &a, &ff.intervals, |_, st, v| {
        if let Visit::Inst(Inst::Bin {
            dst,
            ty,
            op: BinKind::Shl | BinKind::ShrS | BinKind::ShrU,
            b,
            ..
        }) = v
        {
            if let Some(amt) = st.get(b.0) {
                let width = shift_width(*ty);
                if amt.lo >= width || amt.hi < 0 {
                    sink.push((f.line_of(*dst), width, *amt));
                }
            }
        }
    });
    for (line, width, amt) in sink {
        let shown = if amt.lo == amt.hi {
            format!("{}", amt.lo)
        } else {
            format!("[{}, {}]", amt.lo, amt.hi)
        };
        out.push(IrFinding {
            function: f.name.clone(),
            defect: Defect::BadShift,
            line,
            message: format!(
                "shift amount {shown} is out of range for a {width}-bit value; \
                 implementations legally disagree on the result"
            ),
            junk_id: None,
        });
    }
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

// --------------------------------------------- null check after deref

/// Flags `p == 0` / `p != 0` tests of a pointer already dereferenced on
/// every path to the test — exactly the checks the optimizer deletes.
fn null_check_after_deref(ff: &FnFacts, summaries: &FnSummaries, out: &mut Vec<IrFinding>) {
    let f = ff.f;
    let mut sink: Vec<u32> = Vec::new();
    scan_with_blocks(f, &NullAnalysis::new(summaries), &ff.null, |_, st, v| {
        if let Visit::Inst(Inst::Bin {
            dst,
            ty: minc_compile::ir::IrType::I64,
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
                sink.push(f.line_of(*dst));
            }
        }
    });
    for line in sink {
        out.push(IrFinding {
            function: f.name.clone(),
            defect: Defect::NullDeref,
            line,
            message: "null check of a pointer already dereferenced on this path; \
                      optimizers delete the check, `-O0` keeps it"
                .to_string(),
            junk_id: None,
        });
    }
}
