//! Block-compiled execution: superblock pre-decode + threaded dispatch.
//!
//! This is the VM's production engine: every
//! [`ExecSession`](crate::ExecSession) runs it, except one built by
//! [`ExecSession::reference`](crate::ExecSession::reference), which runs
//! the per-instruction interpreter in `exec.rs` as the reference this
//! module is checked against.
//!
//! The per-instruction interpreter re-decodes every `Inst`
//! (enum match, operand field loads, frame-layout lookups) on every step.
//! This module translates a [`Binary`] **once** into a [`BlockProgram`]:
//! per function, a vector of *superblocks* whose operations (`Op`) carry
//! fully pre-resolved operands — constants folded through the personality's
//! junk words, frame-slot offsets flattened, hook locations pre-computed —
//! and whose unconditional-jump chains are fused so straight-line runs of
//! basic blocks dispatch without touching the frame state.
//!
//! The dispatcher (`Vm::run_block`) keeps the hot register file of the
//! current activation in locals (`mem::take`n out of the frame, swapped
//! back only at call/return boundaries) and charges the step limit per
//! superblock: when the whole block provably fits under the limit it runs
//! with **zero** per-op limit checks and reconciles `steps` once at the
//! boundary; otherwise it falls back to exact per-op accounting identical
//! to the interpreter. Every observable — `ExecResult` bits, stdout, step
//! counts (including the step at which a timeout fires), every `Hooks`
//! callback and its `Loc` — is bit-identical to the interpreter; the
//! equivalence suite in `tests/block_equivalence.rs` pins this against
//! reference sessions across the whole target catalog × 10
//! implementations.
//!
//! Hooks are monomorphized into the dispatch loop exactly as in the
//! interpreter, so the `NoHooks` fast path pays zero instrumentation cost
//! while sanitizer and coverage runs get the full per-instruction
//! callbacks without a separate slow dispatcher.

use crate::exec::{const_word, pow_fast, End, ExtKind, Vm};
use crate::hooks::{Hooks, Loc, PoisonUse};
use crate::result::{ExitStatus, Trap};
use minc::Builtin;
use minc_compile::ir::{
    BinKind, Block, CastKind, ConstVal, Inst, IrType, Terminator, UnKind, ValueId,
};
use minc_compile::Binary;

/// The one listing of the flat binary opcodes: each integer [`BinKind`]
/// that cannot trap, with the names of its `I32` and `I64` variants.
/// Invokes `$then!` with `{ $fwd }` followed by the listing; the [`Op`]
/// variants, the translation map ([`Op::flat`]) and the dispatch arms are
/// all generated from it.
macro_rules! flat_bins {
    ($then:ident! { $($fwd:tt)* }) => {
        $then! {
            { $($fwd)* }
            Add: Add32, Add64;
            Sub: Sub32, Sub64;
            Mul: Mul32, Mul64;
            Shl: Shl32, Shl64;
            ShrS: ShrS32, ShrS64;
            ShrU: ShrU32, ShrU64;
            And: And32, And64;
            Or: Or32, Or64;
            Xor: Xor32, Xor64;
            Eq: Eq32, Eq64;
            Ne: Ne32, Ne64;
            LtS: LtS32, LtS64;
            LeS: LeS32, LeS64;
            GtS: GtS32, GtS64;
            GeS: GeS32, GeS64;
            LtU: LtU32, LtU64;
            LeU: LeU32, LeU64;
            GtU: GtU32, GtU64;
            GeU: GeU32, GeU64;
        }
    };
}

/// Operand payload of a flat binary opcode. The `(op, ty)` pair is the
/// variant itself, so dispatch is a single jump and the arm evaluates
/// `BinKind::eval` at a constant `(op, ty)`. Only non-trapping integer
/// operations get a flat opcode; division, remainder, and float ops keep
/// the generic [`Op::Bin`] path. `ub_signed` rides along for hook
/// callbacks only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BinOp {
    pub(crate) ub_signed: bool,
    pub(crate) dst: u32,
    pub(crate) a: u32,
    pub(crate) b: u32,
}

/// Sentinel register index meaning "result discarded" (a register file can
/// never reach `u32::MAX` entries).
const NO_DST: u32 = u32::MAX;

/// Call-site payload of [`Op::CallFunc`], boxed to keep `Op` small.
#[derive(Debug, Clone)]
pub(crate) struct CallF {
    pub(crate) dst: Option<ValueId>,
    pub(crate) func: u32,
    pub(crate) args: Box<[u32]>,
}

/// Call-site payload of [`Op::CallBuiltin`], boxed to keep `Op` small.
#[derive(Debug, Clone)]
pub(crate) struct CallB {
    pub(crate) dst: Option<u32>,
    pub(crate) builtin: Builtin,
    pub(crate) args: Box<[u32]>,
    pub(crate) arg_tys: Box<[IrType]>,
}

// `Op` and its translation map, with the flat variants spliced in from
// `flat_bins!` after `Const` and `Copy`.
macro_rules! define_op {
    ({} $($kind:ident: $i32:ident, $i64:ident;)*) => {
        /// A pre-decoded operation. Operands are raw register indices;
        /// layout lookups are resolved at translation time. `Op` is
        /// deliberately kept at 24 bytes — the flat per-(op, width)
        /// arithmetic variants cost 8 bytes over a packed encoding but buy a
        /// single-jump dispatch that measured faster than the denser
        /// double-dispatch layout — and everything the hot `NoHooks` path
        /// never touches lives elsewhere: hook `Loc`s in the superblock's
        /// parallel [`BBlock::locs`] array, call payloads behind a `Box`,
        /// and a flat op's `(op, ty)` pair in its dispatch arm.
        #[derive(Debug, Clone)]
        pub(crate) enum Op {
            /// Constant with its register word pre-resolved (including the
            /// I32 truncation and personality junk words).
            Const {
                dst: u32,
                raw: u64,
                poison: bool,
            },
            /// Register copy.
            Copy {
                dst: u32,
                src: u32,
            },
            // The flat binary opcodes (the hot path); see `BinOp`.
            $(
                $i32(BinOp),
                $i64(BinOp),
            )*
            /// Binary operation on the generic path (div/rem/float).
            Bin {
                op: BinKind,
                ty: IrType,
                ub_signed: bool,
                dst: u32,
                a: u32,
                b: u32,
            },
            /// Unary operation.
            Un {
                op: UnKind,
                ty: IrType,
                dst: u32,
                a: u32,
            },
            /// Cast.
            Cast {
                kind: CastKind,
                dst: u32,
                a: u32,
            },
            /// Frame-slot address: `frame_hi - off`, offset pre-resolved.
            FrameAddr {
                dst: u32,
                off: u64,
            },
            /// Memory load; width and extension pre-resolved into `ext`.
            Load {
                dst: u32,
                addr: u32,
                ext: ExtKind,
            },
            /// Memory store; width (in bytes) pre-resolved.
            Store {
                addr: u32,
                src: u32,
                wb: u8,
            },
            /// Call to a user function (control transfer).
            CallFunc(Box<CallF>),
            /// Call to a runtime builtin (no control transfer).
            CallBuiltin(Box<CallB>),
            /// clang -O3's imprecise pow. `dst == NO_DST` discards the result.
            PowFast {
                dst: u32,
                a: u32,
                b: u32,
            },
            /// Seam between two basic blocks fused into one superblock:
            /// charges the fused `Jump`'s step and fires `on_edge` with the
            /// interpreter's exact locations (the jump's own `Loc` is in
            /// [`BBlock::locs`]).
            Edge {
                to_block: u32,
            },
        }

        impl Op {
            /// The flat opcode of `(op, ty)`, or `None` for an operation
            /// that stays on the generic [`Op::Bin`] path.
            fn flat(op: BinKind, ty: IrType, x: BinOp) -> Option<Op> {
                Some(match (op, ty) {
                    $(
                        (BinKind::$kind, IrType::I32) => Op::$i32(x),
                        (BinKind::$kind, IrType::I64) => Op::$i64(x),
                    )*
                    _ => return None,
                })
            }
        }
    };
}
flat_bins!(define_op! {});

/// A pre-decoded terminator. Branch targets carry both the translated
/// superblock index (`*_tb`, for dispatch) and the original basic-block id
/// (`*_orig`, for `on_edge` coverage locations).
#[derive(Debug, Clone)]
pub(crate) enum BTerm {
    Jump {
        tb: u32,
        orig: u32,
    },
    Br {
        cond: u32,
        then_tb: u32,
        then_orig: u32,
        else_tb: u32,
        else_orig: u32,
    },
    Ret {
        val: Option<u32>,
    },
    Unreachable,
}

/// One superblock: a fused run of basic blocks ending in a real terminator.
#[derive(Debug, Clone)]
pub(crate) struct BBlock {
    pub(crate) ops: Box<[Op]>,
    /// Interpreter hook location of each op, parallel to `ops`: the
    /// cursor-advanced `index + 1` convention within the op's fused basic
    /// block, or the fused jump's own location for an [`Op::Edge`]. Kept
    /// out of [`Op`] so the `NoHooks` hot loop never streams them; only
    /// fault exits and instrumented hooks index in.
    pub(crate) locs: Box<[Loc]>,
    pub(crate) term: BTerm,
    /// Interpreter-equivalent location of the terminator (the *last* fused
    /// basic block, at `inst == insts.len()`).
    pub(crate) term_loc: Loc,
}

/// One translated function. `blocks[0]` is the entry superblock.
#[derive(Debug, Clone)]
pub(crate) struct BFunc {
    pub(crate) blocks: Vec<BBlock>,
}

/// The block-compiled form of a [`Binary`]: every reachable basic block
/// pre-decoded into superblocks, cached per binary (keyed by
/// [`Binary::uid`]) inside an `ExecSession` or pre-seeded from the
/// campaign's `BinaryCache`.
#[derive(Debug, Clone)]
pub struct BlockProgram {
    pub(crate) funcs: Vec<BFunc>,
    uid: u64,
    block_count: usize,
    /// The binary's rodata and globals segments (`[start, end)`), which
    /// every memory check consults: computed here once, not per run.
    pub(crate) rodata: (u64, u64),
    pub(crate) globals: (u64, u64),
}

impl BlockProgram {
    /// Translates a binary. Pure function of the binary's contents; the
    /// result is reusable across any number of executions and sessions.
    pub fn translate(bin: &Binary) -> BlockProgram {
        let mut funcs = Vec::with_capacity(bin.program.functions.len());
        let mut block_count = 0;
        for (fi, f) in bin.program.functions.iter().enumerate() {
            let bf = translate_func(bin, fi as u32, f);
            block_count += bf.blocks.len();
            funcs.push(bf);
        }
        BlockProgram {
            funcs,
            uid: bin.uid,
            block_count,
            rodata: bin.rodata_range(),
            globals: bin.globals_range(),
        }
    }

    /// The [`Binary::uid`] this translation belongs to.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Number of superblocks across all functions (a translation-work
    /// proxy reported by the `vm.blocks_translated` telemetry counter).
    pub fn block_count(&self) -> usize {
        self.block_count
    }
}

/// Reads a register without a bounds check.
///
/// SAFETY contract: every register index stored in an [`Op`] or a
/// [`BTerm`] is `< reg_count` of its function, and the dispatcher's live
/// `regs`/`poison` slices always belong to the activation of the function
/// whose ops are executing (`push_frame` sizes them to exactly
/// `reg_count`). The first half holds because translation copies each
/// index verbatim from an IR instruction's destination or operands or from
/// its block terminator's operand, and [`validate_reg_indices`] checks
/// exactly those, through the IR's own enumerations, for every block it
/// translates.
#[inline(always)]
fn rget(regs: &[u64], i: u32) -> u64 {
    debug_assert!((i as usize) < regs.len());
    unsafe { *regs.get_unchecked(i as usize) }
}

/// Writes a register without a bounds check (same contract as [`rget`]).
#[inline(always)]
fn rset(regs: &mut [u64], i: u32, v: u64) {
    debug_assert!((i as usize) < regs.len());
    unsafe { *regs.get_unchecked_mut(i as usize) = v }
}

/// Translation-time check of the unchecked-access contract for one basic
/// block: panics (exactly where the interpreter would panic on its own
/// out-of-bounds register index) if an instruction's destination or
/// operand, or the terminator's operand, is `>= reg_count`, so the
/// dispatcher's `rget`/`rset` can never be reached with a bad index.
fn validate_reg_indices(b: &Block, reg_count: u32) {
    let ck = |v: ValueId| {
        let i = v.0;
        assert!(
            i < reg_count,
            "block translation: register v{i} out of range (reg_count {reg_count})"
        );
    };
    for inst in &b.insts {
        inst.dst().into_iter().for_each(ck);
        inst.for_each_use(ck);
    }
    b.term.for_each_use(ck);
}

fn translate_func(bin: &Binary, func: u32, f: &minc_compile::ir::IrFunction) -> BFunc {
    let nb = f.blocks.len();
    if nb == 0 {
        return BFunc { blocks: Vec::new() };
    }
    let mut reach = vec![false; nb];
    for b in f.reachable_blocks() {
        reach[b.0 as usize] = true;
    }
    // Count incoming edges among reachable blocks (Br to the same target
    // twice counts twice — such a target must stay a superblock head).
    let mut preds = vec![0u32; nb];
    for (i, b) in f.blocks.iter().enumerate() {
        if !reach[i] {
            continue;
        }
        for s in b.term.successors() {
            preds[s.0 as usize] += 1;
        }
    }
    // A block is fused into its predecessor's superblock iff its only
    // incoming edge is that predecessor's unconditional jump. The entry
    // block and self-loops are never fused.
    let mut fused = vec![false; nb];
    for (i, b) in f.blocks.iter().enumerate() {
        if !reach[i] {
            continue;
        }
        if let Terminator::Jump(t) = b.term {
            let t = t.0 as usize;
            if t != i && t != 0 && preds[t] == 1 {
                fused[t] = true;
            }
        }
    }
    // Heads (reachable, unfused blocks) get the translated indices; the
    // entry block is always head 0.
    let mut head_idx = vec![u32::MAX; nb];
    let mut heads = Vec::new();
    for i in 0..nb {
        if reach[i] && !fused[i] {
            head_idx[i] = heads.len() as u32;
            heads.push(i);
        }
    }
    let blocks = heads
        .iter()
        .map(|&h| translate_chain(bin, func, f, h, &fused, &head_idx))
        .collect();
    BFunc { blocks }
}

fn translate_chain(
    bin: &Binary,
    func: u32,
    f: &minc_compile::ir::IrFunction,
    head: usize,
    fused: &[bool],
    head_idx: &[u32],
) -> BBlock {
    let mut ops = Vec::new();
    let mut locs = Vec::new();
    let mut cur = head;
    loop {
        let b = &f.blocks[cur];
        validate_reg_indices(b, f.reg_count);
        for (j, inst) in b.insts.iter().enumerate() {
            ops.push(translate_inst(bin, func, inst));
            // The interpreter advances the frame's instruction cursor
            // before executing, so hook locations report index + 1.
            locs.push(Loc {
                func,
                block: cur as u32,
                inst: j as u32 + 1,
            });
        }
        let at_term = Loc {
            func,
            block: cur as u32,
            inst: b.insts.len() as u32,
        };
        if let Terminator::Jump(t) = b.term {
            if fused[t.0 as usize] {
                ops.push(Op::Edge { to_block: t.0 });
                locs.push(at_term);
                cur = t.0 as usize;
                continue;
            }
        }
        let term = match &b.term {
            Terminator::Jump(t) => BTerm::Jump {
                tb: head_idx[t.0 as usize],
                orig: t.0,
            },
            Terminator::Br { cond, then, els } => BTerm::Br {
                cond: cond.0,
                then_tb: head_idx[then.0 as usize],
                then_orig: then.0,
                else_tb: head_idx[els.0 as usize],
                else_orig: els.0,
            },
            Terminator::Ret(v) => BTerm::Ret {
                val: v.map(|r| r.0),
            },
            Terminator::Unreachable => BTerm::Unreachable,
        };
        return BBlock {
            ops: ops.into_boxed_slice(),
            locs: locs.into_boxed_slice(),
            term,
            term_loc: at_term,
        };
    }
}

fn translate_inst(bin: &Binary, func: u32, inst: &Inst) -> Op {
    match inst {
        Inst::Const { dst, ty, val } => Op::Const {
            dst: dst.0,
            raw: const_word(bin, *ty, *val),
            poison: matches!(val, ConstVal::Junk(_)),
        },
        Inst::Copy { dst, src, .. } => Op::Copy {
            dst: dst.0,
            src: src.0,
        },
        Inst::Bin {
            dst,
            ty,
            op,
            a,
            b,
            ub_signed,
        } => {
            let x = BinOp {
                ub_signed: *ub_signed,
                dst: dst.0,
                a: a.0,
                b: b.0,
            };
            Op::flat(*op, *ty, x).unwrap_or(Op::Bin {
                op: *op,
                ty: *ty,
                ub_signed: *ub_signed,
                dst: dst.0,
                a: a.0,
                b: b.0,
            })
        }
        Inst::Un { dst, ty, op, a, .. } => Op::Un {
            op: *op,
            ty: *ty,
            dst: dst.0,
            a: a.0,
        },
        Inst::Cast { dst, kind, a } => Op::Cast {
            kind: *kind,
            dst: dst.0,
            a: a.0,
        },
        Inst::FrameAddr { dst, slot } => Op::FrameAddr {
            dst: dst.0,
            off: bin.frames[func as usize].offset_down[slot.0 as usize],
        },
        Inst::Load {
            dst,
            ty,
            addr,
            width,
            sext,
        } => Op::Load {
            dst: dst.0,
            addr: addr.0,
            ext: ExtKind::of(*width, *ty, *sext),
        },
        Inst::Store { addr, src, width } => Op::Store {
            addr: addr.0,
            src: src.0,
            wb: width.bytes() as u8,
        },
        Inst::Call {
            dst,
            callee,
            args,
            arg_tys,
            ..
        } => match callee {
            minc_compile::ir::Callee::Func(fid) => Op::CallFunc(Box::new(CallF {
                dst: *dst,
                func: fid.0,
                args: args.iter().map(|a| a.0).collect(),
            })),
            minc_compile::ir::Callee::Builtin(b) => Op::CallBuiltin(Box::new(CallB {
                dst: dst.map(|d| d.0),
                builtin: *b,
                args: args.iter().map(|a| a.0).collect(),
                arg_tys: arg_tys.clone().into_boxed_slice(),
            })),
            minc_compile::ir::Callee::PowFast => Op::PowFast {
                dst: dst.map(|d| d.0).unwrap_or(NO_DST),
                a: args[0].0,
                b: args[1].0,
            },
        },
    }
}

impl<'s, 'b, 'h, H: Hooks> Vm<'s, 'b, 'h, H> {
    /// Runs the program through the block dispatcher. Bit-identical to
    /// [`Vm::run`] in every observable, including step accounting.
    pub(crate) fn run_block(&mut self, prog: &BlockProgram) -> ExitStatus {
        if let Err(e) = self.push_frame(self.bin.entry().0, &[], &[], None) {
            return self.end_status(e);
        }
        let e = self.block_loop(prog);
        self.end_status(e)
    }

    /// Dispatches to the poison-tracking or poison-free instantiation of
    /// the block loop. Monomorphizing on `TRACK` strips every poison
    /// branch and array access out of the common uninstrumented path.
    fn block_loop(&mut self, prog: &BlockProgram) -> End {
        if self.track_poison {
            self.block_loop_t::<true>(prog)
        } else {
            self.block_loop_t::<false>(prog)
        }
    }

    fn block_loop_t<const TRACK: bool>(&mut self, prog: &BlockProgram) -> End {
        let limit = self.config.step_limit;
        let track = TRACK;
        // Session-pooled call-argument scratch (the interpreter allocates
        // two fresh Vecs per call), handed back when the run ends.
        let mut vals = std::mem::take(&mut self.s.call_vals);
        let mut pois = std::mem::take(&mut self.s.call_pois);
        // Hot state of the current activation, held in locals and spilled
        // only at call/return boundaries and on exit.
        let (mut func, mut frame_hi, mut regs, mut poison) = {
            let a = self.s.frames.top_mut().expect("entry frame");
            (
                a.func,
                a.frame_hi,
                std::mem::take(&mut a.regs),
                std::mem::take(&mut a.poison),
            )
        };
        let mut tb = 0u32; // translated superblock index
        let mut start = 0usize; // op index to resume at (after a call)

        let end: End = 'outer: loop {
            let bb = &prog.funcs[func as usize].blocks[tb as usize];
            let ops = &bb.ops;
            // Side-array lookup for hook/fault locations. Inert hook sets
            // observe no locations at all (faults and traps carry none), so
            // the lookup compiles to a constant and stays out of the hot
            // loop; instrumented runs pay one predictable indexed load.
            let loc_at = |i: usize| {
                let zero = Loc {
                    func: 0,
                    block: 0,
                    inst: 0,
                };
                if H::INERT {
                    zero
                } else {
                    bb.locs.get(i).copied().unwrap_or(zero)
                }
            };
            let n = ops.len();
            let start0 = start;
            start = 0;
            let mut k = start0;
            // Step accounting: the whole superblock (remaining ops + the
            // terminator) costs `total` steps. When that provably fits
            // under the limit, skip per-op checks and reconcile at the
            // boundary (or on early exit); otherwise mirror the
            // interpreter's per-op `steps += 1; check` exactly.
            let total = (n - start0) as u64 + 1;
            let entry_steps = self.steps;
            let fast = entry_steps.saturating_add(total) <= limit;

            // On any mid-block exit, `steps` must equal what the
            // interpreter would have charged: every op up to and including
            // the current one.
            macro_rules! fail {
                ($e:expr) => {{
                    if fast {
                        self.steps = entry_steps + (k - start0) as u64;
                    }
                    break 'outer $e;
                }};
            }

            // The body of every flat binary-opcode arm: operand fetch, the
            // (instrumented-only) hook check, eval, writeback. `$op` and
            // `$ty` are constants, so `BinKind::eval` folds to the one
            // operation and the hook gets the pair as it stands. No listed
            // op traps; a `None` would trap as the generic arm does.
            macro_rules! flat_arm {
                ($x:expr, $op:expr, $ty:expr) => {{
                    let x = *$x;
                    let (va, vb) = (rget(&regs, x.a), rget(&regs, x.b));
                    if !H::INERT {
                        if let Some(fault) =
                            self.hooks
                                .check_bin($op, $ty, va, vb, x.ub_signed, loc_at(k - 1))
                        {
                            fail!(End::Fault(fault));
                        }
                    }
                    match $op.eval($ty, va, vb) {
                        Some(r) => rset(&mut regs, x.dst, r),
                        None => fail!(End::Trap(Trap::Sigfpe)),
                    }
                    if track {
                        poison[x.dst as usize] = poison[x.a as usize] || poison[x.b as usize];
                    }
                }};
            }

            // The op loop is expanded twice below — once with the per-op
            // limit check compiled out (`$careful = false`, the common case
            // where the whole block provably fits under the limit) and once
            // with the interpreter's exact per-op accounting — each through
            // `flat_bins!`, which supplies the flat arms.
            macro_rules! op_loop {
                ({ $careful:literal } $($kind:ident: $i32:ident, $i64:ident;)*) => {
                    while k < n {
                        if $careful {
                            self.steps += 1;
                            if self.steps > limit {
                                break 'outer End::Timeout;
                            }
                        }
                        // SAFETY: the loop guard is `k < n` with `n == ops.len()`
                        // and `k` only grows, so the index is always in bounds.
                        let op = unsafe { ops.get_unchecked(k) };
                        k += 1;
                        match op {
                            Op::Const {
                                dst,
                                raw,
                                poison: p,
                            } => {
                                rset(&mut regs, *dst, *raw);
                                if track {
                                    poison[*dst as usize] = *p;
                                }
                            }
                            Op::Copy { dst, src } => {
                                let v = rget(&regs, *src);
                                rset(&mut regs, *dst, v);
                                if track {
                                    poison[*dst as usize] = poison[*src as usize];
                                }
                            }
                            $(
                                Op::$i32(x) => flat_arm!(x, BinKind::$kind, IrType::I32),
                                Op::$i64(x) => flat_arm!(x, BinKind::$kind, IrType::I64),
                            )*
                            Op::Bin {
                                op,
                                ty,
                                ub_signed,
                                dst,
                                a,
                                b,
                            } => {
                                let (va, vb) = (rget(&regs, *a), rget(&regs, *b));
                                if !H::INERT {
                                    if let Some(fault) = self.hooks.check_bin(
                                        *op,
                                        *ty,
                                        va,
                                        vb,
                                        *ub_signed,
                                        loc_at(k - 1),
                                    ) {
                                        fail!(End::Fault(fault));
                                    }
                                }
                                let mut pa = false;
                                if track {
                                    pa = poison[*a as usize] || poison[*b as usize];
                                    if op.can_trap() && poison[*b as usize] {
                                        if let Some(fault) = self
                                            .hooks
                                            .on_poison_use(PoisonUse::Divisor, loc_at(k - 1))
                                        {
                                            fail!(End::Fault(fault));
                                        }
                                    }
                                }
                                match op.eval(*ty, va, vb) {
                                    Some(r) => {
                                        rset(&mut regs, *dst, r);
                                        if track {
                                            poison[*dst as usize] = pa;
                                        }
                                    }
                                    None => fail!(End::Trap(Trap::Sigfpe)),
                                }
                            }
                            Op::Un { op, ty, dst, a } => {
                                let v = op.eval(*ty, rget(&regs, *a));
                                rset(&mut regs, *dst, v);
                                if track {
                                    poison[*dst as usize] = poison[*a as usize];
                                }
                            }
                            Op::Cast { kind, dst, a } => {
                                let v = kind.eval(rget(&regs, *a));
                                rset(&mut regs, *dst, v);
                                if track {
                                    poison[*dst as usize] = poison[*a as usize];
                                }
                            }
                            Op::FrameAddr { dst, off } => {
                                rset(&mut regs, *dst, frame_hi - off);
                                if track {
                                    poison[*dst as usize] = false;
                                }
                            }
                            Op::Load { dst, addr, ext } => {
                                let va = rget(&regs, *addr);
                                let wb = ext.bytes();
                                if track && poison[*addr as usize] {
                                    if let Some(fault) =
                                        self.hooks.on_poison_use(PoisonUse::Address, loc_at(k - 1))
                                    {
                                        fail!(End::Fault(fault));
                                    }
                                }
                                if let Err(e) = self.check_mem(va, wb, false, loc_at(k - 1)) {
                                    fail!(e);
                                }
                                let raw = self.s.mem.read(va, wb);
                                rset(&mut regs, *dst, ext.extend(raw));
                                if track {
                                    poison[*dst as usize] = self.hooks.load_poison(va, wb);
                                }
                            }
                            Op::Store { addr, src, wb } => {
                                let va = rget(&regs, *addr);
                                let wb = *wb as u64;
                                if track && poison[*addr as usize] {
                                    if let Some(fault) =
                                        self.hooks.on_poison_use(PoisonUse::Address, loc_at(k - 1))
                                    {
                                        fail!(End::Fault(fault));
                                    }
                                }
                                if let Err(e) = self.check_mem(va, wb, true, loc_at(k - 1)) {
                                    fail!(e);
                                }
                                self.s.mem.write(va, rget(&regs, *src), wb);
                                if track {
                                    self.hooks.store_poison(va, wb, poison[*src as usize]);
                                }
                            }
                            Op::CallBuiltin(cb) => {
                                vals.clear();
                                for &a in cb.args.iter() {
                                    vals.push(rget(&regs, a));
                                }
                                match self.builtin(cb.builtin, &vals, &cb.arg_tys, loc_at(k - 1)) {
                                    Ok(r) => {
                                        if let Some(d) = &cb.dst {
                                            regs[*d as usize] = r.unwrap_or(0);
                                            if track {
                                                poison[*d as usize] = false;
                                            }
                                        }
                                    }
                                    Err(e) => fail!(e),
                                }
                            }
                            Op::PowFast { dst, a, b } => {
                                let r = pow_fast(rget(&regs, *a), rget(&regs, *b));
                                if *dst != NO_DST {
                                    rset(&mut regs, *dst, r);
                                    if track {
                                        poison[*dst as usize] = false;
                                    }
                                }
                            }
                            Op::Edge { to_block } => {
                                if !H::INERT {
                                    self.hooks.on_edge(
                                        loc_at(k - 1),
                                        Loc {
                                            func,
                                            block: *to_block,
                                            inst: 0,
                                        },
                                    );
                                }
                            }
                            Op::CallFunc(cf) => {
                                vals.clear();
                                pois.clear();
                                for &a in cf.args.iter() {
                                    vals.push(rget(&regs, a));
                                    if track {
                                        pois.push(poison[a as usize]);
                                    }
                                }
                                if fast {
                                    self.steps = entry_steps + (k - start0) as u64;
                                }
                                // Spill the caller's hot state and record the
                                // resume point (translated block + next op index).
                                {
                                    let a = self.s.frames.top_mut().expect("caller frame");
                                    std::mem::swap(&mut a.regs, &mut regs);
                                    std::mem::swap(&mut a.poison, &mut poison);
                                    a.block = tb;
                                    a.inst = k;
                                }
                                if let Err(e) = self.push_frame(cf.func, &vals, &pois, cf.dst) {
                                    break 'outer e;
                                }
                                let a = self.s.frames.top_mut().expect("callee frame");
                                func = a.func;
                                frame_hi = a.frame_hi;
                                regs = std::mem::take(&mut a.regs);
                                poison = std::mem::take(&mut a.poison);
                                tb = 0;
                                continue 'outer;
                            }
                        }
                    }
                };
            }
            if fast {
                flat_bins!(op_loop! { false });
            } else {
                flat_bins!(op_loop! { true });
            }
            // The terminator's step.
            if fast {
                self.steps = entry_steps + total;
            } else {
                self.steps += 1;
                if self.steps > limit {
                    break 'outer End::Timeout;
                }
            }
            match &bb.term {
                BTerm::Jump { tb: t, orig } => {
                    if !H::INERT {
                        self.hooks.on_edge(
                            bb.term_loc,
                            Loc {
                                func,
                                block: *orig,
                                inst: 0,
                            },
                        );
                    }
                    tb = *t;
                }
                BTerm::Br {
                    cond,
                    then_tb,
                    then_orig,
                    else_tb,
                    else_orig,
                } => {
                    if track && poison[*cond as usize] {
                        if let Some(fault) =
                            self.hooks.on_poison_use(PoisonUse::Branch, bb.term_loc)
                        {
                            break 'outer End::Fault(fault);
                        }
                    }
                    let (t, orig) = if rget(&regs, *cond) != 0 {
                        (*then_tb, *then_orig)
                    } else {
                        (*else_tb, *else_orig)
                    };
                    if !H::INERT {
                        self.hooks.on_edge(
                            bb.term_loc,
                            Loc {
                                func,
                                block: orig,
                                inst: 0,
                            },
                        );
                    }
                    tb = t;
                }
                BTerm::Ret { val } => {
                    let (v, p) = match val {
                        Some(r) => (Some(rget(&regs, *r)), track && poison[*r as usize]),
                        None => (None, false),
                    };
                    // Hand the register file back to the popping frame's
                    // slot so the slot keeps its capacity.
                    {
                        let a = self.s.frames.top_mut().expect("returning frame");
                        std::mem::swap(&mut a.regs, &mut regs);
                        std::mem::swap(&mut a.poison, &mut poison);
                    }
                    if let Err(e) = self.pop_frame(v, p) {
                        break 'outer e;
                    }
                    let a = self.s.frames.top_mut().expect("caller frame");
                    func = a.func;
                    frame_hi = a.frame_hi;
                    tb = a.block;
                    start = a.inst;
                    regs = std::mem::take(&mut a.regs);
                    poison = std::mem::take(&mut a.poison);
                }
                BTerm::Unreachable => break 'outer End::Trap(Trap::IllegalInstruction),
            }
        };
        // If we still hold the top activation's registers, give them back
        // (keeps the slot's capacity; observable state is unchanged — frame
        // entry clears and resizes a slot's register file).
        if let Some(a) = self.s.frames.top_mut() {
            if a.regs.is_empty() {
                std::mem::swap(&mut a.regs, &mut regs);
                std::mem::swap(&mut a.poison, &mut poison);
            }
        }
        self.s.call_vals = vals;
        self.s.call_pois = pois;
        end
    }
}

#[cfg(test)]
mod tests {
    use super::{BlockProgram, Op};
    use minc_compile::ir::{Block, ValueId};
    use minc_compile::{compile_source, Binary, CompilerImpl};

    /// Writes a register into a block, or returns false if the block has
    /// no place for it.
    type Poke = fn(&mut Block, ValueId) -> bool;

    /// Relinks `bin` with register `reg_count` (one past the last) written
    /// by `poke` into the first reachable block of `main` it accepts,
    /// translates that, and returns the panic message.
    fn translation_panic(bin: &Binary, poke: Poke) -> String {
        let mut program = bin.program.clone();
        let f = &mut program.functions[program.main.0 as usize];
        let bad = ValueId(f.reg_count);
        let reach = f.reachable_blocks();
        let poked = reach
            .into_iter()
            .any(|b| poke(&mut f.blocks[b.0 as usize], bad));
        assert!(poked, "no reachable place to write v{}", bad.0);
        let linked = Binary::link(program, bin.personality.clone());
        let err = std::panic::catch_unwind(|| BlockProgram::translate(&linked))
            .expect_err("translation accepted an out-of-range register");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn an_out_of_range_register_stops_translation() {
        // The dispatcher reads registers unchecked. Every index it reads is
        // an instruction's destination or operand or a terminator's
        // operand, so a bad index in any of the three must stop
        // translation with the validation message.
        let bin = compile_source(
            "int main() { char b[4]; long n = read_input(b, 4L); return (int)n * 3; }",
            CompilerImpl::parse("gcc-O0").unwrap(),
        )
        .unwrap();
        let reg_count = bin.program.functions[bin.program.main.0 as usize].reg_count;
        let want = format!(
            "block translation: register v{reg_count} out of range (reg_count {reg_count})"
        );
        let places: [(&str, Poke); 3] = [
            ("an instruction's destination", |b, bad| {
                let dst = b.insts.iter_mut().find_map(|i| i.dst_mut());
                dst.map(|d| *d = bad).is_some()
            }),
            ("an instruction's operands", |b, bad| {
                b.insts.iter_mut().any(|i| {
                    let mut hit = false;
                    i.for_each_use_mut(|v| {
                        *v = bad;
                        hit = true;
                    });
                    hit
                })
            }),
            ("a terminator's operand", |b, bad| {
                let mut hit = false;
                b.term.for_each_use_mut(|v| {
                    *v = bad;
                    hit = true;
                });
                hit
            }),
        ];
        for (place, poke) in places {
            assert_eq!(translation_panic(&bin, poke), want, "{place}");
        }
    }

    #[test]
    fn op_stays_cache_dense() {
        // Dense pre-decoded ops are a load-bearing part of the dispatch
        // speedup; a fatter variant silently regresses it. 24 bytes =
        // tag + the flat BinOp payload (profiled faster than the 16-byte
        // packed encoding, which needed a second dispatch on (op, ty)).
        assert!(
            std::mem::size_of::<Op>() <= 24,
            "Op grew to {} bytes",
            std::mem::size_of::<Op>()
        );
    }
}
