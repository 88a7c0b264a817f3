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
//! per function, a vector of *superblocks* whose operations ([`Op`]) carry
//! fully pre-resolved operands — constants folded through the personality's
//! junk words, frame-slot offsets flattened, hook locations pre-computed —
//! and whose unconditional-jump chains are fused so straight-line runs of
//! basic blocks dispatch without touching the frame state.
//!
//! The dispatcher ([`Vm::run_block`]) keeps the hot register file of the
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

use crate::exec::{const_raw, End, Vm};
use crate::hooks::{Hooks, Loc, PoisonUse};
use crate::result::{ExitStatus, Trap};
use minc::Builtin;
use minc_compile::ir::{
    BinKind, CastKind, ConstVal, Inst, IrType, MemWidth, Terminator, UnKind, ValueId,
};
use minc_compile::Binary;

// Operand views shared by the flat binary-opcode arms; each reproduces
// `BinKind::eval`'s canonicalization exactly.
#[inline(always)]
fn s32(v: u64) -> i32 {
    v as u32 as i32
}
#[inline(always)]
fn s64(v: u64) -> i64 {
    v as i64
}
#[inline(always)]
fn w32(v: i32) -> u64 {
    v as i64 as u64
}

/// Operand payload of a flat pre-resolved binary opcode (the 38
/// `Op::Add32`..`Op::GeU64` variants): the `(op, ty)` pair is encoded in
/// the variant itself so dispatch is a single jump, and each arm inlines
/// the exact formula of the corresponding `BinKind::eval` case (including the
/// I32 narrow-wrap and x86 shift-masking quirks). Only non-trapping
/// integer operations get a flat opcode; division, remainder, and float
/// ops keep the generic [`Op::Bin`] path. `ub_signed` rides along for
/// hook callbacks only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BinOp {
    pub(crate) ub_signed: bool,
    pub(crate) dst: u32,
    pub(crate) a: u32,
    pub(crate) b: u32,
}

/// Maps `(op, ty)` to its flat opcode, or `None` for operations that stay
/// on the generic (trapping / float) path.
fn fast_bin(op: BinKind, ty: IrType, x: BinOp) -> Option<Op> {
    use BinKind::*;
    let narrow = ty == IrType::I32;
    Some(match (op, narrow) {
        (Add, true) => Op::Add32(x),
        (Add, false) => Op::Add64(x),
        (Sub, true) => Op::Sub32(x),
        (Sub, false) => Op::Sub64(x),
        (Mul, true) => Op::Mul32(x),
        (Mul, false) => Op::Mul64(x),
        (Shl, true) => Op::Shl32(x),
        (Shl, false) => Op::Shl64(x),
        (ShrS, true) => Op::ShrS32(x),
        (ShrS, false) => Op::ShrS64(x),
        (ShrU, true) => Op::ShrU32(x),
        (ShrU, false) => Op::ShrU64(x),
        (And, true) => Op::And32(x),
        (And, false) => Op::And64(x),
        (Or, true) => Op::Or32(x),
        (Or, false) => Op::Or64(x),
        (Xor, true) => Op::Xor32(x),
        (Xor, false) => Op::Xor64(x),
        (Eq, true) => Op::Eq32(x),
        (Eq, false) => Op::Eq64(x),
        (Ne, true) => Op::Ne32(x),
        (Ne, false) => Op::Ne64(x),
        (LtS, true) => Op::LtS32(x),
        (LtS, false) => Op::LtS64(x),
        (LeS, true) => Op::LeS32(x),
        (LeS, false) => Op::LeS64(x),
        (GtS, true) => Op::GtS32(x),
        (GtS, false) => Op::GtS64(x),
        (GeS, true) => Op::GeS32(x),
        (GeS, false) => Op::GeS64(x),
        (LtU, true) => Op::LtU32(x),
        (LtU, false) => Op::LtU64(x),
        (LeU, true) => Op::LeU32(x),
        (LeU, false) => Op::LeU64(x),
        (GtU, true) => Op::GtU32(x),
        (GtU, false) => Op::GtU64(x),
        (GeU, true) => Op::GeU32(x),
        (GeU, false) => Op::GeU64(x),
        _ => return None,
    })
}

/// Recovers the original `(op, ty)` pair of a flat binary opcode for hook
/// callbacks (instrumented paths only; `NoHooks` never calls this).
fn bin_meta(op: &Op) -> (BinKind, IrType) {
    use BinKind::*;
    let (k, narrow) = match op {
        Op::Add32(_) => (Add, true),
        Op::Add64(_) => (Add, false),
        Op::Sub32(_) => (Sub, true),
        Op::Sub64(_) => (Sub, false),
        Op::Mul32(_) => (Mul, true),
        Op::Mul64(_) => (Mul, false),
        Op::Shl32(_) => (Shl, true),
        Op::Shl64(_) => (Shl, false),
        Op::ShrS32(_) => (ShrS, true),
        Op::ShrS64(_) => (ShrS, false),
        Op::ShrU32(_) => (ShrU, true),
        Op::ShrU64(_) => (ShrU, false),
        Op::And32(_) => (And, true),
        Op::And64(_) => (And, false),
        Op::Or32(_) => (Or, true),
        Op::Or64(_) => (Or, false),
        Op::Xor32(_) => (Xor, true),
        Op::Xor64(_) => (Xor, false),
        Op::Eq32(_) => (Eq, true),
        Op::Eq64(_) => (Eq, false),
        Op::Ne32(_) => (Ne, true),
        Op::Ne64(_) => (Ne, false),
        Op::LtS32(_) => (LtS, true),
        Op::LtS64(_) => (LtS, false),
        Op::LeS32(_) => (LeS, true),
        Op::LeS64(_) => (LeS, false),
        Op::GtS32(_) => (GtS, true),
        Op::GtS64(_) => (GtS, false),
        Op::GeS32(_) => (GeS, true),
        Op::GeS64(_) => (GeS, false),
        Op::LtU32(_) => (LtU, true),
        Op::LtU64(_) => (LtU, false),
        Op::LeU32(_) => (LeU, true),
        Op::LeU64(_) => (LeU, false),
        Op::GtU32(_) => (GtU, true),
        Op::GtU64(_) => (GtU, false),
        Op::GeU32(_) => (GeU, true),
        Op::GeU64(_) => (GeU, false),
        _ => unreachable!("bin_meta on a non-binary op"),
    };
    (k, if narrow { IrType::I32 } else { IrType::I64 })
}

/// Pre-resolved load extension: the `(width, ty, sext)` triple of
/// `extend_load`, flattened at translation time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ExtKind {
    /// 1 byte, sign-extended.
    S8,
    /// 1 byte, zero-extended.
    U8,
    /// 4 bytes into an i32 register (sign-extended canonical form).
    S32,
    /// 4 bytes, zero-extended (raw i64 destination).
    U32,
    /// Full 8-byte word.
    W8,
}

impl ExtKind {
    fn of(width: MemWidth, ty: IrType, sext: bool) -> ExtKind {
        match (width, ty, sext) {
            (MemWidth::W1, _, true) => ExtKind::S8,
            (MemWidth::W1, _, false) => ExtKind::U8,
            (MemWidth::W4, IrType::I32, _) => ExtKind::S32,
            (MemWidth::W4, _, _) => ExtKind::U32,
            (MemWidth::W8, _, _) => ExtKind::W8,
        }
    }

    /// Mirrors `extend_load` for the pre-resolved kind.
    #[inline(always)]
    fn extend(self, raw: u64) -> u64 {
        match self {
            ExtKind::S8 => raw as u8 as i8 as i64 as u64,
            ExtKind::U8 => raw as u8 as u64,
            ExtKind::S32 => raw as u32 as i32 as i64 as u64,
            ExtKind::U32 => raw as u32 as u64,
            ExtKind::W8 => raw,
        }
    }

    /// Access width in bytes (the `MemWidth` this kind was built from).
    #[inline(always)]
    fn bytes(self) -> u64 {
        match self {
            ExtKind::S8 | ExtKind::U8 => 1,
            ExtKind::S32 | ExtKind::U32 => 4,
            ExtKind::W8 => 8,
        }
    }
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

/// A pre-decoded operation. Operands are raw register indices; layout
/// lookups are resolved at translation time. `Op` is deliberately kept at
/// 24 bytes — the flat per-(op, width) arithmetic variants cost 8 bytes
/// over the old packed encoding but buy a single-jump dispatch that
/// measured faster than the denser double-dispatch layout — and
/// everything the hot `NoHooks` path never touches lives elsewhere: hook
/// `Loc`s in the superblock's parallel [`BBlock::locs`] array, call
/// payloads behind a `Box`, and a fast bin op's `(op, ty)` pair derived
/// from its [`FastBin`] opcode on demand.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Constant with its raw register value pre-resolved (including the
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
    /// Flat pre-resolved binary opcodes (the hot path); see [`BinOp`].
    #[allow(missing_docs)] // mechanical (op, ty) product; semantics in BinKind::eval
    Add32(BinOp),
    Add64(BinOp),
    Sub32(BinOp),
    Sub64(BinOp),
    Mul32(BinOp),
    Mul64(BinOp),
    Shl32(BinOp),
    Shl64(BinOp),
    ShrS32(BinOp),
    ShrS64(BinOp),
    ShrU32(BinOp),
    ShrU64(BinOp),
    And32(BinOp),
    And64(BinOp),
    Or32(BinOp),
    Or64(BinOp),
    Xor32(BinOp),
    Xor64(BinOp),
    Eq32(BinOp),
    Eq64(BinOp),
    Ne32(BinOp),
    Ne64(BinOp),
    LtS32(BinOp),
    LtS64(BinOp),
    LeS32(BinOp),
    LeS64(BinOp),
    GtS32(BinOp),
    GtS64(BinOp),
    GeS32(BinOp),
    GeS64(BinOp),
    LtU32(BinOp),
    LtU64(BinOp),
    LeU32(BinOp),
    LeU64(BinOp),
    GtU32(BinOp),
    GtU64(BinOp),
    GeU32(BinOp),
    GeU64(BinOp),
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
    /// Seam between two basic blocks fused into one superblock: charges
    /// the fused `Jump`'s step and fires `on_edge` with the interpreter's
    /// exact locations (the jump's own `Loc` is in [`BBlock::locs`]).
    Edge {
        to_block: u32,
    },
}

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
/// SAFETY contract (upheld by construction, revalidated in
/// [`validate_reg_indices`] at translation time): every register index
/// stored in an [`Op`] is `< reg_count` of its function, and the
/// dispatcher's live `regs`/`poison` slices always belong to the activation
/// of the function whose ops are executing (`push_frame` sizes them to
/// exactly `reg_count`).
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

/// Translation-time revalidation of the unchecked-access contract: panics
/// (exactly where the interpreter would panic on its own out-of-bounds
/// register index) if any op references a register `>= reg_count`, so the
/// dispatcher's `rget`/`rset` can never be reached with a bad index.
fn validate_reg_indices(bf: &BFunc, reg_count: u32) {
    let ck = |i: u32| {
        assert!(
            i < reg_count,
            "block translation: register v{i} out of range (reg_count {reg_count})"
        );
    };
    for bb in &bf.blocks {
        for op in bb.ops.iter() {
            match op {
                Op::Const { dst, .. } => ck(*dst),
                Op::Copy { dst, src } => {
                    ck(*dst);
                    ck(*src);
                }
                Op::Bin { dst, a, b, .. } => {
                    ck(*dst);
                    ck(*a);
                    ck(*b);
                }
                Op::Add32(x)
                | Op::Add64(x)
                | Op::Sub32(x)
                | Op::Sub64(x)
                | Op::Mul32(x)
                | Op::Mul64(x)
                | Op::Shl32(x)
                | Op::Shl64(x)
                | Op::ShrS32(x)
                | Op::ShrS64(x)
                | Op::ShrU32(x)
                | Op::ShrU64(x)
                | Op::And32(x)
                | Op::And64(x)
                | Op::Or32(x)
                | Op::Or64(x)
                | Op::Xor32(x)
                | Op::Xor64(x)
                | Op::Eq32(x)
                | Op::Eq64(x)
                | Op::Ne32(x)
                | Op::Ne64(x)
                | Op::LtS32(x)
                | Op::LtS64(x)
                | Op::LeS32(x)
                | Op::LeS64(x)
                | Op::GtS32(x)
                | Op::GtS64(x)
                | Op::GeS32(x)
                | Op::GeS64(x)
                | Op::LtU32(x)
                | Op::LtU64(x)
                | Op::LeU32(x)
                | Op::LeU64(x)
                | Op::GtU32(x)
                | Op::GtU64(x)
                | Op::GeU32(x)
                | Op::GeU64(x) => {
                    ck(x.dst);
                    ck(x.a);
                    ck(x.b);
                }
                Op::Un { dst, a, .. } | Op::Cast { dst, a, .. } => {
                    ck(*dst);
                    ck(*a);
                }
                Op::FrameAddr { dst, .. } => ck(*dst),
                Op::Load { dst, addr, .. } => {
                    ck(*dst);
                    ck(*addr);
                }
                Op::Store { addr, src, .. } => {
                    ck(*addr);
                    ck(*src);
                }
                Op::CallFunc(cf) => {
                    cf.args.iter().for_each(|&a| ck(a));
                    if let Some(d) = cf.dst {
                        ck(d.0);
                    }
                }
                Op::CallBuiltin(cb) => {
                    cb.args.iter().for_each(|&a| ck(a));
                    if let Some(d) = cb.dst {
                        ck(d);
                    }
                }
                Op::PowFast { dst, a, b } => {
                    ck(*a);
                    ck(*b);
                    if *dst != NO_DST {
                        ck(*dst);
                    }
                }
                Op::Edge { .. } => {}
            }
        }
        match &bb.term {
            BTerm::Br { cond, .. } => ck(*cond),
            BTerm::Ret { val: Some(r) } => ck(*r),
            _ => {}
        }
    }
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
    let bf = BFunc { blocks };
    validate_reg_indices(&bf, f.reg_count);
    bf
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
        Inst::Const { dst, ty, val } => {
            let mut raw = const_raw(bin, *val);
            if *ty == IrType::I32 {
                raw = raw as u32 as i32 as i64 as u64;
            }
            Op::Const {
                dst: dst.0,
                raw,
                poison: matches!(val, ConstVal::Junk(_)),
            }
        }
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
            fast_bin(*op, *ty, x).unwrap_or(Op::Bin {
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
            let a = self.s.frames.last_mut().expect("entry frame");
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

            // Shared body of the 38 flat binary-opcode arms: operand
            // fetch, the (instrumented-only) hook check, eval, writeback.
            macro_rules! bin_arm {
                ($op:expr, $x:expr, $eval:expr) => {{
                    let x = *$x;
                    let (va, vb) = (rget(&regs, x.a), rget(&regs, x.b));
                    if !H::INERT {
                        let (bop, bty) = bin_meta($op);
                        if let Some(fault) =
                            self.hooks
                                .check_bin(bop, bty, va, vb, x.ub_signed, loc_at(k - 1))
                        {
                            fail!(End::Fault(fault));
                        }
                    }
                    let eval = $eval;
                    rset(&mut regs, x.dst, eval(va, vb));
                    if track {
                        poison[x.dst as usize] = poison[x.a as usize] || poison[x.b as usize];
                    }
                }};
            }

            // The op loop is expanded twice below — once with the per-op
            // limit check compiled out (`$careful = false`, the common case
            // where the whole block provably fits under the limit) and once
            // with the interpreter's exact per-op accounting.
            macro_rules! op_loop {
                ($careful:literal) => {
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
                            Op::Add32(x) => bin_arm!(op, x, |va: u64, vb: u64| w32(
                                s32(va).wrapping_add(s32(vb))
                            )),
                            Op::Add64(x) => bin_arm!(op, x, |va: u64, vb: u64| va.wrapping_add(vb)),
                            Op::Sub32(x) => bin_arm!(op, x, |va: u64, vb: u64| w32(
                                s32(va).wrapping_sub(s32(vb))
                            )),
                            Op::Sub64(x) => bin_arm!(op, x, |va: u64, vb: u64| va.wrapping_sub(vb)),
                            Op::Mul32(x) => bin_arm!(op, x, |va: u64, vb: u64| w32(
                                s32(va).wrapping_mul(s32(vb))
                            )),
                            Op::Mul64(x) => bin_arm!(op, x, |va: u64, vb: u64| va.wrapping_mul(vb)),
                            Op::Shl32(x) => bin_arm!(op, x, |va: u64, vb: u64| w32(((va as u32)
                                << ((vb as u32) & 31))
                                as i32)),
                            Op::Shl64(x) => {
                                bin_arm!(op, x, |va: u64, vb: u64| va << ((vb as u32) & 63))
                            }
                            Op::ShrS32(x) => bin_arm!(op, x, |va: u64, vb: u64| w32(
                                s32(va) >> ((vb as u32) & 31)
                            )),
                            Op::ShrS64(x) => bin_arm!(op, x, |va: u64, vb: u64| (s64(va)
                                >> ((vb as u32) & 63))
                                as u64),
                            Op::ShrU32(x) => bin_arm!(op, x, |va: u64, vb: u64| w32(((va as u32)
                                >> ((vb as u32) & 31))
                                as i32)),
                            Op::ShrU64(x) => {
                                bin_arm!(op, x, |va: u64, vb: u64| va >> ((vb as u32) & 63))
                            }
                            Op::And32(x) => {
                                bin_arm!(op, x, |va: u64, vb: u64| w32(s32(va) & s32(vb)))
                            }
                            Op::And64(x) => bin_arm!(op, x, |va: u64, vb: u64| va & vb),
                            Op::Or32(x) => {
                                bin_arm!(op, x, |va: u64, vb: u64| w32(s32(va) | s32(vb)))
                            }
                            Op::Or64(x) => bin_arm!(op, x, |va: u64, vb: u64| va | vb),
                            Op::Xor32(x) => {
                                bin_arm!(op, x, |va: u64, vb: u64| w32(s32(va) ^ s32(vb)))
                            }
                            Op::Xor64(x) => bin_arm!(op, x, |va: u64, vb: u64| va ^ vb),
                            Op::Eq32(x) => {
                                bin_arm!(op, x, |va: u64, vb: u64| (s32(va) == s32(vb)) as u64)
                            }
                            Op::Eq64(x) => bin_arm!(op, x, |va: u64, vb: u64| (va == vb) as u64),
                            Op::Ne32(x) => {
                                bin_arm!(op, x, |va: u64, vb: u64| (s32(va) != s32(vb)) as u64)
                            }
                            Op::Ne64(x) => bin_arm!(op, x, |va: u64, vb: u64| (va != vb) as u64),
                            Op::LtS32(x) => {
                                bin_arm!(op, x, |va: u64, vb: u64| (s32(va) < s32(vb)) as u64)
                            }
                            Op::LtS64(x) => {
                                bin_arm!(op, x, |va: u64, vb: u64| (s64(va) < s64(vb)) as u64)
                            }
                            Op::LeS32(x) => {
                                bin_arm!(op, x, |va: u64, vb: u64| (s32(va) <= s32(vb)) as u64)
                            }
                            Op::LeS64(x) => {
                                bin_arm!(op, x, |va: u64, vb: u64| (s64(va) <= s64(vb)) as u64)
                            }
                            Op::GtS32(x) => {
                                bin_arm!(op, x, |va: u64, vb: u64| (s32(va) > s32(vb)) as u64)
                            }
                            Op::GtS64(x) => {
                                bin_arm!(op, x, |va: u64, vb: u64| (s64(va) > s64(vb)) as u64)
                            }
                            Op::GeS32(x) => {
                                bin_arm!(op, x, |va: u64, vb: u64| (s32(va) >= s32(vb)) as u64)
                            }
                            Op::GeS64(x) => {
                                bin_arm!(op, x, |va: u64, vb: u64| (s64(va) >= s64(vb)) as u64)
                            }
                            Op::LtU32(x) => bin_arm!(op, x, |va: u64, vb: u64| ((va as u32)
                                < (vb as u32))
                                as u64),
                            Op::LtU64(x) => bin_arm!(op, x, |va: u64, vb: u64| (va < vb) as u64),
                            Op::LeU32(x) => bin_arm!(op, x, |va: u64, vb: u64| ((va as u32)
                                <= (vb as u32))
                                as u64),
                            Op::LeU64(x) => bin_arm!(op, x, |va: u64, vb: u64| (va <= vb) as u64),
                            Op::GtU32(x) => bin_arm!(op, x, |va: u64, vb: u64| ((va as u32)
                                > (vb as u32))
                                as u64),
                            Op::GtU64(x) => bin_arm!(op, x, |va: u64, vb: u64| (va > vb) as u64),
                            Op::GeU32(x) => bin_arm!(op, x, |va: u64, vb: u64| ((va as u32)
                                >= (vb as u32))
                                as u64),
                            Op::GeU64(x) => bin_arm!(op, x, |va: u64, vb: u64| (va >= vb) as u64),
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
                                let x = f64::from_bits(rget(&regs, *a));
                                let y = f64::from_bits(rget(&regs, *b));
                                let r = ((y as f32) * (x as f32).log2()).exp2() as f64;
                                if *dst != NO_DST {
                                    rset(&mut regs, *dst, r.to_bits());
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
                                    let a = self.s.frames.last_mut().expect("caller frame");
                                    std::mem::swap(&mut a.regs, &mut regs);
                                    std::mem::swap(&mut a.poison, &mut poison);
                                    a.block = tb;
                                    a.inst = k;
                                }
                                if let Err(e) = self.push_frame(cf.func, &vals, &pois, cf.dst) {
                                    break 'outer e;
                                }
                                let a = self.s.frames.last_mut().expect("callee frame");
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
                op_loop!(false);
            } else {
                op_loop!(true);
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
                    // Hand the register file back to the popping frame so
                    // the pool keeps its capacity.
                    {
                        let a = self.s.frames.last_mut().expect("returning frame");
                        std::mem::swap(&mut a.regs, &mut regs);
                        std::mem::swap(&mut a.poison, &mut poison);
                    }
                    if let Err(e) = self.pop_frame(v, p) {
                        break 'outer e;
                    }
                    let a = self.s.frames.last_mut().expect("caller frame");
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
        // (keeps the frame pool's capacity; observable state is unchanged —
        // `prepare()` clears and resizes pooled register files on reuse).
        if let Some(a) = self.s.frames.last_mut() {
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
    use super::Op;

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
