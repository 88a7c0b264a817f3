//! Optimization passes.
//!
//! All scalar passes are deliberately *block-local* (the IR uses mutable
//! virtual registers, not SSA), which keeps each pass small, auditable, and
//! obviously terminating. The UB-related passes ([`ub_exploit`],
//! [`mem2reg`], widen-mul, unroll, pow-fast) are where legal compiler
//! behaviour *diverges* — they are the mechanism by which unstable code
//! becomes observable.

pub mod inline;
pub mod mem2reg;
pub mod ub_exploit;
pub mod unroll;

use crate::ir::*;
use crate::personality::{PassKind, Personality};
use crate::rewrite_log::RewriteLog;

/// Runs the personality's pipeline over the whole program.
pub fn run_pipeline(prog: &mut IrProgram, personality: &Personality) {
    run_pipeline_logged(prog, personality, None);
}

/// Runs the personality's pipeline, recording UB-justified rewrites into
/// `log` (when provided). Passing `None` is exactly [`run_pipeline`].
pub fn run_pipeline_logged(
    prog: &mut IrProgram,
    personality: &Personality,
    mut log: Option<&mut RewriteLog>,
) {
    for pass in personality.pipeline.clone() {
        run_pass_logged(prog, pass, personality, log.as_deref_mut());
    }
}

/// Runs one pass over the whole program.
pub fn run_pass(prog: &mut IrProgram, pass: PassKind, personality: &Personality) {
    run_pass_logged(prog, pass, personality, None);
}

/// Runs one pass, recording UB-justified rewrites into `log` (when
/// provided). Only the UB-exploiting passes (`UbExploit`, `Mem2Reg`,
/// `Unroll`) produce entries.
pub fn run_pass_logged(
    prog: &mut IrProgram,
    pass: PassKind,
    personality: &Personality,
    mut log: Option<&mut RewriteLog>,
) {
    match pass {
        PassKind::Inline { threshold } => inline::run(prog, threshold),
        PassKind::Unroll => {
            for f in &mut prog.functions {
                unroll::run_logged(f, personality, log.as_deref_mut());
            }
        }
        PassKind::Mem2Reg => {
            for (i, f) in prog.functions.iter_mut().enumerate() {
                mem2reg::run_logged(f, i as u32, personality.id, log.as_deref_mut());
            }
        }
        PassKind::UbExploit => {
            for f in &mut prog.functions {
                ub_exploit::run_logged(f, personality.id, log.as_deref_mut());
            }
        }
        PassKind::WidenMul => {
            for f in &mut prog.functions {
                widen_mul(f);
            }
        }
        PassKind::ConstFold => {
            for f in &mut prog.functions {
                const_fold_with(f, personality.shift_fold_zero);
            }
        }
        PassKind::CopyProp => {
            for f in &mut prog.functions {
                copy_prop(f);
            }
        }
        PassKind::Cse => {
            for f in &mut prog.functions {
                cse(f);
            }
        }
        PassKind::Dce => {
            for f in &mut prog.functions {
                dce(f);
            }
        }
        PassKind::Dse => {
            for f in &mut prog.functions {
                dse(f);
            }
        }
        PassKind::SimplifyCfg => {
            for f in &mut prog.functions {
                simplify_cfg(f);
            }
        }
        PassKind::PowFast => {
            for f in &mut prog.functions {
                pow_fast(f);
            }
        }
    }
}

// ---------------------------------------------------------------- constant
// folding + algebraic simplification

/// Folds constants and simple identities, block-locally. Constant branches
/// become unconditional jumps. Trapping operations (division) are *not*
/// folded when the divisor is a constant zero — the trap must stay.
pub fn const_fold(f: &mut IrFunction) {
    const_fold_with(f, false);
}

/// [`const_fold`] with an explicit out-of-range-constant-shift policy
/// (`true` folds to 0 like clang-sim, `false` masks like gcc-sim/x86).
pub fn const_fold_with(f: &mut IrFunction, shift_fold_zero: bool) {
    for b in 0..f.blocks.len() {
        let mut known: IdMap<ValueId, ConstVal> = IdMap::default();
        let insts = std::mem::take(&mut f.blocks[b].insts);
        let mut out = Vec::with_capacity(insts.len());
        for inst in insts {
            match &inst {
                Inst::Const { dst, val, .. } => {
                    known.insert(*dst, *val);
                    out.push(inst);
                    continue;
                }
                Inst::Copy { dst, ty, src } => {
                    if let Some(v) = pure_const(&known, *src) {
                        let (dst, ty) = (*dst, *ty);
                        known.insert(dst, v);
                        out.push(Inst::Const { dst, ty, val: v });
                        continue;
                    }
                    known.remove(dst);
                    out.push(inst);
                    continue;
                }
                Inst::Bin {
                    dst,
                    ty,
                    op,
                    a,
                    b: rb,
                    ub_signed,
                } => {
                    let (dst, ty, op, a, rb, ub_signed) = (*dst, *ty, *op, *a, *rb, *ub_signed);
                    let float = op.is_float();
                    if let (Some(wa), Some(wb)) =
                        (operand(&known, a, float), operand(&known, rb, float))
                    {
                        // clang folds an out-of-range constant shift to 0.
                        let folded = if shift_fold_zero
                            && op.ub(ty, wa, wb, ub_signed) == Some(BinUb::ShiftRange)
                        {
                            Some(0)
                        } else {
                            op.eval(ty, wa, wb)
                        };
                        // Never fold a trap away *or into existence*; DCE may
                        // still remove an unused trapping op (that asymmetry
                        // is the UB story for CWE-369).
                        if let Some(w) = folded {
                            let cty = op.result_ty(ty);
                            let v = ConstVal::from_word(cty, w);
                            known.insert(dst, v);
                            out.push(Inst::Const {
                                dst,
                                ty: cty,
                                val: v,
                            });
                            continue;
                        }
                    }
                    // Algebraic identities with one constant side.
                    if let Some(repl) = algebraic(&known, dst, ty, op, a, rb, ub_signed) {
                        known.remove(&dst);
                        if let Inst::Const { val, .. } = repl {
                            known.insert(dst, val);
                        }
                        out.push(repl);
                        continue;
                    }
                    known.remove(&dst);
                    out.push(inst);
                    continue;
                }
                Inst::Un { dst, ty, op, a, .. } => {
                    if let Some(wa) = operand(&known, *a, *op == UnKind::FNeg) {
                        let (dst, ty) = (*dst, *ty);
                        let v = ConstVal::from_word(ty, op.eval(ty, wa));
                        known.insert(dst, v);
                        out.push(Inst::Const { dst, ty, val: v });
                        continue;
                    }
                    known.remove(dst);
                    out.push(inst);
                    continue;
                }
                Inst::Cast { dst, kind, a } => {
                    if let Some(wa) = operand(&known, *a, kind.from_float()) {
                        let (dst, ty) = (*dst, kind.result_ty());
                        let v = ConstVal::from_word(ty, kind.eval(wa));
                        known.insert(dst, v);
                        out.push(Inst::Const { dst, ty, val: v });
                        continue;
                    }
                    known.remove(dst);
                    out.push(inst);
                    continue;
                }
                _ => {}
            }
            if let Some(d) = inst.dst() {
                known.remove(&d);
            }
            // Keep addresses const-known through address-producing consts.
            if let Inst::Const { dst, val, .. } = &inst {
                known.insert(*dst, *val);
            }
            out.push(inst);
        }
        f.blocks[b].insts = out;
        // Branch folding.
        if let Terminator::Br { cond, then, els } = f.blocks[b].term.clone() {
            if let Some(v) = known.get(&cond) {
                let taken = match v {
                    ConstVal::I32(x) => *x != 0,
                    ConstVal::I64(x) => *x != 0,
                    _ => continue,
                };
                f.blocks[b].term = Terminator::Jump(if taken { then } else { els });
            }
        }
    }
}

/// A constant usable in arithmetic (addresses and junk are opaque).
fn pure_const(known: &IdMap<ValueId, ConstVal>, v: ValueId) -> Option<ConstVal> {
    match known.get(&v) {
        Some(c @ (ConstVal::I32(_) | ConstVal::I64(_) | ConstVal::F64(_))) => Some(*c),
        _ => None,
    }
}

/// The word of constant register `v` when its kind matches what the
/// operation reads: integer constants feed only integer operations, and
/// `F64` constants only float ones.
fn operand(known: &IdMap<ValueId, ConstVal>, v: ValueId, float: bool) -> Option<u64> {
    match known.get(&v)? {
        c @ (ConstVal::I32(_) | ConstVal::I64(_)) if !float => c.word(),
        ConstVal::F64(x) if float => Some(x.to_bits()),
        _ => None,
    }
}

/// `x+0`, `x*1`, `x*0`, `x&0`, `x|0`, `x^0`, `x-0`, `x/1` and commuted
/// variants. Returns the replacement instruction, if any.
fn algebraic(
    known: &IdMap<ValueId, ConstVal>,
    dst: ValueId,
    ty: IrType,
    op: BinKind,
    a: ValueId,
    b: ValueId,
    _ub_signed: bool,
) -> Option<Inst> {
    use BinKind::*;
    let ca = operand(known, a, false);
    let cb = operand(known, b, false);
    let zero = |d| Inst::Const {
        dst: d,
        ty,
        val: if ty == IrType::I32 {
            ConstVal::I32(0)
        } else {
            ConstVal::I64(0)
        },
    };
    match op {
        Add => {
            if cb == Some(0) {
                return Some(Inst::Copy { dst, ty, src: a });
            }
            if ca == Some(0) {
                return Some(Inst::Copy { dst, ty, src: b });
            }
        }
        Sub if cb == Some(0) => return Some(Inst::Copy { dst, ty, src: a }),
        Mul => {
            if cb == Some(1) {
                return Some(Inst::Copy { dst, ty, src: a });
            }
            if ca == Some(1) {
                return Some(Inst::Copy { dst, ty, src: b });
            }
            if cb == Some(0) || ca == Some(0) {
                return Some(zero(dst));
            }
        }
        DivS | DivU if cb == Some(1) => return Some(Inst::Copy { dst, ty, src: a }),
        And if cb == Some(0) || ca == Some(0) => return Some(zero(dst)),
        Or | Xor => {
            if cb == Some(0) {
                return Some(Inst::Copy { dst, ty, src: a });
            }
            if ca == Some(0) {
                return Some(Inst::Copy { dst, ty, src: b });
            }
        }
        Shl | ShrS | ShrU if cb == Some(0) => return Some(Inst::Copy { dst, ty, src: a }),
        _ => {}
    }
    None
}

// ---------------------------------------------------------------- copy prop

/// Replaces uses of registers that are block-locally known to be copies.
pub fn copy_prop(f: &mut IrFunction) {
    for b in &mut f.blocks {
        let mut alias: IdMap<ValueId, ValueId> = IdMap::default();
        let invalidate = |alias: &mut IdMap<ValueId, ValueId>, r: ValueId| {
            alias.remove(&r);
            alias.retain(|_, v| *v != r);
        };
        for inst in &mut b.insts {
            // Rewrite uses first.
            inst.for_each_use_mut(|v| forward(&alias, v));
            match inst {
                Inst::Copy { dst, src, .. } => {
                    let (d, s) = (*dst, *src);
                    invalidate(&mut alias, d);
                    if d != s {
                        alias.insert(d, s);
                    }
                }
                other => {
                    if let Some(d) = other.dst() {
                        invalidate(&mut alias, d);
                    }
                }
            }
        }
        b.term.for_each_use_mut(|v| forward(&alias, v));
    }
}

/// Replaces `v` by the register it is a copy of, if `alias` knows one.
fn forward(alias: &IdMap<ValueId, ValueId>, v: &mut ValueId) {
    if let Some(s) = alias.get(v) {
        *v = *s;
    }
}

// ---------------------------------------------------------------- CSE

/// Block-local common subexpression elimination over pure instructions.
/// Loads are also deduplicated until the next store/call.
pub fn cse(f: &mut IrFunction) {
    #[derive(PartialEq, Eq, Hash)]
    enum Key {
        Bin(BinKind, IrType, ValueId, ValueId),
        Un(UnKind, IrType, ValueId),
        Cast(CastKind, ValueId),
        Frame(SlotId),
        Load(ValueId, MemWidth, bool),
        /// Constants, encoded (float via bit pattern; junk by id).
        Const(IrType, u8, u64, i64),
    }
    fn const_key(ty: IrType, v: &ConstVal) -> Key {
        match v {
            ConstVal::I32(x) => Key::Const(ty, 0, 0, *x as i64),
            ConstVal::I64(x) => Key::Const(ty, 1, 0, *x),
            ConstVal::F64(x) => Key::Const(ty, 2, x.to_bits(), 0),
            ConstVal::GlobalAddr(g, off) => Key::Const(ty, 3, g.0 as u64, *off),
            ConstVal::StrAddr(s, off) => Key::Const(ty, 4, s.0 as u64, *off),
            ConstVal::Junk(id) => Key::Const(ty, 5, *id as u64, 0),
        }
    }
    for b in &mut f.blocks {
        let mut avail: IdMap<Key, ValueId> = IdMap::default();
        // Copy-forwarding within the pass so chained CSE opportunities
        // (e.g. identical constants feeding identical multiplies) are seen.
        let mut alias: IdMap<ValueId, ValueId> = IdMap::default();
        let mut out = Vec::with_capacity(b.insts.len());
        for mut inst in b.insts.drain(..) {
            inst.for_each_use_mut(|v| forward(&alias, v));
            let key = match &inst {
                Inst::Bin { op, ty, a, b, .. } => Some(Key::Bin(*op, *ty, *a, *b)),
                Inst::Un { op, ty, a, .. } => Some(Key::Un(*op, *ty, *a)),
                Inst::Cast { kind, a, .. } => Some(Key::Cast(*kind, *a)),
                Inst::FrameAddr { slot, .. } => Some(Key::Frame(*slot)),
                Inst::Load {
                    addr, width, sext, ..
                } => Some(Key::Load(*addr, *width, *sext)),
                Inst::Const { ty, val, .. } => Some(const_key(*ty, val)),
                _ => None,
            };
            // Memory clobbers invalidate loads.
            if matches!(inst, Inst::Store { .. } | Inst::Call { .. }) {
                avail.retain(|k, _| !matches!(k, Key::Load(..)));
            }
            let unalias = |alias: &mut IdMap<ValueId, ValueId>, r: ValueId| {
                alias.remove(&r);
                alias.retain(|_, v| *v != r);
            };
            if let Some(key) = key {
                if let Some(&prev) = avail.get(&key) {
                    let dst = inst.dst().unwrap();
                    let ty = f.reg_tys[dst.0 as usize];
                    invalidate_redefined(&mut avail, dst);
                    unalias(&mut alias, dst);
                    if dst != prev {
                        alias.insert(dst, prev);
                    }
                    out.push(Inst::Copy { dst, ty, src: prev });
                    continue;
                }
                let dst = inst.dst().unwrap();
                invalidate_redefined(&mut avail, dst);
                unalias(&mut alias, dst);
                avail.insert(key, dst);
                out.push(inst);
                continue;
            }
            if let Some(d) = inst.dst() {
                invalidate_redefined(&mut avail, d);
                unalias(&mut alias, d);
                if let Inst::Copy { dst, src, .. } = &inst {
                    if dst != src {
                        alias.insert(*dst, *src);
                    }
                }
            }
            out.push(inst);
        }
        b.insts = out;

        fn invalidate_redefined(avail: &mut IdMap<Key, ValueId>, redefined: ValueId) {
            avail.retain(|k, v| {
                if *v == redefined {
                    return false;
                }
                let uses = match k {
                    Key::Bin(_, _, a, b) => *a == redefined || *b == redefined,
                    Key::Un(_, _, a) => *a == redefined,
                    Key::Cast(_, a) => *a == redefined,
                    Key::Frame(_) => false,
                    Key::Load(a, _, _) => *a == redefined,
                    Key::Const(..) => false,
                };
                !uses
            });
        }
    }
}

// ---------------------------------------------------------------- DCE

/// Removes pure instructions whose results are never used, and empties
/// unreachable blocks. Under the "UB never happens" licence this deletes
/// unused loads and unused (possibly-trapping) divisions — which is exactly
/// how `-O2` can "lose" a division-by-zero crash that `-O0` keeps.
pub fn dce(f: &mut IrFunction) {
    loop {
        let mut used = vec![false; f.reg_count as usize];
        let reachable: Vec<BlockId> = f.reachable_blocks();
        let reachable_set: IdSet<u32> = reachable.iter().map(|b| b.0).collect();
        for bid in &reachable {
            let b = &f.blocks[bid.0 as usize];
            let mut mark = |u: ValueId| used[u.0 as usize] = true;
            for inst in &b.insts {
                inst.for_each_use(&mut mark);
            }
            b.term.for_each_use(mark);
        }
        let mut changed = false;
        for (i, b) in f.blocks.iter_mut().enumerate() {
            if !reachable_set.contains(&(i as u32)) {
                if !b.insts.is_empty() {
                    b.insts.clear();
                    b.term = Terminator::Unreachable;
                    changed = true;
                }
                continue;
            }
            let before = b.insts.len();
            b.insts.retain(|inst| {
                inst.has_side_effects() || inst.dst().map(|d| used[d.0 as usize]).unwrap_or(true)
            });
            if b.insts.len() != before {
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

// ---------------------------------------------------------------- DSE

/// Block-local dead store elimination: a store is dead if the *same address
/// register* is stored again before any load, call, or end of block.
pub fn dse(f: &mut IrFunction) {
    for b in &mut f.blocks {
        let mut pending: IdMap<(ValueId, MemWidth), usize> = IdMap::default();
        let mut dead: Vec<usize> = Vec::new();
        for (i, inst) in b.insts.iter().enumerate() {
            match inst {
                Inst::Store { addr, width, .. } => {
                    if let Some(prev) = pending.insert((*addr, *width), i) {
                        dead.push(prev);
                    }
                }
                Inst::Load { .. } | Inst::Call { .. } => pending.clear(),
                other => {
                    if let Some(d) = other.dst() {
                        // Address register redefined: forget it.
                        pending.retain(|(a, _), _| *a != d);
                    }
                }
            }
        }
        if dead.is_empty() {
            continue;
        }
        dead.sort_unstable();
        let mut di = 0;
        let mut idx = 0;
        b.insts.retain(|_| {
            let drop_it = di < dead.len() && dead[di] == idx;
            if drop_it {
                di += 1;
            }
            idx += 1;
            !drop_it
        });
    }
}

// ---------------------------------------------------------------- CFG

/// Collapses `Br` with equal targets, threads jumps through empty blocks.
pub fn simplify_cfg(f: &mut IrFunction) {
    // Br with identical arms -> Jump.
    for b in &mut f.blocks {
        if let Terminator::Br { then, els, .. } = &b.term {
            if then == els {
                let t = *then;
                b.term = Terminator::Jump(t);
            }
        }
    }
    // Resolve each block's "forwarding" target (empty block ending in Jump).
    let forward: Vec<Option<BlockId>> = f
        .blocks
        .iter()
        .map(|b| match (&b.insts.is_empty(), &b.term) {
            (true, Terminator::Jump(t)) => Some(*t),
            _ => None,
        })
        .collect();
    let resolve = |mut b: BlockId| -> BlockId {
        let mut hops = 0;
        while let Some(t) = forward[b.0 as usize] {
            if t == b || hops > forward.len() {
                break;
            }
            b = t;
            hops += 1;
        }
        b
    };
    for b in &mut f.blocks {
        match &mut b.term {
            Terminator::Jump(t) => *t = resolve(*t),
            Terminator::Br { then, els, .. } => {
                *then = resolve(*then);
                *els = resolve(*els);
                if then == els {
                    let t = *then;
                    b.term = Terminator::Jump(t);
                }
            }
            _ => {}
        }
    }
}

// ------------------------------------------------------------- widen mul

/// clang-sim `-O1`+: rewrites `(long)(a * b)` (32-bit signed multiply whose
/// result is immediately sign-extended) into a 64-bit multiply of the
/// extended operands. Legal *only* because signed overflow is UB; when the
/// 32-bit product would overflow, the two forms store different values —
/// the paper's IntError example.
pub fn widen_mul(f: &mut IrFunction) {
    for b in 0..f.blocks.len() {
        let mut defs: IdMap<ValueId, (BinKind, ValueId, ValueId, bool)> = IdMap::default();
        let mut rewrites: Vec<(usize, ValueId, ValueId, ValueId)> = Vec::new();
        for (i, inst) in f.blocks[b].insts.iter().enumerate() {
            match inst {
                Inst::Bin {
                    dst,
                    ty: IrType::I32,
                    op: BinKind::Mul,
                    a,
                    b: rb,
                    ub_signed,
                } => {
                    defs.insert(*dst, (BinKind::Mul, *a, *rb, *ub_signed));
                }
                Inst::Cast {
                    dst,
                    kind: CastKind::SextI32I64,
                    a,
                } => {
                    if let Some((BinKind::Mul, ma, mb, true)) = defs.get(a).copied() {
                        rewrites.push((i, *dst, ma, mb));
                    }
                }
                other => {
                    if let Some(d) = other.dst() {
                        defs.remove(&d);
                    }
                }
            }
            if let Some(d) = inst.dst() {
                // A redefinition of a multiply operand invalidates it.
                defs.retain(|_, (_, a, rb, _)| *a != d && *rb != d);
            }
        }
        // Apply in reverse so indices stay valid.
        for (i, dst, ma, mb) in rewrites.into_iter().rev() {
            let wa = f.new_reg(IrType::I64);
            let wb = f.new_reg(IrType::I64);
            let block = &mut f.blocks[b];
            block.insts.splice(
                i..=i,
                vec![
                    Inst::Cast {
                        dst: wa,
                        kind: CastKind::SextI32I64,
                        a: ma,
                    },
                    Inst::Cast {
                        dst: wb,
                        kind: CastKind::SextI32I64,
                        a: mb,
                    },
                    Inst::Bin {
                        dst,
                        ty: IrType::I64,
                        op: BinKind::Mul,
                        a: wa,
                        b: wb,
                        ub_signed: true,
                    },
                ],
            );
        }
    }
}

// ------------------------------------------------------------- pow fast

/// clang-sim `-O3`: replaces `pow` calls with a faster, less precise form
/// (the VM computes it via `exp2(y * log2(x))` in `f32` precision). The
/// result may differ in low decimal digits — the paper's floating-point
/// imprecision findings (RQ2).
pub fn pow_fast(f: &mut IrFunction) {
    for b in &mut f.blocks {
        for inst in &mut b.insts {
            if let Inst::Call { callee, .. } = inst {
                if *callee == Callee::Builtin(minc::Builtin::Pow) {
                    *callee = Callee::PowFast;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::personality::{CompilerImpl, Family, OptLevel};

    fn lower_o0(src: &str) -> IrProgram {
        let checked = minc::check(src).unwrap();
        let p = CompilerImpl::new(Family::Gcc, OptLevel::O0).personality();
        lower(&checked, &p)
    }

    fn count_insts(f: &IrFunction) -> usize {
        f.inst_count()
    }

    #[test]
    fn const_fold_folds_arithmetic() {
        let mut ir = lower_o0("int main() { return 2 + 3 * 4; }");
        let before = count_insts(&ir.functions[0]);
        const_fold(&mut ir.functions[0]);
        dce(&mut ir.functions[0]);
        let after = count_insts(&ir.functions[0]);
        assert!(after < before);
        // The return value register must be a constant 14.
        let f = &ir.functions[0];
        let Terminator::Ret(Some(v)) = &f.blocks[0].term else {
            panic!()
        };
        let is14 = f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Const { dst, val: ConstVal::I32(14), .. } if dst == v));
        assert!(is14);
    }

    #[test]
    fn const_fold_never_folds_div_by_zero() {
        let mut ir = lower_o0("int main() { int z = 0; return 1 / z; }");
        mem2reg::run(&mut ir.functions[0], 0);
        const_fold(&mut ir.functions[0]);
        copy_prop(&mut ir.functions[0]);
        const_fold(&mut ir.functions[0]);
        let f = &ir.functions[0];
        let div_left = f.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Inst::Bin {
                    op: BinKind::DivS,
                    ..
                }
            )
        });
        assert!(div_left, "the trapping division must survive folding");
    }

    #[test]
    fn dce_removes_unused_div_enabling_trap_divergence() {
        // An unused division: DCE may remove it (UB licence).
        let mut ir = lower_o0("int main() { int z = 0; int unused = 1 / z; return 7; }");
        mem2reg::run(&mut ir.functions[0], 0);
        copy_prop(&mut ir.functions[0]);
        dce(&mut ir.functions[0]);
        let f = &ir.functions[0];
        let div_left = f.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Inst::Bin {
                    op: BinKind::DivS,
                    ..
                }
            )
        });
        assert!(!div_left, "unused trapping division should be DCE'd at -O2");
    }

    #[test]
    fn branch_folding_after_const_cond() {
        let mut ir = lower_o0("int main() { if (1) return 3; return 4; }");
        const_fold(&mut ir.functions[0]);
        let f = &ir.functions[0];
        let has_br = f
            .reachable_blocks()
            .iter()
            .any(|b| matches!(f.blocks[b.0 as usize].term, Terminator::Br { .. }));
        assert!(!has_br);
    }

    #[test]
    fn copy_prop_forwards_sources() {
        let mut f = IrFunction {
            name: "t".into(),
            param_count: 0,
            param_tys: vec![],
            ret_ty: Some(IrType::I32),
            blocks: vec![],
            slots: vec![],
            reg_count: 0,
            reg_tys: vec![],
            reg_lines: vec![],
        };
        let b = f.new_block();
        let a = f.new_reg(IrType::I32);
        let c = f.new_reg(IrType::I32);
        let d = f.new_reg(IrType::I32);
        f.blocks[b.0 as usize].insts = vec![
            Inst::Const {
                dst: a,
                ty: IrType::I32,
                val: ConstVal::I32(5),
            },
            Inst::Copy {
                dst: c,
                ty: IrType::I32,
                src: a,
            },
            Inst::Bin {
                dst: d,
                ty: IrType::I32,
                op: BinKind::Add,
                a: c,
                b: c,
                ub_signed: true,
            },
        ];
        f.blocks[b.0 as usize].term = Terminator::Ret(Some(d));
        copy_prop(&mut f);
        let Inst::Bin { a: ba, b: bb, .. } = &f.blocks[0].insts[2] else {
            panic!()
        };
        assert_eq!(*ba, a);
        assert_eq!(*bb, a);
    }

    #[test]
    fn cse_dedupes_pure_exprs() {
        let mut ir =
            lower_o0("int f(int a, int b) { return (a+b)*(a+b); }\nint main() { return f(1,2); }");
        let f = &mut ir.functions[0];
        mem2reg::run(f, 0);
        copy_prop(f);
        cse(f);
        copy_prop(f);
        dce(f);
        let adds = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| {
                matches!(
                    i,
                    Inst::Bin {
                        op: BinKind::Add,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(adds, 1, "a+b must be computed once");
    }

    #[test]
    fn dse_removes_overwritten_store() {
        let mut ir = lower_o0("int main() { int a[2]; a[0] = 1; a[0] = 2; return a[0]; }");
        let f = &mut ir.functions[0];
        // Make address registers coincide first.
        cse(f);
        copy_prop(f);
        let before = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Store { .. }))
            .count();
        dse(f);
        let after = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Store { .. }))
            .count();
        assert!(
            after < before,
            "dead store should be removed ({before} -> {after})"
        );
    }

    #[test]
    fn widen_mul_rewrites_sext_of_mul() {
        let src = "int main() { int a = 100000; int b = 100000; long x = (long)(a * b); return (int)(x >> 32); }";
        let mut ir = {
            let checked = minc::check(src).unwrap();
            let p = CompilerImpl::new(Family::Clang, OptLevel::O0).personality();
            lower(&checked, &p)
        };
        let f = &mut ir.functions[0];
        mem2reg::run(f, 0);
        copy_prop(f);
        widen_mul(f);
        let has_wide_mul = f.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Inst::Bin {
                    op: BinKind::Mul,
                    ty: IrType::I64,
                    ..
                }
            )
        });
        assert!(has_wide_mul);
    }

    #[test]
    fn pow_fast_rewrites_pow_calls() {
        let mut ir = lower_o0("int main() { double d = pow(2.0, 10.0); return (int)d; }");
        pow_fast(&mut ir.functions[0]);
        let has_fast = ir.functions[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| {
                matches!(
                    i,
                    Inst::Call {
                        callee: Callee::PowFast,
                        ..
                    }
                )
            });
        assert!(has_fast);
    }

    #[test]
    fn simplify_cfg_threads_empty_blocks() {
        let mut ir = lower_o0("int main() { if (input_size() > 0) { } return 1; }");
        let f = &mut ir.functions[0];
        simplify_cfg(f);
        dce(f);
        // After threading, the branch arms must not target empty jump-only blocks.
        for bid in f.reachable_blocks() {
            if let Terminator::Br { then, els, .. } = &f.blocks[bid.0 as usize].term {
                for t in [then, els] {
                    let tb = &f.blocks[t.0 as usize];
                    let empty_fwd = tb.insts.is_empty() && matches!(tb.term, Terminator::Jump(_));
                    assert!(!empty_fwd, "branch still targets a trivial forwarder");
                }
            }
        }
    }

    #[test]
    fn full_pipeline_runs_on_all_personalities() {
        let src = r#"
            int helper(int x) { return x * 2 + 1; }
            int main() {
                int acc = 0;
                int i;
                for (i = 0; i < 7; i++) { acc += helper(i); }
                printf("%d\n", acc);
                return 0;
            }
        "#;
        let checked = minc::check(src).unwrap();
        for ci in CompilerImpl::default_set() {
            let p = ci.personality();
            let mut ir = lower(&checked, &p);
            run_pipeline(&mut ir, &p);
            assert!(ir.functions.iter().all(|f| !f.blocks.is_empty()), "{ci}");
        }
    }
}
