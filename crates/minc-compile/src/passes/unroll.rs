//! Full loop unrolling (`-O3`) — including the deliberate, very narrow
//! gcc-sim `-O3` miscompilation used to reproduce the paper's RQ2 finding
//! that CompDiff occasionally catches *compiler* bugs (the paper found two
//! gcc and one clang miscompilation while fuzzing MuJS).
//!
//! Only the exact loop shape produced by lowering a counted `for` loop is
//! recognized, after `mem2reg` has promoted the induction variable:
//!
//! ```text
//! pre:  iv = Const INIT ... Jump(head)
//! head: c = LtS(iv, Const N) ; Br(c, body, exit)
//! body: ... Jump(step)            (single block, no other branches)
//! step: iv = Add(iv, Const STEP) ; Jump(head)
//! ```

use crate::ir::*;
use crate::personality::{Family, Personality};
use crate::rewrite_log::{RewriteLog, UbReason};

/// Maximum trip count that will be fully unrolled.
const MAX_TRIP: i64 = 16;
/// Maximum body size (instructions) for unrolling.
const MAX_BODY: usize = 40;

/// Runs the unroller over `f`.
pub fn run(f: &mut IrFunction, personality: &Personality) {
    run_logged(f, personality, None);
}

/// Like [`run`], but records into `log` (when provided) every unroll whose
/// applied trip count deviates from the computed one — the seeded
/// miscompilations — as [`UbReason::UnrollTripCount`] entries.
pub fn run_logged(f: &mut IrFunction, personality: &Personality, mut log: Option<&mut RewriteLog>) {
    // Find candidate headers; unroll at most a few loops per function to
    // bound code growth.
    let mut budget = 4;
    loop {
        if budget == 0 {
            return;
        }
        let Some(c) = find_candidate(f) else { return };
        apply(f, &c, personality, log.as_deref_mut());
        budget -= 1;
    }
}

struct Candidate {
    head: BlockId,
    body: BlockId,
    step: BlockId,
    exit: BlockId,
    trip: i64,
    body_has_mul: bool,
    body_has_div: bool,
}

fn find_candidate(f: &mut IrFunction) -> Option<Candidate> {
    // Count defs of each register across the function.
    let mut defs: IdMap<ValueId, Vec<(BlockId, usize)>> = IdMap::default();
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, inst) in b.insts.iter().enumerate() {
            if let Some(d) = inst.dst() {
                defs.entry(d).or_default().push((BlockId(bi as u32), ii));
            }
        }
    }
    let reachable = f.reachable_blocks();
    for &head in &reachable {
        let hb = &f.blocks[head.0 as usize];
        // Header: all insts pure, terminator Br on LtS(iv, const N).
        let Terminator::Br {
            cond,
            then: body,
            els: exit,
        } = hb.term.clone()
        else {
            continue;
        };
        let Some(Inst::Bin {
            op: BinKind::LtS,
            a: iv,
            b: bound_reg,
            ty,
            ..
        }) = hb.insts.iter().find(|i| i.dst() == Some(cond))
        else {
            continue;
        };
        let (iv, bound_reg, ty) = (*iv, *bound_reg, *ty);
        if ty != IrType::I32 {
            continue;
        }
        let Some(bound) = const_def_in(hb, bound_reg) else {
            continue;
        };
        // Body: single block ending Jump(step) (or Jump(head) with no step).
        let bb = &f.blocks[body.0 as usize];
        if bb.insts.len() > MAX_BODY {
            continue;
        }
        let Terminator::Jump(step) = bb.term.clone() else {
            continue;
        };
        if step == head {
            continue; // need a separate step block (our lowering makes one)
        }
        // Body must not branch back into head except via step; must not
        // contain calls that could diverge? Calls allowed.
        let sb = &f.blocks[step.0 as usize];
        if sb.term != Terminator::Jump(head) {
            continue;
        }
        // Step: iv advances by a constant. After mem2reg + copy-prop the
        // shape is either `iv = Add(iv, C)` directly or
        // `t = Add(iv_or_copy_of_iv, C); iv = Copy t`.
        let mut step_amt: Option<i64> = None;
        {
            // Block-local def map: reg -> (is_add_of_iv, amount) | copy-of-iv.
            let mut add_of_iv: IdMap<ValueId, i64> = IdMap::default();
            let mut alias_of_iv: IdSet<ValueId> = IdSet::default();
            alias_of_iv.insert(iv);
            for inst in &sb.insts {
                match inst {
                    Inst::Copy { dst, src, .. } => {
                        if alias_of_iv.contains(src) && *dst != iv {
                            alias_of_iv.insert(*dst);
                        } else if *dst == iv {
                            if let Some(c) = add_of_iv.get(src) {
                                step_amt = Some(*c);
                            } else if !alias_of_iv.contains(src) {
                                step_amt = None;
                            }
                            add_of_iv.clear();
                        } else {
                            alias_of_iv.remove(dst);
                            add_of_iv.remove(dst);
                        }
                    }
                    Inst::Bin {
                        dst,
                        op: BinKind::Add,
                        a,
                        b,
                        ..
                    } => {
                        let amt = if alias_of_iv.contains(a) {
                            const_def_in(sb, *b)
                        } else if alias_of_iv.contains(b) {
                            const_def_in(sb, *a)
                        } else {
                            None
                        };
                        if *dst == iv {
                            step_amt = amt;
                        } else if let Some(c) = amt {
                            add_of_iv.insert(*dst, c);
                        } else {
                            add_of_iv.remove(dst);
                            alias_of_iv.remove(dst);
                        }
                    }
                    other => {
                        if let Some(d) = other.dst() {
                            if d == iv {
                                step_amt = None;
                            }
                            alias_of_iv.remove(&d);
                            add_of_iv.remove(&d);
                        }
                    }
                }
            }
        }
        let Some(step_amt) = step_amt else { continue };
        if step_amt <= 0 {
            continue;
        }
        // iv defs: exactly one outside the loop (constant init) and the
        // ones inside step/body blocks. Require: one def with a constant,
        // and all other defs are in body/step.
        let Some(iv_defs) = defs.get(&iv) else {
            continue;
        };
        let mut init: Option<i64> = None;
        let mut ok = true;
        for (db, di) in iv_defs {
            if *db == body || *db == step {
                continue;
            }
            if *db == head {
                ok = false;
                break;
            }
            // Outside def: must be a constant. The junk initializer that
            // mem2reg prepends to the entry block is shadowed by any real
            // initialization and can be ignored.
            let inst = &f.blocks[db.0 as usize].insts[*di];
            if db.0 == 0
                && matches!(
                    inst,
                    Inst::Const {
                        val: ConstVal::Junk(_),
                        ..
                    }
                )
            {
                continue;
            }
            match inst {
                Inst::Const {
                    val: ConstVal::I32(v),
                    ..
                } => {
                    if init.is_some() {
                        ok = false;
                        break;
                    }
                    init = Some(*v as i64);
                }
                Inst::Copy { src, .. } => {
                    if let Some(v) = const_def_in(&f.blocks[db.0 as usize], *src) {
                        if init.is_some() {
                            ok = false;
                            break;
                        }
                        init = Some(v);
                    } else {
                        ok = false;
                        break;
                    }
                }
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        let Some(init) = init else { continue };
        // Body must not redefine iv.
        let body_defines_iv = f.blocks[body.0 as usize]
            .insts
            .iter()
            .any(|i| i.dst() == Some(iv));
        if body_defines_iv {
            continue;
        }
        if bound <= init {
            continue;
        }
        let trip = (bound - init + step_amt - 1) / step_amt;
        if trip <= 0 || trip > MAX_TRIP {
            continue;
        }
        // Header instructions must be pure and only feed the branch.
        if f.blocks[head.0 as usize]
            .insts
            .iter()
            .any(|i| i.has_side_effects())
        {
            continue;
        }
        let body_has_mul = f.blocks[body.0 as usize].insts.iter().any(|i| {
            matches!(
                i,
                Inst::Bin {
                    op: BinKind::Mul,
                    ..
                }
            )
        });
        let body_has_div = f.blocks[body.0 as usize].insts.iter().any(|i| {
            matches!(
                i,
                Inst::Bin {
                    op: BinKind::DivS | BinKind::DivU,
                    ..
                }
            )
        });
        return Some(Candidate {
            head,
            body,
            step,
            exit,
            trip,
            body_has_mul,
            body_has_div,
        });
    }
    None
}

/// Constant value of `r` as defined *within* block `b` (last def wins).
fn const_def_in(b: &Block, r: ValueId) -> Option<i64> {
    let mut v = None;
    for inst in &b.insts {
        if inst.dst() == Some(r) {
            v = match inst {
                Inst::Const {
                    val: ConstVal::I32(x),
                    ..
                } => Some(*x as i64),
                Inst::Const {
                    val: ConstVal::I64(x),
                    ..
                } => Some(*x),
                _ => None,
            };
        }
    }
    v
}

fn apply(
    f: &mut IrFunction,
    c: &Candidate,
    personality: &Personality,
    log: Option<&mut RewriteLog>,
) {
    // The deliberate gcc-sim -O3 bug: a 7-trip loop whose body multiplies
    // gets unrolled one iteration short. Narrow enough to be found only by
    // targeted fuzzing (RQ2), broad enough to be reachable.
    let mut trip = c.trip;
    if personality.id.family == Family::Gcc && trip == 7 && c.body_has_mul {
        trip = 6;
    }
    // The seeded clang-sim -O3 miscompilation (the paper's one clang bug):
    // a 5-trip loop whose body divides gets one *extra* iteration.
    if personality.id.family == Family::Clang && trip == 5 && c.body_has_div {
        trip = 6;
    }
    if trip != c.trip {
        if let Some(log) = log {
            // Attribute the rewrite to the loop condition's source line.
            let line = match f.blocks[c.head.0 as usize].term {
                Terminator::Br { cond, .. } => f.line_of(cond),
                _ => 0,
            };
            log.record(
                personality.id,
                &f.name,
                UbReason::UnrollTripCount,
                line,
                0,
                format!(
                    "fully unrolled a {}-trip counted loop with trip count {trip} \
                     (implementation-specific; the seeded RQ2 miscompilation)",
                    c.trip
                ),
            );
        }
    }

    let body_insts = f.blocks[c.body.0 as usize].insts.clone();
    let step_insts = f.blocks[c.step.0 as usize].insts.clone();

    // Straight-line unrolled block replaces the header.
    let mut insts = Vec::with_capacity((body_insts.len() + step_insts.len()) * trip as usize);
    for _ in 0..trip {
        insts.extend(body_insts.iter().cloned());
        insts.extend(step_insts.iter().cloned());
    }
    let head = &mut f.blocks[c.head.0 as usize];
    head.insts = insts;
    head.term = Terminator::Jump(c.exit);
    // Old body/step become unreachable; DCE cleans them up.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::passes::{const_fold, copy_prop, dce, mem2reg, simplify_cfg};
    use crate::personality::{CompilerImpl, Family, OptLevel};

    fn prep(src: &str, family: Family) -> (IrProgram, Personality) {
        let checked = minc::check(src).unwrap();
        let p = CompilerImpl::new(family, OptLevel::O3).personality();
        let mut ir = lower(&checked, &p);
        for (i, f) in ir.functions.iter_mut().enumerate() {
            mem2reg::run(f, i as u32);
            const_fold(f);
            copy_prop(f);
            const_fold(f);
            dce(f);
            simplify_cfg(f);
        }
        (ir, p)
    }

    fn loop_src(n: u32, with_mul: bool) -> String {
        let op = if with_mul {
            "acc = acc + i * 2;"
        } else {
            "acc = acc + i;"
        };
        format!(
            "int main() {{ int acc = 0; int i; for (i = 0; i < {n}; i++) {{ {op} }} printf(\"%d\", acc); return 0; }}"
        )
    }

    #[test]
    fn unrolls_small_counted_loop() {
        let (mut ir, p) = prep(&loop_src(5, false), Family::Clang);
        let f = &mut ir.functions[0];
        run(f, &p);
        dce(f);
        // No back-edge Br remains among reachable blocks.
        let has_loop = f
            .reachable_blocks()
            .iter()
            .any(|b| matches!(f.blocks[b.0 as usize].term, Terminator::Br { .. }));
        assert!(!has_loop, "loop should be fully unrolled");
    }

    #[test]
    fn keeps_large_loops() {
        let (mut ir, p) = prep(&loop_src(1000, false), Family::Clang);
        let f = &mut ir.functions[0];
        let before = f.blocks.clone();
        run(f, &p);
        assert_eq!(before, f.blocks, "trip 1000 must not unroll");
    }

    #[test]
    fn gcc_o3_miscompiles_trip7_mul_loops() {
        // Count Mul instructions after unrolling: gcc-sim emits 6 copies,
        // clang-sim emits 7 — the seeded miscompilation.
        let count_muls = |family: Family| {
            let (mut ir, p) = prep(&loop_src(7, true), family);
            let f = &mut ir.functions[0];
            run(f, &p);
            dce(f);
            f.reachable_blocks()
                .iter()
                .flat_map(|b| f.blocks[b.0 as usize].insts.clone())
                .filter(|i| {
                    matches!(
                        i,
                        Inst::Bin {
                            op: BinKind::Mul,
                            ..
                        }
                    )
                })
                .count()
        };
        assert_eq!(count_muls(Family::Clang), 7);
        assert_eq!(count_muls(Family::Gcc), 6);
    }

    #[test]
    fn trip8_is_not_miscompiled() {
        let count_muls = |family: Family| {
            let (mut ir, p) = prep(&loop_src(8, true), family);
            let f = &mut ir.functions[0];
            run(f, &p);
            dce(f);
            f.reachable_blocks()
                .iter()
                .flat_map(|b| f.blocks[b.0 as usize].insts.clone())
                .filter(|i| {
                    matches!(
                        i,
                        Inst::Bin {
                            op: BinKind::Mul,
                            ..
                        }
                    )
                })
                .count()
        };
        assert_eq!(count_muls(Family::Gcc), count_muls(Family::Clang));
    }
}
