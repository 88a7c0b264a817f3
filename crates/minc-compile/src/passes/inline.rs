//! Function inlining (`-O2`+; smaller threshold at `-Os`).
//!
//! Inlining matters for CompDiff realism twice over: it merges callee
//! locals into the caller's frame (changing stack layout and thus
//! uninitialized/OOB behaviour), and it exposes cross-function UB patterns
//! to `ub_exploit`.

use crate::ir::*;

/// Maximum number of inlining operations per function (expansion guard).
const MAX_INLINES_PER_FUNCTION: usize = 24;

/// Runs the inliner over the whole program, inlining callees of at most
/// `threshold` instructions (the pipeline's [`PassKind::Inline`] sets it).
///
/// [`PassKind::Inline`]: crate::personality::PassKind::Inline
pub fn run(prog: &mut IrProgram, threshold: usize) {
    let n = prog.functions.len();
    for caller in 0..n {
        let mut budget = MAX_INLINES_PER_FUNCTION;
        loop {
            if budget == 0 {
                break;
            }
            let Some((block, idx, callee)) = find_inlinable(prog, caller, threshold) else {
                break;
            };
            let callee_fn = prog.functions[callee.0 as usize].clone();
            inline_one(&mut prog.functions[caller], block, idx, &callee_fn);
            budget -= 1;
        }
    }
}

/// Finds the first inlinable call site in `caller`.
fn find_inlinable(
    prog: &IrProgram,
    caller: usize,
    threshold: usize,
) -> Option<(BlockId, usize, FuncId)> {
    let f = &prog.functions[caller];
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, inst) in b.insts.iter().enumerate() {
            if let Inst::Call {
                callee: Callee::Func(fid),
                ..
            } = inst
            {
                if fid.0 as usize == caller {
                    continue; // recursion
                }
                let callee = &prog.functions[fid.0 as usize];
                if callee.inst_count() > threshold {
                    continue;
                }
                if callee.name == "main" {
                    continue;
                }
                // Callee must not call itself or the caller (mutual recursion).
                let recursive = callee.blocks.iter().flat_map(|b| &b.insts).any(|i| {
                    matches!(i, Inst::Call { callee: Callee::Func(g), .. }
                             if g.0 as usize == caller || g == fid)
                });
                if recursive {
                    continue;
                }
                return Some((BlockId(bi as u32), ii, *fid));
            }
        }
    }
    None
}

/// Splices `callee` into `caller` at the given call site.
fn inline_one(caller: &mut IrFunction, block: BlockId, idx: usize, callee: &IrFunction) {
    let reg_off = caller.reg_count;
    let slot_off = caller.slots.len() as u32;
    let block_off = caller.blocks.len() as u32;

    // Extract the call.
    let call = caller.blocks[block.0 as usize].insts[idx].clone();
    let Inst::Call {
        dst: call_dst,
        args,
        ..
    } = call
    else {
        panic!("inline target is not a call")
    };

    // Split the caller block: everything after the call moves to `cont`.
    let tail: Vec<Inst> = caller.blocks[block.0 as usize].insts.split_off(idx + 1);
    caller.blocks[block.0 as usize].insts.pop(); // the call itself
    let old_term = caller.blocks[block.0 as usize].term.clone();

    // Import callee registers and slots. Source lines travel with the
    // registers so inlined code stays attributable.
    for (i, ty) in callee.reg_tys.iter().enumerate() {
        caller.reg_tys.push(*ty);
        caller
            .reg_lines
            .push(callee.reg_lines.get(i).copied().unwrap_or(0));
    }
    caller.reg_count += callee.reg_count;
    for s in &callee.slots {
        caller.slots.push(s.clone());
    }

    let map_block = |b: BlockId| BlockId(b.0 + block_off);

    // The continuation block.
    let cont = BlockId((caller.blocks.len() + callee.blocks.len()) as u32);

    // Import callee blocks with remapping; returns become jumps to cont.
    for cb in &callee.blocks {
        let mut insts = Vec::with_capacity(cb.insts.len());
        for inst in &cb.insts {
            insts.push(remap_inst(inst, reg_off, slot_off));
        }
        let mut term = cb.term.clone();
        term.for_each_use_mut(|v| v.0 += reg_off);
        let term = match term {
            Terminator::Jump(t) => Terminator::Jump(map_block(t)),
            Terminator::Br { cond, then, els } => Terminator::Br {
                cond,
                then: map_block(then),
                els: map_block(els),
            },
            Terminator::Ret(v) => {
                if let (Some(dst), Some(src)) = (call_dst, v) {
                    let ty = caller.reg_tys[dst.0 as usize];
                    insts.push(Inst::Copy { dst, ty, src });
                }
                Terminator::Jump(cont)
            }
            Terminator::Unreachable => Terminator::Unreachable,
        };
        caller.blocks.push(Block { insts, term });
    }

    // Continuation block gets the tail and the original terminator.
    caller.blocks.push(Block {
        insts: tail,
        term: old_term,
    });
    debug_assert_eq!(caller.blocks.len() as u32 - 1, cont.0);

    // Pass arguments: copy into the callee's parameter registers, then jump
    // to the callee entry.
    let entry = map_block(BlockId(0));
    let site = &mut caller.blocks[block.0 as usize];
    for (i, a) in args.iter().enumerate() {
        let param = ValueId(i as u32 + reg_off);
        let ty = callee.param_tys.get(i).copied().unwrap_or(IrType::I64);
        site.insts.push(Inst::Copy {
            dst: param,
            ty,
            src: *a,
        });
    }
    site.term = Terminator::Jump(entry);
}

/// `inst` with its registers and slot moved past the caller's own.
fn remap_inst(inst: &Inst, reg_off: u32, slot_off: u32) -> Inst {
    let mut inst = inst.clone();
    if let Some(d) = inst.dst_mut() {
        d.0 += reg_off;
    }
    inst.for_each_use_mut(|v| v.0 += reg_off);
    if let Inst::FrameAddr { slot, .. } = &mut inst {
        slot.0 += slot_off;
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::personality::{CompilerImpl, Family, OptLevel, PassKind};

    /// The lowered program after the scalar core, and the inlining
    /// threshold `level`'s pipeline gives the inliner.
    fn lower_with(src: &str, level: OptLevel) -> (IrProgram, usize) {
        let checked = minc::check(src).unwrap();
        let p = CompilerImpl::new(Family::Gcc, level).personality();
        let threshold = p
            .pipeline
            .iter()
            .find_map(|pass| match pass {
                PassKind::Inline { threshold } => Some(*threshold),
                _ => None,
            })
            .expect("the level inlines");
        let mut ir = lower(&checked, &p);
        // The pipeline runs the scalar core before inlining; mirror that so
        // callee sizes match what the inliner sees in production.
        for (i, f) in ir.functions.iter_mut().enumerate() {
            crate::passes::mem2reg::run(f, i as u32);
            crate::passes::const_fold(f);
            crate::passes::copy_prop(f);
            crate::passes::dce(f);
            crate::passes::simplify_cfg(f);
        }
        (ir, threshold)
    }

    #[test]
    fn inlines_small_callee() {
        let src = "int two(int x) { return x + x; }\nint main() { return two(21); }";
        let (mut ir, threshold) = lower_with(src, OptLevel::O2);
        run(&mut ir, threshold);
        let main = ir.functions.iter().find(|f| f.name == "main").unwrap();
        let calls = main
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| {
                matches!(
                    i,
                    Inst::Call {
                        callee: Callee::Func(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(calls, 0, "small callee should be fully inlined");
    }

    #[test]
    fn does_not_inline_recursive() {
        let src = "int fac(int n) { if (n <= 1) return 1; return n * fac(n - 1); }\nint main() { return fac(5); }";
        let (mut ir, threshold) = lower_with(src, OptLevel::O2);
        run(&mut ir, threshold);
        let main = ir.functions.iter().find(|f| f.name == "main").unwrap();
        let calls = main
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| {
                matches!(
                    i,
                    Inst::Call {
                        callee: Callee::Func(_),
                        ..
                    }
                )
            })
            .count();
        assert!(calls >= 1, "recursive callee must not be inlined away");
    }

    #[test]
    fn callee_slots_merge_into_caller_frame() {
        let src = r#"
            int f(int x) { int tmp[2]; tmp[0] = x; tmp[1] = x + 1; return tmp[0] + tmp[1]; }
            int main() { return f(3); }
        "#;
        let (mut ir, threshold) = lower_with(src, OptLevel::O2);
        let before = ir
            .functions
            .iter()
            .find(|f| f.name == "main")
            .unwrap()
            .slots
            .len();
        run(&mut ir, threshold);
        let after = ir
            .functions
            .iter()
            .find(|f| f.name == "main")
            .unwrap()
            .slots
            .len();
        assert!(after > before, "caller frame should absorb callee slots");
    }

    #[test]
    fn os_threshold_is_smaller() {
        // A mid-size function: inlined at O2, kept at Os.
        let body: String = (0..10).map(|i| format!("acc = acc + {i}; ")).collect();
        let src =
            format!("int mid(int acc) {{ {body} return acc; }}\nint main() {{ return mid(1); }}");
        let (mut ir2, t2) = lower_with(&src, OptLevel::O2);
        run(&mut ir2, t2);
        let (mut irs, ts) = lower_with(&src, OptLevel::Os);
        run(&mut irs, ts);
        let count_calls = |ir: &IrProgram| {
            ir.functions
                .iter()
                .find(|f| f.name == "main")
                .unwrap()
                .blocks
                .iter()
                .flat_map(|b| &b.insts)
                .filter(|i| {
                    matches!(
                        i,
                        Inst::Call {
                            callee: Callee::Func(_),
                            ..
                        }
                    )
                })
                .count()
        };
        assert_eq!(count_calls(&ir2), 0);
        assert!(count_calls(&irs) >= 1);
    }
}
