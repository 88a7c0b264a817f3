//! Slot-to-register promotion.
//!
//! At `-O0` every local lives in a frame slot; reading an uninitialized
//! local reads whatever bytes the stack happens to contain. At `-O1`+ this
//! pass promotes unaddressed scalar slots to virtual registers; an
//! uninitialized promoted local reads *register* junk instead. Both values
//! are indeterminate — and different per compiler implementation — which is
//! exactly why uninitialized-variable bugs are the paper's most common
//! unstable-code class (UninitMem, 27 of 78 real-world bugs).

use crate::ir::*;
use crate::personality::CompilerImpl;
use crate::rewrite_log::{RewriteLog, UbReason};

/// Promotes every promotable slot of `f`. `func_index` seeds junk ids so
/// different functions get different indeterminate values.
pub fn run(f: &mut IrFunction, func_index: u32) {
    run_inner(f, func_index);
}

/// Like [`run`], but records each promotion into `log` (when provided) as
/// an [`UbReason::UninitPromotion`] entry attributed to `impl_id`. The
/// entry's `key` is the junk id seeded into the promoted register, so a
/// consumer that sees that junk value flow into an observable use can
/// attribute the read back to this promotion.
pub fn run_logged(
    f: &mut IrFunction,
    func_index: u32,
    impl_id: CompilerImpl,
    log: Option<&mut RewriteLog>,
) {
    let promos = run_inner(f, func_index);
    if let Some(log) = log {
        for p in promos {
            log.record(
                impl_id,
                &f.name,
                UbReason::UninitPromotion,
                p.first_load_line,
                p.junk_id,
                format!(
                    "promoted slot `{}` to a register seeded with implementation-specific \
                     junk; any read before a store observes an indeterminate value",
                    p.slot_name
                ),
            );
        }
    }
}

/// One slot promotion, for provenance logging.
struct Promotion {
    junk_id: u32,
    slot_name: String,
    /// Source line of the first load rewritten for this slot (0 if the
    /// slot is never loaded).
    first_load_line: u32,
}

fn run_inner(f: &mut IrFunction, func_index: u32) -> Vec<Promotion> {
    let candidates: Vec<SlotId> = f
        .slots
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.addressed && !s.promoted && s.scalar.is_some())
        .map(|(i, _)| SlotId(i as u32))
        .collect();
    if candidates.is_empty() {
        return Vec::new();
    }

    // Map: FrameAddr destination register -> slot, across the whole function
    // (each FrameAddr has a fresh, never-redefined destination by
    // construction; verify anyway).
    let mut addr_reg: IdMap<ValueId, SlotId> = IdMap::default();
    let mut multiply_defined: IdSet<ValueId> = IdSet::default();
    let mut defined: IdSet<ValueId> = IdSet::default();
    for b in &f.blocks {
        for inst in &b.insts {
            if let Some(d) = inst.dst() {
                if !defined.insert(d) {
                    multiply_defined.insert(d);
                }
            }
            if let Inst::FrameAddr { dst, slot } = inst {
                addr_reg.insert(*dst, *slot);
            }
        }
    }

    // A slot is promotable iff every use of each of its address registers is
    // a Load/Store *address* of the slot's full scalar width.
    let mut bad: IdSet<SlotId> = IdSet::default();
    let cand_set: IdSet<SlotId> = candidates.iter().copied().collect();
    for (r, s) in &addr_reg {
        if multiply_defined.contains(r) {
            bad.insert(*s);
        }
    }
    for b in &f.blocks {
        for inst in &b.insts {
            let check = |v: ValueId, bad: &mut IdSet<SlotId>| {
                if let Some(s) = addr_reg.get(&v) {
                    if cand_set.contains(s) {
                        bad.insert(*s);
                    }
                }
            };
            match inst {
                Inst::Load { addr, width, .. } => {
                    if let Some(s) = addr_reg.get(addr) {
                        if cand_set.contains(s) && f.slots[s.0 as usize].size != width.bytes() {
                            bad.insert(*s);
                        }
                    }
                }
                Inst::Store { addr, src, width } => {
                    if let Some(s) = addr_reg.get(addr) {
                        if cand_set.contains(s) && f.slots[s.0 as usize].size != width.bytes() {
                            bad.insert(*s);
                        }
                    }
                    check(*src, &mut bad);
                }
                other => other.for_each_use(|u| check(u, &mut bad)),
            }
        }
        b.term.for_each_use(|v| {
            if let Some(s) = addr_reg.get(&v) {
                bad.insert(*s);
            }
        });
    }

    let promote: Vec<SlotId> = candidates
        .into_iter()
        .filter(|s| !bad.contains(s))
        .collect();
    if promote.is_empty() {
        return Vec::new();
    }

    // One register per promoted slot, junk-initialized in the entry block.
    let mut slot_reg: IdMap<SlotId, ValueId> = IdMap::default();
    let mut inits = Vec::new();
    let mut promos: Vec<Promotion> = Vec::new();
    let mut promo_index: IdMap<SlotId, usize> = IdMap::default();
    for s in &promote {
        let ty = f.slots[s.0 as usize].scalar.expect("candidate is scalar");
        let r = f.new_reg(ty);
        slot_reg.insert(*s, r);
        let junk_id = 0x4000_0000 | (func_index << 12) | s.0;
        inits.push(Inst::Const {
            dst: r,
            ty,
            val: ConstVal::Junk(junk_id),
        });
        promo_index.insert(*s, promos.len());
        promos.push(Promotion {
            junk_id,
            slot_name: f.slots[s.0 as usize].name.clone(),
            first_load_line: 0,
        });
        f.slots[s.0 as usize].promoted = true;
    }

    // Rewrite all blocks.
    for b in &mut f.blocks {
        let mut out = Vec::with_capacity(b.insts.len());
        for inst in b.insts.drain(..) {
            match &inst {
                Inst::FrameAddr { dst, slot } if slot_reg.contains_key(slot) => {
                    // Deleted; remember nothing (map already built).
                    let _ = dst;
                }
                Inst::Load { dst, ty, addr, .. } => {
                    if let Some(s) = addr_reg.get(addr).filter(|s| slot_reg.contains_key(s)) {
                        let p = &mut promos[promo_index[s]];
                        if p.first_load_line == 0 {
                            p.first_load_line =
                                f.reg_lines.get(dst.0 as usize).copied().unwrap_or(0);
                        }
                        out.push(Inst::Copy {
                            dst: *dst,
                            ty: *ty,
                            src: slot_reg[s],
                        });
                    } else {
                        out.push(inst);
                    }
                }
                Inst::Store { addr, src, .. } => {
                    if let Some(s) = addr_reg.get(addr).filter(|s| slot_reg.contains_key(s)) {
                        let r = slot_reg[s];
                        let ty = f.reg_tys[r.0 as usize];
                        out.push(Inst::Copy {
                            dst: r,
                            ty,
                            src: *src,
                        });
                    } else {
                        out.push(inst);
                    }
                }
                _ => out.push(inst),
            }
        }
        b.insts = out;
    }
    // Prepend junk initializers to the entry block.
    let entry = &mut f.blocks[0];
    inits.append(&mut entry.insts);
    entry.insts = inits;
    promos
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

    #[test]
    fn promotes_simple_scalars() {
        let mut ir = lower_o0("int main() { int a = 1; int b = 2; return a + b; }");
        let f = &mut ir.functions[0];
        run(f, 0);
        assert!(f.slots.iter().all(|s| s.promoted));
        let frame_loads = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| {
                matches!(
                    i,
                    Inst::Load { .. } | Inst::Store { .. } | Inst::FrameAddr { .. }
                )
            })
            .count();
        assert_eq!(frame_loads, 0);
    }

    #[test]
    fn skips_addressed_slots() {
        let mut ir = lower_o0("int main() { int a = 1; int* p = &a; *p = 2; return a; }");
        let f = &mut ir.functions[0];
        run(f, 0);
        let a = f.slots.iter().find(|s| s.name == "a").unwrap();
        let p = f.slots.iter().find(|s| s.name == "p").unwrap();
        assert!(!a.promoted);
        assert!(p.promoted);
    }

    #[test]
    fn skips_arrays() {
        let mut ir = lower_o0("int main() { int a[4]; a[0] = 1; return a[0]; }");
        let f = &mut ir.functions[0];
        run(f, 0);
        assert!(!f.slots.iter().find(|s| s.name == "a").unwrap().promoted);
    }

    #[test]
    fn uninitialized_promoted_local_reads_junk() {
        let mut ir = lower_o0("int main() { int u; return u; }");
        let f = &mut ir.functions[0];
        run(f, 0);
        let junk = f.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Inst::Const {
                    val: ConstVal::Junk(_),
                    ..
                }
            )
        });
        assert!(junk);
    }

    #[test]
    fn params_still_initialized_after_promotion() {
        let mut ir = lower_o0("int f(int x) { return x + 1; }\nint main() { return f(4); }");
        let f = &mut ir.functions[0];
        run(f, 0);
        // The parameter spill became a Copy from v0 into the slot register.
        let has_param_copy = f.blocks[0].insts.iter().any(|i| {
            matches!(
                i,
                Inst::Copy {
                    src: ValueId(0),
                    ..
                }
            )
        });
        assert!(has_param_copy);
    }

    #[test]
    fn promotion_shrinks_the_frame() {
        let src = "int main() { int a = 1; int b = 2; int c[4]; c[0] = a; return b + c[0]; }";
        let checked = minc::check(src).unwrap();
        let p0 = CompilerImpl::new(Family::Gcc, OptLevel::O0).personality();
        let mut ir = lower(&checked, &p0);
        let f = &mut ir.functions[0];
        let full = crate::layout::place_frame(f, &p0).frame_size;
        run(f, 0);
        let shrunk = crate::layout::place_frame(f, &p0).frame_size;
        assert!(shrunk < full, "frame should shrink: {full} -> {shrunk}");
    }
}
