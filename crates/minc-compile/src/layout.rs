//! Data layout: struct field offsets (shared by all implementations) and
//! per-personality placement of globals, rodata, and frame slots.

use crate::ir::{GlobalSpec, IrFunction, SlotInfo};
use crate::personality::{Personality, SlotOrder};
use minc::types::Type;
use minc::CheckedProgram;
use std::collections::BTreeMap;

/// Computed layout of one struct.
#[derive(Debug, Clone, PartialEq)]
pub struct StructLayout {
    /// Field byte offsets, parallel to the `StructDef`'s field list.
    pub offsets: Vec<u64>,
    /// Total padded size.
    pub size: u64,
    /// Alignment.
    pub align: u64,
}

/// Struct layouts for a checked program. MinC uses the conventional
/// natural-alignment algorithm, identical across implementations (like real
/// x86-64 gcc/clang, which share the SysV ABI); instability comes from
/// *where objects live*, not from field offsets.
#[derive(Debug, Clone, Default)]
pub struct StructLayouts {
    /// Keyed by struct name, which comes from the source: a `BTreeMap`,
    /// so no source can choose names that collide under a hash.
    map: BTreeMap<String, StructLayout>,
}

impl StructLayouts {
    /// Computes layouts for every struct in `checked`.
    pub fn compute(checked: &CheckedProgram) -> StructLayouts {
        let mut layouts = StructLayouts {
            map: BTreeMap::new(),
        };
        // Structs may reference earlier structs; iterate until settled
        // (sema guarantees acyclicity, so one pass in definition order with
        // recursion would do — we just recurse on demand).
        for def in &checked.program.structs {
            layouts.layout_of(&def.name, checked);
        }
        layouts
    }

    fn layout_of(&mut self, name: &str, checked: &CheckedProgram) -> StructLayout {
        if let Some(l) = self.map.get(name) {
            return l.clone();
        }
        let def = checked.program.struct_def(name).expect("unknown struct");
        let mut offset = 0u64;
        let mut align = 1u64;
        let mut offsets = Vec::with_capacity(def.fields.len());
        for f in &def.fields {
            let (fsize, falign) = self.size_align(&f.ty, checked);
            offset = round_up(offset, falign);
            offsets.push(offset);
            offset += fsize;
            align = align.max(falign);
        }
        let size = round_up(offset.max(1), align);
        let l = StructLayout {
            offsets,
            size,
            align,
        };
        self.map.insert(name.to_string(), l.clone());
        l
    }

    /// `(size, align)` of any complete type under this layout.
    pub fn size_align(&mut self, ty: &Type, checked: &CheckedProgram) -> (u64, u64) {
        match ty {
            Type::Struct(name) => {
                let l = self.layout_of(name, checked);
                (l.size, l.align)
            }
            Type::Array(inner, n) => {
                let (s, a) = self.size_align(inner, checked);
                (s * n, a)
            }
            scalar => (scalar.scalar_size(), scalar.scalar_size()),
        }
    }

    /// Size of a type (padded for structs).
    pub fn size_of(&mut self, ty: &Type, checked: &CheckedProgram) -> u64 {
        self.size_align(ty, checked).0
    }

    /// Byte offset of `field` within `struct name`.
    ///
    /// # Panics
    ///
    /// Panics if the struct or field does not exist (sema prevents this).
    pub fn field_offset(&mut self, name: &str, field: &str, checked: &CheckedProgram) -> u64 {
        let def = checked.program.struct_def(name).expect("unknown struct");
        let idx = def
            .fields
            .iter()
            .position(|f| f.name == field)
            .expect("unknown field");
        let l = self.layout_of(name, checked);
        l.offsets[idx]
    }
}

/// Rounds `v` up to a multiple of `align` (a power of two or any positive).
pub fn round_up(v: u64, align: u64) -> u64 {
    debug_assert!(align > 0);
    v.div_ceil(align) * align
}

/// Address assignment for the globals segment under a personality.
///
/// Returns per-global absolute addresses. gcc-sim places globals in
/// declaration order; clang-sim sorts by descending alignment then name —
/// both are legal, and the difference is what makes cross-object
/// out-of-bounds reads and pointer comparisons *unstable*.
pub fn place_globals(globals: &[GlobalSpec], personality: &Personality) -> Vec<u64> {
    let mut order: Vec<usize> = (0..globals.len()).collect();
    if !personality.globals_declared_order {
        order.sort_by(|&a, &b| {
            globals[b]
                .align
                .cmp(&globals[a].align)
                .then_with(|| globals[a].name.cmp(&globals[b].name))
        });
    }
    let mut addrs = vec![0u64; globals.len()];
    let mut cursor = personality.globals_base;
    for idx in order {
        let g = &globals[idx];
        cursor = round_up(cursor, g.align.max(1));
        addrs[idx] = cursor;
        cursor += g.size.max(1);
    }
    addrs
}

/// Address assignment for rodata strings (NUL-terminated, 8-byte aligned to
/// keep addresses readable in diagnostics).
pub fn place_strings(strings: &[Vec<u8>], personality: &Personality) -> Vec<u64> {
    let mut addrs = Vec::with_capacity(strings.len());
    let mut cursor = personality.rodata_base;
    for s in strings {
        addrs.push(cursor);
        cursor = round_up(cursor + s.len() as u64, 8);
    }
    addrs
}

/// Frame layout of one function: per-slot offsets from the frame base
/// (frame base = old stack pointer; the frame occupies
/// `[base - frame_size, base)`, offsets are *downward* distances).
#[derive(Debug, Clone, PartialEq)]
pub struct FrameLayout {
    /// For each slot: distance of the slot's *first byte* below the frame
    /// base, i.e. the slot lives at `base - offset_down[i] .. + size`.
    pub offset_down: Vec<u64>,
    /// Total frame size in bytes (16-aligned).
    pub frame_size: u64,
}

/// Lays out a function's frame slots under a personality.
pub fn place_frame(func: &IrFunction, personality: &Personality) -> FrameLayout {
    let slots: &[SlotInfo] = &func.slots;
    let mut order: Vec<usize> = (0..slots.len()).collect();
    match personality.slot_order {
        SlotOrder::Declared => {}
        SlotOrder::Reversed => order.reverse(),
        SlotOrder::AlignDescending => {
            order.sort_by(|&a, &b| {
                slots[b]
                    .align
                    .cmp(&slots[a].align)
                    .then_with(|| slots[b].size.cmp(&slots[a].size))
                    .then_with(|| a.cmp(&b))
            });
        }
    }
    let mut offset_down = vec![0u64; slots.len()];
    // Start below the frame base by the padding amount so the topmost slot
    // also has a gap above it (ASan-style builds poison these gaps).
    let mut cursor = personality.slot_padding;
    for idx in order {
        let s = &slots[idx];
        if s.promoted {
            continue;
        }
        let size = s.size.max(1);
        cursor += size;
        cursor = round_up(cursor, s.align.max(1));
        offset_down[idx] = cursor;
        cursor += personality.slot_padding;
    }
    let frame_size = round_up(cursor.max(16), 16);
    FrameLayout {
        offset_down,
        frame_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::GlobalInit;
    use crate::personality::{CompilerImpl, Family, OptLevel};

    #[test]
    fn round_up_works() {
        assert_eq!(round_up(0, 8), 0);
        assert_eq!(round_up(1, 8), 8);
        assert_eq!(round_up(8, 8), 8);
        assert_eq!(round_up(9, 4), 12);
    }

    #[test]
    fn struct_layout_natural_alignment() {
        let checked = minc::check(
            "struct s { char c; int i; char d; long l; };\nint main() { struct s v; v.i = 1; return v.i; }",
        )
        .unwrap();
        let mut layouts = StructLayouts::compute(&checked);
        assert_eq!(layouts.field_offset("s", "c", &checked), 0);
        assert_eq!(layouts.field_offset("s", "i", &checked), 4);
        assert_eq!(layouts.field_offset("s", "d", &checked), 8);
        assert_eq!(layouts.field_offset("s", "l", &checked), 16);
        assert_eq!(layouts.size_of(&Type::Struct("s".into()), &checked), 24);
    }

    #[test]
    fn global_placement_differs_across_families() {
        let globals = vec![
            GlobalSpec {
                name: "a".into(),
                size: 1,
                align: 1,
                init: GlobalInit::Zero,
            },
            GlobalSpec {
                name: "b".into(),
                size: 8,
                align: 8,
                init: GlobalInit::Zero,
            },
        ];
        let g = CompilerImpl::new(Family::Gcc, OptLevel::O0).personality();
        let c = CompilerImpl::new(Family::Clang, OptLevel::O0).personality();
        let ga = place_globals(&globals, &g);
        let ca = place_globals(&globals, &c);
        // gcc: declaration order => a before b; clang: align-desc => b first.
        assert!(ga[0] < ga[1]);
        assert!(ca[1] < ca[0]);
    }

    #[test]
    fn string_placement_is_disjoint() {
        let strings = vec![b"hello\0".to_vec(), b"x\0".to_vec()];
        let p = CompilerImpl::new(Family::Gcc, OptLevel::O0).personality();
        let addrs = place_strings(&strings, &p);
        assert!(addrs[1] >= addrs[0] + 6);
    }

    #[test]
    fn frame_layout_covers_all_slots_disjointly() {
        let mut f = crate::ir::IrFunction {
            name: "t".into(),
            param_count: 0,
            param_tys: vec![],
            ret_ty: None,
            blocks: vec![],
            slots: vec![
                SlotInfo {
                    name: "a".into(),
                    size: 4,
                    align: 4,
                    addressed: true,
                    scalar: None,
                    promoted: false,
                },
                SlotInfo {
                    name: "b".into(),
                    size: 16,
                    align: 8,
                    addressed: true,
                    scalar: None,
                    promoted: false,
                },
                SlotInfo {
                    name: "c".into(),
                    size: 1,
                    align: 1,
                    addressed: true,
                    scalar: None,
                    promoted: false,
                },
            ],
            reg_count: 0,
            reg_tys: vec![],
            reg_lines: vec![],
        };
        f.new_block();
        for impl_ in CompilerImpl::default_set() {
            let p = impl_.personality();
            let l = place_frame(&f, &p);
            assert_eq!(l.frame_size % 16, 0);
            // Slot ranges [base-off, base-off+size) must not overlap.
            let mut ranges: Vec<(u64, u64)> = f
                .slots
                .iter()
                .zip(&l.offset_down)
                .map(|(s, &off)| (off, off - s.size.max(1) + s.size.max(1)))
                .map(|(off, _)| (off, off))
                .collect();
            // Simpler overlap check via sorted starts: slot i occupies
            // [frame_size - off .. frame_size - off + size) in a 0-based frame.
            let mut occ: Vec<(u64, u64)> = f
                .slots
                .iter()
                .zip(&l.offset_down)
                .map(|(s, &off)| {
                    let start = l.frame_size - off;
                    (start, start + s.size.max(1))
                })
                .collect();
            occ.sort_unstable();
            for w in occ.windows(2) {
                assert!(w[0].1 <= w[1].0, "slots overlap under {impl_}: {occ:?}");
            }
            ranges.clear();
        }
    }

    #[test]
    fn o0_padding_separates_slots() {
        let mut f = crate::ir::IrFunction {
            name: "t".into(),
            param_count: 0,
            param_tys: vec![],
            ret_ty: None,
            blocks: vec![],
            slots: vec![
                SlotInfo {
                    name: "a".into(),
                    size: 4,
                    align: 4,
                    addressed: true,
                    scalar: None,
                    promoted: false,
                },
                SlotInfo {
                    name: "b".into(),
                    size: 4,
                    align: 4,
                    addressed: true,
                    scalar: None,
                    promoted: false,
                },
            ],
            reg_count: 0,
            reg_tys: vec![],
            reg_lines: vec![],
        };
        f.new_block();
        let o0 = CompilerImpl::new(Family::Gcc, OptLevel::O0).personality();
        let o2 = CompilerImpl::new(Family::Gcc, OptLevel::O2).personality();
        let l0 = place_frame(&f, &o0);
        let l2 = place_frame(&f, &o2);
        let gap0 = l0.offset_down[1].abs_diff(l0.offset_down[0]);
        let gap2 = l2.offset_down[1].abs_diff(l2.offset_down[0]);
        assert!(gap0 > gap2, "O0 should pad more: {gap0} vs {gap2}");
    }
}
