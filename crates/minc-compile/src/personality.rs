//! Compiler *personalities*: the implementation-defined and UB-exploiting
//! choices that make ten legal compilers produce ten different binaries.
//!
//! The paper uses gcc 11.1.0 and clang 13.0.1 at `-O0 -O1 -O2 -O3 -Os`
//! (10 "compiler implementations"). This module models each as a
//! [`CompilerImpl`] = family × optimization level, expanded into a concrete
//! [`Personality`] describing every divergence axis:
//!
//! * **argument evaluation order** — clang-sim evaluates first-to-last,
//!   gcc-sim last-to-first (matching the paper's tcpdump EvalOrder bug);
//! * **address-space layout** — segment bases, frame slot ordering and
//!   padding, global ordering, heap chunk geometry;
//! * **junk** — deterministic per-implementation contents of uninitialized
//!   stack/heap memory and unpromoted registers;
//! * **`__LINE__` attribution** — start line vs end line of multi-line
//!   constructs (implementation-defined; the paper's php LINE bug);
//! * **optimization pipeline** — which passes run, including the
//!   UB-assuming rewrites that *create* observable instability;
//! * **`rand()` sequence** — implementation-defined PRNG (a "Misc" bug
//!   source in the paper).

use std::fmt;

/// Compiler family, mirroring the two real compilers in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// Models gcc 11.1.0.
    Gcc,
    /// Models clang 13.0.1.
    Clang,
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Family::Gcc => write!(f, "gcc"),
            Family::Clang => write!(f, "clang"),
        }
    }
}

/// Optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptLevel {
    /// `-O0` (no optimization).
    O0,
    /// `-O1`.
    O1,
    /// `-O2`.
    O2,
    /// `-O3`.
    O3,
    /// `-Os` (optimize for size).
    Os,
}

impl OptLevel {
    /// All levels in the paper's order.
    pub const ALL: [OptLevel; 5] = [
        OptLevel::O0,
        OptLevel::O1,
        OptLevel::O2,
        OptLevel::O3,
        OptLevel::Os,
    ];

    /// True if the level runs the optimizer at all.
    pub fn optimizing(self) -> bool {
        self != OptLevel::O0
    }

    /// True for `-O2` and above (including `-Os`).
    pub fn aggressive(self) -> bool {
        matches!(self, OptLevel::O2 | OptLevel::O3 | OptLevel::Os)
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
            OptLevel::O3 => "O3",
            OptLevel::Os => "Os",
        };
        f.write_str(s)
    }
}

/// One of the paper's ten compiler implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompilerImpl {
    /// Compiler family.
    pub family: Family,
    /// Optimization level.
    pub level: OptLevel,
}

impl CompilerImpl {
    /// Creates an implementation.
    pub fn new(family: Family, level: OptLevel) -> Self {
        CompilerImpl { family, level }
    }

    /// The paper's default set: {gcc, clang} × {O0, O1, O2, O3, Os}.
    pub fn default_set() -> Vec<CompilerImpl> {
        let mut v = Vec::with_capacity(10);
        for family in [Family::Gcc, Family::Clang] {
            for level in OptLevel::ALL {
                v.push(CompilerImpl { family, level });
            }
        }
        v
    }

    /// A stable small integer id in `0..10`: the position in
    /// [`default_set`](CompilerImpl::default_set).
    pub fn index(&self) -> usize {
        let f = match self.family {
            Family::Gcc => 0,
            Family::Clang => 1,
        };
        let l = match self.level {
            OptLevel::O0 => 0,
            OptLevel::O1 => 1,
            OptLevel::O2 => 2,
            OptLevel::O3 => 3,
            OptLevel::Os => 4,
        };
        f * 5 + l
    }

    /// Parses `"gcc-O2"` style names.
    pub fn parse(s: &str) -> Option<CompilerImpl> {
        let (fam, lvl) = s.split_once('-')?;
        let family = match fam {
            "gcc" => Family::Gcc,
            "clang" => Family::Clang,
            _ => return None,
        };
        let level = match lvl {
            "O0" | "o0" | "0" => OptLevel::O0,
            "O1" | "o1" | "1" => OptLevel::O1,
            "O2" | "o2" | "2" => OptLevel::O2,
            "O3" | "o3" | "3" => OptLevel::O3,
            "Os" | "os" | "s" => OptLevel::Os,
            _ => return None,
        };
        Some(CompilerImpl { family, level })
    }

    /// Expands into the concrete divergence-axis choices.
    pub fn personality(&self) -> Personality {
        Personality::of(*self)
    }
}

impl fmt::Display for CompilerImpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.family, self.level)
    }
}

/// Order in which call arguments are evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvalOrder {
    /// First argument first (clang's observed behaviour).
    LeftToRight,
    /// Last argument first (gcc's observed behaviour).
    RightToLeft,
}

/// Which source line a multi-line construct's `__LINE__` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinePolicy {
    /// The line where the construct starts.
    StartLine,
    /// The line where it ends.
    EndLine,
}

/// Order of frame slots within an activation record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotOrder {
    /// Declaration order.
    Declared,
    /// Reverse declaration order.
    Reversed,
    /// Large-alignment slots first (what optimizing compilers tend to do).
    AlignDescending,
}

/// The full set of implementation-defined choices for one compiler
/// implementation. Everything here is *legal* per the C standard; the ten
/// personalities only disagree where the standard permits disagreement.
#[derive(Debug, Clone, PartialEq)]
pub struct Personality {
    /// Which implementation this is.
    pub id: CompilerImpl,
    /// Seed mixed into all junk/layout hashing; distinct per implementation.
    pub seed: u64,
    /// Call-argument evaluation order.
    pub eval_order: EvalOrder,
    /// `__LINE__` attribution for multi-line constructs.
    pub line_policy: LinePolicy,
    /// Frame slot ordering.
    pub slot_order: SlotOrder,
    /// Extra padding inserted between frame slots (bytes; `-O0` pads).
    pub slot_padding: u64,
    /// Base address of the rodata segment.
    pub rodata_base: u64,
    /// Base address of the globals segment.
    pub globals_base: u64,
    /// Whether globals are laid out in declaration order (`true`) or sorted
    /// by descending alignment then name (`false`).
    pub globals_declared_order: bool,
    /// Top of the stack (frames grow downward from here).
    pub stack_base: u64,
    /// Maximum stack size in bytes before a stack-overflow trap.
    pub stack_size: u64,
    /// Base address of the heap.
    pub heap_base: u64,
    /// Heap chunk alignment.
    pub heap_align: u64,
    /// Bytes of allocator metadata between chunks (affects OOB-read targets
    /// and use-after-free reuse distances).
    pub heap_header: u64,
    /// Seed of the implementation-defined `rand()` sequence.
    pub rand_seed: u64,
    /// How the constant folder treats out-of-range constant shifts: `true`
    /// folds them to 0, `false` folds with x86-style masking. Both are
    /// legal (the operation is UB) and real folders differ.
    pub shift_fold_zero: bool,
    /// Passes to run, in order.
    pub pipeline: Vec<PassKind>,
}

/// Identifiers for all optimization passes (see `crate::passes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassKind {
    /// Constant folding + algebraic simplification.
    ConstFold,
    /// Promote unaddressed scalar slots to registers (uninitialized ones
    /// become [`crate::ir::ConstVal::Junk`]).
    Mem2Reg,
    /// Block-local copy propagation.
    CopyProp,
    /// Block-local common subexpression elimination.
    Cse,
    /// Dead code elimination (unused pure instructions, unreachable blocks).
    /// Under the "UB never happens" licence this may delete unused loads
    /// and unused trapping divisions.
    Dce,
    /// Dead store elimination (block-local, to frame slots).
    Dse,
    /// UB-assuming rewrites: `a+b < a  =>  b < 0` (signed), `a+b > a => b > 0`,
    /// null-check elimination after a dominating dereference, oversized
    /// shift folding.
    UbExploit,
    /// Widen `(long)(a*b)` to 64-bit multiplication (legal only because
    /// signed overflow is UB) — clang-sim `-O1`+, the paper's IntError case.
    WidenMul,
    /// Inline small functions.
    Inline,
    /// Fully unroll small counted loops (`-O3`). The gcc-sim `-O3` unroller
    /// carries a deliberate, very narrow miscompilation bug (RQ2).
    Unroll,
    /// `pow()` -> fast imprecise form (clang-sim `-O3`; RQ2 float cases).
    PowFast,
    /// Straighten trivial jump chains and drop empty blocks.
    SimplifyCfg,
}

impl Personality {
    /// The personality of a given compiler implementation.
    pub fn of(id: CompilerImpl) -> Personality {
        use Family::*;
        use OptLevel::*;
        let seed = 0x9e37_79b9_7f4a_7c15u64
            .wrapping_mul(id.index() as u64 + 1)
            .rotate_left(17)
            ^ 0xc0ff_ee00_dead_beef;
        let (rodata_base, globals_base, stack_base, heap_base) = match id.family {
            Gcc => (0x0040_0000, 0x0060_0000, 0x7fff_ff00_0000, 0x0000_1000_0000),
            Clang => (0x0080_0000, 0x00a0_0000, 0x7ffe_fe00_0000, 0x0000_2000_0000),
        };
        let slot_order = match (id.family, id.level) {
            (_, O0) => SlotOrder::Declared,
            (Gcc, _) => SlotOrder::AlignDescending,
            (Clang, _) => SlotOrder::Reversed,
        };
        let slot_padding = match id.level {
            O0 => 8,
            _ => 0,
        };
        let (heap_align, heap_header) = match id.family {
            Gcc => (16, 16),
            Clang => (16, 32),
        };
        let pipeline = Self::pipeline_for(id);
        Personality {
            id,
            seed,
            eval_order: match id.family {
                Gcc => EvalOrder::RightToLeft,
                Clang => EvalOrder::LeftToRight,
            },
            line_policy: match id.family {
                Gcc => LinePolicy::EndLine,
                Clang => LinePolicy::StartLine,
            },
            slot_order,
            slot_padding,
            rodata_base,
            globals_base,
            globals_declared_order: id.family == Gcc,
            stack_base,
            stack_size: 1 << 22,
            heap_base,
            heap_align,
            heap_header,
            rand_seed: seed ^ 0x5eed_5eed_5eed_5eed,
            shift_fold_zero: id.family == Clang,
            pipeline,
        }
    }

    fn pipeline_for(id: CompilerImpl) -> Vec<PassKind> {
        use Family::*;
        use OptLevel::*;
        use PassKind::*;
        let mut p = Vec::new();
        if id.level == O0 {
            return p;
        }
        // -O1 common core.
        p.push(Mem2Reg);
        p.push(ConstFold);
        p.push(CopyProp);
        if id.family == Clang {
            // The paper's IntError example: clang-O1 widens a*b to long.
            p.push(WidenMul);
        }
        p.push(Dce);
        p.push(SimplifyCfg);
        if id.level.aggressive() {
            // Inline after the scalar core so callees are already compact,
            // then re-run the scalar pipeline over the merged bodies.
            p.push(Inline);
            p.push(Mem2Reg);
            p.push(UbExploit);
            p.push(ConstFold);
            p.push(Cse);
            p.push(CopyProp);
            p.push(Dse);
            p.push(Dce);
            p.push(SimplifyCfg);
        }
        if id.level == O3 {
            p.push(Unroll);
            p.push(ConstFold);
            p.push(Dce);
            p.push(SimplifyCfg);
            if id.family == Clang {
                p.push(PowFast);
            }
        }
        p
    }

    /// Deterministic junk byte for an uninitialized memory address: what a
    /// freshly mapped page "happens to contain" under this implementation.
    pub fn junk_byte(&self, addr: u64) -> u8 {
        let mut x = addr ^ self.seed;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        (x & 0xff) as u8
    }

    /// Deterministic junk word for an uninitialized register (promoted
    /// local); `id` is the `Junk` marker from mem2reg.
    pub fn junk_word(&self, id: u32) -> u64 {
        let mut x = (id as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ self.seed.rotate_left(29);
        x ^= x >> 31;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^= x >> 27;
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_set_has_ten_distinct_impls() {
        let set = CompilerImpl::default_set();
        assert_eq!(set.len(), 10);
        // `index` is the position in the default set (the campaign cache
        // finds its fuzz binary that way).
        let idx: Vec<usize> = set.iter().map(|c| c.index()).collect();
        assert_eq!(idx, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn parse_round_trips() {
        for c in CompilerImpl::default_set() {
            assert_eq!(CompilerImpl::parse(&c.to_string()), Some(c));
        }
        assert_eq!(CompilerImpl::parse("icc-O2"), None);
        assert_eq!(CompilerImpl::parse("gcc-O9"), None);
    }

    #[test]
    fn families_disagree_on_eval_order_and_line_policy() {
        let g = CompilerImpl::new(Family::Gcc, OptLevel::O2).personality();
        let c = CompilerImpl::new(Family::Clang, OptLevel::O2).personality();
        assert_ne!(g.eval_order, c.eval_order);
        assert_ne!(g.line_policy, c.line_policy);
        assert_ne!(g.stack_base, c.stack_base);
        assert_ne!(g.heap_header, c.heap_header);
    }

    #[test]
    fn o0_runs_no_passes() {
        let p = CompilerImpl::new(Family::Gcc, OptLevel::O0).personality();
        assert!(p.pipeline.is_empty());
        assert_eq!(p.slot_padding, 8);
    }

    #[test]
    fn clang_o1_widens_mul_gcc_does_not() {
        let c = CompilerImpl::new(Family::Clang, OptLevel::O1).personality();
        let g = CompilerImpl::new(Family::Gcc, OptLevel::O1).personality();
        assert!(c.pipeline.contains(&PassKind::WidenMul));
        assert!(!g.pipeline.contains(&PassKind::WidenMul));
    }

    #[test]
    fn o3_unrolls_and_clang_o3_fastpows() {
        let g3 = CompilerImpl::new(Family::Gcc, OptLevel::O3).personality();
        let c3 = CompilerImpl::new(Family::Clang, OptLevel::O3).personality();
        assert!(g3.pipeline.contains(&PassKind::Unroll));
        assert!(!g3.pipeline.contains(&PassKind::PowFast));
        assert!(c3.pipeline.contains(&PassKind::PowFast));
    }

    #[test]
    fn junk_is_deterministic_and_impl_specific() {
        let a = CompilerImpl::new(Family::Gcc, OptLevel::O0).personality();
        let b = CompilerImpl::new(Family::Clang, OptLevel::O0).personality();
        assert_eq!(a.junk_byte(0x1234), a.junk_byte(0x1234));
        assert_ne!(
            (0..64).map(|i| a.junk_byte(i)).collect::<Vec<_>>(),
            (0..64).map(|i| b.junk_byte(i)).collect::<Vec<_>>()
        );
        assert_eq!(a.junk_word(7), a.junk_word(7));
        assert_ne!(a.junk_word(7), b.junk_word(7));
    }

    #[test]
    fn seeds_are_distinct_across_all_ten() {
        let seeds: std::collections::HashSet<u64> = CompilerImpl::default_set()
            .iter()
            .map(|c| c.personality().seed)
            .collect();
        assert_eq!(seeds.len(), 10);
    }
}
