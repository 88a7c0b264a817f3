//! Execution hooks: the instrumentation seam for sanitizers and coverage.
//!
//! The differential binaries run with [`NoHooks`] — the paper's design
//! point is that CompDiff needs *no* instrumentation beyond a forkserver.
//! Sanitizer analogs (in the `sanitizers` crate) implement [`Hooks`] to get
//! ASan/UBSan/MSan-style checking; the fuzzer implements it for coverage.

use crate::result::Fault;
use minc_compile::ir::{BinKind, IrType};

/// Where in the program an event happened (function and block indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Function index.
    pub func: u32,
    /// Block index within the function.
    pub block: u32,
    /// Instruction index within the block.
    pub inst: u32,
}

/// What to do with a freed chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeDisposition {
    /// Return the chunk to the free list (normal allocators reuse memory —
    /// which is what makes use-after-free observable and unstable).
    Reuse,
    /// Quarantine the chunk (ASan-style; the address is never reused).
    Quarantine,
}

/// Uses of poisoned (uninitialized) values that MSan-style checking
/// reports. Mirrors the paper's description: MSan reports when an
/// uninitialized value *determines control flow or addressing*, not when
/// it is merely copied or printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoisonUse {
    /// A conditional branch condition.
    Branch,
    /// A load/store address.
    Address,
    /// A division or remainder operand.
    Divisor,
}

/// Instrumentation callbacks. All methods have no-op defaults.
///
/// Returning `Some(Fault)` from a check aborts execution with a sanitizer
/// report (like a real sanitizer's `abort()`).
pub trait Hooks {
    /// `true` iff this hook set observes nothing at all (every callback is
    /// the no-op default). The block dispatcher gates its per-op hook
    /// plumbing — location lookups, `check_bin` and `on_edge` calls — on this
    /// constant, so the uninstrumented path pays zero for it *structurally*
    /// rather than relying on the optimizer to dead-code it. Only set this
    /// on a hook set that overrides no callbacks (`bulk_mem_ok` aside).
    const INERT: bool = false;

    /// A control-flow edge was taken (for coverage).
    fn on_edge(&mut self, from: Loc, to: Loc) {
        let _ = (from, to);
    }

    /// Before a load of `width` bytes at `addr`.
    fn check_load(&mut self, addr: u64, width: u64, loc: Loc) -> Option<Fault> {
        let _ = (addr, width, loc);
        None
    }

    /// Before a store of `width` bytes at `addr`.
    fn check_store(&mut self, addr: u64, width: u64, loc: Loc) -> Option<Fault> {
        let _ = (addr, width, loc);
        None
    }

    /// Before a binary operation executes (UBSan checks overflow, shift
    /// range, division by zero here). Operand values are raw 64-bit
    /// (i32 values sign-extended).
    fn check_bin(
        &mut self,
        op: BinKind,
        ty: IrType,
        a: u64,
        b: u64,
        ub_signed: bool,
        loc: Loc,
    ) -> Option<Fault> {
        let _ = (op, ty, a, b, ub_signed, loc);
        None
    }

    /// Extra redzone bytes the allocator should place on each side of every
    /// heap chunk (ASan returns a non-zero value).
    fn heap_redzone(&self) -> u64 {
        0
    }

    /// After a successful `malloc`: `[addr, addr+size)` is the payload.
    fn on_malloc(&mut self, addr: u64, size: u64) {
        let _ = (addr, size);
    }

    /// On `free(addr)` of a live chunk of `size` bytes. May report a fault
    /// (ASan double-free etc. are detected by the sanitizer's own records).
    fn on_free(&mut self, addr: u64, size: u64, loc: Loc) -> Result<FreeDisposition, Fault> {
        let _ = (addr, size, loc);
        Ok(FreeDisposition::Reuse)
    }

    /// On `free` of a pointer that is not a live chunk (double free or
    /// invalid free). Returning `Some(Fault)` reports; `None` lets the VM
    /// model the native allocator's corruption behaviour.
    fn on_bad_free(&mut self, addr: u64, loc: Loc) -> Option<Fault> {
        let _ = (addr, loc);
        None
    }

    /// A function frame was entered; `slots` are (address, size) pairs of
    /// the frame's stack objects (ASan poisons the gaps; MSan poisons the
    /// slots as uninitialized).
    fn on_frame_enter(&mut self, lo: u64, hi: u64, slots: &[(u64, u64)]) {
        let _ = (lo, hi, slots);
    }

    /// The frame `[lo, hi)` was exited.
    fn on_frame_exit(&mut self, lo: u64, hi: u64) {
        let _ = (lo, hi);
    }

    /// Whether the VM should track value poisoning (MSan).
    fn track_poison(&self) -> bool {
        false
    }

    /// Is any byte of `[addr, addr+width)` poisoned?
    fn load_poison(&mut self, addr: u64, width: u64) -> bool {
        let _ = (addr, width);
        false
    }

    /// Record the poison state of a stored value.
    fn store_poison(&mut self, addr: u64, width: u64, poisoned: bool) {
        let _ = (addr, width, poisoned);
    }

    /// A poisoned value reached a reporting use.
    fn on_poison_use(&mut self, use_: PoisonUse, loc: Loc) -> Option<Fault> {
        let _ = (use_, loc);
        None
    }

    /// Whether the VM may service whole-range `memcpy`/`memset`/
    /// `read_input` with bulk page-slice operations, and read C strings
    /// (printf's format and `%s` argument, the string builtins' operands)
    /// in page chunks up to the first NUL. Only return `true` when this
    /// hook set does *no* per-byte work: no load/store checks, no poison
    /// tracking, no redzones. The VM still falls back to the byte loop
    /// whenever any byte of the range is invalid, and ends a string chunk
    /// where the per-byte checks would change region or trap, so traps and
    /// partial writes are unaffected either way — this is purely a
    /// fast-path permission.
    fn bulk_mem_ok(&self) -> bool {
        false
    }
}

/// The default: no instrumentation (differential binaries).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl Hooks for NoHooks {
    const INERT: bool = true;

    fn bulk_mem_ok(&self) -> bool {
        true
    }
}
