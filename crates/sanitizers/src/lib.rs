//! # sanitizers — ASan / UBSan / MSan analogs for the MinC VM
//!
//! The CompDiff paper compares against the three mainstream sanitizers;
//! this crate reproduces each one's *scope* (paper Table 1) as VM
//! instrumentation:
//!
//! | analog | scope | mechanism |
//! |---|---|---|
//! | [`Asan`]  | memory errors | redzones + quarantine + stack poisoning |
//! | [`Ubsan`] | arithmetic/shift/div/null UB | per-operation checks |
//! | [`Msan`]  | uses of uninitialized memory | byte-granular definedness shadow, reported at branch/address/divisor uses |
//!
//! ASan's redzone and quarantine states and MSan's definedness bits live
//! in a [`shadow::Shadow`]: one state per address, stored in 4 KiB pages,
//! so marking a heap chunk or a stack frame fills one slice per page and
//! checking an access reads one.
//!
//! Sanitizer binaries are *separate builds* (like `-fsanitize=` builds):
//! [`sanitizer_personality`] is clang-sim `-O1` with extra frame padding so
//! stack redzones exist, mirroring how real ASan instruments frames.
//!
//! ```
//! use sanitizers::{compile_sanitized, run_sanitized};
//! use minc_vm::{ExitStatus, SanitizerKind, VmConfig};
//!
//! # fn main() -> Result<(), minc::FrontendError> {
//! let bin = compile_sanitized("int main() { char b[4]; b[6] = 1; return 0; }")?;
//! let r = run_sanitized(&bin, b"", &VmConfig::default(), SanitizerKind::Asan);
//! assert!(matches!(r.status, ExitStatus::Sanitizer(_)));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
pub mod asan;
pub mod msan;
pub mod shadow;
pub mod ubsan;

pub use asan::Asan;
pub use msan::Msan;
pub use ubsan::Ubsan;

use minc::FrontendError;
use minc_compile::ir::{BinKind, IrType};
use minc_compile::{Binary, CompilerImpl, Personality};
use minc_vm::hooks::{FreeDisposition, Hooks, Loc, PoisonUse};
use minc_vm::result::{Fault, SanitizerKind};
use minc_vm::{ExecResult, VmConfig};

/// The build configuration for sanitizer binaries: clang-sim `-O1` with
/// 16-byte gaps between stack slots (so stack redzones exist — real ASan
/// does the same by growing frames).
pub fn sanitizer_personality() -> Personality {
    let mut p = CompilerImpl::parse("clang-O1")
        .expect("valid impl")
        .personality();
    p.slot_padding = 16;
    // Real -fsanitize builds insert checks in the frontend, *before* the
    // optimizer can delete "dead" UB operations; model that by keeping
    // dead loads/divisions alive in sanitizer builds (no DCE, no widening).
    use minc_compile::PassKind::*;
    p.pipeline = vec![Mem2Reg, ConstFold, CopyProp, SimplifyCfg];
    p
}

/// Compiles `src` the way a `-fsanitize=` build would.
///
/// # Errors
///
/// Returns the frontend error if `src` does not parse or check.
pub fn compile_sanitized(src: &str) -> Result<Binary, FrontendError> {
    let checked = minc::check(src)?;
    Ok(minc_compile::compile_with_personality(
        &checked,
        sanitizer_personality(),
    ))
}

/// Runs a (sanitizer-built) binary under one sanitizer analog.
pub fn run_sanitized(
    bin: &Binary,
    input: &[u8],
    config: &VmConfig,
    kind: SanitizerKind,
) -> ExecResult {
    match kind {
        SanitizerKind::Asan => minc_vm::execute_with_hooks(bin, input, config, &mut Asan::new()),
        SanitizerKind::Ubsan => minc_vm::execute_with_hooks(bin, input, config, &mut Ubsan::new()),
        SanitizerKind::Msan => minc_vm::execute_with_hooks(bin, input, config, &mut Msan::new()),
    }
}

/// ASan and UBSan combined in one binary (the common fuzzing setup; the
/// paper compiles "ASan/UBSan" together). UBSan's operation checks run
/// first, then ASan's memory checks.
#[derive(Debug, Default)]
pub struct AsanUbsan {
    asan: Asan,
    ubsan: Ubsan,
}

impl AsanUbsan {
    /// Fresh instance.
    pub fn new() -> Self {
        AsanUbsan::default()
    }
}

impl Hooks for AsanUbsan {
    fn check_load(&mut self, addr: u64, width: u64, loc: Loc) -> Option<Fault> {
        self.ubsan
            .check_load(addr, width, loc)
            .or_else(|| self.asan.check_load(addr, width, loc))
    }
    fn check_store(&mut self, addr: u64, width: u64, loc: Loc) -> Option<Fault> {
        self.ubsan
            .check_store(addr, width, loc)
            .or_else(|| self.asan.check_store(addr, width, loc))
    }
    fn check_bin(
        &mut self,
        op: BinKind,
        ty: IrType,
        a: u64,
        b: u64,
        ub_signed: bool,
        loc: Loc,
    ) -> Option<Fault> {
        self.ubsan.check_bin(op, ty, a, b, ub_signed, loc)
    }
    fn heap_redzone(&self) -> u64 {
        self.asan.heap_redzone()
    }
    fn on_malloc(&mut self, addr: u64, size: u64) {
        self.asan.on_malloc(addr, size);
    }
    fn on_free(&mut self, addr: u64, size: u64, loc: Loc) -> Result<FreeDisposition, Fault> {
        self.asan.on_free(addr, size, loc)
    }
    fn on_bad_free(&mut self, addr: u64, loc: Loc) -> Option<Fault> {
        self.asan.on_bad_free(addr, loc)
    }
    fn on_frame_enter(&mut self, lo: u64, hi: u64, slots: &[(u64, u64)]) {
        self.asan.on_frame_enter(lo, hi, slots);
    }
    fn on_frame_exit(&mut self, lo: u64, hi: u64) {
        self.asan.on_frame_exit(lo, hi);
    }
    fn on_poison_use(&mut self, _use_: PoisonUse, _loc: Loc) -> Option<Fault> {
        None
    }
}

/// Test helper shared by the per-sanitizer test modules (public so the
/// crate's unit tests and downstream integration tests can use it).
#[doc(hidden)]
pub mod testutil {
    use super::*;

    /// Compiles `src` with the sanitizer personality and runs it under the
    /// given sanitizer.
    pub fn run_sanitized(src: &str, input: &[u8], kind: SanitizerKind) -> ExecResult {
        let bin = compile_sanitized(src).expect("test source compiles");
        super::run_sanitized(&bin, input, &VmConfig::default(), kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minc_vm::ExitStatus;

    #[test]
    fn combined_asan_ubsan_reports_both_classes() {
        let mem = "int main() { char* p = (char*)malloc(4L); p[4] = 1; return 0; }";
        let bin = compile_sanitized(mem).unwrap();
        let r = minc_vm::execute_with_hooks(&bin, b"", &VmConfig::default(), &mut AsanUbsan::new());
        assert!(
            matches!(&r.status, ExitStatus::Sanitizer(f) if f.category == "heap-buffer-overflow")
        );

        let int = "int main() { int a = 2147483647 - (int)input_size(); return a + 1; }";
        let bin = compile_sanitized(int).unwrap();
        let r = minc_vm::execute_with_hooks(&bin, b"", &VmConfig::default(), &mut AsanUbsan::new());
        assert!(
            matches!(&r.status, ExitStatus::Sanitizer(f) if f.category == "signed-integer-overflow")
        );
    }

    /// The report each sanitizer in turn makes on one run of `bin`.
    fn reports(bin: &Binary) -> Vec<(SanitizerKind, Option<Fault>)> {
        SanitizerKind::ALL
            .into_iter()
            .map(|kind| {
                let status = run_sanitized(bin, b"", &VmConfig::default(), kind).status;
                match status {
                    ExitStatus::Sanitizer(f) => (kind, Some(f)),
                    _ => (kind, None),
                }
            })
            .collect()
    }

    #[test]
    fn each_sanitizer_reports_only_its_own_class() {
        let src = "int main() { int u; if (u) { printf(\"x\\n\"); } return 0; }";
        let bin = compile_sanitized(src).unwrap();
        for (kind, fault) in reports(&bin) {
            // Only MSan sees the uninitialized branch, and it files the
            // report under its own kind.
            assert_eq!(fault.is_some(), kind == SanitizerKind::Msan, "{kind:?}");
            if let Some(f) = fault {
                assert_eq!(f.kind, kind);
            }
        }
    }

    #[test]
    fn clean_program_is_clean_under_everything() {
        let src = r#"
            int main() {
                int a[4];
                int i;
                for (i = 0; i < 4; i++) a[i] = i;
                printf("%d\n", a[0] + a[3]);
                return 0;
            }
        "#;
        let bin = compile_sanitized(src).unwrap();
        for (kind, fault) in reports(&bin) {
            assert!(fault.is_none(), "{kind:?}: {fault:?}");
        }
    }
}
