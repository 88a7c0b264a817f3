//! # minc-vm — deterministic execution of MinC binaries
//!
//! Executes the IR produced by `minc-compile` against a raw, flat,
//! 64-bit address space. Each binary executes with *its* compiler
//! implementation's layout and junk, so:
//!
//! * defined programs produce identical output under all ten
//!   implementations;
//! * programs with undefined behaviour may observably diverge — which is
//!   the signal CompDiff detects.
//!
//! Instrumentation (sanitizers, coverage) attaches through the [`Hooks`]
//! trait; uninstrumented differential runs use [`execute`].
//!
//! ```
//! use minc_compile::{compile_source, CompilerImpl};
//! use minc_vm::{execute, VmConfig};
//!
//! # fn main() -> Result<(), minc::FrontendError> {
//! let bin = compile_source(
//!     "int main() { printf(\"%d\\n\", 6 * 7); return 0; }",
//!     CompilerImpl::parse("clang-O2").unwrap(),
//! )?;
//! let result = execute(&bin, b"", &VmConfig::default());
//! assert_eq!(result.stdout, b"42\n");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
pub mod block;
pub mod exec;
pub mod hooks;
pub mod memory;
pub mod result;
pub mod session;

pub use block::BlockProgram;
pub use exec::{execute, execute_with_hooks, VmConfig};
pub use hooks::{FreeDisposition, Hooks, Loc, NoHooks, PoisonUse};
pub use memory::Memory;
pub use result::{ExecResult, ExitStatus, Fault, SanitizerKind, Trap};
pub use session::{ExecSession, SessionStats};
