//! # fuzzing — an AFL++-style coverage-guided greybox fuzzer for MinC
//!
//! Reproduces the fuzzing substrate the CompDiff paper builds on (AFL++
//! 3.15a): edge-coverage bitmap with hit-count bucketing, a seed queue with
//! an energy schedule, deterministic and havoc/splice mutation stages,
//! crash bucketing, and — the integration point the paper adds — an
//! [`Oracle`] seam invoked on every generated input (Algorithm 1).
//!
//! The forkserver is modeled by in-process persistent execution: the
//! compiled [`minc_compile::Binary`] stays resident and [`BinaryTarget`]
//! keeps a persistent [`minc_vm::ExecSession`] across the whole campaign,
//! so each run only resets — never re-allocates — memory pages and call
//! frames. That is the same amortization AFL++'s persistent mode achieves
//! for real binaries.
//!
//! ```
//! use fuzzing::{BinaryTarget, FuzzConfig, Fuzzer, NoOracle};
//! use minc_compile::{compile_source, CompilerImpl};
//! use minc_vm::VmConfig;
//!
//! # fn main() -> Result<(), minc::FrontendError> {
//! let bin = compile_source(
//!     "int main() { char b[4]; read_input(b, 4L); if (b[0] == '!') abort(); return 0; }",
//!     CompilerImpl::parse("clang-O1").unwrap(),
//! )?;
//! let target = BinaryTarget::new(&bin, VmConfig::default());
//! let stats = Fuzzer::new(target, NoOracle, FuzzConfig { max_execs: 2_000, ..Default::default() })
//!     .run(&[b"seed".to_vec()]);
//! assert!(stats.execs <= 2_000);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
pub mod coverage;
pub mod fuzzer;
pub mod mutate;
pub mod queue;
pub mod rng;

pub use coverage::{CoverageMap, GlobalCoverage, MAP_SIZE};
pub use fuzzer::{
    crash_signature, BinaryTarget, CampaignStats, Crash, FuzzConfig, FuzzObserver, Fuzzer,
    NoOracle, Oracle, TargetExec,
};
pub use queue::{Queue, Seed};
pub use rng::{splitmix64, Rng};
