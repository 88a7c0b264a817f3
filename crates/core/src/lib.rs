//! # compdiff — compiler-driven differential testing
//!
//! Reproduction of *"Finding Unstable Code via Compiler-Driven Differential
//! Testing"* (Li & Su, ASPLOS 2023). CompDiff detects **unstable code** —
//! code whose runtime semantics differ across legal compiler
//! implementations because the program contains undefined behavior:
//!
//! 1. compile the program with `k` compiler implementations
//!    ({gcc-sim, clang-sim} × {O0, O1, O2, O3, Os} by default);
//! 2. run every binary on the same input;
//! 3. checksum each binary's output (MurmurHash3 over stdout + exit
//!    status) and report any discrepancy.
//!
//! The crate also provides **CompDiff-AFL++** ([`CompDiffAfl`]): the
//! AFL++-style fuzzer from the `fuzzing` crate with CompDiff attached as
//! the per-input oracle of Algorithm 1, plus the subset analysis used for
//! the paper's Figures 1 and 2.
//!
//! ```
//! use compdiff::{CompDiff, DiffConfig};
//!
//! # fn main() -> Result<(), minc::FrontendError> {
//! // The paper's Listing 1: an overflow check that -O2 legally deletes.
//! let diff = CompDiff::from_source_default(
//!     r#"
//!     int dump_data(int offset, int len) {
//!         int size = 100;
//!         if (offset + len > size || offset < 0 || len < 0) { return -1; }
//!         if (offset + len < offset) { return -1; }
//!         return 0;
//!     }
//!     int main() { printf("%d", dump_data(2147483647 - 100, 101)); return 0; }
//!     "#,
//!     DiffConfig::default(),
//! )?;
//! assert!(diff.is_divergent(b""));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
pub mod afl;
pub mod differ;
pub mod filters;
pub mod json;
pub mod minimize;
pub mod murmur;
pub mod report;
pub mod subset;

pub use afl::{CompDiffAfl, CompDiffAflStats, CompDiffOracle};
pub use differ::{CompDiff, DiffConfig, DiffObserver, DiffOutcome};
pub use filters::{apply_filters, OutputFilter};
pub use json::{hex_decode, hex_encode, FieldError, FieldProblem, Json, JsonError};
pub use minimize::{minimize, MinimizeStats};
pub use murmur::{hash64, murmur3_x64_128};
pub use report::{signature_of, signature_with_hash, DiffStore, Discrepancy};
pub use subset::{detected_by, HashVector, SizeStats, SubsetAnalysis};
