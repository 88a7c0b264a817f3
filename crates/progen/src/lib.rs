//! # progen — evolutionary MinC program generation
//!
//! Grows the differential-testing corpus beyond the static target
//! catalog: a seeded generator emits well-formed MinC programs biased
//! toward unstable-code idioms, typed AST mutators and crossover breed
//! them, and an evolutionary loop selects on **divergence-driven
//! fitness** — coverage of divergence axes under the 10-implementation
//! oracle, rewrite-provenance richness, and unstable-lint novelty. Any
//! diverging program can then be shrunk by the **witness reducer**
//! (delta-debugging over AST nodes) to a minimal program that still
//! diverges under the same implementation pair.
//!
//! Everything is deterministic: same seed, byte-identical runs. The
//! `compdiff progen` CLI drives generation/evolution/reduction, and the
//! `targets::TargetSource` seam feeds the results into campaigns.
//!
//! ```
//! use fuzzing::Rng;
//!
//! let genome = progen::generate(&mut Rng::new(1));
//! assert!(minc::check(&genome.source()).is_ok());
//! ```

#![warn(missing_docs)]
pub mod evolve;
pub mod fitness;
pub mod gen;
pub mod mutate;
pub mod reduce;

pub use evolve::{
    mix, run_generations, DivergentFind, EvolveConfig, EvolveState, GenerationRecord,
    MAX_POPULATION,
};
pub use fitness::{evaluate, Evaluation};
pub use gen::{generate, Genome, Idiom, PROBES_PER_GENOME};
pub use mutate::{crossover, mutate};
pub use reduce::{reduce, ReduceOutcome};
