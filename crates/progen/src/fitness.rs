//! Divergence-driven fitness: how interesting is a generated program?
//!
//! Fitness is a deterministic integer combining three evidence channels:
//!
//! 1. **Divergence axes** — run the program's probes through the full
//!    10-implementation differential oracle; reward actual divergence,
//!    the number of distinct output classes, and the variety of exit
//!    statuses observed.
//! 2. **Rewrite-log richness** — run every implementation's optimization
//!    pipeline with provenance logging and reward distinct UB
//!    justifications (and, weakly, entry volume).
//! 3. **Lint-finding novelty** — findings of the `staticheck-ir` unstable
//!    lint that the evolution archive has not seen before.
//!
//! A small length penalty keeps programs from bloating. Everything is
//! integer arithmetic over deterministic inputs, so two same-seed runs
//! score identically byte for byte.

use compdiff::{hash64, signature_with_hash, CompDiff, DiffConfig};
use minc::FrontendError;
use minc_compile::CompilerImpl;
use minc_vm::ExitStatus;
use staticheck_ir::UnstableLint;
use std::collections::BTreeSet;

/// The outcome of evaluating one program against the oracle.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The combined fitness score (higher is more interesting).
    pub fitness: i64,
    /// True when at least one probe diverged.
    pub divergent: bool,
    /// Index of the first diverging probe, if any.
    pub divergent_probe: Option<usize>,
    /// Hash-keyed signature of the first divergence (stable dedup key).
    pub signature: Option<String>,
    /// Largest number of output equivalence classes over all probes.
    pub classes_max: usize,
    /// Number of distinct exit-status kinds observed across probes/impls.
    pub status_kinds: usize,
    /// Distinct UB justifications logged by the optimizer pipelines.
    pub reasons: Vec<String>,
    /// Total rewrite-provenance entries over the ten implementations.
    pub rewrite_entries: usize,
    /// Unstable-lint finding count.
    pub lint_findings: usize,
    /// Lint keys (`defect@line`) not already in the archive.
    pub novel_keys: Vec<String>,
}

fn status_kind(s: &ExitStatus) -> &'static str {
    match s {
        ExitStatus::Code(_) => "code",
        ExitStatus::Trapped(_) => "trap",
        ExitStatus::Sanitizer(_) => "san",
        ExitStatus::TimedOut => "timeout",
    }
}

/// Evaluates `src` on `probes` against the archive of already-seen lint
/// keys.
///
/// # Errors
///
/// Returns the frontend error when `src` does not parse or check — the
/// evolution loop treats that as a rejected candidate (generated and
/// mutated genomes are valid by construction, so this only guards
/// hand-fed input).
pub fn evaluate(
    src: &str,
    probes: &[Vec<u8>],
    archive: &BTreeSet<String>,
) -> Result<Evaluation, FrontendError> {
    // One check and one shared build of the ten implementations: the
    // binaries are the oracle's, and the logs feed the rewrite channel
    // and the lint.
    let checked = minc::check(src)?;
    let (binaries, logs) = minc_compile::compile_all(&checked, &CompilerImpl::default_set());
    let diff = CompDiff::new(binaries, DiffConfig::default()).with_src_hash(hash64(src.as_bytes()));
    let impls = diff.impls();

    let mut divergent = false;
    let mut divergent_probe = None;
    let mut signature = None;
    let mut classes_max = 1usize;
    let mut kinds: BTreeSet<&'static str> = BTreeSet::new();
    // One batched sweep over the whole probe set: each implementation
    // runs every probe before the next implementation starts, and only
    // probes with disagreeing digests pay the per-input bisection.
    let outcomes = diff.run_batch_observed(&mut diff.make_sessions(), probes, &mut ());
    for (i, outcome) in outcomes.iter().enumerate() {
        classes_max = classes_max.max(outcome.classes.len());
        for r in &outcome.results {
            kinds.insert(status_kind(&r.status));
        }
        if outcome.divergent && !divergent {
            divergent = true;
            divergent_probe = Some(i);
            signature = Some(signature_with_hash(diff.src_hash(), &impls, outcome));
        }
    }

    let mut reasons: BTreeSet<String> = BTreeSet::new();
    let mut rewrite_entries = 0usize;
    for log in &logs {
        rewrite_entries += log.entries.len();
        for entry in &log.entries {
            reasons.insert(entry.reason.to_string());
        }
    }

    let findings = UnstableLint::run_with_logs(&checked, &logs);
    let mut novel: BTreeSet<String> = BTreeSet::new();
    for f in &findings {
        let key = format!("{}@{}", f.finding.defect, f.finding.span.line);
        if !archive.contains(&key) {
            novel.insert(key);
        }
    }

    let loc = src.lines().count() as i64;
    let fitness = i64::from(divergent) * 1000
        + (classes_max as i64 - 1) * 120
        + kinds.len() as i64 * 60
        + reasons.len() as i64 * 80
        + (rewrite_entries.min(16) as i64) * 6
        + (findings.len().min(8) as i64) * 15
        + novel.len() as i64 * 40
        - loc / 4;

    Ok(Evaluation {
        fitness,
        divergent,
        divergent_probe,
        signature,
        classes_max,
        status_kinds: kinds.len(),
        reasons: reasons.into_iter().collect(),
        rewrite_entries,
        lint_findings: findings.len(),
        novel_keys: novel.into_iter().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNINIT: &str = "int main() { int u; printf(\"u %d\\n\", u & 255); return 0; }";
    const STABLE: &str = "int main() { printf(\"ok\\n\"); return 0; }";

    #[test]
    fn uninit_read_outranks_stable_program() {
        let archive = BTreeSet::new();
        let hot = evaluate(UNINIT, &[Vec::new()], &archive).unwrap();
        let cold = evaluate(STABLE, &[Vec::new()], &archive).unwrap();
        assert!(hot.divergent, "uninit print diverges across personalities");
        assert!(hot.fitness > cold.fitness);
        assert!(hot.signature.as_deref().unwrap().starts_with('p'));
    }

    #[test]
    fn novelty_decays_once_archived() {
        let empty = BTreeSet::new();
        let first = evaluate(UNINIT, &[Vec::new()], &empty).unwrap();
        assert!(!first.novel_keys.is_empty(), "lint sees the uninit read");
        let archive: BTreeSet<String> = first.novel_keys.iter().cloned().collect();
        let second = evaluate(UNINIT, &[Vec::new()], &archive).unwrap();
        assert!(second.novel_keys.is_empty());
        assert!(second.fitness < first.fitness);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let archive = BTreeSet::new();
        let a = evaluate(UNINIT, &[Vec::new(), vec![1, 2]], &archive).unwrap();
        let b = evaluate(UNINIT, &[Vec::new(), vec![1, 2]], &archive).unwrap();
        assert_eq!(a.fitness, b.fitness);
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.reasons, b.reasons);
    }
}
