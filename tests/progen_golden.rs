//! Golden-file tests for the `progen` pipeline: pinned generator outputs
//! and evolved-then-reduced divergence witnesses.
//!
//! The generated files pin the generator's byte-level determinism across
//! refactors (same seed, same program — the CLI contract `compdiff progen
//! generate --seed N` relies on). The witness files were produced by a
//! seeded `compdiff progen evolve` run followed by automatic reduction;
//! the tests re-verify that each still diverges under the full
//! 10-implementation oracle and that each is a reduction fixpoint.
//!
//! `seed7/` pins whole reductions: the unreduced finds of the evolution
//! `scripts/ci.sh` byte-compares (seed 7, population 6, two generations)
//! and, for each, the witness, step count, signature and witness pair
//! `reduce` returns.

use compdiff::{hex_decode, hex_encode, CompDiff, DiffConfig, Json};
use fuzzing::Rng;
use progen::{EvolveConfig, EvolveState};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/progen")
}

fn manifest() -> Json {
    let text = std::fs::read_to_string(golden_dir().join("manifest.json")).unwrap();
    Json::parse(&text).unwrap()
}

fn read_golden(file: &str) -> String {
    std::fs::read_to_string(golden_dir().join(file)).unwrap()
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap()
}

fn probe(entry: &Json) -> Vec<u8> {
    hex_decode(text(entry, "probe")).unwrap()
}

#[test]
fn pinned_generator_outputs_are_stable() {
    let m = manifest();
    let entries = m.get("generated").and_then(Json::as_array).unwrap();
    assert_eq!(entries.len(), 3);
    for entry in entries {
        let file = text(entry, "file");
        let seed = entry.get("seed").and_then(Json::as_u64).unwrap();
        let pinned = read_golden(file);
        // Matches the CLI: `progen generate --seed N` derives program i's
        // PRNG from mix(seed, i).
        let genome = progen::generate(&mut Rng::new(progen::mix(seed, 0)));
        assert_eq!(
            genome.source(),
            pinned,
            "generator drifted for seed {seed} ({file}); if intentional, re-pin the golden file"
        );
    }
}

#[test]
fn pinned_generator_outputs_check_and_lint() {
    let m = manifest();
    for entry in m.get("generated").and_then(Json::as_array).unwrap() {
        let file = text(entry, "file");
        let src = read_golden(file);
        minc::check(&src).unwrap_or_else(|e| panic!("{file} no longer checks: {e}"));
        let findings = staticheck_ir::UnstableLint::new().run_source(&src).unwrap();
        assert!(
            !findings.is_empty(),
            "{file} should trip the unstable lint (idiom-biased by construction)"
        );
    }
}

#[test]
fn pinned_witnesses_still_diverge() {
    let m = manifest();
    let entries = m.get("witnesses").and_then(Json::as_array).unwrap();
    assert_eq!(entries.len(), 3);
    for entry in entries {
        let file = text(entry, "file");
        let probe = probe(entry);
        let src = read_golden(file);
        let diff = CompDiff::from_source_default(&src, DiffConfig::default())
            .unwrap_or_else(|e| panic!("{file} no longer compiles: {e}"));
        let outcome = diff.run_input(&probe);
        assert!(
            outcome.divergent,
            "{file} no longer diverges on its pinned probe"
        );
    }
}

#[test]
fn pinned_witnesses_are_reduction_fixpoints() {
    let m = manifest();
    for entry in m.get("witnesses").and_then(Json::as_array).unwrap() {
        let file = text(entry, "file");
        let probe = probe(entry);
        let src = read_golden(file);
        let out = progen::reduce(&src, &probe)
            .unwrap_or_else(|e| panic!("{file} failed to re-reduce: {e}"));
        assert_eq!(
            out.source, src,
            "{file} is not minimal: the reducer shrank it further"
        );
    }
}

#[test]
fn pinned_finds_are_the_seed7_evolution() {
    let m = manifest();
    let entries = m.get("reductions").and_then(Json::as_array).unwrap();
    let mut state = EvolveState::new(&EvolveConfig {
        seed: 7,
        population: 6,
    });
    progen::run_generations(&mut state, 2, |_| {});
    assert_eq!(state.divergents.len(), entries.len());
    for (find, entry) in state.divergents.iter().zip(entries) {
        let file = text(entry, "find");
        assert_eq!(
            find.source,
            read_golden(file),
            "evolution drifted at {file}"
        );
        assert_eq!(hex_encode(&find.probe), text(entry, "probe"), "{file}");
    }
}

#[test]
fn pinned_finds_reduce_to_pinned_witnesses() {
    let m = manifest();
    let entries = m.get("reductions").and_then(Json::as_array).unwrap();
    assert_eq!(entries.len(), 8);
    let mut steps = 0;
    for entry in entries {
        let file = text(entry, "find");
        let out = progen::reduce(&read_golden(file), &probe(entry))
            .unwrap_or_else(|e| panic!("{file} failed to reduce: {e}"));
        let pair: Vec<usize> = entry
            .get("witness_pair")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap() as usize)
            .collect();
        assert_eq!(out.source, read_golden(text(entry, "witness")), "{file}");
        assert_eq!(
            Some(out.steps),
            entry.get("steps").and_then(Json::as_u64),
            "{file}"
        );
        assert_eq!(out.signature, text(entry, "signature"), "{file}");
        assert_eq!([out.witness_pair.0, out.witness_pair.1], pair[..], "{file}");
        steps += out.steps;
    }
    assert_eq!(steps, 205, "the reduction steps ci.sh's evolve reports");
}
