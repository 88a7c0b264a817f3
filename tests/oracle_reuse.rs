//! The campaign oracle hands each fuzz-binary run to
//! `CompDiff::run_batch_reusing` as the oracle's run of the same
//! implementation. That is exact only if the two are the same run: the
//! coverage-hooked run of the binary cache's `fuzz_binary` must equal the
//! oracle's run of that implementation, and the reusing sweep
//! must classify every input exactly as the all-ten sweep does. That must
//! hold as well under a step limit that makes the reused result a
//! timeout, which escalation then has to re-run.
//!
//! Checked on every catalog target, over its seeds plus a fixed set of
//! mutants of them.

use campaign::{BinaryCache, CompiledTarget};
use compdiff::{CompDiff, DiffConfig, DiffObserver, DiffOutcome};
use fuzzing::{mutate, BinaryTarget, CoverageMap, Rng, TargetExec};
use minc_compile::CompilerImpl;
use minc_vm::{ExecResult, ExitStatus, VmConfig};
use std::sync::Arc;
use targets::{build, catalog, Target};

/// A campaign's default fuzz implementation.
fn fuzz_impl() -> CompilerImpl {
    CompilerImpl::parse("clang-O1").unwrap()
}

/// The target's seeds, plus eight havoc mutants and one dictionary
/// mutant of each, from a fixed RNG.
fn inputs(t: &Target) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(0x5EED);
    let mut out = t.seeds.clone();
    for seed in &t.seeds {
        for _ in 0..8 {
            out.push(mutate::havoc(seed, &mut rng, 64));
        }
        out.push(mutate::dictionary(
            seed,
            &[t.spec.magic.to_vec()],
            &mut rng,
            64,
        ));
    }
    out
}

/// The fuzz binary's runs as a campaign job makes them: one persistent
/// session on the shared translation, coverage hooks attached.
fn fuzz_runs(ct: &CompiledTarget, vm: &VmConfig, inputs: &[Vec<u8>]) -> Vec<ExecResult> {
    let mut target = BinaryTarget::new(&ct.fuzz_binary, vm.clone())
        .with_block_program(Arc::clone(&ct.fuzz_blocks));
    let mut map = CoverageMap::new();
    inputs
        .iter()
        .map(|input| {
            map.reset();
            target.run(input, &mut map)
        })
        .collect()
}

/// Implementation `i`'s runs as the oracle's sweep makes them.
fn oracle_runs(diff: &CompDiff, i: usize, vm: &VmConfig, inputs: &[Vec<u8>]) -> Vec<ExecResult> {
    let bin = &diff.binaries()[i];
    let mut session = minc_vm::ExecSession::new(bin);
    inputs
        .iter()
        .map(|input| session.run(bin, input, vm))
        .collect()
}

fn assert_same_outcomes(label: &str, reusing: &[DiffOutcome], full: &[DiffOutcome]) {
    assert_eq!(reusing.len(), full.len(), "{label}");
    for (j, (a, b)) in reusing.iter().zip(full).enumerate() {
        assert_eq!(a.results, b.results, "{label} input {j}");
        assert_eq!(a.hashes, b.hashes, "{label} input {j}");
        assert_eq!(a.classes, b.classes, "{label} input {j}");
        assert_eq!(a.divergent, b.divergent, "{label} input {j}");
        assert_eq!(
            a.unresolved_timeout, b.unresolved_timeout,
            "{label} input {j}"
        );
    }
}

/// Counts escalation re-runs of one implementation.
struct Reruns {
    of: usize,
    count: usize,
}

impl DiffObserver for Reruns {
    fn exec_end(&mut self, i: usize, _result: &ExecResult, round: u32) {
        if i == self.of && round > 0 {
            self.count += 1;
        }
    }
}

#[test]
fn the_fuzz_run_is_the_oracles_run_on_every_catalog_target() {
    let cache = BinaryCache::new();
    let vm = VmConfig::default();
    for spec in catalog() {
        let t = build(&spec);
        let (ct, _) = cache
            .get_or_compile(&t, &DiffConfig::default(), fuzz_impl(), None, 1)
            .unwrap();
        let i = ct
            .diff
            .reusable_index(&ct.fuzz_binary, &vm)
            .expect("B_fuzz is one of the oracle's binaries");
        let inputs = inputs(&t);
        let fuzz = fuzz_runs(&ct, &vm, &inputs);
        assert_eq!(
            fuzz,
            oracle_runs(&ct.diff, i, &vm, &inputs),
            "{}",
            spec.name
        );

        // Batches of the campaign's default size, over persistent sessions.
        let (mut reusing_sessions, mut full_sessions) = (ct.diff_sessions(), ct.diff_sessions());
        for (chunk, given) in inputs.chunks(16).zip(fuzz.chunks(16)) {
            let reused = Some((i, given.to_vec()));
            let reusing = ct
                .diff
                .run_batch_reusing(&mut reusing_sessions, chunk, reused, &mut ());
            let full = ct
                .diff
                .run_batch_observed(&mut full_sessions, chunk, &mut ());
            assert_same_outcomes(&spec.name, &reusing, &full);
        }
    }
}

#[test]
fn a_reused_timeout_is_re_run_by_escalation_on_every_catalog_target() {
    let cache = BinaryCache::new();
    for spec in catalog() {
        let t = build(&spec);
        let (ct, _) = cache
            .get_or_compile(&t, &DiffConfig::default(), fuzz_impl(), None, 1)
            .unwrap();
        let i = ct
            .diff
            .reusable_index(&ct.fuzz_binary, &VmConfig::default())
            .unwrap();
        let inputs = inputs(&t);

        // The input on which B_fuzz is slowest relative to the fastest
        // implementation; a limit strictly between the two step counts
        // makes the fuzz run time out while another implementation ends.
        let outcomes = ct
            .diff
            .run_batch_observed(&mut ct.diff_sessions(), &inputs, &mut ());
        let (gap, lo, hi) = outcomes
            .iter()
            .map(|o| {
                let lo = o.results.iter().map(|r| r.steps).min().unwrap();
                let hi = o.results[i].steps;
                (hi - lo, lo, hi)
            })
            .max()
            .unwrap();
        assert!(gap >= 2, "{}: no input where B_fuzz is slower", spec.name);
        let limited = VmConfig {
            step_limit: lo.midpoint(hi),
            ..VmConfig::default()
        };
        let config = DiffConfig {
            vm: limited.clone(),
            ..DiffConfig::default()
        };
        let diff = CompDiff::new(ct.diff.binaries().to_vec(), config);
        assert_eq!(diff.reusable_index(&ct.fuzz_binary, &limited), Some(i));

        let fuzz = fuzz_runs(&ct, &limited, &inputs);
        assert!(
            fuzz.iter().any(|r| r.status == ExitStatus::TimedOut),
            "{}: the limit makes B_fuzz time out",
            spec.name
        );
        assert_eq!(
            fuzz,
            oracle_runs(&diff, i, &limited, &inputs),
            "{}",
            spec.name
        );
        let mut reruns = Reruns { of: i, count: 0 };
        let reusing = diff.run_batch_reusing(
            &mut diff.make_sessions(),
            &inputs,
            Some((i, fuzz)),
            &mut reruns,
        );
        let full = diff.run_batch_observed(&mut diff.make_sessions(), &inputs, &mut ());
        assert_same_outcomes(&spec.name, &reusing, &full);
        assert!(
            reruns.count > 0,
            "{}: escalation re-ran the reused binary",
            spec.name
        );
    }
}
