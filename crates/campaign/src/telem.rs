//! Telemetry wiring: the campaign-side adapters that bridge the
//! dependency-free observability seams of the lower crates onto one
//! [`telemetry`] registry.
//!
//! The instrumented crates deliberately do not depend on `telemetry`:
//! `compdiff` exposes [`DiffObserver`], `fuzzing` exposes
//! [`FuzzObserver`], and `minc_vm` maintains intrinsic
//! [`SessionStats`] counters. This module is the one place those seams
//! meet a [`MetricRegistry`](telemetry::MetricRegistry): handles are
//! resolved by name once per campaign. The per-execution adapters count
//! into job-local, non-atomic tallies and fold them into the shared
//! handles when they are dropped (at the end of the job, or while a
//! panicking job unwinds), so worker threads do not write the same
//! memory per execution; a thread worker's counts reach the live
//! registry per job, as a process worker's snapshot does.

use compdiff::{DiffObserver, DiffOutcome};
use fuzzing::FuzzObserver;
use minc_compile::CompilerImpl;
use minc_vm::{ExecResult, SessionStats};
use std::sync::Arc;
use telemetry::{Counter, Gauge, Histogram, HistogramTally, Telemetry};

/// Pre-resolved metric handles for one campaign, shared by every worker.
#[derive(Debug)]
pub struct CampaignTelemetry {
    /// The shared facade: clock, recorder, and registry.
    pub tel: Arc<Telemetry>,
    /// `campaign.jobs_done` — jobs finished live in this process.
    pub jobs_done: Arc<Counter>,
    /// `campaign.job_us` — per-job wall-clock duration.
    pub job_us: Arc<Histogram>,
    /// `campaign.checkpoint_write_us` — checkpoint append+flush latency.
    pub checkpoint_write_us: Arc<Histogram>,
    /// `campaign.checkpoint_sync_us` — checkpoint fsync latency, one
    /// sample per record: the fsync that made it durable (one fsync may
    /// cover several records).
    pub checkpoint_sync_us: Arc<Histogram>,
    /// `campaign.checkpoint_errors` — failed checkpoint appends
    /// (including injected ones).
    pub checkpoint_errors: Arc<Counter>,
    /// `campaign.worker_panics` — job attempts that panicked and were
    /// isolated by `catch_unwind`.
    pub worker_panics: Arc<Counter>,
    /// `campaign.job_retries` — failed attempts that were requeued.
    pub job_retries: Arc<Counter>,
    /// `campaign.leases_granted` — lease grants to workers (threads or
    /// processes alike).
    pub leases_granted: Arc<Counter>,
    /// `campaign.leases_expired` — leases reclaimed because the holding
    /// worker stopped renewing them.
    pub leases_expired: Arc<Counter>,
    /// `campaign.workers_spawned` — workers started, threads or
    /// processes, including respawns after a lost worker.
    pub workers_spawned: Arc<Counter>,
    /// `campaign.stale_results` — results that arrived for a lease that
    /// had already expired and been re-queued (the result is dropped).
    pub stale_results: Arc<Counter>,
    /// `campaign.targets_quarantined` — targets degraded out of the
    /// schedule after repeated failures.
    pub targets_quarantined: Arc<Gauge>,
    /// `campaign.cache_hits` — binary-cache reuses.
    pub cache_hits: Arc<Counter>,
    /// `campaign.cache_misses` — compiles performed.
    pub cache_misses: Arc<Counter>,
    /// `lint.scan_us` — per-target unstable-code lint latency, one
    /// sample per selected target: the lint's analysis where the binary
    /// cache ran it (its pipelines are the binaries'), the whole
    /// `run_source` where the coordinator lints a target at the end.
    pub lint_scan_us: Arc<Histogram>,
    /// `sancheck.scan_us` — per-target post-fuzz sanitizer-audit latency.
    pub sancheck_scan_us: Arc<Histogram>,
    /// `sancheck.sites` — UB-site-map entries across audited targets.
    pub sancheck_sites: Arc<Counter>,
    /// `sancheck.san_fn` — sanitizer false negatives (silent on a
    /// must-site in scope).
    pub sancheck_fn: Arc<Counter>,
    /// `sancheck.san_fp` — sanitizer false alarms (fired a statically
    /// refuted class).
    pub sancheck_fp: Arc<Counter>,
    /// `sancheck.verdict_splits` — cross-implementation sanitizer-verdict
    /// divergences.
    pub sancheck_splits: Arc<Counter>,
    /// `fuzz.execs` — fuzz-binary executions.
    pub fuzz_execs: Arc<Counter>,
    /// `fuzz.exec_us` — fuzz-binary execution latency.
    pub fuzz_exec_us: Arc<Histogram>,
    /// `fuzz.queue_depth_max` — high-water mark of the seed queue.
    pub queue_depth_max: Arc<Gauge>,
    /// `fuzz.execs_per_sec` — fuzz-binary throughput over the campaign's
    /// clock (set once at campaign end; 0 under a fixed clock).
    pub fuzz_execs_per_sec: Arc<Gauge>,
    /// `diff.runs` — differential outcomes examined.
    pub diff_runs: Arc<Counter>,
    /// `diff.divergent` — outcomes with more than one equivalence class.
    pub diff_divergent: Arc<Counter>,
    /// `diff.classes` — equivalence-class count per divergent outcome.
    pub diff_classes: Arc<Histogram>,
    /// `diff.escalation_reruns` — re-executions under a doubled step
    /// budget (the timeout-escalation policy).
    pub escalation_reruns: Arc<Counter>,
    /// `diff.batch_size` — inputs per batched oracle sweep.
    pub batch_size: Arc<Histogram>,
    /// `diff.batch_bisections` — batched inputs whose digests disagreed
    /// (or timed out) and were bisected through the per-input path.
    pub batch_bisections: Arc<Counter>,
    /// `diff.exec_us.<impl>` — per-implementation execution latency,
    /// indexed like the differential binary set. A sweep row's time is
    /// spread evenly over the row's executions (one sample each);
    /// escalation re-runs are timed one by one.
    pub exec_us_by_impl: Vec<Arc<Histogram>>,
    /// `vm.pages_restored` — dirty pages lazily restored on reset.
    pub pages_restored: Arc<Counter>,
    /// `vm.pages_materialized` — pages first-touch materialized.
    pub pages_materialized: Arc<Counter>,
    /// `vm.bulk_builtin_ops` — builtin memory ops on the bulk fast path.
    pub bulk_builtin_ops: Arc<Counter>,
    /// `vm.fallback_builtin_ops` — builtin memory ops on the per-byte
    /// fallback path.
    pub fallback_builtin_ops: Arc<Counter>,
    /// `vm.blocks_translated` — superblocks translated (cache misses in
    /// sessions plus the `BinaryCache`'s up-front per-binary translation).
    pub blocks_translated: Arc<Counter>,
    /// `vm.block_cache_hits` — runs that reused a cached block
    /// translation.
    pub block_cache_hits: Arc<Counter>,
    /// `vm.loader_skips` — differential runs that reused the session's
    /// post-loader page image instead of re-running the loader pass.
    pub loader_skips: Arc<Counter>,
}

impl CampaignTelemetry {
    /// Resolves every handle against `tel`'s registry. The
    /// per-implementation histograms are named after the paper's default
    /// implementation set, which is what [`crate::BinaryCache`] compiles.
    pub fn new(tel: Arc<Telemetry>) -> Self {
        let r = tel.registry();
        let exec_us_by_impl = CompilerImpl::default_set()
            .iter()
            .map(|ci| r.histogram(&format!("diff.exec_us.{ci}")))
            .collect();
        CampaignTelemetry {
            jobs_done: r.counter("campaign.jobs_done"),
            job_us: r.histogram("campaign.job_us"),
            checkpoint_write_us: r.histogram("campaign.checkpoint_write_us"),
            checkpoint_sync_us: r.histogram("campaign.checkpoint_sync_us"),
            checkpoint_errors: r.counter("campaign.checkpoint_errors"),
            worker_panics: r.counter("campaign.worker_panics"),
            job_retries: r.counter("campaign.job_retries"),
            leases_granted: r.counter("campaign.leases_granted"),
            leases_expired: r.counter("campaign.leases_expired"),
            workers_spawned: r.counter("campaign.workers_spawned"),
            stale_results: r.counter("campaign.stale_results"),
            targets_quarantined: r.gauge("campaign.targets_quarantined"),
            cache_hits: r.counter("campaign.cache_hits"),
            cache_misses: r.counter("campaign.cache_misses"),
            lint_scan_us: r.histogram("lint.scan_us"),
            sancheck_scan_us: r.histogram("sancheck.scan_us"),
            sancheck_sites: r.counter("sancheck.sites"),
            sancheck_fn: r.counter("sancheck.san_fn"),
            sancheck_fp: r.counter("sancheck.san_fp"),
            sancheck_splits: r.counter("sancheck.verdict_splits"),
            fuzz_execs: r.counter("fuzz.execs"),
            fuzz_exec_us: r.histogram("fuzz.exec_us"),
            queue_depth_max: r.gauge("fuzz.queue_depth_max"),
            fuzz_execs_per_sec: r.gauge("fuzz.execs_per_sec"),
            diff_runs: r.counter("diff.runs"),
            diff_divergent: r.counter("diff.divergent"),
            diff_classes: r.histogram("diff.classes"),
            escalation_reruns: r.counter("diff.escalation_reruns"),
            batch_size: r.histogram("diff.batch_size"),
            batch_bisections: r.counter("diff.batch_bisections"),
            exec_us_by_impl,
            pages_restored: r.counter("vm.pages_restored"),
            pages_materialized: r.counter("vm.pages_materialized"),
            bulk_builtin_ops: r.counter("vm.bulk_builtin_ops"),
            fallback_builtin_ops: r.counter("vm.fallback_builtin_ops"),
            blocks_translated: r.counter("vm.blocks_translated"),
            block_cache_hits: r.counter("vm.block_cache_hits"),
            loader_skips: r.counter("vm.loader_skips"),
            tel,
        }
    }

    /// A fresh per-job adapter for the differential engine's
    /// [`DiffObserver`] seam. Its counts reach the registry when it is
    /// dropped.
    pub fn diff_observer(&self) -> DiffTelemetry<'_> {
        DiffTelemetry {
            ct: self,
            start_us: 0,
            exec_us: vec![HistogramTally::default(); self.exec_us_by_impl.len()],
            escalation_reruns: 0,
            runs: 0,
            divergent: 0,
            classes: HistogramTally::default(),
            batch_size: HistogramTally::default(),
            bisections: 0,
        }
    }

    /// A fresh per-job adapter for the fuzzer's [`FuzzObserver`] seam.
    /// Its counts reach the registry when it is dropped.
    pub fn fuzz_observer(&self) -> FuzzTelemetry<'_> {
        FuzzTelemetry {
            ct: self,
            start_us: 0,
            execs: 0,
            exec_us: HistogramTally::default(),
            queue_depth_max: 0,
        }
    }

    /// Folds one job's summed VM-session statistics into the registry.
    pub fn record_vm(&self, vm: SessionStats) {
        self.pages_restored.add(vm.pages_restored);
        self.pages_materialized.add(vm.pages_materialized);
        self.bulk_builtin_ops.add(vm.bulk_builtin_ops);
        self.fallback_builtin_ops.add(vm.fallback_builtin_ops);
        self.blocks_translated.add(vm.blocks_translated);
        self.block_cache_hits.add(vm.block_cache_hits);
        self.loader_skips.add(vm.loader_skips);
    }

    /// Records one target's lint: its scan time plus its findings per
    /// defect class (`lint.findings.<defect>`). Counters are resolved by
    /// name so only defect classes that were actually reported appear in
    /// the registry snapshot.
    pub fn record_lint(&self, lint: &crate::LintTally) {
        self.lint_scan_us.record(lint.scan_us);
        let r = self.tel.registry();
        for (defect, &n) in &lint.findings {
            r.counter(&format!("lint.findings.{defect}")).add(n);
        }
    }

    /// Records one post-fuzz sanitizer-audit scan: its duration plus the
    /// report's site, false-negative, false-alarm, and verdict-split
    /// totals (`sancheck.*`).
    pub fn record_sancheck(&self, report: &sancheck::SancheckReport, scan_us: u64) {
        self.sancheck_scan_us.record(scan_us);
        self.sancheck_sites.add(report.map.sites.len() as u64);
        self.sancheck_fn.add(report.false_negatives.len() as u64);
        self.sancheck_fp.add(report.false_positives.len() as u64);
        self.sancheck_splits.add(report.divergences.len() as u64);
    }

    /// Publishes the campaign's fuzz-binary throughput from the final
    /// exec count and the elapsed clock microseconds. Under a fixed test
    /// clock the elapsed time is zero and the gauge stays 0, keeping the
    /// metric stream deterministic.
    pub fn record_execs_per_sec(&self, execs: u64, elapsed_us: u64) {
        if let Some(rate) = execs.saturating_mul(1_000_000).checked_div(elapsed_us) {
            self.fuzz_execs_per_sec.set(rate);
        }
    }
}

/// Per-job [`DiffObserver`]: times each implementation's sweep rows and
/// escalation re-runs into its latency tally, and counts outcomes,
/// divergence classes and batches, all job-locally until it is dropped.
/// Executions within one oracle run are sequential, so a single
/// begin-timestamp field suffices.
#[derive(Debug)]
pub struct DiffTelemetry<'a> {
    ct: &'a CampaignTelemetry,
    start_us: u64,
    exec_us: Vec<HistogramTally>,
    escalation_reruns: u64,
    runs: u64,
    divergent: u64,
    classes: HistogramTally,
    batch_size: HistogramTally,
    bisections: u64,
}

impl DiffObserver for DiffTelemetry<'_> {
    fn row_begin(&mut self, _impl_idx: usize, _runs: usize) {
        self.start_us = self.ct.tel.now_micros();
    }

    fn row_end(&mut self, impl_idx: usize, runs: usize) {
        let dur = self.ct.tel.now_micros().saturating_sub(self.start_us);
        if let Some(t) = self.exec_us.get_mut(impl_idx) {
            t.record_spread(dur, runs as u64);
        }
    }

    fn exec_begin(&mut self, _impl_idx: usize, escalation_round: u32) {
        if escalation_round > 0 {
            self.start_us = self.ct.tel.now_micros();
        }
    }

    fn exec_end(&mut self, impl_idx: usize, _result: &ExecResult, escalation_round: u32) {
        if escalation_round == 0 {
            return; // timed with its row
        }
        let dur = self.ct.tel.now_micros().saturating_sub(self.start_us);
        if let Some(t) = self.exec_us.get_mut(impl_idx) {
            t.record(dur);
        }
        self.escalation_reruns += 1;
    }

    fn outcome(&mut self, outcome: &DiffOutcome) {
        self.runs += 1;
        if outcome.divergent {
            self.divergent += 1;
            self.classes.record(outcome.classes.len() as u64);
        }
    }

    fn batch(&mut self, size: usize, bisections: usize) {
        self.batch_size.record(size as u64);
        self.bisections += bisections as u64;
    }
}

impl Drop for DiffTelemetry<'_> {
    fn drop(&mut self) {
        let ct = self.ct;
        for (h, t) in ct.exec_us_by_impl.iter().zip(&self.exec_us) {
            h.fold(t);
        }
        ct.escalation_reruns.add(self.escalation_reruns);
        ct.diff_runs.add(self.runs);
        ct.diff_divergent.add(self.divergent);
        ct.diff_classes.fold(&self.classes);
        ct.batch_size.fold(&self.batch_size);
        ct.batch_bisections.add(self.bisections);
    }
}

/// Per-job [`FuzzObserver`]: times every fuzz-binary execution and tracks
/// the seed queue's high-water mark, job-locally until it is dropped.
#[derive(Debug)]
pub struct FuzzTelemetry<'a> {
    ct: &'a CampaignTelemetry,
    start_us: u64,
    execs: u64,
    exec_us: HistogramTally,
    queue_depth_max: u64,
}

impl FuzzObserver for FuzzTelemetry<'_> {
    fn exec_begin(&mut self) {
        self.start_us = self.ct.tel.now_micros();
    }

    fn exec_end(&mut self, _result: &ExecResult, queue_depth: usize) {
        let dur = self.ct.tel.now_micros().saturating_sub(self.start_us);
        self.execs += 1;
        self.exec_us.record(dur);
        self.queue_depth_max = self.queue_depth_max.max(queue_depth as u64);
    }
}

impl Drop for FuzzTelemetry<'_> {
    fn drop(&mut self) {
        self.ct.fuzz_execs.add(self.execs);
        self.ct.fuzz_exec_us.fold(&self.exec_us);
        self.ct.queue_depth_max.set_max(self.queue_depth_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::TestClock;

    #[test]
    fn adapters_update_the_registry() {
        let tel = Telemetry::new(TestClock::stepping(0, 5), telemetry::NoopRecorder);
        let ct = CampaignTelemetry::new(Arc::clone(&tel));

        let mut fo = ct.fuzz_observer();
        let r = ExecResult {
            status: minc_vm::ExitStatus::Code(0),
            stdout: Vec::new(),
            steps: 0,
        };
        fo.exec_begin(); // t=0
        fo.exec_end(&r, 3); // t=5 -> dur 5
        fo.exec_begin();
        fo.exec_end(&r, 9);
        // The adapter counts job-locally: nothing reaches the registry
        // until it is dropped.
        assert_eq!(ct.fuzz_execs.get(), 0);
        drop(fo);
        assert_eq!(ct.fuzz_execs.get(), 2);
        assert_eq!(ct.fuzz_exec_us.count(), 2);
        assert_eq!(ct.queue_depth_max.get(), 9);

        let mut dobs = ct.diff_observer();
        dobs.row_begin(0, 1);
        dobs.exec_begin(0, 0);
        dobs.exec_end(0, &r, 0);
        dobs.row_end(0, 1);
        dobs.exec_begin(1, 2);
        dobs.exec_end(1, &r, 2);
        drop(dobs);
        assert_eq!(ct.exec_us_by_impl[0].count(), 1);
        assert_eq!(ct.exec_us_by_impl[1].count(), 1);
        assert_eq!(ct.escalation_reruns.get(), 1);

        ct.record_vm(SessionStats {
            runs: 2,
            pages_restored: 7,
            pages_materialized: 4,
            bulk_builtin_ops: 3,
            fallback_builtin_ops: 1,
            poisoned_rebuilds: 0,
            blocks_translated: 6,
            block_cache_hits: 12,
            loader_skips: 8,
        });
        assert_eq!(ct.pages_restored.get(), 7);
        assert_eq!(ct.bulk_builtin_ops.get(), 3);
        assert_eq!(ct.blocks_translated.get(), 6);
        assert_eq!(ct.block_cache_hits.get(), 12);
        assert_eq!(ct.loader_skips.get(), 8);
    }

    /// Under a fixed clock every duration reads 0, so timing a sweep row
    /// once and spreading it over the row's executions leaves
    /// `diff.exec_us.<impl>` exactly as one sample per execution does:
    /// same count, same sum, same buckets.
    #[test]
    fn row_timing_matches_per_execution_recording_under_a_fixed_clock() {
        let tel = Telemetry::new(TestClock::fixed(1_000), telemetry::NoopRecorder);
        let ct = CampaignTelemetry::new(Arc::clone(&tel));
        let r = ExecResult::default();
        let mut dobs = ct.diff_observer();
        for (impl_idx, runs) in [(0usize, 16usize), (3, 16), (0, 5), (9, 1)] {
            dobs.row_begin(impl_idx, runs);
            for _ in 0..runs {
                dobs.exec_begin(impl_idx, 0);
                dobs.exec_end(impl_idx, &r, 0);
            }
            dobs.row_end(impl_idx, runs);
        }
        dobs.exec_begin(3, 1);
        dobs.exec_end(3, &r, 1);
        drop(dobs);

        for (i, h) in ct.exec_us_by_impl.iter().enumerate() {
            let execs = match i {
                0 => 21,
                3 => 17,
                9 => 1,
                _ => 0,
            };
            let per_exec = telemetry::Histogram::default();
            for _ in 0..execs {
                per_exec.record(0);
            }
            assert_eq!(h.count(), execs, "impl {i}");
            assert_eq!(h.sum(), 0, "impl {i}");
            assert_eq!(
                h.to_json().render(),
                per_exec.to_json().render(),
                "impl {i}"
            );
        }
        assert_eq!(ct.escalation_reruns.get(), 1);
    }
}
