//! Jobs: the (target × seed-shard) unit the coordinator leases out, and
//! [`run_job`], which runs one.
//!
//! Determinism: a job's fuzzing seed is derived from `(campaign seed,
//! target name, shard index)` and *never* from which worker runs it or
//! when. Retry backoff is a *queue position* derived from the same seed
//! material — no wall-clock sleeps — so a campaign with failures replays
//! exactly under the same seed and fault plan. A campaign's deduped
//! signature set is the order-independent union of its jobs' sets, so N
//! workers and 1 worker produce identical results.

use crate::cache::{CompiledTarget, LintTally};
use crate::faults::FaultKind;
use crate::state::{FailureKind, JobRecord};
use crate::telem::{CampaignTelemetry, FuzzTelemetry};
use crate::CampaignConfig;
use compdiff::{hash64, CompDiffOracle};
use fuzzing::{splitmix64, BinaryTarget, FuzzConfig, FuzzObserver, Fuzzer};
use minc_vm::{ExecResult, SessionStats};
use std::collections::BTreeSet;

/// One schedulable unit: one attempt at one seed shard of one target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Index into the campaign's target list.
    pub target_index: usize,
    /// Shard index, `0..shards_per_target`.
    pub shard: u32,
    /// 1-based attempt number (2+ are retries).
    pub attempt: u32,
}

/// A finished job, tagged with the worker that ran it. Only `record`
/// enters the checkpoint; the rest is telemetry the coordinator turns
/// into events (the checkpoint schema stays stable).
#[derive(Debug)]
pub struct JobOutput {
    /// Worker index (stamped by the coordinator; 0 as [`run_job`]
    /// returns it).
    pub worker: usize,
    /// The checkpointable record.
    pub record: JobRecord,
    /// Job wall-clock duration in microseconds, by the campaign clock.
    pub dur_us: u64,
    /// Summed VM statistics across the job's differential sessions.
    pub vm: SessionStats,
    /// The target's lint, as the binary cache built it (filled in by the
    /// worker; empty as [`run_job`] returns it). The coordinator counts
    /// the first accepted one per target.
    pub lint: LintTally,
}

/// A failed job attempt, already converted to structured data — panic
/// payloads and compile errors never cross the channel raw.
#[derive(Debug)]
pub struct JobFailure {
    /// Worker index.
    pub worker: usize,
    /// The attempt that failed.
    pub job: Job,
    /// Target name (resolved from `job.target_index`).
    pub target: String,
    /// Failure class.
    pub kind: FailureKind,
    /// Human-readable cause (panic payload, compile error, ...).
    pub message: String,
    /// Attempt wall-clock duration in microseconds.
    pub dur_us: u64,
}

/// What one job attempt resolved to.
#[derive(Debug)]
pub enum JobResult {
    /// The attempt completed and produced a checkpointable record.
    Done(JobOutput),
    /// The attempt failed (panic, compile error, or injected fault).
    Failed(JobFailure),
}

/// How the coordinator's job queues move after a [`JobResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Nothing to do; the job is resolved.
    Continue,
    /// Requeue this job (its `attempt` already incremented) at a
    /// deterministic backoff position.
    Retry(Job),
    /// Drop every queued job of this target (the swept jobs count as
    /// skipped).
    Quarantine {
        /// Index into the campaign's target list.
        target_index: usize,
    },
    /// Abort the campaign: workers stop picking up jobs and in-flight
    /// results are dropped — the simulated `kill` the resume path
    /// recovers from.
    Stop,
}

/// The per-job RNG seed: a SplitMix64 mix of the campaign seed, the
/// target's name hash, and the shard index. Worker assignment and timing
/// never enter, which is what makes campaigns reproducible at any `-j`.
pub fn job_seed(campaign_seed: u64, target: &str, shard: u32) -> u64 {
    splitmix64(
        campaign_seed
            .wrapping_add(hash64(target.as_bytes()))
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(shard) + 1)),
    )
}

/// Deterministic retry backoff. Instead of a wall-clock delay (which
/// would reintroduce timing into an otherwise pure schedule), backoff is
/// expressed as *queue position* material: the retried job is inserted
/// mid-queue so other queued work runs first. A pure function of the
/// campaign seed and the job identity, so kill/resume replays it.
pub fn retry_backoff(campaign_seed: u64, target: &str, shard: u32, attempt: u32) -> u64 {
    let salt = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(attempt));
    job_seed(campaign_seed ^ salt, target, shard)
}

/// Splits a target's execution budget across its shards; the remainder
/// `r` is spread one-exec-each over the first `r` shards, so the budget
/// is spent exactly and no shard carries more than one extra exec (shard
/// 0 used to absorb the whole remainder, making lease 0 up to
/// `shards - 1` execs heavier than every other lease).
pub fn execs_for_shard(execs_per_target: u64, shards: u32, shard: u32) -> u64 {
    let shards = u64::from(shards.max(1));
    let base = execs_per_target / shards;
    base + u64::from(u64::from(shard) < execs_per_target % shards)
}

/// The fuzz loop's observer: the job's telemetry, plus the caller's
/// heartbeat after every fuzz-binary execution.
struct Observed<'a> {
    tel: FuzzTelemetry<'a>,
    heartbeat: &'a mut dyn FnMut(),
}

impl FuzzObserver for Observed<'_> {
    fn exec_begin(&mut self) {
        self.tel.exec_begin();
    }

    fn exec_end(&mut self, result: &ExecResult, queue_depth: usize) {
        self.tel.exec_end(result, queue_depth);
        (self.heartbeat)();
    }
}

/// Runs one job attempt to completion: a full fuzzing campaign over the
/// shard's seed slice with the CompDiff oracle attached, instrumented
/// through `ctel` (metric updates only — events are the coordinator's
/// job, so a worker never touches the recorder). `heartbeat` runs after
/// every fuzz-binary execution; the worker loop renews its lease from it.
///
/// # Errors
///
/// Returns the failure kind and message for an injected (non-panic) job
/// fault; injected *panics* unwind out of this function and are caught
/// by the worker loop (`die@` faults never reach here: the worker loop
/// acts on them before the job starts).
///
/// # Panics
///
/// Panics deliberately when the fault plan schedules `panic@...` for
/// this job attempt (and whenever the fuzzing or VM stack itself has a
/// bug — which is exactly what the worker's `catch_unwind` isolates).
pub fn run_job(
    ct: &CompiledTarget,
    cfg: &CampaignConfig,
    job: Job,
    heartbeat: &mut dyn FnMut(),
    ctel: &CampaignTelemetry,
) -> Result<JobOutput, (FailureKind, String)> {
    let job_start_us = ctel.tel.now_micros();
    if let Some(plan) = cfg.fault_plan.as_deref() {
        match plan.fire_job(&ct.name, job.shard, job.attempt) {
            Some(FaultKind::Panic) => panic!(
                "fault plan panicked job {}#{} (attempt {})",
                ct.name, job.shard, job.attempt
            ),
            Some(FaultKind::Io) => {
                return Err((
                    FailureKind::Io,
                    format!(
                        "injected I/O error in job {}#{} (attempt {})",
                        ct.name, job.shard, job.attempt
                    ),
                ));
            }
            _ => {}
        }
    }
    let seed = job_seed(cfg.seed, &ct.name, job.shard);
    let max_execs = execs_for_shard(cfg.execs_per_target, cfg.shards_per_target, job.shard);
    // The seed-slice: shard s takes every `shards`-th corpus entry
    // starting at s; a shard whose slice is empty falls back to the full
    // corpus (still deterministic — the slice depends only on the shard).
    let mut seeds: Vec<Vec<u8>> = ct
        .seeds
        .iter()
        .skip(job.shard as usize)
        .step_by(cfg.shards_per_target.max(1) as usize)
        .cloned()
        .collect();
    if seeds.is_empty() {
        seeds = ct.seeds.clone();
    }

    // The differential oracle: the shared (immutable) engine, one
    // job-local persistent session per differential binary, and the
    // job's telemetry observing every differential execution.
    let fuzz_vm = cfg.diff_config.vm.clone();
    let mut oracle = CompDiffOracle::new(
        &ct.diff,
        ct.diff_sessions(),
        &ct.fuzz_binary,
        &fuzz_vm,
        ctel.diff_observer(),
    );
    let stats = Fuzzer::new(
        BinaryTarget::new(&ct.fuzz_binary, fuzz_vm)
            .with_block_program(std::sync::Arc::clone(&ct.fuzz_blocks)),
        &mut oracle,
        FuzzConfig {
            max_execs,
            seed,
            max_input_len: cfg.max_input_len,
            deterministic: true,
            dictionary: vec![ct.magic.to_vec()],
            batch_size: cfg.batch_size,
        },
    )
    .with_observer(Observed {
        tel: ctel.fuzz_observer(),
        heartbeat,
    })
    .run(&seeds);

    let mut vm = SessionStats::default();
    for s in oracle.sessions() {
        vm.merge(s.stats());
    }
    ctel.record_vm(vm);
    ctel.jobs_done.inc();
    let dur_us = ctel.tel.now_micros().saturating_sub(job_start_us);
    ctel.job_us.record(dur_us);

    let signatures: BTreeSet<String> = oracle
        .store
        .reports()
        .iter()
        .map(|d| d.signature.clone())
        .collect();
    Ok(JobOutput {
        worker: 0,
        record: JobRecord {
            target: ct.name.clone(),
            shard: job.shard,
            execs: stats.execs,
            oracle_execs: oracle.oracle_execs,
            divergent: oracle.divergent,
            crashes: stats.crashes.len() as u64,
            signatures: signatures.into_iter().collect(),
        },
        dur_us,
        vm,
        lint: LintTally::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_seed_depends_on_all_inputs() {
        let base = job_seed(1, "tcpdump", 0);
        assert_ne!(base, job_seed(2, "tcpdump", 0));
        assert_ne!(base, job_seed(1, "mujs", 0));
        assert_ne!(base, job_seed(1, "tcpdump", 1));
        assert_eq!(base, job_seed(1, "tcpdump", 0), "pure function");
    }

    #[test]
    fn shard_budgets_sum_to_target_budget() {
        for (total, shards) in [
            (1_000u64, 4u32),
            (7u64, 3u32),
            (5u64, 8u32),
            (2_001u64, 4u32),
            (0u64, 3u32),
        ] {
            let budgets: Vec<u64> = (0..shards)
                .map(|s| execs_for_shard(total, shards, s))
                .collect();
            let sum: u64 = budgets.iter().sum();
            assert_eq!(sum, total);
            let max = budgets.iter().max().copied().unwrap_or(0);
            let min = budgets.iter().min().copied().unwrap_or(0);
            assert!(
                max - min <= 1,
                "remainder must be spread evenly, got {budgets:?} for {total}/{shards}"
            );
        }
    }

    #[test]
    fn retry_backoff_is_pure_and_attempt_dependent() {
        let a = retry_backoff(1, "tcpdump", 0, 2);
        assert_eq!(a, retry_backoff(1, "tcpdump", 0, 2), "pure function");
        assert_ne!(a, retry_backoff(1, "tcpdump", 0, 3), "varies by attempt");
        assert_ne!(a, retry_backoff(2, "tcpdump", 0, 2), "varies by seed");
    }
}
