//! # campaign — parallel multi-target differential-fuzzing campaigns
//!
//! The paper's evaluation fuzzes 23 targets × 24 hours with CompDiff
//! attached; this crate is the orchestrator that makes that workload
//! practical. One coordinator shards every target's budget into (target ×
//! seed-slice) [`scheduler`] jobs and leases them out, partitioned
//! round-robin, to N workers — threads of this process, or worker
//! processes over a local socket; the same coordinator loop drives both
//! (DESIGN.md §17). A [`cache::BinaryCache`] compiles and lints each
//! target once per process: one shared build of the ten implementations
//! makes the ten differential binaries, one of which is the fuzz binary,
//! and the rewrite logs that feed the lint. A crash-resilient [`state::CampaignState`] checkpoints each
//! finished job to a JSONL file so a killed campaign resumes where it
//! stopped, and a [`stats::CampaignStats`] aggregator dedups
//! discrepancies campaign-wide by [`compdiff::signature_of`].
//!
//! Campaigns are deterministic: each job's fuzzing RNG is seeded from
//! `(campaign seed, target, shard)` only, so the deduped signature set is
//! identical at any worker count, and under a fixed clock the report and
//! the metrics stream are byte-identical across runs at any worker count.
//!
//! Campaigns are also *fault-tolerant*: a panicking job or compile is
//! caught ([`worker`], [`cache`]) and becomes a structured
//! [`state::FailureRecord`]; failed jobs are retried with deterministic
//! backoff and repeatedly failing targets are quarantined ([`policy`]);
//! a finished job counts once an fsync covers its checkpoint record
//! (fsyncs are group-committed), and checkpoints survive kill/resume
//! including their failure history ([`state`]); and every recovery path
//! is exercisable on demand through the seeded fault-injection harness
//! ([`faults`]). A campaign with failing jobs completes with a
//! partial-results report instead of aborting.
//!
//! ```
//! let report = campaign::run(&campaign::CampaignConfig {
//!     workers: 2,
//!     execs_per_target: 60,
//!     shards_per_target: 2,
//!     target_filter: Some(vec!["tcpdump".to_string()]),
//!     ..Default::default()
//! })
//! .unwrap();
//! assert_eq!(report.stats.jobs_done, 2);
//! ```

#![warn(missing_docs)]

pub mod cache;
mod coordinator;
pub mod faults;
pub mod policy;
pub(crate) mod proto;
pub mod scheduler;
pub mod state;
pub mod stats;
pub mod telem;
mod transport;
pub mod worker;

pub use cache::{BinaryCache, CacheError, CompiledTarget, LintTally};
pub use coordinator::run;
pub use faults::{FaultKind, FaultPlan};
pub use policy::{Disposition, FaultLedger, RetryPolicy};
pub use proto::LintTallyError;
pub use scheduler::{execs_for_shard, job_seed, retry_backoff, Decision, Job, JobResult};
pub use state::{
    CampaignHeader, CampaignState, FailureKind, FailureRecord, JobRecord, StateError,
    CHECKPOINT_FILE, LOCK_FILE,
};
pub use stats::{CampaignStats, TargetStats};
pub use telem::CampaignTelemetry;
pub use transport::resolve_worker_exe;
pub use worker::{query_status, run_worker};

use compdiff::{DiffConfig, Json};
use minc_compile::CompilerImpl;
use std::collections::BTreeSet;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use targets::{SharedSource, Target};
use telemetry::{JsonlRecorder, NoopRecorder, Telemetry};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Worker threads (when `workers_proc` is unset).
    pub workers: usize,
    /// Fuzz-binary execution budget per target (split across shards).
    pub execs_per_target: u64,
    /// Seed shards per target; also the campaign's unit of checkpointing.
    pub shards_per_target: u32,
    /// Root RNG seed.
    pub seed: u64,
    /// Maximum fuzzed input length.
    pub max_input_len: usize,
    /// Differential-engine configuration (implementations, VM limits).
    pub diff_config: DiffConfig,
    /// Implementation whose binary is fuzzed: the oracle's build of it,
    /// run with coverage hooks attached.
    pub fuzz_impl: CompilerImpl,
    /// Directory for `checkpoint.jsonl`; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from an existing checkpoint instead of starting fresh.
    pub resume: bool,
    /// Where the campaign's programs come from (default: the static
    /// 23-target catalog). Generated programs enter here — e.g.
    /// `targets::dir_source` over a `compdiff progen` output directory.
    pub source: SharedSource,
    /// Restrict the campaign to these source targets (default: all).
    pub target_filter: Option<Vec<String>>,
    /// Abort after this many *live* job attempts resolve (done or
    /// failed) — the test hook that simulates a mid-campaign kill at any
    /// job boundary, including failure boundaries.
    pub stop_after_jobs: Option<usize>,
    /// Re-runs granted to a failed job before it is abandoned.
    pub max_retries: u32,
    /// Cumulative failures after which a target is quarantined (its
    /// remaining shards are skipped and the campaign reports partial
    /// results).
    pub quarantine_after: u32,
    /// Deterministic fault-injection plan; `None` (the production
    /// default) reduces every injection point to one `Option` check.
    /// Worker processes receive it as its spec string.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Suppress the live progress line.
    pub quiet: bool,
    /// Stream telemetry events (JSONL, one `compdiff::json` object per
    /// line) to this path; `None` leaves event recording disabled.
    pub metrics_out: Option<PathBuf>,
    /// Emit a progress line to stderr every this many finished jobs;
    /// `0` disables periodic progress.
    pub progress_every: usize,
    /// Pin the telemetry clock to this fixed microsecond reading instead
    /// of wall time. This makes the report and the event stream
    /// byte-identical across runs (the determinism test hook).
    pub fixed_clock_us: Option<u64>,
    /// Inputs per batched oracle sweep: each differential binary runs the
    /// whole batch before the next binary starts, and only inputs whose
    /// output digests disagree are bisected through the full per-input
    /// escalation path. `1` restores strict per-input interleaving.
    pub batch_size: usize,
    /// Run the sanitizer meta-oracle over every selected target after
    /// fuzzing finishes, publishing `sancheck.*` metrics (site counts,
    /// sanitizer false negatives/alarms, cross-impl verdict splits).
    pub sancheck: bool,
    /// Run the workers as this many *processes* (JSON frames over a
    /// local socket; see DESIGN.md §17) instead of `workers` threads.
    /// `None` (the default) keeps the workers in-process.
    pub workers_proc: Option<usize>,
    /// Worker executable the coordinator spawns; `None` resolves the
    /// `compdiff` binary next to the current executable.
    pub worker_exe: Option<PathBuf>,
    /// Write the coordinator's status-endpoint address (`host:port`
    /// plus a newline) to this file once it is listening (worker
    /// processes only).
    pub status_addr_out: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            workers: 4,
            execs_per_target: 2_000,
            shards_per_target: 4,
            seed: 0xCA3D,
            max_input_len: 64,
            diff_config: DiffConfig::default(),
            fuzz_impl: CompilerImpl::parse("clang-O1").expect("clang-O1 is a valid impl"),
            checkpoint_dir: None,
            resume: false,
            source: SharedSource::default(),
            target_filter: None,
            stop_after_jobs: None,
            max_retries: 2,
            quarantine_after: 3,
            fault_plan: None,
            quiet: true,
            metrics_out: None,
            progress_every: 0,
            fixed_clock_us: None,
            batch_size: 16,
            sancheck: false,
            workers_proc: None,
            worker_exe: None,
            status_addr_out: None,
        }
    }
}

/// Errors a campaign can fail with. A failing *job* is not among them:
/// compile errors, panics, and I/O faults inside jobs are handled by the
/// retry/quarantine machinery and reported as partial results.
#[derive(Debug)]
pub enum CampaignError {
    /// The checkpoint could not be created or read.
    State(StateError),
    /// The target filter matched nothing.
    UnknownTarget(String),
    /// The `metrics_out` stream could not be created.
    Metrics(std::io::Error),
    /// The coordinator/worker protocol failed (socket setup, worker
    /// spawn, an over-cap config frame, or a malformed frame).
    Proto(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::State(e) => write!(f, "{e}"),
            CampaignError::UnknownTarget(m) => write!(f, "{m}"),
            CampaignError::Metrics(e) => write!(f, "cannot open metrics stream: {e}"),
            CampaignError::Proto(m) => write!(f, "campaign protocol error: {m}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<StateError> for CampaignError {
    fn from(e: StateError) -> Self {
        CampaignError::State(e)
    }
}

/// The result of [`run`].
#[derive(Debug)]
pub struct CampaignReport {
    /// Aggregated statistics (including checkpoint-replayed jobs).
    pub stats: CampaignStats,
    /// Wall-clock time of this process's portion of the campaign.
    pub elapsed: Duration,
    /// Binary-cache `(hits, misses)`; misses = compiles performed.
    pub cache: (u64, u64),
    /// Checkpoint file, if checkpointing was enabled.
    pub checkpoint: Option<PathBuf>,
    /// True if the campaign stopped early (`stop_after_jobs`).
    pub aborted: bool,
    /// True if checkpointing was disabled mid-campaign after a
    /// persistent append failure (the campaign itself kept running).
    pub checkpoint_degraded: bool,
    /// Final snapshot of the campaign's metric registry (always
    /// populated — aggregation runs even when the event stream is off).
    pub metrics: Json,
}

impl CampaignReport {
    /// The campaign-wide deduped discrepancy-signature set.
    pub fn signatures(&self) -> &BTreeSet<String> {
        &self.stats.signatures
    }

    /// The end-of-campaign summary, with the machine-readable metrics
    /// snapshot merged in as its last line.
    pub fn render_summary(&self) -> String {
        let mut s = self.stats.render_summary(self.elapsed, self.cache);
        s.push_str(&format!("metrics: {}\n", self.metrics.render()));
        s
    }
}

/// Everything a campaign sets up before jobs run.
pub(crate) struct Prepared {
    /// The selected targets, in schedule order.
    pub(crate) selected: Vec<Target>,
    /// Jobs still to run (checkpoint-replayed ones are filtered out).
    pub(crate) pending: Vec<Job>,
    /// The open checkpoint, if checkpointing is enabled.
    pub(crate) state: Option<CampaignState>,
    /// The aggregator, pre-loaded with any checkpoint-replayed jobs.
    pub(crate) stats: CampaignStats,
    /// The retry/quarantine ledger, pre-loaded from the checkpoint.
    pub(crate) ledger: FaultLedger,
    /// The retry policy in force.
    pub(crate) policy: RetryPolicy,
}

/// The campaign preamble: target selection, checkpoint open (create or
/// resume), failure-history replay, and the pending-job filter. Nothing
/// here compiles or lints: the binary cache does both, on the workers.
pub(crate) fn prepare(
    cfg: &CampaignConfig,
    ctel: &CampaignTelemetry,
    workers: usize,
) -> Result<Prepared, CampaignError> {
    let selected: Vec<Target> = select_targets(cfg)?;
    let names: Vec<String> = selected.iter().map(|t| t.spec.name.to_string()).collect();

    let header = CampaignHeader {
        seed: cfg.seed,
        execs_per_target: cfg.execs_per_target,
        shards_per_target: cfg.shards_per_target,
        targets: names,
    };
    let mut state = match &cfg.checkpoint_dir {
        Some(dir) if cfg.resume => Some(CampaignState::resume(dir, &header)?),
        Some(dir) => Some(CampaignState::create(dir, &header)?),
        None => None,
    };
    if let (Some(st), Some(plan)) = (state.as_mut(), &cfg.fault_plan) {
        st.set_faults(Arc::clone(plan));
    }

    let policy = RetryPolicy {
        max_retries: cfg.max_retries,
        quarantine_after: cfg.quarantine_after,
    };
    let mut ledger = FaultLedger::new();

    let all_jobs: Vec<Job> = (0..selected.len())
        .flat_map(|t| {
            (0..cfg.shards_per_target).map(move |s| Job {
                target_index: t,
                shard: s,
                attempt: 1,
            })
        })
        .collect();
    let mut stats = CampaignStats::new(workers, all_jobs.len());
    if let Some(st) = &state {
        for rec in st.done().values() {
            stats.absorb(None, rec);
        }
        // Replay the failure history through the same policy state
        // machine the live path uses: attempt counts, retry totals, and
        // the quarantine set come out exactly as the uninterrupted run
        // built them.
        for f in st.failures().to_vec() {
            stats.note_failure(&f.target);
            let disposition = ledger.note_failure(&policy, &f.target, f.shard, f.attempt);
            stats.note_disposition(&f.target, disposition);
        }
        ctel.targets_quarantined
            .set(ledger.quarantined.len() as u64);
    }
    let mut pending: Vec<Job> = Vec::new();
    for mut j in all_jobs {
        let name = selected[j.target_index].spec.name.as_str();
        if state.as_ref().is_some_and(|st| st.is_done(name, j.shard)) {
            continue;
        }
        if ledger.failed_jobs.contains(&(name.to_string(), j.shard)) {
            // Terminally failed before the kill: already counted via the
            // replay above; rescheduling it would diverge from the
            // uninterrupted run.
            continue;
        }
        if ledger.quarantined.contains(name) {
            stats.note_skipped(name, 1);
            continue;
        }
        j.attempt = ledger.prior_attempts(name, j.shard) + 1;
        pending.push(j);
    }

    Ok(Prepared {
        selected,
        pending,
        state,
        stats,
        ledger,
        policy,
    })
}

/// Assembles the campaign's [`Telemetry`] from the config: a JSONL
/// recorder when `metrics_out` is set (otherwise no-op; the registry
/// aggregates either way).
fn build_telemetry(cfg: &CampaignConfig) -> Result<Arc<Telemetry>, CampaignError> {
    Ok(match &cfg.metrics_out {
        Some(path) => {
            let file = File::create(path).map_err(CampaignError::Metrics)?;
            let rec = JsonlRecorder::new(BufWriter::new(file));
            Telemetry::clocked(cfg.fixed_clock_us, rec)
        }
        None => Telemetry::clocked(cfg.fixed_clock_us, NoopRecorder),
    })
}

fn select_targets(cfg: &CampaignConfig) -> Result<Vec<Target>, CampaignError> {
    let built = cfg.source.get().targets();
    match &cfg.target_filter {
        None => Ok(built),
        Some(filter) => {
            let mut out = Vec::new();
            for want in filter {
                let t = built.iter().find(|t| t.spec.name == *want).ok_or_else(|| {
                    let known: Vec<&str> = built.iter().map(|t| t.spec.name.as_str()).collect();
                    CampaignError::UnknownTarget(format!(
                        "unknown target `{want}`; {}: {}",
                        cfg.source.get().label(),
                        known.join(", ")
                    ))
                })?;
                out.push(t.clone());
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod decode_tests;

#[cfg(test)]
mod tests {
    // test-only: unwraps in this module assert test invariants.
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("compdiff-telem-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The tentpole acceptance test: one worker plus a pinned test clock
    /// makes the `--metrics-out` stream byte-identical across runs, every
    /// line parses with `compdiff::json`, and the final line is the
    /// metrics snapshot.
    #[test]
    fn metrics_stream_is_deterministic() {
        let dir = temp_dir("determinism");
        let run_once = |path: PathBuf| {
            let report = run(&CampaignConfig {
                workers: 1,
                execs_per_target: 40,
                shards_per_target: 2,
                target_filter: Some(vec!["tcpdump".to_string()]),
                metrics_out: Some(path.clone()),
                fixed_clock_us: Some(0),
                ..Default::default()
            })
            .unwrap();
            (std::fs::read_to_string(path).unwrap(), report)
        };
        let (first, report) = run_once(dir.join("a.jsonl"));
        let (second, _) = run_once(dir.join("b.jsonl"));
        assert_eq!(first, second, "same seed + fixed clock => identical stream");

        let lines: Vec<&str> = first.lines().collect();
        assert!(lines.len() >= 3, "expected job events plus snapshot");
        for line in &lines {
            Json::parse(line).unwrap_or_else(|e| panic!("bad event line {line}: {e}"));
        }
        let job_events = lines
            .iter()
            .filter(|l| Json::parse(l).unwrap().get("ev").and_then(Json::as_str) == Some("job"))
            .count();
        assert_eq!(job_events, 2, "one event per job");
        let last = Json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("ev").and_then(Json::as_str), Some("metrics"));
        let counters = last.get("metrics").and_then(|m| m.get("counters")).unwrap();
        assert_eq!(
            counters.get("fuzz.execs").and_then(Json::as_u64),
            Some(report.stats.execs),
            "registry agrees with the aggregator"
        );
        assert_eq!(
            counters.get("campaign.jobs_done").and_then(Json::as_u64),
            Some(2)
        );

        // The snapshot is merged into the human summary too.
        assert!(report.render_summary().contains("metrics: {"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Disabled telemetry still aggregates: no stream, but the report
    /// carries a populated snapshot.
    #[test]
    fn disabled_telemetry_still_snapshots() {
        let report = run(&CampaignConfig {
            workers: 1,
            execs_per_target: 20,
            shards_per_target: 1,
            target_filter: Some(vec!["tcpdump".to_string()]),
            ..Default::default()
        })
        .unwrap();
        let counters = report.metrics.get("counters").unwrap();
        assert_eq!(
            counters.get("fuzz.execs").and_then(Json::as_u64),
            Some(report.stats.execs)
        );
        assert!(
            counters.get("diff.runs").and_then(Json::as_u64).unwrap() > 0,
            "oracle ran"
        );
    }
}
