//! The coordinator: the campaign's one scheduler (DESIGN.md §17).
//!
//! [`run`] owns everything a campaign must have exactly one of: the
//! shard queues and lease table, the retry/quarantine ledger, the
//! checkpoint writer, the campaign-wide signature dedup, the event
//! buffer, and the metric registry the status endpoint and final
//! snapshot read.
//! Workers own nothing durable. They come and go through a
//! [`Transport`] — threads of this process or worker processes — and
//! trade `lease_req`/`lease`/`done`/`failed` [`Frame`]s until the
//! coordinator broadcasts `shutdown`.
//!
//! Determinism: shards are *partitioned* round-robin across the `n`
//! logical worker indexes (no stealing), each job's RNG seed depends
//! only on `(campaign seed, target, shard)`, retries re-queue at a
//! [`retry_backoff`] position, events are buffered and re-sorted into
//! canonical [`crate::EventKey`] order before they hit the recorder, and
//! worker metric snapshots merge commutatively. A clean campaign is
//! therefore byte-identical — report and metrics stream — across runs
//! at any worker count, and across the two transports at equal counts.
//!
//! Fault tolerance: a worker that dies or loses its link mid-lease
//! surfaces as [`Ev::Gone`]; the coordinator reclaims the lease as a
//! [`FailureKind::Lost`] attempt (feeding the ordinary retry/quarantine
//! policy) and starts a replacement while its shard queue is non-empty.
//! A worker that hangs without renewing is reclaimed the same way after
//! [`LEASE_TIMEOUT`].

use crate::policy::{Disposition, FaultLedger, RetryPolicy};
use crate::proto::Frame;
use crate::scheduler::{retry_backoff, Decision, Job, JobFailure, JobOutput, JobResult};
use crate::state::{CampaignState, FailureKind, FailureRecord, StateError};
use crate::stats::CampaignStats;
use crate::telem::CampaignTelemetry;
use crate::transport::{Procs, Threads};
use crate::{
    build_telemetry, prepare, CampaignConfig, CampaignError, CampaignReport, LintTally, Prepared,
};
use compdiff::Json;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fs::File;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use targets::Target;
use telemetry::{MetricRegistry, Telemetry};

/// How often the main loop wakes with no traffic: lease-expiry scans and
/// worker reaping run at this cadence.
const TICK: Duration = Duration::from_millis(200);

/// Time without a renewal after which a lease is reclaimed and its job
/// re-queued. Wall-clock by necessity (a hung worker is a wall-clock
/// phenomenon), which is why it dwarfs the workers' renewal period.
const LEASE_TIMEOUT: Duration = Duration::from_secs(30);

/// Replacement workers granted beyond the initial `n` before the
/// coordinator gives up (a crash-looping worker would otherwise respawn
/// forever).
const RESPAWN_SLACK: usize = 256;

/// The lost-lease failure message for a closed link (worker death or
/// injected drop — indistinguishable to the coordinator, by design).
const MSG_LINK_LOST: &str = "worker lost mid-lease (link closed)";

/// What transports deliver to the single-threaded main loop.
pub(crate) enum Ev {
    /// A worker came up; `out` feeds its inbound frames. Dropping `out`
    /// severs the worker: a thread's inbox closes, and a process's writer
    /// thread shuts its socket down.
    Hello { conn: u64, out: mpsc::Sender<Frame> },
    /// One frame from a connected worker.
    Frame { conn: u64, frame: Box<Frame> },
    /// A worker sent a frame that does not decode.
    Malformed(String),
    /// The worker's link closed (after `bye`, or mid-lease).
    Gone { conn: u64 },
    /// A status client wants the live progress object.
    Status { reply: mpsc::Sender<Json> },
    /// The [`Syncer`] finished one fsync covering every job record
    /// written ahead up to number `upto`: its duration, or the error.
    Synced {
        upto: u64,
        result: Result<u64, String>,
    },
}

/// Group commit for the checkpoint: a thread that fsyncs it behind the
/// main loop. The loop writes a finished job's record ahead, acks the
/// worker at once, and asks for a sync; the job counts as done only when
/// [`Ev::Synced`] says its record is durable. One fsync covers every
/// request queued while the previous one ran, so a worker never waits
/// on the disk, and a slow disk costs fewer, larger fsyncs instead of
/// one per job.
struct Syncer {
    requests: Option<mpsc::Sender<u64>>,
    thread: Option<JoinHandle<()>>,
}

impl Syncer {
    fn start(file: File, tel: Arc<Telemetry>, ev_tx: mpsc::Sender<Ev>) -> Result<Self, StateError> {
        let (requests, rx) = mpsc::channel::<u64>();
        let thread = std::thread::Builder::new()
            .name("checkpoint-sync".to_string())
            .spawn(move || {
                while let Ok(first) = rx.recv() {
                    let upto = rx.try_iter().fold(first, u64::max);
                    let t0 = tel.now_micros();
                    let result = file
                        .sync_all()
                        .map(|()| tel.now_micros().saturating_sub(t0))
                        .map_err(|e| e.to_string());
                    if ev_tx.send(Ev::Synced { upto, result }).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Syncer {
            requests: Some(requests),
            thread: Some(thread),
        })
    }

    /// Asks for every job record up to number `upto` to be made durable.
    fn request(&self, upto: u64) {
        if let Some(tx) = &self.requests {
            let _ = tx.send(upto);
        }
    }
}

impl Drop for Syncer {
    /// Closes the request channel and waits out the fsync in progress, so
    /// the thread never outlives its campaign.
    fn drop(&mut self) {
        self.requests = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// How the coordinator starts and stops workers. A started worker
/// announces itself with [`Ev::Hello`], talks in [`Ev::Frame`]s, and
/// ends with [`Ev::Gone`]; severing needs no transport hook (see
/// [`Ev::Hello`]).
pub(crate) trait Transport {
    /// Starts one worker.
    fn spawn(&mut self) -> Result<(), CampaignError>;
    /// Collects workers that have exited, without waiting.
    fn reap(&mut self);
    /// Teardown, after every link is dropped: waits for all workers.
    fn join(&mut self);
}

/// Per-link coordinator state.
struct ConnState {
    /// The logical worker index (queue) this worker serves.
    widx: usize,
    /// Frames to the worker; `None` once severed.
    out: Option<mpsc::Sender<Frame>>,
    /// The lease this worker currently holds, if any.
    lease: Option<u64>,
    /// True if the worker asked for a lease while its queue was empty —
    /// a retry landing there re-grants immediately.
    parked: bool,
}

/// One outstanding lease.
struct LeaseInfo {
    job: Job,
    conn: u64,
    last_renew: Instant,
}

/// Canonical event order: `(target index, shard, done-after-failures
/// flag, attempt, failure-before-quarantine rank)`. Results arrive in
/// completion order, which is not deterministic at N > 1 workers;
/// events sorted by this key are.
type EventKey = (usize, u32, u8, u32, u8);

/// One buffered telemetry event: canonical sort key, event name, fields.
type BufferedEvent = (EventKey, &'static str, Vec<(&'static str, Json)>);

/// The single-threaded campaign brain: every field that must exist
/// exactly once, mutated only from the event loop.
struct Coordinator<'a> {
    cfg: &'a CampaignConfig,
    ctel: &'a CampaignTelemetry,
    selected: &'a [Target],
    transport: Box<dyn Transport>,
    /// The open checkpoint, if any; this is its only writer.
    state: Option<CampaignState>,
    /// Fsyncs `state` behind the main loop; present with `state`.
    syncer: Option<Syncer>,
    /// Job records written ahead so far (numbers the sync requests).
    written_ahead: u64,
    /// Finished jobs whose records are written but not yet known to be
    /// durable, with their write-ahead number, in arrival order.
    unsynced: VecDeque<(u64, JobOutput)>,
    /// Checkpointing was disabled after a persistent append or fsync
    /// failure.
    degraded: bool,
    /// The aggregator, pre-loaded with checkpoint-replayed jobs.
    stats: CampaignStats,
    policy: RetryPolicy,
    /// Retry/quarantine state, pre-loaded from the checkpoint.
    ledger: FaultLedger,
    /// Job attempts resolved in this run (`stop_after_jobs`,
    /// `progress_every`).
    resolved: usize,
    started: Instant,
    /// Events held for the canonical-order flush at the end, so the
    /// recorded stream does not depend on completion order
    /// (`progress_every` is the live view).
    events: Vec<BufferedEvent>,
    /// Logical worker indexes (queue count) — *not* live worker count.
    n: usize,
    /// Per-index shard queues: job (target `t`, shard `s`) goes to queue
    /// `(t + s) % n`. Each target's shards rotate across the queues, so
    /// per-shard-index cost differences (shards slice the seed corpus
    /// differently) do not pile up on one worker, and a job's queue is a
    /// pure function of its identity.
    deques: Vec<VecDeque<Job>>,
    /// Jobs queued or leased but not yet resolved.
    outstanding: usize,
    conns: HashMap<u64, ConnState>,
    leases: HashMap<u64, LeaseInfo>,
    lease_seq: u64,
    /// Worker indexes with no live worker serving them.
    free_idx: BTreeSet<usize>,
    /// Queued jobs dropped by quarantine sweeps.
    swept: Vec<Job>,
    /// Set by `stop_after_jobs`: the campaign aborts (the report says so).
    stopping: bool,
    finishing: bool,
    /// Total workers ever started (respawn-cap accounting).
    spawned: usize,
    /// Workers started but not yet hello'd.
    pending_spawns: usize,
    /// Latest metric snapshot per link (a replacement worker gets a
    /// fresh link id, so dead workers' last snapshots survive).
    worker_metrics: HashMap<u64, Json>,
    /// Per selected target: whether its lint has been counted. The
    /// first accepted `done` carries it; [`finish`](Self::finish) lints
    /// the rest.
    linted: Vec<bool>,
    /// First unrecoverable error; aborts the event loop.
    fatal: Option<CampaignError>,
}

impl Coordinator<'_> {
    fn fail(&mut self, e: CampaignError) {
        self.fatal.get_or_insert(e);
    }

    fn send(&self, conn: u64, frame: Frame) {
        if let Some(out) = self.conns.get(&conn).and_then(|c| c.out.as_ref()) {
            let _ = out.send(frame);
        }
    }

    /// Cuts `conn`'s link. `Gone` follows once the worker notices.
    fn sever(&mut self, conn: u64) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.out = None;
        }
    }

    fn broadcast_shutdown(&self) {
        for &conn in self.conns.keys() {
            self.send(conn, Frame::Shutdown);
        }
    }

    /// The free worker index most in need of a worker: longest queue,
    /// ties to the smallest index.
    fn pick_index(&self) -> Option<usize> {
        self.free_idx
            .iter()
            .copied()
            .max_by_key(|&i| (self.deques[i].len(), std::cmp::Reverse(i)))
    }

    fn spawn_worker(&mut self) -> Result<(), CampaignError> {
        if self.spawned >= self.n + RESPAWN_SLACK {
            return Err(CampaignError::Proto(format!(
                "worker respawn cap exceeded ({} spawns for {} worker slots)",
                self.spawned, self.n
            )));
        }
        self.transport.spawn()?;
        self.spawned += 1;
        self.pending_spawns += 1;
        self.ctel.workers_spawned.inc();
        Ok(())
    }

    /// Starts workers until every free index with queued work has one
    /// on the way. The only respawn site, so a burst of lost leases
    /// cannot over-spawn.
    fn ensure_workers(&mut self) {
        if self.finishing || self.stopping || self.fatal.is_some() {
            return;
        }
        let needy = self
            .free_idx
            .iter()
            .filter(|&&i| !self.deques[i].is_empty())
            .count();
        while self.pending_spawns < needy {
            if let Err(e) = self.spawn_worker() {
                self.fail(e);
                return;
            }
        }
    }

    /// Resolves `job` as a lost lease (worker death, severed link, or
    /// expiry) through the ordinary failure policy.
    fn lost(&mut self, widx: usize, job: Job, message: &str) {
        self.take_result(JobResult::Failed(JobFailure {
            worker: widx,
            job,
            target: self.selected[job.target_index].spec.name.clone(),
            kind: FailureKind::Lost,
            message: message.to_string(),
        }));
    }

    /// Takes one job attempt's result, in arrival order. A finished job
    /// under a live checkpoint is written ahead and resolves once the
    /// [`Syncer`] reports its record durable: checkpoint first,
    /// aggregate second, so a job is "done" only once its record is on
    /// disk, while the worker already runs its next lease. Any other
    /// result first settles the jobs still waiting, so attempts resolve
    /// in the order they arrived, and then resolves at once: a failure's
    /// retry must be queued before its worker's next grant, or the
    /// job order (and the checkpoint's bytes) would depend on fsync
    /// timing.
    fn take_result(&mut self, result: JobResult) {
        let result = match result {
            JobResult::Done(out) if self.syncer.is_some() && !self.degraded => {
                if self.append(|st| st.append_job(out.record.clone())) {
                    self.written_ahead += 1;
                    self.unsynced.push_back((self.written_ahead, out));
                    if let Some(syncer) = &self.syncer {
                        syncer.request(self.written_ahead);
                    }
                    return;
                }
                JobResult::Done(out)
            }
            other => other,
        };
        self.settle();
        if self.stopping {
            return;
        }
        let decision = self.on_result(result);
        self.apply_decision(decision);
    }

    /// Makes every record written so far durable with one fsync on this
    /// thread, and resolves the jobs that were waiting for it.
    fn settle(&mut self) {
        if !self.unsynced.is_empty() {
            let result = self.fsync();
            self.synced(self.written_ahead, result);
        }
    }

    /// Applies one fsync that covered the job records written ahead up
    /// to number `upto`: those jobs now resolve, in arrival order. A
    /// failed fsync degrades checkpointing and releases every waiting
    /// job, as it would with no checkpoint.
    fn synced(&mut self, upto: u64, result: Result<u64, String>) {
        let sync_us = result.map_err(|e| self.degrade(&e)).ok();
        let ready = if self.degraded {
            self.unsynced.len()
        } else {
            self.unsynced.partition_point(|&(n, _)| n <= upto)
        };
        let ready: Vec<(u64, JobOutput)> = self.unsynced.drain(..ready).collect();
        for (_, out) in ready {
            if let Some(us) = sync_us {
                self.ctel.checkpoint_sync_us.record(us);
            }
            // Once stopping, results are dropped, as at arrival.
            if !self.stopping {
                let decision = self.on_result(JobResult::Done(out));
                self.apply_decision(decision);
            }
        }
    }

    /// Buffers one event for the canonical-order flush.
    fn emit(&mut self, key: EventKey, name: &'static str, fields: Vec<(&'static str, Json)>) {
        if self.ctel.tel.events_enabled() {
            self.events.push((key, name, fields));
        }
    }

    /// Applies one resolved job attempt — aggregate, event,
    /// retry/quarantine disposition — and returns the queue's next move.
    /// A finished job's record is already durable (see
    /// [`take_result`](Self::take_result)); a failure's is persisted
    /// here.
    fn on_result(&mut self, result: JobResult) -> Decision {
        let int = |n: u64| Json::Int(n as i64);
        let mut decision = Decision::Continue;
        match result {
            JobResult::Done(out) => {
                self.stats.absorb(Some(out.worker), &out.record);
                let (rec, vm) = (&out.record, &out.vm);
                let ti = self
                    .selected
                    .iter()
                    .position(|t| t.spec.name == rec.target)
                    .unwrap_or(0);
                if !std::mem::replace(&mut self.linted[ti], true) {
                    self.ctel.record_lint(&out.lint);
                }
                self.emit(
                    (ti, rec.shard, 1, 0, 0),
                    "job",
                    vec![
                        ("target", Json::Str(rec.target.clone())),
                        ("shard", int(rec.shard.into())),
                        ("worker", int(out.worker as u64)),
                        ("dur_us", int(out.dur_us)),
                        ("execs", int(rec.execs)),
                        ("oracle_execs", int(rec.oracle_execs)),
                        ("divergent", int(rec.divergent)),
                        ("crashes", int(rec.crashes)),
                        ("signatures", int(rec.signatures.len() as u64)),
                        ("pages_restored", int(vm.pages_restored)),
                        ("pages_materialized", int(vm.pages_materialized)),
                        ("bulk_builtin_ops", int(vm.bulk_builtin_ops)),
                        ("fallback_builtin_ops", int(vm.fallback_builtin_ops)),
                    ],
                );
                if !self.cfg.quiet {
                    let line = self.stats.progress_line();
                    eprintln!("{line} <- {}#{}", rec.target, rec.shard);
                }
            }
            JobResult::Failed(f) => {
                let job = f.job;
                self.stats.note_failure(&f.target);
                if f.kind == FailureKind::Panic {
                    self.ctel.worker_panics.inc();
                }
                self.persist(|st| {
                    st.append_failure(FailureRecord {
                        target: f.target.clone(),
                        shard: job.shard,
                        attempt: job.attempt,
                        kind: f.kind,
                        message: f.message.clone(),
                    })
                });
                let disposition =
                    self.ledger
                        .note_failure(&self.policy, &f.target, job.shard, job.attempt);
                self.emit(
                    (job.target_index, job.shard, 0, job.attempt, 0),
                    "failure",
                    vec![
                        ("target", Json::Str(f.target.clone())),
                        ("shard", int(job.shard.into())),
                        ("attempt", int(job.attempt.into())),
                        ("kind", Json::Str(f.kind.to_string())),
                        ("worker", int(f.worker as u64)),
                        ("message", Json::Str(f.message.clone())),
                    ],
                );
                if !self.cfg.quiet {
                    eprintln!(
                        "{} !! {}#{} attempt {} failed ({}): {}",
                        self.stats.progress_line(),
                        f.target,
                        job.shard,
                        job.attempt,
                        f.kind,
                        f.message
                    );
                }
                self.stats.note_disposition(&f.target, disposition);
                match disposition {
                    Disposition::Retry { next_attempt } => {
                        self.ctel.job_retries.inc();
                        decision = Decision::Retry(Job {
                            attempt: next_attempt,
                            ..job
                        });
                    }
                    Disposition::Quarantine => {
                        let quarantined = self.ledger.quarantined.len() as u64;
                        self.ctel.targets_quarantined.set(quarantined);
                        let failures = self.ledger.target_failures.get(&f.target).copied();
                        self.emit(
                            (job.target_index, job.shard, 0, job.attempt, 1),
                            "quarantine",
                            vec![
                                ("target", Json::Str(f.target.clone())),
                                ("failures", int(failures.unwrap_or(0).into())),
                            ],
                        );
                        if !self.cfg.quiet {
                            eprintln!("quarantined {} after repeated failures", f.target);
                        }
                        decision = Decision::Quarantine {
                            target_index: job.target_index,
                        };
                    }
                    Disposition::Exhausted | Disposition::AlreadyQuarantined => {}
                }
            }
        }
        self.resolved += 1;
        if self.cfg.progress_every > 0 && self.resolved.is_multiple_of(self.cfg.progress_every) {
            let secs = self.started.elapsed().as_secs_f64().max(1e-9);
            let rate = self.stats.execs as f64 / secs;
            eprintln!("{} [{rate:.0} execs/sec]", self.stats.progress_line());
        }
        match self.cfg.stop_after_jobs {
            Some(k) if self.resolved >= k => Decision::Stop,
            _ => decision,
        }
    }

    /// Appends one checkpoint record and fsyncs it on this thread.
    fn persist(&mut self, append: impl Fn(&mut CampaignState) -> Result<(), StateError>) {
        if self.append(append) {
            match self.fsync() {
                Ok(us) => self.ctel.checkpoint_sync_us.record(us),
                Err(e) => self.degrade(&e),
            }
        }
    }

    /// Appends one checkpoint record with the repair-then-degrade
    /// policy: a failed append is repaired (truncating any partial
    /// write) and retried once; if the retry, or a later fsync, also
    /// fails, checkpointing is disabled for the rest of the campaign
    /// (`degraded`) and the campaign carries on — durability is
    /// best-effort, forward progress is not. This is what turns a flaky
    /// checkpoint disk into a degraded report instead of an abort or a
    /// hang. Returns whether the record was written.
    fn append(&mut self, append: impl Fn(&mut CampaignState) -> Result<(), StateError>) -> bool {
        let (ctel, quiet) = (self.ctel, self.cfg.quiet);
        let Some(st) = self.state.as_mut().filter(|_| !self.degraded) else {
            return false;
        };
        let t0 = ctel.tel.now_micros();
        let mut result = append(st);
        if let Err(e) = &result {
            ctel.checkpoint_errors.inc();
            if !quiet {
                eprintln!("checkpoint append failed ({e}); repairing and retrying");
            }
            result = st.repair().and_then(|()| append(st));
        }
        match result {
            Ok(()) => {
                ctel.checkpoint_write_us
                    .record(ctel.tel.now_micros().saturating_sub(t0));
                true
            }
            Err(e) => {
                self.degrade(&e);
                false
            }
        }
    }

    /// One fsync of the checkpoint on this thread: its duration, or the
    /// error.
    fn fsync(&mut self) -> Result<u64, String> {
        let ctel = self.ctel;
        let Some(st) = self.state.as_mut() else {
            return Ok(0);
        };
        let t0 = ctel.tel.now_micros();
        st.sync()
            .map(|()| ctel.tel.now_micros().saturating_sub(t0))
            .map_err(|e| e.to_string())
    }

    /// Disables checkpointing for the rest of the campaign.
    fn degrade(&mut self, e: &dyn std::fmt::Display) {
        self.ctel.checkpoint_errors.inc();
        if !std::mem::replace(&mut self.degraded, true) && !self.cfg.quiet {
            eprintln!("checkpointing disabled for the rest of the campaign: {e}");
        }
    }

    /// Shuts the workers down once no job is queued or leased. Jobs
    /// still waiting for their fsync need no worker: they resolve as the
    /// fsync lands, or when [`finish`](Self::finish) settles them before
    /// the report.
    fn maybe_finish(&mut self) {
        if !self.finishing && !self.stopping && self.outstanding == self.unsynced.len() {
            self.finishing = true;
            self.broadcast_shutdown();
        }
    }

    fn apply_decision(&mut self, decision: Decision) {
        match decision {
            Decision::Continue => {
                self.outstanding -= 1;
                self.maybe_finish();
            }
            Decision::Retry(job) => {
                // The retry lands mid-queue at a position derived only
                // from the campaign seed and the job identity.
                let name = self.selected[job.target_index].spec.name.as_str();
                let back = retry_backoff(self.cfg.seed, name, job.shard, job.attempt);
                let d = (back % self.n as u64) as usize;
                let dq = &mut self.deques[d];
                let pos = ((back >> 32) as usize) % (dq.len() + 1);
                dq.insert(pos, job);
                let parked = self
                    .conns
                    .iter()
                    .find(|(_, c)| c.widx == d && c.parked)
                    .map(|(&id, _)| id);
                match parked {
                    Some(id) => self.try_grant(id),
                    None => self.ensure_workers(),
                }
            }
            Decision::Quarantine { target_index } => {
                self.outstanding -= 1;
                let mut removed = 0usize;
                let swept = &mut self.swept;
                for dq in &mut self.deques {
                    dq.retain(|j| {
                        let hit = j.target_index == target_index;
                        if hit {
                            swept.push(*j);
                            removed += 1;
                        }
                        !hit
                    });
                }
                self.outstanding -= removed;
                self.maybe_finish();
            }
            Decision::Stop => {
                self.stopping = true;
                self.broadcast_shutdown();
            }
        }
    }

    /// Grants a worker its next lease (on its first `lease_req`, and
    /// behind every `ack`): pop the worker's own queue (no stealing —
    /// partitioning is what keeps N workers deterministic) or park the
    /// worker until a retry lands there.
    fn try_grant(&mut self, conn: u64) {
        if self.finishing || self.stopping {
            self.send(conn, Frame::Shutdown);
            return;
        }
        let (widx, job) = {
            // A severed link gets nothing more; its `Gone` is on the way.
            let Some(c) = self.conns.get_mut(&conn).filter(|c| c.out.is_some()) else {
                return;
            };
            let Some(job) = self.deques[c.widx].pop_front() else {
                c.parked = true;
                return;
            };
            c.parked = false;
            (c.widx, job)
        };
        self.lease_seq += 1;
        let lease = self.lease_seq;
        self.ctel.leases_granted.inc();
        if self
            .cfg
            .fault_plan
            .as_deref()
            .is_some_and(|p| p.fire_conn(lease))
        {
            // Injected link drop: sever instead of granting. The popped
            // job is immediately a lost lease; `Gone` follows and a
            // replacement worker takes over the queue.
            self.sever(conn);
            self.lost(widx, job, MSG_LINK_LOST);
            return;
        }
        self.leases.insert(
            lease,
            LeaseInfo {
                job,
                conn,
                last_renew: Instant::now(),
            },
        );
        if let Some(c) = self.conns.get_mut(&conn) {
            c.lease = Some(lease);
        }
        self.send(conn, Frame::Lease { lease, job });
    }

    /// Applies a `done`/`failed` result: resolve the lease, feed the
    /// shared result handler, answer `ack`. `make` builds the result
    /// from the worker index, the leased job, and its target name.
    fn resolve(
        &mut self,
        conn: u64,
        lease: u64,
        make: impl FnOnce(usize, Job, String) -> JobResult,
    ) {
        let Some(li) = self.leases.remove(&lease) else {
            // The lease was already reclaimed (expired or severed); the
            // job re-ran elsewhere. First resolution won, drop this one.
            self.ctel.stale_results.inc();
            self.send(conn, Frame::Ack);
            self.grant_next(conn);
            return;
        };
        let widx = match self.conns.get_mut(&conn) {
            Some(c) => {
                c.lease = None;
                c.widx
            }
            None => 0,
        };
        // Once stopping, in-flight results are dropped, but the worker
        // is still acked so it reaches its shutdown cleanly.
        if !self.stopping {
            let target = self.selected[li.job.target_index].spec.name.clone();
            self.take_result(make(widx, li.job, target));
        }
        self.send(conn, Frame::Ack);
        self.maybe_finish();
        self.grant_next(conn);
    }

    /// Follows an `ack` with the worker's next lease: a worker asks only
    /// once, when it starts, which saves a round trip per job. Once the
    /// campaign is finishing or stopping, the broadcast `shutdown` is
    /// the worker's next frame instead.
    fn grant_next(&mut self, conn: u64) {
        if !self.finishing && !self.stopping {
            self.try_grant(conn);
        }
    }

    fn handle_frame(&mut self, conn: u64, frame: Frame) {
        match frame {
            Frame::LeaseReq => self.try_grant(conn),
            Frame::Renew { lease } => {
                if let Some(li) = self.leases.get_mut(&lease) {
                    li.last_renew = Instant::now();
                }
            }
            Frame::Done {
                lease,
                out,
                metrics,
            } => {
                self.worker_metrics.insert(conn, metrics);
                self.resolve(conn, lease, |worker, _, _| {
                    JobResult::Done(JobOutput { worker, ..out })
                });
            }
            Frame::Failed {
                lease,
                kind,
                message,
                metrics,
            } => {
                self.worker_metrics.insert(conn, metrics);
                self.resolve(conn, lease, |worker, job, target| {
                    JobResult::Failed(JobFailure {
                        worker,
                        job,
                        target,
                        kind,
                        message,
                    })
                });
            }
            Frame::Bye { metrics } => {
                self.worker_metrics.insert(conn, metrics);
            }
            Frame::Lease { .. } | Frame::Ack | Frame::Shutdown => {}
        }
    }

    fn handle_gone(&mut self, conn: u64) {
        let Some(c) = self.conns.remove(&conn) else {
            return;
        };
        self.free_idx.insert(c.widx);
        if let Some(li) = c.lease.and_then(|l| self.leases.remove(&l)) {
            if !self.stopping {
                self.lost(c.widx, li.job, MSG_LINK_LOST);
            }
        }
        self.ensure_workers();
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Hello { conn, out } => {
                if self.finishing || self.stopping {
                    // A straggler arriving after the campaign drained:
                    // shut it down without tracking it.
                    let _ = out.send(Frame::Shutdown);
                    return;
                }
                self.pending_spawns = self.pending_spawns.saturating_sub(1);
                let Some(widx) = self.pick_index() else {
                    let _ = out.send(Frame::Shutdown);
                    return;
                };
                self.free_idx.remove(&widx);
                self.conns.insert(
                    conn,
                    ConnState {
                        widx,
                        out: Some(out),
                        lease: None,
                        parked: false,
                    },
                );
            }
            Ev::Frame { conn, frame } => self.handle_frame(conn, *frame),
            Ev::Malformed(e) => self.fail(CampaignError::Proto(e)),
            Ev::Gone { conn } => self.handle_gone(conn),
            Ev::Status { reply } => {
                let _ = reply.send(self.status());
            }
            Ev::Synced { upto, result } => self.synced(upto, result),
        }
    }

    /// Reclaims leases whose workers stopped renewing.
    fn expire_leases(&mut self) {
        let expired: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, li)| li.last_renew.elapsed() >= LEASE_TIMEOUT)
            .map(|(&l, _)| l)
            .collect();
        for l in expired {
            let Some(li) = self.leases.remove(&l) else {
                continue;
            };
            self.ctel.leases_expired.inc();
            let widx = self.conns.get(&li.conn).map_or(0, |c| c.widx);
            if let Some(c) = self.conns.get_mut(&li.conn) {
                c.lease = None;
            }
            // Sever: a late result from the hung worker must not race
            // the re-run (and would be dropped as stale anyway).
            self.sever(li.conn);
            if !self.stopping {
                self.lost(widx, li.job, "lease expired without renewal");
            }
        }
    }

    /// The live status object: progress counters plus a merged metric
    /// snapshot (coordinator registry + every worker's latest snapshot).
    fn status(&self) -> Json {
        let reg = MetricRegistry::new();
        reg.merge_snapshot(&self.ctel.tel.registry().snapshot());
        for m in self.worker_metrics.values() {
            reg.merge_snapshot(m);
        }
        let st = &self.stats;
        Json::obj(vec![
            ("t", Json::Str("status".to_string())),
            ("jobs_total", Json::Int(st.jobs_total as i64)),
            ("jobs_done", Json::Int(st.jobs_done as i64)),
            ("jobs_failed", Json::Int(st.jobs_failed as i64)),
            ("execs", Json::Int(st.execs as i64)),
            ("divergent", Json::Int(st.divergent as i64)),
            ("signatures", Json::Int(st.signatures.len() as i64)),
            ("failures", Json::Int(st.failures as i64)),
            ("workers", Json::Int(self.conns.len() as i64)),
            ("leases_active", Json::Int(self.leases.len() as i64)),
            ("outstanding", Json::Int(self.outstanding as i64)),
            ("metrics", reg.snapshot()),
        ])
    }

    /// Teardown and epilogue: drop every link still open (only a fatal
    /// error leaves any), wait for the workers, merge their metric
    /// snapshots, then quarantine-swept accounting, the lint of targets
    /// no `done` carried it for, the post-fuzz sanitizer audit, the final
    /// metric readings, buffered events in canonical order, the metrics
    /// snapshot event, and the report.
    /// Under a fixed clock, `elapsed` derives from the telemetry clock so
    /// the report renders byte-identically across runs and transports.
    fn finish(mut self, started_us: u64) -> Result<CampaignReport, CampaignError> {
        // The workers can be gone before the last fsync lands.
        self.settle();
        self.syncer = None;
        self.conns.clear();
        self.transport.join();
        if let Some(e) = self.fatal.take() {
            return Err(e);
        }
        // Commutative merges — HashMap order does not matter.
        for m in self.worker_metrics.values() {
            self.ctel.tel.registry().merge_snapshot(m);
        }
        for j in &self.swept {
            self.stats
                .note_skipped(&self.selected[j.target_index].spec.name, 1);
        }

        // Every selected target's lint is counted once, so the snapshot
        // carries the static-channel evidence (`lint.*`) next to the
        // divergence counters. A target with no accepted `done` in this
        // run — all shards replayed from the checkpoint, quarantined, or
        // cut off by a stop — is linted here. Metrics only, no events.
        let lint = staticheck_ir::UnstableLint::new();
        for (t, _) in self.selected.iter().zip(&self.linted).filter(|(_, &l)| !l) {
            let t0 = self.ctel.tel.now_micros();
            if let Ok(findings) = lint.run_source(&t.src) {
                let scan_us = self.ctel.tel.now_micros().saturating_sub(t0);
                self.ctel.record_lint(&LintTally::of(&findings, scan_us));
            }
        }

        // Post-fuzz sanitizer audit: run the meta-oracle over every
        // selected target so the metrics snapshot carries the
        // sanitizer-trust evidence (`sancheck.*`) next to the divergence
        // counters. Like the lint this is metrics-only — no events — so
        // the event stream stays byte-identical run to run.
        if self.cfg.sancheck {
            let scfg = sancheck::SancheckConfig {
                vm: self.cfg.diff_config.vm.clone(),
                ..sancheck::SancheckConfig::default()
            };
            for t in self.selected {
                let t0 = self.ctel.tel.now_micros();
                if let Ok(report) = sancheck::check_source(&t.src, &scfg) {
                    self.ctel
                        .record_sancheck(&report, self.ctel.tel.now_micros().saturating_sub(t0));
                }
            }
        }

        let cache = (self.ctel.cache_hits.get(), self.ctel.cache_misses.get());
        let elapsed_us = self.ctel.tel.now_micros().saturating_sub(started_us);
        self.ctel.record_execs_per_sec(self.stats.execs, elapsed_us);
        self.events.sort_by_key(|e| e.0);
        for (_, name, fields) in std::mem::take(&mut self.events) {
            self.ctel.tel.event(name, fields);
        }
        let metrics = self.ctel.tel.registry().snapshot();
        self.ctel
            .tel
            .event("metrics", vec![("metrics", metrics.clone())]);
        self.ctel.tel.flush();

        let elapsed = if self.cfg.fixed_clock_us.is_some() {
            Duration::from_micros(elapsed_us)
        } else {
            self.started.elapsed()
        };
        Ok(CampaignReport {
            stats: self.stats,
            elapsed,
            cache,
            checkpoint: self.state.map(|s| s.path().to_path_buf()),
            aborted: self.stopping,
            checkpoint_degraded: self.degraded,
            metrics,
        })
    }
}

/// Runs a campaign to completion (or to `stop_after_jobs`): one
/// coordinator over `workers` threads, or over `workers_proc` worker
/// processes when that field is set. Identical results and report shape
/// either way; partial results instead of aborts.
///
/// # Errors
///
/// Fails if the target filter matches nothing, the checkpoint is
/// unusable ([`crate::StateError`]), or the worker protocol breaks down
/// ([`CampaignError::Proto`]).
pub fn run(cfg: &CampaignConfig) -> Result<CampaignReport, CampaignError> {
    let n = cfg.workers_proc.unwrap_or(cfg.workers).max(1);
    let tel = build_telemetry(cfg)?;
    let started_us = tel.now_micros();
    let started = Instant::now();
    let ctel = CampaignTelemetry::new(Arc::clone(&tel));
    let Prepared {
        selected,
        pending,
        state,
        stats,
        ledger,
        policy,
    } = prepare(cfg, &ctel, n)?;

    let (ev_tx, ev_rx) = mpsc::channel::<Ev>();
    let syncer = match &state {
        Some(st) => Some(Syncer::start(
            st.sync_handle()?,
            Arc::clone(&tel),
            ev_tx.clone(),
        )?),
        None => None,
    };
    let transport: Box<dyn Transport> = match cfg.workers_proc {
        Some(_) => Box::new(Procs::start(cfg, &selected, ev_tx)?),
        None => Box::new(Threads::new(cfg, &selected, &ctel, ev_tx)),
    };
    let mut deques: Vec<VecDeque<Job>> = (0..n).map(|_| VecDeque::new()).collect();
    for &job in &pending {
        deques[(job.target_index + job.shard as usize) % n].push_back(job);
    }
    let mut co = Coordinator {
        cfg,
        ctel: &ctel,
        selected: &selected,
        transport,
        state,
        syncer,
        written_ahead: 0,
        unsynced: VecDeque::new(),
        degraded: false,
        stats,
        policy,
        ledger,
        resolved: 0,
        started,
        events: Vec::new(),
        n,
        outstanding: pending.len(),
        deques,
        conns: HashMap::new(),
        leases: HashMap::new(),
        lease_seq: 0,
        free_idx: (0..n).collect(),
        swept: Vec::new(),
        stopping: false,
        finishing: false,
        spawned: 0,
        pending_spawns: 0,
        worker_metrics: HashMap::new(),
        linted: vec![false; selected.len()],
        fatal: None,
    };
    if co.outstanding == 0 {
        // Everything was replayed from the checkpoint; no workers needed.
        co.finishing = true;
    } else {
        for _ in 0..n {
            if let Err(e) = co.spawn_worker() {
                co.fail(e);
                break;
            }
        }
    }

    while co.fatal.is_none() && !((co.finishing || co.stopping) && co.conns.is_empty()) {
        match ev_rx.recv_timeout(TICK) {
            Ok(ev) => co.handle(ev),
            Err(RecvTimeoutError::Timeout) => {
                co.expire_leases();
                co.transport.reap();
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    co.finish(started_us)
}
