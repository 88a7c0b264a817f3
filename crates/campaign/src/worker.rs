//! The worker loop, written once for both transports (DESIGN.md §17):
//! ask for a first lease, run the job, report `done` or `failed`, and
//! take the `ack` and the next lease the coordinator sends behind it,
//! until `shutdown`. The job's own fuzz loop renews the held lease, so a
//! long job keeps it and a stuck one loses it.
//!
//! A worker is stateless beyond its `BinaryCache` and the sessions of
//! the job in hand: all scheduling, checkpointing, dedup, and event
//! emission live in the coordinator. Losing a worker at any point loses
//! at most its in-flight lease, which the coordinator reclaims and
//! re-queues.
//!
//! `serve` is generic over the link. A worker thread passes closures
//! over its `mpsc` channels; a worker process ([`run_worker`]) passes
//! closures over its socket that JSON-encode through `proto`.

use crate::faults::{panic_message, FaultKind};
use crate::proto::{frame_type, parse_config, read_frame, tagged, write_frame, Frame};
use crate::scheduler::{run_job, Job, JobOutput};
use crate::state::FailureKind;
use crate::{BinaryCache, CampaignConfig, CampaignTelemetry};
use compdiff::Json;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use targets::Target;
use telemetry::{NoopRecorder, Telemetry};

/// How often a worker renews the lease it holds, at most. The
/// coordinator's lease timeout must dwarf it.
const RENEW_EVERY: Duration = Duration::from_millis(500);

/// Fuzz executions per read of the clock by the lease heartbeat (the
/// default batch size): a renewal is late by at most this many minus one
/// executions, nothing against the lease timeout.
const CLOCK_EVERY: u32 = 16;

/// What a worker serves: the campaign parameters, the selected targets
/// (indexed like a lease's `target_index`), the cache its jobs compile
/// through, and where its metrics go.
pub(crate) struct Worker {
    pub(crate) cfg: CampaignConfig,
    pub(crate) targets: Vec<Target>,
    pub(crate) cache: BinaryCache,
    pub(crate) ctel: CampaignTelemetry,
    /// True when `ctel` is a registry of the worker's own (a worker
    /// process): its snapshot then rides every result frame for the
    /// coordinator to merge. Worker threads count straight into the
    /// coordinator's registry and ship nothing.
    pub(crate) ships_metrics: bool,
}

impl Worker {
    /// The metric snapshot a result frame carries (`Null` when there is
    /// nothing to merge).
    fn snapshot(&self) -> Json {
        if self.ships_metrics {
            self.ctel.tel.registry().snapshot()
        } else {
            Json::Null
        }
    }
}

/// How [`serve`] ended.
pub(crate) enum Exit {
    /// The coordinator sent `shutdown` and `bye` went out.
    Shutdown,
    /// An injected `die@` fault fired: the worker quit holding its
    /// lease, without replying.
    Died,
}

/// Runs the worker loop over one link until the coordinator sends
/// `shutdown`, or a `die@` fault fires. `recv` yields `None` once the
/// coordinator has closed the link.
///
/// # Errors
///
/// The link failed, closed mid-campaign, or carried an unexpected frame.
pub(crate) fn serve(
    w: &Worker,
    send: &mut dyn FnMut(Frame) -> Result<(), String>,
    recv: &mut dyn FnMut() -> Result<Option<Frame>, String>,
) -> Result<Exit, String> {
    send(Frame::LeaseReq)?;
    loop {
        let frame = recv()?.ok_or("coordinator closed the link mid-campaign")?;
        match frame {
            Frame::Lease { lease, job } => {
                let target = w
                    .targets
                    .get(job.target_index)
                    .ok_or(format!("lease names unknown target {}", job.target_index))?;
                // The worker-death injection point: quit *while holding
                // the lease*, before any result frame, so the
                // coordinator must reclaim it.
                let plan = w.cfg.fault_plan.as_deref();
                if plan.and_then(|p| p.fire_job(&target.spec.name, job.shard, job.attempt))
                    == Some(FaultKind::Die)
                {
                    return Ok(Exit::Died);
                }
                let reply = attempt(w, target, job, lease, send);
                send(reply)?;
            }
            // The next lease (or `shutdown`) follows the ack unasked.
            Frame::Ack => {}
            Frame::Shutdown => {
                send(Frame::Bye {
                    metrics: w.snapshot(),
                })?;
                return Ok(Exit::Shutdown);
            }
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
}

/// One leased attempt, compile included, inside the unwind boundary: a
/// panic anywhere (real or injected) fails this attempt, not the worker.
/// Renewal rides the job's progress — at most one `renew` per
/// [`RENEW_EVERY`], sent from the fuzz loop — so it needs no thread of
/// its own, and a job that stops making progress stops renewing.
fn attempt(
    w: &Worker,
    target: &Target,
    job: Job,
    lease: u64,
    send: &mut dyn FnMut(Frame) -> Result<(), String>,
) -> Frame {
    let ctel = &w.ctel;
    let mut renewed = Instant::now();
    let mut calls = 0u32;
    let mut heartbeat = || {
        calls = calls.wrapping_add(1);
        if calls.is_multiple_of(CLOCK_EVERY) && renewed.elapsed() >= RENEW_EVERY {
            renewed = Instant::now();
            let _ = send(Frame::Renew { lease });
        }
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        let (ct, lint) = w
            .cache
            .get_or_compile(
                target,
                &w.cfg.diff_config,
                w.cfg.fuzz_impl,
                w.cfg.fault_plan.as_deref(),
                job.attempt,
            )
            .map_err(|e| (FailureKind::Compile, e.to_string()))?;
        run_job(&ct, &w.cfg, job, &mut heartbeat, ctel).map(|out| JobOutput { lint, ..out })
    }));
    let metrics = w.snapshot();
    let (kind, message) = match result {
        Ok(Ok(out)) => {
            return Frame::Done {
                lease,
                out,
                metrics,
            }
        }
        Ok(Err(failure)) => failure,
        Err(payload) => (FailureKind::Panic, panic_message(payload.as_ref())),
    };
    Frame::Failed {
        lease,
        kind,
        message,
        metrics,
    }
}

fn io_err(context: &str, e: std::io::Error) -> String {
    format!("worker {context}: {e}")
}

/// Runs one campaign worker process against the coordinator at `addr`
/// (`host:port`). Returns when the coordinator sends `shutdown`; exits
/// the process with status 137 when a `die@` fault fires.
///
/// # Errors
///
/// Returns a message when the connection fails, a frame is malformed,
/// or the coordinator disappears mid-campaign.
pub fn run_worker(addr: &str) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    // Frames are small and answered at once; Nagle would hold one back
    // until the previous one is acknowledged. Failing to set it costs
    // latency only.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| io_err("clone", e))?);
    let mut writer = BufWriter::new(stream);
    let mut send_json = |v: &Json| write_frame(&mut writer, v).map_err(|e| io_err("send", e));
    send_json(&Json::obj(vec![
        ("t", Json::Str("hello".to_string())),
        ("pid", Json::Int(i64::from(std::process::id()))),
    ]))?;
    let first = read_frame(&mut reader)
        .map_err(|e| io_err("read config", e))?
        .ok_or("coordinator closed before sending config")?;
    match frame_type(&first) {
        // A late joiner: the campaign already drained. Exit quietly.
        Some("shutdown") => return Ok(()),
        Some("config") => {}
        other => return Err(format!("expected config frame, got {other:?}")),
    }
    let (cfg, targets) = parse_config(&first)?;
    // Registry only (no recorder); under a fixed clock every duration
    // reads as zero.
    let ctel = CampaignTelemetry::new(Telemetry::clocked(cfg.fixed_clock_us, NoopRecorder));
    let w = Worker {
        cache: BinaryCache::counting_into(&ctel),
        cfg,
        targets,
        ctel,
        ships_metrics: true,
    };
    let exit = serve(&w, &mut |frame| send_json(&frame.to_json()), &mut || {
        let v = read_frame(&mut reader).map_err(|e| io_err("read", e))?;
        v.map(|v| Frame::from_json(&v)).transpose()
    })?;
    if let Exit::Died = exit {
        std::process::exit(137);
    }
    Ok(())
}

/// Queries a running coordinator's status endpoint at `addr` (the
/// address written via `--status-addr-out`) and returns the status
/// object: job progress, lease/worker counts, and the merged metric
/// snapshot.
///
/// # Errors
///
/// Returns a message when the connection or the reply fails.
pub fn query_status(addr: &str) -> Result<Json, String> {
    let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| io_err("clone", e))?);
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, &tagged("status")).map_err(|e| io_err("send", e))?;
    read_frame(&mut reader)
        .map_err(|e| io_err("read", e))?
        .ok_or_else(|| "coordinator closed without replying".to_string())
}
