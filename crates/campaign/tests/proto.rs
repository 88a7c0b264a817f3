//! The coordinator/worker protocol, exercised end to end with real
//! worker processes: mode equivalence (1 worker process ==
//! in-process `--workers 1`, byte for byte), N-process determinism,
//! worker-death and dropped-connection recovery, coordinator
//! kill/resume, the single-checkpoint-writer guarantee across
//! processes, and the live status endpoint.

use campaign::{CampaignConfig, CampaignReport, CampaignState, FailureKind, FaultPlan};
use compdiff::Json;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("compdiff-proto-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The worker executable for coordinator-mode configs: the `compdiff`
/// binary Cargo built for this test run.
fn worker_exe() -> Option<PathBuf> {
    Some(PathBuf::from(env!("CARGO_BIN_EXE_compdiff")))
}

fn plan(spec: &str, seed: u64) -> Option<Arc<FaultPlan>> {
    Some(Arc::new(FaultPlan::parse(spec, seed).unwrap()))
}

fn counter(report: &CampaignReport, name: &str) -> u64 {
    report
        .metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// The tentpole equivalence guarantee: a clean 1-worker-process
/// campaign is byte-identical — rendered report and recorded metrics
/// stream — to the in-process `workers = 1` run of the same campaign.
#[test]
fn one_proc_report_matches_in_process_single_worker() {
    let dir = temp_dir("one-proc");
    let base = CampaignConfig {
        workers: 1,
        execs_per_target: 60,
        shards_per_target: 2,
        seed: 11,
        target_filter: Some(vec!["tcpdump".to_string()]),
        fixed_clock_us: Some(0),
        ..Default::default()
    };
    let in_proc = campaign::run(&CampaignConfig {
        metrics_out: Some(dir.join("inproc.jsonl")),
        ..base.clone()
    })
    .unwrap();
    let proc = campaign::run(&CampaignConfig {
        workers_proc: Some(1),
        worker_exe: worker_exe(),
        metrics_out: Some(dir.join("proc.jsonl")),
        ..base
    })
    .unwrap();

    assert_eq!(
        in_proc.render_summary(),
        proc.render_summary(),
        "reports must be byte-identical across execution modes"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("inproc.jsonl")).unwrap(),
        std::fs::read_to_string(dir.join("proc.jsonl")).unwrap(),
        "metrics streams must be byte-identical across execution modes"
    );
    assert_eq!(counter(&proc, "campaign.leases_granted"), 2);
    assert_eq!(counter(&proc, "campaign.workers_spawned"), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A clean 2-process campaign is deterministic: same seed, same fixed
/// clock, identical report and metrics stream across runs — buffered
/// canonical-order events and commutative registry merges at work.
#[test]
fn two_proc_campaign_is_deterministic() {
    let dir = temp_dir("two-proc");
    let run_once = |tag: &str| {
        let metrics = dir.join(format!("{tag}.jsonl"));
        let report = campaign::run(&CampaignConfig {
            workers_proc: Some(2),
            worker_exe: worker_exe(),
            execs_per_target: 60,
            shards_per_target: 2,
            seed: 11,
            target_filter: Some(vec!["readelf".to_string(), "brotli".to_string()]),
            metrics_out: Some(metrics.clone()),
            fixed_clock_us: Some(0),
            ..Default::default()
        })
        .unwrap();
        (
            report.render_summary(),
            std::fs::read_to_string(metrics).unwrap(),
        )
    };
    let (report_a, events_a) = run_once("a");
    let (report_b, events_b) = run_once("b");
    assert_eq!(report_a, report_b, "2-process reports must be identical");
    assert_eq!(events_a, events_b, "2-process streams must be identical");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A worker process that dies mid-lease (injected `die@`) is reclaimed:
/// the lease resolves as a `lost` failure, the job is retried on a
/// respawned process, and the final results match a clean run.
#[test]
fn worker_death_mid_lease_recovers() {
    let dir = temp_dir("die");
    let base = CampaignConfig {
        workers_proc: Some(1),
        worker_exe: worker_exe(),
        execs_per_target: 60,
        shards_per_target: 2,
        seed: 11,
        target_filter: Some(vec!["tcpdump".to_string()]),
        ..Default::default()
    };
    let clean = campaign::run(&base).unwrap();
    let faulty = campaign::run(&CampaignConfig {
        checkpoint_dir: Some(dir.clone()),
        fault_plan: plan("die@tcpdump#0", 11),
        ..base
    })
    .unwrap();

    assert!(faulty.stats.is_complete(), "the retry must succeed");
    assert_eq!(faulty.stats.failures, 1);
    assert_eq!(faulty.stats.retries, 1);
    assert_eq!(faulty.signatures(), clean.signatures());
    assert_eq!(faulty.stats.execs, clean.stats.execs);
    assert_eq!(
        counter(&faulty, "campaign.workers_spawned"),
        2,
        "a replacement process was spawned"
    );
    assert_eq!(counter(&faulty, "campaign.job_retries"), 1);

    // The reclaimed lease was durably recorded as a lost attempt.
    let header = campaign::CampaignHeader {
        seed: 11,
        execs_per_target: 60,
        shards_per_target: 2,
        targets: vec!["tcpdump".to_string()],
    };
    let st = CampaignState::resume(&dir, &header).unwrap();
    let kinds: Vec<FailureKind> = st.failures().iter().map(|f| f.kind).collect();
    assert_eq!(kinds, vec![FailureKind::Lost]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An injected connection drop (`drop@conn:1`) severs the first lease
/// grant: the job is immediately reclaimed, re-granted to a respawned
/// process, and the campaign still delivers complete results.
#[test]
fn dropped_connection_regrants() {
    let base = CampaignConfig {
        workers_proc: Some(1),
        worker_exe: worker_exe(),
        execs_per_target: 60,
        shards_per_target: 2,
        seed: 11,
        target_filter: Some(vec!["tcpdump".to_string()]),
        ..Default::default()
    };
    let clean = campaign::run(&base).unwrap();
    let faulty = campaign::run(&CampaignConfig {
        fault_plan: plan("drop@conn:1", 11),
        ..base
    })
    .unwrap();

    assert!(faulty.stats.is_complete(), "the re-grant must succeed");
    assert_eq!(faulty.stats.failures, 1, "one lost lease");
    assert_eq!(faulty.stats.retries, 1);
    assert_eq!(faulty.signatures(), clean.signatures());
    assert_eq!(faulty.stats.execs, clean.stats.execs);
    assert_eq!(
        counter(&faulty, "campaign.leases_granted"),
        3,
        "2 jobs + 1 dropped grant"
    );
    assert_eq!(counter(&faulty, "campaign.workers_spawned"), 2);
}

/// The coordinator-mode torture test: under a worker-death fault, kill
/// the coordinator at every job-resolution boundary, resume in
/// coordinator mode, and the stats and checkpoint must match the
/// uninterrupted coordinator run.
#[test]
fn coordinator_kill_resume_matches_uninterrupted() {
    let base = CampaignConfig {
        workers_proc: Some(1),
        worker_exe: worker_exe(),
        execs_per_target: 60,
        shards_per_target: 2,
        seed: 11,
        target_filter: Some(vec!["tcpdump".to_string()]),
        fault_plan: plan("die@tcpdump#0", 11),
        ..Default::default()
    };
    let header = campaign::CampaignHeader {
        seed: 11,
        execs_per_target: 60,
        shards_per_target: 2,
        targets: vec!["tcpdump".to_string()],
    };
    let normalize = |r: &CampaignReport| {
        let mut s = r.stats.clone();
        s.per_worker_execs = Vec::new();
        s.jobs_resumed = 0;
        s
    };

    let full_dir = temp_dir("proc-torture-full");
    let full = campaign::run(&CampaignConfig {
        checkpoint_dir: Some(full_dir.clone()),
        ..base.clone()
    })
    .unwrap();
    assert!(!full.aborted);
    // 3 resolutions: the lost lease, the shard-0 retry, shard 1.
    assert_eq!(full.stats.failures, 1);
    assert_eq!(full.stats.jobs_done, 2);
    let full_state = CampaignState::resume(&full_dir, &header).unwrap();

    for kill_at in 1..=2 {
        let dir = temp_dir(&format!("proc-torture-k{kill_at}"));
        let killed = campaign::run(&CampaignConfig {
            checkpoint_dir: Some(dir.clone()),
            stop_after_jobs: Some(kill_at),
            ..base.clone()
        })
        .unwrap();
        assert!(killed.aborted, "kill point {kill_at} must trigger");

        let resumed = campaign::run(&CampaignConfig {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..base.clone()
        })
        .unwrap();
        assert!(!resumed.aborted, "kill point {kill_at}");
        assert_eq!(
            normalize(&resumed),
            normalize(&full),
            "kill point {kill_at}: resumed stats must match the uninterrupted run"
        );
        let resumed_state = CampaignState::resume(&dir, &header).unwrap();
        assert_eq!(
            resumed_state.done(),
            full_state.done(),
            "kill point {kill_at}: job records"
        );
        assert_eq!(
            resumed_state.failures(),
            full_state.failures(),
            "kill point {kill_at}: failure records"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&full_dir).unwrap();
}

/// The single-writer guarantee across real process boundaries: while
/// this process holds a campaign checkpoint open, a `compdiff campaign`
/// *process* pointed at the same directory is refused with the typed
/// lock error — a worker (or anyone else) can never open the
/// coordinator's checkpoint for writing.
#[test]
fn worker_cannot_open_coordinators_checkpoint() {
    let dir = temp_dir("cross-proc-lock");
    let header = campaign::CampaignHeader {
        seed: 11,
        execs_per_target: 60,
        shards_per_target: 1,
        targets: vec!["tcpdump".to_string()],
    };
    let held = CampaignState::create(&dir, &header).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_compdiff"))
        .args([
            "campaign",
            "--workers",
            "1",
            "--execs-per-target",
            "20",
            "--shards",
            "1",
            "--targets",
            "tcpdump",
            "--quiet",
            "--checkpoint",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "a second process must not open a held checkpoint"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("locked by live process"),
        "typed refusal expected, got: {stderr}"
    );
    assert!(
        stderr.contains("exactly one writer"),
        "refusal names the invariant, got: {stderr}"
    );

    // Releasing the lock makes the directory usable again.
    drop(held);
    assert!(CampaignState::resume(&dir, &header).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A campaign with zero shards per target would schedule no job at all
/// and still report success; the CLI refuses it like `--batch-size 0`.
#[test]
fn zero_shards_are_rejected() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_compdiff"))
        .args([
            "campaign",
            "--shards",
            "0",
            "--targets",
            "tcpdump",
            "--quiet",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--shards 0 must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad --shards `0` (must be >= 1)"),
        "expected the --shards refusal, got: {stderr}"
    );
}

/// The live status endpoint: while a coordinator campaign runs, a
/// status client can connect to the address written via
/// `status_addr_out` and read progress plus a merged metric snapshot.
#[test]
fn status_endpoint_reports_progress() {
    let dir = temp_dir("status");
    let addr_file = dir.join("status.addr");
    let cfg = CampaignConfig {
        workers_proc: Some(1),
        worker_exe: worker_exe(),
        execs_per_target: 20_000,
        shards_per_target: 2,
        seed: 11,
        target_filter: Some(vec!["tcpdump".to_string()]),
        status_addr_out: Some(addr_file.clone()),
        ..Default::default()
    };
    let campaign_thread = std::thread::spawn(move || campaign::run(&cfg).unwrap());

    // The address file is written before workers spawn, so it appears
    // long before the (20k-exec) campaign can finish.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&addr_file) {
            let s = s.trim().to_string();
            if !s.is_empty() {
                break s;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "status address file never appeared"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    let status = loop {
        match campaign::query_status(&addr) {
            Ok(s) => break s,
            Err(e) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "status endpoint never answered: {e}"
                );
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    };
    assert_eq!(status.get("t").and_then(Json::as_str), Some("status"));
    assert_eq!(status.get("jobs_total").and_then(Json::as_u64), Some(2));
    assert!(
        status
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .is_some(),
        "merged metric snapshot present"
    );

    let report = campaign_thread.join().unwrap();
    assert_eq!(report.stats.jobs_done, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}
