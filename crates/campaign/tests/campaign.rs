//! Campaign-level guarantees: worker-count-independent results,
//! multi-worker byte determinism, batch-size-independent findings,
//! kill/resume equivalence, worker-thread death recovery, and the
//! block-backend guarantee for generated (dir-source) targets.

use campaign::{CampaignConfig, CampaignState, FailureKind, FaultPlan, StateError};
use compdiff::Json;
use std::path::PathBuf;
use std::sync::Arc;

fn base_config() -> CampaignConfig {
    CampaignConfig {
        execs_per_target: 2_000,
        shards_per_target: 3,
        seed: 0x5EED,
        target_filter: Some(vec!["tcpdump".to_string(), "jq".to_string()]),
        ..Default::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("compdiff-campaign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deduped signature set — the campaign's *finding* — must not depend
/// on how many workers raced over the jobs.
#[test]
fn worker_count_does_not_change_results() {
    let solo = campaign::run(&CampaignConfig {
        workers: 1,
        ..base_config()
    })
    .unwrap();
    let pool = campaign::run(&CampaignConfig {
        workers: 3,
        ..base_config()
    })
    .unwrap();

    assert_eq!(solo.stats.jobs_done, 6, "2 targets x 3 shards");
    assert_eq!(solo.signatures(), pool.signatures());
    assert_eq!(solo.stats.per_target, pool.stats.per_target);
    assert_eq!(solo.stats.execs, pool.stats.execs);
    assert_eq!(solo.stats.divergent, pool.stats.divergent);
    assert!(
        !solo.signatures().is_empty(),
        "catalog targets must yield discrepancies"
    );
}

/// Two in-process workers under partitioned leasing are deterministic:
/// same seed, same fixed clock, byte-identical report (including which
/// worker ran what) and metrics stream across runs.
#[test]
fn two_worker_campaign_is_byte_deterministic() {
    let dir = temp_dir("two-workers");
    std::fs::create_dir_all(&dir).unwrap();
    let run_once = |tag: &str| {
        let metrics = dir.join(format!("{tag}.jsonl"));
        let report = campaign::run(&CampaignConfig {
            workers: 2,
            execs_per_target: 300,
            metrics_out: Some(metrics.clone()),
            fixed_clock_us: Some(0),
            ..base_config()
        })
        .unwrap();
        (
            report.render_summary(),
            std::fs::read_to_string(metrics).unwrap(),
        )
    };
    let (report_a, events_a) = run_once("a");
    let (report_b, events_b) = run_once("b");
    assert_eq!(report_a, report_b, "2-worker reports must be identical");
    assert_eq!(events_a, events_b, "2-worker streams must be identical");
    assert!(report_a.contains("worker 1:"), "both workers ran jobs");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checkpoint fsyncs are grouped behind the workers, yet a checkpointed
/// 2-worker campaign stays byte-deterministic: report and metrics stream
/// match across runs, every job has its record, and the fsync histogram
/// holds one sample per record however many records each fsync covered.
#[test]
fn checkpointed_two_worker_campaign_is_byte_deterministic() {
    let dir = temp_dir("two-workers-checkpoint");
    std::fs::create_dir_all(&dir).unwrap();
    let run_once = |tag: &str| {
        let metrics = dir.join(format!("{tag}.jsonl"));
        let report = campaign::run(&CampaignConfig {
            workers: 2,
            execs_per_target: 320,
            shards_per_target: 8,
            checkpoint_dir: Some(dir.join(tag)),
            metrics_out: Some(metrics.clone()),
            fixed_clock_us: Some(0),
            ..base_config()
        })
        .unwrap();
        assert_eq!(report.stats.jobs_done, 16);
        let syncs = report
            .metrics
            .get("histograms")
            .and_then(|h| h.get("campaign.checkpoint_sync_us"))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64);
        assert_eq!(syncs, Some(16), "one fsync sample per record");
        (
            report.render_summary(),
            std::fs::read_to_string(metrics).unwrap(),
        )
    };
    let (report_a, events_a) = run_once("a");
    let (report_b, events_b) = run_once("b");
    assert_eq!(report_a, report_b, "checkpointed reports must be identical");
    assert_eq!(events_a, events_b, "checkpointed streams must be identical");

    let header = campaign::CampaignHeader {
        seed: 0x5EED,
        execs_per_target: 320,
        shards_per_target: 8,
        targets: vec!["tcpdump".to_string(), "jq".to_string()],
    };
    let st = CampaignState::resume(&dir.join("a"), &header).unwrap();
    assert_eq!(st.done().len(), 16, "every finished job has its record");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A worker thread that dies mid-lease (injected `die@`) is reclaimed
/// exactly like a worker process: one `lost` attempt, one retry on a
/// replacement thread, and the clean run's findings.
#[test]
fn worker_thread_death_mid_lease_recovers() {
    let dir = temp_dir("thread-die");
    let base = CampaignConfig {
        workers: 1,
        execs_per_target: 60,
        shards_per_target: 2,
        seed: 11,
        target_filter: Some(vec!["tcpdump".to_string()]),
        ..Default::default()
    };
    let clean = campaign::run(&base).unwrap();
    let faulty = campaign::run(&CampaignConfig {
        checkpoint_dir: Some(dir.clone()),
        fault_plan: Some(Arc::new(FaultPlan::parse("die@tcpdump#0", 11).unwrap())),
        ..base
    })
    .unwrap();

    assert!(faulty.stats.is_complete(), "the retry must succeed");
    assert_eq!(faulty.stats.failures, 1);
    assert_eq!(faulty.stats.retries, 1);
    assert_eq!(faulty.signatures(), clean.signatures());
    assert_eq!(faulty.stats.execs, clean.stats.execs);
    assert_eq!(counter(&faulty.metrics, "campaign.workers_spawned"), 2);
    assert_eq!(counter(&faulty.metrics, "campaign.job_retries"), 1);

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

/// Kill a campaign mid-flight (stop_after_jobs), resume it, and the final
/// checkpoint + stats must match an uninterrupted run exactly.
#[test]
fn resume_after_kill_matches_uninterrupted_run() {
    let full_dir = temp_dir("full");
    let killed_dir = temp_dir("killed");

    let full = campaign::run(&CampaignConfig {
        workers: 2,
        checkpoint_dir: Some(full_dir.clone()),
        ..base_config()
    })
    .unwrap();
    assert!(!full.aborted);

    let partial = campaign::run(&CampaignConfig {
        workers: 2,
        checkpoint_dir: Some(killed_dir.clone()),
        stop_after_jobs: Some(2),
        ..base_config()
    })
    .unwrap();
    assert!(partial.aborted);
    assert!(partial.stats.jobs_done < full.stats.jobs_done);

    let resumed = campaign::run(&CampaignConfig {
        workers: 2,
        checkpoint_dir: Some(killed_dir.clone()),
        resume: true,
        ..base_config()
    })
    .unwrap();
    assert!(!resumed.aborted);
    assert!(
        resumed.stats.jobs_resumed >= 2,
        "checkpointed jobs must not rerun"
    );

    assert_eq!(resumed.stats.jobs_done, full.stats.jobs_done);
    assert_eq!(resumed.signatures(), full.signatures());
    assert_eq!(resumed.stats.per_target, full.stats.per_target);
    assert_eq!(resumed.stats.execs, full.stats.execs);

    // The two checkpoints hold identical record sets (order may differ).
    let header = campaign::CampaignHeader {
        seed: 0x5EED,
        execs_per_target: 2_000,
        shards_per_target: 3,
        targets: vec!["tcpdump".to_string(), "jq".to_string()],
    };
    let a = CampaignState::resume(&full_dir, &header).unwrap();
    let b = CampaignState::resume(&killed_dir, &header).unwrap();
    assert_eq!(a.done(), b.done());

    std::fs::remove_dir_all(&full_dir).unwrap();
    std::fs::remove_dir_all(&killed_dir).unwrap();
}

/// The batched oracle must not change what the campaign finds: signatures,
/// per-target stats, and exec counts are identical at batch size 1 (strict
/// per-input interleaving) and 64 (whole queue chunks). This pins the two
/// batching invariants: divergences are recorded in input order (so
/// first-seen signature dedup is deterministic regardless of how a batch
/// was bisected), and the fuzz-binary side of the loop never depends on
/// when the oracle verdicts arrive.
#[test]
fn batch_size_does_not_change_results() {
    let single = campaign::run(&CampaignConfig {
        workers: 1,
        batch_size: 1,
        ..base_config()
    })
    .unwrap();
    let batched = campaign::run(&CampaignConfig {
        workers: 1,
        batch_size: 64,
        ..base_config()
    })
    .unwrap();

    assert_eq!(single.signatures(), batched.signatures());
    assert_eq!(single.stats.per_target, batched.stats.per_target);
    assert_eq!(single.stats.execs, batched.stats.execs);
    assert_eq!(single.stats.divergent, batched.stats.divergent);
    assert!(
        !single.signatures().is_empty(),
        "catalog targets must yield discrepancies"
    );
}

fn counter(metrics: &Json, name: &str) -> i64 {
    match metrics.get("counters").and_then(|c| c.get(name)) {
        Some(Json::Int(n)) => *n,
        other => panic!("counter {name} missing or non-int: {other:?}"),
    }
}

/// Generated programs loaded via `dir_source` (the `--progen-dir` path)
/// must run on the block backend like catalog targets: the `BinaryCache`
/// compiles and block-translates every target the campaign's source
/// yields, and the sessions must reuse that translation.
#[test]
fn progen_dir_targets_run_on_the_block_backend() {
    let dir = temp_dir("progen-src");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("sum.mc"),
        "int main() {\n\
             char b[8];\n\
             long n = read_input(b, 8L);\n\
             int acc = 0;\n\
             long i;\n\
             for (i = 0; i < n; i++) { acc += b[i]; }\n\
             printf(\"%d\\n\", acc);\n\
             return 0;\n\
         }\n",
    )
    .unwrap();
    let generated = targets::dir_source(&dir).unwrap();

    let report = campaign::run(&CampaignConfig {
        workers: 1,
        execs_per_target: 300,
        shards_per_target: 1,
        source: targets::SharedSource::new(generated),
        fixed_clock_us: Some(7),
        ..CampaignConfig::default()
    })
    .unwrap();

    assert!(report.stats.execs > 0, "the generated target was fuzzed");
    assert!(
        counter(&report.metrics, "vm.block_cache_hits") > 0,
        "generated targets must execute through the cached block translation"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Resuming with different campaign parameters must be refused, not
/// silently mixed into the old checkpoint.
#[test]
fn resume_rejects_changed_parameters() {
    let dir = temp_dir("params");
    campaign::run(&CampaignConfig {
        workers: 1,
        execs_per_target: 60,
        shards_per_target: 1,
        checkpoint_dir: Some(dir.clone()),
        target_filter: Some(vec!["curl".to_string()]),
        ..CampaignConfig::default()
    })
    .unwrap();

    let err = campaign::run(&CampaignConfig {
        workers: 1,
        execs_per_target: 61,
        shards_per_target: 1,
        checkpoint_dir: Some(dir.clone()),
        resume: true,
        target_filter: Some(vec!["curl".to_string()]),
        ..CampaignConfig::default()
    })
    .unwrap_err();
    assert!(matches!(
        err,
        campaign::CampaignError::State(StateError::HeaderMismatch(_))
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}
