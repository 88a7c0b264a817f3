//! Campaign scaling: the same fixed workload run in-process (thread
//! workers) and across coordinator/worker *processes*, at 1 worker and
//! at `min(4, hardware_threads)` workers each.
//!
//! Honesty rules for the recorded baseline (`BENCH_campaign.json`):
//! every row records its worker count and execution mode, the file
//! records the machine's hardware thread count, and no row runs more
//! workers than the machine has hardware threads, so the speedup times
//! scaling, not contention. On a one-thread machine there is no
//! multi-worker row, and the file carries an explicit
//! `speedup_refused` entry instead. The speedup comes from the process
//! path; at 4 workers it must reach 1.8x.

use campaign::CampaignConfig;
use compdiff::Json;
use compdiff_bench::harness::{write_json, BenchGroup};
use std::path::Path;

fn workload() -> CampaignConfig {
    CampaignConfig {
        execs_per_target: 400,
        shards_per_target: 4,
        target_filter: Some(
            ["tcpdump", "MuJS", "openssl", "php"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        ),
        ..Default::default()
    }
}

fn threads(workers: usize) -> CampaignConfig {
    CampaignConfig {
        workers,
        ..workload()
    }
}

fn procs(workers: usize, exe: &Path) -> CampaignConfig {
    CampaignConfig {
        workers_proc: Some(workers),
        worker_exe: Some(exe.to_path_buf()),
        ..workload()
    }
}

fn row(name: &str, workers: usize, mode: &str) -> Json {
    Json::obj(vec![
        ("name", Json::Str(format!("campaign/{name}"))),
        ("workers", Json::Int(workers as i64)),
        ("mode", Json::Str(mode.to_string())),
    ])
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = cores.min(4);
    let mut counts = vec![1];
    if workers > 1 {
        counts.push(workers);
    }
    let mut g = BenchGroup::new("campaign");
    g.sample_size(5);
    let mut rows = Vec::new();
    for &n in &counts {
        let name = format!("threads_{n}");
        g.bench(&name, || campaign::run(&threads(n)).unwrap());
        rows.push(row(&name, n, "threads"));
    }

    // The multi-process rows need the `compdiff` binary on disk (it is
    // the worker executable); probe via the same resolution chain the
    // coordinator uses and skip honestly when it is absent.
    let worker_exe = campaign::resolve_worker_exe(&workload());
    let mut procs_rows = Vec::new();
    match &worker_exe {
        Ok(exe) => {
            for &n in &counts {
                let name = format!("procs_{n}");
                procs_rows.push(g.bench(&name, || campaign::run(&procs(n, exe)).unwrap()));
                rows.push(row(&name, n, "processes"));
            }
        }
        Err(e) => println!("campaign/procs_*: skipped ({e}); build the compdiff binary first"),
    }
    let results = g.finish();

    let mut extra = vec![
        ("hardware_threads", Json::Int(cores as i64)),
        ("rows", Json::Array(rows)),
    ];
    match procs_rows.as_slice() {
        [one, many] => {
            let speedup = one.median.as_secs_f64() / many.median.as_secs_f64();
            println!(
                "campaign {workers}-process speedup: {speedup:.2}x on {cores} hardware threads"
            );
            extra.push(("speedup_workers", Json::Int(workers as i64)));
            extra.push(("speedup", Json::Float(speedup)));
            write_json("BENCH_campaign.json", &results, extra);
            assert!(
                workers < 4 || speedup >= 1.8,
                "expected >=1.8x at 4 worker processes on {cores} cores, got {speedup:.2}x"
            );
        }
        [_] => {
            let reason = format!("hardware_threads {cores}: no multi-worker row to compare");
            println!("campaign speedup refused: {reason}");
            extra.push(("speedup_refused", Json::Str(reason)));
            write_json("BENCH_campaign.json", &results, extra);
        }
        _ => {
            let reason = "worker executable unavailable; speedup not measured".to_string();
            extra.push(("speedup_refused", Json::Str(reason)));
            write_json("BENCH_campaign.json", &results, extra);
        }
    }
}
