//! The repository benchmark: four workloads that each make a different
//! layer of the CompDiff stack dominant, end-to-end metrics measured with
//! tracing off, and a traced mode that re-drives the same work through
//! the layers' public functions to attribute its cost.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]
//! benchmark campaign-worker --connect <addr>
//! ```
//!
//! A benchmark harness runs `BENCHMARK.json`'s `command` followed by
//! `--workload <name> --seed <n> --seconds <run_seconds> --trace <0|1>`;
//! `--seconds` sets how long the measured round loop runs, and its
//! default is `run_seconds`. `--scale smoke` is for the tests.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The process exits 1 when a correctness gate fails and 2 when the
//! environment or the arguments are refused. See README.md.

mod audit;
mod catalog;
mod evolve;
mod layers;
mod measure;
mod trace;

use compdiff::Json;
use measure::{Ctx, Outcome, Scale};
use std::process::ExitCode;

/// The workloads: name, worker threads or processes, default seed.
const WORKLOADS: [(&str, usize, u64); 4] = [
    ("catalog_threads", catalog::WORKERS, 0xCA3D),
    ("catalog_procs", catalog::WORKERS, 0xCA3D),
    ("progen_evolve", 1, 7),
    ("sancheck_corpus", audit::WORKERS, 1),
];

struct Args {
    workload: &'static str,
    workers: usize,
    ctx: Ctx,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.0 == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=3600".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale takes full or smoke, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let &(name, workers, default_seed) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: name,
        workers,
        ctx: Ctx {
            seed: seed.unwrap_or(default_seed),
            seconds,
            scale,
        },
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let ctx = &args.ctx;
    match (args.workload, args.trace) {
        ("catalog_threads", false) => catalog::run(ctx, false),
        ("catalog_threads", true) => catalog::trace(ctx, false),
        ("catalog_procs", false) => catalog::run(ctx, true),
        ("catalog_procs", true) => catalog::trace(ctx, true),
        ("progen_evolve", false) => evolve::run(ctx),
        ("progen_evolve", true) => evolve::trace(ctx),
        ("sancheck_corpus", false) => audit::run(ctx),
        ("sancheck_corpus", true) => audit::trace(ctx),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

fn result_json(out: &Outcome) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(out.gate_failures.is_empty())),
        ("attempted", Json::Int(out.attempted as i64)),
        ("failed", Json::Int(out.failed as i64)),
        (
            "metrics",
            Json::Object(
                out.metrics
                    .iter()
                    .map(|m| {
                        let v = Json::obj(vec![
                            ("value", Json::Float(m.value)),
                            ("unit", Json::Str(m.unit.to_string())),
                        ]);
                        (m.name.to_string(), v)
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The binary is its own worker executable for catalog_procs.
    if argv.first().map(String::as_str) == Some("campaign-worker") {
        return match argv.get(1..) {
            Some([flag, addr]) if flag == "--connect" => match campaign::run_worker(addr) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("campaign-worker: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("usage: benchmark campaign-worker --connect <addr>");
                ExitCode::from(2)
            }
        };
    }

    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]",
                WORKLOADS.map(|w| w.0).join("|")
            );
            return ExitCode::from(2);
        }
    };

    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("hardware_threads: {hardware_threads}");
    if args.workers > hardware_threads {
        eprintln!(
            "benchmark: refused: {} needs {} workers but only {hardware_threads} hardware threads exist",
            args.workload, args.workers
        );
        return ExitCode::from(2);
    }
    if let Ok(mode) = std::env::var("COMPDIFF_VM_MODE") {
        eprintln!("benchmark: refused: COMPDIFF_VM_MODE={mode} overrides the VM engine under test");
        return ExitCode::from(2);
    }
    println!(
        "workload: {} (workers {}, seed {}, seconds {}, scale {:?}, trace {})",
        args.workload,
        args.workers,
        args.ctx.seed,
        args.ctx.seconds,
        args.ctx.scale,
        u8::from(args.trace)
    );

    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for m in &out.metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for g in &out.gate_failures {
        eprintln!("gate failed: {g}");
    }
    println!("{}", result_json(&out).render());
    if out.gate_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
