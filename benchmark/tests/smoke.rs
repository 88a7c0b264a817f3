//! Runs every workload of the benchmark binary at `--scale smoke` and
//! checks the printed result against `BENCHMARK.json`: every metric it
//! lists is printed, finite, with its unit, and every correctness gate
//! passes.

use compdiff::Json;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "catalog_threads",
    "catalog_procs",
    "progen_evolve",
    "sancheck_corpus",
];

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    spec()
        .get(section)
        .and_then(Json::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark and returns its exit code and its last stdout line.
fn bench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code(), last)
}

/// Runs one smoke workload and returns its parsed result.
fn smoke(workload: &str, trace: &str) -> Json {
    let (code, last) = bench(&[
        "--workload",
        workload,
        "--scale",
        "smoke",
        "--seconds",
        "0",
        "--trace",
        trace,
    ]);
    assert_eq!(code, Some(0), "{workload} trace={trace} failed: {last}");
    Json::parse(&last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn assert_reports(result: &Json, section: &str) {
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = result.get("metrics").expect("metrics object");
    let Json::Object(printed) = metrics else {
        panic!("metrics is not an object")
    };
    let want = listed(section);
    assert_eq!(printed.len(), want.len(), "exactly the {section} metrics");
    for (name, unit) in want {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{name} missing"));
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        assert_reports(&smoke(w, "0"), "end_to_end");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in WORKLOADS {
        assert_reports(&smoke(w, "1"), "per_layer");
    }
}

#[test]
fn traced_runs_repeat_their_counts() {
    let counts = |w: &str| -> Vec<(String, f64)> {
        let result = smoke(w, "1");
        let Some(Json::Object(metrics)) = result.get("metrics") else {
            panic!("metrics is not an object")
        };
        metrics
            .iter()
            .filter(|(_, m)| m.get("unit").and_then(Json::as_str) == Some("count"))
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("value").and_then(Json::as_f64).unwrap_or(-1.0),
                )
            })
            .collect()
    };
    for w in WORKLOADS {
        assert_eq!(counts(w), counts(w), "{w}");
    }
}

#[test]
fn refuses_without_printing_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "progen_evolve", "--scale", "smoke"])
        .env("COMPDIFF_VM_MODE", "interp")
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));

    let (code, last) = bench(&["--workload", "no_such_workload"]);
    assert_eq!(code, Some(2));
    assert!(!last.contains("\"correct\""));
}
