//! Batched differential execution vs the per-input oracle loop.
//!
//! For every Table 4 target this measures the oracle's throughput over a
//! fixed 64-input stream (deterministic mutations of the target's seeds)
//! in three configurations:
//!
//! * `batch1`  — one-input sweeps: `run_input_observed` per input (the
//!   `--batch-size 1` shape);
//! * `batch16` — `run_batch_observed` over 16-input chunks (the fuzzer's
//!   default `--batch-size`);
//! * `batch64` — one `run_batch_observed` sweep over the whole stream.
//!
//! Before timing, every target asserts that batched outcomes are
//! bit-identical to the per-input ones over the same stream, so an
//! ordering or bisection bug cannot hide behind a throughput number.
//! Emits `BENCH_batch.json` (per-row medians plus derived execs/sec and
//! aggregate batch16/batch1 speedup) when `COMPDIFF_BENCH_JSON_DIR` is
//! set.

use compdiff::{CompDiff, DiffConfig, Json};
use compdiff_bench::harness::{write_json, BenchGroup, BenchResult};
use std::hint::black_box;
use targets::build_all;

const STREAM_LEN: usize = 64;

/// Deterministic input stream: the target's seeds plus xorshift-mutated
/// variants, mimicking a fuzzer queue drain (mostly benign inputs).
fn input_stream(seeds: &[Vec<u8>], n: usize) -> Vec<Vec<u8>> {
    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let base = &seeds[i % seeds.len().max(1)];
        let mut input = base.clone();
        if !input.is_empty() {
            let pos = (next() as usize) % input.len();
            input[pos] ^= (next() & 0xff) as u8;
        } else {
            input.push((next() & 0xff) as u8);
        }
        out.push(input);
    }
    out
}

fn execs_per_sec(r: &BenchResult, execs: usize) -> f64 {
    execs as f64 / r.median.as_secs_f64().max(1e-12)
}

fn main() {
    let targets = build_all();
    let mut g = BenchGroup::new("batch");
    let mut rows: Vec<(String, usize, BenchResult, BenchResult, BenchResult)> = Vec::new();

    for t in &targets {
        let name = t.spec.name.clone();
        let diff = CompDiff::from_source_default(&t.src, DiffConfig::default())
            .unwrap_or_else(|e| panic!("{name} does not compile: {e}"));
        let inputs = input_stream(&t.seeds, STREAM_LEN);
        let k = diff.binaries().len();

        // Equivalence gate: batched outcomes must be bit-identical to the
        // per-input loop before batching is allowed to be faster.
        let batched = diff.run_batch_observed(&mut diff.make_sessions(), &inputs, &mut ());
        let mut check = diff.make_sessions();
        for (j, input) in inputs.iter().enumerate() {
            let single = diff.run_input_observed(&mut check, input, &mut ());
            assert_eq!(batched[j].hashes, single.hashes, "{name} input {j}");
            assert_eq!(batched[j].results, single.results, "{name} input {j}");
        }

        let mut s = diff.make_sessions();
        let r1 = g.bench(&format!("{name}/batch1"), || {
            for input in &inputs {
                black_box(diff.run_input_observed(&mut s, input, &mut ()));
            }
        });
        let mut s = diff.make_sessions();
        let r16 = g.bench(&format!("{name}/batch16"), || {
            for chunk in inputs.chunks(16) {
                black_box(diff.run_batch_observed(&mut s, chunk, &mut ()));
            }
        });
        let mut s = diff.make_sessions();
        let r64 = g.bench(&format!("{name}/batch64"), || {
            black_box(diff.run_batch_observed(&mut s, &inputs, &mut ()));
        });
        rows.push((name, k * STREAM_LEN, r1, r16, r64));
    }

    let results = g.finish();

    println!();
    println!("| Target | batch=1 execs/s | batch=16 execs/s | batch=64 execs/s | 16 / 1 |");
    println!("|---|---|---|---|---|");
    let mut speedups: Vec<f64> = Vec::new();
    for (name, execs, r1, r16, r64) in &rows {
        let speedup = r1.median.as_secs_f64() / r16.median.as_secs_f64();
        speedups.push(speedup);
        println!(
            "| {name} | {:.0} | {:.0} | {:.0} | {:.2}x |",
            execs_per_sec(r1, *execs),
            execs_per_sec(r16, *execs),
            execs_per_sec(r64, *execs),
            speedup
        );
    }
    speedups.sort_unstable_by(f64::total_cmp);
    let median_speedup = speedups[speedups.len() / 2];
    println!();
    println!("median batch16/batch1 speedup: {median_speedup:.2}x");

    let ops = Json::Array(
        rows.iter()
            .map(|(name, execs, r1, r16, r64)| {
                Json::obj(vec![
                    ("target", Json::Str(name.clone())),
                    (
                        "batch1_execs_per_sec",
                        Json::Float(execs_per_sec(r1, *execs)),
                    ),
                    (
                        "batch16_execs_per_sec",
                        Json::Float(execs_per_sec(r16, *execs)),
                    ),
                    (
                        "batch64_execs_per_sec",
                        Json::Float(execs_per_sec(r64, *execs)),
                    ),
                ])
            })
            .collect(),
    );
    write_json(
        "BENCH_batch.json",
        &results,
        vec![
            ("execs_per_sec", ops),
            ("median_batch16_speedup", Json::Float(median_speedup)),
        ],
    );
}
