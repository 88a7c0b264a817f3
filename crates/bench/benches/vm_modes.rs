//! Reference interpreter vs block-compiled dispatch across the catalog
//! targets.
//!
//! For every Table 4 target this measures three configurations on the
//! target's benign seed input (the hot path of a differential campaign):
//!
//! * `interp` — a persistent reference session
//!   ([`ExecSession::reference`], the per-instruction interpreter);
//! * `block` — the same session shape on the production block
//!   dispatcher ([`ExecSession::new`]);
//! * `block_san` — the sanitizer build run under the combined
//!   [`AsanUbsan`] hooks on the block dispatcher (the instrumented
//!   fuzzing configuration; shows what the hook seam costs on top of
//!   dispatch).
//!
//! Before timing, every target asserts bit-identical results between the
//! two engines (and between the two engines under sanitizer hooks), so a
//! dispatch bug cannot hide behind a throughput number. Emits
//! `BENCH_vm_modes.json` (per-row medians plus derived ops/sec) when
//! `COMPDIFF_BENCH_JSON_DIR` is set, and prints the BENCHMARKS.md table.

use compdiff::Json;
use compdiff_bench::harness::{write_json, BenchGroup, BenchResult};
use minc_compile::{compile_source, CompilerImpl};
use minc_vm::{ExecSession, VmConfig};
use sanitizers::AsanUbsan;
use targets::build_all;

fn ops_per_sec(r: &BenchResult) -> f64 {
    1.0 / r.median.as_secs_f64().max(1e-12)
}

fn main() {
    let cfg = VmConfig::default();
    let targets = build_all();
    let mut g = BenchGroup::new("vm_modes");
    // (target, interp, block, block_san) rows for the summary table.
    let mut rows: Vec<(String, BenchResult, BenchResult, BenchResult)> = Vec::new();

    for t in &targets {
        let name = t.spec.name.clone();
        let bin = compile_source(&t.src, CompilerImpl::parse("gcc-O2").unwrap())
            .unwrap_or_else(|e| panic!("{name} does not compile: {e}"));
        let san = sanitizers::compile_sanitized(&t.src)
            .unwrap_or_else(|e| panic!("{name} sanitized build failed: {e}"));
        let input = t.seeds.first().cloned().unwrap_or_default();

        // Equivalence gate: block dispatch must be bit-identical to the
        // reference before it is allowed to be faster, with and without
        // instrumentation.
        let want = ExecSession::reference(&bin).run(&bin, &input, &cfg);
        assert_eq!(
            ExecSession::new(&bin).run(&bin, &input, &cfg),
            want,
            "{name}: block diverged"
        );
        let want =
            ExecSession::reference(&san).run_with_hooks(&san, &input, &cfg, &mut AsanUbsan::new());
        assert_eq!(
            ExecSession::new(&san).run_with_hooks(&san, &input, &cfg, &mut AsanUbsan::new()),
            want,
            "{name}: block+san diverged"
        );

        let mut s = ExecSession::reference(&bin);
        let ri = g.bench(&format!("{name}/interp"), || s.run(&bin, &input, &cfg));
        let mut s = ExecSession::new(&bin);
        let rb = g.bench(&format!("{name}/block"), || s.run(&bin, &input, &cfg));
        let mut s = ExecSession::new(&san);
        let rs = g.bench(&format!("{name}/block_san"), || {
            s.run_with_hooks(&san, &input, &cfg, &mut AsanUbsan::new())
        });
        rows.push((name, ri, rb, rs));
    }

    let results = g.finish();

    println!();
    println!("| Target | Interp ops/s | Block ops/s | Block+san ops/s | Block / interp |");
    println!("|---|---|---|---|---|");
    for (name, ri, rb, rs) in &rows {
        println!(
            "| {name} | {:.0} | {:.0} | {:.0} | {:.2}x |",
            ops_per_sec(ri),
            ops_per_sec(rb),
            ops_per_sec(rs),
            ri.median.as_secs_f64() / rb.median.as_secs_f64()
        );
    }

    let ops = Json::Array(
        rows.iter()
            .map(|(name, ri, rb, rs)| {
                Json::obj(vec![
                    ("target", Json::Str(name.clone())),
                    ("interp_ops_per_sec", Json::Float(ops_per_sec(ri))),
                    ("block_ops_per_sec", Json::Float(ops_per_sec(rb))),
                    ("block_san_ops_per_sec", Json::Float(ops_per_sec(rs))),
                ])
            })
            .collect(),
    );
    write_json("BENCH_vm_modes.json", &results, vec![("ops_per_sec", ops)]);
}
