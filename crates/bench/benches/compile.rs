//! Compilation cost: single compiles per optimization level, and the
//! per-program cost of building all ten implementations.
//!
//! Rows:
//!
//! * `gcc-O0`, `gcc-O2`, `clang-O3`, `clang-Os` — one `compile` of a
//!   synthetic 12-function program;
//! * `frontend_check` — `minc::check` of the same program;
//! * `ten_pipelines` — ten `optimize_logged`, one per implementation, for
//!   each program of the set;
//! * `shared_build` — one `optimize_all` of the default set (one lowering
//!   and one prefix tree of passes per family) for each program of the
//!   set.
//!
//! The set is the 23 catalog targets and the first 200
//! `progen::generate` programs at seed 1. One thread. Before timing,
//! every shared result must equal `optimize_logged`'s (IR `==`, log
//! `Debug` equal). Emits `BENCH_compile.json` (medians, per-program
//! microseconds of the two set rows, `hardware_threads` and the program
//! count) when `COMPDIFF_BENCH_JSON_DIR` is set.

use compdiff::Json;
use compdiff_bench::harness::{write_json, BenchGroup, BenchResult};
use fuzzing::Rng;
use minc::CheckedProgram;
use minc_compile::{compile, optimize_all, optimize_logged, CompilerImpl};

/// Generated programs in the set.
const GENERATED: u64 = 200;

fn program(n_funcs: usize) -> String {
    let mut src = String::new();
    for i in 0..n_funcs {
        src.push_str(&format!(
            "int f{i}(int x) {{ int a[8]; int j; for (j = 0; j < 8; j++) {{ a[j] = x + j * {i}; }} return a[x & 7] + f{prev}(x - 1); }}\n",
            prev = if i == 0 { 0 } else { i - 1 },
        ));
    }
    // f0 recurses into itself via the template above; replace with a base case.
    src = src.replacen("+ f0(x - 1)", "+ x", 1);
    src.push_str("int main() { printf(\"%d\\n\", f");
    src.push_str(&(n_funcs - 1).to_string());
    src.push_str("(5)); return 0; }\n");
    src
}

/// The catalog targets and the generated programs, checked.
fn program_set() -> Vec<(String, CheckedProgram)> {
    let mut named: Vec<(String, String)> = targets::build_all()
        .into_iter()
        .map(|t| (format!("catalog/{}", t.spec.name), t.src))
        .collect();
    for i in 0..GENERATED {
        let g = progen::generate(&mut Rng::new(progen::mix(1, i)));
        named.push((format!("progen/{i:03}"), g.source()));
    }
    named
        .into_iter()
        .map(|(name, src)| {
            let checked = minc::check(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, checked)
        })
        .collect()
}

/// Panics unless the shared build equals each implementation's pipeline
/// on every program.
fn assert_shared_build_is_exact(progs: &[(String, CheckedProgram)], impls: &[CompilerImpl]) {
    for (name, checked) in progs {
        for ((ir, log), &ci) in optimize_all(checked, impls).iter().zip(impls) {
            let (want_ir, want_log) = optimize_logged(checked, ci);
            assert!(*ir == want_ir, "{name}/{ci}: IR differs");
            assert_eq!(format!("{log:?}"), format!("{want_log:?}"), "{name}/{ci}");
        }
    }
}

fn main() {
    let impls = CompilerImpl::default_set();
    let progs = program_set();
    assert_shared_build_is_exact(&progs, &impls);
    let n = progs.len();

    let src = program(12);
    let checked = minc::check(&src).unwrap();
    let mut g = BenchGroup::new("compile");
    for name in ["gcc-O0", "gcc-O2", "clang-O3", "clang-Os"] {
        let ci = CompilerImpl::parse(name).unwrap();
        g.bench(name, || compile(&checked, ci));
    }
    g.bench("frontend_check", || minc::check(&src).unwrap());
    let ten = g.bench("ten_pipelines", || {
        for (_, checked) in &progs {
            for &ci in &impls {
                std::hint::black_box(optimize_logged(checked, ci));
            }
        }
    });
    let shared = g.bench("shared_build", || {
        for (_, checked) in &progs {
            std::hint::black_box(optimize_all(checked, &impls));
        }
    });
    let results = g.finish();

    let per_program_us = |r: &BenchResult| r.median.as_secs_f64() * 1e6 / n as f64;
    let speedup = ten.median.as_secs_f64() / shared.median.as_secs_f64();
    println!();
    println!("| Row | µs per program |");
    println!("|---|---|");
    for r in [&ten, &shared] {
        println!("| {} | {:.0} |", r.name, per_program_us(r));
    }
    println!("shared build: {speedup:.2}x the ten pipelines over {n} programs");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    write_json(
        "BENCH_compile.json",
        &results,
        vec![
            ("hardware_threads", Json::Int(cores as i64)),
            ("threads_used", Json::Int(1)),
            ("programs", Json::Int(n as i64)),
            (
                "per_program_us",
                Json::obj(vec![
                    (ten.name.as_str(), Json::Float(per_program_us(&ten))),
                    (shared.name.as_str(), Json::Float(per_program_us(&shared))),
                ]),
            ),
            ("shared_build_speedup", Json::Float(speedup)),
        ],
    );
}
