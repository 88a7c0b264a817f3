//! Fuzzer throughput: plain AFL++ loop vs CompDiff-AFL++ (the oracle's
//! k-executions cost — the other face of the §5 overhead claim).
//!
//! Before timing, the plain-AFL run must reproduce its pinned
//! `(execs, edges, corpus_len)`, so a fuzzer that got faster by fuzzing
//! differently fails here instead of reporting a speedup. Emits
//! `BENCH_fuzzer.json` (medians, execs/sec and `hardware_threads`) when
//! `COMPDIFF_BENCH_JSON_DIR` is set.

use compdiff::{CompDiffAfl, DiffConfig, Json};
use compdiff_bench::harness::{write_json, BenchGroup, BenchResult};
use fuzzing::{BinaryTarget, CampaignStats, FuzzConfig, Fuzzer, NoOracle};
use minc_compile::{compile_source, Binary, CompilerImpl};
use minc_vm::VmConfig;

const SRC: &str = r#"
    int main() {
        char b[16];
        long n = read_input(b, 16L);
        int cs = 0;
        long i;
        for (i = 0; i < n; i++) { cs = cs * 31 + (int)b[i]; }
        printf("%d\n", cs);
        return 0;
    }
"#;

const EXECS: u64 = 2_000;

/// `(execs, edges, corpus_len)` of the plain-AFL run below.
const PINNED: (u64, usize, usize) = (2000, 5, 6);

fn fuzz_config() -> FuzzConfig {
    FuzzConfig {
        max_execs: EXECS,
        seed: 1,
        ..Default::default()
    }
}

fn plain_afl(bin: &Binary) -> CampaignStats {
    let target = BinaryTarget::new(bin, VmConfig::default());
    Fuzzer::new(target, NoOracle, fuzz_config()).run(&[b"seed".to_vec()])
}

fn execs_per_sec(r: &BenchResult) -> f64 {
    EXECS as f64 / r.median.as_secs_f64().max(1e-12)
}

fn main() {
    let bin = compile_source(SRC, CompilerImpl::parse("clang-O1").unwrap()).unwrap();
    let stats = plain_afl(&bin);
    assert_eq!(
        (stats.execs, stats.edges, stats.corpus_len),
        PINNED,
        "plain-AFL (execs, edges, corpus_len) drifted from the pinned run"
    );

    let mut g = BenchGroup::new("fuzzer");
    g.sample_size(10);
    let plain = g.bench("plain_afl_2000_execs", || plain_afl(&bin));
    let diff = g.bench("compdiff_afl_2000_execs", || {
        CompDiffAfl::from_source_default(SRC, fuzz_config(), DiffConfig::default())
            .unwrap()
            .run(&[b"seed".to_vec()])
    });
    let results = g.finish();

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    write_json(
        "BENCH_fuzzer.json",
        &results,
        vec![
            ("hardware_threads", Json::Int(cores as i64)),
            (
                "pinned_execs_edges_corpus",
                Json::Array(vec![
                    Json::Int(PINNED.0 as i64),
                    Json::Int(PINNED.1 as i64),
                    Json::Int(PINNED.2 as i64),
                ]),
            ),
            (
                "plain_afl_execs_per_sec",
                Json::Float(execs_per_sec(&plain)),
            ),
            (
                "compdiff_afl_execs_per_sec",
                Json::Float(execs_per_sec(&diff)),
            ),
        ],
    );
}
