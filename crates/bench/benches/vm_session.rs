//! Persistent-session and block-dispatch execution throughput.
//!
//! The differential oracle runs every input on all `k` binaries; this
//! bench quantifies what `ExecSession` saves per execution and what the
//! block-compiled backend saves on top. Two workloads bracket the space:
//!
//! * `small` — a catalog-shaped input parser (magic check, payload fold)
//!   followed by checksum-finalization mixing rounds. The rounds keep
//!   the run interpreter-loop-dominated, which is exactly what block
//!   dispatch attacks; the parse prologue keeps the program shaped like
//!   the differential targets rather than a synthetic ALU kernel.
//! * `page_heavy` — a program that malloc/memsets tens of KiB:
//!   per-exec setup (junk page materialization, frame allocation)
//!   dominates fresh runs, so session persistence pays the most here,
//!   while builtin-bound time caps what dispatch can win.
//!
//! Row naming: `fresh`/`persistent` are the reference interpreter
//! ([`ExecSession::reference`]: a new session per run, and one session
//! reused); `block` is a persistent production session on the block
//! dispatcher ([`ExecSession::new`]). In full mode this asserts
//! the >=2x session speedup (on `page_heavy`, where per-exec setup
//! dominates) and the >=3x block-over-persistent speedup (on at least
//! one workload), and emits `BENCH_vm.json` when
//! `COMPDIFF_BENCH_JSON_DIR` is set. Under `COMPDIFF_BENCH_FAST=1`
//! (CI smoke) it only proves the paths run.

use compdiff::Json;
use compdiff_bench::harness::{check_baseline, write_json, BenchGroup};
use minc_compile::{compile_source, Binary, CompilerImpl};
use minc_vm::{ExecSession, VmConfig};

fn small_program() -> Binary {
    let src = r#"
        int main() {
            char buf[32];
            long n = read_input(buf, 31L);
            if (n < 3) { printf("short\n"); return 1; }
            if (buf[0] != 'M' || buf[1] != 'C') { printf("bad magic\n"); return 2; }
            long h = 0;
            long i;
            for (i = 2; i < n; i++) { h = h * 31 + buf[i]; }
            long r;
            for (r = 0; r < 400; r++) {
                h = h ^ (h >> 33); h = h * 127; h = h + r;
                h = h ^ (h >> 29); h = h * 31;  h = h ^ (h << 5);
                h = h + 11;        h = h ^ (h >> 17);
            }
            printf("ok %d\n", (int)(h & 65535));
            return 0;
        }
    "#;
    compile_source(src, CompilerImpl::parse("gcc-O2").unwrap()).unwrap()
}

fn page_heavy_program() -> Binary {
    let src = r#"
        int main() {
            char* a = (char*)malloc(40000L);
            char* b = (char*)malloc(40000L);
            memset(a, 42, 40000L);
            memcpy(b, a, 40000L);
            long i; int acc = 0;
            for (i = 0; i < 40000; i += 997) { acc += b[i]; }
            printf("%d\n", acc);
            free(b);
            free(a);
            return 0;
        }
    "#;
    compile_source(src, CompilerImpl::parse("clang-O1").unwrap()).unwrap()
}

fn main() {
    let cfg = VmConfig::default();
    let small = small_program();
    let heavy = page_heavy_program();
    let input = b"MCabcdefgh";

    // Sanity: both the persistent path and the block dispatcher must be
    // bit-identical before they are allowed to be faster.
    for (bin, input) in [(&small, &input[..]), (&heavy, &b""[..])] {
        let reference = ExecSession::reference(bin).run(bin, input, &cfg);
        let mut persistent = ExecSession::reference(bin);
        let mut block = ExecSession::new(bin);
        for _ in 0..2 {
            assert_eq!(persistent.run(bin, input, &cfg), reference);
            assert_eq!(block.run(bin, input, &cfg), reference);
        }
    }

    let mut g = BenchGroup::new("vm_session");

    let fresh_small = g.bench("small/fresh", || {
        ExecSession::reference(&small).run(&small, input, &cfg)
    });
    let mut s = ExecSession::reference(&small);
    let persist_small = g.bench("small/persistent", || s.run(&small, input, &cfg));
    let mut s = ExecSession::new(&small);
    let block_small = g.bench("small/block", || s.run(&small, input, &cfg));

    let fresh_heavy = g.bench("page_heavy/fresh", || {
        ExecSession::reference(&heavy).run(&heavy, b"", &cfg)
    });
    let mut s = ExecSession::reference(&heavy);
    let persist_heavy = g.bench("page_heavy/persistent", || s.run(&heavy, b"", &cfg));
    let mut s = ExecSession::new(&heavy);
    let block_heavy = g.bench("page_heavy/block", || s.run(&heavy, b"", &cfg));

    let results = g.finish();
    let speedup_small = fresh_small.median.as_secs_f64() / persist_small.median.as_secs_f64();
    let speedup_heavy = fresh_heavy.median.as_secs_f64() / persist_heavy.median.as_secs_f64();
    let block_small_x = persist_small.median.as_secs_f64() / block_small.median.as_secs_f64();
    let block_heavy_x = persist_heavy.median.as_secs_f64() / block_heavy.median.as_secs_f64();
    println!("vm_session small speedup:      {speedup_small:.2}x (persistent vs fresh)");
    println!("vm_session page_heavy speedup: {speedup_heavy:.2}x (persistent vs fresh)");
    println!("vm_session small block:        {block_small_x:.2}x (block vs persistent)");
    println!("vm_session page_heavy block:   {block_heavy_x:.2}x (block vs persistent)");

    write_json(
        "BENCH_vm.json",
        &results,
        vec![
            ("speedup_small", Json::Float(speedup_small)),
            ("speedup_page_heavy", Json::Float(speedup_heavy)),
            ("block_speedup_small", Json::Float(block_small_x)),
            ("block_speedup_page_heavy", Json::Float(block_heavy_x)),
        ],
    );

    // Optional regression gate: with COMPDIFF_BENCH_BASELINE_DIR pointing
    // at the repo root, every median must stay within 5% of the committed
    // BENCH_vm.json (which this check reads but never rewrites). The
    // committed baseline includes the block rows, so block-dispatch
    // regressions trip the same guard.
    check_baseline("BENCH_vm.json", &results, 0.05);

    // The acceptance bars: >=2x for sessions on the setup-dominated
    // (page_heavy) workload, and >=3x for block dispatch over the
    // interpreted persistent median on at least one workload. Skipped in
    // fast/smoke mode, where 3 tiny samples are too noisy to gate CI on.
    if std::env::var_os("COMPDIFF_BENCH_FAST").is_none() {
        assert!(
            speedup_heavy >= 2.0,
            "persistent sessions must be >=2x fresh execution on the \
             setup-dominated workload, got {speedup_heavy:.2}x"
        );
        assert!(
            block_small_x >= 3.0 || block_heavy_x >= 3.0,
            "block dispatch must be >=3x the interpreted persistent median \
             on at least one workload, got {block_small_x:.2}x (small) and \
             {block_heavy_x:.2}x (page_heavy)"
        );
    }
}
