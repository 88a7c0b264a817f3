//! What one oracle execution costs, operation by operation.
//!
//! A catalog execution is a fixed per-run cost plus a handful of
//! builtins, byte loads and calls. Each row times one warm
//! [`ExecSession::run_into`] of a program that isolates one of those
//! operations, on one reused result slot, exactly as the oracle's sweep
//! runs it:
//!
//! * `empty` — `int main() { return 0; }`: the fixed cost of a run
//!   (reset, dispatch entry, result slot).
//! * `read_input_96` — one 96-byte `read_input` into a stack buffer.
//! * `byte_loads_96` — a loop of 96 byte loads over a stack buffer.
//! * `call_return_32` — 32 calls to a two-argument function.
//! * `printf_d` and `printf_s` — one `printf` of an `int` and of a
//!   12-byte string.
//!
//! Before any timing, every row's block-dispatch run must equal the
//! reference interpreter's ([`ExecSession::reference`]) and a fresh
//! session's. With `COMPDIFF_BENCH_JSON_DIR` set it writes
//! `BENCH_vm_ops.json` with `hardware_threads` and each row's steps;
//! `COMPDIFF_BENCH_FAST=1` keeps it to a smoke run.

use compdiff::Json;
use compdiff_bench::harness::{write_json, BenchGroup};
use minc_compile::{compile_source, Binary, CompilerImpl};
use minc_vm::{ExecResult, ExecSession, NoHooks, VmConfig};

/// The rows: name, program, input.
fn rows() -> Vec<(&'static str, &'static str, Vec<u8>)> {
    let input: Vec<u8> = (0u8..96).map(|i| i.wrapping_mul(37)).collect();
    vec![
        ("empty", "int main() { return 0; }", Vec::new()),
        (
            "read_input_96",
            "int main() { char buf[96]; long n = read_input(buf, 96L); return (int)n & 1; }",
            input.clone(),
        ),
        (
            "byte_loads_96",
            r#"
            int main() {
                char buf[96];
                long n = read_input(buf, 96L);
                int acc = 0;
                long i;
                for (i = 0; i < 96; i++) { acc += buf[i]; }
                return acc & (int)n & 7;
            }
            "#,
            input,
        ),
        (
            "call_return_32",
            r#"
            int mix(int a, int b) { return a * 31 + b; }
            int main() {
                int acc = 0;
                int i;
                for (i = 0; i < 32; i++) { acc = mix(acc, i); }
                return acc & 7;
            }
            "#,
            Vec::new(),
        ),
        (
            "printf_d",
            "int main() { int x = (int)input_size() + 41; printf(\"%d\\n\", x); return 0; }",
            b"x".to_vec(),
        ),
        (
            "printf_s",
            "int main() { char* s = \"hello, world\"; printf(\"%s\\n\", s); return 0; }",
            Vec::new(),
        ),
    ]
}

fn main() {
    let cfg = VmConfig::default();
    let gcc_o2 = CompilerImpl::parse("gcc-O2").unwrap();
    let programs: Vec<(&str, Binary, Vec<u8>)> = rows()
        .into_iter()
        .map(|(name, src, input)| (name, compile_source(src, gcc_o2).unwrap(), input))
        .collect();

    // Equality first: the warm block-dispatch run into a reused slot is
    // the reference interpreter's run, bit for bit.
    let mut steps = Vec::new();
    for (name, bin, input) in &programs {
        let reference = ExecSession::reference(bin).run(bin, input, &cfg);
        let mut session = ExecSession::new(bin);
        let mut slot = ExecResult::default();
        for _ in 0..3 {
            session.run_into(bin, input, &cfg, &mut NoHooks, &mut slot);
            assert_eq!(slot, reference, "{name}: block dispatch != reference");
        }
        assert_eq!(session.run(bin, input, &cfg), reference, "{name}");
        steps.push((*name, Json::Int(reference.steps as i64)));
    }

    let mut g = BenchGroup::new("vm_ops");
    for (name, bin, input) in &programs {
        let mut session = ExecSession::new(bin);
        let mut slot = ExecResult::default();
        g.bench(name, || {
            session.run_into(bin, input, &cfg, &mut NoHooks, &mut slot);
            slot.steps
        });
    }
    let results = g.finish();

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    write_json(
        "BENCH_vm_ops.json",
        &results,
        vec![
            ("hardware_threads", Json::Int(cores as i64)),
            ("threads_used", Json::Int(1)),
            ("implementation", Json::Str(gcc_o2.to_string())),
            ("steps", Json::obj(steps)),
        ],
    );
}
