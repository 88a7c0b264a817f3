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
//! * `catalog_mix` — the catalog target `tcpdump`, one warm run of each of
//!   its inputs per iteration: its three seeds, its three bug triggers, a
//!   two-byte input that prints its usage line and a header whose second
//!   magic byte is wrong.
//!
//! One more row, `first_run`, times a new [`ExecSession`] and its first
//! run of `empty`: what a fresh session pays before any reuse (block
//! translation, the loader, and materializing every page it touches).
//!
//! The rows are timed interleaved, one batch of each per sample round,
//! so drift of the host reaches them alike.
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
use std::hint::black_box;

/// The catalog target whose inputs make the `catalog_mix` row.
const MIX_TARGET: &str = "tcpdump";

/// The rows: name, program, inputs (one run of each per iteration).
fn rows() -> Vec<(&'static str, String, Vec<Vec<u8>>)> {
    let input: Vec<u8> = (0u8..96).map(|i| i.wrapping_mul(37)).collect();
    let spec = targets::catalog()
        .into_iter()
        .find(|t| t.name == MIX_TARGET)
        .expect("the mix target is in the catalog");
    let target = targets::build(&spec);
    let [m0, m1] = spec.magic;
    let mut mix = target.seeds.clone();
    mix.extend(spec.bugs.iter().map(|b| target.trigger(b)));
    mix.push(vec![m0, m1]);
    mix.push(vec![m0, b'?', b'z', b'0']);
    let rows: Vec<(&str, &str, Vec<u8>)> = vec![
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
    ];
    rows.into_iter()
        .map(|(name, src, input)| (name, src.to_string(), vec![input]))
        .chain([("catalog_mix", target.src, mix)])
        .collect()
}

fn main() {
    let cfg = VmConfig::default();
    let gcc_o2 = CompilerImpl::parse("gcc-O2").unwrap();
    let programs: Vec<(&str, Binary, Vec<Vec<u8>>)> = rows()
        .into_iter()
        .map(|(name, src, inputs)| (name, compile_source(&src, gcc_o2).unwrap(), inputs))
        .collect();

    // Equality first: the warm block-dispatch run into a reused slot is
    // the reference interpreter's run, bit for bit, on every input.
    let mut steps = Vec::new();
    for (name, bin, inputs) in &programs {
        let mut session = ExecSession::new(bin);
        let mut slot = ExecResult::default();
        let mut row_steps = 0;
        for input in inputs {
            let reference = ExecSession::reference(bin).run(bin, input, &cfg);
            for _ in 0..3 {
                session.run_into(bin, input, &cfg, &mut NoHooks, &mut slot);
                assert_eq!(slot, reference, "{name}: block dispatch != reference");
            }
            assert_eq!(session.run(bin, input, &cfg), reference, "{name}");
            row_steps += reference.steps;
        }
        steps.push((*name, Json::Int(row_steps as i64)));
    }

    let (_, empty, _) = &programs[0];
    let mut first = ExecResult::default();
    ExecSession::new(empty).run_into(empty, &[], &cfg, &mut NoHooks, &mut first);
    assert_eq!(
        first,
        ExecSession::reference(empty).run(empty, &[], &cfg),
        "first_run: a new session's first run != reference"
    );

    let mut g = BenchGroup::new("vm_ops");
    let mut warm: Vec<Box<dyn FnMut()>> = programs
        .iter()
        .map(|(_, bin, inputs)| {
            let mut session = ExecSession::new(bin);
            let mut slot = ExecResult::default();
            let cfg = &cfg;
            Box::new(move || {
                for input in inputs {
                    session.run_into(bin, input, cfg, &mut NoHooks, &mut slot);
                    black_box(slot.steps);
                }
            }) as Box<dyn FnMut()>
        })
        .collect();
    let mut first_run = || {
        ExecSession::new(empty).run_into(empty, &[], &cfg, &mut NoHooks, &mut first);
        black_box(first.steps);
    };
    let mut rows: Vec<(&str, &mut dyn FnMut())> = programs
        .iter()
        .map(|(name, _, _)| *name)
        .zip(warm.iter_mut().map(|f| &mut **f as &mut dyn FnMut()))
        .collect();
    rows.push(("first_run", &mut first_run));
    g.bench_interleaved(&mut rows);
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
            ("catalog_mix_target", Json::Str(MIX_TARGET.to_string())),
            (
                "catalog_mix_inputs",
                Json::Int(programs.last().map_or(0, |p| p.2.len()) as i64),
            ),
            ("steps", Json::obj(steps)),
        ],
    );
}
