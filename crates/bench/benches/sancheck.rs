//! The sanitizer meta-oracle's per-program cost, and its parts.
//!
//! One thread, one program at a time, over the 23 catalog targets (empty
//! input) and the first 200 `progen::generate` programs at seed 1 (each
//! fed its first probe). Rows, each timed over the whole set and
//! reported per program:
//!
//! * `check_program` — `sancheck::check_program`, all of it;
//! * `site_map` — `UbSiteMap::build_with_logs`, given the ten rewrite
//!   logs built beforehand;
//! * `sanitized_compiles` — 10 × `sancheck::compile_sanitized_for`;
//! * `links` — 10 × `Binary::link` of an already optimized IR with the
//!   sanitized personality (each link consumes a clone of the IR, and
//!   the clone is timed with it);
//! * `hooked_runs_fresh` — 30 × `execute_with_hooks`, one fresh VM per
//!   (build, sanitizer);
//! * `hooked_runs_kept` — 10 sessions × 3 runs, one session per build.
//!
//! The rows are timed interleaved, one batch of each per sample round,
//! so drift of the host reaches them alike.
//!
//! Before timing, every program's `check_program` and lint output must
//! hash to its digest in `tests/golden/sancheck/manifest.json`, and
//! every kept-session hooked run must equal its fresh run. Emits
//! `BENCH_sancheck.json` (medians, per-program microseconds and
//! `hardware_threads`) when `COMPDIFF_BENCH_JSON_DIR` is set.

use compdiff::{hash64, Json};
use compdiff_bench::harness::{write_json, BenchGroup, BenchResult};
use fuzzing::Rng;
use minc::CheckedProgram;
use minc_compile::{Binary, CompilerImpl, IrProgram, RewriteLog};
use minc_vm::{execute_with_hooks, ExecResult, ExecSession, Hooks, SanitizerKind, VmConfig};
use sancheck::{PlannedSan, SanFaultPlan, SancheckConfig, SAN_KINDS};
use sanitizers::{Asan, Msan, Ubsan};
use staticheck_ir::{UbSiteMap, UnstableLint};
use std::hint::black_box;

/// Generated programs in the set (the first ones of the golden manifest).
const GENERATED: u64 = 200;

struct Program {
    name: String,
    src: String,
    checked: CheckedProgram,
    config: SancheckConfig,
    /// Each implementation's optimized IR and sanitized build.
    builds: Vec<(IrProgram, Binary)>,
    /// Each implementation's rewrite log.
    logs: Vec<RewriteLog>,
}

fn programs() -> Vec<Program> {
    let mut named: Vec<(String, String, Vec<u8>)> = targets::build_all()
        .into_iter()
        .map(|t| (format!("catalog/{}", t.spec.name), t.src, Vec::new()))
        .collect();
    for i in 0..GENERATED {
        let g = progen::generate(&mut Rng::new(progen::mix(1, i)));
        let probe = g.probes.first().cloned().unwrap_or_default();
        named.push((format!("progen/{i:03}"), g.source(), probe));
    }
    named
        .into_iter()
        .map(|(name, src, input)| {
            let checked = minc::check(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let (builds, logs) = CompilerImpl::default_set()
                .into_iter()
                .map(|ci| {
                    let (ir, log) = minc_compile::optimize_logged(&checked, ci);
                    ((ir, sancheck::compile_sanitized_for(&checked, ci)), log)
                })
                .unzip();
            Program {
                name,
                src,
                checked,
                config: SancheckConfig {
                    input,
                    ..SancheckConfig::default()
                },
                builds,
                logs,
            }
        })
        .collect()
}

/// Panics unless every program's sancheck and lint digests are the
/// pinned ones.
fn assert_pinned_digests(progs: &[Program]) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/sancheck/manifest.json"
    );
    let text = std::fs::read_to_string(path).unwrap();
    let manifest = Json::parse(&text).unwrap();
    let pinned = manifest.get("programs").and_then(Json::as_array).unwrap();
    for p in progs {
        let entry = pinned
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(p.name.as_str()))
            .unwrap_or_else(|| panic!("{} is not in the manifest", p.name));
        let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap();
        let report = sancheck::check_source(&p.src, &p.config).unwrap();
        let san = hash64(report.render().as_bytes());
        let lint = staticheck_ir::render(&UnstableLint::new().run_source(&p.src).unwrap());
        assert_eq!(format!("{san:016x}"), field("sancheck"), "{}", p.name);
        assert_eq!(
            format!("{:016x}", hash64(lint.as_bytes())),
            field("lint"),
            "{}",
            p.name
        );
    }
}

/// One sanitizer run of `bin`, in `session` when given, else fresh.
fn hooked(
    session: Option<&mut ExecSession>,
    bin: &Binary,
    input: &[u8],
    kind: SanitizerKind,
) -> ExecResult {
    fn go<H: Hooks>(
        session: Option<&mut ExecSession>,
        bin: &Binary,
        input: &[u8],
        hooks: &mut H,
    ) -> ExecResult {
        let cfg = VmConfig::default();
        match session {
            Some(s) => s.run_with_hooks(bin, input, &cfg, hooks),
            None => execute_with_hooks(bin, input, &cfg, hooks),
        }
    }
    match kind {
        SanitizerKind::Asan => go(
            session,
            bin,
            input,
            &mut PlannedSan::new(Asan::new(), kind, SanFaultPlan::default()),
        ),
        SanitizerKind::Ubsan => go(
            session,
            bin,
            input,
            &mut PlannedSan::new(Ubsan::new(), kind, SanFaultPlan::default()),
        ),
        SanitizerKind::Msan => go(
            session,
            bin,
            input,
            &mut PlannedSan::new(Msan::new(), kind, SanFaultPlan::default()),
        ),
    }
}

fn assert_kept_sessions_match_fresh(progs: &[Program]) {
    for p in progs {
        for (_, bin) in &p.builds {
            let mut session = ExecSession::new(bin);
            for kind in SAN_KINDS {
                let kept = hooked(Some(&mut session), bin, &p.config.input, kind);
                let fresh = hooked(None, bin, &p.config.input, kind);
                assert_eq!(kept, fresh, "{} {} {kind}", p.name, bin.impl_id);
            }
        }
    }
}

fn main() {
    let progs = programs();
    assert_pinned_digests(&progs);
    assert_kept_sessions_match_fresh(&progs);
    let n = progs.len();

    let mut g = BenchGroup::new("sancheck");
    g.sample_size(if std::env::var_os("COMPDIFF_BENCH_FAST").is_some() {
        2
    } else {
        11
    });
    let mut check_program = || {
        for p in &progs {
            black_box(sancheck::check_program(&p.checked, 0, &p.config));
        }
    };
    let mut site_map = || {
        for p in &progs {
            black_box(UbSiteMap::build_with_logs(&p.checked, &p.logs));
        }
    };
    let mut sanitized_compiles = || {
        for p in &progs {
            for ci in CompilerImpl::default_set() {
                black_box(sancheck::compile_sanitized_for(&p.checked, ci));
            }
        }
    };
    let mut links = || {
        for p in &progs {
            for (ir, bin) in &p.builds {
                black_box(Binary::link(ir.clone(), bin.personality.clone()));
            }
        }
    };
    let mut hooked_runs_fresh = || {
        for p in &progs {
            for (_, bin) in &p.builds {
                for kind in SAN_KINDS {
                    black_box(hooked(None, bin, &p.config.input, kind));
                }
            }
        }
    };
    let mut hooked_runs_kept = || {
        for p in &progs {
            for (_, bin) in &p.builds {
                let mut session = ExecSession::new(bin);
                for kind in SAN_KINDS {
                    black_box(hooked(Some(&mut session), bin, &p.config.input, kind));
                }
            }
        }
    };
    g.bench_interleaved(&mut [
        ("check_program", &mut check_program),
        ("site_map", &mut site_map),
        ("sanitized_compiles", &mut sanitized_compiles),
        ("links", &mut links),
        ("hooked_runs_fresh", &mut hooked_runs_fresh),
        ("hooked_runs_kept", &mut hooked_runs_kept),
    ]);
    let results = g.finish();

    let per_program_us = |r: &BenchResult| r.median.as_secs_f64() * 1e6 / n as f64;
    println!();
    println!("| Row | µs per program |");
    println!("|---|---|");
    for r in &results {
        println!("| {} | {:.0} |", r.name, per_program_us(r));
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    write_json(
        "BENCH_sancheck.json",
        &results,
        vec![
            ("hardware_threads", Json::Int(cores as i64)),
            ("threads_used", Json::Int(1)),
            ("programs", Json::Int(n as i64)),
            (
                "per_program_us",
                Json::obj(
                    results
                        .iter()
                        .map(|r| (r.name.as_str(), Json::Float(per_program_us(r))))
                        .collect(),
                ),
            ),
        ],
    );
}
