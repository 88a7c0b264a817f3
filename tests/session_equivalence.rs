//! Persistent-mode equivalence regression suite.
//!
//! Pins the central guarantee of `minc_vm::ExecSession`: a reused session
//! is **bit-for-bit** equivalent to a fresh `execute()` — same status,
//! same stdout, same step count — on every program in the target catalog,
//! for every compiler implementation, across input batches that include
//! trap-, fault-, and timeout-producing inputs mid-batch (dirty-state
//! isolation). If a session ever diverged from a fresh VM, CompDiff would
//! report phantom discrepancies, so this suite is the safety net under
//! the entire persistent-mode optimization.

use fuzzing::{CoverageMap, CoveredHooks};
use minc_compile::{compile_source, Binary, CompilerImpl};
use minc_vm::{
    execute, execute_with_hooks, ExecResult, ExecSession, ExitStatus, Hooks, NoHooks,
    SanitizerKind, VmConfig,
};
use sancheck::{PlannedSan, SanFaultPlan, SAN_KINDS};
use sanitizers::{Asan, Msan, Ubsan};
use targets::{build, catalog};

/// Inputs exercised against every binary: empty, short, the magic header
/// with assorted commands, malformed headers, long and binary-ish data.
fn input_batch(magic: [u8; 2]) -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = vec![
        Vec::new(),
        vec![0x00],
        b"A".to_vec(),
        vec![magic[0]],
        vec![magic[0], magic[1]],
        vec![magic[0], magic[1], 0x00, b'A'],
        vec![magic[0], magic[1], 0xFF, 0xFF],
        vec![magic[1], magic[0], 0x01, b'A'], // swapped magic
        b"not the magic at all".to_vec(),
        vec![magic[0], magic[1], 0x07, b'Z', b'Z', b'Z', b'Z', b'Z'],
    ];
    // A longer payload to push checksum loops through more bytes.
    let mut long = vec![magic[0], magic[1], 0x02];
    long.extend((0u8..64).map(|i| i.wrapping_mul(37)));
    inputs.push(long);
    inputs
}

/// Asserts session output == fresh output for every input, interleaving
/// the comparisons so any state leakage from input N corrupts input N+1.
fn assert_equivalent(label: &str, bin: &Binary, inputs: &[Vec<u8>], cfg: &VmConfig) {
    let mut session = ExecSession::new(bin);
    for (i, input) in inputs.iter().enumerate() {
        let fresh = execute(bin, input, cfg);
        let persistent = session.run(bin, input, cfg);
        assert_eq!(
            persistent, fresh,
            "{label}: input #{i} ({input:?}) diverged between persistent \
             session and fresh VM"
        );
    }
}

#[test]
fn all_catalog_targets_all_impls_match_fresh_execution() {
    let impls = CompilerImpl::default_set();
    for spec in catalog() {
        let target = build(&spec);
        let checked = minc::check(&target.src)
            .unwrap_or_else(|e| panic!("{} does not check: {e:?}", spec.name));
        let mut inputs = input_batch(spec.magic);
        // Ground-truth bug triggers reach the unstable/crashing arms, so
        // the batch contains the exact inputs whose junk-dependent
        // behaviour is most sensitive to residual session state.
        for bug in &spec.bugs {
            inputs.push(target.trigger(bug));
            // And re-run a benign input right after each trigger.
            inputs.push(vec![spec.magic[0], spec.magic[1], 0x00, b'A']);
        }
        for &ci in &impls {
            let bin = minc_compile::compile(&checked, ci);
            assert_equivalent(
                &format!("{}/{}", spec.name, ci),
                &bin,
                &inputs,
                &VmConfig::default(),
            );
        }
    }
}

/// Leaves `slot` as dirty as a previous run could relative to `fresh`:
/// longer stale stdout, another status and other steps.
fn dirty(slot: &mut ExecResult, fresh: &ExecResult) {
    slot.stdout.resize(fresh.stdout.len() + 64, b'Z');
    slot.status = if fresh.status == ExitStatus::Code(77) {
        ExitStatus::TimedOut
    } else {
        ExitStatus::Code(77)
    };
    slot.steps = fresh.steps + 12_345;
}

/// `run_into` overwrites whatever its slot held: on every catalog target
/// and implementation, each input runs under a budget that times it out,
/// then as an escalated re-run at twice that budget, then in full, every
/// run in the same session and into the slot the previous run (a trap, a
/// timeout, a clean exit) left, dirtied further. Each must equal a fresh
/// `execute`.
#[test]
fn run_into_a_dirty_slot_matches_fresh_execution() {
    let impls = CompilerImpl::default_set();
    let full = VmConfig::default();
    for spec in catalog() {
        let target = build(&spec);
        let checked = minc::check(&target.src).unwrap();
        let mut inputs = input_batch(spec.magic);
        inputs.extend(spec.bugs.iter().map(|bug| target.trigger(bug)));
        for bin in minc_compile::compile_all(&checked, &impls).0 {
            let mut session = ExecSession::new(&bin);
            let mut slot = ExecResult::default();
            let mut timeouts = 0;
            for (i, input) in inputs.iter().enumerate() {
                let steps = execute(&bin, input, &full).steps;
                let tight = VmConfig {
                    step_limit: (steps / 2).max(1),
                    ..full.clone()
                };
                let escalated = VmConfig {
                    step_limit: tight.step_limit * 2,
                    ..full.clone()
                };
                for cfg in [&tight, &escalated, &full] {
                    let fresh = execute(&bin, input, cfg);
                    timeouts += usize::from(fresh.status == ExitStatus::TimedOut);
                    dirty(&mut slot, &fresh);
                    session.run_into(&bin, input, cfg, &mut NoHooks, &mut slot);
                    assert_eq!(
                        slot, fresh,
                        "{}/{}: input #{i} at step limit {}",
                        spec.name, bin.impl_id, cfg.step_limit
                    );
                }
            }
            assert!(timeouts > 0, "{}/{}: no timeout", spec.name, bin.impl_id);
        }
    }
}

#[test]
fn session_equivalence_survives_traps_and_faults_mid_batch() {
    // One program with segv, abort, sigfpe, heap, and clean paths, driven
    // through a batch that alternates crashing and clean inputs.
    let src = r#"
        int main() {
            char b[8];
            long n = read_input(b, 8L);
            if (n < 1) { printf("empty\n"); return 0; }
            if (b[0] == 's') { int* p = 0; *p = 1; }
            if (b[0] == 'a') { abort(); }
            if (b[0] == 'd') { int z = (int)n - (int)n; return 5 / z; }
            if (b[0] == 'h') {
                char* m = (char*)malloc(10000L);
                memset(m, (int)b[1], 10000L);
                printf("%d\n", (int)m[9999]);
                free(m);
                return 0;
            }
            if (b[0] == 'u') { int u; printf("junk %d\n", u); }
            printf("clean %ld\n", n);
            return 0;
        }
    "#;
    let batch: Vec<Vec<u8>> = [
        &b""[..],
        b"s!",
        b"ok",
        b"a",
        b"hX",
        b"d0",
        b"u?",
        b"clean",
        b"s",
        b"hY",
        b"again",
    ]
    .iter()
    .map(|s| s.to_vec())
    .collect();
    for ci in CompilerImpl::default_set() {
        let bin = compile_source(src, ci).unwrap();
        assert_equivalent(
            &format!("crashmix/{ci}"),
            &bin,
            &batch,
            &VmConfig::default(),
        );
    }
}

#[test]
fn session_equivalence_after_timeout_mid_batch() {
    // A timeout truncates the run with frames still live; the next run
    // must be unaffected. Small step budget makes input-driven loops spin
    // out while others finish.
    let src = r#"
        int main() {
            char b[4];
            long n = read_input(b, 4L);
            if (n > 0 && b[0] == 'L') {
                long i; long acc = 0;
                for (i = 0; i < 100000000; i++) { acc += i; }
                printf("%ld\n", acc);
            }
            printf("done\n");
            return 0;
        }
    "#;
    let cfg = VmConfig {
        step_limit: 50_000,
        ..Default::default()
    };
    let batch: Vec<Vec<u8>> = [&b"L!"[..], b"ok", b"L", b"x"]
        .iter()
        .map(|s| s.to_vec())
        .collect();
    for ci in ["gcc-O0", "clang-O3"] {
        let bin = compile_source(src, CompilerImpl::parse(ci).unwrap()).unwrap();
        assert_equivalent(&format!("timeout/{ci}"), &bin, &batch, &cfg);
    }
}

#[test]
fn differ_and_fuzzer_unit_programs_match_fresh_execution() {
    // The programs the differ/fuzzer unit tests rely on: their observed
    // behaviour under sessions must match fresh execution exactly, or the
    // engine's divergence verdicts would shift under persistent mode.
    let programs: &[&str] = &[
        // differ.rs: stable accumulate
        r#"int main() { int i; int acc = 0;
            for (i = 0; i < 16; i++) { acc += i * i; }
            printf("%d\n", acc); return 0; }"#,
        // differ.rs: Listing 1 overflow check
        r#"int dump_data(int offset, int len) {
            int size = 100;
            if (offset + len > size || offset < 0 || len < 0) { return -1; }
            if (offset + len < offset) { return -1; }
            return 0; }
           int main() { printf("r=%d\n", dump_data(2147483647 - 100, 101)); return 0; }"#,
        // differ.rs: uninitialized print
        "int main() { int u; printf(\"%d\\n\", u); return 0; }",
        // differ.rs: input-gated uninitialized read
        r#"int main() { char b[4]; long n = read_input(b, 4L);
            if (n > 0 && b[0] == '!') { int u; printf("%d\n", u); }
            printf("done\n"); return 0; }"#,
        // fuzzer.rs: staged magic bytes
        r#"int main() { char buf[8]; long n = read_input(buf, 8L);
            if (n < 3) return 0;
            if (buf[0] == 'F') { if (buf[1] == 'U') { if (buf[2] == 'Z') {
                int* p = 0; *p = 1; } } }
            return 0; }"#,
        // fuzzer.rs: coverage ladder
        r#"int main() { char buf[4]; long n = read_input(buf, 4L);
            if (n > 0 && buf[0] > 'a') { printf("1"); }
            if (n > 1 && buf[1] > 'b') { printf("2"); }
            if (n > 2 && buf[2] > 'c') { printf("3"); }
            return 0; }"#,
    ];
    let inputs: Vec<Vec<u8>> = [
        &b""[..],
        b"!x",
        b"FUZ",
        b"zzz",
        b"abc",
        b"\xff\x00\x01",
        b"longer-input-bytes",
    ]
    .iter()
    .map(|s| s.to_vec())
    .collect();
    for (pi, src) in programs.iter().enumerate() {
        for ci in CompilerImpl::default_set() {
            let bin = compile_source(src, ci).unwrap();
            assert_equivalent(
                &format!("unit-program #{pi}/{ci}"),
                &bin,
                &inputs,
                &VmConfig::default(),
            );
        }
    }
}

#[test]
fn session_with_coverage_hooks_matches_fresh_instrumented_execution() {
    // The fuzz loop runs sessions under CoveredHooks; both the ExecResult
    // and the coverage map must match a fresh instrumented execution.
    let src = r#"
        int main() {
            char b[8];
            long n = read_input(b, 8L);
            long i; int acc = 0;
            for (i = 0; i < n; i++) {
                if (b[i] > 'm') { acc += 2; } else { acc -= 1; }
            }
            printf("%d\n", acc);
            return acc < 0 ? 1 : 0;
        }
    "#;
    let bin = compile_source(src, CompilerImpl::parse("clang-O1").unwrap()).unwrap();
    let cfg = VmConfig::default();
    let mut session = ExecSession::new(&bin);
    for input in [&b""[..], b"abcxyz", b"zzzzzzz", b"m", b"nmnmnmn"] {
        let mut fresh_map = CoverageMap::new();
        let fresh: ExecResult = execute_with_hooks(
            &bin,
            input,
            &cfg,
            &mut CoveredHooks::new(&mut fresh_map, NoHooks),
        );
        let mut session_map = CoverageMap::new();
        let persistent = session.run_with_hooks(
            &bin,
            input,
            &cfg,
            &mut CoveredHooks::new(&mut session_map, NoHooks),
        );
        assert_eq!(persistent, fresh, "{input:?}");
        let fresh_edges: Vec<(usize, u8)> = fresh_map.buckets().collect();
        let session_edges: Vec<(usize, u8)> = session_map.buckets().collect();
        assert_eq!(session_edges, fresh_edges, "coverage differs on {input:?}");
    }
}

#[test]
fn run_input_observed_matches_run_input_verdicts() {
    // The differ-level API: persistent sessions must produce the same
    // divergence verdicts and hashes as the one-shot path, including on
    // escalation-triggering (partial-timeout) workloads.
    let src = r#"
        int main() {
            char b[4];
            long n = read_input(b, 4L);
            if (n > 0 && b[0] == '!') { int u; printf("%d\n", u); }
            long i; long acc = 0;
            for (i = 0; i < 20000; i++) { acc += i; }
            printf("%ld\n", acc);
            return 0;
        }
    "#;
    let cfg = compdiff::DiffConfig {
        vm: VmConfig {
            step_limit: 150_000,
            ..Default::default()
        },
        ..Default::default()
    };
    let diff = compdiff::CompDiff::from_source_default(src, cfg).unwrap();
    let mut sessions = diff.make_sessions();
    for input in [&b""[..], b"!a", b"ok", b"!b", b""] {
        let fresh = diff.run_input(input);
        let persistent = diff.run_input_observed(&mut sessions, input, &mut ());
        assert_eq!(persistent.hashes, fresh.hashes, "{input:?}");
        assert_eq!(persistent.divergent, fresh.divergent, "{input:?}");
        assert_eq!(
            persistent.unresolved_timeout, fresh.unresolved_timeout,
            "{input:?}"
        );
    }
}

/// Runs `bin` under `kind` with `plan`'s planted defects, in `session`
/// when given, else in a fresh VM through `execute_with_hooks`.
fn planned_run(
    session: Option<&mut ExecSession>,
    bin: &Binary,
    input: &[u8],
    kind: SanitizerKind,
    plan: &SanFaultPlan,
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
            &mut PlannedSan::new(Asan::new(), kind, plan.clone()),
        ),
        SanitizerKind::Ubsan => go(
            session,
            bin,
            input,
            &mut PlannedSan::new(Ubsan::new(), kind, plan.clone()),
        ),
        SanitizerKind::Msan => go(
            session,
            bin,
            input,
            &mut PlannedSan::new(Msan::new(), kind, plan.clone()),
        ),
    }
}

#[test]
fn kept_session_sanitizer_runs_match_fresh_execution() {
    // sancheck runs a sanitized build's three sanitizers in one session.
    // Each build here gets one session per fault plan, which runs ASan,
    // UBSan, MSan and then all three again on every input in turn; each
    // run must equal a fresh hooked execution.
    let unit_programs = [
        (
            "DEAD_DIV",
            r#"
            int main() {
                int z = (int)input_size();
                int t = 5 / z;
                printf("ok\n");
                return 0;
            }
        "#,
        ),
        (
            "UNINIT_BRANCH",
            r#"
            int main() {
                int u;
                if (u > 0) { printf("y\n"); }
                return 0;
            }
        "#,
        ),
    ];
    let mut programs: Vec<(String, String, Vec<Vec<u8>>)> = unit_programs
        .iter()
        .map(|(name, src)| {
            (
                name.to_string(),
                src.to_string(),
                vec![Vec::new(), b"x".to_vec()],
            )
        })
        .collect();
    for spec in catalog() {
        let target = build(&spec);
        let seed = target.seeds.first().cloned().unwrap_or_default();
        programs.push((spec.name.clone(), target.src, vec![Vec::new(), seed]));
    }
    let plans = ["", "suppress@msan", "fire@ubsan:shift-out-of-bounds#1"];
    for (name, src, inputs) in &programs {
        let checked = minc::check(src).unwrap();
        for ci in CompilerImpl::default_set() {
            let bin = sancheck::compile_sanitized_for(&checked, ci);
            for spec in plans {
                let plan = SanFaultPlan::parse(spec).unwrap();
                let mut session = ExecSession::new(&bin);
                for input in inputs {
                    for kind in SAN_KINDS.iter().chain(&SAN_KINDS) {
                        let kept = planned_run(Some(&mut session), &bin, input, *kind, &plan);
                        let fresh = planned_run(None, &bin, input, *kind, &plan);
                        assert_eq!(
                            kept, fresh,
                            "{name}/{ci} plan `{spec}` {kind} on {input:?}: kept session \
                             diverged from a fresh run"
                        );
                    }
                }
            }
        }
    }
}

/// One hooked run of `bin` on `input`: coverage hooks when `kind` is
/// `None`, that sanitizer otherwise; in `session` when given, else in a
/// fresh VM. Returns the result and the coverage buckets (empty under a
/// sanitizer).
fn hooked_run(
    session: Option<&mut ExecSession>,
    bin: &Binary,
    input: &[u8],
    kind: Option<SanitizerKind>,
) -> (ExecResult, Vec<(usize, u8)>) {
    let Some(kind) = kind else {
        let cfg = VmConfig::default();
        let mut map = CoverageMap::new();
        let result = {
            let mut hooks = CoveredHooks::new(&mut map, NoHooks);
            match session {
                Some(s) => s.run_with_hooks(bin, input, &cfg, &mut hooks),
                None => execute_with_hooks(bin, input, &cfg, &mut hooks),
            }
        };
        return (result, map.buckets().collect());
    };
    let plan = SanFaultPlan::parse("").unwrap();
    (planned_run(session, bin, input, kind, &plan), Vec::new())
}

#[test]
fn hooked_session_runs_skip_the_loader_after_the_first() {
    // Every run of a binary after the session's first run of it starts
    // from the kept post-loader page image instead of running the loader,
    // under coverage hooks and with each sanitizer attached alike, and
    // each result equals a fresh hooked execution. Handing the session
    // another binary captures that binary's image.
    let a_src = r#"
        int g_count;
        char g_tag[16];
        char* banner = "image";
        int main() {
            char b[8];
            long n = read_input(b, 8L);
            g_count += (int)n;
            g_tag[0] = b[0];
            int u;
            if (n > 1 && b[0] == '!') { printf("%d\n", u); }
            printf("%s %d %d\n", banner, g_count, (int)g_tag[1]);
            return 0;
        }
    "#;
    let b_src = r#"
        char* word = "other";
        int main() {
            char b[4];
            long n = read_input(b, 4L);
            printf("%s %d\n", word, (int)n);
            return 0;
        }
    "#;
    let ci = CompilerImpl::parse("gcc-O2").unwrap();
    let a = sancheck::compile_sanitized_for(&minc::check(a_src).unwrap(), ci);
    let b = sancheck::compile_sanitized_for(&minc::check(b_src).unwrap(), ci);
    assert_eq!(
        a.personality.seed, b.personality.seed,
        "same implementation"
    );
    let inputs = [&b""[..], b"ab", b"!x", b"zzzz"];
    let kinds = [None].into_iter().chain(SAN_KINDS.map(Some));
    for kind in kinds {
        let mut session = ExecSession::new(&a);
        for (switches, (label, bin)) in [("a", &a), ("b", &b), ("a again", &a)]
            .into_iter()
            .enumerate()
        {
            for input in inputs {
                let kept = hooked_run(Some(&mut session), bin, input, kind);
                let fresh = hooked_run(None, bin, input, kind);
                assert_eq!(kept, fresh, "{kind:?} {label} on {input:?}");
            }
            let stats = session.stats();
            assert_eq!(
                stats.loader_skips,
                stats.runs - 1 - switches as u64,
                "{kind:?} {label}: one capture per binary switch: {stats:?}"
            );
        }
    }
}
