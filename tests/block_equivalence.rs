//! Block-dispatch equivalence regression suite.
//!
//! Pins the central guarantee of the block-compiled execution backend
//! (`minc_vm::block`), the engine every production session runs: it is
//! **bit-for-bit** equivalent to the per-instruction reference
//! interpreter that [`ExecSession::reference`] runs — same status, same
//! stdout, same step count, same hook
//! callbacks, same coverage map, same differ verdicts — on every program
//! in the target catalog, for every compiler implementation, across
//! batches that include trap-, fault-, and timeout-producing inputs
//! mid-batch. If block dispatch ever diverged from the interpreter,
//! CompDiff would report phantom discrepancies (or miss real ones), so
//! this suite is the safety net under the whole optimization.

use fuzzing::CoverageMap;
use minc_compile::ir::{BinKind, IrType};
use minc_compile::{compile_source, Binary, CompilerImpl};
use minc_vm::{
    execute, execute_with_hooks, ExecResult, ExecSession, ExitStatus, Fault, Hooks, Loc,
    SanitizerKind, VmConfig,
};
use sanitizers::{Asan, Msan, Ubsan};
use std::collections::HashSet;
use targets::{build, catalog};

/// Runs `bin` on `input` in a fresh reference session (the
/// per-instruction interpreter).
fn run_reference(bin: &Binary, input: &[u8], cfg: &VmConfig) -> ExecResult {
    ExecSession::reference(bin).run(bin, input, cfg)
}

/// [`run_reference`] with instrumentation hooks.
fn run_reference_with_hooks<H: Hooks>(
    bin: &Binary,
    input: &[u8],
    cfg: &VmConfig,
    hooks: &mut H,
) -> ExecResult {
    ExecSession::reference(bin).run_with_hooks(bin, input, cfg, hooks)
}

/// The reference counterpart of [`sanitizers::run_sanitized`].
fn run_reference_sanitized(
    bin: &Binary,
    input: &[u8],
    cfg: &VmConfig,
    kind: SanitizerKind,
) -> ExecResult {
    match kind {
        SanitizerKind::Asan => run_reference_with_hooks(bin, input, cfg, &mut Asan::new()),
        SanitizerKind::Ubsan => run_reference_with_hooks(bin, input, cfg, &mut Ubsan::new()),
        SanitizerKind::Msan => run_reference_with_hooks(bin, input, cfg, &mut Msan::new()),
    }
}

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

/// Asserts block output == interpreter output for every input, both
/// one-shot and through a persistent session (interleaved, so any state
/// leakage from input N corrupts input N+1).
fn assert_equivalent(label: &str, bin: &Binary, inputs: &[Vec<u8>], cfg: &VmConfig) {
    let mut session = ExecSession::new(bin);
    for (i, input) in inputs.iter().enumerate() {
        let reference = run_reference(bin, input, cfg);
        let block = execute(bin, input, cfg);
        assert_eq!(
            block, reference,
            "{label}: input #{i} ({input:?}) diverged between block mode \
             and the interpreter (fresh VMs)"
        );
        let persistent = session.run(bin, input, cfg);
        assert_eq!(
            persistent, reference,
            "{label}: input #{i} ({input:?}) diverged between a block-mode \
             session and a fresh interpreter"
        );
    }
    // The session actually took the block path and reused its translation.
    let stats = session.stats();
    assert!(stats.blocks_translated > 0, "{label}");
    assert_eq!(stats.block_cache_hits, inputs.len() as u64 - 1, "{label}");
}

#[test]
fn all_catalog_targets_all_impls_match_interpreter() {
    let impls = CompilerImpl::default_set();
    for spec in catalog() {
        let target = build(&spec);
        let checked = minc::check(&target.src)
            .unwrap_or_else(|e| panic!("{} does not check: {e:?}", spec.name));
        let mut inputs = input_batch(spec.magic);
        // Ground-truth bug triggers reach the unstable/crashing arms, so
        // the batch contains the exact inputs whose junk-dependent
        // behaviour is most sensitive to dispatch differences.
        for bug in &spec.bugs {
            inputs.push(target.trigger(bug));
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

#[test]
fn block_equivalence_survives_traps_and_faults_mid_batch() {
    // One program with segv, abort, sigfpe, heap, and junk paths, driven
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
fn block_equivalence_after_timeout_mid_batch() {
    // A timeout truncates the run with frames still live; the next run
    // must be unaffected, and the step at which the timeout fires must be
    // identical between the two dispatchers.
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
fn spin_loop_times_out_on_the_same_step_in_both_modes() {
    // Step-accounting drift regression: a pure spin loop must charge
    // exactly the same number of steps in both modes, and both must
    // report limit + 1 at the timeout (the interpreter's pre-fetch check
    // counts the step that crossed the limit).
    let src = "int main() { long i; for (i = 0; ; i++) {} return 0; }";
    for limit in [100u64, 101, 1_000, 49_999] {
        for ci in ["gcc-O0", "gcc-O2", "clang-O3"] {
            let bin = compile_source(src, CompilerImpl::parse(ci).unwrap()).unwrap();
            let base = VmConfig {
                step_limit: limit,
                ..Default::default()
            };
            let reference = run_reference(&bin, b"", &base);
            let block = execute(&bin, b"", &base);
            assert_eq!(reference.status, ExitStatus::TimedOut, "{ci} limit {limit}");
            assert_eq!(
                reference.steps,
                limit + 1,
                "{ci} limit {limit}: interpreter steps-at-timeout moved"
            );
            assert_eq!(block, reference, "{ci} limit {limit}");
        }
    }
}

#[test]
fn builtin_bulk_and_fallback_paths_charge_identical_steps() {
    // memcpy/memset take a bulk fast path without hooks and a
    // per-byte fallback under hooks; neither the path nor the dispatcher
    // may change the step charge (one step per builtin call).
    let src = r#"
        int main() {
            char a[4096]; char b[4096];
            memset(a, 7, 4096L);
            memcpy(b, a, 4096L);
            printf("%d %d\n", (int)a[4095], (int)b[0]);
            return 0;
        }
    "#;
    for ci in ["gcc-O0", "clang-O2"] {
        let bin = compile_source(src, CompilerImpl::parse(ci).unwrap()).unwrap();
        let cfg = VmConfig::default();
        let reference = run_reference(&bin, b"", &cfg);
        let block = execute(&bin, b"", &cfg);
        assert_eq!(block, reference, "{ci}: bulk path (no hooks)");
        // Hooked runs force the per-byte fallback in both engines.
        let mut imap = CoverageMap::new();
        let hooked_interp = run_reference_with_hooks(&bin, b"", &cfg, &mut imap);
        let mut bmap = CoverageMap::new();
        let hooked_block = execute_with_hooks(&bin, b"", &cfg, &mut bmap);
        assert_eq!(hooked_block, hooked_interp, "{ci}: fallback path (hooks)");
        assert_eq!(
            reference.steps, hooked_interp.steps,
            "{ci}: hooks changed the step charge"
        );
    }
}

#[test]
fn coverage_maps_are_identical_across_modes() {
    // The fuzz loop's edge coverage comes from on_edge callbacks; block
    // mode must fire them with the same (from, to) pairs — including on
    // edges fused away into superblocks.
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
    let cfg = VmConfig::default();
    for ci in CompilerImpl::default_set() {
        let bin = compile_source(src, ci).unwrap();
        for input in [&b""[..], b"abcxyz", b"zzzzzzz", b"m", b"nmnmnmn"] {
            let mut interp_map = CoverageMap::new();
            let reference = run_reference_with_hooks(&bin, input, &cfg, &mut interp_map);
            let mut block_map = CoverageMap::new();
            let block = execute_with_hooks(&bin, input, &cfg, &mut block_map);
            assert_eq!(block, reference, "{ci} {input:?}");
            let interp_edges: Vec<(usize, u8)> = interp_map.buckets().collect();
            let block_edges: Vec<(usize, u8)> = block_map.buckets().collect();
            assert_eq!(
                block_edges, interp_edges,
                "{ci}: coverage differs on {input:?}"
            );
        }
    }
}

#[test]
fn sanitizer_reports_are_identical_across_modes() {
    // Sanitizer escalation re-runs use full per-instruction hooks; block
    // mode must produce the same faults at the same locations (the fault
    // carries the Loc, so ExecResult equality pins callback fidelity).
    let programs: &[&str] = &[
        // heap overflow (ASan)
        r#"int main() { char* p = (char*)malloc(8L);
            p[8] = 1; free(p); return 0; }"#,
        // use after free (ASan)
        r#"int main() { char* p = (char*)malloc(8L);
            free(p); return (int)p[0]; }"#,
        // signed overflow (UBSan)
        r#"int main() { int x = 2147483647; x = x + 1;
            printf("%d\n", x); return 0; }"#,
        // oversized shift (UBSan)
        r#"int main() { char b[4]; long n = read_input(b, 4L);
            int s = (int)n + 30; printf("%d\n", 1 << s); return 0; }"#,
        // uninitialized read (MSan)
        r#"int main() { int u; if (u > 0) { printf("pos\n"); }
            printf("done\n"); return 0; }"#,
        // clean control program
        r#"int main() { int i; int acc = 0;
            for (i = 0; i < 100; i++) { acc += i; }
            printf("%d\n", acc); return 0; }"#,
    ];
    let cfg = VmConfig::default();
    for (pi, src) in programs.iter().enumerate() {
        let bin = sanitizers::compile_sanitized(src).unwrap();
        for kind in SanitizerKind::ALL {
            for input in [&b""[..], b"abc"] {
                let reference = run_reference_sanitized(&bin, input, &cfg, kind);
                let block = sanitizers::run_sanitized(&bin, input, &cfg, kind);
                assert_eq!(
                    block, reference,
                    "program #{pi} under {kind} on {input:?} diverged across modes"
                );
            }
        }
    }
}

#[test]
fn differ_verdicts_are_identical_across_modes() {
    // The differ-level API: divergence verdicts, hashes, and escalation
    // outcomes must not depend on the dispatcher, including on
    // partial-timeout workloads that trigger step-budget escalation —
    // per input and through the batched sweep every fuzzer oracle call
    // takes.
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
    let reference_sessions =
        || -> Vec<ExecSession> { diff.binaries().iter().map(ExecSession::reference).collect() };
    let inputs = [&b""[..], b"!a", b"ok", b"!b", b""];
    let reference_batch = diff.run_batch_observed(&mut reference_sessions(), &inputs, &mut ());
    let block_batch = diff.run_batch_observed(&mut diff.make_sessions(), &inputs, &mut ());
    let mut sessions = diff.make_sessions();
    for (i, input) in inputs.into_iter().enumerate() {
        let reference = diff.run_input_observed(&mut reference_sessions(), input, &mut ());
        let block = diff.run_input(input);
        let block_sessions = diff.run_input_observed(&mut sessions, input, &mut ());
        for out in [
            &block,
            &block_sessions,
            &reference_batch[i],
            &block_batch[i],
        ] {
            assert_eq!(out.hashes, reference.hashes, "{input:?}");
            assert_eq!(out.divergent, reference.divergent, "{input:?}");
            assert_eq!(
                out.unresolved_timeout, reference.unresolved_timeout,
                "{input:?}"
            );
        }
    }
}

#[test]
fn golden_progen_witnesses_diverge_identically_in_both_modes() {
    // The reduced witnesses under tests/golden/progen are the repo's
    // pinned real-divergence corpus; both dispatchers must reproduce the
    // same per-implementation results on each witness's probe.
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/progen");
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    let manifest = compdiff::Json::parse(&manifest).unwrap();
    let entries = manifest
        .get("witnesses")
        .and_then(compdiff::Json::as_array)
        .unwrap();
    assert!(!entries.is_empty());
    for entry in entries {
        let file = entry.get("file").and_then(compdiff::Json::as_str).unwrap();
        let hex = entry.get("probe").and_then(compdiff::Json::as_str).unwrap();
        let probe: Vec<u8> = (0..hex.len() / 2)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap())
            .collect();
        let src = std::fs::read_to_string(dir.join(file)).unwrap();
        let checked = minc::check(&src).unwrap();
        let cfg = VmConfig::default();
        let mut seen = std::collections::HashSet::new();
        for ci in CompilerImpl::default_set() {
            let bin = minc_compile::compile(&checked, ci);
            let reference = run_reference(&bin, &probe, &cfg);
            let block = execute(&bin, &probe, &cfg);
            assert_eq!(
                block, reference,
                "{file}/{ci}: witness behaviour shifted under block mode"
            );
            seen.insert(block.observable());
        }
        assert!(
            seen.len() > 1,
            "{file} no longer diverges across implementations in block mode"
        );
    }
}

/// A hook set that records every `check_bin` callback and reports
/// nothing, so two engines' arithmetic metadata compare call for call.
#[derive(Default)]
struct BinLog(Vec<(BinKind, IrType, u64, u64, bool, Loc)>);

impl Hooks for BinLog {
    fn check_bin(
        &mut self,
        op: BinKind,
        ty: IrType,
        a: u64,
        b: u64,
        ub_signed: bool,
        loc: Loc,
    ) -> Option<Fault> {
        self.0.push((op, ty, a, b, ub_signed, loc));
        None
    }
}

/// Every flat binary opcode of the block dispatcher against the
/// reference, on boundary operands read from the input (so nothing
/// folds), undefined ones included: signed overflow and shift counts 31,
/// 32, 63, 64 and -1. Every non-trapping integer `BinKind` a MinC source
/// can express appears at `int` and `long` width (`unsigned int` gives the
/// 32-bit unsigned shift and comparisons, pointer comparisons the 64-bit
/// unsigned ones; MinC has no unsigned 64-bit type, so 64-bit `ShrU` has
/// no source form). Block dispatch must equal the reference with no
/// hooks, under UBSan, and under a hook that records every `check_bin`.
#[test]
fn every_flat_opcode_matches_the_reference_on_boundary_operands() {
    /// A C operand type: how to read one from the input, its width in
    /// the input, the operators applied to it, and its values.
    struct Group {
        ty: &'static str,
        read: &'static str,
        width: usize,
        ops: &'static [&'static str],
        vals: &'static [i64],
    }
    const INT_OPS: &[&str] = &[
        "+", "-", "*", "<<", ">>", "&", "|", "^", "==", "!=", "<", "<=", ">", ">=",
    ];
    const CMP_OPS: &[&str] = &["==", "!=", "<", "<=", ">", ">="];
    let groups = [
        Group {
            ty: "int",
            read: "in32()",
            width: 4,
            ops: INT_OPS,
            vals: &[0, 1, -1, 2, 31, 32, 63, 64, 46341, 2147483647, -2147483648],
        },
        Group {
            ty: "unsigned int",
            read: "(unsigned int)in32()",
            width: 4,
            ops: INT_OPS,
            vals: &[0, 1, 31, 32, 2147483648, 4294967295],
        },
        Group {
            ty: "long",
            read: "in64()",
            width: 8,
            ops: INT_OPS,
            vals: &[
                0,
                1,
                -1,
                31,
                32,
                63,
                64,
                3037000500,
                4294967296,
                i64::MAX,
                i64::MIN,
            ],
        },
        Group {
            ty: "char*",
            read: "(char*)in64()",
            width: 8,
            ops: CMP_OPS,
            vals: &[0, 1, -1, 4096, i64::MIN],
        },
    ];
    // Group `g` is function `g{g}(k)`, which runs its operators from the
    // `k`-th on; an input is `g`, `k`, then the two operands.
    let mut src = String::from(
        "int in32() { int v; read_input(&v, 4L); return v; }\n\
         long in64() { long v; read_input(&v, 8L); return v; }\n",
    );
    for (g, group) in groups.iter().enumerate() {
        let (ty, read) = (group.ty, group.read);
        src.push_str(&format!(
            "void g{g}(int k) {{\n    {ty} x = {read};\n    {ty} y = {read};\n"
        ));
        for (i, op) in group.ops.iter().enumerate() {
            src.push_str(&format!(
                "    if (k <= {i}) {{ printf(\"%ld\\n\", (long)(x {op} y)); }}\n"
            ));
        }
        src.push_str("}\n");
    }
    src.push_str("int main() {\n    int g = in32();\n    int k = in32();\n");
    for g in 0..groups.len() {
        src.push_str(&format!("    if (g == {g}) {{ g{g}(k); }}\n"));
    }
    src.push_str("    return 0;\n}\n");
    let input = |g: usize, k: usize, a: i64, b: i64| -> Vec<u8> {
        let width = groups[g].width;
        let mut v = (g as i32).to_le_bytes().to_vec();
        v.extend((k as i32).to_le_bytes());
        v.extend(&a.to_le_bytes()[..width]);
        v.extend(&b.to_le_bytes()[..width]);
        v
    };
    let pairs = || {
        groups.iter().enumerate().flat_map(|(g, group)| {
            let vals = group.vals;
            vals.iter()
                .flat_map(move |&a| vals.iter().map(move |&b| (g, a, b)))
        })
    };
    let cfg = VmConfig::default();

    // No hooks and the recording hook, every operator in one run, on
    // every implementation.
    let checked = minc::check(&src).unwrap();
    let mut seen = HashSet::new();
    for ci in CompilerImpl::default_set() {
        let bin = minc_compile::compile(&checked, ci);
        let (mut block, mut reference) = (ExecSession::new(&bin), ExecSession::reference(&bin));
        for (g, a, b) in pairs() {
            let input = input(g, 0, a, b);
            let label = format!("{ci} {} {a}, {b}", groups[g].ty);
            let want = reference.run(&bin, &input, &cfg);
            assert_eq!(want.status, ExitStatus::Code(0), "{label}");
            let lines = want.stdout.iter().filter(|&&c| c == b'\n').count();
            assert_eq!(lines, groups[g].ops.len(), "{label}");
            assert_eq!(block.run(&bin, &input, &cfg), want, "{label}: no hooks");
            let (mut block_log, mut reference_log) = (BinLog::default(), BinLog::default());
            let want = reference.run_with_hooks(&bin, &input, &cfg, &mut reference_log);
            let got = block.run_with_hooks(&bin, &input, &cfg, &mut block_log);
            assert_eq!(got, want, "{label}: recording hook");
            assert_eq!(block_log.0, reference_log.0, "{label}: check_bin calls");
            seen.extend(block_log.0.iter().map(|&(op, ty, ..)| (op, ty)));
        }
    }
    use BinKind::*;
    let listed = [
        Add, Sub, Mul, Shl, ShrS, ShrU, And, Or, Xor, Eq, Ne, LtS, LeS, GtS, GeS, LtU, LeU, GtU,
        GeU,
    ];
    for op in listed {
        for ty in [IrType::I32, IrType::I64] {
            if (op, ty) != (ShrU, IrType::I64) {
                assert!(seen.contains(&(op, ty)), "{op:?} at {ty:?} never ran");
            }
        }
    }

    // UBSan, one run per operator the group starts at: the run stops at
    // the first undefined operation from there on.
    let bin = sanitizers::compile_sanitized(&src).unwrap();
    let (mut block, mut reference) = (ExecSession::new(&bin), ExecSession::reference(&bin));
    let mut faults = 0;
    for (g, a, b) in pairs() {
        for k in 0..groups[g].ops.len() {
            let input = input(g, k, a, b);
            let want = reference.run_with_hooks(&bin, &input, &cfg, &mut Ubsan::new());
            let got = block.run_with_hooks(&bin, &input, &cfg, &mut Ubsan::new());
            assert_eq!(
                got, want,
                "UBSan {} {} {a}, {b}",
                groups[g].ty, groups[g].ops[k]
            );
            faults += matches!(want.status, ExitStatus::Sanitizer(_)) as usize;
        }
    }
    assert!(faults > 0, "no operand pair was undefined under UBSan");
}
