//! The per-layer metrics of a traced run, derived from its spans and
//! counts. Every traced run prints the same list, in this order, so a
//! layer a workload never calls reads 0 there.
//!
//! Times that only some workloads spend are reported as shares of the
//! traced wall time (`_pct`); absolute times are reported per call, for
//! the layers every workload calls.

use crate::measure::Outcome;
use crate::trace::Tracer;
use compdiff::{DiffObserver, DiffOutcome};
use minc_vm::{ExecResult, ExitStatus, SessionStats};
use std::time::Instant;

/// Name of the root span every replica runs under.
pub const ROOT: &str = "bench";

/// Leaves that time one VM execution each.
const EXEC_LEAVES: [&str; 3] = ["minc_vm.fuzz_exec", "minc_vm.oracle_exec", "sanitizers.run"];

/// `(metric, span or leaf)`: the name's self time as a share of the
/// traced wall time. Together they cover every span name the replicas
/// record, so they sum to 100.
const SHARES: [(&str, &str); 22] = [
    ("minc.check_pct", "minc.check"),
    ("minc_compile.compile_pct", "minc_compile.compile"),
    (
        "minc_compile.optimize_logged_pct",
        "minc_compile.optimize_logged",
    ),
    (
        "minc_compile.sanitized_compile_pct",
        "minc_compile.sanitized_compile",
    ),
    ("minc_vm.translate_pct", "minc_vm.translate"),
    ("minc_vm.fuzz_exec_pct", "minc_vm.fuzz_exec"),
    ("minc_vm.oracle_exec_pct", "minc_vm.oracle_exec"),
    ("sanitizers.run_pct", "sanitizers.run"),
    ("staticheck_ir.lint_pct", "staticheck_ir.lint"),
    ("staticheck_ir.ubmap_pct", "staticheck_ir.ubmap"),
    ("core.oracle_self_pct", "core.oracle"),
    ("core.dedup_pct", "core.dedup"),
    ("fuzzing.self_pct", "fuzzing.run"),
    ("progen.evaluate_self_pct", "progen.evaluate"),
    ("progen.generation_pct", "progen.generation"),
    ("progen.reduce_pct", "progen.reduce"),
    ("campaign.setup_self_pct", "campaign.setup"),
    ("campaign.job_self_pct", "campaign.job"),
    (
        "campaign.checkpoint_append_pct",
        "campaign.checkpoint_append",
    ),
    ("campaign.checkpoint_sync_pct", "campaign.checkpoint_sync"),
    ("sancheck.judge_pct", "sancheck.audit"),
    ("trace.root_self_pct", ROOT),
];

/// `(metric, spans or leaves)`: number of calls.
const CALLS: [(&str, &[&str]); 16] = [
    ("minc.checks", &["minc.check"]),
    (
        "minc_compile.compiles",
        &["minc_compile.compile", "minc_compile.sanitized_compile"],
    ),
    (
        "minc_compile.optimize_logged_calls",
        &["minc_compile.optimize_logged"],
    ),
    ("minc_vm.translations", &["minc_vm.translate"]),
    ("minc_vm.fuzz_execs", &["minc_vm.fuzz_exec"]),
    ("minc_vm.oracle_execs", &["minc_vm.oracle_exec"]),
    ("minc_vm.sanitized_runs", &["sanitizers.run"]),
    ("staticheck_ir.lints", &["staticheck_ir.lint"]),
    ("staticheck_ir.ubmaps", &["staticheck_ir.ubmap"]),
    ("core.batches", &["core.oracle"]),
    ("core.dedup_records", &["core.dedup"]),
    ("progen.genomes", &["progen.evaluate"]),
    ("progen.reductions", &["progen.reduce"]),
    ("campaign.jobs", &["campaign.job"]),
    (
        "campaign.checkpoint_records",
        &["campaign.checkpoint_append"],
    ),
    ("sancheck.programs", &["sancheck.audit"]),
];

/// Event counts the replicas record with [`Tracer::count`].
pub const COUNTS: [&str; 18] = [
    "minc_vm.blocks",
    "minc_vm.steps",
    "minc_vm.timeouts",
    "minc_vm.pages_restored",
    "minc_vm.pages_materialized",
    "minc_vm.bulk_builtin_ops",
    "minc_vm.fallback_builtin_ops",
    "core.bisections",
    "core.escalation_reruns",
    "core.divergent",
    "core.unique_signatures",
    "fuzzing.corpus_len",
    "fuzzing.edges",
    "progen.divergent_programs",
    "progen.reduce_steps",
    "sancheck.verdict_splits",
    "sancheck.san_fn",
    "sancheck.san_fp",
];

/// Root self time above which a layer span must be missing.
pub const MAX_ROOT_SELF_PCT: f64 = 10.0;

/// Values a workload measures outside the span tree.
#[derive(Debug, Default)]
pub struct Extra {
    /// Wall time of the same work run untraced on one thread.
    pub serial_wall_s: f64,
    /// Share of the traced wall spent in the fuzzer's coverage-map calls
    /// (part of `fuzzing.self_pct`).
    pub coverage_pct: f64,
    /// Share of the traced wall the evolution's generations spent outside
    /// `evaluate`, breeding (part of `progen.generation_pct`).
    pub breed_pct: f64,
    /// Campaign wall × workers minus the serial work, as a share of
    /// campaign wall × workers: scheduling, imbalance and transport.
    pub runtime_residual_pct: f64,
}

/// Pushes every per-layer metric and gates on the root's self time.
pub fn report(out: &mut Outcome, tr: &Tracer, extra: &Extra) {
    let t = tr.totals();
    let ns = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| t.self_ns.get(n).copied().unwrap_or(0) as f64)
            .sum()
    };
    let calls = |names: &[&str]| -> u64 { names.iter().map(|n| t.calls(n)).sum() };
    let per_call = |names: &[&str], scale: f64| ns(names) / scale / calls(names).max(1) as f64;

    let wall_s = t.root_ns as f64 / 1e9;
    out.metric("trace.wall_s", wall_s, "s");
    out.metric(
        "trace.overhead",
        wall_s / extra.serial_wall_s.max(1e-9),
        "x",
    );
    for (metric, name) in SHARES {
        out.metric(metric, t.pct(name), "%");
    }
    out.metric("fuzzing.coverage_pct", extra.coverage_pct, "%");
    out.metric("progen.breed_pct", extra.breed_pct, "%");
    out.metric(
        "campaign.runtime_residual_pct",
        extra.runtime_residual_pct,
        "%",
    );

    out.metric("minc.us_per_check", per_call(&["minc.check"], 1e3), "us");
    out.metric(
        "minc_compile.us_per_compile",
        per_call(
            &["minc_compile.compile", "minc_compile.sanitized_compile"],
            1e3,
        ),
        "us",
    );
    out.metric(
        "minc_vm.us_per_translate",
        per_call(&["minc_vm.translate"], 1e3),
        "us",
    );
    out.metric("minc_vm.ns_per_exec", per_call(&EXEC_LEAVES, 1.0), "ns");
    out.metric(
        "minc_vm.exec_p50_ns",
        tr.quantile_ns(&EXEC_LEAVES, 0.5),
        "ns",
    );
    out.metric(
        "minc_vm.exec_p99_ns",
        tr.quantile_ns(&EXEC_LEAVES, 0.99),
        "ns",
    );
    out.metric(
        "minc_vm.ns_per_step",
        ns(&EXEC_LEAVES) / t.count("minc_vm.steps").max(1) as f64,
        "ns",
    );
    out.metric(
        "staticheck_ir.us_per_analysis",
        per_call(&["staticheck_ir.lint", "staticheck_ir.ubmap"], 1e3),
        "us",
    );

    for (metric, names) in CALLS {
        out.metric(metric, calls(names) as f64, "count");
    }
    for name in COUNTS {
        out.metric(name, t.count(name) as f64, "count");
    }

    let root_self = t.pct(ROOT);
    out.gate(root_self <= MAX_ROOT_SELF_PCT, || {
        format!("root span self time {root_self:.1}% exceeds {MAX_ROOT_SELF_PCT}%: a layer span is missing")
    });
}

/// Steps and timeouts of VM executions, tallied locally and recorded in
/// one go, so the hot path does not touch the tracer's maps.
#[derive(Default)]
pub struct Tally {
    steps: u64,
    timeouts: u64,
}

impl Tally {
    pub fn add(&mut self, r: &ExecResult) {
        self.steps += r.steps;
        self.timeouts += u64::from(r.status == ExitStatus::TimedOut);
    }

    pub fn record(&self, tr: &Tracer) {
        tr.count("minc_vm.steps", self.steps);
        tr.count("minc_vm.timeouts", self.timeouts);
    }
}

/// Records the page and builtin counters of finished VM sessions.
pub fn record_sessions(tr: &Tracer, sessions: impl IntoIterator<Item = SessionStats>) {
    let mut vm = SessionStats::default();
    for s in sessions {
        vm.merge(s);
    }
    tr.count("minc_vm.pages_restored", vm.pages_restored);
    tr.count("minc_vm.pages_materialized", vm.pages_materialized);
    tr.count("minc_vm.bulk_builtin_ops", vm.bulk_builtin_ops);
    tr.count("minc_vm.fallback_builtin_ops", vm.fallback_builtin_ops);
}

/// Times each differential execution as a `minc_vm.oracle_exec` leaf and
/// counts the oracle's escalations, bisections and divergences.
pub struct ExecObserver<'a> {
    tr: &'a Tracer,
    tally: &'a mut Tally,
    start: Option<Instant>,
}

impl<'a> ExecObserver<'a> {
    pub fn new(tr: &'a Tracer, tally: &'a mut Tally) -> Self {
        ExecObserver {
            tr,
            tally,
            start: None,
        }
    }
}

impl DiffObserver for ExecObserver<'_> {
    fn exec_begin(&mut self, _impl_idx: usize, _escalation_round: u32) {
        self.start = Some(Instant::now());
    }

    fn exec_end(&mut self, _impl_idx: usize, result: &ExecResult, escalation_round: u32) {
        if let Some(start) = self.start.take() {
            self.tr
                .record_leaf("minc_vm.oracle_exec", start.elapsed().as_nanos() as u64);
        }
        self.tally.add(result);
        if escalation_round > 0 {
            self.tr.count("core.escalation_reruns", 1);
        }
    }

    fn outcome(&mut self, outcome: &DiffOutcome) {
        if outcome.divergent {
            self.tr.count("core.divergent", 1);
        }
    }

    fn batch(&mut self, _size: usize, bisections: usize) {
        self.tr.count("core.bisections", bisections as u64);
    }
}
