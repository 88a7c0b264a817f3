//! `catalog_threads` and `catalog_procs`: whole campaigns over the 23
//! catalog targets, through `campaign::run`.
//!
//! Both run the same layers. The thread workload hands out coarse jobs
//! (4 shards a target) to in-process workers; the process workload leases
//! fine-grained jobs (16 shards a target) to worker processes over JSON
//! frames and fsyncs a checkpoint record per job. A scheduler or transport
//! change that helps one and hurts the other shows up as a split between
//! them.
//!
//! The traced run replays a campaign serially through the public pieces
//! `campaign::run` is made of: the pre-fuzz lint, the binary cache's
//! compile and translate, and each job's `Fuzzer` with a
//! `DiffOracle`-equivalent over `run_batch_observed` and `DiffStore`.

use crate::layers::{self, ExecObserver, Extra, Tally, ROOT};
use crate::measure::{self, Ctx, Outcome, Scale, Summary};
use crate::trace::Tracer;
use campaign::{CampaignConfig, CampaignHeader, CampaignState, CampaignStats, CompiledTarget};
use campaign::{JobRecord, TargetStats};
use compdiff::{hash64, CompDiff, DiffOutcome, DiffStore};
use fuzzing::{BinaryTarget, CoverageMap, FuzzConfig, Fuzzer, GlobalCoverage, Oracle, TargetExec};
use minc_compile::{Binary, CompilerImpl};
use minc_vm::{BlockProgram, ExecResult, ExecSession};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Worker threads (`catalog_threads`) or processes (`catalog_procs`).
pub const WORKERS: usize = 2;

/// The campaigns of one run: the same configuration under `period`
/// seeds derived from the workload seed.
fn configs(ctx: &Ctx, procs: bool) -> Result<Vec<CampaignConfig>, String> {
    let (execs_per_target, shards_per_target, period) = match (ctx.scale, procs) {
        (Scale::Full, false) => (2_000, 4, 3),
        (Scale::Full, true) => (1_600, 16, 3),
        (Scale::Smoke, false) => (48, 2, 1),
        (Scale::Smoke, true) => (48, 4, 1),
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let cfg = CampaignConfig {
        workers: WORKERS,
        execs_per_target,
        shards_per_target,
        batch_size: 16,
        workers_proc: procs.then_some(WORKERS),
        worker_exe: Some(exe),
        ..CampaignConfig::default()
    };
    Ok((0..period)
        .map(|k| CampaignConfig {
            seed: progen::mix(ctx.seed, k),
            ..cfg.clone()
        })
        .collect())
}

/// What one campaign produced.
struct Round {
    per_target: BTreeMap<String, TargetStats>,
    execs: u64,
    attempts: u64,
    failures: u64,
}

impl Round {
    fn summary(&self) -> Summary {
        Summary {
            items: self.execs,
            attempted: self.attempts,
            failed: self.failures,
            digest: hash64(format!("{:?}", self.per_target).as_bytes()),
        }
    }
}

/// One `campaign::run`, with a checkpoint in a fresh directory when
/// `checkpoint` is set.
fn run_campaign(cfg: &CampaignConfig, checkpoint: bool) -> Result<Round, String> {
    let mut cfg = cfg.clone();
    if checkpoint {
        cfg.checkpoint_dir = Some(measure::fresh_dir("checkpoint")?);
    }
    let report = campaign::run(&cfg).map_err(|e| e.to_string());
    if let Some(dir) = &cfg.checkpoint_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let stats = report?.stats;
    Ok(Round {
        execs: stats.execs,
        attempts: stats.jobs_done as u64 + stats.failures,
        failures: stats.failures,
        per_target: stats.per_target,
    })
}

/// The end-to-end run: whole campaigns cycling through the run's seeds
/// until the time is up, each after a timed zero-budget campaign of the
/// same configuration (its set-up: lint pass, compiles, translations,
/// worker spawn). A repeated seed must reproduce its first campaign
/// exactly, target by target (the digest of the per-target results).
pub fn run(ctx: &Ctx, procs: bool) -> Result<Outcome, String> {
    let cfgs = configs(ctx, procs)?;
    let period = cfgs.len();
    let setup = |k: usize| {
        let zero_budget = CampaignConfig {
            execs_per_target: 0,
            ..cfgs[k].clone()
        };
        run_campaign(&zero_budget, procs).map(drop)
    };
    let rounds = measure::rounds(
        ctx.seconds,
        period,
        setup,
        |r| run_campaign(&cfgs[r % period], procs),
        |_, round| round.summary(),
    )?;
    let mut out = Outcome::default();
    measure::report(&mut out, &rounds, period);
    Ok(out)
}

/// The traced run: one campaign as measured end to end, the same campaign
/// on one in-process worker (the serial reference), and the traced serial
/// replica, which must reproduce the campaign target by target.
pub fn trace(ctx: &Ctx, procs: bool) -> Result<Outcome, String> {
    let cfg = configs(ctx, procs)?.swap_remove(0);
    let t = Instant::now();
    let e2e = run_campaign(&cfg, procs)?;
    let e2e_s = t.elapsed().as_secs_f64();
    let serial_cfg = CampaignConfig {
        workers: 1,
        workers_proc: None,
        ..cfg.clone()
    };
    let t = Instant::now();
    let serial = run_campaign(&serial_cfg, procs)?;
    let serial_s = t.elapsed().as_secs_f64();

    let tr = Tracer::new();
    let replica = tr.span(ROOT, || replicate(&tr, &cfg, procs))?;

    let mut out = Outcome {
        attempted: e2e.attempts,
        failed: e2e.failures,
        ..Outcome::default()
    };
    out.gate(serial.per_target == e2e.per_target, || {
        "the one-worker campaign differs from the measured campaign".to_string()
    });
    out.gate(replica == e2e.per_target, || {
        "the traced replica differs from the measured campaign".to_string()
    });
    let totals = tr.totals();
    let workers_s = e2e_s * WORKERS as f64;
    let extra = Extra {
        serial_wall_s: serial_s,
        coverage_pct: coverage_ns_per_exec() * totals.calls("minc_vm.fuzz_exec") as f64
            / totals.root_ns.max(1) as f64
            * 100.0,
        runtime_residual_pct: 100.0 * (workers_s - serial_s) / workers_s,
        ..Extra::default()
    };
    layers::report(&mut out, &tr, &extra);
    tr.save(if procs {
        "catalog_procs"
    } else {
        "catalog_threads"
    })?;
    Ok(out)
}

/// `campaign::run` rebuilt serially from its public parts, with spans.
fn replicate(
    tr: &Tracer,
    cfg: &CampaignConfig,
    checkpoint: bool,
) -> Result<BTreeMap<String, TargetStats>, String> {
    let targets = cfg.source.get().targets();
    // The campaign's pre-fuzz lint pass.
    let lint = staticheck_ir::UnstableLint::new();
    for t in &targets {
        if let Ok(checked) = tr.span("minc.check", || minc::check(&t.src)) {
            std::hint::black_box(tr.span("staticheck_ir.lint", || lint.run(&checked)));
        }
    }

    let dir = if checkpoint {
        Some(measure::fresh_dir("trace-checkpoint")?)
    } else {
        None
    };
    let result = replicate_jobs(tr, cfg, &targets, dir.as_deref());
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    result
}

fn replicate_jobs(
    tr: &Tracer,
    cfg: &CampaignConfig,
    targets: &[targets::Target],
    checkpoint: Option<&Path>,
) -> Result<BTreeMap<String, TargetStats>, String> {
    let mut state = match checkpoint {
        Some(dir) => {
            let header = CampaignHeader {
                seed: cfg.seed,
                execs_per_target: cfg.execs_per_target,
                shards_per_target: cfg.shards_per_target,
                targets: targets.iter().map(|t| t.spec.name.clone()).collect(),
            };
            Some(CampaignState::create(dir, &header).map_err(|e| e.to_string())?)
        }
        None => None,
    };
    let mut stats = CampaignStats::new(1, targets.len() * cfg.shards_per_target as usize);
    for t in targets {
        let ct = tr.span("campaign.setup", || compile_target(tr, t, cfg))?;
        for shard in 0..cfg.shards_per_target {
            let rec = tr.span("campaign.job", || run_job(tr, &ct, cfg, shard));
            if let Some(st) = state.as_mut() {
                tr.span("campaign.checkpoint_append", || st.append_job(rec.clone()))
                    .map_err(|e| e.to_string())?;
                tr.span("campaign.checkpoint_sync", || st.sync())
                    .map_err(|e| e.to_string())?;
            }
            stats.absorb(Some(0), &rec);
        }
    }
    tr.count("core.unique_signatures", stats.signatures.len() as u64);
    Ok(stats.per_target)
}

/// `BinaryCache::get_or_compile`'s body: check, ten differential
/// binaries plus the fuzz binary, and their block translations.
fn compile_target(
    tr: &Tracer,
    t: &targets::Target,
    cfg: &CampaignConfig,
) -> Result<CompiledTarget, String> {
    let checked = tr
        .span("minc.check", || minc::check(&t.src))
        .map_err(|e| format!("{}: {e}", t.spec.name))?;
    let compile = |ci| {
        tr.span("minc_compile.compile", || {
            minc_compile::compile(&checked, ci)
        })
    };
    let binaries: Vec<Binary> = CompilerImpl::default_set()
        .into_iter()
        .map(compile)
        .collect();
    let fuzz_binary = compile(cfg.fuzz_impl);
    let translate = |b: &Binary| {
        let prog = tr.span("minc_vm.translate", || BlockProgram::translate(b));
        tr.count("minc_vm.blocks", prog.block_count() as u64);
        Arc::new(prog)
    };
    let diff_blocks = binaries.iter().map(translate).collect();
    let fuzz_blocks = translate(&fuzz_binary);
    Ok(CompiledTarget {
        name: t.spec.name.clone(),
        diff: CompDiff::new(binaries, cfg.diff_config.clone())
            .with_src_hash(hash64(t.src.as_bytes())),
        fuzz_binary,
        seeds: t.seeds.clone(),
        magic: t.spec.magic,
        diff_blocks,
        fuzz_blocks,
    })
}

/// `campaign::scheduler::run_job`'s body with a traced fuzz target and
/// oracle.
fn run_job(tr: &Tracer, ct: &CompiledTarget, cfg: &CampaignConfig, shard: u32) -> JobRecord {
    let seed = campaign::job_seed(cfg.seed, &ct.name, shard);
    let max_execs = campaign::execs_for_shard(cfg.execs_per_target, cfg.shards_per_target, shard);
    let mut seeds: Vec<Vec<u8>> = ct
        .seeds
        .iter()
        .skip(shard as usize)
        .step_by(cfg.shards_per_target.max(1) as usize)
        .cloned()
        .collect();
    if seeds.is_empty() {
        seeds = ct.seeds.clone();
    }

    let mut store = DiffStore::new();
    let mut sessions = ct.diff_sessions();
    let mut fuzz_target = BinaryTarget::new(&ct.fuzz_binary, cfg.diff_config.vm.clone())
        .with_block_program(Arc::clone(&ct.fuzz_blocks));
    let (mut fuzz_tally, mut oracle_tally) = (Tally::default(), Tally::default());
    let (mut oracle_execs, mut divergent) = (0u64, 0u64);
    let stats = tr.span("fuzzing.run", || {
        Fuzzer::new(
            TracedTarget {
                tr,
                inner: &mut fuzz_target,
                tally: &mut fuzz_tally,
            },
            TracedOracle {
                tr,
                diff: &ct.diff,
                sessions: &mut sessions,
                store: &mut store,
                oracle_execs: &mut oracle_execs,
                divergent: &mut divergent,
                tally: &mut oracle_tally,
            },
            FuzzConfig {
                max_execs,
                seed,
                max_input_len: cfg.max_input_len,
                deterministic: true,
                dictionary: vec![ct.magic.to_vec()],
                batch_size: cfg.batch_size,
            },
        )
        .run(&seeds)
    });

    fuzz_tally.record(tr);
    oracle_tally.record(tr);
    let stats_of = sessions.iter().map(ExecSession::stats);
    layers::record_sessions(tr, stats_of.chain([fuzz_target.session_stats()]));
    tr.count("fuzzing.corpus_len", stats.corpus_len as u64);
    tr.count("fuzzing.edges", stats.edges as u64);

    let signatures: BTreeSet<String> = store
        .reports()
        .iter()
        .map(|d| d.signature.clone())
        .collect();
    JobRecord {
        target: ct.name.clone(),
        shard,
        execs: stats.execs,
        oracle_execs,
        divergent,
        crashes: stats.crashes.len() as u64,
        signatures: signatures.into_iter().collect(),
    }
}

/// The fuzz binary's target, timing each execution as a leaf.
struct TracedTarget<'a, 'b> {
    tr: &'a Tracer,
    inner: &'a mut BinaryTarget<'b>,
    tally: &'a mut Tally,
}

impl TargetExec for TracedTarget<'_, '_> {
    fn run(&mut self, input: &[u8], map: &mut CoverageMap) -> ExecResult {
        let r = self
            .tr
            .leaf("minc_vm.fuzz_exec", || self.inner.run(input, map));
        self.tally.add(&r);
        r
    }
}

/// The campaign's `DiffOracle`, with the batched sweep as a span, each
/// differential execution as a leaf, and dedup as a span.
struct TracedOracle<'a> {
    tr: &'a Tracer,
    diff: &'a CompDiff,
    sessions: &'a mut [ExecSession],
    store: &'a mut DiffStore,
    oracle_execs: &'a mut u64,
    divergent: &'a mut u64,
    tally: &'a mut Tally,
}

impl TracedOracle<'_> {
    fn verdict(&mut self, outcome: &DiffOutcome, input: &[u8]) -> bool {
        if outcome.divergent {
            *self.divergent += 1;
            self.tr.span("core.dedup", || {
                self.store.record(self.diff, outcome, input)
            });
            return true;
        }
        outcome.unresolved_timeout
    }
}

impl Oracle for TracedOracle<'_> {
    fn examine(&mut self, input: &[u8], _result: &ExecResult) -> bool {
        let mut obs = ExecObserver::new(self.tr, self.tally);
        let outcome = self.tr.span("core.oracle", || {
            self.diff.run_input_observed(self.sessions, input, &mut obs)
        });
        *self.oracle_execs += self.diff.binaries().len() as u64;
        self.verdict(&outcome, input)
    }

    fn examine_batch(&mut self, items: &[(Vec<u8>, ExecResult)]) -> Vec<bool> {
        let inputs: Vec<&[u8]> = items.iter().map(|(i, _)| i.as_slice()).collect();
        let mut obs = ExecObserver::new(self.tr, self.tally);
        let outcomes = self.tr.span("core.oracle", || {
            self.diff
                .run_batch_observed(self.sessions, &inputs, &mut obs)
        });
        *self.oracle_execs += (self.diff.binaries().len() * items.len()) as u64;
        outcomes
            .iter()
            .zip(&inputs)
            .map(|(outcome, input)| self.verdict(outcome, input))
            .collect()
    }
}

/// The cost of the three coverage-map calls the fuzzer makes per
/// execution (`reset`, `count_edges`, `GlobalCoverage::merge`), each a
/// full scan of the 64 KiB map.
fn coverage_ns_per_exec() -> f64 {
    const N: u32 = 2_000;
    let mut map = CoverageMap::new();
    let mut global = GlobalCoverage::new();
    let t = Instant::now();
    for _ in 0..N {
        map.reset();
        std::hint::black_box(map.count_edges());
        std::hint::black_box(global.merge(&map));
    }
    t.elapsed().as_nanos() as f64 / f64::from(N)
}
