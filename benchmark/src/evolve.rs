//! `progen_evolve`: evolutionary program generation plus witness
//! reduction, as `compdiff progen evolve` runs it — `EvolveState::new`,
//! `run_generations`, then `progen::reduce` on every distinct find.
//!
//! The frontend, the ten compiles, the logged optimizer pipelines, the
//! unstable-code lint and the reducer's oracle calls dominate; the fuzzer
//! and the campaign runtime are absent.
//!
//! The traced run calls the real `run_generations` one generation at a
//! time, each under a span, and then replays `evaluate`'s layer calls on
//! the population that generation started from, each layer under its own
//! span. Breeding is the residual: the generation's time minus the
//! replayed evaluations'.

use crate::layers::{self, ExecObserver, Extra, Tally, ROOT};
use crate::measure::{self, Ctx, Outcome, Scale, Summary};
use crate::trace::Tracer;
use compdiff::{hash64, signature_with_hash, CompDiff, DiffConfig};
use minc_compile::{Binary, CompilerImpl};
use minc_vm::{BlockProgram, ExecSession};
use progen::{EvolveConfig, EvolveState, ReduceOutcome};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

struct Plan {
    population: usize,
    generations: u32,
    /// Distinct evolution seeds a run cycles through.
    inputs: usize,
}

fn plan(scale: Scale) -> Plan {
    match scale {
        Scale::Full => Plan {
            population: 16,
            generations: 2,
            inputs: 8,
        },
        Scale::Smoke => Plan {
            population: 4,
            generations: 1,
            inputs: 1,
        },
    }
}

/// Round `round` evolves from the seed of input `round % inputs`, derived
/// from the workload seed.
fn evolve_config(seed: u64, round: usize, plan: &Plan) -> EvolveConfig {
    EvolveConfig {
        seed: progen::mix(seed, (round % plan.inputs) as u64),
        population: plan.population,
    }
}

/// One evolution and the reduction of its finds.
struct Round {
    state: EvolveState,
    evaluated: u64,
    reduced: Vec<Result<ReduceOutcome, String>>,
}

impl Round {
    fn summary(&self, plan: &Plan) -> Summary {
        let reduced = self.reduced.iter().flatten();
        let attempted =
            u64::from(plan.generations) * plan.population as u64 + self.reduced.len() as u64;
        Summary {
            items: self.evaluated + reduced.clone().map(|o| o.steps).sum::<u64>(),
            attempted,
            failed: attempted - self.evaluated - reduced.count() as u64,
            digest: self.digest(),
        }
    }

    /// Everything the round produced, for comparing repetitions and the
    /// traced replica.
    fn digest(&self) -> u64 {
        let mut s = String::new();
        for (src, _) in &self.state.population {
            s.push_str(src);
        }
        for d in &self.state.divergents {
            s.push_str(&d.signature);
        }
        for r in &self.reduced {
            match r {
                Ok(o) => s.push_str(&format!("{}{}{}", o.source, o.steps, o.signature)),
                Err(e) => s.push_str(e),
            }
        }
        hash64(s.as_bytes())
    }
}

fn evolve_round(cfg: &EvolveConfig, generations: u32) -> Round {
    let mut state = EvolveState::new(cfg);
    let records = progen::run_generations(&mut state, generations, |_| {});
    let evaluated = records.iter().map(|r| r.evaluated as u64).sum();
    let reduced = state
        .divergents
        .iter()
        .map(|d| progen::reduce(&d.source, &d.probe))
        .collect();
    Round {
        state,
        evaluated,
        reduced,
    }
}

/// Every find re-diverges on its probe, and every reduced witness still
/// splits its witness pair.
fn check_finds(out: &mut Outcome, round: &Round) {
    for (d, r) in round.state.divergents.iter().zip(&round.reduced) {
        let diverges = CompDiff::from_source_default(&d.source, DiffConfig::default())
            .is_ok_and(|diff| diff.run_input(&d.probe).divergent);
        out.gate(diverges, || {
            format!("find {} no longer diverges", d.signature)
        });
        if let Ok(o) = r {
            let splits =
                CompDiff::from_source_default(&o.source, DiffConfig::default()).is_ok_and(|diff| {
                    let oc = diff.run_input(&d.probe);
                    oc.divergent && oc.hashes[o.witness_pair.0] != oc.hashes[o.witness_pair.1]
                });
            out.gate(splits, || {
                format!("reduced witness {} no longer splits its pair", o.signature)
            });
        }
    }
}

/// The end-to-end run: evolutions cycling through the run's seeds until
/// the time is up, each after a timed `EvolveState::new` of its seed (the
/// set-up). Every find and witness of the
/// first cycle is re-checked, and a repeated seed must reproduce its
/// first evolution exactly.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let plan = plan(ctx.scale);
    let mut out = Outcome::default();
    let rounds = measure::rounds(
        ctx.seconds,
        plan.inputs,
        |k| {
            std::hint::black_box(EvolveState::new(&evolve_config(ctx.seed, k, &plan)));
            Ok(())
        },
        |r| {
            Ok(evolve_round(
                &evolve_config(ctx.seed, r, &plan),
                plan.generations,
            ))
        },
        |r, round| {
            if r < plan.inputs {
                check_finds(&mut out, &round);
            }
            round.summary(&plan)
        },
    )?;
    measure::report(&mut out, &rounds, plan.inputs);
    Ok(out)
}

/// The traced run: one cycle of the run's evolutions as measured end to
/// end (already serial), then the same evolutions traced, which must
/// reach the same states and the same reductions.
pub fn trace(ctx: &Ctx) -> Result<Outcome, String> {
    let plan = plan(ctx.scale);
    let cfgs: Vec<EvolveConfig> = (0..plan.inputs)
        .map(|k| evolve_config(ctx.seed, k, &plan))
        .collect();
    let t = Instant::now();
    let e2e: Vec<Round> = cfgs
        .iter()
        .map(|cfg| evolve_round(cfg, plan.generations))
        .collect();
    let e2e_s = t.elapsed().as_secs_f64();

    let mut out = Outcome::default();
    let tr = Tracer::new();
    let mut breed_ns = 0;
    let replicas: Vec<Round> = tr.span(ROOT, || {
        cfgs.iter()
            .map(|cfg| {
                let (round, ns) = replicate_round(&tr, cfg, plan.generations, &mut out);
                breed_ns += ns;
                round
            })
            .collect()
    });

    for (i, (e, r)) in e2e.iter().zip(&replicas).enumerate() {
        let summary = e.summary(&plan);
        out.attempted += summary.attempted;
        out.failed += summary.failed;
        check_finds(&mut out, e);
        out.gate(r.digest() == e.digest(), || {
            format!("the traced replica of evolution {i} differs from the measured one")
        });
        tr.count("progen.divergent_programs", r.state.divergents.len() as u64);
        tr.count(
            "progen.reduce_steps",
            r.reduced.iter().flatten().map(|o| o.steps).sum(),
        );
    }
    let extra = Extra {
        serial_wall_s: e2e_s,
        breed_pct: 100.0 * breed_ns as f64 / tr.totals().root_ns.max(1) as f64,
        ..Extra::default()
    };
    layers::report(&mut out, &tr, &extra);
    tr.save("progen_evolve")?;
    Ok(out)
}

/// `evolve_round` traced: `EvolveState::new` and each real generation
/// under a `progen.generation` span, each generation's evaluations then
/// replayed layer by layer on the population it started from, and each
/// reduction under a span. Returns the round and the generations' time
/// outside `evaluate` (breeding), in ns.
fn replicate_round(
    tr: &Tracer,
    cfg: &EvolveConfig,
    generations: u32,
    out: &mut Outcome,
) -> (Round, u64) {
    let t = Instant::now();
    let mut state = tr.span("progen.generation", || EvolveState::new(cfg));
    let mut breed_ns = t.elapsed().as_nanos() as u64;
    let mut evaluated = 0;
    for _ in 0..generations {
        let population = state.population.clone();
        let seen = state.seen_signatures.clone();
        let t = Instant::now();
        let records = tr.span("progen.generation", || {
            progen::run_generations(&mut state, 1, |_| {})
        });
        let generation_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let replay: Vec<Option<Option<String>>> = population
            .iter()
            .map(|(src, probes)| tr.span("progen.evaluate", || evaluate(tr, src, probes)))
            .collect();
        breed_ns += generation_ns.saturating_sub(t.elapsed().as_nanos() as u64);

        // The replay must see what the generation saw: the same programs
        // evaluated and the same new divergence signatures.
        let record = &records[0];
        evaluated += record.evaluated as u64;
        out.gate(replay.iter().flatten().count() == record.evaluated, || {
            format!(
                "generation {}: the replay evaluated a different number of programs",
                record.generation
            )
        });
        let found: BTreeSet<&String> = state.seen_signatures.difference(&seen).collect();
        let replayed: BTreeSet<&String> = replay
            .iter()
            .flatten()
            .flatten()
            .filter(|s| !seen.contains(*s))
            .collect();
        out.gate(found == replayed, || {
            format!(
                "generation {}: the replay found different divergences",
                record.generation
            )
        });
    }
    let reduced = state
        .divergents
        .iter()
        .map(|d| tr.span("progen.reduce", || progen::reduce(&d.source, &d.probe)))
        .collect();
    let round = Round {
        state,
        evaluated,
        reduced,
    };
    (round, breed_ns)
}

/// `progen::evaluate`'s layer calls, each under its own span: the check
/// and ten compiles of `CompDiff::from_source_default`, the block
/// translations, the batched oracle sweep, the second check, the ten
/// logged optimizer pipelines and the lint. Scoring is left to the real
/// generation. Returns the signature of the first divergent probe, or
/// `None` when the source does not check (the loop skips such programs).
fn evaluate(tr: &Tracer, src: &str, probes: &[Vec<u8>]) -> Option<Option<String>> {
    let checked = tr.span("minc.check", || minc::check(src)).ok()?;
    let binaries: Vec<Binary> = CompilerImpl::default_set()
        .into_iter()
        .map(|ci| {
            tr.span("minc_compile.compile", || {
                minc_compile::compile(&checked, ci)
            })
        })
        .collect();
    let diff = CompDiff::new(binaries, DiffConfig::default()).with_src_hash(hash64(src.as_bytes()));
    let mut sessions = diff.make_sessions();
    for (s, b) in sessions.iter_mut().zip(diff.binaries()) {
        let prog = tr.span("minc_vm.translate", || BlockProgram::translate(b));
        tr.count("minc_vm.blocks", prog.block_count() as u64);
        s.set_block_program(Arc::new(prog));
    }
    let mut tally = Tally::default();
    let outcomes = tr.span("core.oracle", || {
        diff.run_batch_observed(
            &mut sessions,
            probes,
            &mut ExecObserver::new(tr, &mut tally),
        )
    });
    tally.record(tr);
    layers::record_sessions(tr, sessions.iter().map(ExecSession::stats));
    let signature = outcomes
        .iter()
        .find(|o| o.divergent)
        .map(|o| signature_with_hash(diff.src_hash(), &diff.impls(), o));

    let checked = tr.span("minc.check", || minc::check(src)).ok()?;
    for ci in CompilerImpl::default_set() {
        std::hint::black_box(tr.span("minc_compile.optimize_logged", || {
            minc_compile::optimize_logged(&checked, ci)
        }));
    }
    std::hint::black_box(tr.span("staticheck_ir.lint", || {
        staticheck_ir::UnstableLint::new().run(&checked)
    }));
    Some(signature)
}
