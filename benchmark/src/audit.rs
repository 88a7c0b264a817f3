//! `sancheck_corpus`: the sanitizer meta-oracle (`sancheck::check_source`)
//! over the 23 catalog targets plus seeded `progen::generate` programs,
//! each generated program fed its first probe. Two threads share the
//! corpus, claiming programs by index.
//!
//! Sanitizer hooks, `UbSiteMap` construction and sanitized compiles
//! dominate; the fuzzer and the campaign runtime are absent.
//!
//! The traced run rebuilds `check_program` from `UbSiteMap::build`,
//! `compile_sanitized_for` and `execute_with_hooks`'s session calls, and
//! must reach the same verdicts, false negatives, false alarms and
//! verdict splits for every program.

use crate::layers::{self, Extra, Tally, ROOT};
use crate::measure::{self, Ctx, Outcome, Scale, Summary};
use crate::trace::Tracer;
use compdiff::hash64;
use minc_compile::CompilerImpl;
use minc_vm::result::Trap;
use minc_vm::{BlockProgram, ExecResult, ExecSession, ExitStatus, SanitizerKind, VmConfig};
use sancheck::{PlannedSan, SanFaultPlan, SancheckConfig, SAN_KINDS};
use sanitizers::{Asan, Msan, Ubsan};
use staticheck_ir::ubmap::{class_of_category, UbClass};
use staticheck_ir::{Certainty, UbSiteMap};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Auditing threads.
pub const WORKERS: usize = 2;

/// One program of the corpus.
struct Program {
    src: String,
    input: Vec<u8>,
    catalog: bool,
}

fn corpus(ctx: &Ctx) -> Vec<Program> {
    let generated = match ctx.scale {
        Scale::Full => 1_000,
        Scale::Smoke => 40,
    };
    let catalog = targets::catalog().into_iter().map(|spec| Program {
        src: targets::build(&spec).src,
        input: Vec::new(),
        catalog: true,
    });
    let programs = (0..generated).map(|i| {
        let g = progen::generate(&mut fuzzing::Rng::new(progen::mix(ctx.seed, i)));
        Program {
            src: g.source(),
            input: g.probes.first().cloned().unwrap_or_default(),
            catalog: false,
        }
    });
    catalog.chain(programs).collect()
}

/// What the meta-oracle concluded about one program, reduced to what the
/// benchmark compares.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Verdict {
    /// Hash of the verdict matrix, the findings and the split signatures.
    digest: u64,
    false_negatives: u64,
    false_positives: u64,
    splits: u64,
}

impl Verdict {
    fn new(
        verdicts: impl Iterator<Item = String>,
        false_negatives: usize,
        false_positives: usize,
        splits: &[String],
    ) -> Self {
        let mut s: Vec<String> = verdicts.collect();
        s.push(format!("fn={false_negatives} fp={false_positives}"));
        s.extend(splits.iter().cloned());
        Verdict {
            digest: hash64(s.join("\n").as_bytes()),
            false_negatives: false_negatives as u64,
            false_positives: false_positives as u64,
            splits: splits.len() as u64,
        }
    }
}

type Audit = Result<Verdict, String>;

fn audit(p: &Program) -> Audit {
    let cfg = SancheckConfig {
        input: p.input.clone(),
        ..SancheckConfig::default()
    };
    let r = sancheck::check_source(&p.src, &cfg).map_err(|e| e.to_string())?;
    let splits: Vec<String> = r.divergences.iter().map(|d| d.signature.clone()).collect();
    Ok(Verdict::new(
        r.verdicts
            .iter()
            .map(|v| format!("{} {} {}", v.impl_id, v.kind, v.verdict())),
        r.false_negatives.len(),
        r.false_positives.len(),
        &splits,
    ))
}

/// Audits the whole corpus on `threads` threads. Threads claim the next
/// few programs by index as they go, so one slowed thread does not hold
/// up the pass; each result lands at its program's index.
fn audit_all(corpus: &[Program], threads: usize) -> Vec<Audit> {
    const CLAIM: usize = 4;
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<Audit>> = (0..corpus.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let start = next.fetch_add(CLAIM, Ordering::Relaxed);
                        if start >= corpus.len() {
                            return done;
                        }
                        let end = (start + CLAIM).min(corpus.len());
                        done.extend((start..end).map(|i| (i, audit(&corpus[i]))));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, a) in h.join().expect("an audit thread panicked") {
                results[i] = Some(a);
            }
        }
    });
    results
        .into_iter()
        .map(|a| a.expect("every index is audited"))
        .collect()
}

/// The catalog subset must have no sanitizer false negatives or alarms.
fn check_catalog(out: &mut Outcome, corpus: &[Program], audits: &[Audit]) {
    for (i, a) in audits
        .iter()
        .enumerate()
        .filter(|&(i, _)| corpus[i].catalog)
    {
        let clean = matches!(a, Ok(v) if v.false_negatives == 0 && v.false_positives == 0);
        out.gate(clean, || {
            format!("catalog program {i} audit is not clean: {a:?}")
        });
    }
}

/// The end-to-end run: whole passes over the corpus until the time is up,
/// each after a timed rebuild of the corpus (the set-up). Every pass must
/// reach the first pass's verdicts.
///
/// `check_source` has no set-up of its own, so the workload's set-up is
/// building its corpus: `targets::build` of the catalog targets and the
/// `progen::generate` programs.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let corpus = corpus(ctx);
    let mut out = Outcome::default();
    let rounds = measure::rounds(
        ctx.seconds,
        1,
        |_| {
            std::hint::black_box(self::corpus(ctx));
            Ok(())
        },
        |_| Ok(audit_all(&corpus, WORKERS)),
        |i, audits| {
            if i == 0 {
                check_catalog(&mut out, &corpus, &audits);
            }
            summary(&audits)
        },
    )?;
    measure::report(&mut out, &rounds, 1);
    Ok(out)
}

fn summary(audits: &[Audit]) -> Summary {
    let failed = audits.iter().filter(|a| a.is_err()).count() as u64;
    Summary {
        items: audits.len() as u64,
        attempted: audits.len() as u64,
        failed,
        digest: hash64(format!("{audits:?}").as_bytes()),
    }
}

/// The traced run: one pass as measured end to end, the same pass on one
/// thread (the serial reference), and the traced serial replica.
pub fn trace(ctx: &Ctx) -> Result<Outcome, String> {
    let corpus = corpus(ctx);
    let e2e = audit_all(&corpus, WORKERS);
    let t = Instant::now();
    let serial = audit_all(&corpus, 1);
    let serial_s = t.elapsed().as_secs_f64();

    let tr = Tracer::new();
    let replica: Vec<Audit> = tr.span(ROOT, || {
        corpus
            .iter()
            .map(|p| tr.span("sancheck.audit", || replicate(&tr, p)))
            .collect()
    });

    let mut out = Outcome {
        attempted: e2e.len() as u64,
        failed: e2e.iter().filter(|a| a.is_err()).count() as u64,
        ..Outcome::default()
    };
    check_catalog(&mut out, &corpus, &e2e);
    out.gate(serial == e2e, || {
        "the one-thread pass reached different verdicts".to_string()
    });
    out.gate(replica == e2e, || {
        "the traced replica reached different verdicts".to_string()
    });
    let ok = replica.iter().flatten();
    tr.count(
        "sancheck.verdict_splits",
        ok.clone().map(|v| v.splits).sum(),
    );
    tr.count(
        "sancheck.san_fn",
        ok.clone().map(|v| v.false_negatives).sum(),
    );
    tr.count("sancheck.san_fp", ok.map(|v| v.false_positives).sum());
    let extra = Extra {
        serial_wall_s: serial_s,
        ..Extra::default()
    };
    layers::report(&mut out, &tr, &extra);
    tr.save("sancheck_corpus")?;
    Ok(out)
}

/// `sancheck::check_source` rebuilt from its public parts. The span
/// around this call is left with the judging: false negatives, false
/// alarms and verdict splits.
fn replicate(tr: &Tracer, p: &Program) -> Audit {
    let checked = tr
        .span("minc.check", || minc::check(&p.src))
        .map_err(|e| e.to_string())?;
    let src_hash = hash64(p.src.as_bytes());
    let cfg = SancheckConfig::default();
    let map = tr.span("staticheck_ir.ubmap", || {
        UbSiteMap::build(&checked, &cfg.impls)
    });

    // One sanitized build per impl, three sanitizer runs each; every run
    // is a fresh session, as `execute_with_hooks` makes.
    let mut verdicts: Vec<(CompilerImpl, SanitizerKind, ExecResult)> = Vec::new();
    let mut tally = Tally::default();
    let mut sessions = Vec::new();
    for &impl_id in &cfg.impls {
        let bin = tr.span("minc_compile.sanitized_compile", || {
            sancheck::compile_sanitized_for(&checked, impl_id)
        });
        for kind in SAN_KINDS {
            let prog = Arc::new(tr.span("minc_vm.translate", || BlockProgram::translate(&bin)));
            tr.count("minc_vm.blocks", prog.block_count() as u64);
            // The session is made inside the leaf: `execute_with_hooks`
            // pays for it on every run.
            let (r, stats) = tr.leaf("sanitizers.run", || {
                let mut session = ExecSession::new(&bin);
                session.set_block_program(prog);
                let r = run_sanitizer(&mut session, &bin, &p.input, &cfg.vm, kind, &cfg.fault_plan);
                (r, session.stats())
            });
            sessions.push(stats);
            tally.add(&r);
            verdicts.push((impl_id, kind, r));
        }
    }
    tally.record(tr);
    layers::record_sessions(tr, sessions);
    let fired = |r: &ExecResult| match &r.status {
        ExitStatus::Sanitizer(f) => Some(f.clone()),
        _ => None,
    };
    let verdict = |r: &ExecResult| match fired(r) {
        Some(f) => format!("fired:{}", f.category),
        None => "silent".to_string(),
    };

    // False negatives: silence on a must-site in scope.
    let mut false_negatives = 0;
    for (_, kind, r) in &verdicts {
        if fired(r).is_some() {
            continue;
        }
        for &class in sancheck::scope(*kind) {
            let must = map
                .sites
                .iter()
                .any(|s| s.class == class && s.certainty == Certainty::Must);
            if must && fn_judgeable(&r.status, class) {
                false_negatives += 1;
            }
        }
    }
    // False alarms: a fired class the map refutes.
    let false_positives = verdicts
        .iter()
        .filter_map(|(_, _, r)| fired(r))
        .filter_map(|f| class_of_category(&f.category))
        .filter(|&class| map.refutes(class))
        .count();
    // Splits: per sanitizer, implementations grouped by verdict.
    let mut splits = Vec::new();
    for kind in SAN_KINDS {
        let mut groups: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (impl_id, _, r) in verdicts.iter().filter(|v| v.1 == kind) {
            groups
                .entry(verdict(r))
                .or_default()
                .push(impl_id.to_string());
        }
        if groups.len() > 1 {
            let parts: Vec<String> = groups
                .iter_mut()
                .map(|(v, impls)| {
                    impls.sort();
                    format!("{}@{v}", impls.join("+"))
                })
                .collect();
            let base = format!("p{src_hash:016x}|san:{kind}|{}", parts.join(" | "));
            splits.push(format!("s{:016x}|{base}", hash64(base.as_bytes())));
        }
    }
    Ok(Verdict::new(
        verdicts
            .iter()
            .map(|(impl_id, kind, r)| format!("{impl_id} {kind} {}", verdict(r))),
        false_negatives,
        false_positives,
        &splits,
    ))
}

fn run_sanitizer(
    session: &mut ExecSession,
    bin: &minc_compile::Binary,
    input: &[u8],
    vm: &VmConfig,
    kind: SanitizerKind,
    plan: &SanFaultPlan,
) -> ExecResult {
    match kind {
        SanitizerKind::Asan => session.run_with_hooks(
            bin,
            input,
            vm,
            &mut PlannedSan::new(Asan::new(), kind, plan.clone()),
        ),
        SanitizerKind::Ubsan => session.run_with_hooks(
            bin,
            input,
            vm,
            &mut PlannedSan::new(Ubsan::new(), kind, plan.clone()),
        ),
        SanitizerKind::Msan => session.run_with_hooks(
            bin,
            input,
            vm,
            &mut PlannedSan::new(Msan::new(), kind, plan.clone()),
        ),
    }
}

/// sancheck's rule for when a silent sanitizer can be blamed: the run
/// must have reached the site.
fn fn_judgeable(status: &ExitStatus, class: UbClass) -> bool {
    match status {
        ExitStatus::Code(_) => true,
        ExitStatus::Trapped(Trap::Sigfpe) => {
            matches!(class, UbClass::DivByZero | UbClass::SignedOverflow)
        }
        ExitStatus::Trapped(Trap::Segv) => class == UbClass::NullDeref,
        _ => false,
    }
}
