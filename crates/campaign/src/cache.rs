//! The shared binary cache: each target's ten differential binaries are
//! compiled and translated exactly once per campaign and shared by every
//! worker through `Arc`s. The fuzz binary is one of them (the oracle's
//! `fuzz_impl` build); coverage hooks attach to it at run time. One
//! shared build (`minc_compile::compile_all`: one lowering and one prefix
//! tree of passes per family) makes the ten binaries and the rewrite logs
//! that feed the target's unstable-code lint, so the cache hands out a
//! [`LintTally`] with the binaries.
//!
//! Without this, every (target × seed-shard) job would recompile the full
//! implementation set — `CompDiff::from_source_default` pays the frontend
//! plus ten backend pipelines per call, which dominates short shards.
//!
//! Compiles run inside `catch_unwind`: a panic in the compiler pipeline
//! (a bug in one backend, or an injected fault) surfaces as
//! [`CacheError::Panic`] on *this* lookup and leaves the slot empty, so
//! the campaign can quarantine just that target — and a retry recompiles
//! from scratch — instead of poisoning the slot mutex and wedging every
//! later worker that touches the target.

use crate::faults::{panic_message, FaultKind, FaultPlan};
use crate::CampaignTelemetry;
use compdiff::{hash64, CompDiff, DiffConfig};
use minc::FrontendError;
use minc_compile::{Binary, CompilerImpl};
use minc_vm::BlockProgram;
use staticheck::Defect;
use staticheck_ir::{LintFinding, UnstableLint};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use targets::Target;
use telemetry::{Counter, Telemetry};

/// One target, fully compiled: the differential engine over the ten
/// implementations plus the fuzz binary, which is the engine's
/// `fuzz_impl` build. Immutable after construction, so safely shared
/// across workers.
#[derive(Debug)]
pub struct CompiledTarget {
    /// Target name (catalog key).
    pub name: String,
    /// The differential engine (owns the `k` binaries).
    pub diff: CompDiff,
    /// The fuzz binary (B_fuzz): a clone, same `uid`, of the engine's
    /// `fuzz_impl` binary. Coverage hooks are attached when it runs.
    pub fuzz_binary: Binary,
    /// Fuzzing seed inputs.
    pub seeds: Vec<Vec<u8>>,
    /// The format's 2-byte magic (fed to the fuzzer as a dictionary token).
    pub magic: [u8; 2],
    /// Block translations of the differential binaries (indexed like
    /// `diff.binaries()`), done once at compile time and shared with every
    /// session any worker creates.
    pub diff_blocks: Vec<Arc<BlockProgram>>,
    /// Block translation of the fuzz binary: the same `Arc` as its entry
    /// in `diff_blocks`.
    pub fuzz_blocks: Arc<BlockProgram>,
}

impl CompiledTarget {
    /// Fresh persistent sessions over the differential binaries, one per
    /// implementation, each pre-seeded with the shared block translation.
    /// The compiled target itself is immutable and shared across workers;
    /// each worker's job creates its own session set as the mutable
    /// per-(worker, binary) execution state.
    pub fn diff_sessions(&self) -> Vec<minc_vm::ExecSession> {
        let mut sessions = self.diff.make_sessions();
        for (s, p) in sessions.iter_mut().zip(&self.diff_blocks) {
            s.set_block_program(Arc::clone(p));
        }
        sessions
    }

    /// Total superblocks across this target's translations. The fuzz
    /// translation is one of `diff_blocks`, so it counts once.
    pub fn block_count(&self) -> u64 {
        self.diff_blocks
            .iter()
            .map(|p| p.block_count() as u64)
            .sum()
    }
}

/// A target's unstable-code lint as a campaign counts it: findings per
/// defect class, plus the lint's scan time by the campaign clock. The
/// cache builds it from the pipelines that build the target's binaries;
/// every `done` result carries it (its JSON form is in `proto`), and the
/// coordinator counts it once per target (`lint.findings.<defect>`,
/// `lint.scan_us`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintTally {
    /// Findings per defect class.
    pub findings: BTreeMap<Defect, u64>,
    /// Microseconds the lint's analysis took; the rewrite logs it reads
    /// come from the binaries' build and are not counted.
    pub scan_us: u64,
}

impl LintTally {
    /// Tallies `findings` by defect class.
    pub fn of(findings: &[LintFinding], scan_us: u64) -> Self {
        let mut tally = LintTally {
            scan_us,
            ..LintTally::default()
        };
        for f in findings {
            *tally.findings.entry(f.finding.defect).or_default() += 1;
        }
        tally
    }
}

/// Why a target could not be compiled.
#[derive(Debug)]
pub enum CacheError {
    /// The target source failed the frontend (a real compile error).
    Frontend(FrontendError),
    /// The compiler pipeline panicked; the payload is carried so the
    /// failure record names the cause.
    Panic(String),
    /// An injected `fail@compile:...` fault (deterministic testing only).
    Injected(String),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Frontend(e) => write!(f, "frontend error: {e}"),
            CacheError::Panic(m) => write!(f, "compile panicked: {m}"),
            CacheError::Injected(m) => write!(f, "injected compile failure: {m}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<FrontendError> for CacheError {
    fn from(e: FrontendError) -> Self {
        CacheError::Frontend(e)
    }
}

/// Per-target compilation slot: workers asking for the same target
/// serialize on the slot, not on the whole cache.
#[derive(Default)]
struct Slot(Mutex<Option<(Arc<CompiledTarget>, LintTally)>>);

/// The campaign-wide compilation cache.
pub struct BinaryCache {
    slots: Mutex<HashMap<String, Arc<Slot>>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    blocks_translated: Arc<Counter>,
    /// The clock a lint's scan time is read from.
    clock: Arc<Telemetry>,
}

impl Default for BinaryCache {
    fn default() -> Self {
        BinaryCache {
            slots: Mutex::default(),
            hits: Arc::default(),
            misses: Arc::default(),
            blocks_translated: Arc::default(),
            clock: Telemetry::disabled(),
        }
    }
}

/// Locks a mutex, shrugging off poison: every write the cache makes under
/// its locks is either complete or absent (the slot stays `None` when a
/// compile unwinds), so a poisoned lock carries no torn state.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl BinaryCache {
    /// Empty cache with counters of its own.
    pub fn new() -> Self {
        BinaryCache::default()
    }

    /// Empty cache that counts into `ctel`'s registry:
    /// `campaign.cache_hits`, `campaign.cache_misses`, and its up-front
    /// block translations into `vm.blocks_translated`, so the counts
    /// merge like every other metric of the worker that made them. Lint
    /// scan times are read from `ctel`'s clock; the lint itself is
    /// counted by the coordinator, once per target.
    pub fn counting_into(ctel: &CampaignTelemetry) -> Self {
        BinaryCache {
            hits: Arc::clone(&ctel.cache_hits),
            misses: Arc::clone(&ctel.cache_misses),
            blocks_translated: Arc::clone(&ctel.blocks_translated),
            clock: Arc::clone(&ctel.tel),
            ..BinaryCache::default()
        }
    }

    /// Returns the compiled form of `target` and its lint tally,
    /// compiling and linting it on first use. Concurrent calls for the
    /// same target block until the one compile finishes; calls for
    /// different targets proceed in parallel.
    ///
    /// `faults`/`attempt` feed the deterministic injection harness; pass
    /// `None` (the production default) to skip it entirely.
    ///
    /// # Errors
    ///
    /// [`CacheError::Frontend`] if the target source does not check,
    /// [`CacheError::Panic`] if the compiler pipeline panics (the slot is
    /// left empty, so a retry recompiles), [`CacheError::Injected`] for
    /// an injected compile fault.
    pub fn get_or_compile(
        &self,
        target: &Target,
        diff_config: &DiffConfig,
        fuzz_impl: CompilerImpl,
        faults: Option<&FaultPlan>,
        attempt: u32,
    ) -> Result<(Arc<CompiledTarget>, LintTally), CacheError> {
        let name = target.spec.name.as_str();
        let slot = {
            let mut slots = lock_clean(&self.slots);
            Arc::clone(slots.entry(name.to_string()).or_default())
        };
        let mut guard = lock_clean(&slot.0);
        if let Some((ct, lint)) = guard.as_ref() {
            self.hits.inc();
            return Ok((Arc::clone(ct), lint.clone()));
        }
        let injected = faults.and_then(|p| p.fire_compile(name, attempt));
        if injected == Some(FaultKind::CompileFail) {
            return Err(CacheError::Injected(format!(
                "fault plan failed compile of `{name}` (attempt {attempt})"
            )));
        }
        self.misses.inc();
        // `catch_unwind` so a panicking backend fails this lookup instead
        // of the whole campaign. On unwind the slot guard still holds
        // `None` — nothing partial is published, which is what makes the
        // poison-shrugging `lock_clean` sound.
        let compiled = catch_unwind(AssertUnwindSafe(|| {
            if injected == Some(FaultKind::Panic) {
                panic!("fault plan panicked compile of `{name}` (attempt {attempt})");
            }
            let checked = minc::check(&target.src)?;
            // One shared build of the ten implementations: the binaries
            // are the oracle's, and the ten logs feed the lint.
            let (binaries, logs) =
                minc_compile::compile_all(&checked, &CompilerImpl::default_set());
            let t0 = self.clock.now_micros();
            let findings = UnstableLint::run_with_logs(&checked, &logs);
            let lint = LintTally::of(&findings, self.clock.now_micros().saturating_sub(t0));
            // Translate for block-mode execution while we hold the slot:
            // once per binary per campaign, amortized across every job
            // and session that touches this target.
            let diff_blocks: Vec<Arc<BlockProgram>> = binaries
                .iter()
                .map(|b| Arc::new(BlockProgram::translate(b)))
                .collect();
            // The fuzz binary is the oracle's build of `fuzz_impl` (every
            // implementation is in the default set, indexed by
            // `CompilerImpl::index`): the clone keeps its `uid`, and the
            // translation is the same `Arc`.
            let fuzz_binary = binaries[fuzz_impl.index()].clone();
            let fuzz_blocks = Arc::clone(&diff_blocks[fuzz_impl.index()]);
            let ct = CompiledTarget {
                name: name.to_string(),
                // Tag the engine with the program's content hash so
                // campaign-wide signature dedup keys on (program, shape),
                // not shape alone — distinct generated programs with the
                // same exit-code split stay distinct findings.
                diff: CompDiff::new(binaries, diff_config.clone())
                    .with_src_hash(hash64(target.src.as_bytes())),
                fuzz_binary,
                seeds: target.seeds.clone(),
                magic: target.spec.magic,
                diff_blocks,
                fuzz_blocks,
            };
            Ok((Arc::new(ct), lint))
        }));
        let (ct, lint) = match compiled {
            Ok(Ok(entry)) => entry,
            Ok(Err(e)) => return Err(CacheError::Frontend(e)),
            Err(payload) => return Err(CacheError::Panic(panic_message(payload.as_ref()))),
        };
        self.blocks_translated.add(ct.block_count());
        *guard = Some((Arc::clone(&ct), lint.clone()));
        Ok((ct, lint))
    }

    /// `(hits, misses)` — misses equal the number of compiles started
    /// (including ones that failed or panicked).
    pub fn counters(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }
}

#[cfg(test)]
mod tests {
    // test-only: unwraps in this module assert test invariants.
    use super::*;
    use minc_compile::CompilerImpl;
    use targets::{build, catalog};

    fn fuzz_impl() -> CompilerImpl {
        CompilerImpl::parse("clang-O1").unwrap()
    }

    #[test]
    fn compiles_once_per_target() {
        let cache = BinaryCache::new();
        let t = build(&catalog()[0]);
        let (a, lint_a) = cache
            .get_or_compile(&t, &DiffConfig::default(), fuzz_impl(), None, 1)
            .unwrap();
        let (b, lint_b) = cache
            .get_or_compile(&t, &DiffConfig::default(), fuzz_impl(), None, 1)
            .unwrap();
        assert_eq!(lint_a, lint_b, "the hit hands out the compile's lint");
        assert!(
            Arc::ptr_eq(&a, &b),
            "second lookup must reuse the first compile"
        );
        assert_eq!(cache.counters(), (1, 1));
        assert_eq!(a.diff.binaries().len(), 10);
    }

    #[test]
    fn fuzz_binary_and_translation_are_the_oracles() {
        let tel = telemetry::Telemetry::new(
            telemetry::TestClock::stepping(0, 1),
            telemetry::NoopRecorder,
        );
        let ctel = CampaignTelemetry::new(tel);
        let cache = BinaryCache::counting_into(&ctel);
        for spec in catalog().iter().take(3) {
            let before = ctel.blocks_translated.get();
            let (ct, _) = cache
                .get_or_compile(&build(spec), &DiffConfig::default(), fuzz_impl(), None, 1)
                .unwrap();
            let i = ct
                .diff
                .impls()
                .iter()
                .position(|&ci| ci == fuzz_impl())
                .unwrap();
            assert_eq!(ct.fuzz_binary.uid, ct.diff.binaries()[i].uid);
            assert!(Arc::ptr_eq(&ct.fuzz_blocks, &ct.diff_blocks[i]));
            let ten: u64 = ct.diff_blocks.iter().map(|p| p.block_count() as u64).sum();
            assert_eq!(ct.diff_blocks.len(), 10);
            assert_eq!(ctel.blocks_translated.get() - before, ten, "{}", spec.name);
        }
    }

    /// The shared build makes exactly
    /// `minc_compile::compile`'s binaries (uid aside) and exactly the lint
    /// `UnstableLint::run_source` reports, on every catalog target.
    #[test]
    fn binaries_and_lint_equal_the_standalone_builds() {
        let shape = |b: &Binary| {
            format!(
                "{:?}",
                Binary {
                    uid: 0,
                    ..b.clone()
                }
            )
        };
        let cache = BinaryCache::new();
        let lint = UnstableLint::new();
        for spec in catalog() {
            let t = build(&spec);
            let (ct, tally) = cache
                .get_or_compile(&t, &DiffConfig::default(), fuzz_impl(), None, 1)
                .unwrap();
            let checked = minc::check(&t.src).unwrap();
            for (bin, ci) in ct.diff.binaries().iter().zip(CompilerImpl::default_set()) {
                let want = minc_compile::compile(&checked, ci);
                assert_eq!(shape(bin), shape(&want), "{} {ci}", spec.name);
            }
            let want = LintTally::of(&lint.run_source(&t.src).unwrap(), 0);
            assert_eq!(tally.findings, want.findings, "{}", spec.name);
        }
    }

    #[test]
    fn concurrent_lookups_share_one_compile() {
        let cache = Arc::new(BinaryCache::new());
        let t = Arc::new(build(&catalog()[1]));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                cache
                    .get_or_compile(&t, &DiffConfig::default(), fuzz_impl(), None, 1)
                    .unwrap()
                    .0
            }));
        }
        let compiled: Vec<Arc<CompiledTarget>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for ct in &compiled[1..] {
            assert!(Arc::ptr_eq(&compiled[0], ct));
        }
        let (hits, misses) = cache.counters();
        assert_eq!(misses, 1, "exactly one compile");
        assert_eq!(hits, 3);
    }

    /// A panicking compile must fail only its own lookup: the slot stays
    /// usable, the retry recompiles, and other targets are unaffected.
    #[test]
    fn compile_panic_leaves_slot_retryable() {
        let plan = FaultPlan::parse("panic@compile:any", 9).unwrap();
        let cache = BinaryCache::new();
        let t = build(&catalog()[0]);

        let err = cache
            .get_or_compile(&t, &DiffConfig::default(), fuzz_impl(), Some(&plan), 1)
            .unwrap_err();
        match err {
            CacheError::Panic(m) => assert!(m.contains("fault plan"), "payload carried: {m}"),
            other => panic!("expected Panic, got {other:?}"),
        }

        // Attempt 2 is past the rule's default count of 1: the retry
        // recompiles cleanly on the same (unpoisoned) slot.
        let (ct, _) = cache
            .get_or_compile(&t, &DiffConfig::default(), fuzz_impl(), Some(&plan), 2)
            .unwrap();
        assert_eq!(ct.diff.binaries().len(), 10);
        assert_eq!(cache.counters(), (0, 2), "both attempts were misses");
    }

    #[test]
    fn injected_compile_failure_is_typed() {
        let plan = FaultPlan::parse("fail@compile:jq*inf", 9).unwrap();
        let cache = BinaryCache::new();
        let jq = catalog()
            .iter()
            .find(|s| s.name == "jq")
            .map(build)
            .expect("jq in catalog");
        let err = cache
            .get_or_compile(&jq, &DiffConfig::default(), fuzz_impl(), Some(&plan), 3)
            .unwrap_err();
        assert!(matches!(err, CacheError::Injected(_)), "got {err:?}");
        // Injected failures happen before the miss counter: compile work
        // was never started.
        assert_eq!(cache.counters(), (0, 0));
    }
}
