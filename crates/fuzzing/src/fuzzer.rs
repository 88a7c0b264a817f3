//! The campaign driver: AFL++'s main loop (paper Algorithm 1, unhighlighted
//! part) with a pluggable extra *oracle* seam (the highlighted part).
//!
//! ```text
//! while not aborted:
//!     s  = select seed
//!     s' = mutate(s)
//!     r  = execute(B_fuzz, s')
//!     if crash: save crash
//!     if new coverage: add to queue
//!     oracle.examine(s', r)        # <- CompDiff plugs in here
//! ```

use crate::coverage::{CoverageMap, GlobalCoverage};
use crate::mutate;
use crate::queue::Queue;
use crate::rng::Rng;
use minc_vm::{ExecResult, ExecSession, ExitStatus, VmConfig};
use std::collections::{HashMap, HashSet};

/// Executes the instrumented target once. Implemented for closures so any
/// binary/hook combination (plain, sanitized, …) can be fuzzed.
pub trait TargetExec {
    /// Runs `input`, filling `map` with edge coverage.
    fn run(&mut self, input: &[u8], map: &mut CoverageMap) -> ExecResult;
}

impl<F: FnMut(&[u8], &mut CoverageMap) -> ExecResult> TargetExec for F {
    fn run(&mut self, input: &[u8], map: &mut CoverageMap) -> ExecResult {
        self(input, map)
    }
}

/// A convenience target: one binary, no extra instrumentation. Holds a
/// persistent [`ExecSession`] so the whole fuzz loop reuses one set of
/// memory pages and pooled frames instead of rebuilding the VM per exec.
#[derive(Debug, Clone)]
pub struct BinaryTarget<'a> {
    /// The fuzz binary (B_fuzz).
    pub binary: &'a minc_compile::Binary,
    /// Execution limits.
    pub vm: VmConfig,
    session: ExecSession,
}

impl<'a> BinaryTarget<'a> {
    /// Creates the target with its persistent execution session.
    pub fn new(binary: &'a minc_compile::Binary, vm: VmConfig) -> Self {
        BinaryTarget {
            binary,
            vm,
            session: ExecSession::new(binary),
        }
    }

    /// Pre-seeds the session's block-translation cache with a shared
    /// translation of the fuzz binary (campaign workers translate once in
    /// the `BinaryCache`; without this, the first block-mode exec of each
    /// job would retranslate).
    pub fn with_block_program(mut self, prog: std::sync::Arc<minc_vm::BlockProgram>) -> Self {
        self.session.set_block_program(prog);
        self
    }

    /// Cumulative statistics of the persistent session.
    pub fn session_stats(&self) -> minc_vm::SessionStats {
        self.session.stats()
    }
}

impl TargetExec for BinaryTarget<'_> {
    fn run(&mut self, input: &[u8], map: &mut CoverageMap) -> ExecResult {
        self.session
            .run_with_hooks(self.binary, input, &self.vm, map)
    }
}

/// The extra test oracle (paper §3.2): examines every generated input.
pub trait Oracle {
    /// Returns `true` if the input should be saved (e.g. it triggered an
    /// output discrepancy).
    fn examine(&mut self, input: &[u8], result: &ExecResult) -> bool;

    /// Examines a batch of `(input, fuzz-binary result)` pairs at once,
    /// returning one save-verdict per item in order. The fuzzer drains its
    /// pending examinations through this entry point in `batch_size`
    /// chunks, so a differential oracle can sweep each of its binaries
    /// over the whole batch (amortizing session reset and translation
    /// warmth) instead of running all binaries per input. The default
    /// simply maps [`examine`](Oracle::examine), which keeps single-input
    /// oracles correct unchanged.
    fn examine_batch(&mut self, items: &[(Vec<u8>, ExecResult)]) -> Vec<bool> {
        items
            .iter()
            .map(|(input, result)| self.examine(input, result))
            .collect()
    }

    /// Called after [`Oracle::examine`] returned `true`: should the input
    /// *also* enter the seed queue? This is the paper's §5 future-work
    /// idea (NEZHA-style divergence-as-feedback): inputs that expose a
    /// novel behavioural asymmetry are worth mutating further even when
    /// they add no new code coverage. Default: `false` (the paper's base
    /// CompDiff-AFL++ design).
    fn feedback(&mut self, input: &[u8]) -> bool {
        let _ = input;
        false
    }
}

/// Oracles pass through mutable references, so a caller can keep
/// ownership (and read what the oracle collected back after the run).
impl<O: Oracle + ?Sized> Oracle for &mut O {
    fn examine(&mut self, input: &[u8], result: &ExecResult) -> bool {
        (**self).examine(input, result)
    }

    fn examine_batch(&mut self, items: &[(Vec<u8>, ExecResult)]) -> Vec<bool> {
        (**self).examine_batch(items)
    }

    fn feedback(&mut self, input: &[u8]) -> bool {
        (**self).feedback(input)
    }
}

/// No extra oracle: plain AFL++.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoOracle;

impl Oracle for NoOracle {
    fn examine(&mut self, _input: &[u8], _result: &ExecResult) -> bool {
        false
    }
}

/// Per-execution instrumentation seam of the fuzz loop. A telemetry
/// layer implements this to derive execs/sec, exec-latency histograms,
/// and queue-depth gauges; the fuzzer itself stays dependency-free and
/// the default observer `()` compiles to nothing.
pub trait FuzzObserver {
    /// About to execute the fuzz binary on one input.
    fn exec_begin(&mut self) {}

    /// The execution finished; `queue_depth` is the current seed-queue
    /// length.
    fn exec_end(&mut self, _result: &ExecResult, _queue_depth: usize) {}
}

/// The do-nothing observer (the disabled-telemetry path).
impl FuzzObserver for () {}

/// Observers pass through mutable references, so a caller can keep
/// ownership (and read the collected data back after the run).
impl<W: FuzzObserver + ?Sized> FuzzObserver for &mut W {
    fn exec_begin(&mut self) {
        (**self).exec_begin();
    }

    fn exec_end(&mut self, result: &ExecResult, queue_depth: usize) {
        (**self).exec_end(result, queue_depth);
    }
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Execution budget (on the fuzz binary; oracle executions are extra).
    pub max_execs: u64,
    /// RNG seed (campaigns are fully deterministic).
    pub seed: u64,
    /// Maximum input length.
    pub max_input_len: usize,
    /// Run the deterministic stage on small seeds.
    pub deterministic: bool,
    /// Dictionary tokens (AFL's `-x`): magic values and keywords the havoc
    /// stage may insert or overwrite with.
    pub dictionary: Vec<Vec<u8>>,
    /// How many generated inputs to buffer before handing them to the
    /// oracle in one [`Oracle::examine_batch`] call. The fuzz-binary
    /// executions, coverage accounting, and mutation schedule are
    /// identical at every batch size; only the oracle's examinations are
    /// deferred (by at most `batch_size - 1` executions). `1` restores
    /// the strict examine-after-every-exec interleaving.
    pub batch_size: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            max_execs: 50_000,
            seed: 0xAF1,
            max_input_len: 128,
            deterministic: true,
            dictionary: Vec::new(),
            batch_size: 16,
        }
    }
}

/// A saved crash.
#[derive(Debug, Clone, PartialEq)]
pub struct Crash {
    /// The triggering input.
    pub input: Vec<u8>,
    /// The crash status.
    pub status: ExitStatus,
    /// Dedup signature (status-derived, like AFL's crash bucketing).
    pub signature: String,
}

/// Campaign results.
#[derive(Debug, Default)]
pub struct CampaignStats {
    /// Total executions of the fuzz binary.
    pub execs: u64,
    /// Unique crashes (first input per signature).
    pub crashes: Vec<Crash>,
    /// Inputs the oracle asked to save (the `diffs/` directory).
    pub oracle_finds: Vec<Vec<u8>>,
    /// Final corpus size.
    pub corpus_len: usize,
    /// Distinct coverage-map slots seen.
    pub edges: usize,
    /// Executions that timed out.
    pub timeouts: u64,
}

/// The fuzzer.
pub struct Fuzzer<T: TargetExec, O: Oracle, W: FuzzObserver = ()> {
    target: T,
    oracle: O,
    observer: W,
    config: FuzzConfig,
    rng: Rng,
    queue: Queue,
    global: GlobalCoverage,
    map: CoverageMap,
    crash_sigs: HashMap<String, usize>,
    oracle_seen: HashSet<Vec<u8>>,
    /// Inputs executed but not yet shown to the oracle, flushed through
    /// [`Oracle::examine_batch`] every `config.batch_size` executions.
    /// Each mutant moves in; the buffer (and `pending_meta`) keeps its
    /// capacity across flushes.
    pending: Vec<(Vec<u8>, ExecResult)>,
    /// Per-pending (new coverage?, distinct edges), needed to replay the
    /// feedback decision when the batched verdicts come back.
    pending_meta: Vec<(bool, usize)>,
    stats: CampaignStats,
}

impl<T: TargetExec, O: Oracle> Fuzzer<T, O> {
    /// Creates a fuzzer over a target with an oracle (and no observer;
    /// see [`with_observer`](Fuzzer::with_observer)).
    pub fn new(target: T, oracle: O, config: FuzzConfig) -> Self {
        let rng = Rng::new(config.seed);
        Fuzzer {
            target,
            oracle,
            observer: (),
            config,
            rng,
            queue: Queue::new(),
            global: GlobalCoverage::new(),
            map: CoverageMap::new(),
            crash_sigs: HashMap::new(),
            oracle_seen: HashSet::new(),
            pending: Vec::new(),
            pending_meta: Vec::new(),
            stats: CampaignStats::default(),
        }
    }
}

impl<T: TargetExec, O: Oracle, W: FuzzObserver> Fuzzer<T, O, W> {
    /// Attaches an execution observer, replacing the current one. The
    /// observer sees every fuzz-binary execution; it never influences
    /// scheduling, mutation, or results.
    pub fn with_observer<W2: FuzzObserver>(self, observer: W2) -> Fuzzer<T, O, W2> {
        Fuzzer {
            target: self.target,
            oracle: self.oracle,
            observer,
            config: self.config,
            rng: self.rng,
            queue: self.queue,
            global: self.global,
            map: self.map,
            crash_sigs: self.crash_sigs,
            oracle_seen: self.oracle_seen,
            pending: self.pending,
            pending_meta: self.pending_meta,
            stats: self.stats,
        }
    }

    /// Runs a campaign from the given seed corpus and returns statistics.
    pub fn run(mut self, seeds: &[Vec<u8>]) -> CampaignStats {
        // Dry-run the seeds.
        let mut seen = HashSet::new();
        for s in seeds {
            if !seen.insert(s.clone()) {
                continue;
            }
            if self.stats.execs >= self.config.max_execs {
                break;
            }
            let (result, new_bits, edges) = self.exec_one(s);
            // Initial seeds always enter the queue (AFL keeps them even
            // without novel coverage, as long as they do not crash).
            let _ = new_bits;
            if !result.status.is_crash() {
                self.queue.add(s.clone(), result.steps, edges);
            }
        }
        if self.queue.is_empty() {
            // Fall back to a minimal seed, as afl-fuzz requires one input.
            let s = vec![0u8];
            let (result, _, edges) = self.exec_one(&s);
            if !result.status.is_crash() {
                self.queue.add(s, result.steps, edges);
            }
        }

        // Main loop.
        while self.stats.execs < self.config.max_execs && !self.queue.is_empty() {
            let Some(idx) = self.queue.next_index() else {
                break;
            };
            let seed_input = self.queue.seed(idx).input.clone();

            if self.config.deterministic && !self.queue.seed(idx).det_done && seed_input.len() <= 20
            {
                let mut budget_left = true;
                let mut mutants = Vec::new();
                mutate::deterministic(&seed_input, |m| {
                    mutants.push(m);
                    true
                });
                for m in mutants {
                    if self.stats.execs >= self.config.max_execs {
                        budget_left = false;
                        break;
                    }
                    self.fuzz_one(m);
                }
                self.queue.mark_det_done(idx);
                if !budget_left {
                    break;
                }
            }

            let energy = self.queue.energy(idx);
            for _ in 0..energy {
                if self.stats.execs >= self.config.max_execs {
                    break;
                }
                let mutant = if !self.config.dictionary.is_empty() && self.rng.one_in(6) {
                    mutate::dictionary(
                        &seed_input,
                        &self.config.dictionary,
                        &mut self.rng,
                        self.config.max_input_len,
                    )
                } else if self.rng.one_in(8) {
                    match self.queue.splice_partner(idx) {
                        Some(p) => {
                            let spliced = mutate::splice(
                                &seed_input,
                                &p.input,
                                &mut self.rng,
                                self.config.max_input_len,
                            );
                            mutate::havoc(&spliced, &mut self.rng, self.config.max_input_len)
                        }
                        None => {
                            mutate::havoc(&seed_input, &mut self.rng, self.config.max_input_len)
                        }
                    }
                } else {
                    mutate::havoc(&seed_input, &mut self.rng, self.config.max_input_len)
                };
                self.fuzz_one(mutant);
            }
        }

        // Examine whatever is still buffered before reporting.
        self.flush_oracle();

        self.stats.corpus_len = self.queue.len();
        self.stats.edges = self.global.edges_seen();
        self.stats
    }

    /// Executes, returning (result, new coverage?, distinct edges).
    fn exec_one(&mut self, input: &[u8]) -> (ExecResult, bool, usize) {
        self.observer.exec_begin();
        self.map.reset();
        let result = self.target.run(input, &mut self.map);
        self.stats.execs += 1;
        if result.status == ExitStatus::TimedOut {
            self.stats.timeouts += 1;
        }
        self.observer.exec_end(&result, self.queue.len());
        let edges = self.map.count_edges();
        let new_bits = self.global.merge(&self.map);
        (result, new_bits, edges)
    }

    /// The full per-input pipeline of Algorithm 1.
    fn fuzz_one(&mut self, input: Vec<u8>) {
        let (result, new_bits, edges) = self.exec_one(&input);
        if result.status.is_crash() {
            let signature = crash_signature(&result.status);
            if !self.crash_sigs.contains_key(&signature) {
                self.crash_sigs
                    .insert(signature.clone(), self.stats.crashes.len());
                self.stats.crashes.push(Crash {
                    input: input.clone(),
                    status: result.status.clone(),
                    signature,
                });
            }
        } else if new_bits {
            self.queue.add(input.clone(), result.steps, edges);
        }
        // CompDiff seam: examine outputs on every generated input. The
        // examination is buffered and flushed in `batch_size` chunks so a
        // differential oracle can sweep each implementation over the whole
        // batch; nothing above this line depends on the verdicts, so the
        // fuzz-binary side of the campaign is identical at any batch size.
        self.pending_meta.push((new_bits, edges));
        self.pending.push((input, result));
        if self.pending.len() >= self.config.batch_size.max(1) {
            self.flush_oracle();
        }
    }

    /// Drains the pending buffer through the oracle and applies the save
    /// and feedback decisions in execution order.
    fn flush_oracle(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let verdicts = self.oracle.examine_batch(&self.pending);
        debug_assert_eq!(verdicts.len(), self.pending.len());
        for (((input, result), &(new_bits, edges)), save) in
            self.pending.iter().zip(&self.pending_meta).zip(verdicts)
        {
            if !save {
                continue;
            }
            if !self.oracle_seen.contains(input) {
                self.oracle_seen.insert(input.clone());
                self.stats.oracle_finds.push(input.clone());
            }
            // Divergence-as-feedback (§5 future work): a novel divergence
            // earns queue entry even without new coverage bits. Feedback is
            // consulted for every saved input so a stateful oracle observes
            // the same call sequence at every batch size; the verdict only
            // matters when coverage did not already queue the input.
            let fb = self.oracle.feedback(input);
            if !new_bits && !result.status.is_crash() && fb {
                self.queue.add(input.clone(), result.steps, edges);
            }
        }
        self.pending.clear();
        self.pending_meta.clear();
    }
}

/// AFL-style crash bucketing: by status kind and sanitizer category.
pub fn crash_signature(status: &ExitStatus) -> String {
    match status {
        ExitStatus::Trapped(t) => format!("trap:{t:?}"),
        ExitStatus::Sanitizer(f) => format!("san:{}:{}", f.kind, f.category),
        other => format!("{other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minc_compile::{compile_source, CompilerImpl};

    fn target_binary(src: &str) -> minc_compile::Binary {
        compile_source(src, CompilerImpl::parse("clang-O1").unwrap()).unwrap()
    }

    #[test]
    fn finds_magic_byte_crash() {
        // The classic staged-magic-bytes toy: coverage guidance must find
        // it far faster than random chance (1 in 2^24 blind).
        let src = r#"
            int main() {
                char buf[8];
                long n = read_input(buf, 8L);
                if (n < 3) return 0;
                if (buf[0] == 'F') {
                    if (buf[1] == 'U') {
                        if (buf[2] == 'Z') {
                            int* p = 0;
                            *p = 1;
                        }
                    }
                }
                return 0;
            }
        "#;
        let bin = target_binary(src);
        let target = BinaryTarget::new(&bin, VmConfig::default());
        let config = FuzzConfig {
            max_execs: 60_000,
            seed: 1,
            ..Default::default()
        };
        let stats = Fuzzer::new(target, NoOracle, config).run(&[b"AAAAAAA".to_vec()]);
        assert!(
            stats.crashes.iter().any(|c| c.signature.contains("Segv")),
            "should find the staged crash; stats: {} execs, {} edges, {} corpus",
            stats.execs,
            stats.edges,
            stats.corpus_len
        );
        let crash = &stats.crashes[0];
        assert_eq!(&crash.input[..3], b"FUZ");
    }

    #[test]
    fn campaign_is_deterministic() {
        let src = r#"
            int main() {
                char buf[4];
                read_input(buf, 4L);
                if (buf[0] == 'x' && buf[1] == 'y') { abort(); }
                return 0;
            }
        "#;
        let bin = target_binary(src);
        let run = || {
            let target = BinaryTarget::new(&bin, VmConfig::default());
            let config = FuzzConfig {
                max_execs: 5_000,
                seed: 99,
                ..Default::default()
            };
            let s = Fuzzer::new(target, NoOracle, config).run(&[b"ab".to_vec()]);
            (s.execs, s.edges, s.crashes.len(), s.corpus_len)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn coverage_grows_queue() {
        let src = r#"
            int main() {
                char buf[4];
                long n = read_input(buf, 4L);
                if (n > 0 && buf[0] > 'a') { printf("1"); }
                if (n > 1 && buf[1] > 'b') { printf("2"); }
                if (n > 2 && buf[2] > 'c') { printf("3"); }
                return 0;
            }
        "#;
        let bin = target_binary(src);
        let target = BinaryTarget::new(&bin, VmConfig::default());
        let config = FuzzConfig {
            max_execs: 3_000,
            seed: 3,
            ..Default::default()
        };
        let stats = Fuzzer::new(target, NoOracle, config).run(&[b"....".to_vec()]);
        assert!(stats.corpus_len > 1, "novel paths should be kept");
    }

    #[test]
    fn oracle_finds_are_saved_and_deduped() {
        struct EvenLen;
        impl Oracle for EvenLen {
            fn examine(&mut self, input: &[u8], _r: &ExecResult) -> bool {
                input.len().is_multiple_of(2)
            }
        }
        let bin = target_binary("int main() { return 0; }");
        let target = BinaryTarget::new(&bin, VmConfig::default());
        let config = FuzzConfig {
            max_execs: 500,
            seed: 4,
            ..Default::default()
        };
        let stats = Fuzzer::new(target, EvenLen, config).run(&[b"ab".to_vec()]);
        assert!(!stats.oracle_finds.is_empty());
        let set: HashSet<_> = stats.oracle_finds.iter().collect();
        assert_eq!(set.len(), stats.oracle_finds.len(), "finds must be deduped");
    }

    #[test]
    fn batch_size_does_not_change_campaign_or_findings() {
        // Oracle examinations are buffered and flushed in `batch_size`
        // chunks, but the fuzz-binary side (mutation schedule, coverage,
        // crash handling) never depends on the verdicts — so every batch
        // size must produce the same campaign and the same oracle finds,
        // in the same order. Also exercises `examine_batch` chunk
        // boundaries: 1 (strict interleaving), 7 (partial final flush),
        // and 64 (everything pending at once).
        struct EvenLen;
        impl Oracle for EvenLen {
            fn examine(&mut self, input: &[u8], _r: &ExecResult) -> bool {
                input.len().is_multiple_of(2)
            }
        }
        let src = r#"
            int main() {
                char buf[4];
                long n = read_input(buf, 4L);
                if (n > 0 && buf[0] > 'a') { printf("1"); }
                if (n > 1 && buf[1] == 'q') { abort(); }
                return 0;
            }
        "#;
        let bin = target_binary(src);
        let run_with = |batch_size| {
            let target = BinaryTarget::new(&bin, VmConfig::default());
            let config = FuzzConfig {
                max_execs: 3_000,
                seed: 11,
                batch_size,
                ..Default::default()
            };
            Fuzzer::new(target, EvenLen, config).run(&[b"ab".to_vec()])
        };
        let base = run_with(1);
        assert!(!base.oracle_finds.is_empty());
        for batch_size in [7, 64] {
            let other = run_with(batch_size);
            assert_eq!(base.execs, other.execs, "batch={batch_size}");
            assert_eq!(base.edges, other.edges, "batch={batch_size}");
            assert_eq!(base.corpus_len, other.corpus_len, "batch={batch_size}");
            assert_eq!(
                base.crashes.len(),
                other.crashes.len(),
                "batch={batch_size}"
            );
            assert_eq!(base.oracle_finds, other.oracle_finds, "batch={batch_size}");
        }
    }

    #[test]
    fn observer_sees_every_exec_without_perturbing() {
        #[derive(Default)]
        struct CountObs {
            begins: u64,
            ends: u64,
            max_queue: usize,
        }
        impl FuzzObserver for CountObs {
            fn exec_begin(&mut self) {
                self.begins += 1;
            }
            fn exec_end(&mut self, _r: &ExecResult, depth: usize) {
                self.ends += 1;
                self.max_queue = self.max_queue.max(depth);
            }
        }
        let src = r#"
            int main() {
                char buf[4];
                long n = read_input(buf, 4L);
                if (n > 0 && buf[0] > 'a') { printf("1"); }
                if (n > 1 && buf[1] > 'b') { printf("2"); }
                return 0;
            }
        "#;
        let bin = target_binary(src);
        let config = FuzzConfig {
            max_execs: 2_000,
            seed: 3,
            ..Default::default()
        };
        let run_observed = || {
            let mut obs = CountObs::default();
            let stats = Fuzzer::new(
                BinaryTarget::new(&bin, VmConfig::default()),
                NoOracle,
                config.clone(),
            )
            .with_observer(&mut obs)
            .run(&[b"....".to_vec()]);
            (stats, obs)
        };
        let (stats, obs) = run_observed();
        assert_eq!(obs.begins, stats.execs);
        assert_eq!(obs.ends, stats.execs);
        assert!(obs.max_queue >= 1);
        // And the observed campaign matches the unobserved one exactly.
        let plain = Fuzzer::new(
            BinaryTarget::new(&bin, VmConfig::default()),
            NoOracle,
            config.clone(),
        )
        .run(&[b"....".to_vec()]);
        assert_eq!(plain.execs, stats.execs);
        assert_eq!(plain.edges, stats.edges);
        assert_eq!(plain.corpus_len, stats.corpus_len);
    }

    #[test]
    fn crashes_are_deduped_by_signature() {
        let src = r#"
            int main() {
                char buf[2];
                read_input(buf, 2L);
                if (buf[0] == 'a') { int* p = 0; *p = 1; }
                if (buf[0] == 'b') { int* q = 0; *q = 2; }
                return 0;
            }
        "#;
        let bin = target_binary(src);
        let target = BinaryTarget::new(&bin, VmConfig::default());
        let config = FuzzConfig {
            max_execs: 4_000,
            seed: 5,
            ..Default::default()
        };
        let stats = Fuzzer::new(target, NoOracle, config).run(&[b"zz".to_vec()]);
        // Both crash sites segfault -> one signature bucket.
        assert_eq!(stats.crashes.len(), 1, "{:?}", stats.crashes);
    }
}
