//! The compiler-driven differential testing engine (paper §3.1).
//!
//! Workflow: compile the program with `k` compiler implementations, run
//! every binary on the same input, checksum each binary's observable output
//! (stdout + exit status, after optional scrubbing filters), and report a
//! discrepancy when any two checksums differ.

use crate::filters::{apply_filters, OutputFilter};
use crate::murmur::hash64;
use minc::FrontendError;
use minc_compile::{Binary, CompilerImpl};
use minc_vm::{ExecResult, ExecSession, ExitStatus, VmConfig};

/// Configuration of the differential engine.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Per-binary execution limits.
    pub vm: VmConfig,
    /// Output scrubbing filters (RQ5: benign non-determinism).
    pub filters: Vec<OutputFilter>,
    /// How many times to double the step budget when *some* binaries time
    /// out while others terminate (RQ6's timeout-escalation policy).
    pub timeout_escalations: u32,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            vm: VmConfig::default(),
            filters: Vec::new(),
            timeout_escalations: 3,
        }
    }
}

/// The outcome of one differential run.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// Per-implementation execution results (same order as the engine's
    /// implementation list).
    pub results: Vec<ExecResult>,
    /// MurmurHash3 checksum of each implementation's scrubbed output.
    pub hashes: Vec<u64>,
    /// Equivalence classes of implementation indices with equal output.
    pub classes: Vec<Vec<usize>>,
    /// True if at least two implementations produced different output —
    /// the presence of unstable code (Definition 1).
    pub divergent: bool,
    /// True if escalation could not resolve all timeouts; such inputs are
    /// saved but not counted as divergences (no false positives).
    pub unresolved_timeout: bool,
}

/// Observer seam for per-execution instrumentation of a differential
/// run. The engine itself stays dependency-free: a telemetry layer (or a
/// test) implements this trait and receives one `exec_begin`/`exec_end`
/// pair per binary execution — including timeout-escalation re-runs —
/// plus the classified outcome.
pub trait DiffObserver {
    /// About to run implementation `impl_idx`; `escalation_round` is 0
    /// for the initial sweep and `1..=timeout_escalations` for re-runs.
    fn exec_begin(&mut self, _impl_idx: usize, _escalation_round: u32) {}

    /// Implementation `impl_idx` finished with `result`.
    fn exec_end(&mut self, _impl_idx: usize, _result: &ExecResult, _escalation_round: u32) {}

    /// The input's classified outcome (called once per input, last).
    fn outcome(&mut self, _outcome: &DiffOutcome) {}

    /// A batched sweep finished: `size` inputs were swept impl-major and
    /// `bisections` of them had disagreeing digests (or timeouts) and were
    /// bisected down to exact divergences. Called once per
    /// [`run_batch_observed`](CompDiff::run_batch_observed) call, after
    /// every per-input [`outcome`](DiffObserver::outcome).
    fn batch(&mut self, _size: usize, _bisections: usize) {}
}

/// The do-nothing observer (the disabled-telemetry path).
impl DiffObserver for () {}

/// The CompDiff engine: `k` binaries of one program.
#[derive(Debug)]
pub struct CompDiff {
    binaries: Vec<Binary>,
    config: DiffConfig,
    /// Content hash of the program source (0 when unknown). Folded into
    /// triage signatures so campaign-wide dedup cannot collapse distinct
    /// programs that happen to diverge with the same exit-code/sanitizer
    /// shape — essential once generated programs enter the pipeline.
    src_hash: u64,
}

impl CompDiff {
    /// Wraps pre-compiled binaries. The source hash is unknown (0); set
    /// it with [`with_src_hash`](CompDiff::with_src_hash) when the caller
    /// has the program text.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two binaries are supplied (differential testing
    /// needs at least two implementations).
    pub fn new(binaries: Vec<Binary>, config: DiffConfig) -> Self {
        assert!(
            binaries.len() >= 2,
            "CompDiff needs at least two compiler implementations"
        );
        CompDiff {
            binaries,
            config,
            src_hash: 0,
        }
    }

    /// Tags the engine with a content hash of the program source; triage
    /// signatures produced through [`DiffStore`](crate::DiffStore) are
    /// then prefixed `p<hash>|`, keeping different programs apart.
    #[must_use]
    pub fn with_src_hash(mut self, src_hash: u64) -> Self {
        self.src_hash = src_hash;
        self
    }

    /// The program-source content hash (0 when unknown).
    pub fn src_hash(&self) -> u64 {
        self.src_hash
    }

    /// Compiles `src` with the given implementations. The engine is
    /// tagged with `src`'s content hash.
    ///
    /// # Errors
    ///
    /// Returns the frontend error if `src` does not parse or check.
    pub fn from_source(
        src: &str,
        impls: &[CompilerImpl],
        config: DiffConfig,
    ) -> Result<Self, FrontendError> {
        let binaries = minc_compile::compile_many(src, impls)?;
        Ok(CompDiff::new(binaries, config).with_src_hash(hash64(src.as_bytes())))
    }

    /// Compiles `src` with the paper's default ten implementations.
    ///
    /// # Errors
    ///
    /// Returns the frontend error if `src` does not parse or check.
    pub fn from_source_default(src: &str, config: DiffConfig) -> Result<Self, FrontendError> {
        Self::from_source(src, &CompilerImpl::default_set(), config)
    }

    /// The implementations, in engine order.
    pub fn impls(&self) -> Vec<CompilerImpl> {
        self.binaries.iter().map(|b| b.impl_id).collect()
    }

    /// The compiled binaries.
    pub fn binaries(&self) -> &[Binary] {
        &self.binaries
    }

    /// The observable (scrubbed) output bytes of one result.
    pub fn observable(&self, result: &ExecResult) -> Vec<u8> {
        let mut out = apply_filters(&result.stdout, &self.config.filters);
        out.push(0x1e);
        out.push(result.status.as_code());
        out
    }

    /// The output digest a [`DiffOutcome`]'s `hashes` holds for `result`.
    pub fn digest(&self, result: &ExecResult) -> u64 {
        hash64(&self.observable(result))
    }

    /// [`observable`](CompDiff::observable)'s hash, built in a reusable
    /// scratch buffer so batched sweeps don't allocate per execution.
    /// Identical to [`digest`](CompDiff::digest).
    fn hash_observable(&self, result: &ExecResult, scratch: &mut Vec<u8>) -> u64 {
        scratch.clear();
        if self.config.filters.is_empty() {
            scratch.extend_from_slice(&result.stdout);
        } else {
            let filtered = apply_filters(&result.stdout, &self.config.filters);
            scratch.extend_from_slice(&filtered);
        }
        scratch.push(0x1e);
        scratch.push(result.status.as_code());
        hash64(scratch)
    }

    /// Creates one persistent [`ExecSession`] per binary, in engine order.
    /// Pass the vector to [`run_input_sessions`](CompDiff::run_input_sessions)
    /// to amortize VM setup across many inputs (the persistent-mode /
    /// forkserver analogue).
    pub fn make_sessions(&self) -> Vec<ExecSession> {
        self.binaries.iter().map(ExecSession::new).collect()
    }

    /// Runs every binary on `input` and cross-checks outputs.
    ///
    /// One-shot convenience over [`run_input_sessions`]
    /// (CompDiff::run_input_sessions); loops should create sessions once
    /// via [`make_sessions`](CompDiff::make_sessions) and reuse them.
    pub fn run_input(&self, input: &[u8]) -> DiffOutcome {
        self.run_input_sessions(&mut self.make_sessions(), input)
    }

    /// Runs every binary on `input` using the caller's persistent sessions
    /// (created by [`make_sessions`](CompDiff::make_sessions)), reusing
    /// them for timeout-escalation re-runs as well. Results are bit-for-bit
    /// identical to [`run_input`](CompDiff::run_input).
    ///
    /// # Panics
    ///
    /// Panics if `sessions.len()` differs from the number of binaries.
    pub fn run_input_sessions(&self, sessions: &mut [ExecSession], input: &[u8]) -> DiffOutcome {
        self.run_input_observed(sessions, input, &mut ())
    }

    /// [`run_input_sessions`](CompDiff::run_input_sessions) with an
    /// instrumentation [`DiffObserver`]. The observer never influences
    /// results; outcomes are bit-for-bit those of the unobserved run.
    ///
    /// # Panics
    ///
    /// Panics if `sessions.len()` differs from the number of binaries.
    pub fn run_input_observed(
        &self,
        sessions: &mut [ExecSession],
        input: &[u8],
        obs: &mut impl DiffObserver,
    ) -> DiffOutcome {
        assert_eq!(
            sessions.len(),
            self.binaries.len(),
            "one session per binary"
        );
        let mut results: Vec<ExecResult> = self
            .binaries
            .iter()
            .zip(sessions.iter_mut())
            .enumerate()
            .map(|(i, (b, s))| {
                obs.exec_begin(i, 0);
                let r = s.run(b, input, &self.config.vm);
                obs.exec_end(i, &r, 0);
                r
            })
            .collect();

        let unresolved_timeout = self.escalate(sessions, input, &mut results, obs);
        let outcome = self.classify(results, unresolved_timeout);
        obs.outcome(&outcome);
        outcome
    }

    /// Runs a whole batch of inputs, sweeping each implementation over the
    /// batch (impl-major order) instead of all implementations per input.
    /// Outcomes are bit-for-bit identical to calling
    /// [`run_input_sessions`](CompDiff::run_input_sessions) per input, and
    /// are returned in input order.
    ///
    /// # Panics
    ///
    /// Panics if `sessions.len()` differs from the number of binaries.
    pub fn run_batch_sessions<I: AsRef<[u8]>>(
        &self,
        sessions: &mut [ExecSession],
        inputs: &[I],
    ) -> Vec<DiffOutcome> {
        self.run_batch_observed(sessions, inputs, &mut ())
    }

    /// [`run_batch_sessions`](CompDiff::run_batch_sessions) with an
    /// instrumentation [`DiffObserver`].
    ///
    /// The sweep runs impl-major — one binary executes the whole batch
    /// back to back, so its block translation, code, and session pages
    /// stay hot while session reset cost is amortized across the batch —
    /// and computes one output digest per (impl, input). Inputs whose
    /// digests agree across every implementation are classified straight
    /// from the digests (the common case); the rest are *bisected*: the
    /// disagreement is narrowed to the exact divergence via the full
    /// classification, going through the regular timeout-escalation path
    /// where partial timeouts are involved. Divergences are emitted in
    /// input order (never discovery order), so downstream triage and
    /// dedup see the same stream as a batch-size-1 run.
    ///
    /// Observer semantics are preserved: `exec_begin`/`exec_end` fire once
    /// per (impl, input, round) — only their relative order changes — and
    /// `outcome` fires once per input, in input order. The extra
    /// [`batch`](DiffObserver::batch) hook reports the sweep's size and
    /// how many inputs needed bisection.
    ///
    /// # Panics
    ///
    /// Panics if `sessions.len()` differs from the number of binaries.
    pub fn run_batch_observed<I: AsRef<[u8]>>(
        &self,
        sessions: &mut [ExecSession],
        inputs: &[I],
        obs: &mut impl DiffObserver,
    ) -> Vec<DiffOutcome> {
        assert_eq!(
            sessions.len(),
            self.binaries.len(),
            "one session per binary"
        );
        let (k, n) = (self.binaries.len(), inputs.len());
        // Impl-major sweep: rows[i][j] is implementation i on input j.
        // `run_batched` amortizes the session reset across the batch: the
        // binary's post-loader page image is captured once and untouched
        // loader pages then cost nothing per run. Output digests are
        // computed inline, while the run's stdout is still cache-hot, into
        // one flat impl-major array (hash setup — the scratch buffer — is
        // shared across the whole sweep).
        let mut rows: Vec<Vec<ExecResult>> = Vec::with_capacity(k);
        let mut digests: Vec<u64> = Vec::with_capacity(k * n);
        let mut scratch: Vec<u8> = Vec::new();
        for (i, (b, s)) in self.binaries.iter().zip(sessions.iter_mut()).enumerate() {
            let mut row = Vec::with_capacity(n);
            for input in inputs {
                obs.exec_begin(i, 0);
                let r = s.run_batched(b, input.as_ref(), &self.config.vm);
                obs.exec_end(i, &r, 0);
                digests.push(self.hash_observable(&r, &mut scratch));
                row.push(r);
            }
            rows.push(row);
        }
        // Transpose to input-major so per-input classification (and any
        // escalation re-runs) proceed strictly in input order.
        let mut per_input: Vec<Vec<ExecResult>> = (0..n).map(|_| Vec::with_capacity(k)).collect();
        for row in rows {
            for (j, r) in row.into_iter().enumerate() {
                per_input[j].push(r);
            }
        }

        let mut bisections = 0usize;
        let mut outcomes = Vec::with_capacity(n);
        for (j, mut results) in per_input.into_iter().enumerate() {
            // Cheap cross-impl digest agreement check. The digest covers
            // the scrubbed output *and* the exit status byte, so "all
            // digests equal" also implies no partial timeout (a timed-out
            // impl could never share a digest with a settled one) — the
            // escalation path is provably unreachable for agreeing inputs.
            let agree = (1..k).all(|i| digests[i * n + j] == digests[j]);
            let outcome = if agree {
                // One equivalence class holding every implementation —
                // exactly what `classify` would compute, without hashing
                // the outputs a second time.
                DiffOutcome {
                    hashes: (0..k).map(|i| digests[i * n + j]).collect(),
                    classes: vec![(0..k).collect()],
                    divergent: false,
                    unresolved_timeout: false,
                    results,
                }
            } else {
                // Bisection: narrow the disagreeing input down to its
                // exact divergence, escalating timeouts exactly as the
                // single-input path would.
                bisections += 1;
                let unresolved_timeout =
                    self.escalate(sessions, inputs[j].as_ref(), &mut results, obs);
                self.classify(results, unresolved_timeout)
            };
            obs.outcome(&outcome);
            outcomes.push(outcome);
        }
        obs.batch(inputs.len(), bisections);
        outcomes
    }

    /// RQ6: partial timeouts would truncate outputs and fake
    /// discrepancies; escalate the step budget for the timed-out binaries
    /// (doubling per round, re-running only the timed-out ones in the
    /// caller's sessions). Returns true if timeouts remain unresolved
    /// after every escalation round. No-op unless *some but not all*
    /// results timed out.
    fn escalate(
        &self,
        sessions: &mut [ExecSession],
        input: &[u8],
        results: &mut [ExecResult],
        obs: &mut impl DiffObserver,
    ) -> bool {
        let any_timeout = |rs: &[ExecResult]| rs.iter().any(|r| r.status == ExitStatus::TimedOut);
        let all_timeout = |rs: &[ExecResult]| rs.iter().all(|r| r.status == ExitStatus::TimedOut);
        if !any_timeout(results) || all_timeout(results) {
            return false;
        }
        // The config clone is hoisted out of the escalation loop and the
        // same sessions serve the re-runs, so a partial-timeout input does
        // not pay fresh-VM setup on top of its doubled step budget.
        let mut cfg = self.config.vm.clone();
        for round in 1..=self.config.timeout_escalations {
            cfg.step_limit = cfg.step_limit.saturating_mul(2);
            for (i, b) in self.binaries.iter().enumerate() {
                if results[i].status == ExitStatus::TimedOut {
                    obs.exec_begin(i, round);
                    results[i] = sessions[i].run(b, input, &cfg);
                    obs.exec_end(i, &results[i], round);
                }
            }
            if !any_timeout(results) {
                return false;
            }
        }
        true
    }

    /// Hashes each result's observable output, groups implementations into
    /// equivalence classes, and decides divergence. Timed-out entries form
    /// their own class but do not count toward divergence when unresolved.
    fn classify(&self, results: Vec<ExecResult>, unresolved_timeout: bool) -> DiffOutcome {
        let hashes: Vec<u64> = results.iter().map(|r| self.digest(r)).collect();

        let mut classes: Vec<Vec<usize>> = Vec::new();
        let mut class_hash: Vec<u64> = Vec::new();
        for (i, &h) in hashes.iter().enumerate() {
            match class_hash.iter().position(|&ch| ch == h) {
                Some(c) => classes[c].push(i),
                None => {
                    class_hash.push(h);
                    classes.push(vec![i]);
                }
            }
        }
        let divergent = if unresolved_timeout {
            let settled: Vec<u64> = results
                .iter()
                .zip(&hashes)
                .filter(|(r, _)| r.status != ExitStatus::TimedOut)
                .map(|(_, &h)| h)
                .collect();
            settled.windows(2).any(|w| w[0] != w[1])
        } else {
            classes.len() > 1
        };

        DiffOutcome {
            results,
            hashes,
            classes,
            divergent,
            unresolved_timeout,
        }
    }

    /// Convenience: is there *any* divergence on this input?
    pub fn is_divergent(&self, input: &[u8]) -> bool {
        self.run_input(input).divergent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(src: &str) -> CompDiff {
        CompDiff::from_source_default(src, DiffConfig::default()).unwrap()
    }

    #[test]
    fn stable_program_has_no_divergence() {
        let diff = engine(
            r#"
            int main() {
                int i;
                int acc = 0;
                for (i = 0; i < 16; i++) { acc += i * i; }
                printf("%d\n", acc);
                return 0;
            }
        "#,
        );
        let out = diff.run_input(b"");
        assert!(!out.divergent, "classes: {:?}", out.classes);
        assert_eq!(out.classes.len(), 1);
    }

    #[test]
    fn listing1_is_detected() {
        let diff = engine(
            r#"
            int dump_data(int offset, int len) {
                int size = 100;
                if (offset + len > size || offset < 0 || len < 0) { return -1; }
                if (offset + len < offset) { return -1; }
                return 0;
            }
            int main() {
                printf("r=%d\n", dump_data(2147483647 - 100, 101));
                return 0;
            }
        "#,
        );
        let out = diff.run_input(b"");
        assert!(out.divergent);
        assert!(out.classes.len() >= 2);
    }

    #[test]
    fn uninit_print_is_detected() {
        let diff = engine("int main() { int u; printf(\"%d\\n\", u); return 0; }");
        assert!(diff.is_divergent(b""));
    }

    #[test]
    fn divergence_depends_on_input() {
        // Only inputs starting with '!' reach the unstable code.
        let diff = engine(
            r#"
            int main() {
                char b[4];
                long n = read_input(b, 4L);
                if (n > 0 && b[0] == '!') {
                    int u;
                    printf("%d\n", u);
                }
                printf("done\n");
                return 0;
            }
        "#,
        );
        assert!(!diff.is_divergent(b"ok"));
        assert!(diff.is_divergent(b"!x"));
    }

    #[test]
    fn filters_suppress_benign_divergence() {
        // A program that deliberately prints a pointer: always divergent
        // raw, stable once scrubbed.
        let src = r#"
            int g;
            int main() { printf("at %p\n", &g); return 0; }
        "#;
        let raw = engine(src);
        assert!(raw.is_divergent(b""));
        let filtered = CompDiff::from_source_default(
            src,
            DiffConfig {
                filters: vec![OutputFilter::PointerAddresses],
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!filtered.is_divergent(b""));
    }

    #[test]
    fn partial_timeout_is_escalated() {
        // A loop whose bound is large: with a small initial budget some
        // optimization levels (smaller code, fewer steps) finish and others
        // time out; escalation must settle them and find no divergence.
        let src = r#"
            int main() {
                long acc = 0;
                long i;
                for (i = 0; i < 20000; i++) { acc += i; }
                printf("%ld\n", acc);
                return 0;
            }
        "#;
        let cfg = DiffConfig {
            vm: VmConfig {
                step_limit: 150_000,
                ..Default::default()
            },
            ..Default::default()
        };
        let diff = CompDiff::from_source_default(src, cfg).unwrap();
        let out = diff.run_input(b"");
        assert!(
            !out.divergent,
            "escalation should settle timeouts: {:?}",
            out.classes
        );
    }

    #[derive(Default)]
    struct CountingObserver {
        begins: usize,
        ends: usize,
        escalation_reruns: usize,
        outcomes: usize,
    }

    impl DiffObserver for CountingObserver {
        fn exec_begin(&mut self, _i: usize, _round: u32) {
            self.begins += 1;
        }
        fn exec_end(&mut self, _i: usize, _r: &ExecResult, round: u32) {
            self.ends += 1;
            if round > 0 {
                self.escalation_reruns += 1;
            }
        }
        fn outcome(&mut self, _o: &DiffOutcome) {
            self.outcomes += 1;
        }
    }

    #[test]
    fn observer_sees_every_execution_without_changing_results() {
        let diff = engine("int main() { printf(\"hi\\n\"); return 0; }");
        let mut obs = CountingObserver::default();
        let observed = diff.run_input_observed(&mut diff.make_sessions(), b"", &mut obs);
        let plain = diff.run_input(b"");
        assert_eq!(observed.hashes, plain.hashes, "observer must not perturb");
        assert_eq!(obs.begins, diff.binaries().len());
        assert_eq!(obs.ends, diff.binaries().len());
        assert_eq!(obs.escalation_reruns, 0);
        assert_eq!(obs.outcomes, 1);
    }

    #[test]
    fn observer_counts_escalation_reruns() {
        // Same partial-timeout setup as `partial_timeout_is_escalated`:
        // some implementations need budget doubling, and each re-run must
        // reach the observer with its escalation round.
        let src = r#"
            int main() {
                long acc = 0;
                long i;
                for (i = 0; i < 20000; i++) { acc += i; }
                printf("%ld\n", acc);
                return 0;
            }
        "#;
        // Calibrate a budget between the fastest and slowest
        // implementation so some (but not all) time out initially.
        let probe = CompDiff::from_source_default(src, DiffConfig::default()).unwrap();
        let steps: Vec<u64> = probe
            .run_input(b"")
            .results
            .iter()
            .map(|r| r.steps)
            .collect();
        let (min, max) = (*steps.iter().min().unwrap(), *steps.iter().max().unwrap());
        assert!(min < max, "optimization levels must differ in steps");
        let cfg = DiffConfig {
            vm: VmConfig {
                step_limit: min.midpoint(max),
                ..Default::default()
            },
            ..Default::default()
        };
        let diff = CompDiff::from_source_default(src, cfg).unwrap();
        let mut obs = CountingObserver::default();
        let out = diff.run_input_observed(&mut diff.make_sessions(), b"", &mut obs);
        assert!(!out.divergent);
        assert!(obs.escalation_reruns > 0, "expected timeout re-runs");
        assert_eq!(obs.ends, diff.binaries().len() + obs.escalation_reruns);
    }

    /// Asserts batch outcomes are bit-for-bit those of per-input runs.
    fn assert_batch_matches_single(diff: &CompDiff, inputs: &[Vec<u8>]) -> Vec<DiffOutcome> {
        let batched = diff.run_batch_sessions(&mut diff.make_sessions(), inputs);
        assert_eq!(batched.len(), inputs.len());
        let mut sessions = diff.make_sessions();
        for (j, input) in inputs.iter().enumerate() {
            let single = diff.run_input_sessions(&mut sessions, input);
            assert_eq!(batched[j].results, single.results, "input {j}");
            assert_eq!(batched[j].hashes, single.hashes, "input {j}");
            assert_eq!(batched[j].classes, single.classes, "input {j}");
            assert_eq!(batched[j].divergent, single.divergent, "input {j}");
            assert_eq!(
                batched[j].unresolved_timeout, single.unresolved_timeout,
                "input {j}"
            );
        }
        batched
    }

    /// Inputs starting with '!' reach unstable code (uninitialized read);
    /// inputs starting with '#' trap (null write) on every impl.
    fn edge_case_engine() -> CompDiff {
        engine(
            r#"
            int main() {
                char b[4];
                long n = read_input(b, 4L);
                if (n > 0 && b[0] == '!') {
                    int u;
                    printf("%d\n", u);
                }
                if (n > 0 && b[0] == '#') { int* p = 0; *p = 1; }
                printf("done\n");
                return 0;
            }
        "#,
        )
    }

    #[test]
    fn batch_divergence_in_first_input() {
        let diff = edge_case_engine();
        let inputs = vec![b"!a".to_vec(), b"ok".to_vec(), b"ok".to_vec()];
        let out = assert_batch_matches_single(&diff, &inputs);
        assert!(out[0].divergent);
        assert!(!out[1].divergent && !out[2].divergent);
    }

    #[test]
    fn batch_divergence_in_last_input() {
        let diff = edge_case_engine();
        let inputs = vec![b"ok".to_vec(), b"ok".to_vec(), b"!z".to_vec()];
        let out = assert_batch_matches_single(&diff, &inputs);
        assert!(!out[0].divergent && !out[1].divergent);
        assert!(out[2].divergent);
    }

    #[test]
    fn batch_all_inputs_diverging() {
        let diff = edge_case_engine();
        let inputs = vec![b"!a".to_vec(), b"!b".to_vec(), b"!c".to_vec()];
        let out = assert_batch_matches_single(&diff, &inputs);
        assert!(out.iter().all(|o| o.divergent));
    }

    #[test]
    fn batch_of_one_input() {
        let diff = edge_case_engine();
        for input in [&b"ok"[..], b"!a"] {
            let out = assert_batch_matches_single(&diff, &[input.to_vec()]);
            assert_eq!(out.len(), 1);
        }
    }

    #[test]
    fn batch_of_zero_inputs() {
        let diff = edge_case_engine();
        assert!(diff
            .run_batch_sessions::<Vec<u8>>(&mut diff.make_sessions(), &[])
            .is_empty());
    }

    #[test]
    fn trap_mid_batch_does_not_poison_later_inputs() {
        // Input 1 traps on *every* impl mid-run; inputs 2 and 3 (run in
        // the same per-impl sessions immediately after the trap) must
        // still classify exactly as fresh-session runs would.
        let diff = edge_case_engine();
        let inputs = vec![
            b"ok".to_vec(),
            b"#!".to_vec(),
            b"ok".to_vec(),
            b"!q".to_vec(),
        ];
        let out = assert_batch_matches_single(&diff, &inputs);
        assert!(!out[0].divergent);
        assert!(!out[1].divergent, "uniform trap is not a divergence");
        assert!(!out[2].divergent, "trap must not leak into later inputs");
        assert!(out[3].divergent);
    }

    #[derive(Default)]
    struct BatchObserver {
        begins: usize,
        ends: usize,
        outcomes: usize,
        batches: Vec<(usize, usize)>,
    }

    impl DiffObserver for BatchObserver {
        fn exec_begin(&mut self, _i: usize, _round: u32) {
            self.begins += 1;
        }
        fn exec_end(&mut self, _i: usize, _r: &ExecResult, _round: u32) {
            self.ends += 1;
        }
        fn outcome(&mut self, _o: &DiffOutcome) {
            self.outcomes += 1;
        }
        fn batch(&mut self, size: usize, bisections: usize) {
            self.batches.push((size, bisections));
        }
    }

    #[test]
    fn batch_observer_sees_every_execution_and_bisection_count() {
        let diff = edge_case_engine();
        let inputs = vec![b"ok".to_vec(), b"!a".to_vec(), b"ok".to_vec()];
        let mut obs = BatchObserver::default();
        let out = diff.run_batch_observed(&mut diff.make_sessions(), &inputs, &mut obs);
        let k = diff.binaries().len();
        assert_eq!(obs.begins, k * inputs.len(), "one begin per (impl, input)");
        assert_eq!(obs.ends, obs.begins);
        assert_eq!(obs.outcomes, inputs.len(), "one outcome per input");
        assert_eq!(obs.batches, vec![(3, 1)], "only input 1 needed bisection");
        assert!(out[1].divergent);
    }

    #[test]
    fn batch_escalates_partial_timeouts() {
        // Same calibrated partial-timeout setup as the single-input test:
        // batched classification must go through escalation and settle.
        let src = r#"
            int main() {
                long acc = 0;
                long i;
                for (i = 0; i < 20000; i++) { acc += i; }
                printf("%ld\n", acc);
                return 0;
            }
        "#;
        let probe = CompDiff::from_source_default(src, DiffConfig::default()).unwrap();
        let steps: Vec<u64> = probe
            .run_input(b"")
            .results
            .iter()
            .map(|r| r.steps)
            .collect();
        let (min, max) = (*steps.iter().min().unwrap(), *steps.iter().max().unwrap());
        assert!(min < max);
        let cfg = DiffConfig {
            vm: VmConfig {
                step_limit: min.midpoint(max),
                ..Default::default()
            },
            ..Default::default()
        };
        let diff = CompDiff::from_source_default(src, cfg).unwrap();
        let inputs = vec![b"".to_vec(), b"x".to_vec()];
        let mut obs = BatchObserver::default();
        let out = diff.run_batch_observed(&mut diff.make_sessions(), &inputs, &mut obs);
        assert!(out.iter().all(|o| !o.divergent && !o.unresolved_timeout));
        assert_eq!(obs.batches, vec![(2, 2)], "both inputs hit escalation");
        assert_batch_matches_single(&diff, &inputs);
    }

    #[test]
    fn crash_vs_no_crash_is_a_divergence() {
        // Unused division by zero: trap at -O0, gone at -O2.
        let src = "int main() { int z = (int)input_size(); int dead = 5 / z; printf(\"ok\\n\"); return 0; }";
        let diff = engine(src);
        let out = diff.run_input(b"");
        assert!(out.divergent);
        let statuses: std::collections::HashSet<String> =
            out.results.iter().map(|r| r.status.to_string()).collect();
        assert!(statuses.len() >= 2, "{statuses:?}");
    }
}
