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
/// pair per binary execution the engine performs — including
/// timeout-escalation re-runs, excluding results a caller handed in
/// ([`run_batch_reusing`](CompDiff::run_batch_reusing)) — plus the
/// classified outcome.
pub trait DiffObserver {
    /// About to run implementation `impl_idx`; `escalation_round` is 0
    /// for the initial sweep and `1..=timeout_escalations` for re-runs.
    fn exec_begin(&mut self, _impl_idx: usize, _escalation_round: u32) {}

    /// Implementation `impl_idx` finished with `result`.
    fn exec_end(&mut self, _impl_idx: usize, _result: &ExecResult, _escalation_round: u32) {}

    /// The input's classified outcome (called once per input, last).
    fn outcome(&mut self, _outcome: &DiffOutcome) {}

    /// A sweep finished: `size` inputs were swept impl-major and
    /// `bisections` of them had disagreeing digests (or timeouts) and were
    /// bisected down to exact divergences. Called once per sweep — every
    /// `run_*` call, a single input's included — after every per-input
    /// [`outcome`](DiffObserver::outcome).
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

    /// The output digest a [`DiffOutcome`]'s `hashes` holds for `result`:
    /// MurmurHash3 over the scrubbed stdout, a `0x1e` separator and the
    /// exit-status byte.
    pub fn digest(&self, result: &ExecResult) -> u64 {
        self.digest_in(result, &mut Vec::new())
    }

    /// [`digest`](CompDiff::digest), built in a reusable scratch buffer so
    /// a sweep hashes every execution without allocating.
    fn digest_in(&self, result: &ExecResult, scratch: &mut Vec<u8>) -> u64 {
        scratch.clear();
        if self.config.filters.is_empty() {
            scratch.extend_from_slice(&result.stdout);
        } else {
            scratch.extend_from_slice(&apply_filters(&result.stdout, &self.config.filters));
        }
        scratch.push(0x1e);
        scratch.push(result.status.as_code());
        hash64(scratch)
    }

    /// Creates one persistent [`ExecSession`] per binary, in engine order.
    /// Pass the vector to [`run_input_observed`](CompDiff::run_input_observed)
    /// or [`run_batch_observed`](CompDiff::run_batch_observed) to amortize
    /// VM setup across many inputs (the persistent-mode / forkserver
    /// analogue).
    pub fn make_sessions(&self) -> Vec<ExecSession> {
        self.binaries.iter().map(ExecSession::new).collect()
    }

    /// Runs every binary on `input` and cross-checks outputs.
    ///
    /// One-shot convenience over
    /// [`run_input_observed`](CompDiff::run_input_observed); loops should
    /// create sessions once via [`make_sessions`](CompDiff::make_sessions)
    /// and reuse them.
    pub fn run_input(&self, input: &[u8]) -> DiffOutcome {
        self.run_input_observed(&mut self.make_sessions(), input, &mut ())
    }

    /// Runs every binary on `input` using the caller's persistent sessions
    /// (created by [`make_sessions`](CompDiff::make_sessions)), reusing
    /// them for timeout-escalation re-runs as well: the sweep of
    /// [`run_batch_observed`](CompDiff::run_batch_observed) over one
    /// input. The observer never influences results; outcomes are
    /// bit-for-bit those of [`run_input`](CompDiff::run_input).
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
        let mut outcomes = self.run_batch_reusing(sessions, &[input], None, obs);
        outcomes.pop().expect("one outcome per input")
    }

    /// Runs a whole batch of inputs, sweeping each implementation over the
    /// batch (impl-major order) instead of all implementations per input.
    /// Outcomes are bit-for-bit identical to calling
    /// [`run_input_observed`](CompDiff::run_input_observed) per input, and
    /// are returned in input order; the observer never influences them.
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
        self.run_batch_reusing(sessions, inputs, None, obs)
    }

    /// The engine index whose result on every input is `binary`'s result
    /// under `vm`: `binary` is that engine binary (same `uid`) and `vm` is
    /// this engine's [`VmConfig`]. A fuzzer whose B_fuzz qualifies already
    /// holds that implementation's result for every input it hands the
    /// oracle, and can pass them to
    /// [`run_batch_reusing`](CompDiff::run_batch_reusing).
    pub fn reusable_index(&self, binary: &Binary, vm: &VmConfig) -> Option<usize> {
        if *vm != self.config.vm {
            return None;
        }
        self.binaries.iter().position(|b| b.uid == binary.uid)
    }

    /// [`run_batch_observed`](CompDiff::run_batch_observed) for a caller
    /// that may already hold one binary's results: `reused` is `(index,
    /// results)`, with `results[j]` that engine binary's result on
    /// `inputs[j]` as a run under this engine's [`VmConfig`] returns it
    /// (see [`reusable_index`](CompDiff::reusable_index)). The sweep then
    /// runs only the other binaries. Digests, bisection and escalation
    /// are unchanged — a reused timeout is re-run by escalation like any
    /// other — so the outcomes are bit-for-bit those of
    /// `run_batch_observed`, which is this call with `reused` `None`.
    /// `exec_begin`/`exec_end` fire only for the executions this call
    /// performs: the reused binary appears only in escalation re-runs.
    ///
    /// # Panics
    ///
    /// Panics if `sessions.len()` differs from the number of binaries, or
    /// the reused index is out of range or its results do not match
    /// `inputs` one to one.
    pub fn run_batch_reusing<I: AsRef<[u8]>>(
        &self,
        sessions: &mut [ExecSession],
        inputs: &[I],
        mut reused: Option<(usize, Vec<ExecResult>)>,
        obs: &mut impl DiffObserver,
    ) -> Vec<DiffOutcome> {
        if let Some((i, results)) = &reused {
            assert!(*i < self.binaries.len(), "reused index out of range");
            assert_eq!(results.len(), inputs.len(), "one reused result per input");
        }
        assert_eq!(
            sessions.len(),
            self.binaries.len(),
            "one session per binary"
        );
        let (k, n) = (self.binaries.len(), inputs.len());
        // Impl-major sweep: rows[i][j] is implementation i on input j.
        // Each session keeps its binary's post-loader page image, so
        // untouched loader pages cost nothing per run. Output digests are
        // computed inline, while the run's stdout is still cache-hot, into
        // one flat impl-major array (hash setup — the scratch buffer — is
        // shared across the whole sweep).
        let mut rows: Vec<Vec<ExecResult>> = Vec::with_capacity(k);
        let mut digests: Vec<u64> = Vec::with_capacity(k * n);
        let mut scratch: Vec<u8> = Vec::new();
        for (i, (b, s)) in self.binaries.iter().zip(sessions.iter_mut()).enumerate() {
            if let Some((_, given)) = reused.take_if(|(r, _)| *r == i) {
                digests.extend(given.iter().map(|r| self.digest_in(r, &mut scratch)));
                rows.push(given);
                continue;
            }
            let mut row = Vec::with_capacity(n);
            for input in inputs {
                obs.exec_begin(i, 0);
                let r = s.run(b, input.as_ref(), &self.config.vm);
                obs.exec_end(i, &r, 0);
                digests.push(self.digest_in(&r, &mut scratch));
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
        let batched = diff.run_batch_observed(&mut diff.make_sessions(), inputs, &mut ());
        assert_eq!(batched.len(), inputs.len());
        let mut sessions = diff.make_sessions();
        for (j, input) in inputs.iter().enumerate() {
            let single = diff.run_input_observed(&mut sessions, input, &mut ());
            assert_eq!(batched[j].results, single.results, "input {j}");
            assert_eq!(batched[j].hashes, single.hashes, "input {j}");
            assert_eq!(batched[j].classes, single.classes, "input {j}");
            assert_eq!(batched[j].divergent, single.divergent, "input {j}");
            assert_eq!(
                batched[j].unresolved_timeout, single.unresolved_timeout,
                "input {j}"
            );
            // Every outcome, the digest-agreement shortcut's included, is
            // what the full classification makes of its results.
            let full = diff.classify(batched[j].results.clone(), batched[j].unresolved_timeout);
            assert_eq!(full.hashes, batched[j].hashes, "input {j}");
            assert_eq!(full.classes, batched[j].classes, "input {j}");
            assert_eq!(full.divergent, batched[j].divergent, "input {j}");
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
            .run_batch_observed::<Vec<u8>>(&mut diff.make_sessions(), &[], &mut ())
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

    /// Records which implementation each execution ran.
    #[derive(Default)]
    struct ExecLog(Vec<usize>);

    impl DiffObserver for ExecLog {
        fn exec_end(&mut self, i: usize, _r: &ExecResult, _round: u32) {
            self.0.push(i);
        }
    }

    /// Handing in one binary's results runs only the other binaries and
    /// changes no outcome.
    #[test]
    fn reused_results_stand_in_for_one_binary() {
        let diff = edge_case_engine();
        let inputs = vec![b"ok".to_vec(), b"!a".to_vec(), b"#!".to_vec()];
        let full = diff.run_batch_observed(&mut diff.make_sessions(), &inputs, &mut ());
        let k = diff.binaries().len();
        for reused in [0, k / 2, k - 1] {
            let bin = &diff.binaries()[reused];
            let mut own = ExecSession::new(bin);
            let given = inputs
                .iter()
                .map(|i| own.run(bin, i, &diff.config.vm))
                .collect();
            let mut log = ExecLog::default();
            let reusing = diff.run_batch_reusing(
                &mut diff.make_sessions(),
                &inputs,
                Some((reused, given)),
                &mut log,
            );
            for (j, (a, b)) in reusing.iter().zip(&full).enumerate() {
                assert_eq!(a.results, b.results, "reused {reused}, input {j}");
                assert_eq!(a.hashes, b.hashes, "reused {reused}, input {j}");
                assert_eq!(a.classes, b.classes, "reused {reused}, input {j}");
                assert_eq!(a.divergent, b.divergent, "reused {reused}, input {j}");
            }
            assert_eq!(log.0.len(), (k - 1) * inputs.len(), "reused {reused}");
            assert!(!log.0.contains(&reused), "reused {reused} ran");
        }
    }

    #[test]
    fn only_the_same_binary_under_the_same_limits_is_reusable() {
        let diff = edge_case_engine();
        let vm = VmConfig::default();
        for (i, b) in diff.binaries().iter().enumerate() {
            assert_eq!(diff.reusable_index(b, &vm), Some(i));
            let tighter = VmConfig {
                step_limit: vm.step_limit / 2,
                ..vm.clone()
            };
            assert_eq!(diff.reusable_index(b, &tighter), None);
        }
        // Identity is the `uid`: an equal build linked apart is not reused.
        let relinked = Binary {
            uid: u64::MAX,
            ..diff.binaries()[0].clone()
        };
        assert_eq!(diff.reusable_index(&relinked, &vm), None);
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
