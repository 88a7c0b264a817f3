//! CompDiff-AFL++ (paper §3.2, Algorithm 1).
//!
//! AFL++'s core loop is untouched; CompDiff attaches as the extra oracle
//! that runs every generated input on the `k` differential binaries and
//! saves discrepancy-triggering inputs to the `diffs/` store. By default
//! B_fuzz is one of those binaries, so the fuzz run is that binary's run
//! and the oracle executes the other `k - 1`.

use crate::differ::{CompDiff, DiffConfig, DiffObserver, DiffOutcome};
use crate::report::DiffStore;
use fuzzing::{BinaryTarget, CampaignStats, FuzzConfig, Fuzzer, Oracle};
use minc::FrontendError;
use minc_compile::{Binary, CompilerImpl};
use minc_vm::{ExecResult, ExecSession, VmConfig};
use std::collections::VecDeque;

/// The CompDiff oracle: cross-checks the `k` binaries on every input the
/// fuzzer examines and saves the inputs whose outputs diverge. Each
/// binary runs in its own persistent [`ExecSession`], so the oracle's
/// executions stay in persistent mode for the whole run. Generic over the
/// [`DiffObserver`] that sees every differential execution: a campaign
/// job passes its telemetry adapter, `compdiff fuzz` passes `()`.
///
/// Hand the fuzzer `&mut oracle` to read the store, the counters and the
/// sessions back after the run.
pub struct CompDiffOracle<'a, O: DiffObserver = ()> {
    diff: &'a CompDiff,
    sessions: Vec<ExecSession>,
    /// The engine index B_fuzz reproduces ([`CompDiff::reusable_index`]):
    /// the fuzz run stands in for that binary's, and the sweep runs the
    /// other `k - 1`. `None` runs all `k`.
    reused: Option<usize>,
    /// The batch's fuzz results, copied into buffers kept across batches.
    fuzz_row: Vec<ExecResult>,
    /// The sweep's outcome buffer, kept across batches
    /// ([`CompDiff::run_batch_into`]).
    outcomes: Vec<DiffOutcome>,
    obs: O,
    /// The `diffs/` store: every divergence, bucketed by signature.
    pub store: DiffStore,
    /// Executions charged to the oracle: `k` per examined input, the
    /// reused fuzz run included.
    pub oracle_execs: u64,
    /// Examined inputs whose outputs diverged.
    pub divergent: u64,
    /// §5 future-work mode: feed novel divergence signatures back into the
    /// fuzzer queue (NEZHA-style).
    divergence_feedback: bool,
    /// One entry per save-verdict handed back to the fuzzer (`true` iff the
    /// divergence signature was novel), popped by [`Oracle::feedback`] in
    /// the same order. A queue rather than a flag because under batching
    /// several verdicts are outstanding before the first feedback call.
    novel_saves: VecDeque<bool>,
}

impl<'a, O: DiffObserver> CompDiffOracle<'a, O> {
    /// An oracle over `diff` that runs in `sessions`, one per binary in
    /// engine order ([`CompDiff::make_sessions`]). When the engine holds
    /// `fuzz_binary` under `vm`, each fuzz run stands in for that
    /// binary's run. Divergence feedback starts off.
    pub fn new(
        diff: &'a CompDiff,
        sessions: Vec<ExecSession>,
        fuzz_binary: &Binary,
        vm: &VmConfig,
        obs: O,
    ) -> Self {
        CompDiffOracle {
            diff,
            sessions,
            reused: diff.reusable_index(fuzz_binary, vm),
            fuzz_row: Vec::new(),
            outcomes: Vec::new(),
            obs,
            store: DiffStore::new(),
            oracle_execs: 0,
            divergent: 0,
            divergence_feedback: false,
            novel_saves: VecDeque::new(),
        }
    }

    /// Enables NEZHA-style divergence feedback (§5 future work).
    #[must_use]
    pub fn with_divergence_feedback(mut self, enabled: bool) -> Self {
        self.divergence_feedback = enabled;
        self
    }

    /// The oracle's sessions, in engine order.
    pub fn sessions(&self) -> &[ExecSession] {
        &self.sessions
    }

    /// Cross-checks one outcome: records divergences, queues the novelty
    /// bit for [`Oracle::feedback`], and returns the save verdict.
    fn verdict(&mut self, outcome: &DiffOutcome, input: &[u8]) -> bool {
        if outcome.divergent {
            self.divergent += 1;
            let novel = self.store.record(self.diff, outcome, input);
            self.novel_saves.push_back(novel);
            return true;
        }
        // Unresolved-timeout inputs are saved too (paper RQ6) but flagged,
        // not counted as discrepancies.
        if outcome.unresolved_timeout {
            self.novel_saves.push_back(false);
            return true;
        }
        false
    }
}

impl<O: DiffObserver> Oracle for CompDiffOracle<'_, O> {
    fn examine(&mut self, input: &[u8], result: &ExecResult) -> bool {
        self.examine_batch(&[(input.to_vec(), result.clone())])[0]
    }

    fn examine_batch(&mut self, items: &[(Vec<u8>, ExecResult)]) -> Vec<bool> {
        let inputs: Vec<&[u8]> = items.iter().map(|(i, _)| i.as_slice()).collect();
        let reused = self.reused.map(|i| {
            self.fuzz_row.truncate(items.len());
            self.fuzz_row.resize_with(items.len(), ExecResult::default);
            for (slot, (_, r)) in self.fuzz_row.iter_mut().zip(items) {
                slot.clone_from(r);
            }
            (i, self.fuzz_row.as_slice())
        });
        let mut outcomes = std::mem::take(&mut self.outcomes);
        self.diff.run_batch_into(
            &mut self.sessions,
            &inputs,
            reused,
            &mut outcomes,
            &mut self.obs,
        );
        // The reused run counts as the oracle's: k per examined input.
        self.oracle_execs += (self.diff.binaries().len() * items.len()) as u64;
        let verdicts = outcomes
            .iter()
            .zip(&inputs)
            .map(|(outcome, input)| self.verdict(outcome, input))
            .collect();
        self.outcomes = outcomes;
        verdicts
    }

    fn feedback(&mut self, _input: &[u8]) -> bool {
        let novel = self.novel_saves.pop_front().unwrap_or(false);
        self.divergence_feedback && novel
    }
}

/// Results of a CompDiff-AFL++ campaign.
#[derive(Debug)]
pub struct CompDiffAflStats {
    /// The plain AFL++ campaign statistics (crashes, coverage, corpus).
    pub campaign: CampaignStats,
    /// The `diffs/` store with every discrepancy report.
    pub store: DiffStore,
    /// Differential executions performed by the oracle.
    pub oracle_execs: u64,
}

/// A configured CompDiff-AFL++ instance.
pub struct CompDiffAfl {
    /// The fuzz binary (B_fuzz). Coverage hooks attach when it runs; the
    /// binary itself is a plain build.
    pub fuzz_binary: Binary,
    /// The differential engine over the `k` binaries B_i.
    pub diff: CompDiff,
    /// Fuzzer configuration.
    pub fuzz_config: FuzzConfig,
    /// Fuzz-binary execution limits. While they equal the oracle's and
    /// B_fuzz is one of its binaries, the oracle reuses every fuzz run.
    pub vm: VmConfig,
    /// Enable divergence-as-feedback (§5 future work; off = the paper's
    /// base design).
    pub divergence_feedback: bool,
}

impl CompDiffAfl {
    /// Builds B_fuzz with `fuzz_impl` and the differential set with
    /// `impls`, from the same source (the paper's default: B_fuzz is the
    /// fuzzer-configured compiler; B_i are gcc/clang × O0..Os). When
    /// `fuzz_impl` is in `impls`, B_fuzz is a clone (same `uid`) of the
    /// oracle's build of it, so the oracle can reuse every fuzz run.
    ///
    /// # Errors
    ///
    /// Returns the frontend error if `src` does not parse or check.
    pub fn from_source(
        src: &str,
        fuzz_impl: CompilerImpl,
        impls: &[CompilerImpl],
        fuzz_config: FuzzConfig,
        diff_config: DiffConfig,
    ) -> Result<Self, FrontendError> {
        let checked = minc::check(src)?;
        let binaries = minc_compile::compile_all(&checked, impls).0;
        let fuzz_binary = match impls.iter().position(|&i| i == fuzz_impl) {
            Some(i) => binaries[i].clone(),
            None => minc_compile::compile(&checked, fuzz_impl),
        };
        let vm = diff_config.vm.clone();
        Ok(CompDiffAfl {
            fuzz_binary,
            diff: CompDiff::new(binaries, diff_config),
            fuzz_config,
            vm,
            divergence_feedback: false,
        })
    }

    /// Enables NEZHA-style divergence feedback (§5 future work).
    pub fn with_divergence_feedback(mut self, enabled: bool) -> Self {
        self.divergence_feedback = enabled;
        self
    }

    /// Convenience: default fuzz compiler (clang-O1, a typical
    /// `afl-clang-fast` setting) and the default ten implementations.
    ///
    /// # Errors
    ///
    /// Returns the frontend error if `src` does not parse or check.
    pub fn from_source_default(
        src: &str,
        fuzz_config: FuzzConfig,
        diff_config: DiffConfig,
    ) -> Result<Self, FrontendError> {
        Self::from_source(
            src,
            CompilerImpl::parse("clang-O1").expect("valid"),
            &CompilerImpl::default_set(),
            fuzz_config,
            diff_config,
        )
    }

    /// Runs the campaign from the given seeds.
    pub fn run(self, seeds: &[Vec<u8>]) -> CompDiffAflStats {
        let mut oracle = CompDiffOracle::new(
            &self.diff,
            self.diff.make_sessions(),
            &self.fuzz_binary,
            &self.vm,
            (),
        )
        .with_divergence_feedback(self.divergence_feedback);
        let target = BinaryTarget::new(&self.fuzz_binary, self.vm);
        let campaign = Fuzzer::new(target, &mut oracle, self.fuzz_config).run(seeds);
        CompDiffAflStats {
            campaign,
            store: oracle.store,
            oracle_execs: oracle.oracle_execs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_input_gated_unstable_code() {
        // The unstable code (uninitialized read) only triggers when the
        // input starts with "UB"; the fuzzer must find it, and the oracle
        // must flag it.
        let src = r#"
            int main() {
                char b[8];
                long n = read_input(b, 8L);
                if (n >= 2 && b[0] == 'U' && b[1] == 'B') {
                    int u;
                    printf("value %d\n", u);
                }
                printf("end\n");
                return 0;
            }
        "#;
        let afl = CompDiffAfl::from_source_default(
            src,
            FuzzConfig {
                max_execs: 4_000,
                seed: 2,
                ..Default::default()
            },
            DiffConfig::default(),
        )
        .unwrap();
        let stats = afl.run(&[b"XXXX".to_vec()]);
        assert!(
            !stats.store.reports().is_empty(),
            "CompDiff-AFL++ should find the gated unstable code ({} execs)",
            stats.campaign.execs
        );
        let rep = &stats.store.reports()[0];
        assert_eq!(&rep.input[..2], b"UB");
        assert!(stats.oracle_execs >= 10);
    }

    /// B_fuzz is the oracle's clang-O1 build, and reusing its runs finds
    /// exactly what running all ten binaries finds.
    #[test]
    fn reusing_the_fuzz_run_changes_no_finding() {
        let src = r#"
            int main() {
                char b[8];
                long n = read_input(b, 8L);
                if (n >= 2 && b[0] == 'U' && b[1] == 'B') {
                    int u;
                    printf("value %d\n", u);
                }
                printf("end\n");
                return 0;
            }
        "#;
        let make = || {
            CompDiffAfl::from_source_default(
                src,
                FuzzConfig {
                    max_execs: 4_000,
                    seed: 2,
                    ..Default::default()
                },
                DiffConfig::default(),
            )
            .unwrap()
        };
        let reusing = make();
        let o1 = CompilerImpl::parse("clang-O1").unwrap();
        let i = reusing.diff.impls().iter().position(|&c| c == o1).unwrap();
        assert_eq!(reusing.fuzz_binary.uid, reusing.diff.binaries()[i].uid);
        assert_eq!(
            reusing
                .diff
                .reusable_index(&reusing.fuzz_binary, &reusing.vm),
            Some(i)
        );
        // A separately linked B_fuzz is not the oracle's: all ten run.
        let mut all_ten = make();
        all_ten.fuzz_binary = minc_compile::compile_source(src, o1).unwrap();
        assert_eq!(
            all_ten
                .diff
                .reusable_index(&all_ten.fuzz_binary, &all_ten.vm),
            None
        );

        let seeds = [b"XXXX".to_vec()];
        let (a, b) = (reusing.run(&seeds), all_ten.run(&seeds));
        assert!(
            !a.store.reports().is_empty(),
            "the gated divergence is found"
        );
        assert_eq!(
            format!("{:?}", a.store.reports()),
            format!("{:?}", b.store.reports())
        );
        assert_eq!(
            a.oracle_execs, b.oracle_execs,
            "k per examined input either way"
        );
        assert_eq!(format!("{:?}", a.campaign), format!("{:?}", b.campaign));
    }

    #[test]
    fn stable_target_produces_no_discrepancies() {
        let src = r#"
            int main() {
                char b[8];
                long n = read_input(b, 8L);
                long i;
                int acc = 0;
                for (i = 0; i < n; i++) { acc += b[i]; }
                printf("%d\n", acc);
                return 0;
            }
        "#;
        let afl = CompDiffAfl::from_source_default(
            src,
            FuzzConfig {
                max_execs: 1_500,
                seed: 3,
                ..Default::default()
            },
            DiffConfig::default(),
        )
        .unwrap();
        let stats = afl.run(&[b"seed".to_vec()]);
        assert_eq!(
            stats.store.reports().len(),
            0,
            "no false positives on stable code"
        );
    }

    #[test]
    fn sanitizers_remain_compatible_with_the_loop() {
        // Algorithm 1 note: sanitizers instrument B_fuzz; the CompDiff part
        // is orthogonal. Fuzz a crashing target and check both the crash
        // (via B_fuzz) and the diff oracle operate in one campaign.
        let src = r#"
            int main() {
                char b[4];
                long n = read_input(b, 4L);
                if (n >= 1 && b[0] == '#') { int* p = 0; *p = 1; }
                if (n >= 1 && b[0] == '?') { int u; printf("%d\n", u); }
                printf(".\n");
                return 0;
            }
        "#;
        let afl = CompDiffAfl::from_source_default(
            src,
            FuzzConfig {
                max_execs: 6_000,
                seed: 7,
                ..Default::default()
            },
            DiffConfig::default(),
        )
        .unwrap();
        let stats = afl.run(&[b"....".to_vec()]);
        assert!(!stats.campaign.crashes.is_empty(), "crash path found");
        assert!(!stats.store.reports().is_empty(), "diff path found");
    }
}
