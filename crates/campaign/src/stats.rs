//! Campaign-wide aggregation: per-worker throughput, per-target divergence
//! counts, the global deduped discrepancy-signature set, and the
//! fault-tolerance ledger view (retries, failed jobs, quarantines).

use crate::policy::Disposition;
use crate::state::JobRecord;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Aggregated results for one target across all of its shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TargetStats {
    /// Shards finished.
    pub jobs: u32,
    /// Fuzz-binary executions.
    pub execs: u64,
    /// Differential (oracle) executions.
    pub oracle_execs: u64,
    /// Divergent inputs found.
    pub divergent: u64,
    /// Unique crash buckets found.
    pub crashes: u64,
    /// Failed job attempts (each retry that failed counts once).
    pub failures: u64,
    /// Shards skipped because the target was quarantined.
    pub skipped: u32,
    /// Deduped discrepancy signatures (by [`compdiff::signature_of`]).
    pub signatures: BTreeSet<String>,
}

/// The campaign aggregator. Fed one [`JobRecord`] at a time — either live
/// from a worker or replayed from a checkpoint on resume — and renders the
/// live progress line plus the final summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Jobs in the whole campaign (including checkpointed ones).
    pub jobs_total: usize,
    /// Jobs finished (including checkpointed ones).
    pub jobs_done: usize,
    /// Jobs replayed from the checkpoint rather than run in this process.
    pub jobs_resumed: usize,
    /// Fuzz-binary executions by each worker *in this process*.
    pub per_worker_execs: Vec<u64>,
    /// Per-target aggregates.
    pub per_target: BTreeMap<String, TargetStats>,
    /// Campaign-wide deduped discrepancy signatures.
    pub signatures: BTreeSet<String>,
    /// Total fuzz-binary executions.
    pub execs: u64,
    /// Total differential executions.
    pub oracle_execs: u64,
    /// Total divergent inputs.
    pub divergent: u64,
    /// Total unique crash buckets (summed per shard).
    pub crashes: u64,
    /// Jobs that resolved as failed (retries exhausted or quarantined).
    pub jobs_failed: usize,
    /// Jobs never run because their target was quarantined.
    pub jobs_skipped: usize,
    /// Job attempts that were re-run after a failure.
    pub retries: u64,
    /// Failed job attempts (every failure, including retried ones).
    pub failures: u64,
    /// Targets quarantined after repeated failures.
    pub quarantined: BTreeSet<String>,
}

impl CampaignStats {
    /// A fresh aggregator for `workers` workers over `jobs_total` jobs.
    pub fn new(workers: usize, jobs_total: usize) -> Self {
        CampaignStats {
            jobs_total,
            per_worker_execs: vec![0; workers],
            ..Default::default()
        }
    }

    /// Folds one finished job in. `worker` is `Some(i)` for live results
    /// and `None` for jobs replayed from a checkpoint (they count toward
    /// totals but not toward any worker's throughput). Counts saturate:
    /// a checkpoint's records each hold up to `i64::MAX`, and a sum of
    /// them must not overflow.
    pub fn absorb(&mut self, worker: Option<usize>, rec: &JobRecord) {
        fn add(total: &mut u64, n: u64) {
            *total = total.saturating_add(n);
        }
        self.jobs_done += 1;
        match worker {
            Some(w) => {
                // Grows on demand: in coordinator/worker mode a respawned
                // worker process can carry an index past the initial count.
                if self.per_worker_execs.len() <= w {
                    self.per_worker_execs.resize(w + 1, 0);
                }
                add(&mut self.per_worker_execs[w], rec.execs);
            }
            None => self.jobs_resumed += 1,
        }
        add(&mut self.execs, rec.execs);
        add(&mut self.oracle_execs, rec.oracle_execs);
        add(&mut self.divergent, rec.divergent);
        add(&mut self.crashes, rec.crashes);
        let t = self.per_target.entry(rec.target.clone()).or_default();
        t.jobs += 1;
        add(&mut t.execs, rec.execs);
        add(&mut t.oracle_execs, rec.oracle_execs);
        add(&mut t.divergent, rec.divergent);
        add(&mut t.crashes, rec.crashes);
        for sig in &rec.signatures {
            t.signatures.insert(sig.clone());
            self.signatures.insert(sig.clone());
        }
    }

    /// Folds in one failed job attempt (the attempt may still be retried;
    /// terminal failures are reported via
    /// [`note_disposition`](CampaignStats::note_disposition)).
    pub fn note_failure(&mut self, target: &str) {
        self.failures += 1;
        self.per_target
            .entry(target.to_string())
            .or_default()
            .failures += 1;
    }

    /// Counts what the retry policy decided for one failed attempt of a
    /// `target` job: a retry, or the job resolved as failed (retries
    /// exhausted, or its target quarantined — by this failure, which
    /// marks the target, or before it). The live path and the
    /// checkpoint replay both count through here.
    pub fn note_disposition(&mut self, target: &str, disposition: Disposition) {
        match disposition {
            Disposition::Retry { .. } => self.retries += 1,
            Disposition::Quarantine => {
                self.quarantined.insert(target.to_string());
                self.jobs_failed += 1;
            }
            Disposition::Exhausted | Disposition::AlreadyQuarantined => self.jobs_failed += 1,
        }
    }

    /// Counts `n` of `target`'s jobs as skipped (swept by a quarantine,
    /// or never scheduled on resume because the target was already
    /// quarantined).
    pub fn note_skipped(&mut self, target: &str, n: u32) {
        self.jobs_skipped += n as usize;
        self.per_target
            .entry(target.to_string())
            .or_default()
            .skipped += n;
    }

    /// True if every job resolved successfully (nothing failed or
    /// skipped) — i.e. the campaign's results are complete, not partial.
    pub fn is_complete(&self) -> bool {
        self.jobs_failed == 0 && self.jobs_skipped == 0
    }

    /// One-line live progress, suitable for overwriting a terminal line.
    pub fn progress_line(&self) -> String {
        let failed = if self.jobs_failed > 0 {
            format!(" failed={}", self.jobs_failed)
        } else {
            String::new()
        };
        format!(
            "[{}/{} jobs] execs={} diffs={} ({} unique) crashes={}{failed}",
            self.jobs_done,
            self.jobs_total,
            self.execs,
            self.divergent,
            self.signatures.len(),
            self.crashes
        )
    }

    /// The end-of-campaign summary table.
    pub fn render_summary(&self, elapsed: Duration, cache: (u64, u64)) -> String {
        let mut s = String::new();
        if self.is_complete() {
            s.push_str("== campaign summary ==\n");
        } else {
            s.push_str("== campaign summary (PARTIAL RESULTS) ==\n");
        }
        s.push_str(&format!(
            "jobs: {}/{} done ({} resumed from checkpoint)\n",
            self.jobs_done, self.jobs_total, self.jobs_resumed
        ));
        if self.failures > 0 || self.jobs_skipped > 0 {
            s.push_str(&format!(
                "fault tolerance: {} failed attempts, {} retries, {} jobs failed, {} skipped\n",
                self.failures, self.retries, self.jobs_failed, self.jobs_skipped
            ));
            for t in &self.quarantined {
                let ts = self.per_target.get(t);
                s.push_str(&format!(
                    "  quarantined: {t} ({} failures, {} shards skipped)\n",
                    ts.map_or(0, |t| t.failures),
                    ts.map_or(0, |t| t.skipped)
                ));
            }
        }
        s.push_str(&format!(
            "execs: {} fuzz + {} differential in {:.1}s\n",
            self.execs,
            self.oracle_execs,
            elapsed.as_secs_f64()
        ));
        let secs = elapsed.as_secs_f64().max(1e-9);
        for (w, execs) in self.per_worker_execs.iter().enumerate() {
            s.push_str(&format!(
                "  worker {w}: {execs} execs ({:.0} execs/sec)\n",
                *execs as f64 / secs
            ));
        }
        s.push_str(&format!(
            "binary cache: {} compiles, {} reuses\n",
            cache.1, cache.0
        ));
        s.push_str(&format!(
            "discrepancies: {} divergent inputs, {} unique signatures, {} crash buckets\n",
            self.divergent,
            self.signatures.len(),
            self.crashes
        ));
        s.push_str("per-target:\n");
        for (name, t) in &self.per_target {
            s.push_str(&format!(
                "  {name:<14} execs={:<7} divergent={:<5} unique={:<3} crashes={}\n",
                t.execs,
                t.divergent,
                t.signatures.len(),
                t.crashes
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(target: &str, shard: u32, sigs: &[&str]) -> JobRecord {
        JobRecord {
            target: target.to_string(),
            shard,
            execs: 100,
            oracle_execs: 1_000,
            divergent: sigs.len() as u64,
            crashes: 1,
            signatures: sigs.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn absorb_aggregates_and_dedups() {
        let mut st = CampaignStats::new(2, 4);
        st.absorb(Some(0), &rec("a", 0, &["s1", "s2"]));
        st.absorb(Some(1), &rec("a", 1, &["s2", "s3"]));
        st.absorb(None, &rec("b", 0, &["s1"]));
        assert_eq!(st.jobs_done, 3);
        assert_eq!(st.jobs_resumed, 1);
        assert_eq!(st.execs, 300);
        assert_eq!(st.per_worker_execs, vec![100, 100]);
        assert_eq!(st.signatures.len(), 3, "global dedup across targets");
        assert_eq!(st.per_target["a"].signatures.len(), 3);
        assert_eq!(st.per_target["b"].signatures.len(), 1);
        let summary = st.render_summary(Duration::from_secs(2), (5, 2));
        assert!(summary.contains("3/4 done"));
        assert!(summary.contains("worker 0: 100 execs (50 execs/sec)"));
        assert!(st.progress_line().contains("[3/4 jobs]"));
        // A clean campaign reports no fault-tolerance noise.
        assert!(!summary.contains("PARTIAL"));
        assert!(!summary.contains("fault tolerance:"));
        assert!(!st.progress_line().contains("failed="));
    }

    #[test]
    fn failure_accounting_renders_partial_results() {
        let mut st = CampaignStats::new(1, 4);
        st.absorb(Some(0), &rec("a", 0, &[]));
        st.note_failure("b");
        st.note_disposition("b", Disposition::Retry { next_attempt: 2 });
        st.note_failure("b");
        st.note_disposition("b", Disposition::Quarantine);
        st.note_skipped("b", 2);
        assert!(!st.is_complete());
        assert_eq!(st.per_target["b"].failures, 2);
        assert_eq!(st.per_target["b"].skipped, 2);
        let summary = st.render_summary(Duration::from_secs(1), (0, 1));
        assert!(summary.contains("PARTIAL RESULTS"));
        assert!(summary
            .contains("fault tolerance: 2 failed attempts, 1 retries, 1 jobs failed, 2 skipped"));
        assert!(summary.contains("quarantined: b (2 failures, 2 shards skipped)"));
        assert!(st.progress_line().ends_with("failed=1"));
    }
}
