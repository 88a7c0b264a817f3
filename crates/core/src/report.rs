//! Discrepancy reports and the `diffs/` store.
//!
//! The paper saves every discrepancy-triggering input to a `diffs/`
//! directory and triages manually. We keep the store in memory and add the
//! obvious automatic bucketing: two inputs that split the implementations
//! into the same partition with the same status pattern very likely hit
//! the same bug (§5 discusses why full automatic triage is an open
//! problem; this is the approximation used by our experiment harnesses).

use crate::differ::{CompDiff, DiffOutcome};
use crate::json::Json;
use minc_compile::CompilerImpl;
use minc_vm::ExitStatus;
use std::collections::HashMap;

/// One reported discrepancy: everything the paper puts in a bug report
/// (triggering input, reproducing configurations, the divergent outputs).
#[derive(Debug, Clone)]
pub struct Discrepancy {
    /// The triggering input.
    pub input: Vec<u8>,
    /// Implementations grouped by identical output.
    pub classes: Vec<Vec<String>>,
    /// One output preview per class: (implementation, stdout preview, status).
    pub samples: Vec<(String, String, String)>,
    /// Automatic triage signature (partition shape + status pattern).
    pub signature: String,
}

impl Discrepancy {
    /// Builds a report from a divergent outcome.
    pub fn from_outcome(impls: &[CompilerImpl], outcome: &DiffOutcome, input: &[u8]) -> Self {
        Self::with_signature(impls, outcome, input, signature_of(impls, outcome))
    }

    fn with_signature(
        impls: &[CompilerImpl],
        outcome: &DiffOutcome,
        input: &[u8],
        signature: String,
    ) -> Self {
        let classes: Vec<Vec<String>> = outcome
            .classes
            .iter()
            .map(|c| c.iter().map(|&i| impls[i].to_string()).collect())
            .collect();
        let samples = outcome
            .classes
            .iter()
            .map(|c| {
                let i = c[0];
                let r = &outcome.results[i];
                let preview: String = String::from_utf8_lossy(&r.stdout)
                    .chars()
                    .take(120)
                    .collect();
                (impls[i].to_string(), preview, r.status.to_string())
            })
            .collect();
        Discrepancy {
            input: input.to_vec(),
            classes,
            samples,
            signature,
        }
    }

    /// Renders the report the way it would be filed upstream.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("== CompDiff discrepancy report ==\n");
        s.push_str(&format!(
            "input ({} bytes): {:?}\n",
            self.input.len(),
            preview_bytes(&self.input)
        ));
        s.push_str(&format!("signature: {}\n", self.signature));
        for (impl_, out, status) in &self.samples {
            s.push_str(&format!("  [{impl_}] status={status} stdout={out:?}\n"));
        }
        s.push_str("reproduce with any two implementations from different classes:\n");
        for c in &self.classes {
            s.push_str(&format!("  class: {}\n", c.join(", ")));
        }
        s
    }

    /// Machine-readable form (the `diffs/` directory's metadata files).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "input",
                Json::Array(self.input.iter().map(|&b| Json::Int(b as i64)).collect()),
            ),
            ("signature", Json::Str(self.signature.clone())),
            (
                "classes",
                Json::Array(
                    self.classes
                        .iter()
                        .map(|c| Json::strings(c.iter()))
                        .collect(),
                ),
            ),
            (
                "samples",
                Json::Array(
                    self.samples
                        .iter()
                        .map(|(impl_, out, status)| {
                            Json::obj(vec![
                                ("impl", Json::Str(impl_.clone())),
                                ("stdout", Json::Str(out.clone())),
                                ("status", Json::Str(status.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn preview_bytes(b: &[u8]) -> String {
    let head: Vec<u8> = b.iter().take(32).copied().collect();
    format!(
        "{}{}",
        String::from_utf8_lossy(&head).escape_debug(),
        if b.len() > 32 { "…" } else { "" }
    )
}

/// The triage signature: which implementations group together plus each
/// class's status kind. Input-independent for a given root cause in the
/// common case.
pub fn signature_of(impls: &[CompilerImpl], outcome: &DiffOutcome) -> String {
    let mut parts: Vec<String> = outcome
        .classes
        .iter()
        .map(|c| {
            let members: Vec<String> = c.iter().map(|&i| impls[i].to_string()).collect();
            // The status kind must carry its payload: collapsing every exit
            // code to "exit" (or every sanitizer to "san") merges e.g. an
            // `exit 0` vs `exit 1` split with an `exit 0` vs `exit 2`
            // split, undercounting unique discrepancies.
            let status = match &outcome.results[c[0]].status {
                ExitStatus::Code(code) => format!("exit:{code}"),
                ExitStatus::Trapped(t) => return format!("{}!{t:?}", members.join("+")),
                ExitStatus::Sanitizer(fault) => format!("san:{:?}", fault.kind),
                ExitStatus::TimedOut => "timeout".to_string(),
            };
            format!("{}@{status}", members.join("+"))
        })
        .collect();
    parts.sort();
    parts.join(" | ")
}

/// [`signature_of`] prefixed with the program-source content hash
/// (`p<hash>|…`) when one is known. The prefix is what lets a
/// campaign-wide dedup set distinguish two *different programs* that
/// diverge with the same partition/status shape — without it, generated
/// programs sharing e.g. an `exit:0`-vs-`exit:1` split would collapse
/// into one bucket. A zero hash (unknown source) leaves the signature
/// unchanged, so single-program flows keep their historical form.
pub fn signature_with_hash(src_hash: u64, impls: &[CompilerImpl], outcome: &DiffOutcome) -> String {
    let base = signature_of(impls, outcome);
    if src_hash == 0 {
        base
    } else {
        format!("p{src_hash:016x}|{base}")
    }
}

/// The in-memory `diffs/` directory with signature-based bucketing.
#[derive(Debug, Default)]
pub struct DiffStore {
    discrepancies: Vec<Discrepancy>,
    by_signature: HashMap<String, Vec<usize>>,
}

impl DiffStore {
    /// Empty store.
    pub fn new() -> Self {
        DiffStore::default()
    }

    /// Records a divergent outcome; returns `true` if its signature is new
    /// (a likely-new bug). When the engine knows its source hash, the
    /// stored signature carries the `p<hash>|` program prefix (see
    /// [`signature_with_hash`]).
    pub fn record(&mut self, diff: &CompDiff, outcome: &DiffOutcome, input: &[u8]) -> bool {
        debug_assert!(outcome.divergent);
        let impls = diff.impls();
        let sig = signature_with_hash(diff.src_hash(), &impls, outcome);
        let report = Discrepancy::with_signature(&impls, outcome, input, sig.clone());
        let idx = self.discrepancies.len();
        self.discrepancies.push(report);
        let bucket = self.by_signature.entry(sig).or_default();
        bucket.push(idx);
        bucket.len() == 1
    }

    /// All saved reports.
    pub fn reports(&self) -> &[Discrepancy] {
        &self.discrepancies
    }

    /// Number of distinct signatures (the automatic unique-bug estimate).
    pub fn unique_signatures(&self) -> usize {
        self.by_signature.len()
    }

    /// One representative report per signature.
    pub fn representatives(&self) -> Vec<&Discrepancy> {
        let mut v: Vec<&Discrepancy> = self
            .by_signature
            .values()
            .map(|idxs| &self.discrepancies[idxs[0]])
            .collect();
        v.sort_by(|a, b| a.signature.cmp(&b.signature));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differ::DiffConfig;
    use minc_vm::{ExecResult, Fault, SanitizerKind};

    /// A synthetic two-implementation divergence where each class ends
    /// with the given status.
    fn outcome_with(statuses: [ExitStatus; 2]) -> DiffOutcome {
        let results: Vec<ExecResult> = statuses
            .into_iter()
            .map(|status| ExecResult {
                status,
                stdout: Vec::new(),
                steps: 1,
            })
            .collect();
        DiffOutcome {
            hashes: vec![1, 2],
            classes: vec![vec![0], vec![1]],
            divergent: true,
            unresolved_timeout: false,
            results,
        }
    }

    fn two_impls() -> Vec<CompilerImpl> {
        vec![
            CompilerImpl::parse("gcc-O0").unwrap(),
            CompilerImpl::parse("clang-O2").unwrap(),
        ]
    }

    #[test]
    fn signature_keeps_exit_codes_apart() {
        // Regression: these two outcomes differ only in one exit code and
        // used to collapse to the same "…@exit" signature.
        let impls = two_impls();
        let a = outcome_with([ExitStatus::Code(0), ExitStatus::Code(1)]);
        let b = outcome_with([ExitStatus::Code(0), ExitStatus::Code(2)]);
        let sa = signature_of(&impls, &a);
        let sb = signature_of(&impls, &b);
        assert_ne!(sa, sb, "{sa} vs {sb}");
        assert!(sa.contains("exit:1"), "{sa}");
        assert!(sb.contains("exit:2"), "{sb}");
    }

    #[test]
    fn signature_keeps_sanitizer_kinds_apart() {
        let impls = two_impls();
        let asan = outcome_with([
            ExitStatus::Code(0),
            ExitStatus::Sanitizer(Fault::new(SanitizerKind::Asan, "heap-buffer-overflow", "x")),
        ]);
        let msan = outcome_with([
            ExitStatus::Code(0),
            ExitStatus::Sanitizer(Fault::new(
                SanitizerKind::Msan,
                "use-of-uninitialized-value",
                "x",
            )),
        ]);
        let sa = signature_of(&impls, &asan);
        let sm = signature_of(&impls, &msan);
        assert_ne!(sa, sm, "{sa} vs {sm}");
        assert!(sa.contains("san:Asan"), "{sa}");
        assert!(sm.contains("san:Msan"), "{sm}");
    }

    #[test]
    fn store_buckets_exit_codes_separately() {
        // The dedup estimate must count exit-code-only differences as
        // distinct bugs.
        let diff = CompDiff::from_source(
            "int main() { return 0; }",
            &two_impls(),
            DiffConfig::default(),
        )
        .unwrap();
        let a = outcome_with([ExitStatus::Code(0), ExitStatus::Code(1)]);
        let b = outcome_with([ExitStatus::Code(0), ExitStatus::Code(2)]);
        let mut store = DiffStore::new();
        assert!(store.record(&diff, &a, b"a"));
        assert!(store.record(&diff, &b, b"b"), "distinct bucket expected");
        assert_eq!(store.unique_signatures(), 2);
    }

    #[test]
    fn record_and_bucket() {
        let src = "int main() { int u; printf(\"%d\\n\", u); return 0; }";
        let diff = CompDiff::from_source_default(src, DiffConfig::default()).unwrap();
        let out1 = diff.run_input(b"a");
        let out2 = diff.run_input(b"bb");
        assert!(out1.divergent && out2.divergent);
        let mut store = DiffStore::new();
        assert!(store.record(&diff, &out1, b"a"), "first signature is new");
        // Same bug, same partition: bucketed together.
        assert!(!store.record(&diff, &out2, b"bb"));
        assert_eq!(store.unique_signatures(), 1);
        assert_eq!(store.reports().len(), 2);
        assert_eq!(store.representatives().len(), 1);
    }

    #[test]
    fn src_hash_keeps_distinct_programs_apart() {
        // Two different programs with the *same* divergence shape: an
        // uninitialized print splitting the implementations identically.
        // The store's signatures must not collapse across programs.
        let src_a = "int main() { int u; printf(\"%d\\n\", u); return 0; }";
        let src_b = "int main() { int u; int v = 3; printf(\"%d\\n\", u + v - v); return 0; }";
        let da = CompDiff::from_source_default(src_a, DiffConfig::default()).unwrap();
        let db = CompDiff::from_source_default(src_b, DiffConfig::default()).unwrap();
        assert_ne!(da.src_hash(), 0, "from_source tags the hash");
        assert_ne!(da.src_hash(), db.src_hash());
        let (oa, ob) = (da.run_input(b""), db.run_input(b""));
        assert!(oa.divergent && ob.divergent);
        let sa = signature_with_hash(da.src_hash(), &da.impls(), &oa);
        let sb = signature_with_hash(db.src_hash(), &db.impls(), &ob);
        assert_ne!(sa, sb, "program hash must keep signatures apart");
        assert!(sa.starts_with("p"), "{sa}");
        // Unknown hash (0) leaves the historical form untouched.
        assert_eq!(
            signature_with_hash(0, &da.impls(), &oa),
            signature_of(&da.impls(), &oa)
        );
    }

    #[test]
    fn report_rendering_contains_essentials() {
        let src = r#"
            int main() {
                char b[2];
                read_input(b, 1L);
                int u;
                printf("%d\n", u);
                return 0;
            }
        "#;
        let diff = CompDiff::from_source_default(src, DiffConfig::default()).unwrap();
        let out = diff.run_input(b"q");
        assert!(out.divergent);
        let rep = Discrepancy::from_outcome(&diff.impls(), &out, b"q");
        let text = rep.render();
        assert!(text.contains("discrepancy report"));
        assert!(text.contains("gcc-O0"));
        assert!(text.contains("class:"));
    }

    #[test]
    fn signature_distinguishes_trap_patterns() {
        // Crash-vs-exit divergence gets a different signature than
        // value-vs-value divergence.
        let crashy =
            "int main() { int z = (int)input_size(); int d = 5 / z; printf(\"ok\\n\"); return 0; }";
        let valuey = "int main() { int u; printf(\"%d\\n\", u); return 0; }";
        let d1 = CompDiff::from_source_default(crashy, DiffConfig::default()).unwrap();
        let d2 = CompDiff::from_source_default(valuey, DiffConfig::default()).unwrap();
        let s1 = signature_of(&d1.impls(), &d1.run_input(b""));
        let s2 = signature_of(&d2.impls(), &d2.run_input(b""));
        assert_ne!(s1, s2);
        assert!(s1.contains("Sigfpe"), "{s1}");
    }
}
