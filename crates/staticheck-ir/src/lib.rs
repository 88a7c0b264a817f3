//! # staticheck-ir — the CompDiff unstable-code lint
//!
//! The paper's core observation is that optimizing compilers *know* when
//! they exploit undefined behaviour — they just don't tell anyone. This
//! crate turns that knowledge into a fourth static tool next to the
//! coverity/cppcheck/infer analogs, by merging two evidence channels:
//!
//! 1. **Direct IR dataflow** over a reference IR (`-O0` lowering plus
//!    `mem2reg`): uninitialized promoted-slot reads, provably oversized
//!    shifts, `a + b < a` overflow-check idioms, null checks after a
//!    dereference, and relational compares of pointers into different
//!    objects (see [`detectors`]).
//! 2. **Rewrite provenance**: every implementation's optimization
//!    pipeline is run with a [`minc_compile::RewriteLog`] attached; each
//!    UB-justified rewrite names the instruction, the justification, and
//!    the source line it came from. `UninitPromotion` entries are only
//!    surfaced when the dataflow channel saw the same junk value reach an
//!    observable use — a promotion alone is not evidence of a bug.
//!
//! Findings from the two channels are deduplicated by `(line, defect)`,
//! so one source bug is one finding no matter how many implementations
//! rewrote it.
//!
//! ```
//! let src = r#"
//!     int main() {
//!         int a = getchar();
//!         int b = getchar();
//!         int s = a + b;
//!         if (s < a) { printf("overflow\n"); return 1; }
//!         printf("%d\n", s);
//!         return 0;
//!     }
//! "#;
//! let findings = staticheck_ir::UnstableLint::new().run_source(src).unwrap();
//! assert!(findings
//!     .iter()
//!     .any(|f| f.finding.defect == staticheck::Defect::IntegerOverflow));
//! ```

#![warn(missing_docs)]
pub mod dataflow;
pub mod detectors;
pub mod domains;
pub mod summaries;
pub mod ubmap;

pub use detectors::IrFinding;
pub use summaries::{FnSummaries, FnSummary};
pub use ubmap::{Certainty, UbClass, UbSite, UbSiteMap};

use minc::{CheckedProgram, FrontendError, Span};
use minc_compile::personality::{CompilerImpl, Family, OptLevel, PassKind};
use minc_compile::{optimize_all, IrProgram, RewriteLog, UbReason};
use staticheck::{Defect, Finding, Tool};
use std::collections::BTreeMap;

/// Which evidence channel(s) produced a lint finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Direct IR dataflow on the reference IR.
    Dataflow,
    /// An optimizer's rewrite-provenance log.
    Provenance,
    /// Both channels agreed on the line and defect.
    Both,
}

impl std::fmt::Display for Origin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Origin::Dataflow => "dataflow",
            Origin::Provenance => "provenance",
            Origin::Both => "dataflow+provenance",
        })
    }
}

/// One merged lint finding.
#[derive(Debug, Clone)]
pub struct LintFinding {
    /// The finding, attributed to [`Tool::CompdiffLint`].
    pub finding: Finding,
    /// Which channel(s) contributed.
    pub origin: Origin,
    /// Implementations whose rewrite logs contributed evidence (sorted,
    /// empty for dataflow-only findings).
    pub impls: Vec<String>,
}

/// The unstable-code lint: configure which implementations feed the
/// provenance channel, then [`run`](UnstableLint::run).
#[derive(Debug, Clone)]
pub struct UnstableLint {
    /// Implementations whose pipelines feed the provenance channel.
    pub impls: Vec<CompilerImpl>,
}

impl Default for UnstableLint {
    fn default() -> Self {
        Self::new()
    }
}

impl UnstableLint {
    /// A lint over the paper's default ten implementations (`-O0`
    /// pipelines are empty, so they contribute nothing but cost nothing).
    pub fn new() -> Self {
        UnstableLint {
            impls: CompilerImpl::default_set(),
        }
    }

    /// Lints a checked program, returning findings sorted by
    /// `(line, defect, message)`.
    pub fn run(&self, checked: &CheckedProgram) -> Vec<LintFinding> {
        UnstableLint::run_with_logs(checked, &rewrite_logs(checked, &self.impls))
    }

    /// [`run`](UnstableLint::run) over rewrite logs the caller already
    /// has: `logs` are the provenance channel, one per implementation in
    /// order, as [`optimize_all`] returns them. Callers that also need
    /// the optimized IR (progen's fitness, the campaign cache) build the
    /// implementations once and pass the logs here.
    pub fn run_with_logs(checked: &CheckedProgram, logs: &[RewriteLog]) -> Vec<LintFinding> {
        // Channel 1: dataflow over the reference IR.
        let reference = reference_ir(checked);
        let direct = detectors::scan_program(&detectors::ProgramFacts::of(&reference));
        let junk_seen = detectors::observed_junk_ids(&direct);

        // Channel 2: rewrite provenance from every implementation.
        let entries = logs
            .iter()
            .flat_map(|log| &log.entries)
            .filter(|e| match e.reason {
                // A promotion is only a bug if the junk value is observably
                // *read*; the dataflow channel supplies that corroboration.
                UbReason::UninitPromotion => junk_seen.contains(&e.key),
                _ => true,
            });

        // Merge, deduplicating by (line, defect).
        #[derive(Default)]
        struct Slot {
            message: String,
            origin: Option<Origin>,
            impls: Vec<String>,
        }
        let mut merged: BTreeMap<(u32, String), Slot> = BTreeMap::new();
        for d in &direct {
            let slot = merged.entry((d.line, d.defect.to_string())).or_default();
            slot.message = d.message.clone();
            slot.origin = Some(Origin::Dataflow);
        }
        for e in entries {
            let defect = provenance_defect(e.reason);
            let slot = merged.entry((e.line, defect.to_string())).or_default();
            match slot.origin {
                Some(Origin::Dataflow) | Some(Origin::Both) => slot.origin = Some(Origin::Both),
                _ => {
                    slot.origin = Some(Origin::Provenance);
                    slot.message = e.detail.clone();
                }
            }
            let name = e.impl_id.to_string();
            if !slot.impls.contains(&name) {
                slot.impls.push(name);
            }
        }

        merged
            .into_iter()
            .map(|((line, defect_name), mut slot)| {
                slot.impls.sort();
                LintFinding {
                    finding: Finding::new(
                        Tool::CompdiffLint,
                        Defect::parse(&defect_name).expect("keys are defect names"),
                        Span::new(0, 0, line),
                        slot.message,
                    ),
                    origin: slot.origin.unwrap_or(Origin::Dataflow),
                    impls: slot.impls,
                }
            })
            .collect()
    }

    /// Parses, checks, and lints source.
    ///
    /// # Errors
    ///
    /// Returns the frontend error if the source does not parse or check.
    pub fn run_source(&self, src: &str) -> Result<Vec<LintFinding>, FrontendError> {
        let checked = minc::check(src)?;
        Ok(self.run(&checked))
    }
}

/// The IR both evidence channels' dataflow runs on: the `-O0` lowering
/// plus `mem2reg`, with no copy propagation, so junk stays explicit and
/// registers keep their source lines.
pub fn reference_ir(checked: &CheckedProgram) -> IrProgram {
    let p0 = CompilerImpl::new(Family::Gcc, OptLevel::O0).personality();
    let mut reference = minc_compile::lower::lower(checked, &p0);
    minc_compile::passes::run_pass(&mut reference, PassKind::Mem2Reg, &p0);
    reference
}

/// Each implementation's rewrite log over `checked`, in `impls` order.
pub(crate) fn rewrite_logs(checked: &CheckedProgram, impls: &[CompilerImpl]) -> Vec<RewriteLog> {
    optimize_all(checked, impls)
        .into_iter()
        .map(|(_, log)| log)
        .collect()
}

/// Maps a rewrite justification to the shared defect taxonomy.
pub fn provenance_defect(reason: UbReason) -> Defect {
    match reason {
        UbReason::SignedOverflowCheck => Defect::IntegerOverflow,
        UbReason::NullCheckAfterDeref => Defect::NullDeref,
        UbReason::OversizedShift => Defect::BadShift,
        UbReason::UninitPromotion => Defect::Uninitialized,
        UbReason::UnrollTripCount => Defect::MiscompiledLoop,
    }
}

/// Renders findings one per line, deterministically — the shape both the
/// CLI and the CI determinism gate rely on.
pub fn render(findings: &[LintFinding]) -> String {
    let mut s = String::new();
    for f in findings {
        s.push_str(&format!(
            "line {:>4}: [{}] {} ({}",
            f.finding.span.line, f.finding.defect, f.finding.message, f.origin
        ));
        if !f.impls.is_empty() {
            s.push_str(&format!("; {}", f.impls.join(",")));
        }
        s.push_str(")\n");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<LintFinding> {
        UnstableLint::new().run_source(src).unwrap()
    }

    fn has(findings: &[LintFinding], defect: Defect) -> bool {
        findings.iter().any(|f| f.finding.defect == defect)
    }

    #[test]
    fn uninit_read_found_by_both_channels() {
        let f = lint("int main() { int u; printf(\"%d\\n\", u); return 0; }");
        let u = f
            .iter()
            .find(|f| f.finding.defect == Defect::Uninitialized)
            .expect("uninit finding");
        assert_eq!(u.origin, Origin::Both, "{:?}", f);
        // Nine optimizing implementations promote the slot.
        assert!(!u.impls.is_empty());
    }

    #[test]
    fn initialized_local_is_clean() {
        let f = lint("int main() { int u = 3; printf(\"%d\\n\", u); return 0; }");
        assert!(!has(&f, Defect::Uninitialized), "{f:?}");
    }

    #[test]
    fn promotion_without_read_is_not_a_finding() {
        // `w` is written before every read: mem2reg still promotes it (and
        // logs the promotion), but no junk reaches an observable use, so
        // the provenance entry must be suppressed.
        let f = lint("int main() { int w; w = 2; printf(\"%d\\n\", w); return 0; }");
        assert!(!has(&f, Defect::Uninitialized), "{f:?}");
    }

    #[test]
    fn overflow_check_idiom_found() {
        let src = r#"
            int main() {
                int a = getchar();
                int b = getchar();
                int s = a + b;
                if (s < a) { printf("overflow\n"); return 1; }
                printf("%d\n", s);
                return 0;
            }
        "#;
        let f = lint(src);
        let o = f
            .iter()
            .find(|f| f.finding.defect == Defect::IntegerOverflow)
            .expect("overflow-check finding");
        assert_eq!(o.origin, Origin::Both, "{f:?}");
        assert_eq!(o.finding.span.line, 6, "the `if (s < a)` line");
    }

    #[test]
    fn null_check_after_deref_found() {
        let src = r#"
            int f(int* p) {
                int v = *p;
                if (p == 0) { return -1; }
                return v;
            }
            int main() {
                int x = 7;
                printf("%d\n", f(&x));
                return 0;
            }
        "#;
        let f = lint(src);
        assert!(has(&f, Defect::NullDeref), "{f:?}");
    }

    #[test]
    fn oversized_shift_found() {
        let f = lint("int main() { int x = getchar(); printf(\"%d\\n\", x << 33); return 0; }");
        let s = f
            .iter()
            .find(|f| f.finding.defect == Defect::BadShift)
            .expect("bad-shift finding");
        assert!(
            matches!(s.origin, Origin::Both | Origin::Provenance),
            "{f:?}"
        );
    }

    #[test]
    fn cross_object_pointer_compare_found() {
        let src = r#"
            int G_A;
            int G_B;
            int main() {
                if ((char*)&G_A < (char*)&G_B) { printf("a\n"); }
                else { printf("b\n"); }
                return 0;
            }
        "#;
        let f = lint(src);
        assert!(has(&f, Defect::PointerCompare), "{f:?}");
    }

    #[test]
    fn clean_program_is_clean() {
        let src = r#"
            int main() {
                int i;
                int acc = 0;
                for (i = 0; i < 10; i++) { acc += i; }
                printf("%d\n", acc);
                return 0;
            }
        "#;
        let f = lint(src);
        assert!(f.is_empty(), "{}", render(&f));
    }

    #[test]
    fn map_and_lint_run_each_analysis_once_per_function() {
        // Three fixpoints per function for the summaries, then one per
        // analysis, shared by the detectors and the map's collectors.
        let programs = [
            r#"
            int step(int k) { int u; if (k > 8) { return u; } return k + 1; }
            int main() {
                int i = 0;
                while (i < 10) { i = step(i); }
                printf("%d %d\n", i, i << 40);
                return 0;
            }
        "#,
            r#"
            int sum(int* p, int n) {
                int acc = 0;
                int i;
                for (i = 0; i < n; i++) { acc += p[i]; }
                if (p == 0) { return -1; }
                return acc;
            }
            int main() {
                int a[3];
                a[0] = 1; a[1] = 2; a[2] = 3;
                printf("%d\n", sum(a, 3) / (int)input_size());
                return 0;
            }
        "#,
        ];
        for src in programs {
            let checked = minc::check(src).unwrap();
            let logs = rewrite_logs(&checked, &CompilerImpl::default_set());
            let expect = 6 * reference_ir(&checked).functions.len();
            let fixpoints = |run: &dyn Fn()| {
                dataflow::FIXPOINTS.with(|c| c.set(0));
                run();
                dataflow::FIXPOINTS.with(|c| c.get())
            };
            let map = fixpoints(&|| {
                UbSiteMap::build_with_logs(&checked, &logs);
            });
            let lint = fixpoints(&|| {
                UnstableLint::run_with_logs(&checked, &logs);
            });
            assert_eq!((map, lint), (expect, expect), "{src}");
        }
    }

    #[test]
    fn output_is_deterministic() {
        let src = r#"
            int main() {
                int u;
                int a = getchar();
                int b = getchar();
                int s = a + b;
                if (s < a) { return 1; }
                printf("%d %d\n", s, u);
                return 0;
            }
        "#;
        let a = render(&lint(src));
        let b = render(&lint(src));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
