//! # sancheck — the sanitizer meta-oracle
//!
//! The paper treats sanitizers as ground truth for "did UB execute?".
//! That is only safe if the sanitizers themselves are trustworthy, so
//! this crate turns the tables and *checks the checkers*: it builds the
//! static UB ground-truth map ([`staticheck_ir::UbSiteMap`]) for a
//! program, runs every compiler implementation's sanitizer-instrumented
//! build under each sanitizer analog, and diffs the dynamic verdicts
//! against the static map and against each other:
//!
//! * a sanitizer staying **silent on a `must` site** in its scope is a
//!   false negative ([`FnFinding`]);
//! * a sanitizer **firing a class the map refutes** (statically covered,
//!   fully decided, zero sites) is a false alarm ([`FpFinding`]);
//! * implementations **disagreeing about one sanitizer's verdict** form
//!   a [`Divergence`] — a new defect class with a content-hashed
//!   signature, the sanitizer-level analog of the paper's differential
//!   discrepancies. The usual cause is an optimizer legally deleting a
//!   dead UB operation that the `-O0` build still executes.
//!
//! The harness is validated by its own fault injection
//! ([`faults::SanFaultPlan`]): regression tests plant suppressed and
//! spurious reports and assert the meta-oracle flags each one.

#![warn(missing_docs)]

pub mod faults;
pub mod json;

pub use faults::{PlannedSan, SanFault, SanFaultPlan};

use compdiff::hash64;
use minc::{CheckedProgram, FrontendError};
use minc_compile::personality::CompilerImpl;
use minc_compile::{Binary, Personality};
use minc_vm::result::{Fault, SanitizerKind, Trap};
use minc_vm::{ExecResult, ExecSession, ExitStatus, VmConfig};
use sanitizers::{Asan, Msan, Ubsan};
use staticheck_ir::ubmap::{self, UbClass};
use staticheck_ir::{Certainty, UbSiteMap};
use std::collections::BTreeMap;

/// The sanitizers, in the fixed order every scan uses.
pub const SAN_KINDS: [SanitizerKind; 3] = SanitizerKind::ALL;

/// The UB classes a sanitizer is *supposed* to catch (paper Table 1).
/// Silence outside the scope proves nothing.
pub fn scope(kind: SanitizerKind) -> &'static [UbClass] {
    match kind {
        SanitizerKind::Msan => &[UbClass::Uninit],
        SanitizerKind::Ubsan => &[
            UbClass::SignedOverflow,
            UbClass::OversizedShift,
            UbClass::DivByZero,
            UbClass::NullDeref,
        ],
        SanitizerKind::Asan => &[
            UbClass::OutOfBounds,
            UbClass::UseAfterFree,
            UbClass::DoubleFree,
            UbClass::BadFree,
        ],
    }
}

/// Meta-oracle configuration.
#[derive(Debug, Clone)]
pub struct SancheckConfig {
    /// Implementations to build and cross-check (also the provenance
    /// channel of the UB-site map).
    pub impls: Vec<CompilerImpl>,
    /// Input fed to every run.
    pub input: Vec<u8>,
    /// Planted sanitizer defects (empty = honest sanitizers).
    pub fault_plan: SanFaultPlan,
    /// VM limits.
    pub vm: VmConfig,
}

impl Default for SancheckConfig {
    fn default() -> Self {
        SancheckConfig {
            impls: CompilerImpl::default_set(),
            input: Vec::new(),
            fault_plan: SanFaultPlan::default(),
            vm: VmConfig::default(),
        }
    }
}

/// One (implementation × sanitizer) run outcome.
#[derive(Debug, Clone)]
pub struct SanVerdict {
    /// The implementation whose sanitized build ran.
    pub impl_id: CompilerImpl,
    /// The sanitizer.
    pub kind: SanitizerKind,
    /// How the run ended.
    pub status: ExitStatus,
    /// The sanitizer report, if it fired.
    pub fired: Option<Fault>,
}

impl SanVerdict {
    /// Canonical verdict string (the divergence-grouping key).
    pub fn verdict(&self) -> String {
        match &self.fired {
            Some(f) => format!("fired:{}", f.category),
            None => "silent".to_string(),
        }
    }
}

/// A sanitizer stayed silent on a `must` UB site in its scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnFinding {
    /// The implementation whose build missed it.
    pub impl_id: CompilerImpl,
    /// The silent sanitizer.
    pub kind: SanitizerKind,
    /// The missed UB class.
    pub class: UbClass,
    /// Source line of the (first) missed must-site.
    pub line: u32,
}

/// A sanitizer fired a class the static map refutes for this program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FpFinding {
    /// The implementation whose build fired.
    pub impl_id: CompilerImpl,
    /// The firing sanitizer.
    pub kind: SanitizerKind,
    /// The refuted UB class.
    pub class: UbClass,
    /// The report's category string.
    pub category: String,
}

/// Implementations disagreeing about one sanitizer's verdict — the
/// `SanitizerDivergence` defect class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The sanitizer whose verdict split.
    pub kind: SanitizerKind,
    /// Content-hashed signature (`s<hash>|p<src>|san:<kind>|...`),
    /// stable across runs and machines.
    pub signature: String,
    /// Verdict -> implementation display names, both sorted.
    pub groups: Vec<(String, Vec<String>)>,
}

/// Everything the meta-oracle concluded about one program.
#[derive(Debug, Clone)]
pub struct SancheckReport {
    /// The static UB ground-truth map.
    pub map: UbSiteMap,
    /// Every (impl × sanitizer) verdict, in scan order.
    pub verdicts: Vec<SanVerdict>,
    /// Sanitizer false negatives.
    pub false_negatives: Vec<FnFinding>,
    /// Sanitizer false alarms.
    pub false_positives: Vec<FpFinding>,
    /// Cross-implementation verdict splits.
    pub divergences: Vec<Divergence>,
}

impl SancheckReport {
    /// The one-line machine-greppable summary.
    pub fn summary(&self) -> String {
        format!(
            "sancheck: sites={} must={} san_fn={} san_fp={} verdict_splits={} contradictions={}",
            self.map.sites.len(),
            self.map
                .sites
                .iter()
                .filter(|s| s.certainty == Certainty::Must)
                .count(),
            self.false_negatives.len(),
            self.false_positives.len(),
            self.divergences.len(),
            self.map.contradictions.len(),
        )
    }

    /// Deterministic human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.summary());
        out.push('\n');
        out.push_str(&self.map.render());
        for v in &self.verdicts {
            out.push_str(&format!(
                "  verdict {} x {}: {}\n",
                v.impl_id,
                v.kind,
                v.verdict()
            ));
        }
        for f in &self.false_negatives {
            out.push_str(&format!(
                "  FALSE NEGATIVE: {} stayed silent under {} on must-site {} at line {}\n",
                f.kind, f.impl_id, f.class, f.line
            ));
        }
        for f in &self.false_positives {
            out.push_str(&format!(
                "  FALSE ALARM: {} under {} reported {} ({}), statically refuted\n",
                f.kind, f.impl_id, f.category, f.class
            ));
        }
        for d in &self.divergences {
            out.push_str(&format!(
                "  SANITIZER DIVERGENCE [{}] {}\n",
                d.kind, d.signature
            ));
            for (verdict, impls) in &d.groups {
                out.push_str(&format!("    {} <- {}\n", verdict, impls.join("+")));
            }
        }
        out
    }
}

/// `impl_id`'s personality with ASan-style frame padding, so stack
/// redzones exist. Only [`Binary::link`]'s frame placement reads
/// `slot_padding`, so the sanitized build shares the plain build's
/// lowering and pipeline.
pub fn sanitized_personality(impl_id: CompilerImpl) -> Personality {
    let mut p = impl_id.personality();
    p.slot_padding = p.slot_padding.max(16);
    p
}

/// Builds `impl_id`'s *sanitized* binary: the implementation's own
/// pipeline (so optimizer-deleted UB stays deleted, which is what makes
/// verdicts diverge) linked with [`sanitized_personality`].
pub fn compile_sanitized_for(checked: &CheckedProgram, impl_id: CompilerImpl) -> Binary {
    minc_compile::compile_with_personality(checked, sanitized_personality(impl_id))
}

/// Runs `bin` once under `kind`, with `plan`'s planted defects, in a
/// session kept across the build's runs.
fn run_planned(
    session: &mut ExecSession,
    bin: &Binary,
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

/// Whether a silent sanitizer can be *blamed* for this run: judging a
/// false negative needs the run to have actually reached the site. A
/// normal exit reached everything on the unconditional path; a trap of
/// the site's own class proves the UB executed uncaught; any other trap
/// or a timeout means execution may have died earlier, so no judgment.
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

/// Runs the full meta-oracle over a checked program.
///
/// `src_hash` keys divergence signatures to the program (pass
/// [`compdiff::hash64`] of the source bytes, or 0 to omit).
pub fn check_program(
    checked: &CheckedProgram,
    src_hash: u64,
    config: &SancheckConfig,
) -> SancheckReport {
    // One shared build of every impl: each log feeds the map, each IR
    // becomes that impl's sanitized binary, and one session runs the
    // three sanitizers. Each IR is dropped with its binary once run.
    let mut logs = Vec::with_capacity(config.impls.len());
    let mut verdicts: Vec<SanVerdict> = Vec::new();
    let built = minc_compile::optimize_all(checked, &config.impls);
    for ((ir, log), &impl_id) in built.into_iter().zip(&config.impls) {
        logs.push(log);
        let bin = Binary::link(ir, sanitized_personality(impl_id));
        let mut session = ExecSession::new(&bin);
        for kind in SAN_KINDS {
            let r = run_planned(
                &mut session,
                &bin,
                &config.input,
                &config.vm,
                kind,
                &config.fault_plan,
            );
            let fired = match &r.status {
                ExitStatus::Sanitizer(f) => Some(f.clone()),
                _ => None,
            };
            verdicts.push(SanVerdict {
                impl_id,
                kind,
                status: r.status,
                fired,
            });
        }
    }
    let map = UbSiteMap::build_with_logs(checked, &logs);

    // False negatives: silence on a must-site in scope.
    let mut false_negatives = Vec::new();
    for v in &verdicts {
        if v.fired.is_some() {
            continue;
        }
        for &class in scope(v.kind) {
            let must_line = map
                .sites
                .iter()
                .find(|s| s.class == class && s.certainty == Certainty::Must)
                .map(|s| s.line);
            if let Some(line) = must_line {
                if fn_judgeable(&v.status, class) {
                    false_negatives.push(FnFinding {
                        impl_id: v.impl_id,
                        kind: v.kind,
                        class,
                        line,
                    });
                }
            }
        }
    }

    // False alarms: a fired class the static map refutes.
    let mut false_positives = Vec::new();
    for v in &verdicts {
        let Some(f) = &v.fired else { continue };
        let Some(class) = ubmap::class_of_category(&f.category) else {
            continue; // category outside the taxonomy: not judgeable
        };
        if map.refutes(class) {
            false_positives.push(FpFinding {
                impl_id: v.impl_id,
                kind: v.kind,
                class,
                category: f.category.clone(),
            });
        }
    }

    // Divergences: per sanitizer, group impls by verdict string.
    let mut divergences = Vec::new();
    for kind in SAN_KINDS {
        let mut groups: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for v in verdicts.iter().filter(|v| v.kind == kind) {
            groups
                .entry(v.verdict())
                .or_default()
                .push(v.impl_id.to_string());
        }
        if groups.len() > 1 {
            for impls in groups.values_mut() {
                impls.sort();
            }
            let parts: Vec<String> = groups
                .iter()
                .map(|(verdict, impls)| format!("{}@{verdict}", impls.join("+")))
                .collect();
            let base = format!("p{src_hash:016x}|san:{}|{}", kind, parts.join(" | "));
            divergences.push(Divergence {
                kind,
                signature: format!("s{:016x}|{base}", hash64(base.as_bytes())),
                groups: groups.into_iter().collect(),
            });
        }
    }

    SancheckReport {
        map,
        verdicts,
        false_negatives,
        false_positives,
        divergences,
    }
}

/// [`check_program`] from source text; the divergence signatures are
/// keyed by the source hash.
pub fn check_source(src: &str, config: &SancheckConfig) -> Result<SancheckReport, FrontendError> {
    let checked = minc::check(src)?;
    Ok(check_program(&checked, hash64(src.as_bytes()), config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minc_compile::personality::{Family, OptLevel};

    fn impls(names: &[&str]) -> Vec<CompilerImpl> {
        names
            .iter()
            .map(|n| CompilerImpl::parse(n).expect("valid impl"))
            .collect()
    }

    fn config_with(names: &[&str], plan: &str) -> SancheckConfig {
        SancheckConfig {
            impls: impls(names),
            fault_plan: SanFaultPlan::parse(plan).unwrap(),
            ..SancheckConfig::default()
        }
    }

    const CLEAN: &str = r#"
        int main() {
            int x = 1 + 2;
            printf("%d\n", x);
            return 0;
        }
    "#;

    const UNINIT_BRANCH: &str = r#"
        int main() {
            int u;
            if (u > 0) { printf("y\n"); }
            return 0;
        }
    "#;

    // The divergence witness: the division's result is dead, so
    // aggressive pipelines legally delete the division while `-O0` still
    // executes it — UBSan fires at O0 and stays silent at O2.
    const DEAD_DIV: &str = r#"
        int main() {
            int z = (int)input_size();
            int t = 5 / z;
            printf("ok\n");
            return 0;
        }
    "#;

    #[test]
    fn clean_program_yields_no_findings() {
        let report = check_source(CLEAN, &config_with(&["gcc-O0", "gcc-O2"], "")).unwrap();
        assert!(
            report.false_negatives.is_empty(),
            "{:?}",
            report.false_negatives
        );
        assert!(
            report.false_positives.is_empty(),
            "{:?}",
            report.false_positives
        );
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
    }

    /// Defined programs whose `I32` arithmetic wraps or zero-extends a
    /// negative value. An interval domain that kept the unwrapped range
    /// proved each shift oversized: a lint finding and a must-site every
    /// silent UBSan was charged with.
    const WRAPPED_SHIFT_AMOUNTS: [&str; 2] = [
        r#"
        int main() {
            unsigned int a = 2147483647;
            unsigned int b = a + a;
            int c = (int)b;
            int r = 8 >> (c + 4);
            printf("%d\n", r);
            return 0;
        }
    "#,
        r#"
        int main() {
            unsigned int u = (unsigned int)-1;
            long l = u;
            long r = 8L >> (l - 4294967292L);
            printf("%ld %ld\n", l, r);
            return 0;
        }
    "#,
    ];

    #[test]
    fn wrapped_shift_amounts_are_not_ub() {
        for src in WRAPPED_SHIFT_AMOUNTS {
            let checked = minc::check(src).unwrap();
            let lint = staticheck_ir::UnstableLint::new().run(&checked);
            assert!(lint.is_empty(), "{}", staticheck_ir::render(&lint));
            let report = check_program(&checked, 0, &SancheckConfig::default());
            assert!(report.map.sites.is_empty(), "{}", report.map.render());
            assert!(
                report.false_negatives.is_empty(),
                "{:?}",
                report.false_negatives
            );
        }
    }

    #[test]
    fn dead_ub_operation_splits_sanitizer_verdicts() {
        let report = check_source(DEAD_DIV, &config_with(&["gcc-O0", "gcc-O2"], "")).unwrap();
        let div = report
            .divergences
            .iter()
            .find(|d| d.kind == SanitizerKind::Ubsan)
            .expect("UBSan verdict split");
        assert!(div.signature.starts_with('s'));
        assert_eq!(div.groups.len(), 2);
        assert!(
            div.groups
                .iter()
                .any(|(v, _)| v == "fired:integer-divide-by-zero"),
            "{:?}",
            div.groups
        );
        // Deterministic signature across runs.
        let again = check_source(DEAD_DIV, &config_with(&["gcc-O0", "gcc-O2"], "")).unwrap();
        assert_eq!(
            again.divergences[0].signature,
            report.divergences[0].signature
        );
    }

    #[test]
    fn suppressed_msan_report_is_flagged_as_false_negative() {
        let honest = check_source(UNINIT_BRANCH, &config_with(&["gcc-O0", "gcc-O2"], "")).unwrap();
        let planted = check_source(
            UNINIT_BRANCH,
            &config_with(&["gcc-O0", "gcc-O2"], "suppress@msan"),
        )
        .unwrap();
        assert!(
            planted.false_negatives.len() > honest.false_negatives.len(),
            "planted FNs not detected: honest={:?} planted={:?}",
            honest.false_negatives,
            planted.false_negatives
        );
        assert!(planted
            .false_negatives
            .iter()
            .any(|f| f.kind == SanitizerKind::Msan && f.class == UbClass::Uninit));
        // The suppression also splits verdicts against nothing — both
        // impls are suppressed alike, so no *extra* divergence appears
        // relative to the honest run for MSan.
        let msan_div =
            |r: &SancheckReport| r.divergences.iter().any(|d| d.kind == SanitizerKind::Msan);
        assert_eq!(msan_div(&honest), msan_div(&planted));
    }

    #[test]
    fn spurious_ubsan_report_is_flagged_as_false_alarm() {
        let planted = check_source(
            CLEAN,
            &config_with(&["gcc-O0"], "fire@ubsan:shift-out-of-bounds#1"),
        )
        .unwrap();
        assert!(
            planted
                .false_positives
                .iter()
                .any(|f| f.kind == SanitizerKind::Ubsan
                    && f.class == UbClass::OversizedShift
                    && f.category == "shift-out-of-bounds"),
            "planted FP not detected: {:?}",
            planted.false_positives
        );
    }

    #[test]
    fn injection_needs_a_real_check_to_ride_on() {
        // A fire rule keyed to an ordinal past the program's last check
        // callback never triggers: injection rides existing checks, it
        // does not invent new program points.
        let planted = check_source(
            CLEAN,
            &config_with(&["gcc-O0", "gcc-O2"], "fire@ubsan:shift-out-of-bounds#999"),
        )
        .unwrap();
        assert!(
            planted.false_positives.is_empty(),
            "{:?}",
            planted.false_positives
        );
        assert!(planted.divergences.is_empty(), "{:?}", planted.divergences);
        assert!(planted.verdicts.iter().all(|v| v.verdict() == "silent"));
    }

    #[test]
    fn report_and_summary_are_deterministic() {
        let cfg = config_with(&["gcc-O0", "clang-O2"], "");
        let a = check_source(DEAD_DIV, &cfg).unwrap();
        let b = check_source(DEAD_DIV, &cfg).unwrap();
        assert_eq!(a.render(), b.render());
        assert!(a.summary().starts_with("sancheck: sites="));
        assert!(a.summary().contains("verdict_splits="));
    }

    #[test]
    fn must_site_class_in_scope_only_blames_scoped_sanitizers() {
        // ASan is never blamed for an arithmetic must-site.
        let report = check_source(
            UNINIT_BRANCH,
            &config_with(&["gcc-O0"], "suppress@msan,suppress@ubsan,suppress@asan"),
        )
        .unwrap();
        assert!(report
            .false_negatives
            .iter()
            .all(|f| f.kind == SanitizerKind::Msan));
    }

    #[test]
    fn impl_parse_helper_sanity() {
        assert_eq!(
            impls(&["gcc-O0"])[0],
            CompilerImpl::new(Family::Gcc, OptLevel::O0)
        );
    }
}
