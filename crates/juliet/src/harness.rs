//! The evaluation harness behind Tables 2 and 3 and Figure 1.
//!
//! For each test it runs: the three static analyzer analogs (bad + good
//! variants, for detection and false-positive rates), the IR-level
//! CompDiff lint (the fourth static column), the three sanitizer analogs
//! (bad + good), the sanitizer meta-oracle (the fifth column: per-tool
//! miss/false-alarm rates judged against the static UB ground-truth
//! map), and CompDiff over the ten compiler implementations (bad + good,
//! recording the per-implementation hash vector that Figure 1's subset
//! analysis consumes).

use crate::generators::generate;
use crate::model::{Cwe, Group, JulietTest};
use compdiff::{CompDiff, DiffConfig, HashVector, Json};
use minc_vm::{ExitStatus, SanitizerKind, VmConfig};
use staticheck::{Defect, Tool};

/// Builds the suite at a given scale (`1.0` = the paper's 18,142 tests;
/// every CWE keeps at least 8 tests so variant mixes stay represented).
pub fn suite(scale: f64) -> Vec<JulietTest> {
    let mut out = Vec::new();
    for cwe in Cwe::ALL {
        let n = ((cwe.paper_count() as f64 * scale).round() as usize).max(8);
        for i in 0..n {
            out.push(generate(cwe, i));
        }
    }
    out
}

/// Per-test evaluation outcome.
#[derive(Debug, Clone)]
pub struct TestEval {
    /// Test id.
    pub id: String,
    /// CWE.
    pub cwe: Cwe,
    /// Static tools: detected on bad? (coverity, cppcheck, infer)
    pub static_det: [bool; 3],
    /// Static tools: false alarm on good?
    pub static_fp: [bool; 3],
    /// CompDiff lint (staticheck-ir): detected on bad?
    pub lint_det: bool,
    /// CompDiff lint: false alarm on good?
    pub lint_fp: bool,
    /// Sanitizers: detected on bad? (asan, ubsan, msan)
    pub san_det: [bool; 3],
    /// Sanitizers: false alarm on good?
    pub san_fp: [bool; 3],
    /// Meta-oracle: sanitizer missed a group-relevant `must` UB site on
    /// the bad variant (judged against the static UB ground-truth map).
    pub san_miss: [bool; 3],
    /// Meta-oracle: sanitizer fired a statically refuted class on the
    /// good variant.
    pub san_fa: [bool; 3],
    /// CompDiff: divergence on bad?
    pub compdiff_det: bool,
    /// CompDiff: divergence on good (must stay false — Finding 5)?
    pub compdiff_fp: bool,
    /// Per-implementation output hashes on the bad variant (Figure 1).
    pub hashes: HashVector,
}

/// Defect classes that count as a detection for each Table 3 group
/// (prevents cross-crediting a tool for an unrelated incidental finding).
pub fn relevant_defects(group: Group) -> &'static [Defect] {
    match group {
        Group::MemoryError => &[
            Defect::OutOfBounds,
            Defect::UseAfterFree,
            Defect::DoubleFree,
            Defect::BadFree,
        ],
        Group::BadApiInput => &[Defect::BadApiUsage],
        Group::BadStructPointer => &[Defect::OutOfBounds],
        Group::BadFunctionCall => &[Defect::FormatMismatch],
        Group::UndefinedBehavior => &[Defect::BadShift, Defect::MissingReturn],
        Group::IntegerError => &[Defect::IntegerOverflow],
        Group::DivideByZero => &[Defect::DivByZero],
        Group::NullDeref => &[Defect::NullDeref],
        Group::UninitializedMemory => &[Defect::Uninitialized],
        Group::PointerSubtraction => &[Defect::PointerSubtraction],
    }
}

/// Evaluates one test with every tool.
pub fn evaluate(test: &JulietTest, vm: &VmConfig) -> TestEval {
    let group = test.cwe.group();
    let relevant = relevant_defects(group);

    // Static analysis (source only).
    let tools = [Tool::CoveritySim, Tool::CppcheckSim, Tool::InferSim];
    let mut static_det = [false; 3];
    let mut static_fp = [false; 3];
    let lint = staticheck_ir::UnstableLint::new();
    let mut lint_det = false;
    let mut lint_fp = false;
    if let Ok(checked) = minc::check(&test.bad) {
        for (t, out) in tools.iter().zip(static_det.iter_mut()) {
            *out = staticheck::run_tool(&checked, *t)
                .iter()
                .any(|f| relevant.contains(&f.defect));
        }
        lint_det = lint
            .run(&checked)
            .iter()
            .any(|f| relevant.contains(&f.finding.defect));
    }
    if let Ok(checked) = minc::check(&test.good) {
        for (t, out) in tools.iter().zip(static_fp.iter_mut()) {
            *out = staticheck::run_tool(&checked, *t)
                .iter()
                .any(|f| relevant.contains(&f.defect));
        }
        lint_fp = lint
            .run(&checked)
            .iter()
            .any(|f| relevant.contains(&f.finding.defect));
    }

    // Sanitizers (separate instrumented builds, like -fsanitize).
    let mut san_det = [false; 3];
    let mut san_fp = [false; 3];
    if let Ok(bin) = sanitizers::compile_sanitized(&test.bad) {
        for (k, out) in SanitizerKind::ALL.into_iter().zip(san_det.iter_mut()) {
            let r = sanitizers::run_sanitized(&bin, b"", vm, k);
            *out = matches!(r.status, ExitStatus::Sanitizer(_));
        }
    }
    if let Ok(bin) = sanitizers::compile_sanitized(&test.good) {
        for (k, out) in SanitizerKind::ALL.into_iter().zip(san_fp.iter_mut()) {
            let r = sanitizers::run_sanitized(&bin, b"", vm, k);
            *out = matches!(r.status, ExitStatus::Sanitizer(_));
        }
    }

    // Sanitizer meta-oracle: judge each sanitizer against the static UB
    // ground-truth map. The reference build (`gcc-O0` never deletes UB)
    // is the fairest "sanitizer as intended" target; misses are
    // restricted to group-relevant classes so a tool is not blamed for
    // an incidental site outside the row's defect family.
    let scfg = sancheck::SancheckConfig {
        impls: vec![minc_compile::CompilerImpl::parse("gcc-O0").expect("gcc-O0 is valid")],
        vm: vm.clone(),
        ..sancheck::SancheckConfig::default()
    };
    let relevant_classes: Vec<staticheck_ir::UbClass> = relevant
        .iter()
        .filter_map(|d| staticheck_ir::ubmap::class_of_defect(*d))
        .collect();
    let mut san_miss = [false; 3];
    let mut san_fa = [false; 3];
    if let Ok(rep) = sancheck::check_source(&test.bad, &scfg) {
        for (k, out) in SanitizerKind::ALL.into_iter().zip(san_miss.iter_mut()) {
            *out = rep
                .false_negatives
                .iter()
                .any(|f| f.kind == k && relevant_classes.contains(&f.class));
        }
    }
    if let Ok(rep) = sancheck::check_source(&test.good, &scfg) {
        for (k, out) in SanitizerKind::ALL.into_iter().zip(san_fa.iter_mut()) {
            *out = rep.false_positives.iter().any(|f| f.kind == k);
        }
    }

    // CompDiff over the default ten implementations.
    let cfg = DiffConfig {
        vm: vm.clone(),
        ..Default::default()
    };
    let (compdiff_det, hashes) = match CompDiff::from_source_default(&test.bad, cfg.clone()) {
        Ok(diff) => {
            let o = diff.run_input(b"");
            (o.divergent, o.hashes)
        }
        Err(_) => (false, vec![0; 10]),
    };
    let compdiff_fp = match CompDiff::from_source_default(&test.good, cfg) {
        Ok(diff) => diff.run_input(b"").divergent,
        Err(_) => false,
    };

    TestEval {
        id: test.id.clone(),
        cwe: test.cwe,
        static_det,
        static_fp,
        lint_det,
        lint_fp,
        san_det,
        san_fp,
        san_miss,
        san_fa,
        compdiff_det,
        compdiff_fp,
        hashes,
    }
}

/// One Table 3 row (percentages 0-100).
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Which group.
    pub group: Group,
    /// Number of bad tests.
    pub tests: usize,
    /// Detection % per static tool (coverity, cppcheck, infer).
    pub static_det: [f64; 3],
    /// False-positive % per static tool.
    pub static_fp: [f64; 3],
    /// CompDiff lint detection %.
    pub lint_det: f64,
    /// CompDiff lint false-positive %.
    pub lint_fp: f64,
    /// Detection % per sanitizer (asan, ubsan, msan).
    pub san_det: [f64; 3],
    /// Detection % of the combined sanitizers.
    pub san_total: f64,
    /// Meta-oracle miss % per sanitizer: silent on a group-relevant
    /// `must` UB site of the bad variant.
    pub san_miss: [f64; 3],
    /// Meta-oracle false-alarm % per sanitizer: fired a statically
    /// refuted class on the good variant.
    pub san_fa: [f64; 3],
    /// CompDiff detection %.
    pub compdiff: f64,
    /// Bugs detected by CompDiff but by no sanitizer.
    pub unique: usize,
    /// CompDiff false positives on good variants (expected 0).
    pub compdiff_fp: usize,
}

/// The full Table 3.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Rows in paper order.
    pub rows: Vec<Table3Row>,
}

/// Aggregates per-test evaluations into Table 3.
pub fn table3(evals: &[TestEval]) -> Table3 {
    let pct = |n: usize, d: usize| {
        if d == 0 {
            0.0
        } else {
            100.0 * n as f64 / d as f64
        }
    };
    let rows = Group::ALL
        .iter()
        .map(|&group| {
            let in_group: Vec<&TestEval> =
                evals.iter().filter(|e| e.cwe.group() == group).collect();
            let n = in_group.len();
            let count = |f: &dyn Fn(&TestEval) -> bool| in_group.iter().filter(|e| f(e)).count();
            let static_det = [
                pct(count(&|e| e.static_det[0]), n),
                pct(count(&|e| e.static_det[1]), n),
                pct(count(&|e| e.static_det[2]), n),
            ];
            let static_fp = [
                pct(count(&|e| e.static_fp[0]), n),
                pct(count(&|e| e.static_fp[1]), n),
                pct(count(&|e| e.static_fp[2]), n),
            ];
            let lint_det = pct(count(&|e| e.lint_det), n);
            let lint_fp = pct(count(&|e| e.lint_fp), n);
            let san_det = [
                pct(count(&|e| e.san_det[0]), n),
                pct(count(&|e| e.san_det[1]), n),
                pct(count(&|e| e.san_det[2]), n),
            ];
            let san_total = pct(count(&|e| e.san_det.iter().any(|&d| d)), n);
            let san_miss = [
                pct(count(&|e| e.san_miss[0]), n),
                pct(count(&|e| e.san_miss[1]), n),
                pct(count(&|e| e.san_miss[2]), n),
            ];
            let san_fa = [
                pct(count(&|e| e.san_fa[0]), n),
                pct(count(&|e| e.san_fa[1]), n),
                pct(count(&|e| e.san_fa[2]), n),
            ];
            let compdiff = pct(count(&|e| e.compdiff_det), n);
            let unique = count(&|e| e.compdiff_det && !e.san_det.iter().any(|&d| d));
            let compdiff_fp = count(&|e| e.compdiff_fp);
            Table3Row {
                group,
                tests: n,
                static_det,
                static_fp,
                lint_det,
                lint_fp,
                san_det,
                san_total,
                san_miss,
                san_fa,
                compdiff,
                unique,
                compdiff_fp,
            }
        })
        .collect();
    Table3 { rows }
}

impl Table3 {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<24} {:>6} | {:>9} {:>9} {:>9} {:>9} | {:>5} {:>5} {:>5} {:>6} | {:>9} {:>9} {:>9} | {:>8} {:>7} {:>6}\n",
            "Description",
            "#Tests",
            "Coverity",
            "Cppcheck",
            "Infer",
            "CD-lint",
            "ASan",
            "UBSan",
            "MSan",
            "SanTot",
            "ASanM(F)",
            "UBSanM(F)",
            "MSanM(F)",
            "CompDiff",
            "#Unique",
            "CD-FP"
        ));
        s.push_str(&"-".repeat(172));
        s.push('\n');
        for r in &self.rows {
            s.push_str(&format!(
                "{:<24} {:>6} | {:>4.0}%({:>2.0}) {:>4.0}%({:>2.0}) {:>4.0}%({:>2.0}) {:>4.0}%({:>2.0}) | {:>4.0}% {:>4.0}% {:>4.0}% {:>5.0}% | {:>4.0}%({:>2.0}) {:>4.0}%({:>2.0}) {:>4.0}%({:>2.0}) | {:>7.0}% {:>7} {:>6}\n",
                r.group.label(),
                r.tests,
                r.static_det[0],
                r.static_fp[0],
                r.static_det[1],
                r.static_fp[1],
                r.static_det[2],
                r.static_fp[2],
                r.lint_det,
                r.lint_fp,
                r.san_det[0],
                r.san_det[1],
                r.san_det[2],
                r.san_total,
                r.san_miss[0],
                r.san_fa[0],
                r.san_miss[1],
                r.san_fa[1],
                r.san_miss[2],
                r.san_fa[2],
                r.compdiff,
                r.unique,
                r.compdiff_fp
            ));
        }
        s
    }

    /// Total CompDiff-unique bug count (the paper's headline 1,409).
    pub fn total_unique(&self) -> usize {
        self.rows.iter().map(|r| r.unique).sum()
    }

    /// Machine-readable form (the `--json` flag of `exp_table3`).
    pub fn to_json(&self) -> Json {
        let floats = |xs: &[f64; 3]| Json::Array(xs.iter().map(|&f| Json::Float(f)).collect());
        Json::obj(vec![(
            "rows",
            Json::Array(
                self.rows
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("group", Json::Str(r.group.label().to_string())),
                            ("tests", Json::Int(r.tests as i64)),
                            ("static_det", floats(&r.static_det)),
                            ("static_fp", floats(&r.static_fp)),
                            ("lint_det", Json::Float(r.lint_det)),
                            ("lint_fp", Json::Float(r.lint_fp)),
                            ("san_det", floats(&r.san_det)),
                            ("san_total", Json::Float(r.san_total)),
                            ("san_miss", floats(&r.san_miss)),
                            ("san_fa", floats(&r.san_fa)),
                            ("compdiff", Json::Float(r.compdiff)),
                            ("unique", Json::Int(r.unique as i64)),
                            ("compdiff_fp", Json::Int(r.compdiff_fp as i64)),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

/// Renders Table 2 (the suite overview).
pub fn render_table2(scale: f64) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<10} {:<42} {:>8} {:>8}\n",
        "CWE-ID", "Description", "#Paper", "#Here"
    ));
    s.push_str(&"-".repeat(72));
    s.push('\n');
    let mut total_paper = 0;
    let mut total_here = 0;
    for cwe in Cwe::ALL {
        let here = ((cwe.paper_count() as f64 * scale).round() as usize).max(8);
        total_paper += cwe.paper_count();
        total_here += here;
        s.push_str(&format!(
            "{:<10} {:<42} {:>8} {:>8}\n",
            cwe.to_string(),
            cwe.description(),
            cwe.paper_count(),
            here
        ));
    }
    s.push_str(&"-".repeat(72));
    s.push('\n');
    s.push_str(&format!(
        "{:<10} {:<42} {:>8} {:>8}\n",
        "Total", "", total_paper, total_here
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_cwe(cwe: Cwe, i: usize) -> TestEval {
        evaluate(&generate(cwe, i), &VmConfig::default())
    }

    #[test]
    fn suite_scales() {
        let s = suite(0.001);
        // 20 CWEs x >= 8 tests.
        assert!(s.len() >= 160);
        let full: usize = Cwe::ALL.iter().map(|c| c.paper_count()).sum();
        assert_eq!(full, 18_142);
    }

    #[test]
    fn uninit_print_variant_shapes() {
        // Variant 0 of CWE-457: printed uninitialized local.
        let e = eval_cwe(Cwe::Cwe457, 0);
        assert!(e.compdiff_det, "CompDiff must catch printed uninit");
        assert!(!e.san_det[2], "MSan must miss the print-only case");
        assert!(!e.compdiff_fp, "no false positive on the good variant");
    }

    #[test]
    fn uninit_print_variant_is_lints() {
        // The IR lint's fourth column: the printed-uninit variant is a
        // promoted-slot junk read, caught by both lint channels.
        let e = eval_cwe(Cwe::Cwe457, 0);
        assert!(e.lint_det, "CompDiff lint must catch printed uninit");
        // Variant 0's good program initializes inside a single-iteration
        // loop — the generator's deliberate may-uninit trap. The lint is a
        // may-analysis, so it takes the bait just like coverity/infer.
        assert!(e.lint_fp, "loop-init good variant is a known FP trap");
        // Variant 2's good program initializes directly: no false alarm.
        let e2 = eval_cwe(Cwe::Cwe457, 2);
        assert!(e2.lint_det);
        assert!(!e2.lint_fp, "directly-initialized good variant is clean");
    }

    #[test]
    fn uninit_branch_variant_is_msans() {
        // Variant 6: branch on uninitialized value.
        let e = eval_cwe(Cwe::Cwe457, 6);
        assert!(e.san_det[2], "MSan catches branch-on-uninit");
    }

    #[test]
    fn memory_near_overflow_is_asans() {
        let e = eval_cwe(Cwe::Cwe121, 0);
        assert!(e.san_det[0], "ASan catches near overflow");
    }

    #[test]
    fn memory_far_overflow_is_compdiff_unique() {
        let e = eval_cwe(Cwe::Cwe121, 7);
        assert!(!e.san_det[0], "far overflow lands beyond the redzone");
        assert!(e.compdiff_det, "layout divergence catches it");
    }

    #[test]
    fn pointer_subtraction_only_compdiff() {
        let e = eval_cwe(Cwe::Cwe469, 0);
        assert!(e.compdiff_det);
        assert!(!e.san_det.iter().any(|&d| d));
        assert!(!e.static_det.iter().any(|&d| d));
        assert!(!e.compdiff_fp);
    }

    #[test]
    fn printf_arity_everybody_who_should() {
        let e = eval_cwe(Cwe::Cwe685, 1);
        assert!(e.compdiff_det, "junk vararg diverges");
        assert!(
            e.static_det[0] && e.static_det[1],
            "coverity+cppcheck check arity"
        );
        assert!(!e.static_det[2], "infer does not");
    }

    #[test]
    fn meta_oracle_column_flags_msan_print_only_miss() {
        // Variant 0 of CWE-457 prints the uninitialized local without
        // branching on it, so MSan stays silent — yet the static map has
        // a `must` uninit site on the unconditional path. The fifth
        // column charges that miss to MSan (and only MSan; the site is
        // outside ASan's and UBSan's scope).
        let e = eval_cwe(Cwe::Cwe457, 0);
        assert!(e.san_miss[2], "MSan print-only blind spot must be charged");
        assert!(!e.san_miss[0] && !e.san_miss[1], "{:?}", e.san_miss);
        assert!(
            !e.san_fa.iter().any(|&f| f),
            "clean good variant must not produce meta-oracle false alarms"
        );
        // The caught branch-on-uninit variant is not a miss.
        let e6 = eval_cwe(Cwe::Cwe457, 6);
        assert!(!e6.san_miss[2], "a firing sanitizer is never a miss");
        // The column lands in the rendered table and the JSON form.
        let t = table3(&[e]);
        assert!(t.render().contains("MSanM(F)"));
        let j = t.to_json().render();
        assert!(j.contains("san_miss") && j.contains("san_fa"));
    }

    #[test]
    fn table3_aggregation_math() {
        let evals = vec![eval_cwe(Cwe::Cwe469, 0), eval_cwe(Cwe::Cwe469, 1)];
        let t = table3(&evals);
        let row = t
            .rows
            .iter()
            .find(|r| r.group == Group::PointerSubtraction)
            .unwrap();
        assert_eq!(row.tests, 2);
        assert_eq!(row.compdiff, 100.0);
        assert_eq!(row.unique, 2);
        let rendered = t.render();
        assert!(rendered.contains("UB of pointer Sub."));
    }

    #[test]
    fn table2_renders_totals() {
        let s = render_table2(1.0);
        assert!(s.contains("18142"));
        assert!(s.contains("CWE-121"));
    }
}
