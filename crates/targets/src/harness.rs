//! Verification and fuzzing harnesses behind Tables 4, 5, 6 and Figure 2.

use crate::builder::{build, Target};
use crate::catalog::{catalog, Category};
use compdiff::{CompDiff, CompDiffAfl, DiffConfig, HashVector};
use fuzzing::FuzzConfig;
use minc_vm::{ExitStatus, SanitizerKind, VmConfig};

/// Builds all 23 targets.
pub fn build_all() -> Vec<Target> {
    catalog().iter().map(build).collect()
}

/// Ground-truth verification of one bug: does CompDiff diverge on the
/// trigger input, and does each sanitizer report on it?
#[derive(Debug, Clone)]
pub struct BugVerdict {
    /// Bug id.
    pub id: String,
    /// Category.
    pub category: Category,
    /// CompDiff finds a divergence on the trigger input.
    pub compdiff: bool,
    /// Sanitizers that reported on the trigger input (asan, ubsan, msan).
    pub sanitizers: [bool; 3],
    /// Per-implementation output hashes (Figure 2 input).
    pub hashes: HashVector,
    /// Paper-status labels.
    pub confirmed: bool,
    /// Paper-status labels.
    pub fixed: bool,
}

/// Verifies every bug of one target.
pub fn verify_target(target: &Target, vm: &VmConfig) -> Vec<BugVerdict> {
    let cfg = DiffConfig {
        vm: vm.clone(),
        ..Default::default()
    };
    let diff = CompDiff::from_source_default(&target.src, cfg)
        .unwrap_or_else(|e| panic!("{} does not compile: {e}", target.spec.name));
    let san_bin = sanitizers::compile_sanitized(&target.src).expect("sanitized build");
    target
        .spec
        .bugs
        .iter()
        .map(|bug| {
            let trigger = target.trigger(bug);
            let outcome = diff.run_input(&trigger);
            let mut sans = [false; 3];
            for (k, out) in SanitizerKind::ALL.into_iter().zip(sans.iter_mut()) {
                let r = sanitizers::run_sanitized(&san_bin, &trigger, vm, k);
                *out = matches!(r.status, ExitStatus::Sanitizer(_));
            }
            BugVerdict {
                id: bug.id.clone(),
                category: bug.kind.category(),
                compdiff: outcome.divergent,
                sanitizers: sans,
                hashes: outcome.hashes,
                confirmed: bug.confirmed,
                fixed: bug.fixed,
            }
        })
        .collect()
}

/// Verifies all bugs across all targets.
pub fn verify_all(vm: &VmConfig) -> Vec<BugVerdict> {
    build_all()
        .iter()
        .flat_map(|t| verify_target(t, vm))
        .collect()
}

/// Table 5 in the paper's layout: bug counts per root-cause category.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// `(category, reported, confirmed, fixed, compdiff_verified)` rows.
    pub rows: Vec<(Category, usize, usize, usize, usize)>,
}

/// Aggregates verdicts into Table 5.
pub fn table5(verdicts: &[BugVerdict]) -> Table5 {
    let rows = Category::ALL
        .iter()
        .map(|&c| {
            let in_cat: Vec<&BugVerdict> = verdicts.iter().filter(|v| v.category == c).collect();
            let reported = in_cat.len();
            let confirmed = in_cat.iter().filter(|v| v.confirmed).count();
            let fixed = in_cat.iter().filter(|v| v.fixed).count();
            let verified = in_cat.iter().filter(|v| v.compdiff).count();
            (c, reported, confirmed, fixed, verified)
        })
        .collect();
    Table5 { rows }
}

impl Table5 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("{:<12}", ""));
        for (c, ..) in &self.rows {
            s.push_str(&format!("{:>11}", c.label()));
        }
        s.push_str(&format!("{:>8}\n", "Total"));
        for (label, pick) in [
            ("Reported", 1usize),
            ("Confirmed", 2),
            ("Fixed", 3),
            ("Verified", 4),
        ] {
            s.push_str(&format!("{label:<12}"));
            let mut total = 0;
            for row in &self.rows {
                let v = [row.1, row.2, row.3, row.4][pick - 1];
                total += v;
                s.push_str(&format!("{v:>11}"));
            }
            s.push_str(&format!("{total:>8}\n"));
        }
        s
    }
}

/// Table 6: of the CompDiff-detected bugs, how many each sanitizer also
/// detects (measured on the trigger inputs, like the paper's manual
/// cross-check of sanitizer fuzzing reports).
#[derive(Debug, Clone)]
pub struct Table6 {
    /// `(row label, asan, ubsan, msan, sanitizer total, compdiff total)`.
    pub rows: Vec<(String, usize, usize, usize, usize, usize)>,
}

/// Builds Table 6 from verdicts.
pub fn table6(verdicts: &[BugVerdict]) -> Table6 {
    let detected: Vec<&BugVerdict> = verdicts.iter().filter(|v| v.compdiff).collect();
    let mut rows = Vec::new();
    for (label, cat) in [
        ("MemError", Category::MemError),
        ("IntError", Category::IntError),
        ("UninitMem", Category::UninitMem),
    ] {
        let in_cat: Vec<&&BugVerdict> = detected.iter().filter(|v| v.category == cat).collect();
        let a = in_cat.iter().filter(|v| v.sanitizers[0]).count();
        let u = in_cat.iter().filter(|v| v.sanitizers[1]).count();
        let m = in_cat.iter().filter(|v| v.sanitizers[2]).count();
        let any = in_cat
            .iter()
            .filter(|v| v.sanitizers.iter().any(|&s| s))
            .count();
        rows.push((label.to_string(), a, u, m, any, in_cat.len()));
    }
    let rest: Vec<&&BugVerdict> = detected
        .iter()
        .filter(|v| {
            !matches!(
                v.category,
                Category::MemError | Category::IntError | Category::UninitMem
            )
        })
        .collect();
    let rest_any = rest
        .iter()
        .filter(|v| v.sanitizers.iter().any(|&s| s))
        .count();
    rows.push(("Remaining bugs".to_string(), 0, 0, 0, rest_any, rest.len()));
    let tot_any: usize = rows.iter().map(|r| r.4).sum();
    let tot_cd: usize = rows.iter().map(|r| r.5).sum();
    rows.push(("Total".to_string(), 0, 0, 0, tot_any, tot_cd));
    Table6 { rows }
}

impl Table6 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{:<16} {:>6} {:>6} {:>6} {:>10} {:>9}\n",
            "CompDiff", "ASan", "UBSan", "MSan", "San Total", "CompDiff"
        );
        for (label, a, u, m, any, cd) in &self.rows {
            s.push_str(&format!(
                "{label:<16} {a:>6} {u:>6} {m:>6} {any:>10} {cd:>9}\n"
            ));
        }
        s
    }
}

/// Result of a fuzzing campaign on one target.
#[derive(Debug, Clone)]
pub struct FuzzFinding {
    /// Target name.
    pub target: String,
    /// Bug ids found (matched by magic+cmd of saved discrepancy inputs).
    pub found: Vec<String>,
    /// Fuzzer executions used.
    pub execs: u64,
    /// Discrepancy inputs saved.
    pub diffs_saved: usize,
}

/// Runs CompDiff-AFL++ on one target and matches discrepancy inputs back
/// to the injected bugs.
pub fn fuzz_target(target: &Target, max_execs: u64, seed: u64) -> FuzzFinding {
    let afl = CompDiffAfl::from_source_default(
        &target.src,
        FuzzConfig {
            max_execs,
            seed,
            max_input_len: 16,
            // The format's magic token, as an AFL user would supply via -x.
            dictionary: vec![target.spec.magic.to_vec()],
            ..Default::default()
        },
        DiffConfig::default(),
    )
    .expect("target compiles");
    let stats = afl.run(&target.seeds);
    let mut found: Vec<String> = Vec::new();
    for input in &stats.campaign.oracle_finds {
        if input.len() < 3 || input[..2] != target.spec.magic {
            continue;
        }
        for bug in &target.spec.bugs {
            if input[2] == bug.cmd && !found.contains(&bug.id) {
                found.push(bug.id.clone());
            }
        }
    }
    FuzzFinding {
        target: target.spec.name.to_string(),
        found,
        execs: stats.campaign.execs,
        diffs_saved: stats.store.reports().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_injected_bug_is_compdiff_verifiable() {
        // The repository's headline end-to-end property: all 78 injected
        // bugs produce a divergence on their trigger input.
        let verdicts = verify_all(&VmConfig::default());
        assert_eq!(verdicts.len(), 78);
        let missed: Vec<&str> = verdicts
            .iter()
            .filter(|v| !v.compdiff)
            .map(|v| v.id.as_str())
            .collect();
        assert!(
            missed.is_empty(),
            "bugs CompDiff misses on triggers: {missed:?}"
        );
    }

    #[test]
    fn sanitizer_overlap_matches_ground_truth() {
        let verdicts = verify_all(&VmConfig::default());
        let t6 = table6(&verdicts);
        // MemError 13/13 ASan, IntError 8/8 UBSan, UninitMem 21/27 MSan.
        assert_eq!(t6.rows[0].1, 13, "{}", t6.render());
        assert_eq!(t6.rows[1].2, 8, "{}", t6.render());
        assert_eq!(t6.rows[2].3, 21, "{}", t6.render());
        // Remaining 30 bugs: no sanitizer.
        assert_eq!(t6.rows[3].4, 0, "{}", t6.render());
        assert_eq!(t6.rows[3].5, 30, "{}", t6.render());
    }

    #[test]
    fn table5_totals() {
        let verdicts = verify_all(&VmConfig::default());
        let t5 = table5(&verdicts);
        let reported: usize = t5.rows.iter().map(|r| r.1).sum();
        let confirmed: usize = t5.rows.iter().map(|r| r.2).sum();
        let fixed: usize = t5.rows.iter().map(|r| r.3).sum();
        // Note: the paper's Table 5 prints a "Fixed" total of 52, but its
        // own per-category row (2+15+6+12+1+5+9) sums to 50; we reproduce
        // the per-category values (see EXPERIMENTS.md).
        assert_eq!((reported, confirmed, fixed), (78, 65, 50));
    }

    #[test]
    fn fuzzing_finds_bugs_in_a_small_target() {
        // tcpdump: two EvalOrder bugs plus an uninit print, behind a
        // 2-byte magic and a command byte; give the fuzzer a fair budget.
        let t = build(&catalog()[0]);
        let f = fuzz_target(&t, 30_000, 7);
        assert!(
            !f.found.is_empty(),
            "fuzzer found nothing in {} execs ({} diffs saved)",
            f.execs,
            f.diffs_saved
        );
    }
}
