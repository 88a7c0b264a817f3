//! Deterministic sanitizer fault injection: the meta-oracle's own chaos
//! harness.
//!
//! The meta-oracle claims it can tell a broken sanitizer from a working
//! one. The only way to test that claim is to break a sanitizer on
//! purpose: a [`SanFaultPlan`] deterministically *suppresses* reports a
//! sanitizer would have made (planting false negatives) or *fires*
//! spurious reports it would not have (planting false positives), and
//! the regression suite asserts the meta-oracle flags each planted
//! defect. The grammar mirrors the campaign's `FaultPlan`
//! (`kind@site[#k]`, comma-separated), and firing decisions are pure
//! functions of per-run callback counters — never of timing — so the
//! same plan replays the same defects.
//!
//! # Plan grammar
//!
//! ```text
//! suppress@msan            swallow every MSan report
//! suppress@ubsan#2         swallow only UBSan's 2nd report of the run
//! fire@ubsan:shift-out-of-bounds      inject at UBSan's 1st check
//! fire@asan:heap-buffer-overflow#3    inject at ASan's 3rd check
//! ```
//!
//! A `fire` rule injects only where the wrapped sanitizer stayed silent,
//! so a plan never converts one genuine report into a different one.

use minc_compile::ir::{BinKind, IrType};
use minc_vm::hooks::{FreeDisposition, Hooks, Loc, PoisonUse};
use minc_vm::result::{Fault, SanitizerKind};
use std::fmt;

/// One planted sanitizer defect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SanFault {
    /// Swallow the `k`-th report (`None` = every report) of the sanitizer.
    Suppress {
        /// Sanitizer the rule applies to.
        san: SanitizerKind,
        /// 1-based report ordinal; `None` suppresses all.
        nth: Option<u32>,
    },
    /// Inject a spurious report with `category` at the sanitizer's `nth`
    /// check callback (only if the real check stayed silent there).
    Fire {
        /// Sanitizer the rule applies to.
        san: SanitizerKind,
        /// Category string of the injected fault.
        category: String,
        /// 1-based check-callback ordinal.
        nth: u32,
    },
}

/// A comma-separated list of [`SanFault`] rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SanFaultPlan {
    /// The rules, in spec order.
    pub rules: Vec<SanFault>,
}

fn parse_san(s: &str) -> Result<SanitizerKind, String> {
    match s {
        "asan" => Ok(SanitizerKind::Asan),
        "ubsan" => Ok(SanitizerKind::Ubsan),
        "msan" => Ok(SanitizerKind::Msan),
        other => Err(format!("unknown sanitizer `{other}` (asan|ubsan|msan)")),
    }
}

fn san_name(k: SanitizerKind) -> &'static str {
    match k {
        SanitizerKind::Asan => "asan",
        SanitizerKind::Ubsan => "ubsan",
        SanitizerKind::Msan => "msan",
    }
}

impl SanFaultPlan {
    /// Parses a plan spec; empty input is the empty plan.
    pub fn parse(spec: &str) -> Result<SanFaultPlan, String> {
        let mut rules = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (kind, rest) = part
                .split_once('@')
                .ok_or_else(|| format!("rule `{part}` is missing `@`"))?;
            let (site, nth) = match rest.rsplit_once('#') {
                Some((site, k)) => {
                    let n: u32 = k
                        .parse()
                        .map_err(|_| format!("bad ordinal `{k}` in `{part}`"))?;
                    if n == 0 {
                        return Err(format!("ordinal in `{part}` is 1-based"));
                    }
                    (site, Some(n))
                }
                None => (rest, None),
            };
            match kind {
                "suppress" => rules.push(SanFault::Suppress {
                    san: parse_san(site)?,
                    nth,
                }),
                "fire" => {
                    let (san, category) = site
                        .split_once(':')
                        .ok_or_else(|| format!("fire rule `{part}` needs `san:category`"))?;
                    if category.is_empty() {
                        return Err(format!("fire rule `{part}` has an empty category"));
                    }
                    rules.push(SanFault::Fire {
                        san: parse_san(san)?,
                        category: category.to_string(),
                        nth: nth.unwrap_or(1),
                    });
                }
                other => return Err(format!("unknown rule kind `{other}` (suppress|fire)")),
            }
        }
        Ok(SanFaultPlan { rules })
    }

    fn suppresses(&self, san: SanitizerKind, report_ordinal: u32) -> bool {
        self.rules.iter().any(|r| {
            matches!(r, SanFault::Suppress { san: s, nth }
                if *s == san && nth.is_none_or(|n| n == report_ordinal))
        })
    }

    fn injection(&self, san: SanitizerKind, check_ordinal: u32) -> Option<&str> {
        self.rules.iter().find_map(|r| match r {
            SanFault::Fire {
                san: s,
                category,
                nth,
            } if *s == san && *nth == check_ordinal => Some(category.as_str()),
            _ => None,
        })
    }
}

impl fmt::Display for SanFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for r in &self.rules {
            if !first {
                f.write_str(",")?;
            }
            first = false;
            match r {
                SanFault::Suppress { san, nth: None } => write!(f, "suppress@{}", san_name(*san))?,
                SanFault::Suppress { san, nth: Some(n) } => {
                    write!(f, "suppress@{}#{n}", san_name(*san))?
                }
                SanFault::Fire { san, category, nth } => {
                    write!(f, "fire@{}:{category}#{nth}", san_name(*san))?
                }
            }
        }
        Ok(())
    }
}

/// A [`Hooks`] wrapper applying a [`SanFaultPlan`] to one sanitizer run.
///
/// Every fault-capable callback counts as one *check*; every fault the
/// inner sanitizer produces counts as one *report*. Suppression rules
/// swallow reports; fire rules inject where the inner check was silent.
#[derive(Debug)]
pub struct PlannedSan<H> {
    inner: H,
    plan: SanFaultPlan,
    kind: SanitizerKind,
    checks: u32,
    reports: u32,
}

impl<H: Hooks> PlannedSan<H> {
    /// Wraps `inner` (a `kind` sanitizer) under `plan`.
    pub fn new(inner: H, kind: SanitizerKind, plan: SanFaultPlan) -> Self {
        PlannedSan {
            inner,
            plan,
            kind,
            checks: 0,
            reports: 0,
        }
    }

    /// Applies the plan to one check's outcome.
    fn filter(&mut self, fault: Option<Fault>) -> Option<Fault> {
        self.checks += 1;
        match fault {
            Some(f) => {
                self.reports += 1;
                if self.plan.suppresses(self.kind, self.reports) {
                    None
                } else {
                    Some(f)
                }
            }
            None => self
                .plan
                .injection(self.kind, self.checks)
                .map(|cat| Fault::new(self.kind, cat.to_string(), "planted by SanFaultPlan")),
        }
    }
}

impl<H: Hooks> Hooks for PlannedSan<H> {
    fn on_edge(&mut self, from: Loc, to: Loc) {
        self.inner.on_edge(from, to);
    }
    fn check_load(&mut self, addr: u64, width: u64, loc: Loc) -> Option<Fault> {
        let f = self.inner.check_load(addr, width, loc);
        self.filter(f)
    }
    fn check_store(&mut self, addr: u64, width: u64, loc: Loc) -> Option<Fault> {
        let f = self.inner.check_store(addr, width, loc);
        self.filter(f)
    }
    fn check_bin(
        &mut self,
        op: BinKind,
        ty: IrType,
        a: u64,
        b: u64,
        ub_signed: bool,
        loc: Loc,
    ) -> Option<Fault> {
        let f = self.inner.check_bin(op, ty, a, b, ub_signed, loc);
        self.filter(f)
    }
    fn heap_redzone(&self) -> u64 {
        self.inner.heap_redzone()
    }
    fn on_malloc(&mut self, addr: u64, size: u64) {
        self.inner.on_malloc(addr, size);
    }
    fn on_free(&mut self, addr: u64, size: u64, loc: Loc) -> Result<FreeDisposition, Fault> {
        match self.inner.on_free(addr, size, loc) {
            Ok(d) => {
                self.checks += 1;
                match self.plan.injection(self.kind, self.checks) {
                    Some(cat) => Err(Fault::new(
                        self.kind,
                        cat.to_string(),
                        "planted by SanFaultPlan",
                    )),
                    None => Ok(d),
                }
            }
            Err(f) => {
                self.checks += 1;
                self.reports += 1;
                if self.plan.suppresses(self.kind, self.reports) {
                    // A suppressed free-error still needs a disposition;
                    // quarantine is what a silent ASan would have done.
                    Ok(FreeDisposition::Quarantine)
                } else {
                    Err(f)
                }
            }
        }
    }
    fn on_bad_free(&mut self, addr: u64, loc: Loc) -> Option<Fault> {
        let f = self.inner.on_bad_free(addr, loc);
        self.filter(f)
    }
    fn on_frame_enter(&mut self, lo: u64, hi: u64, slots: &[(u64, u64)]) {
        self.inner.on_frame_enter(lo, hi, slots);
    }
    fn on_frame_exit(&mut self, lo: u64, hi: u64) {
        self.inner.on_frame_exit(lo, hi);
    }
    fn track_poison(&self) -> bool {
        self.inner.track_poison()
    }
    fn load_poison(&mut self, addr: u64, width: u64) -> bool {
        self.inner.load_poison(addr, width)
    }
    fn store_poison(&mut self, addr: u64, width: u64, poisoned: bool) {
        self.inner.store_poison(addr, width, poisoned);
    }
    fn on_poison_use(&mut self, use_: PoisonUse, loc: Loc) -> Option<Fault> {
        let f = self.inner.on_poison_use(use_, loc);
        self.filter(f)
    }
    fn bulk_mem_ok(&self) -> bool {
        self.inner.bulk_mem_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let spec = "suppress@msan,suppress@ubsan#2,fire@asan:heap-buffer-overflow#3";
        let plan = SanFaultPlan::parse(spec).unwrap();
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(
            plan.to_string(),
            "suppress@msan,suppress@ubsan#2,fire@asan:heap-buffer-overflow#3"
        );
        assert_eq!(SanFaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(SanFaultPlan::parse("suppress").is_err());
        assert!(SanFaultPlan::parse("suppress@tsan").is_err());
        assert!(SanFaultPlan::parse("fire@ubsan").is_err());
        assert!(SanFaultPlan::parse("fire@ubsan:").is_err());
        assert!(SanFaultPlan::parse("suppress@msan#0").is_err());
        assert!(SanFaultPlan::parse("explode@msan").is_err());
        assert!(SanFaultPlan::parse("").unwrap().rules.is_empty());
    }

    #[test]
    fn suppression_rules_match_ordinals() {
        let plan = SanFaultPlan::parse("suppress@msan,suppress@ubsan#2").unwrap();
        assert!(plan.suppresses(SanitizerKind::Msan, 1));
        assert!(plan.suppresses(SanitizerKind::Msan, 7));
        assert!(!plan.suppresses(SanitizerKind::Ubsan, 1));
        assert!(plan.suppresses(SanitizerKind::Ubsan, 2));
        assert!(!plan.suppresses(SanitizerKind::Asan, 1));
    }

    #[test]
    fn fire_rules_match_check_ordinals() {
        let plan = SanFaultPlan::parse("fire@ubsan:integer-divide-by-zero#2").unwrap();
        assert_eq!(plan.injection(SanitizerKind::Ubsan, 1), None);
        assert_eq!(
            plan.injection(SanitizerKind::Ubsan, 2),
            Some("integer-divide-by-zero")
        );
        assert_eq!(plan.injection(SanitizerKind::Msan, 2), None);
    }
}
