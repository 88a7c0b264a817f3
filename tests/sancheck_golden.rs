//! Golden digests of the sanitizer meta-oracle and the unstable lint.
//!
//! `tests/golden/sancheck/manifest.json` pins, per program, the hash of
//! `sancheck::check_source(..).render()`, of
//! `staticheck_ir::render(&UnstableLint::new().run_source(..))` and of
//! the shared build: the ten `compile_all` binaries rendered with
//! `minc_compile::display::binary`, each followed by its rewrite log. The
//! programs are the 23 catalog targets (empty input), 300
//! `progen::generate` programs at seed 1 (each fed its first probe) and
//! `juliet::generate(cwe, i)` for every CWE and `i < 2`, bad and good
//! (empty input). Any change to how the map, the lint, the sanitized
//! builds or the hooked runs are produced must leave every digest as
//! pinned; `scripts/ci.sh` alone only compares two runs of one build.
//! The build digest sees a pass that moves the IR or a log even when
//! `optimize_all` and `optimize_logged` move alike, which
//! `tests/pipeline_reuse.rs`, comparing the two, cannot.

use compdiff::{hash64, Json};
use fuzzing::Rng;
use minc_compile::{compile_all, display, CompilerImpl};
use sancheck::SancheckConfig;
use staticheck_ir::UnstableLint;
use std::path::PathBuf;

/// One pinned program: manifest name, source and the input every
/// sanitizer run is fed.
struct GoldenProgram {
    /// Manifest key (`catalog/<name>`, `progen/<i>`, `juliet/<id>/<bad|good>`).
    name: String,
    /// MinC source.
    src: String,
    /// Input of every sanitized run.
    input: Vec<u8>,
}

/// The pinned program set, in manifest order.
fn golden_programs() -> Vec<GoldenProgram> {
    let mut out = Vec::new();
    for t in targets::build_all() {
        out.push(GoldenProgram {
            name: format!("catalog/{}", t.spec.name),
            src: t.src,
            input: Vec::new(),
        });
    }
    for i in 0..300u64 {
        let g = progen::generate(&mut Rng::new(progen::mix(1, i)));
        out.push(GoldenProgram {
            name: format!("progen/{i:03}"),
            src: g.source(),
            input: g.probes.first().cloned().unwrap_or_default(),
        });
    }
    for cwe in juliet::Cwe::ALL {
        for i in 0..2 {
            let t = juliet::generate(cwe, i);
            for (side, src) in [("bad", t.bad), ("good", t.good)] {
                out.push(GoldenProgram {
                    name: format!("juliet/{}/{side}", t.id),
                    src,
                    input: Vec::new(),
                });
            }
        }
    }
    out
}

/// `(sancheck digest, lint digest, build digest)` of one program. A
/// frontend error is hashed as its message, so a program that stops
/// checking also moves its digests.
fn digests(p: &GoldenProgram) -> (u64, u64, u64) {
    let cfg = SancheckConfig {
        input: p.input.clone(),
        ..SancheckConfig::default()
    };
    let san = match sancheck::check_source(&p.src, &cfg) {
        Ok(report) => report.render(),
        Err(e) => format!("frontend error: {e}"),
    };
    let lint = match UnstableLint::new().run_source(&p.src) {
        Ok(findings) => staticheck_ir::render(&findings),
        Err(e) => format!("frontend error: {e}"),
    };
    let build = match minc::check(&p.src) {
        Ok(checked) => {
            let (bins, logs) = compile_all(&checked, &CompilerImpl::default_set());
            let mut out = String::new();
            for (bin, log) in bins.iter().zip(&logs) {
                out.push_str(&display::binary(bin));
                for entry in &log.entries {
                    out.push_str(&format!("{entry}\n"));
                }
            }
            out
        }
        Err(e) => format!("frontend error: {e}"),
    };
    (
        hash64(san.as_bytes()),
        hash64(lint.as_bytes()),
        hash64(build.as_bytes()),
    )
}

fn manifest() -> Json {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sancheck/manifest.json");
    let text = std::fs::read_to_string(&path).unwrap();
    Json::parse(&text).unwrap()
}

#[test]
fn sancheck_and_lint_digests_match_the_manifest() {
    let m = manifest();
    let pinned = m.get("programs").and_then(Json::as_array).unwrap();
    let programs = golden_programs();
    assert_eq!(programs.len(), 403);
    assert_eq!(
        pinned.len(),
        programs.len(),
        "manifest covers every program"
    );
    let mut drift = Vec::new();
    for (p, entry) in programs.iter().zip(pinned) {
        let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap().to_string();
        assert_eq!(field("name"), p.name, "manifest order");
        let (san, lint, build) = digests(p);
        for (key, digest) in [("sancheck", san), ("lint", lint), ("build", build)] {
            if format!("{digest:016x}") != field(key) {
                drift.push(format!("{} ({key})", p.name));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "{} digest(s) moved: {:?}",
        drift.len(),
        drift
    );
}
