//! The two facts that let one optimizer run per (program,
//! implementation) feed every consumer:
//!
//! 1. `optimize_logged` leaves exactly the IR of the unlogged pipeline
//!    that `compile` links, so its IR can become the oracle's binary;
//! 2. linking that IR with `sancheck::sanitized_personality` is
//!    `sancheck::compile_sanitized_for`, because `slot_padding` is read
//!    only by frame placement at link time.
//!
//! Checked over the catalog, every `.mc` golden and 500 generated
//! programs, for each of the ten implementations.

use fuzzing::Rng;
use minc_compile::{Binary, CompilerImpl};
use std::path::{Path, PathBuf};

fn golden_sources(dir: &Path, out: &mut Vec<(String, String)>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            golden_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "mc") {
            let src = std::fs::read_to_string(&path).unwrap();
            out.push((path.display().to_string(), src));
        }
    }
}

fn programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = targets::build_all()
        .into_iter()
        .map(|t| (t.spec.name.clone(), t.src))
        .collect();
    golden_sources(
        &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden"),
        &mut out,
    );
    for i in 0..500u64 {
        let g = progen::generate(&mut Rng::new(progen::mix(1, i)));
        out.push((format!("progen/{i:03}"), g.source()));
    }
    out
}

/// `Debug` of a binary with its process-unique `uid` zeroed.
fn shape(mut bin: Binary) -> String {
    bin.uid = 0;
    format!("{bin:?}")
}

#[test]
fn logged_pipeline_leaves_the_unlogged_ir() {
    let progs = programs();
    assert!(progs.len() > 530, "{} programs", progs.len());
    for (name, src) in &progs {
        let checked = minc::check(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for ci in CompilerImpl::default_set() {
            let (ir, _) = minc_compile::optimize_logged(&checked, ci);
            assert!(
                ir == minc_compile::compile(&checked, ci).program,
                "{name}/{ci}: logging changed the optimized IR"
            );
        }
    }
}

#[test]
fn relinking_with_the_padded_personality_is_the_sanitized_build() {
    for (name, src) in &programs() {
        let checked = minc::check(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for ci in CompilerImpl::default_set() {
            let (ir, _) = minc_compile::optimize_logged(&checked, ci);
            let relinked = Binary::link(ir, sancheck::sanitized_personality(ci));
            assert!(
                shape(relinked) == shape(sancheck::compile_sanitized_for(&checked, ci)),
                "{name}/{ci}: relinked build differs from the sanitized compile"
            );
        }
    }
}
