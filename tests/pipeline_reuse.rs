//! The facts that let one shared build per program feed every consumer:
//!
//! 1. `optimize_logged` leaves exactly the IR of the unlogged pipeline
//!    that `compile` links, so its IR can become the oracle's binary;
//! 2. linking that IR with `sancheck::sanitized_personality` is
//!    `sancheck::compile_sanitized_for`, because `slot_padding` is read
//!    only by frame placement at link time;
//! 3. `optimize_all`, which lowers once per family and runs each shared
//!    pass prefix once, returns for any list of implementations exactly
//!    what `optimize_logged` returns for each, and `compile_all` links
//!    exactly `compile`'s binaries.
//!
//! Checked over the catalog, every `.mc` golden and 500 generated
//! programs (and, for the third, Juliet at scale 0.1), for each of the
//! ten implementations.

use fuzzing::Rng;
use minc_compile::{Binary, CompilerImpl, IrProgram};
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

/// Whether two binaries are equal in every field but `uid`.
fn same_build(a: &Binary, b: &Binary) -> bool {
    let Binary {
        impl_id,
        personality,
        program,
        frames,
        global_addrs,
        string_addrs,
        uid: _,
    } = a;
    *impl_id == b.impl_id
        && *personality == b.personality
        && *program == b.program
        && *frames == b.frames
        && *global_addrs == b.global_addrs
        && *string_addrs == b.string_addrs
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

#[test]
fn the_shared_build_equals_each_implementations_pipeline() {
    let all = CompilerImpl::default_set();
    let mut lists: Vec<Vec<CompilerImpl>> = vec![
        all.clone(),
        all.iter().rev().copied().collect(),
        vec![all[2], all[7], all[2], all[4]],
        vec![all[3], all[9]],
        vec![],
    ];
    lists.extend(all.iter().map(|&ci| vec![ci]));
    let mut progs = programs();
    for t in juliet::suite(0.1) {
        progs.push((format!("{}/bad", t.id), t.bad));
        progs.push((format!("{}/good", t.id), t.good));
    }
    assert!(progs.len() > 4_000, "{} programs", progs.len());
    for (name, src) in &progs {
        let checked = minc::check(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let want: Vec<(IrProgram, String)> = all
            .iter()
            .map(|&ci| {
                let (ir, log) = minc_compile::optimize_logged(&checked, ci);
                (ir, format!("{log:?}"))
            })
            .collect();
        for impls in &lists {
            let built = minc_compile::optimize_all(&checked, impls);
            assert_eq!(built.len(), impls.len(), "{name}");
            for ((ir, log), ci) in built.iter().zip(impls) {
                let (want_ir, want_log) = &want[ci.index()];
                assert!(ir == want_ir, "{name}/{ci} in {impls:?}: IR differs");
                assert!(
                    format!("{log:?}") == *want_log,
                    "{name}/{ci} in {impls:?}: rewrite log differs"
                );
            }
        }
        let (binaries, _) = minc_compile::compile_all(&checked, &all);
        for (bin, &ci) in binaries.iter().zip(&all) {
            assert!(
                same_build(bin, &minc_compile::compile(&checked, ci)),
                "{name}/{ci}: linked build differs from compile"
            );
        }
    }
}
