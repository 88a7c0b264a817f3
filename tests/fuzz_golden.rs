//! Pinned plain-AFL and CompDiff-AFL++ campaign outcomes, so a change to
//! coverage bookkeeping, mutation, scheduling or the differential oracle
//! shows up as a diff here.
//!
//! The fuzzer's other determinism tests compare two runs of the same
//! build; they would pass a change that alters what the fuzzer does. The
//! values below were recorded once and must only change on purpose.

use compdiff::{CompDiffAfl, DiffConfig};
use fuzzing::{BinaryTarget, FuzzConfig, Fuzzer, NoOracle};
use minc_compile::{compile_source, CompilerImpl};
use minc_vm::VmConfig;

/// `(target, execs, edges, corpus_len, crashes)` of a 2000-exec plain-AFL
/// run over the target's gcc-O2 binary, seed `0xC0DE`, dictionary
/// `[magic]`, seeded with the target's corpus.
const PINNED: &[(&str, u64, usize, usize, usize)] = &[
    ("tcpdump", 2000, 17, 12, 0),
    ("wireshark", 2000, 25, 15, 0),
    ("MuJS", 2000, 27, 14, 0),
    ("libtiff", 2000, 29, 14, 0),
    ("gpac", 2000, 31, 16, 0),
];

/// `(target, divergence feedback, execs, oracle_execs, edges, corpus_len,
/// crashes, reports, unique signatures)` of a 2000-exec CompDiff-AFL++ run
/// (`CompDiffAfl::from_source_default`: B_fuzz is the oracle's clang-O1
/// build), seed `0xC0DE`, dictionary `[magic]`, seeded with the target's
/// corpus.
#[allow(clippy::type_complexity)]
const PINNED_COMPDIFF: &[(&str, bool, u64, u64, usize, usize, usize, usize, usize)] = &[
    ("tcpdump", false, 2000, 19970, 17, 12, 0, 0, 0),
    ("wireshark", false, 2000, 19970, 25, 15, 0, 37, 2),
    ("MuJS", false, 2000, 19970, 27, 14, 0, 35, 2),
    ("libtiff", false, 2000, 19970, 29, 14, 0, 33, 2),
    ("gpac", false, 2000, 19970, 30, 16, 0, 37, 3),
    ("tcpdump", true, 2000, 19970, 17, 12, 0, 0, 0),
    ("wireshark", true, 2000, 19970, 25, 15, 0, 37, 2),
    ("MuJS", true, 2000, 19970, 27, 14, 0, 35, 2),
    ("libtiff", true, 2000, 19970, 29, 14, 0, 33, 2),
    ("gpac", true, 2000, 19970, 30, 16, 0, 37, 3),
];

fn fuzz_config(magic: [u8; 2]) -> FuzzConfig {
    FuzzConfig {
        max_execs: 2_000,
        seed: 0xC0DE,
        dictionary: vec![magic.to_vec()],
        ..Default::default()
    }
}

#[test]
fn plain_afl_outcomes_are_pinned() {
    let catalog = targets::build_all();
    let gcc_o2 = CompilerImpl::parse("gcc-O2").unwrap();
    for &(name, execs, edges, corpus_len, crashes) in PINNED {
        let t = catalog.iter().find(|t| t.spec.name == name).unwrap();
        let bin = compile_source(&t.src, gcc_o2).unwrap();
        let stats = Fuzzer::new(
            BinaryTarget::new(&bin, VmConfig::default()),
            NoOracle,
            fuzz_config(t.spec.magic),
        )
        .run(&t.seeds);
        assert_eq!(
            (
                stats.execs,
                stats.edges,
                stats.corpus_len,
                stats.crashes.len()
            ),
            (execs, edges, corpus_len, crashes),
            "{name}: (execs, edges, corpus_len, crashes)"
        );
    }
}

#[test]
fn compdiff_afl_outcomes_are_pinned() {
    let catalog = targets::build_all();
    for &(name, feedback, execs, oracle_execs, edges, corpus_len, crashes, reports, unique) in
        PINNED_COMPDIFF
    {
        let t = catalog.iter().find(|t| t.spec.name == name).unwrap();
        let stats = CompDiffAfl::from_source_default(
            &t.src,
            fuzz_config(t.spec.magic),
            DiffConfig::default(),
        )
        .unwrap()
        .with_divergence_feedback(feedback)
        .run(&t.seeds);
        assert_eq!(
            (
                stats.campaign.execs,
                stats.oracle_execs,
                stats.campaign.edges,
                stats.campaign.corpus_len,
                stats.campaign.crashes.len(),
                stats.store.reports().len(),
                stats.store.unique_signatures()
            ),
            (
                execs,
                oracle_execs,
                edges,
                corpus_len,
                crashes,
                reports,
                unique
            ),
            "{name} (feedback {feedback}): (execs, oracle_execs, edges, corpus_len, \
             crashes, reports, unique signatures)"
        );
    }
}
