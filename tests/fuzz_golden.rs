//! Pinned plain-AFL campaign outcomes, so a change to coverage
//! bookkeeping, mutation or scheduling shows up as a diff here.
//!
//! The fuzzer's other determinism tests compare two runs of the same
//! build; they would pass a change that alters what the fuzzer does. The
//! values below were recorded once and must only change on purpose.

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
            FuzzConfig {
                max_execs: 2_000,
                seed: 0xC0DE,
                dictionary: vec![t.spec.magic.to_vec()],
                ..Default::default()
            },
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
