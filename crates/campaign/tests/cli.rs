//! Argument parsing of the `compdiff` binary: a flag's value is never
//! taken for the program file, flags and the program file may come in
//! any order, and an unknown flag is an error that names it.

use std::path::PathBuf;
use std::process::{Command, Output};

const PROG: &str = r#"
int main() {
    char buf[8];
    long n = read_input(buf, 8L);
    int u;
    if (n > 1 && buf[0] == 'a') { u = 1; }
    printf("%d %ld\n", u, n);
    return 0;
}
"#;

fn program(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("compdiff-cli-{tag}-{}.mc", std::process::id()));
    std::fs::write(&path, PROG).unwrap();
    path
}

fn compdiff(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_compdiff"))
        .args(args)
        .output()
        .unwrap()
}

/// Runs `cmd` with the program path before `flags`, then after them,
/// and asserts both succeed with the same stdout.
fn same_either_order(cmd: &str, flags: &[&str], path: &str) {
    let mut first = vec![cmd, path];
    first.extend_from_slice(flags);
    let mut last = vec![cmd];
    last.extend_from_slice(flags);
    last.push(path);
    let a = compdiff(&first);
    let b = compdiff(&last);
    assert!(
        a.status.success(),
        "{first:?}: {}",
        String::from_utf8_lossy(&a.stderr)
    );
    assert!(
        b.status.success(),
        "{last:?}: {}",
        String::from_utf8_lossy(&b.stderr)
    );
    assert_eq!(a.stdout, b.stdout, "{first:?} vs {last:?}");
}

#[test]
fn flags_before_and_after_the_program_give_the_same_output() {
    let path = program("order");
    let p = path.to_str().unwrap();
    same_either_order("run", &["--input", "abc", "--impls", "gcc-O0,clang-O2"], p);
    same_either_order(
        "sancheck",
        &["--impls", "gcc-O0,gcc-O2", "--input", "ab"],
        p,
    );
    same_either_order("lint", &["--impls", "gcc-O0,clang-O3", "--json"], p);
    same_either_order("fuzz", &["--execs", "300", "--seed", "3"], p);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_flag_value_is_not_the_program_file() {
    let path = program("value");
    let p = path.to_str().unwrap();
    let out = compdiff(&["run", "--input", "abc", p]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = compdiff(&["sancheck", "--impls", "gcc-O0", p]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("verdict gcc-O0 x MSan"));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    let path = program("unknown");
    let p = path.to_str().unwrap();
    for (args, flag) in [
        (
            vec!["sancheck", p, "--input-file", "in.bin"],
            "--input-file",
        ),
        (vec!["sancheck", p, "--bogus-flag"], "--bogus-flag"),
        (vec!["run", "--bogus-flag", p], "--bogus-flag"),
        (vec!["lint", p, "--bogus-flag"], "--bogus-flag"),
        (
            vec!["campaign", "--targets", "jq", "--bogus-flag"],
            "--bogus-flag",
        ),
        (vec!["progen", "evolve", "--bogus-flag"], "--bogus-flag"),
    ] {
        let out = compdiff(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn run_with_one_implementation_is_rejected_by_flag() {
    let path = program("one-impl");
    let p = path.to_str().unwrap();
    let out = compdiff(&["run", p, "--impls", "gcc-O2"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a one-implementation run must exit 1"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--impls"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "ran anyway");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn malformed_fuzz_numbers_are_rejected_by_name() {
    let path = program("fuzz-numbers");
    let p = path.to_str().unwrap();
    for (flag, value) in [
        ("--execs", "abc"),
        ("--seed", "q"),
        ("--max-len", "zz"),
        ("--batch-size", "x"),
        ("--batch-size", "0"),
    ] {
        let out = compdiff(&["fuzz", p, flag, value]);
        assert_eq!(out.status.code(), Some(1), "{flag} {value} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("bad {flag} `{value}`")),
            "{flag} {value}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag} {value} ran anyway");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn out_of_range_evolve_sizes_are_rejected_by_name() {
    let dir = std::env::temp_dir().join(format!("compdiff-cli-evolve-{}", std::process::id()));
    let d = dir.to_str().unwrap();
    for (flag, value) in [
        ("--population", "1000000000000"),
        ("--population", "4097"),
        ("--generations", "4294967297"),
    ] {
        let out = compdiff(&[
            "progen",
            "evolve",
            "--seed",
            "7",
            flag,
            value,
            "--out-dir",
            d,
        ]);
        assert_eq!(out.status.code(), Some(1), "{flag} {value} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("bad {flag} `{value}`")),
            "{flag} {value}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag} {value} ran anyway");
    }

    // A checkpoint whose population size is out of range is refused too.
    std::fs::create_dir_all(&dir).unwrap();
    let state = progen::EvolveState::new(&progen::EvolveConfig {
        seed: 7,
        population: 2,
    });
    let json = state.to_json().render().replacen(
        r#""population_size":2"#,
        r#""population_size":1000000000000"#,
        1,
    );
    std::fs::write(dir.join("state.json"), json).unwrap();
    let out = compdiff(&[
        "progen",
        "evolve",
        "--seed",
        "7",
        "--generations",
        "1",
        "--out-dir",
        d,
        "--resume",
    ]);
    assert_eq!(out.status.code(), Some(1), "the tampered state must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`population_size`"), "{stderr}");
    assert!(out.stdout.is_empty(), "the tampered state ran anyway");
    std::fs::remove_dir_all(&dir).unwrap();
}
