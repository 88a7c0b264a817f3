//! Frontend robustness: arbitrary inputs must produce errors, never
//! panics, and diagnostics must carry usable positions; what the frontend
//! accepts must compile under every implementation and run.

/// SplitMix64 (public domain algorithm) — enough randomness for fuzzing
/// the frontend deterministically.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// The lexer+parser never panic on arbitrary byte soup.
#[test]
fn parser_never_panics_on_garbage() {
    let mut rng = Rng(0x6a5b);
    for _case in 0..512 {
        let len = rng.below(200);
        let input: String = (0..len)
            .map(|_| {
                // Mostly printable ASCII with occasional arbitrary unicode.
                if rng.below(10) == 0 {
                    char::from_u32(rng.below(0x1_0000) as u32).unwrap_or('?')
                } else {
                    (0x20 + rng.below(0x5f)) as u8 as char
                }
            })
            .collect();
        let _ = minc::parse(&input);
    }
}

/// Every keyword and punctuator spelling the lexer knows.
fn listed_spellings() -> Vec<&'static str> {
    minc::token::KEYWORDS
        .iter()
        .chain(minc::token::PUNCTUATORS)
        .copied()
        .collect()
}

/// Valid-token streams that do not form programs error gracefully too.
#[test]
fn parser_never_panics_on_token_soup() {
    // The listing has no identifiers or literals; add one of each.
    let mut tokens = listed_spellings();
    tokens.extend(["x", "42", "1.5", "'c'", "\"s\""]);
    let mut rng = Rng(0x70c3);
    for _case in 0..512 {
        let n = rng.below(64);
        let src: Vec<&str> = (0..n).map(|_| tokens[rng.below(tokens.len())]).collect();
        let src = src.join(" ");
        let _ = minc::parse(&src);
        let _ = minc::check(&src);
    }
}

#[test]
fn diagnostics_point_at_the_right_line() {
    let src = "int main() {\n    int x = 1;\n    return zz;\n}";
    let err = minc::check(src).unwrap_err();
    assert_eq!(err.first().span.line, 3, "{err}");
}

#[test]
fn deeply_nested_expressions_do_not_overflow() {
    // 300 levels of parentheses exercise parser recursion.
    let mut expr = String::from("1");
    for _ in 0..300 {
        expr = format!("({expr})");
    }
    let src = format!("int main() {{ return {expr}; }}");
    assert!(minc::check(&src).is_ok());
}

#[test]
fn long_programs_parse_quickly() {
    let mut src = String::new();
    for i in 0..500 {
        src.push_str(&format!("int g{i} = {i};\n"));
    }
    src.push_str("int main() { return g499; }");
    let checked = minc::check(&src).unwrap();
    assert_eq!(checked.program.globals.len(), 500);
}

#[test]
fn error_messages_are_lowercase_and_specific() {
    for (src, needle) in [
        ("int main() { return 1 +; }", "expected expression"),
        ("int main() { int int; }", "expected identifier"),
        ("int main(void) { return sizeof(void); }", "sizeof(void)"),
        (
            "struct s { int x; };\nint main() { struct s v; return v + 1; }",
            "cannot add",
        ),
        // C forbids arithmetic on `void*`; each of these once panicked the
        // lowering ("void has no size").
        (
            "void *f(void *p) { return p + 1; }",
            "arithmetic on `void*`",
        ),
        (
            "void *f(void *p) { return 1 + p; }",
            "arithmetic on `void*`",
        ),
        (
            "long f(void *p, void *q) { return p - q; }",
            "arithmetic on `void*`",
        ),
        ("void f(void *p) { p++; }", "arithmetic on `void*`"),
        ("void f(void *p) { p += 2; }", "arithmetic on `void*`"),
        ("void f(void *p) { p[1]; }", "arithmetic on `void*`"),
    ] {
        let err = minc::check(src).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(needle), "{src}: {msg}");
    }
}

/// Initializer forms that once panicked the lowering. `!1.5` folds like
/// the same expression at run time; a string literal's address folds
/// only as the whole value of a pointer or `long`, so every other use is a
/// typed sema error naming the initialized variable.
#[test]
fn initializers_fold_or_fail_with_a_typed_error() {
    use minc_compile::ir::{ConstVal, GlobalInit, MemWidth};
    use minc_compile::CompilerImpl;

    let checked = minc::check("int g = !1.5;\nint main() { return g; }").unwrap();
    for ci in CompilerImpl::default_set() {
        let bin = minc_compile::compile(&checked, ci);
        let zero = GlobalInit::Scalar(ConstVal::I32(0), MemWidth::W4);
        assert_eq!(bin.program.globals[0].init, zero, "{ci}");
    }
    for (src, name) in [
        ("int g = (int)\"abc\";", "global initializer of `g`"),
        ("char *g = \"abc\" + 1;", "global initializer of `g`"),
        ("int g = \"abc\" == \"abc\";", "global initializer of `g`"),
        ("int g = (long)\"abc\";", "global initializer of `g`"),
        (
            "int f() { static long g = (long)(int)\"a\"; return (int)g; }",
            "static local initializer of `g`",
        ),
    ] {
        let src = format!("{src}\nint main() {{ return 0; }}");
        let err = minc::check(&src).unwrap_err().to_string();
        assert!(err.contains(name), "{src}: {err}");
    }
    for src in [
        "char *g = \"abc\";",
        "long g = (long)\"abc\";",
        "int *g = (int*)(long)\"abc\";",
        "int f() { static char *g = \"abc\"; return (int)*g; }",
    ] {
        let checked = minc::check(&format!("{src}\nint main() {{ return 0; }}")).unwrap();
        for ci in CompilerImpl::default_set() {
            let bin = minc_compile::compile(&checked, ci);
            let init = &bin.program.globals[0].init;
            assert!(
                matches!(
                    init,
                    GlobalInit::Scalar(ConstVal::StrAddr(..), MemWidth::W8)
                ),
                "{src} ({ci}): {init:?}"
            );
        }
    }
}

/// The 23 catalog programs, 100 generated programs and Juliet at scale
/// 0.005, bad and good.
fn seed_programs() -> Vec<(String, String)> {
    let mut programs: Vec<(String, String)> = targets::build_all()
        .into_iter()
        .map(|t| (t.spec.name.clone(), t.src))
        .collect();
    for i in 0..100u64 {
        let g = progen::generate(&mut fuzzing::Rng::new(progen::mix(1, i)));
        programs.push((format!("progen/{i}"), g.source()));
    }
    for t in juliet::suite(0.005) {
        programs.push((format!("{}/bad", t.id), t.bad));
        programs.push((format!("{}/good", t.id), t.good));
    }
    programs
}

/// Applies one to four seeded edits to `src`: delete, insert or replace a
/// byte, insert a listed spelling, or copy a span of up to 64 bytes to
/// another place. Bytes that are not UTF-8 become U+FFFD.
fn mutate(src: &str, spellings: &[&str], rng: &mut fuzzing::Rng) -> String {
    let mut out = src.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(out.len() + 1);
        match rng.below(5) {
            0 if at < out.len() => {
                out.remove(at);
            }
            1 => out.insert(at, rng.byte()),
            2 if at < out.len() => out[at] = rng.byte(),
            3 => {
                out.splice(at..at, rng.choose(spellings).bytes());
            }
            _ => {
                let from = rng.below(out.len() + 1);
                let len = rng.below(65).min(out.len() - from);
                let span = out[from..from + len].to_vec();
                out.splice(at..at, span);
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Seeded byte mutants of real programs: `minc::check` returns `Ok` or a
/// `FrontendError` within a time bound, and every mutant it accepts
/// compiles under all ten implementations and runs on a fixed input
/// under a small step limit, all without a panic.
#[test]
fn source_mutants_check_compile_and_run_or_fail_typed() {
    use minc_compile::CompilerImpl;
    use std::time::{Duration, Instant};

    const MUTANTS: usize = 5_000;
    // The slowest check of a mutant takes under a millisecond.
    const CHECK_BOUND: Duration = Duration::from_secs(1);
    let programs = seed_programs();
    let spellings = listed_spellings();
    let impls = CompilerImpl::default_set();
    let config = minc_vm::VmConfig {
        step_limit: 20_000,
        heap_limit: 1 << 20,
    };
    let mut rng = fuzzing::Rng::new(0x5eed);
    let mut accepted = 0;
    for i in 0..MUTANTS {
        let (name, src) = rng.choose(&programs);
        let mutant = mutate(src, &spellings, &mut rng);
        let verdict = std::panic::catch_unwind(|| {
            let start = Instant::now();
            let checked = minc::check(&mutant);
            let took = start.elapsed();
            if let Ok(checked) = &checked {
                let (binaries, _) = minc_compile::compile_all(checked, &impls);
                for binary in &binaries {
                    minc_vm::execute(binary, b"AB\x00\xff1234", &config);
                }
            }
            (checked.is_ok(), took)
        });
        let (ok, took) =
            verdict.unwrap_or_else(|_| panic!("mutant {i} of {name} panicked:\n{mutant}"));
        assert!(
            took < CHECK_BOUND,
            "mutant {i} of {name}: check took {took:?}"
        );
        accepted += usize::from(ok);
    }
    assert!(
        accepted > 0 && accepted < MUTANTS,
        "{accepted} of {MUTANTS} mutants accepted"
    );
}
