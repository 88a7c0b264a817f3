//! Cross-crate integration: the paper's §2 illustrative examples, ported
//! to MinC, through the full pipeline (frontend → ten compilers → VM →
//! differential comparison → sanitizers).

use compdiff::{CompDiff, DiffConfig};
use minc_vm::{ExitStatus, SanitizerKind, VmConfig};

fn divergent(src: &str) -> bool {
    CompDiff::from_source_default(src, DiffConfig::default())
        .expect("compiles")
        .is_divergent(b"")
}

fn sanitizer_catches(src: &str, kind: SanitizerKind) -> bool {
    let bin = sanitizers::compile_sanitized(src).expect("compiles");
    matches!(
        sanitizers::run_sanitized(&bin, b"", &VmConfig::default(), kind).status,
        ExitStatus::Sanitizer(_)
    )
}

/// Paper Listing 1: overflow guard deleted by optimizing compilers.
#[test]
fn listing1_integer_overflow_guard() {
    let src = r#"
        int dump_data(int offset, int len) {
            int size = 100;
            if (offset + len > size || offset < 0 || len < 0) { return -1; }
            if (offset + len < offset) { return -1; }
            return 0;
        }
        int main() {
            printf("%d\n", dump_data(2147483647 - 100, 101));
            return 0;
        }
    "#;
    assert!(divergent(src));
    // UBSan sees the overflowing addition.
    assert!(sanitizer_catches(src, SanitizerKind::Ubsan));
}

/// Paper Listing 2 (binutils dwarf.c): relational comparison of pointers
/// to different objects. No sanitizer has a check; CompDiff catches it
/// because layouts differ.
#[test]
fn listing2_pointer_comparison() {
    let src = r#"
        int object_a;
        long object_b;
        int main() {
            char* saved_start = (char*)&object_a;
            char* look_for = (char*)&object_b;
            if (look_for <= saved_start) { printf("before\n"); }
            else { printf("after\n"); }
            return 0;
        }
    "#;
    assert!(divergent(src));
    for kind in SanitizerKind::ALL {
        assert!(
            !sanitizer_catches(src, kind),
            "{kind} should miss pointer comparison"
        );
    }
}

/// Paper Listing 3 (tcpdump print-arp.c): two calls returning one static
/// buffer, both arguments of a single print call.
#[test]
fn listing3_evaluation_order() {
    let src = r#"
        char* get_linkaddr_string(int v) {
            static char buffer[8];
            buffer[0] = (char)('0' + v % 10);
            buffer[1] = '\0';
            return buffer;
        }
        int main() {
            printf("who-is %s tell %s\n", get_linkaddr_string(1), get_linkaddr_string(2));
            return 0;
        }
    "#;
    let diff = CompDiff::from_source_default(src, DiffConfig::default()).unwrap();
    let outcome = diff.run_input(b"");
    assert!(outcome.divergent);
    // The partition must split gcc-family from clang-family (argument
    // evaluation order is a *family* property here).
    let impls = diff.impls();
    for class in &outcome.classes {
        let families: std::collections::HashSet<_> =
            class.iter().map(|&i| impls[i].family).collect();
        assert_eq!(
            families.len(),
            1,
            "classes must not mix families: {outcome:?}"
        );
    }
    for kind in SanitizerKind::ALL {
        assert!(
            !sanitizer_catches(src, kind),
            "{kind} should miss EvalOrder"
        );
    }
}

/// Paper Listing 4 (exiv2): variable stays uninitialized on the
/// empty-input path, then is printed. MSan deliberately does not report
/// print-only uses; CompDiff diverges.
#[test]
fn listing4_uninitialized_print() {
    let src = r#"
        int main() {
            char text[8];
            long n = read_input(text, 7L);
            text[n] = '\0';
            int l;
            if (text[0] >= '0' && text[0] <= '9') { l = (int)text[0] - '0'; }
            printf("0x%x\n", (l & 65535) >> 8);
            return 0;
        }
    "#;
    // Empty input: the "is >> l" analog fails, l stays uninitialized.
    let diff = CompDiff::from_source_default(src, DiffConfig::default()).unwrap();
    assert!(diff.is_divergent(b""));
    // A digit input initializes l: stable.
    assert!(!diff.is_divergent(b"7"));
    assert!(!sanitizer_catches(src, SanitizerKind::Msan));
}

/// The paper's php `__LINE__` finding: implementation-defined line
/// attribution for multi-line constructs.
#[test]
fn line_macro_attribution() {
    let src =
        "int main() {\n    printf(\"error at line %d\\n\",\n        __LINE__);\n    return 0;\n}\n";
    assert!(divergent(src));
}

/// Stable programs stay stable across every implementation — the
/// precondition for CompDiff's zero-false-positive property.
#[test]
fn defined_program_is_stable() {
    let src = r#"
        struct item { int id; long weight; };
        int total(struct item* v, int n) {
            int i;
            int acc = 0;
            for (i = 0; i < n; i++) { acc += v[i].id * 2 + (int)v[i].weight; }
            return acc;
        }
        int main() {
            struct item items[3];
            int i;
            for (i = 0; i < 3; i++) { items[i].id = i; items[i].weight = (long)(i * 10); }
            unsigned u = 4000000000u;
            printf("%d %u %ld\n", total(items, 3), u + 300000000u, (long)sizeof(struct item));
            char buf[32];
            strcpy(buf, "stable");
            printf("%s %d\n", buf, strcmp(buf, "stable"));
            return 0;
        }
    "#;
    let diff = CompDiff::from_source_default(src, DiffConfig::default()).unwrap();
    let outcome = diff.run_input(b"");
    assert!(!outcome.divergent, "classes: {:?}", outcome.classes);
    assert_eq!(outcome.classes.len(), 1);
}

/// Crash-vs-no-crash divergence: a division whose result is dead traps at
/// -O0 and is deleted at -O2 (paper Finding 4's flip side).
#[test]
fn dead_trap_divergence() {
    let src = r#"
        int main() {
            int z = (int)input_size();
            int dead = 100 / z;
            printf("survived\n");
            return 0;
        }
    "#;
    let diff = CompDiff::from_source_default(src, DiffConfig::default()).unwrap();
    let outcome = diff.run_input(b"");
    assert!(outcome.divergent);
    let statuses: std::collections::HashSet<u8> =
        outcome.results.iter().map(|r| r.status.as_code()).collect();
    assert!(statuses.len() >= 2, "must mix trap and clean exits");
}
