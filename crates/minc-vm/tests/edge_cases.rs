//! VM edge cases: allocator limits, builtin corner cases, trap precision,
//! and cross-implementation agreement on tricky-but-defined semantics.

use minc_compile::{compile_source, CompilerImpl};
use minc_vm::{execute, ExitStatus, Trap, VmConfig};

fn run(src: &str, impl_name: &str, input: &[u8]) -> minc_vm::ExecResult {
    let bin = compile_source(src, CompilerImpl::parse(impl_name).unwrap()).unwrap();
    execute(&bin, input, &VmConfig::default())
}

fn out(src: &str, impl_name: &str) -> String {
    let r = run(src, impl_name, b"");
    assert_eq!(r.status, ExitStatus::Code(0), "{impl_name}: {}", r.status);
    String::from_utf8_lossy(&r.stdout).into_owned()
}

fn all_impls_agree(src: &str, expect: &str) {
    for ci in CompilerImpl::default_set() {
        assert_eq!(out(src, &ci.to_string()), expect, "{ci}");
    }
}

#[test]
fn malloc_zero_returns_distinct_valid_pointers() {
    all_impls_agree(
        r#"
        int main() {
            char* a = (char*)malloc(0L);
            char* b = (char*)malloc(0L);
            printf("%d %d\n", a != 0 ? 1 : 0, a != b ? 1 : 0);
            free(a);
            free(b);
            return 0;
        }
        "#,
        "1 1\n",
    );
}

#[test]
fn malloc_oom_returns_null() {
    let src = r#"
        int main() {
            char* p = (char*)malloc(1073741824L);
            printf("%d\n", p == 0 ? 1 : 0);
            return 0;
        }
    "#;
    all_impls_agree(src, "1\n");
}

#[test]
fn free_null_is_noop() {
    all_impls_agree(
        "int main() { char* p = 0; free(p); printf(\"ok\\n\"); return 0; }",
        "ok\n",
    );
}

#[test]
fn signed_division_edge_cases() {
    all_impls_agree(
        r#"
        int main() {
            printf("%d %d %d\n", -7 / 2, -7 % 2, 7 / -2);
            long big = -9223372036854775807L - 1L;
            printf("%ld\n", big / 2L);
            return 0;
        }
        "#,
        "-3 -1 -3\n-4611686018427387904\n",
    );
}

#[test]
fn int_min_div_minus_one_traps_like_x86() {
    let src = r#"
        int main() {
            int m = (int)input_size() - 2147483647 - 1;
            int d = -1 - (int)input_size();
            printf("%d\n", m / d);
            return 0;
        }
    "#;
    let r = run(src, "gcc-O0", b"");
    assert_eq!(r.status, ExitStatus::Trapped(Trap::Sigfpe));
}

#[test]
fn char_semantics_are_signed_and_truncating() {
    all_impls_agree(
        r#"
        int main() {
            char c = (char)200;
            printf("%d\n", (int)c);
            char d = (char)(70000 + (int)input_size());
            printf("%d\n", (int)d);
            return 0;
        }
        "#,
        "-56\n112\n", // 200 -> -56; 70000 & 0xff = 0x70 = +112
    );
}

#[test]
fn unsigned_comparisons_and_prints() {
    all_impls_agree(
        r#"
        int main() {
            unsigned a = 4294967295u;
            unsigned b = 1u;
            printf("%d %u %x\n", a > b ? 1 : 0, a, a);
            return 0;
        }
        "#,
        "1 4294967295 ffffffff\n",
    );
}

#[test]
fn runtime_shift_masks_like_x86_in_every_binary() {
    // Runtime (unfoldable) oversized shift: every implementation executes
    // the hardware-masked shift, so they agree.
    all_impls_agree(
        r#"
        int main() {
            int sh = 33 + (int)input_size();
            printf("%d\n", 1 << sh);
            return 0;
        }
        "#,
        "2\n",
    );
}

#[test]
fn string_builtins_agree() {
    all_impls_agree(
        r#"
        int main() {
            char a[16];
            char b[16];
            strcpy(a, "hello");
            strncpy(b, "hello", 16L);
            printf("%d %d %d\n", strcmp(a, b), strcmp(a, "hellp"), strcmp("z", a));
            printf("%ld %ld\n", strlen(a), strlen(""));
            return 0;
        }
        "#,
        "0 -1 1\n5 0\n",
    );
}

#[test]
fn atoi_corner_cases() {
    all_impls_agree(
        r#"
        int main() {
            printf("%d %d %d %d\n", atoi("42"), atoi("-17"), atoi("  9x9"), atoi("nope"));
            return 0;
        }
        "#,
        "42 -17 9 0\n",
    );
}

#[test]
fn printf_edge_cases() {
    all_impls_agree(
        r#"
        int main() {
            printf("%%d is %d|%05d|%c|%s|\n", -3, 42, 'Q', "");
            printf("%f\n", 1.5);
            printf("%u\n", -1);
            return 0;
        }
        "#,
        "%d is -3|00042|Q||\n1.500000\n4294967295\n",
    );
}

#[test]
fn double_arithmetic_agrees_on_defined_paths() {
    all_impls_agree(
        r#"
        int main() {
            double a = 1.5;
            double b = 2.25;
            printf("%f %f %d\n", a + b, a * b, a < b ? 1 : 0);
            printf("%f %f\n", sqrt(16.0), floor(3.9));
            return 0;
        }
        "#,
        "3.750000 3.375000 1\n4.000000 3.000000\n",
    );
}

#[test]
fn memcpy_to_invalid_memory_traps() {
    let src = r#"
        int main() {
            char buf[8];
            memcpy((char*)64L, buf, 4L);
            return 0;
        }
    "#;
    let r = run(src, "clang-O1", b"");
    assert_eq!(r.status, ExitStatus::Trapped(Trap::Segv));
}

#[test]
fn writes_to_rodata_trap() {
    let src = r#"
        int main() {
            char* s = "const";
            s[0] = 'X';
            return 0;
        }
    "#;
    let r = run(src, "gcc-O2", b"");
    assert_eq!(r.status, ExitStatus::Trapped(Trap::Segv));
}

#[test]
fn read_input_handles_zero_and_oversized_requests() {
    let src = r#"
        int main() {
            char b[4];
            printf("%ld ", read_input(b, 0L));
            printf("%ld ", read_input(b, 2L));
            printf("%ld\n", read_input(b, 100L));
            return 0;
        }
    "#;
    let bin = compile_source(src, CompilerImpl::parse("gcc-O1").unwrap()).unwrap();
    let r = execute(&bin, b"abc", &VmConfig::default());
    // 0 bytes, then 2 ("ab"), then 1 more ("c") even though 100 requested
    // (and the 100-byte request only writes 1 byte, within bounds).
    assert_eq!(String::from_utf8_lossy(&r.stdout), "0 2 1\n");
}

#[test]
fn deep_but_bounded_recursion_is_fine() {
    all_impls_agree(
        r#"
        int depth(int n) { if (n == 0) { return 0; } return 1 + depth(n - 1); }
        int main() { printf("%d\n", depth(150)); return 0; }
        "#,
        "150\n",
    );
}

#[test]
fn global_initializers_and_statics_are_loaded() {
    all_impls_agree(
        r#"
        int g = 40 + 2;
        long h = 1L << 40;
        char* msg = "boot";
        int bump() { static int n = 10; n++; return n; }
        int main() {
            bump();
            printf("%d %ld %s %d\n", g, h >> 38, msg, bump());
            return 0;
        }
        "#,
        "42 4 boot 12\n",
    );
}

#[test]
fn initializers_equal_the_same_expression_at_run_time() {
    // Each global is initialized with one expression and `main` computes
    // the same expression into a local: initializers follow the run-time
    // rules (usual arithmetic conversions, signedness, char narrowing).
    all_impls_agree(
        r#"
        int a = (unsigned int)-1 > 1;
        unsigned int b = (unsigned int)-1 / 2;
        long c = (unsigned int)-1;
        double d = (unsigned int)-1;
        unsigned int e = (unsigned int)-1 >> 4;
        char h = 300;
        long k = 1L << 40;
        double m = 7;
        int n = -2.75;
        int main() {
            int la = (unsigned int)-1 > 1;
            unsigned int lb = (unsigned int)-1 / 2;
            long lc = (unsigned int)-1;
            double ld = (unsigned int)-1;
            unsigned int le = (unsigned int)-1 >> 4;
            char lh = 300;
            long lk = 1L << 40;
            double lm = 7;
            int ln = -2.75;
            printf("%d %d\n", a, la);
            printf("%u %u\n", b, lb);
            printf("%ld %ld\n", c, lc);
            printf("%f %f\n", d, ld);
            printf("%u %u\n", e, le);
            printf("%d %d\n", h, lh);
            printf("%ld %ld\n", k, lk);
            printf("%f %f\n", m, lm);
            printf("%d %d\n", n, ln);
            return 0;
        }
        "#,
        "1 1\n\
         2147483647 2147483647\n\
         4294967295 4294967295\n\
         4294967295.000000 4294967295.000000\n\
         268435455 268435455\n\
         44 44\n\
         1099511627776 1099511627776\n\
         7.000000 7.000000\n\
         -2 -2\n",
    );
}

#[test]
fn double_to_unsigned_int_keeps_values_above_int_max() {
    all_impls_agree(
        r#"
        unsigned int g = 3000000000.0;
        unsigned int h = (unsigned int)4294967295.0;
        int main() {
            double d = 3000000000.0;
            unsigned int u = d;
            printf("%u %u\n", g, u);
            printf("%u %u\n", h, (unsigned int)4294967295.0);
            return 0;
        }
        "#,
        "3000000000 3000000000\n4294967295 4294967295\n",
    );
}

#[test]
fn ternary_and_logical_short_circuit() {
    all_impls_agree(
        r#"
        int hits;
        int bump(int v) { hits++; return v; }
        int main() {
            int r = 0 && bump(1);
            int s = 1 || bump(1);
            printf("%d %d %d\n", r, s, hits);
            printf("%d\n", 1 ? 2 : bump(9));
            printf("%d\n", hits);
            return 0;
        }
        "#,
        "0 1 0\n2\n0\n",
    );
}
