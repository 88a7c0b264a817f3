//! The bulk C-string path against the per-byte path.
//!
//! Under a hook set that allows bulk memory access (`NoHooks`, coverage)
//! the VM reads C strings — printf's format and `%s` argument, the
//! operands of `puts`, `strlen`, `strcmp`, `strcpy`, `strncpy` and `atoi`
//! — in page chunks; under any other it checks and reads them one byte
//! at a time. `block_equivalence` cannot tell the two apart, because the
//! reference interpreter shares the builtins with block dispatch. Here
//! every program runs on all ten implementations under [`NoHooks`] and
//! under [`PerByte`], and the two `ExecResult`s must be equal: status,
//! steps and stdout.

use minc_compile::{compile_source, Binary, CompilerImpl};
use minc_vm::{ExecResult, ExecSession, ExitStatus, Hooks, Memory, NoHooks, Trap, VmConfig};

/// A hook set that overrides nothing, so `bulk_mem_ok` stays false and
/// every C string is read byte by byte.
struct PerByte;

impl Hooks for PerByte {}

/// Runs `src` on every input under both paths, in one kept session per
/// path and implementation, asserts the results equal, and returns each
/// implementation's binary with its bulk-path results.
fn both_paths(src: &str, inputs: &[Vec<u8>]) -> Vec<(Binary, Vec<ExecResult>)> {
    let cfg = VmConfig::default();
    CompilerImpl::default_set()
        .into_iter()
        .map(|ci| {
            let bin = compile_source(src, ci).unwrap();
            let mut bulk = ExecSession::new(&bin);
            let mut per_byte = ExecSession::new(&bin);
            let results = inputs
                .iter()
                .map(|input| {
                    let fast = bulk.run_with_hooks(&bin, input, &cfg, &mut NoHooks);
                    let slow = per_byte.run_with_hooks(&bin, input, &cfg, &mut PerByte);
                    assert_eq!(fast, slow, "{ci} on {input:?}");
                    fast
                })
                .collect();
            (bin, results)
        })
        .collect()
}

/// One-byte inputs `0..n`.
fn bytes(n: u8) -> Vec<Vec<u8>> {
    (0..n).map(|b| vec![b]).collect()
}

fn stdout(r: &ExecResult) -> String {
    String::from_utf8_lossy(&r.stdout).into_owned()
}

#[test]
fn format_and_string_crossing_a_page_boundary() {
    // The input puts the format string, then the `%s` argument, `k` bytes
    // before a page boundary of the heap.
    let src = r#"
        int main() {
            char buf[4];
            long n = read_input(buf, 4L);
            long k = (long)buf[0] + 1L;
            char* heap = (char*)malloc(16384L);
            long base = (long)heap;
            char* f = heap + (4096L - base % 4096L) - k;
            char* s = f + 4096L;
            strcpy(f, "fmt %d [%s] %c %5s|%-3d%%\n");
            strcpy(s, "a string that crosses");
            printf(f, 42, s, 'z', "ab", 7);
            printf("[%30s] %s\n", s, f + 4);
            return 0;
        }
    "#;
    let want = "fmt 42 [a string that crosses] z    ab|%-3d%\n\
                [         a string that crosses] %d [%s] %c %5s|%-3d%%\n\n";
    for (_, results) in both_paths(src, &bytes(40)) {
        for r in results {
            assert_eq!(r.status, ExitStatus::Code(0));
            assert_eq!(stdout(&r), want);
        }
    }
}

#[test]
fn strings_at_junk_near_the_top_of_the_stack_band() {
    // The band ends one page above the page holding main's frame; `%s`
    // and `strlen` start `k` bytes below that end and read junk until a
    // NUL or the end of the band.
    let src = r#"
        int main() {
            char buf[4];
            long n = read_input(buf, 4L);
            int x = 0;
            long end = ((long)&x | 4095L) + 4097L;
            char* p = (char*)(end - (long)buf[0] - 1L);
            printf("%ld\n", strlen(p));
            printf("[%s]\n", p);
            return x;
        }
    "#;
    let results = both_paths(src, &bytes(64));
    let segv = results
        .iter()
        .flat_map(|(_, rs)| rs)
        .filter(|r| r.status == ExitStatus::Trapped(Trap::Segv))
        .count();
    assert!(segv > 0, "no string ran off the band");
}

#[test]
fn strings_at_the_end_of_the_globals() {
    // `g` is the only global, so its end is the end of the globals
    // segment. The input leaves its last `z` bytes zero and starts `%s`
    // and `strlen` `k` bytes before its end: with `z == 0` they run off
    // the segment.
    let src = r#"
        char g[4096];
        int main() {
            char buf[4];
            long n = read_input(buf, 4L);
            long k = (long)buf[0] + 1L;
            memset(g, 'g', 4096L - (long)buf[1]);
            printf("%ld\n", strlen(g + 4096L - k));
            printf("[%s]\n", g + 4096L - k);
            return 0;
        }
    "#;
    let inputs: Vec<Vec<u8>> = (0..24)
        .flat_map(|k| [0, 1, 5].map(|z| vec![k, z]))
        .collect();
    for (_, results) in both_paths(src, &inputs) {
        for (input, r) in inputs.iter().zip(&results) {
            let (k, z) = (usize::from(input[0]) + 1, usize::from(input[1]));
            if z == 0 {
                assert_eq!(r.status, ExitStatus::Trapped(Trap::Segv), "{input:?}");
            } else {
                let g = "g".repeat(k.saturating_sub(z));
                assert_eq!(stdout(r), format!("{}\n[{g}]\n", g.len()), "{input:?}");
            }
        }
    }
}

#[test]
fn strlen_at_the_one_mebibyte_cap() {
    // 2^20 non-NUL bytes are the longest string a builtin reads; one more
    // traps.
    let src = r#"
        int main() {
            char buf[4];
            long n = read_input(buf, 4L);
            long len = 1048576L + (long)buf[0] - 1L;
            char* p = (char*)malloc(len + 1L);
            memset(p, 'a', len);
            p[len] = '\0';
            printf("%ld\n", strlen(p));
            return 0;
        }
    "#;
    for (_, results) in both_paths(src, &bytes(3)) {
        assert_eq!(stdout(&results[0]), "1048575\n");
        assert_eq!(stdout(&results[1]), "1048576\n");
        assert_eq!(results[2].status, ExitStatus::Trapped(Trap::Segv));
        assert_eq!(stdout(&results[2]), "");
    }
}

#[test]
fn strlen_running_into_the_heap_break() {
    // A chunk of `len` non-NUL bytes ends exactly at the heap break, so
    // `strlen` traps there. Some (implementation, length) pairs have a
    // NUL in the junk just past the break, where reading one byte too far
    // would return instead of trapping.
    let src = r#"
        int main() {
            char buf[4];
            long n = read_input(buf, 4L);
            long len = 16L * ((long)buf[0] + 129L);
            char* p = (char*)malloc(len);
            memset(p, 'a', len);
            printf("%p\n", p);
            printf("%ld\n", strlen(p));
            return 0;
        }
    "#;
    let inputs: Vec<Vec<u8>> = (0..=255).map(|b| vec![b]).collect();
    let mut nul_past_the_break = 0;
    for (bin, results) in both_paths(src, &inputs) {
        let mut junk = Memory::new(&bin.personality);
        for (input, r) in inputs.iter().zip(&results) {
            assert_eq!(r.status, ExitStatus::Trapped(Trap::Segv), "{input:?}");
            let p = stdout(r).trim().trim_start_matches("0x").to_string();
            let len = 16 * (i64::from(input[0] as i8) + 129) as u64;
            let end = u64::from_str_radix(&p, 16).unwrap() + len;
            if junk.read_u8(end) == 0 {
                nul_past_the_break += 1;
            }
        }
    }
    assert!(nul_past_the_break > 0, "no NUL just past any heap break");
}

#[test]
fn a_fault_in_the_second_conversion_keeps_only_earlier_calls_output() {
    let src = r#"
        int main() {
            char buf[4];
            long n = read_input(buf, 4L);
            char* bad = (char*)((long)buf[0] * 8L);
            printf("first line\n");
            printf("abc %d %s xyz\n", 5, bad);
            printf("never\n");
            return 0;
        }
    "#;
    for (_, results) in both_paths(src, &bytes(2)) {
        for r in results {
            assert_eq!(r.status, ExitStatus::Trapped(Trap::Segv));
            assert_eq!(stdout(&r), "first line\n");
        }
    }
}

#[test]
fn puts_strcmp_strcpy_strncpy_and_atoi_operands() {
    // Defined operands that cross a page boundary `k` bytes in, then
    // operands read from uninitialized heap junk.
    let src = r#"
        int main() {
            char buf[4];
            long n = read_input(buf, 4L);
            long k = (long)buf[0] + 1L;
            char* heap = (char*)malloc(8192L);
            long base = (long)heap;
            char* a = heap + (4096L - base % 4096L) - k;
            strcpy(a, "  -12345xyz");
            puts(a);
            printf("%d\n", atoi(a));
            char* b = a - 32L;
            strcpy(b, a);
            strncpy(b + 16L, a, 14L);
            printf("%d %d %d\n", strcmp(a, b), strcmp(a, "  -12345xyy"), strcmp(b + 16L, a));
            char* c = (char*)malloc(4096L);
            printf("%d %d\n", strcmp(c, a) > 0 ? 1 : 0, atoi(c));
            strcpy(b, c);
            puts(b);
            return 0;
        }
    "#;
    let want = "  -12345xyz\n-12345\n0 1 0\n";
    for (_, results) in both_paths(src, &bytes(20)) {
        for r in results {
            assert!(stdout(&r).starts_with(want), "{:?}", stdout(&r));
        }
    }
}
