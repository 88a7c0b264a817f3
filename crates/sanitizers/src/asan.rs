//! AddressSanitizer analog.
//!
//! Scope (paper Table 1): memory errors — heap/stack buffer overflow and
//! underflow, use-after-free, double free, invalid free. Mechanism mirrors
//! real ASan: redzones around heap chunks, poisoned gaps between stack
//! slots, a quarantine that prevents freed-address reuse, and byte-granular
//! shadow checks on every access.

use crate::shadow::Shadow;
use minc_vm::hooks::{FreeDisposition, Hooks, Loc};
use minc_vm::result::{Fault, SanitizerKind};
use std::collections::HashSet;

/// Shadow byte states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Heap redzone (left or right of a chunk).
    HeapRedzone,
    /// Freed (quarantined) heap memory.
    Freed,
    /// Stack frame bytes not belonging to any slot.
    StackRedzone,
}

/// ASan-analog hook implementation.
#[derive(Debug, Default)]
pub struct Asan {
    shadow: Shadow<State>,
    freed: HashSet<u64>,
}

impl Asan {
    /// Fresh instance (one per execution).
    pub fn new() -> Self {
        Asan::default()
    }

    /// Bytes of redzone on each side of heap chunks.
    pub const REDZONE: u64 = 16;

    fn fault(&self, category: &str, addr: u64) -> Fault {
        Fault::new(
            SanitizerKind::Asan,
            category,
            format!("invalid access at 0x{addr:x}"),
        )
    }

    fn check(&mut self, addr: u64, width: u64) -> Option<Fault> {
        let (bad, state) = self.shadow.first_marked(addr, width)?;
        let category = match state {
            State::HeapRedzone => "heap-buffer-overflow",
            State::Freed => "heap-use-after-free",
            State::StackRedzone => "stack-buffer-overflow",
        };
        Some(self.fault(category, bad))
    }
}

impl Hooks for Asan {
    fn check_load(&mut self, addr: u64, width: u64, _loc: Loc) -> Option<Fault> {
        self.check(addr, width)
    }

    fn check_store(&mut self, addr: u64, width: u64, _loc: Loc) -> Option<Fault> {
        self.check(addr, width)
    }

    fn heap_redzone(&self) -> u64 {
        Self::REDZONE
    }

    fn on_malloc(&mut self, addr: u64, size: u64) {
        self.shadow.mark(
            addr.wrapping_sub(Self::REDZONE),
            Self::REDZONE,
            State::HeapRedzone,
        );
        self.shadow
            .mark(addr + size, Self::REDZONE, State::HeapRedzone);
        self.shadow.clear(addr, size);
        self.freed.remove(&addr);
    }

    fn on_free(&mut self, addr: u64, size: u64, _loc: Loc) -> Result<FreeDisposition, Fault> {
        self.freed.insert(addr);
        self.shadow.mark(addr, size, State::Freed);
        Ok(FreeDisposition::Quarantine)
    }

    fn on_bad_free(&mut self, addr: u64, _loc: Loc) -> Option<Fault> {
        if self.freed.contains(&addr) {
            return Some(Fault::new(
                SanitizerKind::Asan,
                "double-free",
                format!("double free of 0x{addr:x}"),
            ));
        }
        Some(Fault::new(
            SanitizerKind::Asan,
            "bad-free",
            format!("free of non-heap or interior pointer 0x{addr:x}"),
        ))
    }

    fn on_frame_enter(&mut self, lo: u64, hi: u64, slots: &[(u64, u64)]) {
        self.shadow.mark(lo, hi - lo, State::StackRedzone);
        for &(addr, size) in slots {
            self.shadow.clear(addr, size);
        }
    }

    fn on_frame_exit(&mut self, lo: u64, hi: u64) {
        self.shadow.clear(lo, hi - lo);
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::run_sanitized;
    use minc_vm::result::{ExitStatus, SanitizerKind};

    fn asan_category(src: &str) -> Option<String> {
        match run_sanitized(src, b"", SanitizerKind::Asan).status {
            ExitStatus::Sanitizer(f) => Some(f.category),
            _ => None,
        }
    }

    #[test]
    fn detects_heap_overflow() {
        let src = r#"
            int main() {
                char* p = (char*)malloc(8L);
                p[8] = 'x';
                free(p);
                return 0;
            }
        "#;
        assert_eq!(asan_category(src).as_deref(), Some("heap-buffer-overflow"));
    }

    #[test]
    fn detects_heap_underwrite() {
        let src = r#"
            int main() {
                char* p = (char*)malloc(8L);
                p[-1] = 'x';
                return 0;
            }
        "#;
        assert_eq!(asan_category(src).as_deref(), Some("heap-buffer-overflow"));
    }

    #[test]
    fn detects_use_after_free() {
        let src = r#"
            int main() {
                int* p = (int*)malloc(16L);
                p[0] = 1;
                free(p);
                printf("%d\n", p[0]);
                return 0;
            }
        "#;
        assert_eq!(asan_category(src).as_deref(), Some("heap-use-after-free"));
    }

    #[test]
    fn detects_double_free() {
        let src = r#"
            int main() {
                char* p = (char*)malloc(8L);
                free(p);
                free(p);
                return 0;
            }
        "#;
        assert_eq!(asan_category(src).as_deref(), Some("double-free"));
    }

    #[test]
    fn detects_free_of_stack_memory() {
        let src = "int main() { int x; free(&x); return 0; }";
        assert_eq!(asan_category(src).as_deref(), Some("bad-free"));
    }

    #[test]
    fn detects_stack_overflow_into_padding() {
        let src = r#"
            int main() {
                char a[8];
                a[9] = 'x';
                return 0;
            }
        "#;
        assert_eq!(asan_category(src).as_deref(), Some("stack-buffer-overflow"));
    }

    #[test]
    fn clean_program_passes() {
        let src = r#"
            int main() {
                char* p = (char*)malloc(8L);
                int i;
                for (i = 0; i < 8; i++) p[i] = (char)i;
                int s = 0;
                for (i = 0; i < 8; i++) s += p[i];
                free(p);
                printf("%d\n", s);
                return 0;
            }
        "#;
        assert_eq!(asan_category(src), None);
    }

    #[test]
    fn misses_uninit_and_evalorder_like_real_asan() {
        // Table 1: ASan scope is memory errors only.
        let uninit = "int main() { int u; printf(\"%d\\n\", u); return 0; }";
        assert_eq!(asan_category(uninit), None);
    }
}
