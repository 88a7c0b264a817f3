//! Persistent-mode execution sessions — the forkserver analogue.
//!
//! CompDiff's pipeline executes every fuzzer-generated input on all `k`
//! differential binaries; AFL++ only makes that tractable with
//! persistent-mode / forkserver execution, where per-run setup cost is
//! paid once. [`ExecSession`] is this repo's equivalent: it owns the VM
//! state that is expensive to rebuild — the paged [`Memory`] (pages stay
//! allocated across runs and are restored via an epoch/dirty scheme), the
//! activation-record pool (register and poison vectors are recycled
//! instead of re-allocated per call frame), and the allocator maps — and
//! resets it between runs.
//!
//! A session run is **bit-for-bit equivalent** to a fresh
//! [`execute`](crate::execute): same status, same stdout, same step count,
//! same junk bytes. The equivalence holds because every piece of reused
//! state is either restored to its pristine value (memory junk is a pure
//! function of the personality seed and the address, so an epoch reset
//! reproduces it exactly) or fully re-initialized per run (registers are
//! zeroed on frame entry, allocator maps are cleared). The top-level
//! `session_equivalence` suite pins this across the whole target catalog,
//! including runs immediately after traps and sanitizer faults.
//!
//! Sessions run the block dispatcher (`block.rs`), translating each
//! binary once and caching the translation. They also keep each binary's
//! post-loader page image: the first run of a binary runs the loader and
//! captures the pages it wrote, and every later run of the same binary
//! starts from that image instead of running the loader again. A session
//! built with [`ExecSession::reference`] runs the per-instruction
//! interpreter instead: it is the reference the block dispatcher is
//! checked against by tests and benches, and production code never
//! builds one.
//!
//! ```
//! use minc_compile::{compile_source, CompilerImpl};
//! use minc_vm::{execute, ExecSession, VmConfig};
//!
//! # fn main() -> Result<(), minc::FrontendError> {
//! let bin = compile_source(
//!     "int main() { printf(\"%d\\n\", (int)input_size()); return 0; }",
//!     CompilerImpl::parse("gcc-O2").unwrap(),
//! )?;
//! let cfg = VmConfig::default();
//! let mut session = ExecSession::new(&bin);
//! for input in [&b"a"[..], b"bc", b"def"] {
//!     assert_eq!(session.run(&bin, input, &cfg), execute(&bin, input, &cfg));
//! }
//! # Ok(())
//! # }
//! ```

use crate::block::BlockProgram;
use crate::exec::{run_in_session, VmConfig};
use crate::hooks::{Hooks, NoHooks};
use crate::memory::Memory;
use crate::result::ExecResult;
use minc_compile::ir::ValueId;
use minc_compile::Binary;
use std::collections::HashMap;
use std::sync::Arc;

/// One call frame (an activation record). Owned by the session so the
/// register/poison vectors can be pooled across runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Activation {
    pub(crate) func: u32,
    pub(crate) block: u32,
    pub(crate) inst: usize,
    pub(crate) regs: Vec<u64>,
    pub(crate) poison: Vec<bool>,
    pub(crate) frame_lo: u64,
    pub(crate) frame_hi: u64,
    pub(crate) ret_dst: Option<ValueId>,
}

/// Cumulative execution statistics of one [`ExecSession`] — intrinsic
/// plain-`u64` counters, cheap enough to maintain unconditionally (the
/// telemetry layer samples them per job and turns deltas into metrics;
/// the VM itself has no telemetry dependency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Executions performed by this session.
    pub runs: u64,
    /// Dirty pages lazily restored from their pristine snapshot — the
    /// per-reset write-set size, summed over all resets.
    pub pages_restored: u64,
    /// Pages materialized with fresh junk (first-touch cost).
    pub pages_materialized: u64,
    /// Builtin memory ops (memcpy/memset/read_input) that took the
    /// page-chunked bulk path.
    pub bulk_builtin_ops: u64,
    /// Builtin memory ops that fell back to the per-byte loop (poison
    /// tracking active, or a range that may trap part-way).
    pub fallback_builtin_ops: u64,
    /// Full memory rebuilds forced because a previous run was abandoned
    /// mid-execution (a panic unwound through the VM), leaving the
    /// session state unknown.
    pub poisoned_rebuilds: u64,
    /// Superblocks translated by this session (cache miss). Pre-seeded
    /// translations (campaign `BinaryCache`) count at the cache, not here.
    pub blocks_translated: u64,
    /// Runs that found their block translation already cached.
    pub block_cache_hits: u64,
    /// Runs that skipped the loader pass because the session already
    /// held this binary's post-loader page image (every run of a binary
    /// but the first since the session last ran a different one).
    pub loader_skips: u64,
}

impl SessionStats {
    /// Folds another session's statistics into this one (e.g. summing
    /// across the per-implementation sessions of one differential job).
    pub fn merge(&mut self, other: SessionStats) {
        self.runs += other.runs;
        self.pages_restored += other.pages_restored;
        self.pages_materialized += other.pages_materialized;
        self.bulk_builtin_ops += other.bulk_builtin_ops;
        self.fallback_builtin_ops += other.fallback_builtin_ops;
        self.poisoned_rebuilds += other.poisoned_rebuilds;
        self.blocks_translated += other.blocks_translated;
        self.block_cache_hits += other.block_cache_hits;
        self.loader_skips += other.loader_skips;
    }
}

/// A reusable per-binary execution context (persistent mode).
///
/// Create one per [`Binary`] and call [`run`](ExecSession::run) for each
/// input; state is reset between runs without releasing allocations. The
/// binary is passed per run rather than borrowed, so sessions can live in
/// long-lived structs (oracles, fuzz targets, campaign workers) without
/// lifetime plumbing; a session keyed to one implementation that is handed
/// a binary with a different junk seed transparently rebuilds its memory
/// (a cache miss, never a wrong answer).
#[derive(Debug, Clone)]
pub struct ExecSession {
    pub(crate) seed: u64,
    pub(crate) mem: Memory,
    pub(crate) frames: Vec<Activation>,
    pub(crate) frame_pool: Vec<Activation>,
    pub(crate) free_lists: HashMap<u64, Vec<u64>>,
    pub(crate) live_chunks: HashMap<u64, u64>,
    pub(crate) runs: u64,
    pub(crate) bulk_ops: u64,
    pub(crate) fallback_ops: u64,
    /// True while a run is executing. Still set on the *next* `prepare`
    /// if the previous run never returned (a panic unwound through the
    /// VM — e.g. a panicking instrumentation hook caught by the
    /// campaign's `catch_unwind`): the session state is then unknown and
    /// is rebuilt from scratch instead of trusted.
    pub(crate) in_flight: bool,
    pub(crate) poisoned: u64,
    /// Cached block translation, keyed by [`Binary::uid`]. Shared (`Arc`)
    /// so the campaign's `BinaryCache` can translate once per binary and
    /// seed every session.
    pub(crate) block: Option<Arc<BlockProgram>>,
    pub(crate) blocks_translated: u64,
    pub(crate) block_cache_hits: u64,
    /// Fixed at construction: runs go through the per-instruction
    /// reference interpreter instead of block dispatch (see
    /// [`ExecSession::reference`]).
    pub(crate) reference: bool,
    /// [`Binary::uid`] whose post-loader page image is currently baked
    /// into `mem` (see [`run_with_hooks`](ExecSession::run_with_hooks)),
    /// or `None` when memory resets to plain pristine junk.
    pub(crate) loaded_uid: Option<u64>,
    pub(crate) loader_skips: u64,
    /// Pooled scratch for printf's format string and rendered output —
    /// printf is the hottest builtin and per-call buffer allocations
    /// dominated its cost.
    pub(crate) printf_fmt: Vec<u8>,
    pub(crate) printf_out: Vec<u8>,
}

impl ExecSession {
    /// Creates a session for `binary`'s compiler implementation.
    pub fn new(binary: &Binary) -> Self {
        ExecSession {
            seed: binary.personality.seed,
            mem: Memory::new(&binary.personality),
            frames: Vec::new(),
            frame_pool: Vec::new(),
            free_lists: HashMap::new(),
            live_chunks: HashMap::new(),
            runs: 0,
            bulk_ops: 0,
            fallback_ops: 0,
            in_flight: false,
            poisoned: 0,
            block: None,
            blocks_translated: 0,
            block_cache_hits: 0,
            reference: false,
            loaded_uid: None,
            loader_skips: 0,
            printf_fmt: Vec::new(),
            printf_out: Vec::new(),
        }
    }

    /// Creates a session for `binary`'s compiler implementation that runs
    /// the per-instruction reference interpreter instead of block
    /// dispatch. Results are bit-for-bit those of [`new`](ExecSession::new);
    /// the equivalence suites and the VM benches compare the two.
    /// Production code never constructs one.
    pub fn reference(binary: &Binary) -> Self {
        ExecSession {
            reference: true,
            ..ExecSession::new(binary)
        }
    }

    /// Pre-seeds the block-translation cache (no counter bump): campaign
    /// workers translate once per binary in the `BinaryCache` and hand the
    /// shared translation to every session they create.
    pub fn set_block_program(&mut self, prog: Arc<BlockProgram>) {
        self.block = Some(prog);
    }

    /// Returns the cached block translation for `bin`, translating on a
    /// uid mismatch (same self-heal contract as the memory rebuild above:
    /// a miss, never a wrong answer).
    pub(crate) fn block_program(&mut self, bin: &Binary) -> Arc<BlockProgram> {
        match &self.block {
            Some(p) if p.uid() == bin.uid => {
                self.block_cache_hits += 1;
                Arc::clone(p)
            }
            _ => {
                let p = Arc::new(BlockProgram::translate(bin));
                self.blocks_translated += p.block_count() as u64;
                self.block = Some(Arc::clone(&p));
                p
            }
        }
    }

    /// Resets per-run state: memory enters a new epoch (pristine junk,
    /// allocations kept), leftover frames from a trapped run return to the
    /// pool, and the allocator maps are emptied.
    fn prepare(&mut self, binary: &Binary) {
        if self.in_flight {
            // The previous run unwound mid-execution: the epoch/dirty
            // bookkeeping may be torn, so the incremental reset cannot be
            // trusted. Rebuild memory wholesale (page counters stay
            // cumulative, like the seed-mismatch rebuild below).
            let (restored, materialized) = (self.mem.restored, self.mem.materialized);
            self.seed = binary.personality.seed;
            self.mem = Memory::new(&binary.personality);
            self.mem.restored = restored;
            self.mem.materialized = materialized;
            self.frames.clear();
            self.poisoned += 1;
            self.in_flight = false;
            self.loaded_uid = None;
        } else if binary.personality.seed != self.seed {
            // Session built for a different implementation: the junk
            // pattern would be wrong, so rebuild memory from scratch.
            // Page counters stay cumulative across the rebuild.
            let (restored, materialized) = (self.mem.restored, self.mem.materialized);
            self.seed = binary.personality.seed;
            self.mem = Memory::new(&binary.personality);
            self.mem.restored = restored;
            self.mem.materialized = materialized;
            self.loaded_uid = None;
        } else {
            self.mem.reset();
            // A loader image describes exactly one binary's rodata and
            // globals; a same-seed run of a *different* binary must drop
            // it so untouched loader pages read as pristine junk again
            // (a cache miss, never a wrong answer). Runs this early in
            // the new epoch, before any page is touched, so the cleared
            // pages restore lazily like any other dirty page.
            if self.loaded_uid.is_some_and(|u| u != binary.uid) {
                self.mem.clear_loader_image();
                self.loaded_uid = None;
            }
        }
        self.frame_pool.append(&mut self.frames);
        self.free_lists.clear();
        self.live_chunks.clear();
    }

    /// Runs `binary` on `input` with no instrumentation, reusing this
    /// session's memory and frame pool. Equivalent to
    /// [`execute`](crate::execute) bit for bit.
    pub fn run(&mut self, binary: &Binary, input: &[u8], config: &VmConfig) -> ExecResult {
        self.run_with_hooks(binary, input, config, &mut NoHooks)
    }

    /// Runs `binary` on `input` with instrumentation hooks. Equivalent to
    /// [`execute_with_hooks`](crate::execute_with_hooks) bit for bit
    /// (hooks state is the caller's concern, exactly as with the fresh
    /// entry point).
    ///
    /// The session keeps a *post-loader page image* keyed by
    /// [`Binary::uid`]: the first run of a binary captures its loader
    /// output (rodata strings, zeroed globals, initializers) as the
    /// memory's reset base, and every later run of the same binary skips
    /// the loader pass and pays no restore for loader pages the program
    /// never writes. The image is a pure function of the binary, so
    /// restoring it is indistinguishable from re-running the loader on
    /// freshly reset memory. Handing the session a different binary drops
    /// the image (a cache miss, never a wrong answer).
    pub fn run_with_hooks<H: Hooks>(
        &mut self,
        binary: &Binary,
        input: &[u8],
        config: &VmConfig,
        hooks: &mut H,
    ) -> ExecResult {
        self.prepare(binary);
        let load = self.loaded_uid != Some(binary.uid);
        if !load {
            self.loader_skips += 1;
        }
        self.runs += 1;
        self.in_flight = true;
        let result = run_in_session(self, binary, input, config, hooks, load);
        self.in_flight = false;
        self.loaded_uid = Some(binary.uid);
        result
    }

    /// Number of memory pages this session keeps resident (the high-water
    /// mark across all runs so far).
    pub fn resident_pages(&self) -> usize {
        self.mem.page_count()
    }

    /// Cumulative execution statistics (see [`SessionStats`]).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            runs: self.runs,
            pages_restored: self.mem.restored,
            pages_materialized: self.mem.materialized,
            bulk_builtin_ops: self.bulk_ops,
            fallback_builtin_ops: self.fallback_ops,
            poisoned_rebuilds: self.poisoned,
            blocks_translated: self.blocks_translated,
            block_cache_hits: self.block_cache_hits,
            loader_skips: self.loader_skips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::result::{ExitStatus, Trap};
    use minc_compile::{compile_source, CompilerImpl};

    fn bin(src: &str, impl_name: &str) -> Binary {
        compile_source(src, CompilerImpl::parse(impl_name).unwrap()).unwrap()
    }

    #[test]
    fn session_matches_fresh_execute_across_inputs() {
        let b = bin(
            r#"
            int main() {
                char buf[32];
                long n = read_input(buf, 31L);
                buf[n] = '\0';
                int i; int acc = 0;
                for (i = 0; i < (int)n; i++) { acc += buf[i]; }
                printf("%s -> %d\n", buf, acc);
                return acc % 7;
            }
            "#,
            "gcc-O2",
        );
        let cfg = VmConfig::default();
        let mut s = ExecSession::new(&b);
        for input in [&b""[..], b"a", b"hello", b"\xff\x00\x7f", b"longer input!"] {
            assert_eq!(
                s.run(&b, input, &cfg),
                execute(&b, input, &cfg),
                "{input:?}"
            );
        }
    }

    #[test]
    fn session_reuses_pages_across_runs() {
        let b = bin(
            r#"
            int main() {
                char* p = (char*)malloc(20000L);
                memset(p, 7, 20000L);
                printf("%d\n", (int)p[19999]);
                free(p);
                return 0;
            }
            "#,
            "clang-O1",
        );
        let cfg = VmConfig::default();
        let mut s = ExecSession::new(&b);
        let first = s.run(&b, b"", &cfg);
        let pages = s.resident_pages();
        assert!(pages >= 5, "the heap walk must materialize pages: {pages}");
        for _ in 0..3 {
            assert_eq!(s.run(&b, b"", &cfg), first);
        }
        assert_eq!(s.resident_pages(), pages, "no page growth on re-run");
    }

    #[test]
    fn session_recovers_after_trap() {
        // A run that dies mid-frame (segv) must not poison the next run.
        let b = bin(
            r#"
            int main() {
                char buf[4];
                long n = read_input(buf, 4L);
                if (n > 0 && buf[0] == '!') { int* p = 0; *p = 1; }
                printf("ok\n");
                return 0;
            }
            "#,
            "gcc-O0",
        );
        let cfg = VmConfig::default();
        let mut s = ExecSession::new(&b);
        let crash = s.run(&b, b"!x", &cfg);
        assert_eq!(crash.status, ExitStatus::Trapped(Trap::Segv));
        assert_eq!(s.run(&b, b"ab", &cfg), execute(&b, b"ab", &cfg));
        assert_eq!(s.run(&b, b"!y", &cfg), execute(&b, b"!y", &cfg));
    }

    #[test]
    fn session_heals_on_binary_mismatch() {
        let src = "int main() { int u; printf(\"%d\\n\", u); return 0; }";
        let a = bin(src, "gcc-O0");
        let c = bin(src, "clang-O0");
        let cfg = VmConfig::default();
        let mut s = ExecSession::new(&a);
        assert_eq!(s.run(&a, b"", &cfg), execute(&a, b"", &cfg));
        // Junk-seed mismatch: the session must rebuild, not misread junk.
        assert_eq!(s.run(&c, b"", &cfg), execute(&c, b"", &cfg));
        assert_eq!(s.run(&a, b"", &cfg), execute(&a, b"", &cfg));
    }

    #[test]
    fn stats_count_runs_pages_and_bulk_ops() {
        let b = bin(
            r#"
            int main() {
                char* p = (char*)malloc(9000L);
                memset(p, 3, 9000L);
                char q[16];
                memcpy(q, p, 16L);
                printf("%d\n", (int)q[7]);
                free(p);
                return 0;
            }
            "#,
            "gcc-O1",
        );
        let cfg = VmConfig::default();
        let mut s = ExecSession::new(&b);
        assert_eq!(s.stats(), SessionStats::default());
        s.run(&b, b"", &cfg);
        let first = s.stats();
        assert_eq!(first.runs, 1);
        assert!(first.pages_materialized >= 3, "{first:?}");
        assert_eq!(first.pages_restored, 0, "nothing to restore on run 1");
        assert!(first.bulk_builtin_ops >= 2, "memset + memcpy: {first:?}");
        s.run(&b, b"", &cfg);
        let second = s.stats();
        assert_eq!(second.runs, 2);
        assert!(
            second.pages_restored > 0,
            "run 2 must lazily restore run 1's dirty pages: {second:?}"
        );
        assert_eq!(
            second.pages_materialized, first.pages_materialized,
            "no new pages on an identical re-run"
        );
    }

    #[test]
    fn session_recovers_after_panic_unwinds_mid_run() {
        use crate::hooks::Loc;
        use crate::result::Fault;

        // A hook that panics after a few loads — the stand-in for any bug
        // (or injected fault) that unwinds through the VM while a run is
        // in flight. The campaign's `catch_unwind` swallows the panic;
        // the *session* must then detect the abandoned run and rebuild
        // instead of resuming from torn state.
        struct PanicAfter(u32);
        impl Hooks for PanicAfter {
            fn check_load(&mut self, _addr: u64, _width: u64, _loc: Loc) -> Option<Fault> {
                self.0 -= 1;
                assert!(self.0 > 0, "injected mid-run panic");
                None
            }
        }

        let b = bin(
            r#"
            int main() {
                char* p = (char*)malloc(6000L);
                memset(p, 5, 6000L);
                int i; int acc = 0;
                for (i = 0; i < 50; i++) { acc += p[i * 100]; }
                printf("%d\n", acc);
                free(p);
                return 0;
            }
            "#,
            "gcc-O2",
        );
        let cfg = VmConfig::default();
        let mut s = ExecSession::new(&b);
        assert_eq!(s.run(&b, b"", &cfg), execute(&b, b"", &cfg));

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run_with_hooks(&b, b"", &cfg, &mut PanicAfter(5))
        }));
        assert!(unwound.is_err(), "the hook must have panicked");
        assert_eq!(s.stats().poisoned_rebuilds, 0, "not yet detected");

        // The next run self-heals: full rebuild, bit-identical result.
        assert_eq!(s.run(&b, b"", &cfg), execute(&b, b"", &cfg));
        assert_eq!(s.stats().poisoned_rebuilds, 1);
        // And the one after that is back on the incremental fast path.
        assert_eq!(s.run(&b, b"", &cfg), execute(&b, b"", &cfg));
        assert_eq!(s.stats().poisoned_rebuilds, 1);
    }

    #[test]
    fn warm_runs_skip_the_loader_bit_for_bit() {
        // The loader-image fast path (capture on run 1, skip afterwards)
        // must be invisible in results — including uninitialized reads of
        // loader-page junk and global mutation across runs.
        let b = bin(
            r#"
            int g_acc;
            char g_buf[64];
            char* msg = "warm";
            int main() {
                char in[8];
                long n = read_input(in, 7L);
                g_acc += (int)n;
                g_buf[0] = in[0];
                int u;
                printf("%s %d %d %d\n", msg, g_acc, (int)g_buf[1], u);
                return 0;
            }
            "#,
            "gcc-O2",
        );
        let cfg = VmConfig::default();
        let mut s = ExecSession::new(&b);
        for input in [&b"a"[..], b"bb", b"ccc", b"", b"dddd"] {
            assert_eq!(
                s.run(&b, input, &cfg),
                execute(&b, input, &cfg),
                "{input:?}"
            );
        }
        assert_eq!(s.stats().loader_skips, 4, "{:?}", s.stats());
    }

    #[test]
    fn run_heals_on_binary_switch() {
        // A different binary with the *same* junk seed must invalidate the
        // loader image: its untouched loader pages have to read as
        // pristine junk, not the previous binary's strings.
        let a = bin(
            "char* s = \"AAAAAAAA\"; int main() { printf(\"%s\\n\", s); return 0; }",
            "gcc-O0",
        );
        let c = bin(
            "int main() { int u; printf(\"%d\\n\", u); return 0; }",
            "gcc-O0",
        );
        assert_eq!(a.personality.seed, c.personality.seed, "same impl");
        let cfg = VmConfig::default();
        let mut s = ExecSession::new(&a);
        for _ in 0..2 {
            assert_eq!(s.run(&a, b"", &cfg), execute(&a, b"", &cfg));
        }
        for _ in 0..2 {
            assert_eq!(s.run(&c, b"", &cfg), execute(&c, b"", &cfg));
        }
        assert_eq!(s.run(&a, b"", &cfg), execute(&a, b"", &cfg));
        // Each switch captures again: only the repeat runs skip.
        assert_eq!(s.stats().loader_skips, 2, "{:?}", s.stats());
    }

    #[test]
    fn loader_image_survives_a_trap() {
        let b = bin(
            r#"
            int g;
            int main() {
                char buf[4];
                long n = read_input(buf, 4L);
                g = 7;
                if (n > 0 && buf[0] == '!') { int* p = 0; *p = 1; }
                printf("g=%d\n", g);
                return 0;
            }
            "#,
            "gcc-O2",
        );
        let cfg = VmConfig::default();
        let mut s = ExecSession::new(&b);
        assert_eq!(s.run(&b, b"ok", &cfg), execute(&b, b"ok", &cfg));
        let crash = s.run(&b, b"!x", &cfg);
        assert_eq!(crash.status, ExitStatus::Trapped(Trap::Segv));
        assert_eq!(crash, execute(&b, b"!x", &cfg));
        assert_eq!(s.run(&b, b"ab", &cfg), execute(&b, b"ab", &cfg));
    }

    #[test]
    fn escalated_rerun_in_reused_session_matches_fresh_session() {
        // The differ's timeout-escalation policy re-runs a timed-out
        // implementation in the SAME session under a doubled step budget.
        // A run abandoned at the step limit leaves dirty pages, pooled
        // frames, and heap state behind; the epoch reset must clear all
        // of it so the escalated re-run — which skips the loader — is
        // bit-identical to one in a brand-new session, under block
        // dispatch and the reference interpreter.
        let b = bin(
            r#"
            int work(int depth) {
                char local[64];
                memset(local, depth, 64L);
                if (depth > 0) { return local[3] + work(depth - 1); }
                return (int)local[0];
            }
            int main() {
                char* heap = (char*)malloc(12000L);
                memset(heap, 9, 12000L);
                int i; int acc = 0;
                for (i = 0; i < 40; i++) { acc += work(8) + heap[i * 300]; }
                printf("acc=%d\n", acc);
                free(heap);
                return 0;
            }
            "#,
            "gcc-O2",
        );
        let full = VmConfig::default();
        let steps = execute(&b, b"", &full).steps;
        let tight = VmConfig {
            step_limit: steps * 2 / 3,
            ..full
        };
        let doubled = VmConfig {
            step_limit: tight.step_limit * 2,
            ..tight.clone()
        };
        for make in [ExecSession::reference, ExecSession::new] {
            let mut reused = make(&b);
            let reference = reused.reference;
            let timed_out = reused.run(&b, b"", &tight);
            assert_eq!(timed_out.status, ExitStatus::TimedOut, "{reference}");

            let rerun = reused.run(&b, b"", &doubled);
            assert_eq!(reused.stats().loader_skips, 1, "{reference}");
            let fresh = make(&b).run(&b, b"", &doubled);
            assert_eq!(rerun, fresh, "reference={reference}");
            assert_eq!(rerun.status, ExitStatus::Code(0));
        }
    }

    #[test]
    fn reference_sessions_run_the_interpreter() {
        // Only block dispatch translates. A reference session that touched
        // a translation would make every comparison against it vacuous.
        let b = bin("int main() { printf(\"hi\\n\"); return 0; }", "gcc-O1");
        let cfg = VmConfig::default();
        let mut reference = ExecSession::reference(&b);
        let mut block = ExecSession::new(&b);
        for _ in 0..2 {
            assert_eq!(reference.run(&b, b"", &cfg), block.run(&b, b"", &cfg));
        }
        let (r, k) = (reference.stats(), block.stats());
        assert_eq!((r.blocks_translated, r.block_cache_hits), (0, 0), "{r:?}");
        assert!(k.blocks_translated > 0, "{k:?}");
        assert_eq!(k.block_cache_hits, 1, "{k:?}");
    }

    #[test]
    fn uninit_junk_is_identical_under_session_reuse() {
        // The personality-defined junk an uninitialized read observes must
        // be byte-identical on every run of a session (determinism is
        // CompDiff's precondition).
        let b = bin(
            "int main() { int u; printf(\"%d\\n\", u); return 0; }",
            "clang-O3",
        );
        let cfg = VmConfig::default();
        let mut s = ExecSession::new(&b);
        let fresh = execute(&b, b"", &cfg);
        for _ in 0..4 {
            assert_eq!(s.run(&b, b"", &cfg), fresh);
        }
    }
}
