//! Allocation guard for the oracle's steady state.
//!
//! Every fuzz input runs on all ten binaries, so anything a differential
//! execution allocates is paid ten times per input. Once warm, a session
//! run into a reused result slot must allocate nothing, and the fuzz
//! oracle's batch must cost a fixed number of allocations whatever its
//! size. A counting global allocator checks both; it counts per thread,
//! so the test harness's own threads do not disturb the figures.

use compdiff::{CompDiff, CompDiffOracle, DiffConfig};
use fuzzing::Oracle;
use minc_compile::CompilerImpl;
use minc_vm::{ExecResult, ExecSession, NoHooks, VmConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use targets::{build, catalog};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also serves thread teardown, after this
    // thread's counter is gone.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting every allocation and reallocation the
/// calling thread makes.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialized thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn warm_oracle_paths_allocate_nothing_per_execution() {
    let vm = VmConfig::default();
    let impls = CompilerImpl::default_set();
    let fuzz_impl = CompilerImpl::parse("clang-O1").unwrap();
    for spec in catalog() {
        let t = build(&spec);
        let checked = minc::check(&t.src).unwrap();
        let binaries = minc_compile::compile_all(&checked, &impls).0;
        // Seeds, and each ground-truth trigger followed by a benign input,
        // so traps and their recovery are part of the warm state.
        let mut inputs = t.seeds.clone();
        for bug in &spec.bugs {
            inputs.push(t.trigger(bug));
            inputs.push(vec![spec.magic[0], spec.magic[1], 0x00, b'A']);
        }

        // A warm session run into a reused slot allocates nothing.
        for bin in &binaries {
            let mut session = ExecSession::new(bin);
            let mut slot = ExecResult::default();
            let mut sweep = || {
                for input in &inputs {
                    session.run_into(bin, input, &vm, &mut NoHooks, &mut slot);
                }
            };
            sweep();
            let n = allocs_during(sweep);
            assert_eq!(
                n, 0,
                "{}/{}: warm run_into allocated",
                spec.name, bin.impl_id
            );
        }

        // The oracle's batch costs the same at 16 inputs as at 64: nothing
        // grows with the number of executions. Its inputs are the ones
        // all ten agree on, the steady state (a divergence goes to the
        // store, which keeps the input).
        let diff = CompDiff::new(binaries.clone(), DiffConfig::default());
        let i = impls.iter().position(|&c| c == fuzz_impl).unwrap();
        let fuzz = &binaries[i];
        let mut own = ExecSession::new(fuzz);
        let stable: Vec<(Vec<u8>, ExecResult)> = inputs
            .iter()
            .filter(|input| !diff.run_input(input).divergent)
            .map(|input| (input.clone(), own.run(fuzz, input, &vm)))
            .collect();
        assert!(!stable.is_empty(), "{}: no stable input", spec.name);
        let batch_allocs = |size: usize| {
            let items: Vec<(Vec<u8>, ExecResult)> =
                stable.iter().cycle().take(size).cloned().collect();
            let mut oracle = CompDiffOracle::new(&diff, diff.make_sessions(), fuzz, &vm, ());
            oracle.examine_batch(&items);
            oracle.examine_batch(&items);
            allocs_during(|| {
                oracle.examine_batch(&items);
            })
        };
        let (at16, at64) = (batch_allocs(16), batch_allocs(64));
        assert_eq!(at16, at64, "{}: examine_batch allocations", spec.name);
    }
}
