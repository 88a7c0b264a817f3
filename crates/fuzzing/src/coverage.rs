//! AFL-style edge coverage.
//!
//! A 64 KiB byte map indexed by the hash of (previous block, current
//! block); hit counts are bucketed into AFL's eight classes before novelty
//! comparison, exactly like AFL++'s `classify_counts` + `has_new_bits`.
//!
//! Alongside the counts, each execution keeps the list of slots it
//! touched, so resetting, counting and merging cost O(slots hit) rather
//! than a scan of the whole map. A catalog target's execution hits about
//! ten slots, and even every slot hit only makes the list as long as the
//! map.

use minc_vm::hooks::{Hooks, Loc};

/// Size of the coverage map (AFL's default).
pub const MAP_SIZE: usize = 1 << 16;

// Slot indices are stored as `u16` in the touched list.
const _: () = assert!(MAP_SIZE <= 1 << 16);

/// One execution's raw edge hit counts.
#[derive(Clone)]
pub struct CoverageMap {
    map: Box<[u8; MAP_SIZE]>,
    /// Every slot with a non-zero count, in first-hit order: a slot is
    /// pushed exactly when its count leaves zero, and [`reset`] zeroes
    /// exactly these slots, so the list and the map never disagree.
    ///
    /// [`reset`]: CoverageMap::reset
    touched: Vec<u16>,
}

impl std::fmt::Debug for CoverageMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CoverageMap({} edges)", self.count_edges())
    }
}

impl Default for CoverageMap {
    fn default() -> Self {
        Self::new()
    }
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> Self {
        CoverageMap {
            map: Box::new([0u8; MAP_SIZE]),
            touched: Vec::new(),
        }
    }

    /// Zeroes the map for the next execution.
    pub fn reset(&mut self) {
        for &i in &self.touched {
            self.map[usize::from(i)] = 0;
        }
        self.touched.clear();
    }

    fn edge_index(from: Loc, to: Loc) -> usize {
        let a = (from.func as u64)
            .wrapping_mul(0x9e37_79b1)
            .wrapping_add((from.block as u64).wrapping_mul(0x85eb_ca77));
        let b = (to.func as u64)
            .wrapping_mul(0xc2b2_ae3d)
            .wrapping_add((to.block as u64).wrapping_mul(0x27d4_eb2f));
        ((a >> 1) ^ b) as usize & (MAP_SIZE - 1)
    }

    /// Records one edge.
    pub fn record(&mut self, from: Loc, to: Loc) {
        let idx = Self::edge_index(from, to);
        let count = self.map[idx];
        if count == 0 {
            self.touched.push(idx as u16);
        }
        self.map[idx] = count.saturating_add(1);
    }

    /// AFL's hit-count bucketing: 0,1,2,3,4-7,8-15,16-31,32-127,128+.
    pub fn classify(count: u8) -> u8 {
        match count {
            0 => 0,
            1 => 1,
            2 => 2,
            3 => 4,
            4..=7 => 8,
            8..=15 => 16,
            16..=31 => 32,
            32..=127 => 64,
            _ => 128,
        }
    }

    /// Number of distinct edges hit.
    pub fn count_edges(&self) -> usize {
        self.touched.len()
    }

    /// Iterates (index, bucketed count) of hit edges, in ascending index
    /// order.
    pub fn buckets(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        let mut slots = self.touched.clone();
        slots.sort_unstable();
        slots.into_iter().map(|i| {
            let i = usize::from(i);
            (i, Self::classify(self.map[i]))
        })
    }
}

/// Accumulated coverage across a whole campaign ("virgin bits").
#[derive(Clone)]
pub struct GlobalCoverage {
    virgin: Box<[u8; MAP_SIZE]>,
    /// Slots of `virgin` that are non-zero.
    seen: usize,
}

impl std::fmt::Debug for GlobalCoverage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GlobalCoverage({} edges)", self.edges_seen())
    }
}

impl Default for GlobalCoverage {
    fn default() -> Self {
        Self::new()
    }
}

impl GlobalCoverage {
    /// Fresh (all-virgin) global map.
    pub fn new() -> Self {
        GlobalCoverage {
            virgin: Box::new([0u8; MAP_SIZE]),
            seen: 0,
        }
    }

    /// Merges one execution's coverage; returns `true` if it contributed
    /// any new bucketed bit (AFL's "interesting" criterion).
    pub fn merge(&mut self, exec: &CoverageMap) -> bool {
        let mut new = false;
        for &i in &exec.touched {
            let i = usize::from(i);
            let bucket = CoverageMap::classify(exec.map[i]);
            let virgin = self.virgin[i];
            if virgin & bucket != bucket {
                self.seen += usize::from(virgin == 0);
                self.virgin[i] = virgin | bucket;
                new = true;
            }
        }
        new
    }

    /// Number of edge slots seen so far.
    pub fn edges_seen(&self) -> usize {
        self.seen
    }
}

/// A coverage map is the fuzz binary's whole instrumentation: it
/// records every edge and observes nothing else, like an
/// `afl-clang-fast` build without sanitizers.
impl Hooks for CoverageMap {
    fn on_edge(&mut self, from: Loc, to: Loc) {
        self.record(from, to);
    }
    // Coverage instruments edges only, never individual memory accesses,
    // so the VM keeps its bulk memory fast path.
    fn bulk_mem_ok(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(f: u32, b: u32) -> Loc {
        Loc {
            func: f,
            block: b,
            inst: 0,
        }
    }

    #[test]
    fn classify_buckets() {
        assert_eq!(CoverageMap::classify(0), 0);
        assert_eq!(CoverageMap::classify(1), 1);
        assert_eq!(CoverageMap::classify(2), 2);
        assert_eq!(CoverageMap::classify(3), 4);
        assert_eq!(CoverageMap::classify(5), 8);
        assert_eq!(CoverageMap::classify(10), 16);
        assert_eq!(CoverageMap::classify(20), 32);
        assert_eq!(CoverageMap::classify(100), 64);
        assert_eq!(CoverageMap::classify(200), 128);
    }

    #[test]
    fn novelty_detection() {
        let mut global = GlobalCoverage::new();
        let mut exec = CoverageMap::new();
        exec.record(loc(0, 0), loc(0, 1));
        assert!(global.merge(&exec), "first edge is new");
        assert!(!global.merge(&exec), "same coverage is not new");
        // Same edge, higher hit bucket -> new again.
        for _ in 0..10 {
            exec.record(loc(0, 0), loc(0, 1));
        }
        assert!(global.merge(&exec), "new hit-count bucket counts as new");
    }

    #[test]
    fn distinct_edges_mostly_distinct_slots() {
        let mut m = CoverageMap::new();
        for b in 0..200u32 {
            m.record(loc(0, b), loc(0, b + 1));
        }
        assert!(m.count_edges() > 190, "hash collisions should be rare");
    }

    #[test]
    fn reset_clears() {
        let mut m = CoverageMap::new();
        m.record(loc(1, 2), loc(1, 3));
        assert_eq!(m.count_edges(), 1);
        m.reset();
        assert_eq!(m.count_edges(), 0);
    }

    /// A dense map with full-scan count, buckets, merge and reset: the
    /// reference the sparse bookkeeping must agree with.
    struct Dense {
        map: Box<[u8; MAP_SIZE]>,
        virgin: Box<[u8; MAP_SIZE]>,
    }

    impl Dense {
        fn new() -> Self {
            Dense {
                map: Box::new([0; MAP_SIZE]),
                virgin: Box::new([0; MAP_SIZE]),
            }
        }

        fn record(&mut self, from: Loc, to: Loc) {
            let idx = CoverageMap::edge_index(from, to);
            self.map[idx] = self.map[idx].saturating_add(1);
        }

        fn reset(&mut self) {
            self.map.fill(0);
        }

        fn count_edges(&self) -> usize {
            self.map.iter().filter(|&&b| b != 0).count()
        }

        fn buckets(&self) -> Vec<(usize, u8)> {
            self.map
                .iter()
                .enumerate()
                .filter(|(_, &b)| b != 0)
                .map(|(i, &b)| (i, CoverageMap::classify(b)))
                .collect()
        }

        fn merge(&mut self) -> bool {
            let mut new = false;
            for (i, bucket) in self.buckets() {
                if self.virgin[i] & bucket != bucket {
                    self.virgin[i] |= bucket;
                    new = true;
                }
            }
            new
        }

        fn edges_seen(&self) -> usize {
            self.virgin.iter().filter(|&&b| b != 0).count()
        }
    }

    #[test]
    fn sparse_map_matches_dense_reference() {
        let mut rng = crate::Rng::new(0xC0DE);
        // A small edge pool, so executions share slots and push counts
        // into higher buckets.
        let pool: Vec<(Loc, Loc)> = (0..40)
            .map(|_| {
                let f = rng.below(3) as u32;
                (loc(f, rng.below(32) as u32), loc(f, rng.below(32) as u32))
            })
            .collect();
        let mut sparse = CoverageMap::new();
        let mut global = GlobalCoverage::new();
        let mut dense = Dense::new();
        let (mut novel, mut stale) = (0, 0);
        for exec in 0..400 {
            if exec % 13 == 6 {
                // A target that panics mid-run leaves a partly recorded map;
                // the caller catches the panic and resets without merging.
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    for _ in 0..rng.below(50) {
                        let (from, to) = *rng.choose(&pool);
                        sparse.record(from, to);
                        dense.record(from, to);
                    }
                    std::panic::resume_unwind(Box::new("target panicked mid-run"));
                }));
                assert!(run.is_err());
                sparse.reset();
                dense.reset();
                assert_eq!(sparse.count_edges(), 0, "exec {exec}");
                assert!(sparse.map.iter().all(|&b| b == 0), "exec {exec}");
                continue;
            }
            for _ in 0..rng.below(120) {
                let (from, to) = *rng.choose(&pool);
                sparse.record(from, to);
                dense.record(from, to);
            }
            if exec % 5 == 0 {
                // One edge recorded past the u8 ceiling: saturates at 255,
                // bucket 128.
                let (from, to) = *rng.choose(&pool);
                for _ in 0..256 + rng.below(200) {
                    sparse.record(from, to);
                    dense.record(from, to);
                }
                let idx = CoverageMap::edge_index(from, to);
                assert_eq!(sparse.map[idx], 255);
                assert_eq!(CoverageMap::classify(sparse.map[idx]), 128);
            }
            if exec % 17 == 0 {
                // Edges outside the pool keep finding fresh slots.
                for _ in 0..rng.below(30) {
                    let from = loc(rng.below(1000) as u32, rng.below(1000) as u32);
                    let to = loc(rng.below(1000) as u32, rng.below(1000) as u32);
                    sparse.record(from, to);
                    dense.record(from, to);
                }
            }
            assert_eq!(sparse.count_edges(), dense.count_edges(), "exec {exec}");
            assert_eq!(
                sparse.buckets().collect::<Vec<_>>(),
                dense.buckets(),
                "exec {exec}"
            );
            let new = global.merge(&sparse);
            assert_eq!(new, dense.merge(), "exec {exec}");
            if new {
                novel += 1;
            } else {
                stale += 1;
            }
            assert!(global.virgin[..] == dense.virgin[..], "exec {exec}");
            assert_eq!(global.edges_seen(), dense.edges_seen(), "exec {exec}");
            sparse.reset();
            dense.reset();
            assert!(sparse.map.iter().all(|&b| b == 0), "exec {exec}");
        }
        assert!(novel > 10 && stale > 10, "{novel} novel / {stale} stale");
    }
}
