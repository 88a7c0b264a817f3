//! Byte-granular shadow memory shared by the sanitizer analogs.
//!
//! Every address has its own shadow state, but the states are stored in
//! 4 KiB pages of `Option<S>` keyed by page number. Marking or clearing a
//! range fills one slice per page it covers (clearing a page that was
//! never marked costs nothing), a lookup indexes one slice, and a range
//! scan reads one slice per page. `Option<S>` is one byte for both users
//! (ASan's three states and MSan's `()`), so a page costs 4 KiB.

// Addresses per shadow page: the VM's page size.
use minc_vm::memory::PAGE_SIZE as PAGE;
use std::collections::HashMap;
use std::ops::Range;

/// A sparse map from address to a shadow state. Unmarked addresses carry
/// the default state (addressable / initialized).
#[derive(Debug, Clone)]
pub struct Shadow<S: Copy + PartialEq> {
    pages: HashMap<u64, Box<[Option<S>]>>,
}

impl<S: Copy + PartialEq> Default for Shadow<S> {
    fn default() -> Self {
        Shadow::new()
    }
}

impl<S: Copy + PartialEq> Shadow<S> {
    /// Empty shadow.
    pub fn new() -> Self {
        Shadow {
            pages: HashMap::new(),
        }
    }

    /// Marks `[addr, addr+len)` with `state`.
    pub fn mark(&mut self, addr: u64, len: u64, state: S) {
        for (page_no, range) in pieces(addr, len) {
            let page = self
                .pages
                .entry(page_no)
                .or_insert_with(|| vec![None; PAGE as usize].into_boxed_slice());
            page[range].fill(Some(state));
        }
    }

    /// Clears `[addr, addr+len)` back to the default state.
    pub fn clear(&mut self, addr: u64, len: u64) {
        for (page_no, range) in pieces(addr, len) {
            if let Some(page) = self.pages.get_mut(&page_no) {
                page[range].fill(None);
            }
        }
    }

    /// The state of one byte, if marked.
    pub fn get(&self, addr: u64) -> Option<S> {
        self.pages.get(&(addr / PAGE))?[(addr % PAGE) as usize]
    }

    /// First marked byte in `[addr, addr+len)`, with its state.
    pub fn first_marked(&self, addr: u64, len: u64) -> Option<(u64, S)> {
        pieces(addr, len).find_map(|(page_no, mut range)| {
            let page = self.pages.get(&page_no)?;
            range.find_map(|off| Some((page_no * PAGE + off as u64, page[off]?)))
        })
    }

    /// Number of marked bytes (for tests).
    pub fn marked_len(&self) -> usize {
        self.pages.values().flat_map(|p| p.iter()).flatten().count()
    }
}

/// `[addr, addr+len)`, wrapping past `u64::MAX`, split at page
/// boundaries: each piece's page number and the offsets it covers.
fn pieces(addr: u64, len: u64) -> impl Iterator<Item = (u64, Range<usize>)> {
    let mut done = 0u64;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let a = addr.wrapping_add(done);
            let off = a % PAGE;
            let n = (len - done).min(PAGE - off);
            done += n;
            (a / PAGE, off as usize..(off + n) as usize)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_query_clear() {
        let mut s: Shadow<u8> = Shadow::new();
        s.mark(100, 4, 7);
        assert_eq!(s.get(100), Some(7));
        assert_eq!(s.get(103), Some(7));
        assert_eq!(s.get(104), None);
        assert_eq!(s.first_marked(98, 8), Some((100, 7)));
        s.clear(100, 2);
        assert_eq!(s.get(100), None);
        assert_eq!(s.get(102), Some(7));
        assert_eq!(s.marked_len(), 2);
    }

    #[test]
    fn first_marked_none_when_clean() {
        let s: Shadow<u8> = Shadow::new();
        assert_eq!(s.first_marked(0, 64), None);
    }

    /// SplitMix64 (public domain algorithm): draws the model test's
    /// operations deterministically.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    /// A range near a page boundary, the top of the address space or
    /// zero, empty, short, or up to two pages long.
    fn range(rng: &mut Rng) -> (u64, u64) {
        const ANCHORS: [u64; 5] = [0, PAGE, 3 * PAGE, 0x7fff_f000, u64::MAX - PAGE + 1];
        let anchor = ANCHORS[rng.below(ANCHORS.len() as u64) as usize];
        let addr = anchor.wrapping_add(rng.below(24)).wrapping_sub(12);
        let len = match rng.below(5) {
            0 => 0,
            1 => 1 + rng.below(8),
            2 => PAGE - 1 + rng.below(3),
            _ => rng.below(2 * PAGE + 64),
        };
        (addr, len)
    }

    /// The per-byte reference: one map entry per marked address.
    struct Model(HashMap<u64, u8>);

    impl Model {
        fn addrs(addr: u64, len: u64) -> impl Iterator<Item = u64> {
            (0..len).map(move |i| addr.wrapping_add(i))
        }

        fn first_marked(&self, addr: u64, len: u64) -> Option<(u64, u8)> {
            Self::addrs(addr, len).find_map(|a| self.0.get(&a).map(|s| (a, *s)))
        }
    }

    #[test]
    fn paged_shadow_matches_a_per_byte_model() {
        let (mut crossed, mut last_byte, mut empty, mut wrapped) = (0, 0, 0, 0);
        for seed in 0..64u64 {
            let mut rng = Rng(seed);
            let mut shadow: Shadow<u8> = Shadow::new();
            let mut model = Model(HashMap::new());
            for step in 0..48 {
                let (addr, len) = range(&mut rng);
                let end = addr.wrapping_add(len);
                empty += u32::from(len == 0);
                last_byte += u32::from(len > 0 && addr % PAGE == PAGE - 1);
                crossed += u32::from(len > 0 && addr / PAGE != end.wrapping_sub(1) / PAGE);
                wrapped += u32::from(len > 0 && end != 0 && end < addr);
                let ctx = format!("seed {seed} step {step}: [{addr:#x}, +{len})");
                match rng.below(4) {
                    0 | 1 => {
                        let state = rng.below(3) as u8;
                        shadow.mark(addr, len, state);
                        for a in Model::addrs(addr, len) {
                            model.0.insert(a, state);
                        }
                    }
                    2 => {
                        shadow.clear(addr, len);
                        for a in Model::addrs(addr, len) {
                            model.0.remove(&a);
                        }
                    }
                    _ => {}
                }
                assert_eq!(
                    shadow.first_marked(addr, len),
                    model.first_marked(addr, len),
                    "{ctx}"
                );
                for probe in [addr.wrapping_sub(1), addr, end.wrapping_sub(1), end] {
                    assert_eq!(shadow.get(probe), model.0.get(&probe).copied(), "{ctx}");
                }
                let (other, other_len) = range(&mut rng);
                assert_eq!(
                    shadow.first_marked(other, other_len),
                    model.first_marked(other, other_len),
                    "{ctx}, scan of [{other:#x}, +{other_len})"
                );
            }
            assert_eq!(shadow.marked_len(), model.0.len(), "seed {seed}");
        }
        for (what, n) in [
            ("cross a page boundary", crossed),
            ("start on a page's last byte", last_byte),
            ("are empty", empty),
            ("wrap past u64::MAX", wrapped),
        ] {
            assert!(n >= 20, "only {n} ranges {what}");
        }
    }
}
