//! Sparse raw memory with implementation-defined junk.
//!
//! The VM models a flat 64-bit address space in 4 KiB pages. A page
//! materializes on first touch *filled with junk bytes* that are a
//! deterministic function of (implementation seed, address) — this is what
//! "uninitialized memory" reads as under a given compiler implementation.
//! Determinism per binary keeps program output deterministic (CompDiff's
//! precondition) while different implementations see different junk.
//!
//! ## Persistent-mode layout
//!
//! Pages live in an arena (`Vec<Page>`) indexed by a page-number map, so a
//! [`reset`](Memory::reset) between executions keeps every allocation.
//! Each page carries an *epoch* and a *dirty watermark* (the byte range
//! written since its last restore) plus a snapshot of its pristine junk:
//! on the first touch after a reset, a written page is restored by one
//! `memcpy` of just the watermarked window from the snapshot instead of
//! re-deriving 4096 junk bytes, and a page that was only ever read needs
//! no work at all. Either way the post-reset contents are bit-identical to a fresh
//! `Memory`, which is what makes session reuse observably equivalent to
//! fresh-VM execution.
//!
//! The hot path avoids the page map entirely when consecutive accesses hit
//! the same page (the common case for stack and array traffic), and
//! aligned-width accesses within one page go through `from_le_bytes` /
//! `to_le_bytes` instead of a per-byte loop.

use minc_compile::Personality;
use std::collections::HashMap;

/// Page size in bytes.
pub const PAGE_SIZE: u64 = 4096;

const NO_PAGE: u32 = u32::MAX;

/// One materialized page: live bytes plus the pristine junk snapshot used
/// to restore it cheaply after a [`Memory::reset`].
#[derive(Debug, Clone)]
struct Page {
    data: Box<[u8]>,
    pristine: Box<[u8]>,
    /// Post-loader snapshot (junk overlaid with this binary's rodata and
    /// global initializers) captured by
    /// [`capture_loader_image`](Memory::capture_loader_image). When
    /// present it replaces `pristine` as the page's reset base, so a
    /// loader page the program never writes needs *no* per-run work at
    /// all — neither a restore nor a reload.
    loaded: Option<Box<[u8]>>,
    epoch: u64,
    /// Dirty watermark: `data[lo..hi]` may differ from the page's reset
    /// base (`loaded` when present, `pristine` otherwise); bytes outside
    /// the window are known to match it. `lo >= hi` means clean. Restores
    /// copy only the window, so a run that touches a few stack slots pays
    /// for those bytes rather than the whole page.
    lo: u32,
    hi: u32,
}

/// Raw byte-addressable memory.
#[derive(Debug, Clone)]
pub struct Memory {
    index: HashMap<u64, u32>,
    pages: Vec<Page>,
    seed: u64,
    epoch: u64,
    cached_no: u64,
    cached_idx: u32,
    /// Dirty pages restored from their pristine snapshot (cumulative).
    pub(crate) restored: u64,
    /// Pages materialized with fresh junk (cumulative).
    pub(crate) materialized: u64,
}

impl Memory {
    /// Creates memory whose junk pattern follows `personality`.
    pub fn new(personality: &Personality) -> Self {
        Memory {
            index: HashMap::new(),
            pages: Vec::new(),
            seed: personality.seed,
            epoch: 0,
            cached_no: 0,
            cached_idx: NO_PAGE,
            restored: 0,
            materialized: 0,
        }
    }

    /// Starts a new execution epoch: every page reads as pristine junk
    /// again (bit-identical to a fresh `Memory`), but no allocation is
    /// freed or re-made. Dirty pages are restored lazily on first touch.
    /// Pages carrying a loader image (see
    /// [`capture_loader_image`](Memory::capture_loader_image)) restore to
    /// that image instead — bit-identical to fresh memory *plus* the
    /// loader's writes.
    pub fn reset(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        self.cached_idx = NO_PAGE;
    }

    /// Snapshots every page written in the current epoch as that page's
    /// *post-loader image*: from now on the page resets to this snapshot
    /// rather than to pristine junk, and — because the snapshot is the
    /// page's new reset base — a run that never writes the page pays no
    /// restore for it at all.
    ///
    /// Call immediately after the loader pass (rodata strings + global
    /// initializers) and before any program execution, so the captured
    /// bytes are a pure function of the binary. The caller owns the
    /// keying: images describe *one* binary's loader output, so switching
    /// a session to a different binary must first call
    /// [`clear_loader_image`](Memory::clear_loader_image).
    pub fn capture_loader_image(&mut self) {
        for page in &mut self.pages {
            if page.epoch == self.epoch && page.lo < page.hi {
                page.loaded = Some(page.data.clone());
                page.lo = PAGE_SIZE as u32;
                page.hi = 0;
            }
        }
    }

    /// Drops every captured loader image, returning pages to plain
    /// pristine-junk reset semantics. Pages that carried an image are
    /// marked dirty (their live bytes no longer match their reset base).
    pub fn clear_loader_image(&mut self) {
        for page in &mut self.pages {
            if page.loaded.take().is_some() {
                page.lo = 0;
                page.hi = PAGE_SIZE as u32;
            }
        }
    }

    /// Deterministic junk byte for an uninitialized address: what a
    /// freshly mapped page "happens to contain" under the implementation
    /// whose personality seed is `seed`. Materializing a page calls it
    /// once per byte.
    #[inline]
    fn junk_byte(seed: u64, addr: u64) -> u8 {
        let mut x = addr ^ seed;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        (x & 0xff) as u8
    }

    /// Resolves `page_no` to its arena slot, materializing or restoring
    /// the page as needed, and memoizes the result.
    #[inline]
    fn locate(&mut self, page_no: u64) -> usize {
        if self.cached_idx != NO_PAGE && self.cached_no == page_no {
            return self.cached_idx as usize;
        }
        let idx = match self.index.get(&page_no) {
            Some(&i) => {
                let page = &mut self.pages[i as usize];
                if page.epoch != self.epoch {
                    if page.lo < page.hi {
                        let (lo, hi) = (page.lo as usize, page.hi as usize);
                        match &page.loaded {
                            Some(l) => page.data[lo..hi].copy_from_slice(&l[lo..hi]),
                            None => page.data[lo..hi].copy_from_slice(&page.pristine[lo..hi]),
                        }
                        page.lo = PAGE_SIZE as u32;
                        page.hi = 0;
                        self.restored += 1;
                    }
                    page.epoch = self.epoch;
                }
                i
            }
            None => {
                let base = page_no * PAGE_SIZE;
                let mut p = vec![0u8; PAGE_SIZE as usize];
                for (i, b) in p.iter_mut().enumerate() {
                    *b = Self::junk_byte(self.seed, base + i as u64);
                }
                let data = p.into_boxed_slice();
                self.materialized += 1;
                let idx = self.pages.len() as u32;
                self.pages.push(Page {
                    pristine: data.clone(),
                    data,
                    loaded: None,
                    epoch: self.epoch,
                    lo: PAGE_SIZE as u32,
                    hi: 0,
                });
                self.index.insert(page_no, idx);
                idx
            }
        };
        self.cached_no = page_no;
        self.cached_idx = idx;
        idx as usize
    }

    #[inline]
    fn page_ref(&mut self, page_no: u64) -> &[u8] {
        let idx = self.locate(page_no);
        &self.pages[idx].data
    }

    /// Mutable page access that records `lo..hi` (page offsets) as the
    /// byte range the caller is about to write, widening the page's dirty
    /// watermark.
    #[inline]
    fn page_mut(&mut self, page_no: u64, lo: usize, hi: usize) -> &mut [u8] {
        let idx = self.locate(page_no);
        let page = &mut self.pages[idx];
        page.lo = page.lo.min(lo as u32);
        page.hi = page.hi.max(hi as u32);
        &mut page.data
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&mut self, addr: u64) -> u8 {
        let off = (addr % PAGE_SIZE) as usize;
        self.page_ref(addr / PAGE_SIZE)[off]
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        let off = (addr % PAGE_SIZE) as usize;
        self.page_mut(addr / PAGE_SIZE, off, off + 1)[off] = v;
    }

    /// Reads `width` bytes little-endian (1, 4, or 8).
    #[inline]
    pub fn read(&mut self, addr: u64, width: u64) -> u64 {
        let off = (addr % PAGE_SIZE) as usize;
        if off + width as usize <= PAGE_SIZE as usize {
            let page = self.page_ref(addr / PAGE_SIZE);
            match width {
                1 => u64::from(page[off]),
                4 => u64::from(u32::from_le_bytes(
                    page[off..off + 4].try_into().expect("4-byte slice"),
                )),
                8 => u64::from_le_bytes(page[off..off + 8].try_into().expect("8-byte slice")),
                _ => {
                    let mut v: u64 = 0;
                    for (i, &b) in page[off..off + width as usize].iter().enumerate() {
                        v |= (b as u64) << (8 * i);
                    }
                    v
                }
            }
        } else {
            let mut v: u64 = 0;
            for i in 0..width {
                v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
            }
            v
        }
    }

    /// Writes the low `width` bytes of `v` little-endian.
    #[inline]
    pub fn write(&mut self, addr: u64, v: u64, width: u64) {
        let off = (addr % PAGE_SIZE) as usize;
        if off + width as usize <= PAGE_SIZE as usize {
            let page = self.page_mut(addr / PAGE_SIZE, off, off + width as usize);
            match width {
                1 => page[off] = v as u8,
                4 => page[off..off + 4].copy_from_slice(&(v as u32).to_le_bytes()),
                8 => page[off..off + 8].copy_from_slice(&v.to_le_bytes()),
                _ => {
                    for (i, b) in page[off..off + width as usize].iter_mut().enumerate() {
                        *b = (v >> (8 * i)) as u8;
                    }
                }
            }
        } else {
            for i in 0..width {
                self.write_u8(addr.wrapping_add(i), (v >> (8 * i)) as u8);
            }
        }
    }

    /// Copies `len` bytes from `src` to `dst`, byte-forward like a naive
    /// `memcpy` — *not* like `memmove`: when the ranges overlap with
    /// `dst` inside `[src, src+len)`, already-copied bytes are re-read, so
    /// the source pattern repeats with period `dst - src`. That quirk is
    /// personality-observable (real allocator/libc copies differ the same
    /// way), so it is pinned by test and must be preserved.
    pub fn copy(&mut self, dst: u64, src: u64, len: u64) {
        // Forward-overlap (dst strictly inside the source range) is the
        // one case where chunked copying would diverge from the byte-
        // forward semantics; keep the byte loop there.
        let delta = dst.wrapping_sub(src);
        if len == 0 {
            return;
        }
        if delta != 0 && delta < len {
            for i in 0..len {
                let b = self.read_u8(src.wrapping_add(i));
                self.write_u8(dst.wrapping_add(i), b);
            }
            return;
        }
        let mut buf = [0u8; 256];
        let mut i = 0u64;
        while i < len {
            let s = src.wrapping_add(i);
            let d = dst.wrapping_add(i);
            let chunk = (len - i)
                .min(buf.len() as u64)
                .min(PAGE_SIZE - s % PAGE_SIZE)
                .min(PAGE_SIZE - d % PAGE_SIZE);
            let n = chunk as usize;
            let soff = (s % PAGE_SIZE) as usize;
            buf[..n].copy_from_slice(&self.page_ref(s / PAGE_SIZE)[soff..soff + n]);
            let doff = (d % PAGE_SIZE) as usize;
            self.page_mut(d / PAGE_SIZE, doff, doff + n)[doff..doff + n].copy_from_slice(&buf[..n]);
            i += chunk;
        }
    }

    /// Writes `bytes` starting at `addr` (page-chunked bulk store).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut i = 0usize;
        while i < bytes.len() {
            let a = addr.wrapping_add(i as u64);
            let off = (a % PAGE_SIZE) as usize;
            let chunk = (bytes.len() - i).min((PAGE_SIZE - a % PAGE_SIZE) as usize);
            self.page_mut(a / PAGE_SIZE, off, off + chunk)[off..off + chunk]
                .copy_from_slice(&bytes[i..i + chunk]);
            i += chunk;
        }
    }

    /// Fills `[addr, addr+len)` with `v`.
    pub fn fill(&mut self, addr: u64, v: u8, len: u64) {
        let mut i = 0u64;
        while i < len {
            let a = addr.wrapping_add(i);
            let off = (a % PAGE_SIZE) as usize;
            let chunk = (len - i).min(PAGE_SIZE - a % PAGE_SIZE) as usize;
            self.page_mut(a / PAGE_SIZE, off, off + chunk)[off..off + chunk].fill(v);
            i += chunk as u64;
        }
    }

    /// Number of materialized pages (memory footprint proxy). Pages stay
    /// materialized across [`reset`](Memory::reset), so in a persistent
    /// session this counts the high-water mark over all executions.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minc_compile::CompilerImpl;

    fn mem(name: &str) -> Memory {
        Memory::new(&CompilerImpl::parse(name).unwrap().personality())
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = mem("gcc-O0");
        m.write(0x5000, 0xdead_beef_cafe_f00d, 8);
        assert_eq!(m.read(0x5000, 8), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read(0x5000, 4), 0xcafe_f00d);
        assert_eq!(m.read(0x5000, 1), 0x0d);
    }

    #[test]
    fn cross_page_access_works() {
        let mut m = mem("gcc-O0");
        let addr = PAGE_SIZE - 3;
        m.write(addr, 0x1122_3344_5566_7788, 8);
        assert_eq!(m.read(addr, 8), 0x1122_3344_5566_7788);
    }

    #[test]
    fn junk_is_deterministic_per_impl() {
        let mut a1 = mem("gcc-O0");
        let mut a2 = mem("gcc-O0");
        let mut b = mem("clang-O0");
        let j1: Vec<u8> = (0..64).map(|i| a1.read_u8(0x7000 + i)).collect();
        let j2: Vec<u8> = (0..64).map(|i| a2.read_u8(0x7000 + i)).collect();
        let j3: Vec<u8> = (0..64).map(|i| b.read_u8(0x7000 + i)).collect();
        assert_eq!(j1, j2);
        assert_ne!(j1, j3);
    }

    #[test]
    fn copy_and_fill() {
        let mut m = mem("gcc-O1");
        m.fill(0x8000, 0xab, 16);
        m.copy(0x9000, 0x8000, 16);
        assert_eq!(m.read_u8(0x900f), 0xab);
    }

    #[test]
    fn copy_overlap_is_byte_forward_not_memmove() {
        // Pinned personality-observable semantics: copying forward into an
        // overlapping range repeats the leading `delta` bytes, where
        // memmove would preserve the original run.
        let mut m = mem("gcc-O0");
        for i in 0..8u64 {
            m.write_u8(0x4000 + i, b'0' + i as u8);
        }
        m.copy(0x4002, 0x4000, 6); // delta 2: "01" repeats
        let got: Vec<u8> = (0..8).map(|i| m.read_u8(0x4000 + i)).collect();
        assert_eq!(&got, b"01010101", "byte-forward overlap must repeat");

        // Backward overlap (dst < src) matches memmove and bulk copy.
        let mut m2 = mem("gcc-O0");
        for i in 0..8u64 {
            m2.write_u8(0x4000 + i, b'0' + i as u8);
        }
        m2.copy(0x4000, 0x4002, 6);
        let got2: Vec<u8> = (0..8).map(|i| m2.read_u8(0x4000 + i)).collect();
        assert_eq!(&got2, b"23456767");
    }

    #[test]
    fn copy_and_fill_cross_page_bulk() {
        let mut m = mem("gcc-O2");
        let base = 3 * PAGE_SIZE - 100;
        m.fill(base, 0x5a, 300); // spans a page boundary
        for i in 0..300 {
            assert_eq!(m.read_u8(base + i), 0x5a);
        }
        let dst = 7 * PAGE_SIZE - 150;
        m.copy(dst, base, 300);
        for i in 0..300 {
            assert_eq!(m.read_u8(dst + i), 0x5a);
        }
    }

    #[test]
    fn reset_restores_pristine_junk() {
        let mut m = mem("gcc-O0");
        let fresh: Vec<u8> = (0..64).map(|i| m.read_u8(0x7000 + i)).collect();
        m.fill(0x7000, 0xee, 64);
        m.write(0x7100, 0x1234, 4);
        m.reset();
        let after: Vec<u8> = (0..64).map(|i| m.read_u8(0x7000 + i)).collect();
        assert_eq!(fresh, after, "reset must restore pristine junk");
        // And the restored contents match a genuinely fresh memory.
        let mut f = mem("gcc-O0");
        assert_eq!(f.read(0x7100, 4), m.read(0x7100, 4));
        // Pages stay materialized (no allocation churn).
        assert!(m.page_count() >= 1);
    }

    #[test]
    fn reset_keeps_read_only_pages_cheap_and_correct() {
        let mut m = mem("clang-O2");
        let a: Vec<u8> = (0..32).map(|i| m.read_u8(0x9000 + i)).collect();
        m.reset();
        let b: Vec<u8> = (0..32).map(|i| m.read_u8(0x9000 + i)).collect();
        assert_eq!(a, b);
    }
}
