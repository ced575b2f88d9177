//! Sparse functional memory.
//!
//! Backs the executor with byte-addressable storage allocated lazily in
//! fixed 4 KiB chunks (a storage granule, independent of the simulated
//! virtual-memory page size). Unwritten memory reads as zero, like
//! demand-zero pages. An access that fits inside one chunk costs one
//! chunk lookup; only chunk-straddling accesses go byte by byte.

use std::collections::HashMap;

use hbat_core::addr::VirtAddr;
use hbat_core::hash::FastHashBuilder;

const CHUNK_BITS: u32 = 12;
const CHUNK_SIZE: usize = 1 << CHUNK_BITS;
const OFFSET_MASK: u64 = CHUNK_SIZE as u64 - 1;

/// Splits an address into its chunk key and the offset inside it.
#[inline(always)]
fn split(addr: u64) -> (u64, usize) {
    (addr >> CHUNK_BITS, (addr & OFFSET_MASK) as usize)
}

/// Sparse, zero-initialised functional memory.
///
/// # Examples
///
/// ```
/// use hbat_core::addr::VirtAddr;
/// use hbat_isa::mem::Memory;
///
/// let mut m = Memory::new();
/// m.write_u64(VirtAddr(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(VirtAddr(0x1000)), 0xdead_beef);
/// assert_eq!(m.read_u64(VirtAddr(0x8000)), 0); // untouched reads as zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    /// Keyed by simulated addresses (the workload's own, or a restored
    /// snapshot's checksummed chunk set), so the fast keyless hasher
    /// is safe here.
    chunks: HashMap<u64, Box<[u8; CHUNK_SIZE]>, FastHashBuilder>,
}

impl Memory {
    /// Creates empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Number of 4 KiB storage chunks materialised so far.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    fn chunk_mut(&mut self, key: u64) -> &mut [u8; CHUNK_SIZE] {
        self.chunks
            .entry(key)
            .or_insert_with(|| Box::new([0; CHUNK_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: VirtAddr) -> u8 {
        let (key, off) = split(addr.0);
        self.chunks
            .get(&key)
            .and_then(|c| c.get(off))
            .copied()
            .unwrap_or(0)
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: VirtAddr, val: u8) {
        let (key, off) = split(addr.0);
        if let Some(b) = self.chunk_mut(key).get_mut(off) {
            *b = val;
        }
    }

    /// Reads `n` bytes little-endian into a u64 (`n <= 8`); accesses may
    /// straddle chunk boundaries.
    pub fn read_le(&self, addr: VirtAddr, n: u64) -> u64 {
        debug_assert!(n <= 8);
        let (key, off) = split(addr.0);
        let len = n as usize;
        if let Some(end) = off.checked_add(len).filter(|&e| e <= CHUNK_SIZE) {
            let mut buf = [0u8; 8];
            let src = self.chunks.get(&key).and_then(|c| c.get(off..end));
            if let (Some(src), Some(dst)) = (src, buf.get_mut(..len)) {
                dst.copy_from_slice(src);
            }
            return u64::from_le_bytes(buf);
        }
        let mut v = 0u64;
        for i in 0..n {
            v |= (self.read_u8(VirtAddr(addr.0.wrapping_add(i))) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `n` bytes of `val` little-endian (`n <= 8`).
    pub fn write_le(&mut self, addr: VirtAddr, val: u64, n: u64) {
        debug_assert!(n <= 8);
        let (key, off) = split(addr.0);
        let len = n as usize;
        if let Some(end) = off.checked_add(len).filter(|&e| e <= CHUNK_SIZE) {
            let bytes = val.to_le_bytes();
            let chunk = self.chunk_mut(key);
            if let (Some(dst), Some(src)) = (chunk.get_mut(off..end), bytes.get(..len)) {
                dst.copy_from_slice(src);
            }
            return;
        }
        for i in 0..n {
            self.write_u8(VirtAddr(addr.0.wrapping_add(i)), (val >> (8 * i)) as u8);
        }
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: VirtAddr) -> u64 {
        self.read_le(addr, 8)
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: VirtAddr, val: u64) {
        self.write_le(addr, val, 8)
    }

    /// Reads an f64 (bit pattern stored little-endian).
    pub fn read_f64(&self, addr: VirtAddr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an f64.
    pub fn write_f64(&mut self, addr: VirtAddr, val: f64) {
        self.write_u64(addr, val.to_bits())
    }

    /// Copies a byte slice into memory starting at `addr`, one chunk
    /// at a time.
    pub fn write_bytes(&mut self, addr: VirtAddr, bytes: &[u8]) {
        let mut addr = addr.0;
        let mut rest = bytes;
        while !rest.is_empty() {
            let (key, off) = split(addr);
            let (head, tail) = rest.split_at((CHUNK_SIZE - off).min(rest.len()));
            if let Some(dst) = self.chunk_mut(key).get_mut(off..off + head.len()) {
                dst.copy_from_slice(head);
            }
            addr = addr.wrapping_add(head.len() as u64);
            rest = tail;
        }
    }

    /// The storage-chunk granule in bytes (checkpoint snapshots
    /// serialise memory as whole chunks of this size).
    pub const fn chunk_bytes() -> usize {
        CHUNK_SIZE
    }

    /// Every materialised chunk as `(base virtual address, bytes)`,
    /// sorted by base address — a deterministic export for snapshots
    /// regardless of hash-map iteration order.
    pub fn export_chunks(&self) -> Vec<(u64, &[u8])> {
        let mut out: Vec<(u64, &[u8])> = self
            .chunks // hbat-lint: allow(determinism) sorted by base address below
            .iter()
            .map(|(&key, data)| (key << CHUNK_BITS, data.as_slice()))
            .collect();
        out.sort_unstable_by_key(|&(base, _)| base);
        out
    }

    /// Installs one exported chunk at `base` (a chunk-aligned virtual
    /// address). Restoring writes whole chunks, so the materialised
    /// chunk set after a restore matches the exporting machine's
    /// exactly.
    ///
    /// Returns `Err` when `base` is not chunk-aligned or `bytes` is not
    /// exactly one chunk — a malformed snapshot, not a caller bug.
    pub fn import_chunk(&mut self, base: u64, bytes: &[u8]) -> Result<(), String> {
        if base & OFFSET_MASK != 0 {
            return Err(format!(
                "chunk base {base:#x} is not {CHUNK_SIZE}-byte aligned"
            ));
        }
        if bytes.len() != CHUNK_SIZE {
            return Err(format!(
                "chunk at {base:#x} has {} bytes (expected {CHUNK_SIZE})",
                bytes.len()
            ));
        }
        self.chunk_mut(base >> CHUNK_BITS).copy_from_slice(bytes);
        Ok(())
    }

    /// Drops every materialised chunk (restore replaces memory
    /// wholesale; the snapshot's chunk set is authoritative).
    pub fn clear(&mut self) {
        self.chunks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read_u8(VirtAddr(12345)), 0);
        assert_eq!(m.read_u64(VirtAddr(1 << 40)), 0);
        assert_eq!(m.chunk_count(), 0, "reads must not materialise chunks");
    }

    #[test]
    fn read_back_what_was_written() {
        let mut m = Memory::new();
        m.write_u64(VirtAddr(0x100), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(VirtAddr(0x100)), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u8(VirtAddr(0x100)), 0xef, "little endian");
        assert_eq!(m.read_u8(VirtAddr(0x107)), 0x01);
    }

    #[test]
    fn straddling_chunk_boundary() {
        let mut m = Memory::new();
        let addr = VirtAddr(0xffc); // last 4 bytes of chunk 0
        m.write_u64(addr, u64::MAX);
        assert_eq!(m.read_u64(addr), u64::MAX);
        assert_eq!(m.chunk_count(), 2);
    }

    #[test]
    fn partial_widths() {
        let mut m = Memory::new();
        m.write_le(VirtAddr(0), 0xAABBCCDD, 4);
        assert_eq!(m.read_le(VirtAddr(0), 4), 0xAABBCCDD);
        assert_eq!(m.read_le(VirtAddr(0), 2), 0xCCDD);
        m.write_le(VirtAddr(0), 0x11, 1);
        assert_eq!(m.read_le(VirtAddr(0), 4), 0xAABBCC11);
    }

    #[test]
    fn floats_round_trip() {
        let mut m = Memory::new();
        m.write_f64(VirtAddr(8), -1234.5678);
        assert_eq!(m.read_f64(VirtAddr(8)), -1234.5678);
    }

    #[test]
    fn chunk_export_import_round_trips() {
        let mut m = Memory::new();
        m.write_u64(VirtAddr(0x100), 0x1111);
        m.write_u64(VirtAddr(0x5000), 0x2222);
        m.write_u8(VirtAddr(0xffc), 7); // straddles nothing, chunk 0
        let exported: Vec<(u64, Vec<u8>)> = m
            .export_chunks()
            .into_iter()
            .map(|(b, s)| (b, s.to_vec()))
            .collect();
        assert_eq!(exported.len(), 2);
        assert!(exported.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        let mut r = Memory::new();
        for (base, bytes) in &exported {
            r.import_chunk(*base, bytes).unwrap();
        }
        assert_eq!(r.read_u64(VirtAddr(0x100)), 0x1111);
        assert_eq!(r.read_u64(VirtAddr(0x5000)), 0x2222);
        assert_eq!(r.read_u8(VirtAddr(0xffc)), 7);
        assert_eq!(r.chunk_count(), m.chunk_count());
        // Malformed imports are typed errors, not panics.
        assert!(r.import_chunk(0x10, &[0; 4096]).is_err(), "misaligned");
        assert!(r.import_chunk(0x1000, &[0; 64]).is_err(), "short chunk");
        r.clear();
        assert_eq!(r.chunk_count(), 0);
    }

    #[test]
    fn byte_slices() {
        let mut m = Memory::new();
        m.write_bytes(VirtAddr(0x10), b"hello");
        assert_eq!(m.read_u8(VirtAddr(0x10)), b'h');
        assert_eq!(m.read_u8(VirtAddr(0x14)), b'o');
        // A slice spanning three chunks lands byte for byte and
        // materialises exactly the chunks it covers.
        let long: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8 + 1).collect();
        let mut s = Memory::new();
        s.write_bytes(VirtAddr(0xff0), &long);
        assert_eq!(s.chunk_count(), 3);
        for (i, &b) in long.iter().enumerate() {
            assert_eq!(s.read_u8(VirtAddr(0xff0 + i as u64)), b, "byte {i}");
        }
        assert_eq!(s.read_u8(VirtAddr(0xfef)), 0);
        assert_eq!(s.read_u8(VirtAddr(0xff0 + 5000)), 0);
    }
}
