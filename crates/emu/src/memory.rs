//! Sparse, paged byte-addressed memory.

use crate::fxhash::FastMap;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// A sparse 64-bit byte-addressed memory.
///
/// Pages are allocated on first touch and read as zero before any
/// write, so programs can use arbitrarily-placed stacks and heaps
/// without explicit mapping. All multi-byte accesses are little-endian
/// and may be unaligned. The page map uses the integer
/// [`FastMap`](crate::FastMap) hasher, since every emulated load and
/// store looks up one page, and [`Memory::write_slice`] copies a
/// segment one page at a time.
///
/// # Examples
///
/// ```
/// use clustered_emu::Memory;
/// let mut mem = Memory::new();
/// mem.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(mem.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(mem.read_u8(0x9999_9999), 0); // untouched reads as zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: FastMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// The number of resident (touched-by-write) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr & OFFSET_MASK) as usize],
            None => 0,
        }
    }

    /// The page holding `addr`, allocated zeroed on first touch.
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & OFFSET_MASK) as usize] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    pub fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        // Fast path: the whole access falls inside one page.
        let offset = (addr & OFFSET_MASK) as usize;
        if offset + N <= PAGE_SIZE {
            if let Some(page) = self.pages.get(&(addr >> PAGE_SHIFT)) {
                out.copy_from_slice(&page[offset..offset + N]);
            }
            return out;
        }
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = self.read_u8(addr.wrapping_add(i as u64));
        }
        out
    }

    /// Writes `N` little-endian bytes starting at `addr`.
    pub fn write_bytes<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) {
        let offset = (addr & OFFSET_MASK) as usize;
        if offset + N <= PAGE_SIZE {
            self.page_mut(addr)[offset..offset + N].copy_from_slice(&bytes);
            return;
        }
        for (i, byte) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), *byte);
        }
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, value.to_le_bytes());
    }

    /// Reads a little-endian `f64`.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes a little-endian `f64`.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Copies a byte slice into memory starting at `addr`, one page
    /// at a time: one page lookup and one `memcpy` per page touched,
    /// with the same result as writing each byte with
    /// [`Memory::write_u8`] (addresses wrap at the top of the space).
    /// An empty slice touches no page.
    pub fn write_slice(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let offset = (addr & OFFSET_MASK) as usize;
            let (chunk, rest) = bytes.split_at(bytes.len().min(PAGE_SIZE - offset));
            self.page_mut(addr)[offset..offset + chunk.len()].copy_from_slice(chunk);
            addr = addr.wrapping_add(chunk.len() as u64);
            bytes = rest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_before_write() {
        let mem = Memory::new();
        assert_eq!(mem.read_u64(0), 0);
        assert_eq!(mem.read_u8(u64::MAX), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn round_trip_widths() {
        let mut mem = Memory::new();
        mem.write_u8(10, 0xab);
        mem.write_u32(100, 0x1234_5678);
        mem.write_u64(200, 0x1122_3344_5566_7788);
        mem.write_f64(300, -2.75);
        assert_eq!(mem.read_u8(10), 0xab);
        assert_eq!(mem.read_u32(100), 0x1234_5678);
        assert_eq!(mem.read_u64(200), 0x1122_3344_5566_7788);
        assert_eq!(mem.read_f64(300), -2.75);
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = Memory::new();
        mem.write_u64(0, 0x0807_0605_0403_0201);
        for i in 0..8 {
            assert_eq!(mem.read_u8(i), (i + 1) as u8);
        }
    }

    #[test]
    fn cross_page_access() {
        let mut mem = Memory::new();
        let addr = PAGE_SIZE as u64 - 4; // straddles a page boundary
        mem.write_u64(addr, 0xdead_beef_cafe_f00d);
        assert_eq!(mem.read_u64(addr), 0xdead_beef_cafe_f00d);
        assert_eq!(mem.resident_pages(), 2);
    }

    /// `write_slice` must equal byte-by-byte `write_u8`: contents and
    /// resident pages, for a short slice inside a page, one starting
    /// mid-page and spanning more than three pages, one ending exactly
    /// on a page boundary, one wrapping past the top of the address
    /// space, and an empty one.
    #[test]
    fn write_slice_round_trip() {
        let page = PAGE_SIZE as u64;
        let cases: [(u64, usize); 5] = [
            (50, 5),
            (page + 100, 3 * PAGE_SIZE + 17),
            (2 * page - 300, 300 + PAGE_SIZE),
            (u64::MAX - 9, 20),
            (page + 7, 0),
        ];
        for (addr, len) in cases {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let mut paged = Memory::new();
            paged.write_slice(addr, &bytes);
            let mut bytewise = Memory::new();
            for (i, &b) in bytes.iter().enumerate() {
                bytewise.write_u8(addr.wrapping_add(i as u64), b);
            }
            assert_eq!(paged.resident_pages(), bytewise.resident_pages(), "{addr:#x}+{len}");
            for i in 0..len as u64 + 2 * page {
                let a = addr.wrapping_sub(page).wrapping_add(i);
                assert_eq!(paged.read_u8(a), bytewise.read_u8(a), "{addr:#x}+{len} at {a:#x}");
            }
        }
        let mut mem = Memory::new();
        mem.write_slice(page + 7, &[]);
        assert_eq!(mem.resident_pages(), 0, "an empty slice touches no page");
        mem.write_slice(2 * page - 4, &[1, 2, 3, 4]);
        assert_eq!(mem.resident_pages(), 1, "a slice ending on a boundary stays in its page");
    }
}
