//! Sparse byte-addressable model of a DPU's local DRAM bank (MRAM).
//!
//! UPMEM pairs every DPU with a 64 MB DRAM bank. Allocator experiments
//! only need latency accounting, but the dynamic graph update also
//! stores real data through the allocator, so [`Mram`] backs the
//! address space with 64 KB pages materialized on first write. A table
//! indexed by page number finds them (1,024 entries of 8 B for a 64 MB
//! bank). Reading unwritten memory returns zeroes, like DRAM after
//! initialization.

/// Size of one lazily-allocated backing page.
const PAGE_SHIFT: u32 = 16;
/// Page size in bytes (64 KB).
const PAGE_SIZE: u32 = 1 << PAGE_SHIFT;

type Page = Box<[u8; PAGE_SIZE as usize]>;

fn zeroed_page() -> Page {
    let page = vec![0u8; PAGE_SIZE as usize].into_boxed_slice();
    page.try_into().expect("a page is PAGE_SIZE bytes")
}

/// A sparse model of one 64 MB MRAM bank.
///
/// Addresses are `u32` offsets from the start of the bank. Accesses must
/// stay within `size_bytes`; crossing the end of the bank panics, since
/// on real hardware that is a fault the allocator must never produce.
///
/// ```
/// use pim_sim::Mram;
/// let mut m = Mram::new(64 << 20);
/// m.write(0x100, &0xdead_beef_u32.to_le_bytes());
/// assert_eq!(m.read_u32(0x100), 0xdead_beef);
/// assert_eq!(m.read_u32(0x2000), 0); // untouched memory reads as zero
/// ```
#[derive(Debug, Clone)]
pub struct Mram {
    size_bytes: u32,
    /// Entry `p` backs bytes `p << PAGE_SHIFT ..`; the last page may
    /// extend past a bank that is not a whole number of pages.
    pages: Vec<Option<Page>>,
}

impl Mram {
    /// Creates a bank of `size_bytes` bytes (64 MB on UPMEM hardware).
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is zero.
    pub fn new(size_bytes: u32) -> Self {
        assert!(size_bytes > 0, "MRAM size must be non-zero");
        Mram {
            size_bytes,
            pages: vec![None; size_bytes.div_ceil(PAGE_SIZE) as usize],
        }
    }

    /// Total capacity of the bank in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.size_bytes
    }

    /// Number of 64 KB pages currently materialized.
    ///
    /// Useful in tests to confirm the store stays sparse.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }

    fn check_range(&self, addr: u32, len: usize) {
        let end = addr as u64 + len as u64;
        assert!(
            end <= u64::from(self.size_bytes),
            "MRAM access out of bounds: addr={addr:#x} len={len} size={:#x}",
            self.size_bytes
        );
    }

    /// Reads `buf.len()` bytes starting at `addr` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the bank.
    pub fn read(&self, addr: u32, buf: &mut [u8]) {
        self.check_range(addr, buf.len());
        let mut copied = 0usize;
        while copied < buf.len() {
            let cur = addr + copied as u32;
            let page = (cur >> PAGE_SHIFT) as usize;
            let off = (cur & (PAGE_SIZE - 1)) as usize;
            let chunk = ((PAGE_SIZE as usize) - off).min(buf.len() - copied);
            match &self.pages[page] {
                Some(p) => buf[copied..copied + chunk].copy_from_slice(&p[off..off + chunk]),
                None => buf[copied..copied + chunk].fill(0),
            }
            copied += chunk;
        }
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the bank.
    pub fn write(&mut self, addr: u32, data: &[u8]) {
        self.check_range(addr, data.len());
        let mut copied = 0usize;
        while copied < data.len() {
            let cur = addr + copied as u32;
            let page = (cur >> PAGE_SHIFT) as usize;
            let off = (cur & (PAGE_SIZE - 1)) as usize;
            let chunk = ((PAGE_SIZE as usize) - off).min(data.len() - copied);
            let p = self.pages[page].get_or_insert_with(zeroed_page);
            p[off..off + chunk].copy_from_slice(&data[copied..copied + chunk]);
            copied += chunk;
        }
    }

    /// Reads a little-endian `u32` at `addr`.
    pub fn read_u32(&self, addr: u32) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Zeroes a byte range without materializing pages for it.
    pub fn clear(&mut self, addr: u32, len: u32) {
        self.check_range(addr, len as usize);
        // Drop whole pages where possible, zero partial edges. A page
        // ends at the end of the bank if that comes first.
        let mut cur = addr;
        let end = addr + len;
        while cur < end {
            let page = cur >> PAGE_SHIFT;
            let page_start = page << PAGE_SHIFT;
            let page_end = self.size_bytes.min(page_start.saturating_add(PAGE_SIZE));
            if cur == page_start && end >= page_end {
                self.pages[page as usize] = None;
                cur = page_end;
            } else {
                let stop = end.min(page_end);
                if let Some(p) = &mut self.pages[page as usize] {
                    let a = (cur - page_start) as usize;
                    let b = (stop - page_start) as usize;
                    p[a..b].fill(0);
                }
                cur = stop;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A bank that ends 36 KB into its second page.
    const ODD_BANK: u32 = 100 << 10;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = Mram::new(1 << 20);
        let mut buf = [0xffu8; 16];
        m.read(0x1234, &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn roundtrip_within_one_page() {
        let mut m = Mram::new(1 << 20);
        m.write(100, b"hello pim");
        let mut buf = [0u8; 9];
        m.read(100, &mut buf);
        assert_eq!(&buf, b"hello pim");
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn roundtrip_across_page_boundary() {
        let mut m = Mram::new(1 << 20);
        let addr = PAGE_SIZE - 4;
        let data: Vec<u8> = (0..16).collect();
        m.write(addr, &data);
        let mut buf = [0u8; 16];
        m.read(addr, &mut buf);
        assert_eq!(buf.as_slice(), data.as_slice());
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn integer_accessors_roundtrip() {
        let mut m = Mram::new(1 << 20);
        m.write(8, &0x0102_0304_u32.to_le_bytes());
        assert_eq!(m.read_u32(8), 0x0102_0304);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let m = Mram::new(1 << 20);
        let mut buf = [0u8; 8];
        m.read((1 << 20) - 4, &mut buf);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_write_panics() {
        let mut m = Mram::new(64);
        m.write(60, &[0u8; 8]);
    }

    #[test]
    fn clear_releases_whole_pages_and_zeroes_edges() {
        let mut m = Mram::new(4 * PAGE_SIZE);
        for p in 0..4u32 {
            m.write(p * PAGE_SIZE, &[0xaa; 32]);
        }
        assert_eq!(m.resident_pages(), 4);
        // Clear from mid-page 0 to mid-page 2: page 1 dropped entirely.
        m.clear(PAGE_SIZE / 2, 2 * PAGE_SIZE);
        assert!(m.resident_pages() <= 3);
        let mut buf = [0u8; 32];
        m.read(PAGE_SIZE, &mut buf);
        assert_eq!(buf, [0u8; 32]);
        // Page 3 untouched.
        m.read(3 * PAGE_SIZE, &mut buf);
        assert_eq!(buf, [0xaa; 32]);
    }

    #[test]
    fn partial_last_page_is_addressable_and_clears() {
        let mut m = Mram::new(ODD_BANK);
        m.write(ODD_BANK - 1, &[0x5a]);
        let mut last = [0u8; 1];
        m.read(ODD_BANK - 1, &mut last);
        assert_eq!(last, [0x5a]);
        assert_eq!(m.resident_pages(), 1);
        m.write(PAGE_SIZE - 16, &[0xaa; 32]);
        assert_eq!(m.resident_pages(), 2);
        // From mid-page 0 to the end of the bank: the partial last
        // page is dropped whole, page 0 keeps its head.
        m.clear(PAGE_SIZE - 8, ODD_BANK - (PAGE_SIZE - 8));
        assert_eq!(m.resident_pages(), 1);
        let mut buf = [0u8; 32];
        m.read(PAGE_SIZE - 16, &mut buf);
        assert_eq!(buf[..8], [0xaa; 8]);
        assert_eq!(buf[8..], [0u8; 24]);
        m.read(ODD_BANK - 1, &mut last);
        assert_eq!(last, [0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_one_byte_past_a_partial_last_page_panics() {
        let mut m = Mram::new(ODD_BANK);
        m.write(ODD_BANK, &[0]);
    }

    /// Writes `ops` and reads them back against a flat shadow array of
    /// the bank: the last write to an address wins.
    fn matches_flat_array(size: u32, ops: &[(u32, Vec<u8>)]) -> Result<(), TestCaseError> {
        let mut m = Mram::new(size);
        let mut shadow = vec![0u8; size as usize];
        for (addr, data) in ops {
            m.write(*addr, data);
            shadow[*addr as usize..*addr as usize + data.len()].copy_from_slice(data);
        }
        for (addr, data) in ops {
            let mut buf = vec![0u8; data.len()];
            m.read(*addr, &mut buf);
            prop_assert_eq!(&buf, &shadow[*addr as usize..*addr as usize + data.len()]);
        }
        Ok(())
    }

    proptest! {
        /// Any sequence of writes followed by reads behaves like a flat
        /// byte array.
        #[test]
        fn behaves_like_flat_array(
            ops in proptest::collection::vec(
                (0u32..(1 << 18) - 64, proptest::collection::vec(any::<u8>(), 1..64)),
                1..40,
            )
        ) {
            matches_flat_array(1 << 18, &ops)?;
        }

        /// The same on a bank whose last page is partial.
        #[test]
        fn behaves_like_flat_array_with_a_partial_last_page(
            ops in proptest::collection::vec(
                (0u32..ODD_BANK - 64, proptest::collection::vec(any::<u8>(), 1..64)),
                1..40,
            )
        ) {
            matches_flat_array(ODD_BANK, &ops)?;
        }
    }
}
