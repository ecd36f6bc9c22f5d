//! Slotted 8 KiB pages.
//!
//! Layout (offsets in bytes):
//!
//! ```text
//! 0..2   u16 slot count
//! 2..4   u16 free-space end (tuples occupy free_end..PAGE_SIZE)
//! 4..    slot directory, 4 bytes per slot: u16 offset, u16 length
//! ...    free space
//! ...    tuple data, growing downward from the page end
//! ```
//!
//! Slots are only appended, so slot numbers in [`crate::heap::TupleId`]s
//! stay stable.

use bytes::{Buf, BufMut};

/// Page size in bytes, matching PostgreSQL's default.
pub const PAGE_SIZE: usize = 8192;

const HEADER_BYTES: usize = 4;
const SLOT_BYTES: usize = 4;

/// One slotted page.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// An empty page.
    pub fn new() -> Self {
        let mut data = Box::new([0u8; PAGE_SIZE]);
        // free_end starts at the page end.
        (&mut data[2..4]).put_u16_le(PAGE_SIZE as u16);
        Page { data }
    }

    /// Reconstitute a page from raw bytes (e.g. read from disk).
    ///
    /// # Panics
    /// Panics if `bytes.len() != PAGE_SIZE`.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert_eq!(
            bytes.len(),
            PAGE_SIZE,
            "a page is exactly {PAGE_SIZE} bytes"
        );
        let mut data = Box::new([0u8; PAGE_SIZE]);
        data.copy_from_slice(bytes);
        Page { data }
    }

    /// The raw page bytes (for writing to disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.data[..]
    }

    /// Number of slots.
    pub fn slot_count(&self) -> usize {
        (&self.data[0..2]).get_u16_le() as usize
    }

    fn free_end(&self) -> usize {
        (&self.data[2..4]).get_u16_le() as usize
    }

    /// Contiguous free bytes available for one more tuple (accounting for
    /// its slot directory entry).
    fn free_space(&self) -> usize {
        let used_front = HEADER_BYTES + self.slot_count() * SLOT_BYTES;
        self.free_end()
            .saturating_sub(used_front)
            .saturating_sub(SLOT_BYTES)
    }

    /// Append a tuple; returns its slot number, or `None` when the page
    /// cannot fit it.
    pub fn insert(&mut self, tuple: &[u8]) -> Option<usize> {
        if tuple.len() > self.free_space() || tuple.len() > u16::MAX as usize {
            return None;
        }
        let slot = self.slot_count();
        let new_end = self.free_end() - tuple.len();
        self.data[new_end..new_end + tuple.len()].copy_from_slice(tuple);
        let dir = HEADER_BYTES + slot * SLOT_BYTES;
        (&mut self.data[dir..dir + 2]).put_u16_le(new_end as u16);
        (&mut self.data[dir + 2..dir + 4]).put_u16_le(tuple.len() as u16);
        (&mut self.data[0..2]).put_u16_le((slot + 1) as u16);
        (&mut self.data[2..4]).put_u16_le(new_end as u16);
        Some(slot)
    }

    /// Read the tuple in `slot`; `None` for out-of-range or zero-length
    /// slots.
    pub fn get(&self, slot: usize) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let dir = HEADER_BYTES + slot * SLOT_BYTES;
        let offset = (&self.data[dir..dir + 2]).get_u16_le() as usize;
        let len = (&self.data[dir + 2..dir + 4]).get_u16_le() as usize;
        if len == 0 {
            return None;
        }
        Some(&self.data[offset..offset + len])
    }

    /// Overwrite a live tuple in place with a same-length payload
    /// (late-data restatements). Returns `false` when the slot is empty,
    /// out of range, or the length differs.
    pub fn overwrite(&mut self, slot: usize, tuple: &[u8]) -> bool {
        if slot >= self.slot_count() {
            return false;
        }
        let dir = HEADER_BYTES + slot * SLOT_BYTES;
        let offset = (&self.data[dir..dir + 2]).get_u16_le() as usize;
        let len = (&self.data[dir + 2..dir + 4]).get_u16_le() as usize;
        if len == 0 || len != tuple.len() {
            return false;
        }
        self.data[offset..offset + len].copy_from_slice(tuple);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get_round_trip() {
        let mut p = Page::new();
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s0).unwrap(), b"hello");
        assert_eq!(p.get(s1).unwrap(), b"world!");
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn fills_until_capacity() {
        let mut p = Page::new();
        let tuple = [7u8; 100];
        let mut count = 0;
        while p.insert(&tuple).is_some() {
            count += 1;
        }
        // 8188 usable bytes / 104 per tuple ≈ 78.
        assert!((75..=80).contains(&count), "inserted {count}");
        assert!(p.free_space() < 104 + SLOT_BYTES);
    }

    #[test]
    fn rejects_oversized_tuple() {
        let mut p = Page::new();
        assert!(p.insert(&vec![0u8; PAGE_SIZE]).is_none());
        // But a page-filling tuple (minus header + one slot) fits.
        assert!(p
            .insert(&vec![1u8; PAGE_SIZE - HEADER_BYTES - 2 * SLOT_BYTES])
            .is_some());
    }

    #[test]
    fn serialization_round_trip() {
        let mut p = Page::new();
        p.insert(b"persist me").unwrap();
        p.insert(b"me too").unwrap();
        let restored = Page::from_bytes(p.as_bytes());
        assert_eq!(restored.get(0).unwrap(), b"persist me");
        assert_eq!(restored.get(1).unwrap(), b"me too");
        assert_eq!(restored.slot_count(), 2);
    }

    #[test]
    fn empty_page_properties() {
        let p = Page::new();
        assert_eq!(p.slot_count(), 0);
        assert!(p.get(0).is_none());
        assert_eq!(p.free_space(), PAGE_SIZE - HEADER_BYTES - SLOT_BYTES);
    }
}
