//! Heap files: an append-oriented sequence of slotted pages on disk.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

use smda_types::{Error, Result};

use crate::page::{Page, PAGE_SIZE};

/// Physical address of one tuple: page number and slot within the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId {
    /// Page number within the heap file.
    pub page: u32,
    /// Slot within the page.
    pub slot: u16,
}

impl TupleId {
    /// Pack into a u64 (for index posting lists).
    pub fn pack(self) -> u64 {
        ((self.page as u64) << 16) | self.slot as u64
    }

    /// Unpack from [`TupleId::pack`].
    pub fn unpack(raw: u64) -> Self {
        TupleId {
            page: (raw >> 16) as u32,
            slot: (raw & 0xFFFF) as u16,
        }
    }
}

/// A heap file: slotted pages appended to a single on-disk file.
///
/// Writes go through an in-memory tail page and are persisted with
/// [`HeapFile::flush`]; reads fetch pages on demand (the buffer pool in
/// [`crate::buffer`] caches them for the relational engine).
pub struct HeapFile {
    path: PathBuf,
    file: File,
    pages: u32,
    tail: Page,
    tail_dirty: bool,
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("path", &self.path)
            .field("pages", &self.pages)
            .finish()
    }
}

impl HeapFile {
    /// Create a new, empty heap file at `path` (truncating any existing).
    pub fn create(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| Error::io(format!("creating heap file {}", path.display()), e))?;
        Ok(HeapFile {
            path,
            file,
            pages: 0,
            tail: Page::new(),
            tail_dirty: false,
        })
    }

    /// Open an existing heap file for reading and appending.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| Error::io(format!("opening heap file {}", path.display()), e))?;
        let len = file
            .seek(SeekFrom::End(0))
            .map_err(|e| Error::io("seeking heap file end", e))?;
        if len % PAGE_SIZE as u64 != 0 {
            return Err(Error::Schema(format!(
                "heap file {} length {len} is not page aligned",
                path.display()
            )));
        }
        let pages = (len / PAGE_SIZE as u64) as u32;
        Ok(HeapFile {
            path,
            file,
            pages,
            tail: Page::new(),
            tail_dirty: false,
        })
    }

    /// Append a tuple, spilling the tail page to disk when full.
    pub fn insert(&mut self, tuple: &[u8]) -> Result<TupleId> {
        if let Some(slot) = self.tail.insert(tuple) {
            self.tail_dirty = true;
            return Ok(TupleId {
                page: self.pages,
                slot: slot as u16,
            });
        }
        // Tail is full: persist it and start a fresh page.
        self.spill_tail()?;
        let slot = self.tail.insert(tuple).ok_or_else(|| {
            Error::Invalid(format!(
                "tuple of {} bytes exceeds page capacity",
                tuple.len()
            ))
        })?;
        self.tail_dirty = true;
        Ok(TupleId {
            page: self.pages,
            slot: slot as u16,
        })
    }

    fn spill_tail(&mut self) -> Result<()> {
        self.file
            .seek(SeekFrom::Start(self.pages as u64 * PAGE_SIZE as u64))
            .map_err(|e| Error::io("seeking heap tail", e))?;
        self.file
            .write_all(self.tail.as_bytes())
            .map_err(|e| Error::io("writing heap page", e))?;
        self.pages += 1;
        self.tail = Page::new();
        self.tail_dirty = false;
        Ok(())
    }

    /// Persist any buffered tail page.
    pub fn flush(&mut self) -> Result<()> {
        if self.tail_dirty {
            self.spill_tail()?;
        }
        self.file
            .flush()
            .map_err(|e| Error::io("flushing heap file", e))
    }

    /// Read page `page_no` from disk (or the in-memory tail).
    pub fn read_page(&mut self, page_no: u32) -> Result<Page> {
        if page_no == self.pages && self.tail.slot_count() > 0 {
            return Ok(self.tail.clone());
        }
        if page_no >= self.pages {
            return Err(Error::Invalid(format!(
                "page {page_no} out of range ({} pages)",
                self.pages
            )));
        }
        let mut buf = vec![0u8; PAGE_SIZE];
        self.file
            .seek(SeekFrom::Start(page_no as u64 * PAGE_SIZE as u64))
            .map_err(|e| Error::io("seeking heap page", e))?;
        self.file
            .read_exact(&mut buf)
            .map_err(|e| Error::io(format!("reading heap page {page_no}"), e))?;
        Ok(Page::from_bytes(&buf))
    }

    /// Write a (modified) page back, including the in-memory tail.
    pub fn write_page(&mut self, page_no: u32, page: &Page) -> Result<()> {
        if page_no == self.pages {
            self.tail = page.clone();
            self.tail_dirty = self.tail.slot_count() > 0;
            return Ok(());
        }
        if page_no > self.pages {
            return Err(Error::Invalid(format!(
                "page {page_no} out of range ({} pages)",
                self.pages
            )));
        }
        self.file
            .seek(SeekFrom::Start(page_no as u64 * PAGE_SIZE as u64))
            .map_err(|e| Error::io("seeking heap page", e))?;
        self.file
            .write_all(page.as_bytes())
            .map_err(|e| Error::io(format!("writing heap page {page_no}"), e))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("smda-heap-{tag}-{}.db", std::process::id()))
    }

    #[test]
    fn tuple_id_pack_round_trip() {
        let tid = TupleId {
            page: 123_456,
            slot: 789,
        };
        assert_eq!(TupleId::unpack(tid.pack()), tid);
    }

    #[test]
    fn insert_get_across_pages() {
        let path = temp_path("multi");
        let mut heap = HeapFile::create(&path).unwrap();
        let mut tids = Vec::new();
        // ~300 bytes each: forces several pages.
        for i in 0..100u32 {
            let tuple = vec![i as u8; 300];
            tids.push((heap.insert(&tuple).unwrap(), tuple));
        }
        heap.flush().unwrap();
        assert!(tids.last().unwrap().0.page > 0);
        for (tid, expected) in &tids {
            let page = heap.read_page(tid.page).unwrap();
            assert_eq!(page.get(tid.slot as usize).unwrap(), expected.as_slice());
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn persists_across_reopen() {
        let path = temp_path("reopen");
        {
            let mut heap = HeapFile::create(&path).unwrap();
            heap.insert(b"durable").unwrap();
            heap.flush().unwrap();
        }
        let mut heap = HeapFile::open(&path).unwrap();
        let page = heap.read_page(0).unwrap();
        assert_eq!(page.get(0).unwrap(), b"durable");
        assert_eq!(page.slot_count(), 1);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_out_of_range_page() {
        let path = temp_path("range");
        let mut heap = HeapFile::create(&path).unwrap();
        assert!(heap.read_page(5).is_err());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn open_rejects_misaligned_file() {
        let path = temp_path("misaligned");
        std::fs::write(&path, vec![0u8; 100]).unwrap();
        assert!(HeapFile::open(&path).is_err());
        std::fs::remove_file(path).unwrap();
    }
}
