//! A buffer pool with clock (second-chance) eviction.
//!
//! The relational engine reads heap pages through this pool, giving it the
//! cold/warm-start behaviour Figure 6 of the paper measures: a cold run
//! faults every page in; a warm run hits the pool.

use std::collections::HashMap;

use smda_types::Result;

use crate::heap::HeapFile;
use crate::page::Page;

/// Hit/miss/eviction counters (exposed to the benchmark harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from the pool.
    pub hits: u64,
    /// Requests that had to read from disk.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

struct Frame {
    page_no: u32,
    page: Page,
    referenced: bool,
}

/// A fixed-capacity page cache over one heap file.
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Frame>,
    map: HashMap<u32, usize>,
    hand: usize,
    stats: PoolStats,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("resident", &self.frames.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl BufferPool {
    /// A pool holding at most `capacity` pages.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            capacity,
            frames: Vec::with_capacity(capacity),
            map: HashMap::with_capacity(capacity),
            hand: 0,
            stats: PoolStats::default(),
        }
    }

    /// Fetch a page, reading through to `heap` on a miss.
    pub fn get(&mut self, heap: &mut HeapFile, page_no: u32) -> Result<&Page> {
        if let Some(&slot) = self.map.get(&page_no) {
            self.stats.hits += 1;
            self.frames[slot].referenced = true;
            return Ok(&self.frames[slot].page);
        }
        self.stats.misses += 1;
        let page = heap.read_page(page_no)?;
        let slot = if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                page_no,
                page,
                referenced: true,
            });
            self.frames.len() - 1
        } else {
            let victim = self.pick_victim();
            self.stats.evictions += 1;
            self.map.remove(&self.frames[victim].page_no);
            self.frames[victim] = Frame {
                page_no,
                page,
                referenced: true,
            };
            victim
        };
        self.map.insert(page_no, slot);
        Ok(&self.frames[slot].page)
    }

    /// Clock sweep: clear reference bits until an unreferenced frame is
    /// found.
    fn pick_victim(&mut self) -> usize {
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            if self.frames[slot].referenced {
                self.frames[slot].referenced = false;
            } else {
                return slot;
            }
        }
    }

    /// Drop one page if resident (after an in-place update).
    pub fn invalidate(&mut self, page_no: u32) {
        if let Some(slot) = self.map.remove(&page_no) {
            // Replace with a self-referencing dead frame: simplest safe
            // eviction without shifting indices. Mark unreferenced so the
            // clock reuses it first.
            self.frames[slot].referenced = false;
            self.frames[slot].page_no = u32::MAX;
        }
    }

    /// Drop every cached page (cold-start simulation).
    pub fn clear(&mut self) {
        self.frames.clear();
        self.map.clear();
        self.hand = 0;
    }

    /// Counters since construction (cleared pages keep their history).
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap_with_pages(tag: &str, pages: usize) -> (HeapFile, std::path::PathBuf) {
        let path = std::env::temp_dir().join(format!("smda-pool-{tag}-{}.db", std::process::id()));
        let mut heap = HeapFile::create(&path).unwrap();
        // Each 4000-byte tuple fills most of a page, so 2 tuples ≈ 1 page.
        for i in 0..(pages * 2) {
            heap.insert(&vec![i as u8; 4000]).unwrap();
        }
        heap.flush().unwrap();
        (heap, path)
    }

    #[test]
    fn caches_repeated_access() {
        let (mut heap, path) = heap_with_pages("hits", 4);
        let mut pool = BufferPool::new(8);
        for _ in 0..3 {
            for p in 0..4 {
                pool.get(&mut heap, p).unwrap();
            }
        }
        let s = pool.stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 8);
        assert_eq!(s.evictions, 0);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn evicts_when_full() {
        let (mut heap, path) = heap_with_pages("evict", 10);
        let mut pool = BufferPool::new(4);
        for p in 0..10 {
            pool.get(&mut heap, p).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.misses, 10);
        assert_eq!(s.evictions, 6);
        assert_eq!(pool.frames.len(), 4);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn clock_gives_second_chance() {
        let (mut heap, path) = heap_with_pages("clock", 5);
        let mut pool = BufferPool::new(2);
        pool.get(&mut heap, 0).unwrap(); // frame 0
        pool.get(&mut heap, 1).unwrap(); // frame 1
                                         // The sweep starts at frame 0 and clears reference bits as it
                                         // passes, so with both frames referenced the victim is frame 0:
                                         // page 1 gets its second chance, page 0 is evicted.
        pool.get(&mut heap, 2).unwrap();
        let before = pool.stats().hits;
        pool.get(&mut heap, 1).unwrap();
        assert_eq!(
            pool.stats().hits,
            before + 1,
            "page 1 should still be resident"
        );
        // And page 0 is gone.
        pool.get(&mut heap, 0).unwrap();
        assert_eq!(pool.stats().evictions, 2);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn clear_forces_cold_start() {
        let (mut heap, path) = heap_with_pages("clear", 3);
        let mut pool = BufferPool::new(8);
        pool.get(&mut heap, 0).unwrap();
        pool.clear();
        assert_eq!(pool.frames.len(), 0);
        pool.get(&mut heap, 0).unwrap();
        assert_eq!(pool.stats().misses, 2);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn page_content_is_correct_through_pool() {
        let (mut heap, path) = heap_with_pages("content", 3);
        let mut pool = BufferPool::new(2);
        let page = pool.get(&mut heap, 1).unwrap();
        let tuple = page.get(0).unwrap();
        assert_eq!(tuple.len(), 4000);
        assert_eq!(tuple[0], 2); // third tuple overall, first on page 1
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_panics() {
        BufferPool::new(0);
    }
}
