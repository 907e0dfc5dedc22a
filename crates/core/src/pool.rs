//! Buffer pool manager: fixed-size pages behind a frame table.
//!
//! Three layers live here, bottom-up:
//!
//! 1. **[`PageStore`]** — the backend a pool spills to and faults from.
//!    [`MemPageStore`] keeps pages in a heap vector indexed by id; it is
//!    the only store a tree ever writes to (the paged arena layers a
//!    read-only overlay of the recovered psnap buffer under it).
//!    Durability is not this trait's job: page images reach disk whole,
//!    through `quit-durability`'s `Storage`.
//! 2. **[`BufferPool`]** — a frame table over byte pages: pin counts,
//!    reference bits, and CLOCK (second-chance) eviction of unpinned
//!    frames. Dirty victims are written back through the store before
//!    their frame is reused.
//! 3. **[`ReadGuard`] / [`WriteGuard`]** — RAII pins. A guard holds its
//!    frame pinned (unevictable) for its whole lifetime, so latch
//!    crabbing — acquire the child's guard *before* releasing the
//!    parent's — keeps every page on the path resident. Dropping the
//!    guard unpins; a dropped `WriteGuard` also marks the frame dirty.
//!
//! The node-granular paged arena (`crate::paged`) reuses the same store
//! backends and eviction policy but caches *decoded* nodes rather than
//! byte pages; see that module for how its pin discipline maps onto
//! this one.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io;

// ---------------------------------------------------------------------
// Page identity
// ---------------------------------------------------------------------

/// Identifier of a fixed-size page inside a [`PageStore`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl std::fmt::Debug for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The default page size: 4 KiB, matching the paper's node-size accounting
/// (`BpTree::memory_report` charges every node one such page).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

// ---------------------------------------------------------------------
// PageStore backends
// ---------------------------------------------------------------------

/// Backend a buffer pool evicts to and faults from.
///
/// Implementations must make a completed [`write`](Self::write) visible to
/// every later [`read`](Self::read) of the same id (read-your-writes);
/// durability is only required after [`sync`](Self::sync) returns.
pub trait PageStore: Send {
    /// Hands page `id`'s bytes to `sink` where they sit in the store — no
    /// copy, no allocation — and returns `true`; returns `false` without
    /// calling `sink` if the page was never written. The slice is only
    /// valid inside the call; a sink that wants to keep the page copies
    /// it (or decodes it) there.
    fn read(&self, id: PageId, sink: &mut dyn FnMut(&[u8])) -> io::Result<bool>;
    /// Writes (or overwrites) page `id`.
    fn write(&mut self, id: PageId, bytes: &[u8]) -> io::Result<()>;
    /// Flushes any deferred writes and makes everything durable.
    fn sync(&mut self) -> io::Result<()>;
    /// Number of distinct pages ever written.
    fn page_count(&self) -> usize;
}

/// Heap-backed page store: the test backend, and the one the crash model
/// wraps (its byte image is just the pages' contents). Page ids are node
/// ids, which are slab-dense, so pages sit in a vector indexed by id —
/// no hashing on the fault path.
#[derive(Debug, Default)]
pub struct MemPageStore {
    /// `pages[id]` is page `id`, `None` until first written.
    pages: Vec<Option<Vec<u8>>>,
    /// Pages written at least once (the `Some` slots).
    count: usize,
}

impl MemPageStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PageStore for MemPageStore {
    fn read(&self, id: PageId, sink: &mut dyn FnMut(&[u8])) -> io::Result<bool> {
        let page = usize::try_from(id.0)
            .ok()
            .and_then(|i| self.pages.get(i)?.as_ref());
        Ok(page.map(|page| sink(page)).is_some())
    }

    fn write(&mut self, id: PageId, bytes: &[u8]) -> io::Result<()> {
        let i = usize::try_from(id.0).map_err(io::Error::other)?;
        if i >= self.pages.len() {
            self.pages.resize_with(i + 1, || None);
        }
        // An overwrite reuses the page's allocation.
        let page = self.pages[i].get_or_insert_with(|| {
            self.count += 1;
            Vec::new()
        });
        page.clear();
        page.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn page_count(&self) -> usize {
        self.count
    }
}

// ---------------------------------------------------------------------
// Pool statistics
// ---------------------------------------------------------------------

/// Hit/fault/eviction counters shared by the byte pool and the paged
/// arena; snapshot-read into `StatsSnapshot` by the metrics layer.
#[derive(Debug, Default)]
pub struct PoolCounters {
    /// Lookups satisfied by a resident frame.
    pub hits: Cell<u64>,
    /// Lookups that had to fault the page in from the store.
    pub faults: Cell<u64>,
    /// Frames evicted (dirty or clean) to make room.
    pub evictions: Cell<u64>,
}

impl PoolCounters {
    /// Fraction of lookups served without faulting, in `[0, 1]`
    /// (1.0 when nothing was looked up yet).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits.get();
        let total = h + self.faults.get();
        if total == 0 {
            1.0
        } else {
            h as f64 / total as f64
        }
    }
}

// ---------------------------------------------------------------------
// BufferPool: frame table + CLOCK over byte pages
// ---------------------------------------------------------------------

/// One frame: a resident page with its bookkeeping. Pin count and flag
/// cells use interior mutability so guards (which only hold `&BufferPool`)
/// can unpin on drop.
#[derive(Debug)]
struct Frame {
    id: u64,
    payload: RefCell<Vec<u8>>,
    pin: Cell<u32>,
    ref_bit: Cell<bool>,
    dirty: Cell<bool>,
}

/// A buffer pool over byte pages: at most `capacity` frames are resident;
/// lookups pin their frame and return an RAII guard; CLOCK (second-chance)
/// evicts an unpinned frame — writing it back first if dirty — when the
/// pool is full and a fault needs a frame.
///
/// Pin ordering rule (latch crabbing): to move from page *P* to page *C*,
/// acquire *C*'s guard **before** dropping *P*'s. Both frames are pinned
/// during the overlap, so neither can be evicted mid-step; per-frame
/// `RefCell`s (not one pool-wide borrow) are what make two simultaneous
/// write guards on different frames legal.
pub struct BufferPool {
    /// Grows one frame per fault up to `capacity`, then stays full: a
    /// victim's slot is overwritten in place, so there are never holes.
    frames: RefCell<Vec<Frame>>,
    table: RefCell<HashMap<u64, usize>>,
    store: RefCell<Box<dyn PageStore>>,
    hand: Cell<usize>,
    capacity: usize,
    page_size: usize,
    counters: PoolCounters,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("page_size", &self.page_size)
            .field("resident", &self.table.borrow().len())
            .finish()
    }
}

impl BufferPool {
    /// A pool holding at most `capacity` pages of `page_size` bytes over
    /// `store`.
    pub fn new(store: Box<dyn PageStore>, capacity: usize, page_size: usize) -> Self {
        assert!(capacity >= 2, "buffer pool needs at least 2 frames");
        BufferPool {
            frames: RefCell::new(Vec::with_capacity(capacity)),
            table: RefCell::new(HashMap::new()),
            store: RefCell::new(store),
            hand: Cell::new(0),
            capacity,
            page_size,
            counters: PoolCounters::default(),
        }
    }

    /// The pool's frame capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently resident.
    pub fn resident(&self) -> usize {
        self.table.borrow().len()
    }

    /// Hit/fault/eviction counters.
    pub fn counters(&self) -> &PoolCounters {
        &self.counters
    }

    /// Pins page `id` for reading, faulting it in (and evicting a victim
    /// if the pool is full) as needed. Fails if the page does not exist
    /// in the store, if its checksum is bad, or if every frame is pinned.
    pub fn read(&self, id: PageId) -> io::Result<ReadGuard<'_>> {
        let idx = self.pin(id, false)?;
        Ok(ReadGuard { pool: self, idx })
    }

    /// Pins page `id` for writing. A page that does not exist yet is
    /// created zero-filled (`new_page` semantics). The frame is marked
    /// dirty when the guard drops.
    pub fn write(&self, id: PageId) -> io::Result<WriteGuard<'_>> {
        let idx = self.pin(id, true)?;
        Ok(WriteGuard { pool: self, idx })
    }

    /// Writes every dirty frame back and syncs the store.
    pub fn flush(&self) -> io::Result<()> {
        let frames = self.frames.borrow();
        let mut store = self.store.borrow_mut();
        for frame in frames.iter() {
            if frame.dirty.get() {
                store.write(PageId(frame.id), &frame.payload.borrow())?;
                frame.dirty.set(false);
            }
        }
        store.sync()
    }

    /// Finds (or faults in) `id`, pins its frame, and returns the frame
    /// index.
    fn pin(&self, id: PageId, create: bool) -> io::Result<usize> {
        if let Some(&idx) = self.table.borrow().get(&id.0) {
            let frame = &self.frames.borrow()[idx];
            frame.pin.set(frame.pin.get() + 1);
            frame.ref_bit.set(true);
            self.counters.hits.set(self.counters.hits.get() + 1);
            return Ok(idx);
        }
        // Fault path: load, then find a frame. A page born here (never
        // in the store) starts dirty so eviction writes it out.
        let mut payload = Vec::with_capacity(self.page_size);
        let stored = self
            .store
            .borrow()
            .read(id, &mut |bytes| payload.extend_from_slice(bytes))?;
        if !stored {
            if !create {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("page {id:?} not in store"),
                ));
            }
            payload.resize(self.page_size, 0);
        }
        self.counters.faults.set(self.counters.faults.get() + 1);
        let frame = Frame {
            id: id.0,
            payload: RefCell::new(payload),
            pin: Cell::new(1),
            ref_bit: Cell::new(true),
            dirty: Cell::new(!stored),
        };
        let mut frames = self.frames.borrow_mut();
        let idx = if frames.len() < self.capacity {
            frames.push(frame);
            frames.len() - 1
        } else {
            let idx = self.evict(&frames)?;
            frames[idx] = frame;
            idx
        };
        self.table.borrow_mut().insert(id.0, idx);
        Ok(idx)
    }

    /// CLOCK over a full frame table: sweep for an unpinned victim,
    /// clearing one reference bit per pass (second chance), write it back
    /// if dirty, unmap it, and return its slot for the caller to
    /// overwrite. Fails if every frame stays pinned for two full sweeps,
    /// or if the write-back does (the victim then stays resident).
    fn evict(&self, frames: &[Frame]) -> io::Result<usize> {
        let n = frames.len();
        let mut hand = self.hand.get();
        for _ in 0..2 * n {
            let here = hand;
            let frame = &frames[here];
            hand = (hand + 1) % n;
            if frame.pin.get() > 0 {
                continue;
            }
            if frame.ref_bit.get() {
                frame.ref_bit.set(false); // second chance
                continue;
            }
            if frame.dirty.get() {
                self.store
                    .borrow_mut()
                    .write(PageId(frame.id), &frame.payload.borrow())?;
            }
            self.table.borrow_mut().remove(&frame.id);
            self.counters
                .evictions
                .set(self.counters.evictions.get() + 1);
            self.hand.set(hand);
            return Ok(here);
        }
        self.hand.set(hand);
        Err(io::Error::new(
            io::ErrorKind::WouldBlock,
            "buffer pool exhausted: every frame is pinned",
        ))
    }

    fn unpin(&self, idx: usize, mark_dirty: bool) {
        let frame = &self.frames.borrow()[idx];
        debug_assert!(frame.pin.get() > 0, "unpin of unpinned frame");
        frame.pin.set(frame.pin.get() - 1);
        if mark_dirty {
            frame.dirty.set(true);
        }
    }
}

/// Shared (read) pin on one page. The frame cannot be evicted while this
/// guard lives; drop order against other guards encodes the crabbing
/// protocol.
pub struct ReadGuard<'p> {
    pool: &'p BufferPool,
    idx: usize,
}

impl ReadGuard<'_> {
    /// Runs `f` over the page bytes.
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.pool.frames.borrow()[self.idx].payload.borrow())
    }

    /// The page this guard pins.
    pub fn page_id(&self) -> PageId {
        PageId(self.pool.frames.borrow()[self.idx].id)
    }
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.idx, false);
    }
}

/// Exclusive (write) pin on one page; marks the frame dirty on drop.
pub struct WriteGuard<'p> {
    pool: &'p BufferPool,
    idx: usize,
}

impl WriteGuard<'_> {
    /// Runs `f` over the mutable page bytes.
    pub fn with_mut<R>(&mut self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(&mut self.pool.frames.borrow()[self.idx].payload.borrow_mut())
    }

    /// The page this guard pins.
    pub fn page_id(&self) -> PageId {
        PageId(self.pool.frames.borrow()[self.idx].id)
    }
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.idx, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// Copies page `id` out of `s` (`None` if never written).
    fn page(s: &dyn PageStore, id: u64) -> io::Result<Option<Vec<u8>>> {
        let mut out = None;
        s.read(PageId(id), &mut |bytes| out = Some(bytes.to_vec()))?;
        Ok(out)
    }

    #[test]
    fn mem_store_roundtrip() {
        let mut s = MemPageStore::new();
        assert!(page(&s, 1).unwrap().is_none());
        s.write(PageId(1), &[1, 2, 3]).unwrap();
        s.write(PageId(9), &[9]).unwrap();
        assert_eq!(page(&s, 1).unwrap().unwrap(), vec![1, 2, 3]);
        assert_eq!(s.page_count(), 2);
        s.sync().unwrap();
    }

    #[test]
    fn pool_pins_fault_and_evict_with_clock() {
        let pool = BufferPool::new(Box::new(MemPageStore::new()), 3, 32);
        // Create four pages through write guards: forces one eviction.
        for i in 0..4u64 {
            let mut g = pool.write(PageId(i)).unwrap();
            g.with_mut(|p| p[0] = i as u8 + 1);
        }
        assert_eq!(pool.resident(), 3);
        assert_eq!(pool.counters().evictions.get(), 1);
        // The evicted page (dirty) must have been written back: fault it.
        for i in 0..4u64 {
            let g = pool.read(PageId(i)).unwrap();
            assert_eq!(g.with(|p| p[0]), i as u8 + 1, "page {i} content survives");
        }
        assert!(pool.counters().faults.get() >= 5);
        assert!(pool.counters().hit_rate() < 1.0);
    }

    #[test]
    fn pinned_frames_are_never_victims() {
        let pool = BufferPool::new(Box::new(MemPageStore::new()), 2, 16);
        let g0 = pool.write(PageId(0)).unwrap();
        let g1 = pool.write(PageId(1)).unwrap();
        // Both frames pinned: a third page cannot get a frame.
        let err = match pool.write(PageId(2)) {
            Err(e) => e,
            Ok(_) => panic!("fully pinned pool must refuse a new page"),
        };
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        drop(g0);
        // Crabbing shape: grab the child before releasing the parent.
        let g2 = pool.write(PageId(2)).unwrap();
        drop(g1);
        drop(g2);
        assert_eq!(pool.resident(), 2);
    }

    /// A store whose writes fail while `broken` is set.
    struct FlakyStore {
        inner: MemPageStore,
        broken: Arc<AtomicBool>,
    }

    impl PageStore for FlakyStore {
        fn read(&self, id: PageId, sink: &mut dyn FnMut(&[u8])) -> io::Result<bool> {
            self.inner.read(id, sink)
        }
        fn write(&mut self, id: PageId, bytes: &[u8]) -> io::Result<()> {
            if self.broken.load(Ordering::Relaxed) {
                return Err(io::Error::other("injected write failure"));
            }
            self.inner.write(id, bytes)
        }
        fn sync(&mut self) -> io::Result<()> {
            self.inner.sync()
        }
        fn page_count(&self) -> usize {
            self.inner.page_count()
        }
    }

    #[test]
    fn failed_write_back_keeps_the_victim_resident() {
        let broken = Arc::new(AtomicBool::new(false));
        let store = FlakyStore {
            inner: MemPageStore::new(),
            broken: broken.clone(),
        };
        let pool = BufferPool::new(Box::new(store), 2, 16);
        for i in 0..2u64 {
            pool.write(PageId(i))
                .unwrap()
                .with_mut(|p| p[0] = i as u8 + 1);
        }
        broken.store(true, Ordering::Relaxed);
        for _ in 0..3 {
            assert!(pool.write(PageId(2)).is_err(), "eviction needs the store");
        }
        // Neither dirty page was dropped with its only copy.
        assert_eq!(pool.resident(), 2);
        assert_eq!(pool.counters().evictions.get(), 0);
        broken.store(false, Ordering::Relaxed);
        pool.write(PageId(2)).unwrap().with_mut(|p| p[0] = 3);
        for i in 0..3u64 {
            assert_eq!(pool.read(PageId(i)).unwrap().with(|p| p[0]), i as u8 + 1);
        }
    }

    #[test]
    fn read_after_flush_via_fresh_pool() {
        let mut store = MemPageStore::new();
        store.write(PageId(5), &[0u8; 16]).unwrap();
        let pool = BufferPool::new(Box::new(store), 2, 16);
        {
            let mut g = pool.write(PageId(5)).unwrap();
            g.with_mut(|p| p[3] = 42);
        }
        pool.flush().unwrap();
        let g = pool.read(PageId(5)).unwrap();
        assert_eq!(g.with(|p| p[3]), 42);
        // Reading a page that exists nowhere is an error, not a zero page.
        assert!(pool.read(PageId(77)).is_err());
    }
}
