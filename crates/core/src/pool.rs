//! Buffer pool manager: fixed-size pages behind a frame table.
//!
//! Three layers live here, bottom-up:
//!
//! 1. **[`PageStore`]** — the backend a pool spills to and faults from.
//!    [`MemPageStore`] keeps pages in a map (tests, and the byte-granular
//!    crash model in `quit-durability` / `quit-testkit`);
//!    [`FilePageStore`] is a real page file with a checksummed header,
//!    a per-page CRC on every record, and a small FIFO write-back
//!    scheduler that defers page writes until pressure or [`sync`].
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
//!
//! [`sync`]: PageStore::sync

use crate::crc::crc32;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
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
/// (`TreeConfig::page_size_bytes`).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

// ---------------------------------------------------------------------
// PageStore backends
// ---------------------------------------------------------------------

/// Backend a buffer pool evicts to and faults from.
///
/// Implementations must make a completed [`write`](Self::write) visible to
/// every later [`read`](Self::read) of the same id (read-your-writes);
/// durability is only required after [`sync`](Self::sync) returns.
pub trait PageStore {
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
/// wraps (its byte image is just the map contents).
#[derive(Debug, Default)]
pub struct MemPageStore {
    pages: HashMap<u64, Vec<u8>>,
}

impl MemPageStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PageStore for MemPageStore {
    fn read(&self, id: PageId, sink: &mut dyn FnMut(&[u8])) -> io::Result<bool> {
        Ok(self.pages.get(&id.0).map(|page| sink(page)).is_some())
    }

    fn write(&mut self, id: PageId, bytes: &[u8]) -> io::Result<()> {
        // An overwrite reuses the page's allocation.
        let page = self.pages.entry(id.0).or_default();
        page.clear();
        page.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// Magic line opening every page file written by [`FilePageStore`].
pub const PAGE_FILE_MAGIC: &[u8; 6] = b"QPSF1\n";

/// Byte length of the page-file header: magic, page size, page-count
/// slot, and a CRC over the three.
const FILE_HEADER_LEN: usize = PAGE_FILE_MAGIC.len() + 8 + 8 + 4;

/// Byte length of a page record's prefix: page id + CRC of the payload.
const RECORD_PREFIX_LEN: usize = 8 + 4;

/// A real page file: checksummed header, fixed-stride records of
/// `[page id | payload CRC | payload]`, and a FIFO write-back scheduler.
///
/// Writes enqueue; the queue drains oldest-first once it exceeds
/// `writeback_cap` (so a hot page rewritten before its turn costs one
/// disk write, not many), and fully on [`sync`](PageStore::sync), which
/// also fsyncs. Reads check the queue first (read-your-writes), then the
/// file, verifying the record's CRC and id — a torn or misdirected page
/// read fails loudly instead of returning garbage.
#[derive(Debug)]
pub struct FilePageStore {
    file: std::fs::File,
    page_size: usize,
    /// Page id → record index in the file (slot order is allocation order).
    index: HashMap<u64, u64>,
    /// FIFO write-back queue: ids in first-write order; payloads live in
    /// `queued` so a re-write before drain replaces bytes without
    /// re-queueing.
    queue: VecDeque<u64>,
    queued: HashMap<u64, Vec<u8>>,
    writeback_cap: usize,
    header_dirty: bool,
    /// One record-sized scratch buffer (`prefix | page`) that every file
    /// read and write goes through, so neither allocates.
    record: RefCell<Vec<u8>>,
}

impl FilePageStore {
    /// Default number of pages the FIFO write-back queue holds before it
    /// starts draining oldest-first.
    pub const DEFAULT_WRITEBACK_CAP: usize = 64;

    /// Creates (truncating) a page file at `path` for `page_size`-byte pages.
    pub fn create(path: &std::path::Path, page_size: usize) -> io::Result<Self> {
        assert!(page_size >= 64, "page size must be at least 64 bytes");
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut s = FilePageStore {
            file,
            page_size,
            index: HashMap::new(),
            queue: VecDeque::new(),
            queued: HashMap::new(),
            writeback_cap: Self::DEFAULT_WRITEBACK_CAP,
            header_dirty: true,
            record: RefCell::new(vec![0u8; RECORD_PREFIX_LEN + page_size]),
        };
        s.write_header()?;
        Ok(s)
    }

    /// Opens an existing page file, validating the header checksum and
    /// magic and rebuilding the id → offset index from the record stride.
    /// Per-page CRCs are checked lazily, on each read.
    pub fn open(path: &std::path::Path) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        let mut header = [0u8; FILE_HEADER_LEN];
        read_exact_at(&file, &mut header, 0)?;
        if &header[..6] != PAGE_FILE_MAGIC {
            return Err(corrupt("page file: bad magic"));
        }
        let stored_crc = u32::from_le_bytes(header[FILE_HEADER_LEN - 4..].try_into().unwrap());
        if crc32(&header[..FILE_HEADER_LEN - 4]) != stored_crc {
            return Err(corrupt("page file: header checksum mismatch"));
        }
        let page_size = u64::from_le_bytes(header[6..14].try_into().unwrap()) as usize;
        let n_pages = u64::from_le_bytes(header[14..22].try_into().unwrap());
        if page_size < 64 {
            return Err(corrupt("page file: implausible page size"));
        }
        let stride = (RECORD_PREFIX_LEN + page_size) as u64;
        let len = file.metadata()?.len();
        if len < FILE_HEADER_LEN as u64 + n_pages * stride {
            return Err(corrupt("page file: truncated record area"));
        }
        // One O(n_pages) sweep over record prefixes rebuilds the index.
        let mut index = HashMap::with_capacity(n_pages as usize);
        let mut prefix = [0u8; RECORD_PREFIX_LEN];
        for rec in 0..n_pages {
            read_exact_at(&file, &mut prefix, FILE_HEADER_LEN as u64 + rec * stride)?;
            let id = u64::from_le_bytes(prefix[..8].try_into().unwrap());
            index.insert(id, rec);
        }
        Ok(FilePageStore {
            file,
            page_size,
            index,
            queue: VecDeque::new(),
            queued: HashMap::new(),
            writeback_cap: Self::DEFAULT_WRITEBACK_CAP,
            header_dirty: false,
            record: RefCell::new(vec![0u8; RECORD_PREFIX_LEN + page_size]),
        })
    }

    /// Caps the FIFO write-back queue at `cap` pages (0 = write through).
    pub fn with_writeback_cap(mut self, cap: usize) -> Self {
        self.writeback_cap = cap;
        self
    }

    /// The page size this file was created with.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Pages currently sitting in the write-back queue.
    pub fn queued_writes(&self) -> usize {
        self.queue.len()
    }

    fn write_header(&mut self) -> io::Result<()> {
        let mut header = [0u8; FILE_HEADER_LEN];
        header[..6].copy_from_slice(PAGE_FILE_MAGIC);
        header[6..14].copy_from_slice(&(self.page_size as u64).to_le_bytes());
        header[14..22].copy_from_slice(&(self.index.len() as u64).to_le_bytes());
        let crc = crc32(&header[..FILE_HEADER_LEN - 4]);
        header[FILE_HEADER_LEN - 4..].copy_from_slice(&crc.to_le_bytes());
        write_all_at(&self.file, &header, 0)?;
        self.header_dirty = false;
        Ok(())
    }

    /// Writes one page record at its indexed slot (allocating a new slot
    /// for first-time ids).
    fn write_record(&mut self, id: u64, bytes: &[u8]) -> io::Result<()> {
        let rec = match self.index.get(&id) {
            Some(&rec) => rec,
            None => {
                let rec = self.index.len() as u64;
                self.index.insert(id, rec);
                self.header_dirty = true;
                rec
            }
        };
        let off = self.record_offset(rec);
        let buf = self.record.get_mut();
        buf[..8].copy_from_slice(&id.to_le_bytes());
        let (payload, padding) = buf[RECORD_PREFIX_LEN..].split_at_mut(bytes.len());
        payload.copy_from_slice(bytes);
        padding.fill(0);
        // CRC covers the whole zero-padded page, matching what `read`
        // verifies (it cannot know the unpadded length).
        let crc = crc32(&buf[RECORD_PREFIX_LEN..]);
        buf[8..12].copy_from_slice(&crc.to_le_bytes());
        write_all_at(&self.file, buf, off)
    }

    /// Byte offset of record slot `rec`.
    fn record_offset(&self, rec: u64) -> u64 {
        FILE_HEADER_LEN as u64 + rec * (RECORD_PREFIX_LEN + self.page_size) as u64
    }

    /// Drains the oldest queued page to disk.
    fn drain_one(&mut self) -> io::Result<()> {
        if let Some(id) = self.queue.pop_front() {
            if let Some(bytes) = self.queued.remove(&id) {
                self.write_record(id, &bytes)?;
            }
        }
        Ok(())
    }
}

impl PageStore for FilePageStore {
    fn read(&self, id: PageId, sink: &mut dyn FnMut(&[u8])) -> io::Result<bool> {
        if let Some(bytes) = self.queued.get(&id.0) {
            sink(bytes);
            return Ok(true);
        }
        let Some(&rec) = self.index.get(&id.0) else {
            return Ok(false);
        };
        let mut buf = self.record.borrow_mut();
        read_exact_at(&self.file, &mut buf, self.record_offset(rec))?;
        let stored_id = u64::from_le_bytes(buf[..8].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        let payload = &buf[RECORD_PREFIX_LEN..];
        if stored_id != id.0 {
            return Err(corrupt("page file: record id mismatch (misdirected read)"));
        }
        if crc32(payload) != stored_crc {
            return Err(corrupt("page file: page checksum mismatch (torn page)"));
        }
        sink(payload);
        Ok(true)
    }

    fn write(&mut self, id: PageId, bytes: &[u8]) -> io::Result<()> {
        assert!(
            bytes.len() <= self.page_size,
            "page payload {} exceeds page size {}",
            bytes.len(),
            self.page_size
        );
        if self.queued.insert(id.0, bytes.to_vec()).is_none() {
            self.queue.push_back(id.0);
        }
        while self.queue.len() > self.writeback_cap {
            self.drain_one()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        while !self.queue.is_empty() {
            self.drain_one()?;
        }
        if self.header_dirty {
            self.write_header()?;
        }
        self.file.sync_data()
    }

    fn page_count(&self) -> usize {
        let mut n = self.index.len();
        for id in self.queued.keys() {
            if !self.index.contains_key(id) {
                n += 1;
            }
        }
        n
    }
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(unix)]
fn read_exact_at(file: &std::fs::File, buf: &mut [u8], off: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, off)
}

#[cfg(unix)]
fn write_all_at(file: &std::fs::File, buf: &[u8], off: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, off)
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

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "quit-pool-{tag}-{}-{:?}.qpf",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn file_store_roundtrip_and_reopen() {
        let path = tmp_path("roundtrip");
        {
            let mut s = FilePageStore::create(&path, 128).unwrap();
            for i in 0..10u64 {
                s.write(PageId(i), &[i as u8; 64]).unwrap();
            }
            // Overwrite one page before drain: still a single record.
            s.write(PageId(3), &[0xAB; 128]).unwrap();
            s.sync().unwrap();
            assert_eq!(s.page_count(), 10);
        }
        let s = FilePageStore::open(&path).unwrap();
        assert_eq!(s.page_size(), 128);
        assert_eq!(s.page_count(), 10);
        assert_eq!(page(&s, 3).unwrap().unwrap()[..5], [0xAB; 5]);
        assert_eq!(page(&s, 7).unwrap().unwrap()[..5], [7; 5]);
        assert!(page(&s, 99).unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_store_fifo_writeback_defers_until_pressure() {
        let path = tmp_path("fifo");
        let mut s = FilePageStore::create(&path, 64)
            .unwrap()
            .with_writeback_cap(4);
        for i in 0..4u64 {
            s.write(PageId(i), &[i as u8; 8]).unwrap();
        }
        assert_eq!(s.queued_writes(), 4, "under cap: nothing drained");
        s.write(PageId(4), &[4; 8]).unwrap();
        assert_eq!(s.queued_writes(), 4, "oldest drained FIFO");
        // Queued pages are still readable (read-your-writes).
        assert_eq!(page(&s, 4).unwrap().unwrap()[0], 4);
        assert_eq!(page(&s, 0).unwrap().unwrap()[0], 0);
        s.sync().unwrap();
        assert_eq!(s.queued_writes(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_store_detects_torn_page_and_bad_header() {
        let path = tmp_path("torn");
        {
            let mut s = FilePageStore::create(&path, 64).unwrap();
            s.write(PageId(0), &[7; 64]).unwrap();
            s.write(PageId(1), &[8; 64]).unwrap();
            s.sync().unwrap();
        }
        // Flip one payload byte of page 1's record.
        {
            use std::os::unix::fs::FileExt;
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            let stride = (RECORD_PREFIX_LEN + 64) as u64;
            let off = FILE_HEADER_LEN as u64 + stride + RECORD_PREFIX_LEN as u64 + 10;
            f.write_all_at(&[0xFF], off).unwrap();
        }
        let s = FilePageStore::open(&path).unwrap();
        assert_eq!(page(&s, 0).unwrap().unwrap()[0], 7, "intact page reads");
        let err = page(&s, 1).unwrap_err();
        assert!(err.to_string().contains("torn page"), "got: {err}");
        // Now corrupt the header checksum: open must refuse outright.
        {
            use std::os::unix::fs::FileExt;
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.write_all_at(&[0xFF, 0xFF], 7).unwrap();
        }
        assert!(FilePageStore::open(&path).is_err());
        std::fs::remove_file(&path).ok();
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
        broken: std::rc::Rc<Cell<bool>>,
    }

    impl PageStore for FlakyStore {
        fn read(&self, id: PageId, sink: &mut dyn FnMut(&[u8])) -> io::Result<bool> {
            self.inner.read(id, sink)
        }
        fn write(&mut self, id: PageId, bytes: &[u8]) -> io::Result<()> {
            if self.broken.get() {
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
        let broken = std::rc::Rc::new(Cell::new(false));
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
        broken.set(true);
        for _ in 0..3 {
            assert!(pool.write(PageId(2)).is_err(), "eviction needs the store");
        }
        // Neither dirty page was dropped with its only copy.
        assert_eq!(pool.resident(), 2);
        assert_eq!(pool.counters().evictions.get(), 0);
        broken.set(false);
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
