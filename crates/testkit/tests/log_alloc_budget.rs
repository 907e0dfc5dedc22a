//! Allocation budgets for the write-ahead log and for scans: a counting
//! global allocator (its counts kept per thread, so the tests running
//! beside one another never count each other) and a storage that discards
//! what it is handed, so what is counted is the log's own work.
//!
//! * Inserts appended one at a time into the WAL buffer's open run, their
//!   seals and the flushes that write them allocate nothing once the
//!   buffer and the segment are warm.
//! * A `GroupCommit` commit that no other writer waits on allocates
//!   nothing.
//! * A warm `Buffered` insert loop into a `Durable<BpTree>` allocates only
//!   for the nodes its splits create.
//! * A `BpTree` range scan consumed to its end bound, and a full `iter()`,
//!   allocate nothing: a scan borrows each leaf's entries in place.
//! * Recovery reads the log where it lies: reopening the same entries
//!   logged in 70-entry frames and in 1 000-entry frames allocates as
//!   often, give or take one allocation per segment read.
//! * A checkpoint streams the index into the snapshot: one of 100 000
//!   entries allocates as often as one of 10 000.

use quit_core::{BpTree, FastPathMode, SortedIndex, StatsSnapshot, TreeConfig};
use quit_durability::{bptree_builder, DurabilityConfig, Durable, MemStorage, Recovered, Storage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::ops::RangeBounds;
use std::sync::Arc;

/// The system allocator, counting the allocations and reallocations the
/// calling thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns, so `Counting` keeps `System`'s
// guarantees; the count touches only a thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller meets `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller meets `realloc`'s contract; `ptr` came from
        // this allocator, so from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller meets `dealloc`'s contract; `ptr` came from
        // this allocator, so from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and the allocations the calling thread made in it.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A device that takes every append and sync and keeps nothing: an empty
/// directory to open, and no I/O cost or allocation of its own.
struct Discard;

impl Storage for Discard {
    fn append(&self, _file: &str, _bytes: &[u8]) -> io::Result<()> {
        Ok(())
    }

    fn sync(&self, _file: &str) -> io::Result<()> {
        Ok(())
    }

    fn read(&self, file: &str) -> io::Result<Vec<u8>> {
        Err(io::Error::new(io::ErrorKind::NotFound, file.to_string()))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(Vec::new())
    }

    fn remove(&self, _file: &str) -> io::Result<()> {
        Ok(())
    }

    fn rename(&self, _from: &str, _to: &str) -> io::Result<()> {
        Ok(())
    }
}

/// An index that keeps nothing, so a `Durable` around it does only the
/// log's work.
struct Nothing;

impl SortedIndex<u64, u64> for Nothing {
    fn insert(&mut self, _key: u64, _value: u64) {}

    fn get(&mut self, _key: u64) -> Option<u64> {
        None
    }

    fn delete(&mut self, _key: u64) -> Option<u64> {
        None
    }

    fn range<R: RangeBounds<u64>>(&mut self, _bounds: R) -> impl Iterator<Item = (u64, u64)> + '_ {
        std::iter::empty()
    }

    fn len(&self) -> usize {
        0
    }

    fn metrics(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }

    fn reset_metrics(&self) {}
}

fn open<T: SortedIndex<u64, u64>>(
    config: DurabilityConfig,
    build: impl FnOnce(Recovered<'_, u64, u64>) -> T,
) -> Durable<T> {
    Durable::open(Arc::new(Discard) as Arc<dyn Storage>, config, build)
        .expect("open an empty directory")
        .0
}

#[test]
fn appends_into_the_open_run_and_their_flushes_allocate_nothing() {
    // A 64 KiB buffer flushes about every 4 000 entries, each flush
    // sealing the open run first.
    let mut d = open(DurabilityConfig::buffered(), |_| Nothing);
    let insert_all = |d: &mut Durable<Nothing>, keys: std::ops::Range<u64>| {
        for k in keys {
            d.insert(k, k);
        }
        d.flush().unwrap();
    };
    // Warm-up: the segment opens and the buffer reaches its full size.
    insert_all(&mut d, 0..10_000);
    let ((), n) = allocations(|| insert_all(&mut d, 10_000..20_000));
    assert_eq!(n, 0, "10 000 appends into open runs allocated {n} times");
    assert_eq!(d.wal().last_lsn(), 20_000);
}

#[test]
fn a_commit_nobody_waits_on_allocates_nothing() {
    let mut d = open(DurabilityConfig::group_commit(), |_| Nothing);
    // Each insert is one append and one commit that leads its own group.
    for k in 0..100 {
        d.insert(k, k);
    }
    let ((), n) = allocations(|| {
        for k in 100..1_100 {
            d.insert(k, k);
        }
    });
    assert_eq!(n, 0, "1 000 commits allocated {n} times");
    assert_eq!(d.wal().durable_lsn(), 1_100);
}

/// Leaf and internal capacity of the tree below.
const CAPACITY: usize = 16;

/// A warm `Durable<BpTree>` under `config`: 10 000 near-sorted inserts in,
/// and the tree's counters reset. Returns it with the allocations the
/// next 20 000, above nearly every key so far, then made.
fn warm_insert_loop(config: DurabilityConfig) -> (Durable<BpTree<u64, u64>>, u64) {
    let mut d = open(
        config,
        bptree_builder(FastPathMode::Pole, TreeConfig::small(CAPACITY)),
    );
    let insert_all = |d: &mut Durable<BpTree<u64, u64>>, keys: std::ops::Range<u64>| {
        for k in keys {
            d.insert(k + k * 3 % 7, k);
        }
        d.flush().unwrap();
    };
    insert_all(&mut d, 0..10_000);
    d.inner().reset_metrics();
    let ((), n) = allocations(|| insert_all(&mut d, 10_000..30_000));
    (d, n)
}

#[test]
fn a_warm_buffered_insert_loop_allocates_only_for_its_splits() {
    let (d, logged) = warm_insert_loop(DurabilityConfig::buffered());
    let m = d.inner().metrics();
    let nodes = d.inner().memory_report();
    let nodes = (nodes.leaf_nodes + nodes.internal_nodes) as u64;
    // A node a split creates gets its two vectors from `split_off`, sized
    // to what it takes, and each grows by doubling to at most capacity + 1
    // entries: 2 · (1 + ⌈log2(capacity + 1)⌉) allocations over its life.
    // The warm right spine (one node per level, and a new root) can grow
    // the same way, and the node slab doubles at most ⌈log2(nodes)⌉ times.
    let per_node = 2 * (1 + (CAPACITY as u64 + 1).next_power_of_two().ilog2() as u64);
    let spine = d.inner().height() as u64 + 1;
    let bound = per_node * (m.leaf_splits + m.internal_splits + spine) + nodes.ilog2() as u64 + 1;
    assert!(m.leaf_splits > 1_000, "{m:?}");
    assert!(
        logged <= bound,
        "{logged} allocations, above the {bound} that {} leaf and {} internal splits explain",
        m.leaf_splits,
        m.internal_splits
    );
    // Exactly: the same loop with logging off allocates as often.
    let (_, unlogged) = warm_insert_loop(DurabilityConfig::off());
    assert_eq!(logged, unlogged, "the log allocated in the insert loop");
}

#[test]
fn a_range_scan_and_a_full_iteration_allocate_nothing() {
    let mut t: BpTree<u64, u64> = BpTree::new(FastPathMode::Pole);
    for i in 0..100_000u64 {
        let k = i * 7_919 % 100_000;
        t.insert(k, k * 2);
    }
    // Warm-up: the first scan of each kind, uncounted.
    assert_eq!(t.range(40_000..41_000).count(), 1_000);
    assert_eq!(t.iter().count(), 100_000);
    let (scanned, n) = allocations(|| {
        t.range(40_000..41_000)
            .filter(|&(k, &v)| v == k * 2)
            .count()
    });
    assert_eq!(scanned, 1_000);
    assert_eq!(n, 0, "a 1 000-key range scan allocated {n} times");
    let (walked, n) = allocations(|| t.iter().count());
    assert_eq!(walked, 100_000);
    assert_eq!(n, 0, "a full iteration allocated {n} times");
}

/// A store holding `entries` logged `per_frame` at a time: at
/// `GroupCommit` each batch is acknowledged on its own, so each is one run
/// frame.
fn logged_in_frames(entries: &[(u64, u64)], per_frame: usize) -> Arc<MemStorage> {
    let storage = Arc::new(MemStorage::new());
    let config = DurabilityConfig::group_commit();
    let (mut d, _) = Durable::open(storage.clone() as Arc<dyn Storage>, config, |_| Nothing)
        .expect("open an empty directory");
    for batch in entries.chunks(per_frame) {
        d.insert_batch(batch);
    }
    storage
}

/// The allocations a reopen of `storage` made, and the log segments it
/// read.
fn reopen(storage: &Arc<MemStorage>) -> (u64, usize) {
    let build = bptree_builder::<u64, u64>(FastPathMode::Pole, TreeConfig::small(CAPACITY));
    let config = DurabilityConfig::group_commit();
    let storage = storage.clone() as Arc<dyn Storage>;
    let ((d, report), n) = allocations(|| Durable::open(storage.clone(), config, build).unwrap());
    assert_eq!((report.tail_records, d.inner().len()), (126_000, 126_000));
    let segments = storage.list().unwrap();
    (n, segments.iter().filter(|f| f.starts_with("wal-")).count())
}

#[test]
fn an_open_allocates_nothing_per_frame() {
    // The K = L = 5 % stream a service shard logs, 126 000 entries.
    let keys = bods::BodsSpec::new(126_000, 0.05, 0.05)
        .with_seed(9)
        .generate();
    let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
    let (small, small_segments) = reopen(&logged_in_frames(&entries, 70));
    let (large, large_segments) = reopen(&logged_in_frames(&entries, 1_000));
    let segments = small_segments.max(large_segments) as u64;
    assert!(
        small.abs_diff(large) <= segments,
        "1 800 frames opened with {small} allocations, 126 with {large} \
         ({segments} segments read)"
    );
}

/// The allocations a second checkpoint of a warm `Durable<BpTree>` of
/// `keys` entries made.
fn checkpoint_allocations(keys: u64) -> u64 {
    let mut d = open(
        DurabilityConfig::buffered(),
        bptree_builder(FastPathMode::Pole, TreeConfig::small(CAPACITY)),
    );
    let entries: Vec<(u64, u64)> = (0..keys).map(|k| (k, k)).collect();
    d.insert_batch(&entries);
    d.checkpoint::<u64, u64>().unwrap();
    let ((), n) = allocations(|| d.checkpoint::<u64, u64>().unwrap());
    n
}

#[test]
fn a_checkpoint_allocates_as_often_at_any_size() {
    let (small, large) = (
        checkpoint_allocations(10_000),
        checkpoint_allocations(100_000),
    );
    assert_eq!(
        small, large,
        "a checkpoint of 10 000 entries allocated {small} times, of 100 000 {large}"
    );
}
