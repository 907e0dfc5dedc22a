//! Minimal lock primitives replacing `parking_lot` (+`arc_lock`), which the
//! offline build environment cannot download — now built around a seqlock
//! version word so the tree can traverse optimistically (§4.5 + OLC).
//!
//! The tree needs five things from its locks:
//! 1. borrowed read/write guards (`RwLock::read` / `RwLock::write`),
//! 2. **Arc-owning** guards that can outlive the binding that produced them
//!    (`write_arc` / `read_arc`), which lock-crabbing relies on to hand a
//!    locked child up the loop while the parent guard drops,
//! 3. a non-blocking `try_write_arc` for the fast path's single-leaf lock,
//! 4. a poison-free `Mutex` for the fast-path metadata,
//! 5. an **optimistic** protocol: read a version, read the data without any
//!    lock, then validate that no writer intervened
//!    ([`RwLock::optimistic_version`] / [`RwLock::validate`]).
//!
//! # Version word
//!
//! `version` packs the whole write-side state into one `AtomicU64`:
//!
//! ```text
//! bit 0      : write-lock bit (odd = a writer is active)
//! bits 1..64 : epoch, incremented once per completed write section
//! ```
//!
//! A writer CASes `even → even+1` (odd) to lock and `fetch_add(1)`s back to
//! even on unlock, so every write section advances the epoch by exactly one.
//! Readers are counted in a separate word; a writer that holds the lock bit
//! waits for the reader count to drain before touching data. Arriving
//! readers back off while the version is odd, which also gives writers
//! priority over reader streams (the old condvar lock could starve writers).
//!
//! The lock-bit/reader-count handshake is a Dekker pattern on two locations
//! (writer: set bit, *then* read count; reader: bump count, *then* read
//! bit), so those four accesses use `SeqCst`. The optimistic validate uses
//! the classic seqlock fence recipe: data reads happen between an `Acquire`
//! load of the version and an `Acquire` fence followed by a re-load. The
//! data reads themselves are word-wise `Relaxed` atomic loads (see
//! `olc::atomic_read`), not plain or volatile loads, so the read side of
//! the race is made of genuine atomics; only the writers' plain stores
//! through `&mut` remain outside the formal model, the residual gray area
//! every production seqlock shares.
//!
//! The lock is not fair, which matches `parking_lot`'s default well enough
//! for the workloads in this repo. The `unsafe` is confined to the
//! `UnsafeCell` accesses in the guards, each justified by the version-word
//! protocol above.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// The write-lock bit of the version word (bit 0; odd version = locked).
const WRITER: u64 = 1;

/// Spin-then-yield backoff for lock acquisition loops. Brief pure spins
/// cover the common sub-microsecond critical sections; after that the
/// thread yields so single-core machines (and oversubscribed runners)
/// let the lock holder finish instead of burning its own quantum.
#[inline]
fn spin_wait(spins: &mut u32) {
    *spins = spins.saturating_add(1);
    if *spins < 16 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// A readers–writer lock with borrowed guards, Arc-owning guards, and an
/// optimistic (lock-free read) protocol on a seqlock version word.
pub struct RwLock<T> {
    /// Lock bit + epoch (see module docs).
    version: AtomicU64,
    /// Active shared holders.
    readers: AtomicU32,
    data: UnsafeCell<T>,
}

// SAFETY: the lock protocol guarantees exclusive access for writers and
// shared access for readers, exactly the contract `RwLock` exists to
// enforce; `T: Send` lets the value move with the lock, and `Sync` access
// from many threads is mediated by the guards.
unsafe impl<T: Send> Send for RwLock<T> {}
unsafe impl<T: Send + Sync> Sync for RwLock<T> {}

impl<T> RwLock<T> {
    /// Creates an unlocked lock holding `value`.
    pub fn new(value: T) -> Self {
        RwLock {
            version: AtomicU64::new(0),
            readers: AtomicU32::new(0),
            data: UnsafeCell::new(value),
        }
    }

    /// True when `v` has the write-lock bit set.
    #[inline]
    pub fn is_write_locked_version(v: u64) -> bool {
        v & WRITER != 0
    }

    /// The epoch (completed write sections) encoded in version `v`.
    #[inline]
    pub fn epoch_of(v: u64) -> u64 {
        v >> 1
    }

    /// Begins an optimistic read: returns the current version, or `None`
    /// when a writer is active (the caller should restart or back off).
    ///
    /// Pair with [`RwLock::validate`] after reading data through
    /// [`RwLock::data_ptr`].
    #[inline]
    pub fn optimistic_version(&self) -> Option<u64> {
        let v = self.version.load(Ordering::Acquire);
        (v & WRITER == 0).then_some(v)
    }

    /// Ends an optimistic read: true iff no write section started since
    /// `seen` was returned by [`RwLock::optimistic_version`], i.e. every
    /// unlocked read in between observed a consistent snapshot.
    #[inline]
    pub fn validate(&self, seen: u64) -> bool {
        // Seqlock read-side fence: the data loads issued before this call
        // must complete before the version re-load below.
        fence(Ordering::Acquire);
        self.version.load(Ordering::Relaxed) == seen
    }

    /// Raw pointer to the protected value for optimistic reads.
    ///
    /// Dereferencing is sound only under a guard, or inside an
    /// `optimistic_version`/`validate` bracket using reads that tolerate
    /// concurrent writes (and whose results are discarded when validation
    /// fails).
    #[inline]
    pub fn data_ptr(&self) -> *const T {
        self.data.get()
    }

    /// The current raw version word (diagnostics/tests; racy by nature).
    #[inline]
    pub fn version_raw(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    fn lock_shared(&self) {
        let mut spins = 0;
        loop {
            // Announce the reader first, then check for a writer (Dekker
            // handshake with `lock_exclusive`, hence SeqCst).
            self.readers.fetch_add(1, Ordering::SeqCst);
            if self.version.load(Ordering::SeqCst) & WRITER == 0 {
                return;
            }
            // A writer is active or draining readers: retreat and wait.
            self.readers.fetch_sub(1, Ordering::SeqCst);
            while self.version.load(Ordering::Relaxed) & WRITER != 0 {
                spin_wait(&mut spins);
            }
        }
    }

    fn lock_exclusive(&self) {
        let mut spins = 0;
        loop {
            let v = self.version.load(Ordering::Relaxed);
            if v & WRITER == 0
                && self
                    .version
                    .compare_exchange_weak(v, v + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
            {
                // Lock bit is ours; wait for in-flight readers to drain.
                let mut drain_spins = 0;
                while self.readers.load(Ordering::SeqCst) != 0 {
                    spin_wait(&mut drain_spins);
                }
                return;
            }
            spin_wait(&mut spins);
        }
    }

    fn try_lock_exclusive(&self) -> bool {
        let v = self.version.load(Ordering::SeqCst);
        if v & WRITER != 0 {
            return false;
        }
        if self
            .version
            .compare_exchange(v, v + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        if self.readers.load(Ordering::SeqCst) != 0 {
            // Contended by readers: restore the pre-lock version instead of
            // bumping the epoch (no data was written, so optimistic readers
            // must not be disturbed). Only the lock-bit holder may change
            // the version, so this exchange cannot fail.
            self.version
                .compare_exchange(v + 1, v, Ordering::SeqCst, Ordering::Relaxed)
                .expect("lock-bit holder owns the version word");
            return false;
        }
        true
    }

    fn unlock_shared(&self) {
        self.readers.fetch_sub(1, Ordering::Release);
    }

    fn unlock_exclusive(&self) {
        // odd → even: releases the lock bit and advances the epoch, which
        // invalidates every optimistic read that overlapped this section.
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Acquires shared access for the guard's lifetime.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.lock_shared();
        RwLockReadGuard { lock: self }
    }

    /// Acquires exclusive access for the guard's lifetime.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.lock_exclusive();
        RwLockWriteGuard { lock: self }
    }

    /// Acquires shared access through an `Arc`, so the guard keeps the node
    /// alive and is not tied to the borrow of `this`.
    pub fn read_arc(this: &Arc<Self>) -> ArcRwLockReadGuard<T> {
        this.lock_shared();
        ArcRwLockReadGuard { lock: this.clone() }
    }

    /// Exclusive counterpart of [`RwLock::read_arc`].
    pub fn write_arc(this: &Arc<Self>) -> ArcRwLockWriteGuard<T> {
        this.lock_exclusive();
        ArcRwLockWriteGuard { lock: this.clone() }
    }

    /// Non-blocking [`RwLock::write_arc`]; `None` when contended.
    pub fn try_write_arc(this: &Arc<Self>) -> Option<ArcRwLockWriteGuard<T>> {
        this.try_lock_exclusive()
            .then(|| ArcRwLockWriteGuard { lock: this.clone() })
    }
}

impl<T> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never touches `data`: reading it here could deadlock (e.g. Debug
        // on a write-locked node while printing the tree).
        f.write_str("RwLock { .. }")
    }
}

/// Borrowed shared guard. See [`RwLock::read`].
pub struct RwLockReadGuard<'a, T> {
    lock: &'a RwLock<T>,
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: shared access is held until drop; writers are excluded.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.unlock_shared();
    }
}

/// Borrowed exclusive guard. See [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T> {
    lock: &'a RwLock<T>,
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: exclusive access is held until drop.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: exclusive access is held until drop.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.unlock_exclusive();
    }
}

/// Arc-owning shared guard. See [`RwLock::read_arc`].
pub struct ArcRwLockReadGuard<T> {
    lock: Arc<RwLock<T>>,
}

impl<T> ArcRwLockReadGuard<T> {
    /// The lock this guard holds (an associated function, so it never
    /// shadows a method of `T`).
    pub fn rwlock(this: &Self) -> &Arc<RwLock<T>> {
        &this.lock
    }
}

impl<T> Deref for ArcRwLockReadGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: shared access is held until drop; writers are excluded.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> Drop for ArcRwLockReadGuard<T> {
    fn drop(&mut self) {
        self.lock.unlock_shared();
    }
}

/// Arc-owning exclusive guard. See [`RwLock::write_arc`].
pub struct ArcRwLockWriteGuard<T> {
    lock: Arc<RwLock<T>>,
}

impl<T> Deref for ArcRwLockWriteGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: exclusive access is held until drop.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for ArcRwLockWriteGuard<T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: exclusive access is held until drop.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for ArcRwLockWriteGuard<T> {
    fn drop(&mut self) {
        self.lock.unlock_exclusive();
    }
}

/// A poison-free mutex (lock() never returns a `Result`), mirroring the
/// parking_lot API the fast-path metadata uses.
pub struct Mutex<T>(StdMutex<T>);

impl<T> Mutex<T> {
    /// Creates an unlocked mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }

    /// Acquires the mutex, ignoring poisoning from panicked holders.
    pub fn lock(&self) -> StdMutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn exclusive_excludes_everyone() {
        let lock = Arc::new(RwLock::new(0u64));
        let g = RwLock::write_arc(&lock);
        assert!(RwLock::try_write_arc(&lock).is_none());
        drop(g);
        assert!(RwLock::try_write_arc(&lock).is_some());
    }

    #[test]
    fn readers_share_and_block_writers() {
        let lock = Arc::new(RwLock::new(5u64));
        let r1 = RwLock::read_arc(&lock);
        let r2 = lock.read();
        assert_eq!(*r1 + *r2, 10);
        assert!(RwLock::try_write_arc(&lock).is_none());
        drop(r1);
        drop(r2);
        *RwLock::write_arc(&lock) = 6;
        assert_eq!(*lock.read(), 6);
    }

    #[test]
    fn arc_guard_outlives_handle() {
        let lock = Arc::new(RwLock::new(vec![1, 2, 3]));
        let guard = RwLock::write_arc(&lock);
        drop(lock);
        assert_eq!(guard.len(), 3);
    }

    #[test]
    fn contended_counter_stays_consistent() {
        let lock = Arc::new(RwLock::new(0u64));
        let reads = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let lock = Arc::clone(&lock);
                s.spawn(move || {
                    for _ in 0..1000 {
                        *lock.write() += 1;
                    }
                });
            }
            for _ in 0..4 {
                let lock = Arc::clone(&lock);
                let reads = Arc::clone(&reads);
                s.spawn(move || {
                    for _ in 0..1000 {
                        let v = *lock.read();
                        assert!(v <= 4000);
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(*lock.read(), 4000);
        assert_eq!(reads.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn mutex_ignores_poison() {
        let m = Arc::new(Mutex::new(1u64));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the std mutex");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }

    // ------------------------------------------------------------------
    // Version word / optimistic protocol
    // ------------------------------------------------------------------

    #[test]
    fn version_word_bit_layout_roundtrip() {
        let lock = RwLock::new(0u64);
        // Fresh lock: even version, epoch 0.
        let v0 = lock.version_raw();
        assert!(!RwLock::<u64>::is_write_locked_version(v0));
        assert_eq!(RwLock::<u64>::epoch_of(v0), 0);
        for n in 1..=5u64 {
            {
                let _g = lock.write();
                // Held: lock bit set, epoch still the pre-lock epoch.
                let held = lock.version_raw();
                assert!(RwLock::<u64>::is_write_locked_version(held));
                assert_eq!(RwLock::<u64>::epoch_of(held), n - 1);
            }
            // Released: lock bit clear, epoch advanced by exactly one —
            // i.e. version == 2 * completed-write-sections.
            let v = lock.version_raw();
            assert!(!RwLock::<u64>::is_write_locked_version(v));
            assert_eq!(RwLock::<u64>::epoch_of(v), n);
            assert_eq!(v, 2 * n);
        }
    }

    #[test]
    fn optimistic_version_refused_while_write_locked() {
        let lock = RwLock::new(7u64);
        assert!(lock.optimistic_version().is_some());
        let g = lock.write();
        assert!(lock.optimistic_version().is_none());
        drop(g);
        assert!(lock.optimistic_version().is_some());
    }

    #[test]
    fn validate_fails_after_writer_unlock() {
        let lock = RwLock::new(1u64);
        let seen = lock.optimistic_version().unwrap();
        assert!(lock.validate(seen), "no writer: still valid");
        *lock.write() = 2;
        assert!(
            !lock.validate(seen),
            "a completed write section must invalidate prior optimistic reads"
        );
        // A fresh bracket sees the new epoch and validates again.
        let seen2 = lock.optimistic_version().unwrap();
        assert!(seen2 > seen);
        assert!(lock.validate(seen2));
    }

    #[test]
    fn failed_try_lock_does_not_disturb_optimistic_readers() {
        let lock = Arc::new(RwLock::new(3u64));
        let seen = lock.optimistic_version().unwrap();
        // A try-lock that aborts on reader contention must roll the version
        // back: no data was written, so the bracket stays valid.
        let r = lock.read();
        assert!(RwLock::try_write_arc(&lock).is_none());
        drop(r);
        assert!(lock.validate(seen));
    }

    #[test]
    fn optimistic_read_bracket_under_contention() {
        // Seqlock smoke test: a writer flips two words in lockstep; readers
        // must never observe a torn pair through a validated bracket.
        let lock = Arc::new(RwLock::new((0u64, 0u64)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            let wl = Arc::clone(&lock);
            let wstop = Arc::clone(&stop);
            s.spawn(move || {
                for i in 1..=20_000u64 {
                    let mut g = wl.write();
                    g.0 = i;
                    g.1 = i * 2;
                    drop(g);
                }
                wstop.store(true, Ordering::Relaxed);
            });
            for _ in 0..2 {
                let rl = Arc::clone(&lock);
                let rstop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut validated = 0u64;
                    loop {
                        if let Some(v) = rl.optimistic_version() {
                            // SAFETY (test): plain reads of two u64s between
                            // version and validate; values are discarded when
                            // validation fails.
                            let pair = unsafe { std::ptr::read_volatile(rl.data_ptr()) };
                            if rl.validate(v) {
                                assert_eq!(pair.1, pair.0 * 2, "torn read validated");
                                validated += 1;
                            }
                        }
                        // Keep reading until at least one bracket validated;
                        // once the writer stopped every bracket succeeds, so
                        // this terminates even if the writer finished before
                        // we were first scheduled (single-core runners).
                        if validated > 0 && rstop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                });
            }
        });
        assert_eq!(*lock.read(), (20_000, 40_000));
    }
}
