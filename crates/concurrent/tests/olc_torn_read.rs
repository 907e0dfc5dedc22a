//! Deterministic torn-read regression for optimistic lock coupling.
//!
//! Requires `--features olc-test-hooks`: the tree exposes a pause point
//! in the optimistic point-lookup descent, after the leaf's version has
//! been read but before its contents are. A reader is pinned exactly
//! there while a writer splits the very leaf it is about to read — the
//! worst-case torn window. The reader must detect the version change,
//! restart, and still return the correct value; if validation were
//! broken it would instead return a value read from a half-moved leaf.
#![cfg(feature = "olc-test-hooks")]

use quit_concurrent::{test_hooks, ConcConfig, ConcurrentTree};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};

/// The hook registry is process-global, so tests that install hooks must
/// not overlap (cargo runs `#[test]`s in parallel by default).
fn hook_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Pins one optimistic lookup of `read_key` at the leaf pause point, runs
/// `write` underneath it, releases it, and returns the lookup's result.
fn read_during<V: Clone + Send + Sync>(
    tree: &ConcurrentTree<u64, V>,
    read_key: u64,
    write: impl FnOnce(),
) -> Option<V> {
    pinned_during(|| tree.get(read_key), write)
}

/// Pins `op` at its first optimistic leaf arrival, runs `write`
/// underneath it, releases it, and returns `op`'s result.
fn pinned_during<R: Send>(op: impl FnOnce() -> R + Send, write: impl FnOnce()) -> R {
    let paused = Arc::new(Barrier::new(2));
    let resume = Arc::new(Barrier::new(2));
    // The hook fires on every optimistic leaf arrival — including the
    // reader's own post-restart retry — so a latch makes it one-shot.
    let fired = Arc::new(AtomicBool::new(false));
    {
        let (paused, resume, fired) = (paused.clone(), resume.clone(), fired.clone());
        test_hooks::set_leaf_pause(move || {
            if !fired.swap(true, Ordering::SeqCst) {
                paused.wait();
                resume.wait();
            }
        });
    }

    let result = std::thread::scope(|s| {
        let reader = s.spawn(op);
        // Reader is now pinned between leaf-version read and leaf read.
        paused.wait();
        write();
        resume.wait();
        reader.join().unwrap()
    });
    test_hooks::clear_leaf_pause();
    result
}

/// [`read_during`] with a writer that splits the leaf being read.
fn read_during_split(
    tree: &ConcurrentTree<u64, u64>,
    read_key: u64,
    split_inserts: &[u64],
) -> Option<u64> {
    read_during(tree, read_key, || {
        for &k in split_inserts {
            tree.insert(k, k * 10);
        }
    })
}

#[test]
fn pinned_reader_sees_an_in_place_overwrite_whole() {
    // The MVCC slot shape: `(commit_ts, value)`, three words a latch-free
    // reader copies one at a time. An `upsert` rewrites them in place (no
    // slot moves, no length changes) while the reader is pinned on the
    // leaf: it must notice the write section and restart — or return the
    // old or the new slot whole — never the timestamp of one with the
    // value of the other.
    let _serial = hook_lock();
    type Slot = (u64, Option<u64>);
    for layout in [
        quit_core::NodeLayoutKind::Dense,
        quit_core::NodeLayoutKind::Gapped,
    ] {
        let config = quit_core::TreeConfig::small(8).with_node_layout(layout);
        let tree: ConcurrentTree<u64, Slot> = ConcurrentTree::new(ConcConfig::from_tree(config));
        // Scrambled, so gapped leaves keep fillers the reader can land on.
        for k in (0..64u64).map(|i| (i * 37) % 64) {
            tree.insert(k, (1, Some(k)));
        }
        for (round, key) in [5u64, 40, 63].into_iter().enumerate() {
            let (old, new) = ((1, Some(key)), (2 + round as u64, Some(key + 1_000)));
            let restarts = tree.stats().olc_restarts.get();
            let seen = read_during(&tree, key, || {
                assert!(tree.upsert(key, new, |slot, new| *slot = new));
            });
            // Old or new whole would both be sound; this interleaving is
            // deterministic, though: the whole write section sits inside
            // the reader's bracket, so it must restart and see the new slot.
            assert_eq!(seen, Some(new), "{layout:?}: torn or stale, old {old:?}");
            assert!(tree.stats().olc_restarts.get() > restarts);
        }
        assert_eq!(tree.len(), 64, "in-place updates insert nothing");
        assert!(tree.check_consistency().is_ok());
    }
}

#[test]
fn pinned_reader_survives_leaf_split() {
    let _serial = hook_lock();
    let tree: ConcurrentTree<u64, u64> = ConcurrentTree::new(ConcConfig::small(4));
    for k in [0u64, 2, 4] {
        tree.insert(k, k * 10);
    }
    let restarts_before = tree.stats().olc_restarts.get();

    // Phase 1: the read key stays in the LEFT half after the split, so a
    // torn read would see the leaf mid-drain.
    assert_eq!(read_during_split(&tree, 2, &[1, 3, 5]), Some(20));

    // Phase 2: the read key has moved to the RIGHT half — the pinned
    // reader holds a pre-split leaf reference whose key range no longer
    // covers the key, and must restart into the new sibling.
    let probe = 5;
    assert_eq!(read_during_split(&tree, probe, &[6, 7, 8, 9]), Some(50));

    // Both phases forced at least one validate-fail-and-restart; a
    // validation bug would have returned torn data with zero restarts.
    assert!(
        tree.stats().olc_restarts.get() > restarts_before,
        "pinned reads never restarted: validation is not detecting the split"
    );
    assert!(tree.check_consistency().is_ok());
}

#[test]
fn pinned_insert_re_descends_when_its_leaf_splits_before_the_latch() {
    // An optimistic insert is pinned between reaching its leaf and
    // latching it, while a writer splits that leaf and moves the key's
    // range to the new right sibling. Once latched, the leaf's own bounds
    // no longer cover the key: the insert must re-descend, never place the
    // key in the left half.
    let _serial = hook_lock();
    let tree: ConcurrentTree<u64, u64> = ConcurrentTree::new(ConcConfig::small(4).with_pole(false));
    for k in [0u64, 2, 4] {
        tree.insert(k, k);
    }
    let restarts = tree.stats().olc_restarts.get();
    pinned_during(
        || tree.insert(9, 90),
        || {
            for k in [5u64, 6, 7] {
                tree.insert(k, k);
            }
        },
    );
    tree.check_consistency().unwrap();
    assert_eq!(tree.get(9), Some(90));
    assert_eq!(tree.len(), 7);
    assert!(
        tree.stats().olc_restarts.get() > restarts,
        "never re-descended"
    );
}

#[test]
fn unpaused_lookups_are_unaffected_by_an_installed_then_cleared_hook() {
    let _serial = hook_lock();
    let tree: ConcurrentTree<u64, u64> = ConcurrentTree::new(ConcConfig::small(4));
    test_hooks::set_leaf_pause(|| {});
    for k in 0..64u64 {
        tree.insert(k, k + 1);
    }
    assert_eq!(tree.get(17), Some(18));
    test_hooks::clear_leaf_pause();
    assert_eq!(tree.get(63), Some(64));
    assert_eq!(tree.len(), 64);
}

/// A one-leaf tree of capacity `cap` holding `(k, k * 10)` for every key
/// in `keys` — more than 16 of them, so its point lookups take the
/// key-guided search rather than the short-leaf ladder.
fn guided_leaf(cap: usize, keys: impl IntoIterator<Item = u64>) -> ConcurrentTree<u64, u64> {
    let tree = ConcurrentTree::new(ConcConfig::small(cap));
    for k in keys {
        tree.insert(k, k * 10);
    }
    assert!(tree.len() > 16);
    tree
}

/// Pins a guided lookup of `read_key` at the leaf pause point while
/// `write` changes the leaf under it: the reader must notice and restart,
/// then return `want`.
fn guided_read_during(
    tree: &ConcurrentTree<u64, u64>,
    read_key: u64,
    want: Option<u64>,
    write: impl FnOnce(),
) {
    let restarts = tree.stats().olc_restarts.get();
    assert_eq!(read_during(tree, read_key, write), want, "key {read_key}");
    assert!(
        tree.stats().olc_restarts.get() > restarts,
        "key {read_key}: the pinned guided read never restarted"
    );
    tree.check_consistency().unwrap();
}

#[test]
fn pinned_guided_read_survives_a_front_insert() {
    // An insert at the leaf's front shifts every key one slot right: a
    // read of the old slots through the old guess would land one short.
    let _serial = hook_lock();
    let tree = guided_leaf(64, (10..90).step_by(2));
    guided_read_during(&tree, 50, Some(500), || tree.insert(1, 10));
    guided_read_during(&tree, 51, None, || tree.insert(3, 30));
    assert_eq!(tree.get(1), Some(10));
}

#[test]
fn pinned_guided_read_survives_a_far_outlier() {
    // Appending a far outlier stretches the leaf's `to_ikr` span, so the
    // guess for every other key collapses onto the leaf's front.
    let _serial = hook_lock();
    let tree = guided_leaf(64, (10..90).step_by(2));
    let far = u64::MAX / 2;
    guided_read_during(&tree, 70, Some(700), || tree.insert(far, 1));
    guided_read_during(&tree, 88, Some(880), || tree.insert(far + 1, 2));
    assert_eq!(tree.get(far), Some(1));
    assert_eq!(tree.get(88), Some(880));
}

#[test]
fn pinned_guided_read_survives_a_split() {
    // A full leaf splits under the reader: the keys it guessed among move
    // to a new right sibling.
    let _serial = hook_lock();
    let tree = guided_leaf(32, (0..64).step_by(2));
    let splits = tree.stats().leaf_splits.get();
    guided_read_during(&tree, 50, Some(500), || tree.insert(1, 10));
    assert!(
        tree.stats().leaf_splits.get() > splits,
        "the write split no leaf"
    );
    assert_eq!(tree.get(1), Some(10));
}
