//! Planted bugs for the mutation smokes: one switch, armed per thread.
//!
//! Each [`Mutation`] names one deliberate defect that a product code path
//! takes only when [`armed`] says so. `quit-testkit`'s mutation smokes arm
//! one bug on their own test thread and assert the matching oracle catches
//! it, shrinks the trigger and persists the seed — proof that the oracles
//! behind the paper's numbers can fail.
//!
//! Without the crate's `mutation` feature, [`armed`] is a constant `false`
//! and every planted branch folds away: release builds, the paper binaries
//! and the benchmark carry none of this module. With the feature (turned on
//! only by dev-dependencies, so only test builds see it), [`armed`] reads a
//! thread-local slot that `arm` sets and its guard clears. A clean suite
//! running in the same process, on another thread, never sees the bug.

#[cfg(any(test, feature = "mutation"))]
pub use switch::{arm, Armed};

/// One planted bug. Adding a mutation costs a variant, one [`armed`] call
/// at the site and one smoke that arms it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// After a Fig 7a variable split, poℓe keeps its stale pre-split lower
    /// bound, so a later key in `[old_min, sep)` fast-inserts into the
    /// right node below its separator.
    SplitBound,
    /// The branchless partition point drops its final single-element step
    /// and lands one slot short.
    SearchLadder,
    /// The paged backend's hot-node memo drops its standing pin one
    /// operation boundary early, and eviction skips the victim's dirty
    /// write-back.
    PinRelease,
    /// WAL Delete frames are checksummed over one byte too few, so
    /// recovery reads every delete as a torn tail.
    DeleteFrameCrc,
    /// A transaction commit skips its first-committer-wins validation.
    SkipConflictCheck,
    /// Recovery's tail fold merges a key's out-of-order residue ops before
    /// its in-order ones, whatever their log order, so duplicates come back
    /// reordered and a delete can run before the insert it removes.
    FoldTieOrder,
    /// An append that joins the WAL buffer's open run leaves the run's
    /// count as it was before, so the sealed frame's CRC verifies but its
    /// body holds more entries than it counts.
    StaleRunCount,
}

/// Whether `m` is armed on the calling thread. Always `false` unless the
/// crate is built with its `mutation` feature.
#[inline]
pub fn armed(m: Mutation) -> bool {
    #[cfg(any(test, feature = "mutation"))]
    return switch::armed(m);
    #[cfg(not(any(test, feature = "mutation")))]
    {
        let _ = m;
        false
    }
}

#[cfg(any(test, feature = "mutation"))]
mod switch {
    use super::Mutation;
    use std::cell::Cell;
    use std::marker::PhantomData;

    thread_local! {
        static ARMED: Cell<Option<Mutation>> = const { Cell::new(None) };
    }

    #[inline]
    pub(super) fn armed(m: Mutation) -> bool {
        ARMED.with(|slot| slot.get() == Some(m))
    }

    /// Arms `m` on the calling thread until the returned guard drops —
    /// also when a panic unwinds past it.
    ///
    /// # Panics
    ///
    /// If a mutation is already armed on this thread: one bug at a time
    /// keeps each smoke's failure attributable to its own bug.
    pub fn arm(m: Mutation) -> Armed {
        ARMED.with(|slot| {
            if let Some(current) = slot.get() {
                panic!("cannot arm {m:?}: {current:?} is already armed on this thread");
            }
            slot.set(Some(m));
        });
        Armed {
            _thread_bound: PhantomData,
        }
    }

    /// Guard returned by [`arm`]: disarms on drop. Not `Send`, because the
    /// switch it holds belongs to the thread that armed it.
    #[must_use = "the mutation disarms as soon as the guard drops"]
    pub struct Armed {
        _thread_bound: PhantomData<*const ()>,
    }

    impl Drop for Armed {
        fn drop(&mut self) {
            ARMED.with(|slot| slot.set(None));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn an_armed_mutation_stays_on_its_own_thread() {
        let _bug = arm(Mutation::SplitBound);
        assert!(armed(Mutation::SplitBound));
        assert!(!armed(Mutation::SearchLadder));
        let elsewhere = std::thread::spawn(|| armed(Mutation::SplitBound))
            .join()
            .unwrap();
        assert!(!elsewhere, "a second thread must not see the armed bug");
    }

    #[test]
    fn dropping_the_guard_disarms() {
        let bug = arm(Mutation::PinRelease);
        assert!(armed(Mutation::PinRelease));
        drop(bug);
        assert!(!armed(Mutation::PinRelease));
    }

    #[test]
    fn a_panic_inside_an_armed_closure_disarms() {
        // `replay_guarded` runs every smoke case under `catch_unwind`.
        let result = catch_unwind(|| {
            let _bug = arm(Mutation::DeleteFrameCrc);
            assert!(armed(Mutation::DeleteFrameCrc));
            panic!("planted bug reached");
        });
        assert!(result.is_err());
        assert!(!armed(Mutation::DeleteFrameCrc));
    }

    #[test]
    fn arming_a_second_mutation_panics() {
        let first = arm(Mutation::SkipConflictCheck);
        let second = catch_unwind(AssertUnwindSafe(|| arm(Mutation::SearchLadder)));
        assert!(second.is_err());
        assert!(armed(Mutation::SkipConflictCheck));
        assert!(!armed(Mutation::SearchLadder));
        drop(first);
        assert!(!armed(Mutation::SkipConflictCheck));
    }
}
