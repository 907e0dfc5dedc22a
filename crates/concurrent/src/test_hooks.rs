//! Test-only pause points for deterministic OLC interleaving tests.
//!
//! Compiled only with the `olc-test-hooks` feature (never in release
//! artifacts). A test installs a hook that blocks at a well-defined point
//! of the optimistic descent — e.g. after the leaf's version was read but
//! before its contents are — then mutates the tree from another thread and
//! releases the paused reader, forcing the exact torn-read window the OLC
//! validation must catch.

use std::sync::{Arc, Mutex, OnceLock};

type Hook = Arc<dyn Fn() + Send + Sync>;

fn slot() -> &'static Mutex<Option<Hook>> {
    static SLOT: OnceLock<Mutex<Option<Hook>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Installs `hook` to run at the leaf pause point of every optimistic
/// descent: a point lookup pauses after the leaf version is read, before
/// its contents are; an insert or range descent pauses before it latches
/// the leaf it reached. Replaces any previous hook.
pub fn set_leaf_pause(hook: impl Fn() + Send + Sync + 'static) {
    *slot().lock().unwrap() = Some(Arc::new(hook));
}

/// Removes the installed hook, if any.
pub fn clear_leaf_pause() {
    *slot().lock().unwrap() = None;
}

/// Called by the tree at the leaf pause point. The hook is cloned out of
/// the registry before running so a blocking hook never holds the slot
/// lock (tests install/clear hooks concurrently with paused readers).
pub(crate) fn leaf_pause() {
    let hook = slot().lock().unwrap().clone();
    if let Some(h) = hook {
        h();
    }
}
