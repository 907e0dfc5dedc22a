//! Tree configuration: node geometry, IKR tuning, the QuIT feature set,
//! and the telemetry level.

use crate::error::{Error, Result};
use crate::metrics::MetricsLevel;

/// Where a tree's nodes live: the in-memory slab arena (default, the
/// bit-for-bit paper-reproduction path) or fixed-size pages behind the
/// buffer pool manager (`crate::pool` / `crate::paged`), which bounds how
/// many *decoded* nodes are resident. Evicted pages go to a heap
/// `MemPageStore` (over the recovered page image, when there is one), so
/// the encoded tree still lives in RAM: this is not a larger-than-RAM path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageKind {
    /// Every node lives in the malloc'd slab arena (always resident).
    Arena,
    /// Nodes live in fixed-size pages behind a buffer pool: at most
    /// `pool_pages` decoded nodes stay resident between operations,
    /// CLOCK-evicted to the page store past that. Requires
    /// plain-old-data keys and values, and a geometry whose largest
    /// node fits in `page_size` bytes (both checked at construction).
    Paged {
        /// Frame budget: decoded nodes resident between operations.
        pool_pages: usize,
        /// Page size in bytes (checked against the node geometry).
        page_size: usize,
    },
}

impl StorageKind {
    /// Paged storage with the default 4 KiB page size.
    pub fn paged(pool_pages: usize) -> Self {
        StorageKind::Paged {
            pool_pages,
            page_size: crate::pool::DEFAULT_PAGE_SIZE,
        }
    }
}

/// Geometry and policy knobs shared by every index variant in this crate.
///
/// Defaults mirror the paper's setup (§5 "Index Design and Default Setup"):
/// 4 KB pages holding up to 510 8-byte entries, IKR scale 1.5, and a reset
/// threshold of `⌊√leaf_capacity⌋`.
#[derive(Clone, Debug, PartialEq)]
pub struct TreeConfig {
    /// Maximum number of entries a leaf node holds.
    pub leaf_capacity: usize,
    /// Maximum number of keys an internal node holds (it has one more child).
    pub internal_capacity: usize,
    /// IKR scale factor (paper uses 1.5, following IQR practice).
    pub ikr_scale: f64,
    /// Consecutive top-inserts after which QuIT resets its fast path
    /// (`T_R` in §4.3). `None` disables the reset strategy
    /// (the "poℓe-B+-tree" ablation of Fig. 12).
    pub reset_threshold: Option<usize>,
    /// Enable the IKR-guided variable split of Algorithm 2.
    pub variable_split: bool,
    /// Enable redistribution into an under-half-full `poℓe_prev`
    /// (Algorithm 2 line 10 / Fig. 7c).
    pub redistribute: bool,
    /// How much telemetry the tree records (counters, fast-path window,
    /// latency histograms). See [`MetricsLevel`]; the default records
    /// counters and the window but never reads the clock.
    pub metrics_level: MetricsLevel,
    /// Node storage backend. [`StorageKind::Arena`] (default) keeps every
    /// node in the in-memory slab; [`StorageKind::Paged`] puts nodes in
    /// fixed-size pages behind the buffer pool manager.
    pub storage: StorageKind,
}

impl TreeConfig {
    /// Paper-default geometry: 4 KB pages, 510-entry leaves.
    pub fn paper_default() -> Self {
        Self::small(510)
    }

    /// Paper-default policy over `leaf_capacity`-entry leaves; small values
    /// force frequent splits and are used heavily in tests.
    pub fn small(leaf_capacity: usize) -> Self {
        TreeConfig {
            leaf_capacity,
            internal_capacity: leaf_capacity.max(4),
            ikr_scale: 1.5,
            reset_threshold: Some(Self::default_reset_threshold(leaf_capacity)),
            variable_split: true,
            redistribute: true,
            metrics_level: MetricsLevel::default(),
            storage: StorageKind::Arena,
        }
    }

    /// `T_R = ⌊√leaf_capacity⌋`, the paper's balanced reset trigger
    /// (§4.3; 22 for 510-entry leaves).
    pub fn default_reset_threshold(leaf_capacity: usize) -> usize {
        ((leaf_capacity as f64).sqrt().floor() as usize).max(1)
    }

    /// Default position for a 50/50 leaf split (`def_split_pos`, Alg. 2).
    #[inline]
    pub fn def_split_pos(&self) -> usize {
        self.leaf_capacity / 2
    }

    /// Set the leaf capacity, keeping the internal capacity and reset
    /// threshold in sync.
    ///
    /// "In sync" only touches values still at their derived defaults: an
    /// internal capacity or reset threshold you overrode explicitly is
    /// preserved whether the override came *before or after* this call,
    /// so builder chains compose in any order.
    pub fn with_leaf_capacity(mut self, cap: usize) -> Self {
        assert!(cap >= 2, "leaf capacity must be at least 2");
        let old = self.leaf_capacity;
        self.leaf_capacity = cap;
        if self.internal_capacity == old.max(4) {
            self.internal_capacity = cap.max(4);
        }
        if self.reset_threshold == Some(Self::default_reset_threshold(old)) {
            self.reset_threshold = Some(Self::default_reset_threshold(cap));
        }
        self
    }

    /// Builder-style override of the internal-node key capacity alone.
    pub fn with_internal_capacity(mut self, cap: usize) -> Self {
        assert!(cap >= 3, "internal capacity must be at least 3");
        self.internal_capacity = cap;
        self
    }

    /// Builder-style override of the IKR scale.
    pub fn with_ikr_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "IKR scale must be positive");
        self.ikr_scale = scale;
        self
    }

    /// Builder-style override of the reset threshold (`None` disables reset).
    pub fn with_reset_threshold(mut self, t: Option<usize>) -> Self {
        self.reset_threshold = t;
        self
    }

    /// Builder-style toggle of the variable-split strategy.
    pub fn with_variable_split(mut self, on: bool) -> Self {
        self.variable_split = on;
        self
    }

    /// Builder-style toggle of poℓe_prev redistribution.
    pub fn with_redistribute(mut self, on: bool) -> Self {
        self.redistribute = on;
        self
    }

    /// Builder-style override of the telemetry level.
    pub fn with_metrics_level(mut self, level: MetricsLevel) -> Self {
        self.metrics_level = level;
        self
    }

    /// Builder-style override of the node storage backend.
    ///
    /// `StorageKind::paged(pool_pages)` bounds residency to `pool_pages`
    /// decoded nodes between operations on 4 KiB pages. Note the paper's
    /// 510-entry geometry does not fit a 4 KiB page once encoded with its
    /// header — paged trees use smaller leaves (e.g.
    /// `TreeConfig::small(128)`) or a bigger `page_size`; the mismatch is
    /// caught at construction with an explicit message.
    pub fn with_storage(mut self, storage: StorageKind) -> Self {
        self.storage = storage;
        self
    }

    /// Checks that the configuration is internally consistent: a `config`
    /// error names the first field that is not.
    pub fn validate(&self) -> Result<()> {
        let ensure = |ok: bool, msg: &str| if ok { Ok(()) } else { Err(Error::config(msg)) };
        ensure(self.leaf_capacity >= 2, "leaf_capacity must be >= 2")?;
        ensure(
            self.internal_capacity >= 3,
            "internal_capacity must be >= 3",
        )?;
        ensure(self.ikr_scale > 0.0, "ikr_scale must be positive")?;
        if let StorageKind::Paged {
            pool_pages,
            page_size,
        } = self.storage
        {
            ensure(pool_pages >= 2, "storage: pool_pages must be >= 2")?;
            ensure(page_size >= 64, "storage: page_size must be >= 64")?;
        }
        Ok(())
    }

    /// Panics with [`validate`](Self::validate)'s message if the
    /// configuration is internally inconsistent.
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_5() {
        let c = TreeConfig::paper_default();
        assert_eq!(c.leaf_capacity, 510);
        // 4 KB pages: what `BpTree::memory_report` charges per node.
        assert_eq!(crate::pool::DEFAULT_PAGE_SIZE, 4096);
        assert_eq!(c.ikr_scale, 1.5);
        // ⌊√510⌋ = 22 (paper §5).
        assert_eq!(c.reset_threshold, Some(22));
        assert_eq!(c.def_split_pos(), 255);
    }

    #[test]
    fn reset_threshold_tracks_capacity() {
        let c = TreeConfig::paper_default().with_leaf_capacity(64);
        assert_eq!(c.reset_threshold, Some(8));
        assert_eq!(TreeConfig::default_reset_threshold(2), 1);
    }

    #[test]
    fn leaf_capacity_syncs_internal_capacity() {
        let c = TreeConfig::paper_default().with_leaf_capacity(64);
        assert_eq!(c.internal_capacity, 64, "internal tracks leaf by default");
        let c = c.with_internal_capacity(128);
        assert_eq!(c.internal_capacity, 128, "explicit override wins");
        assert_eq!(c.leaf_capacity, 64);
        c.assert_valid();
        // Tiny leaves still get a usable fan-out.
        assert_eq!(
            TreeConfig::paper_default()
                .with_leaf_capacity(2)
                .internal_capacity,
            4
        );
    }

    #[test]
    fn builder_toggles() {
        let c = TreeConfig::small(8)
            .with_variable_split(false)
            .with_redistribute(false)
            .with_reset_threshold(None)
            .with_ikr_scale(2.0);
        assert!(!c.variable_split);
        assert!(!c.redistribute);
        assert_eq!(c.reset_threshold, None);
        assert_eq!(c.ikr_scale, 2.0);
        c.assert_valid();
    }

    #[test]
    fn metrics_level_defaults_to_counters() {
        let c = TreeConfig::paper_default();
        assert_eq!(c.metrics_level, MetricsLevel::Counters);
        let c = c.with_metrics_level(MetricsLevel::Histograms);
        assert_eq!(c.metrics_level, MetricsLevel::Histograms);
    }

    #[test]
    #[should_panic(expected = "leaf capacity")]
    fn rejects_tiny_leaves() {
        let _ = TreeConfig::small(8).with_leaf_capacity(1);
    }

    #[test]
    fn builder_overrides_survive_any_order() {
        // Override *before* with_leaf_capacity: must not be clobbered.
        let c = TreeConfig::paper_default()
            .with_internal_capacity(128)
            .with_leaf_capacity(64);
        assert_eq!(c.internal_capacity, 128, "earlier override preserved");
        assert_eq!(c.leaf_capacity, 64);
        let c = TreeConfig::paper_default()
            .with_reset_threshold(Some(77))
            .with_leaf_capacity(64);
        assert_eq!(c.reset_threshold, Some(77), "earlier override preserved");
        // Untouched values still track the leaf capacity.
        let c = TreeConfig::paper_default().with_leaf_capacity(64);
        assert_eq!(c.internal_capacity, 64);
        assert_eq!(c.reset_threshold, Some(8));
    }

    #[test]
    fn storage_knob() {
        let c = TreeConfig::paper_default();
        assert_eq!(c.storage, StorageKind::Arena, "paper path by default");
        let c = c.with_storage(StorageKind::paged(64));
        assert_eq!(
            c.storage,
            StorageKind::Paged {
                pool_pages: 64,
                page_size: 4096
            }
        );
        c.assert_valid();
    }

    #[test]
    fn validate_names_the_field() {
        assert!(TreeConfig::small(8).validate().is_ok());
        for (config, field) in [
            (
                TreeConfig {
                    ikr_scale: 0.0,
                    ..TreeConfig::small(8)
                },
                "ikr_scale",
            ),
            (
                TreeConfig {
                    ikr_scale: f64::NAN,
                    ..TreeConfig::small(8)
                },
                "ikr_scale",
            ),
            (
                TreeConfig {
                    leaf_capacity: 1,
                    ..TreeConfig::small(8)
                },
                "leaf_capacity",
            ),
            (
                TreeConfig {
                    internal_capacity: 2,
                    ..TreeConfig::small(8)
                },
                "internal_capacity",
            ),
            (
                TreeConfig::small(8).with_storage(StorageKind::paged(1)),
                "pool_pages",
            ),
        ] {
            let e = config.validate().expect_err(field);
            assert_eq!(e.kind(), "config");
            assert!(e.to_string().contains(field), "{e} names {field}");
        }
    }

    #[test]
    #[should_panic(expected = "pool_pages")]
    fn rejects_tiny_pool() {
        TreeConfig::small(8)
            .with_storage(StorageKind::paged(1))
            .assert_valid();
    }
}
