//! Snapshot persistence: extract a tree's logical content (entries +
//! configuration) and rebuild it later. Rebuilding uses the bulk loader, so
//! a restored index starts with optimally packed leaves regardless of the
//! insertion history that produced the snapshot; the fast path re-arms at
//! the tail and ingestion resumes seamlessly.
//!
//! [`TreeSnapshot`] is a plain-data struct (mode + config + sorted entries),
//! so callers can persist it with any encoding they already have on hand.

use crate::config::{StorageKind, TreeConfig};
use crate::crc::crc32;
use crate::error::Error;
use crate::fastpath::{FastPathMode, FastPathState};
use crate::key::Key;
use crate::metrics::MetricsRegistry;
use crate::tree::BpTree;

/// Magic prefix of a tree page image ([`BpTree::to_page_image`]).
pub const TREE_IMAGE_MAGIC: &[u8; 6] = b"QPTB1\n";

/// Byte length of the tree-metadata header that precedes the arena image:
/// magic + mode byte + leaf/internal capacities + root/head/tail ids +
/// height (`u32`s) + len + a reserved word (`u64`s, the reserved one
/// always written 0 and never read) + header CRC.
const TREE_HEADER_LEN: usize = 6 + 1 + 4 * 6 + 8 + 8 + 4;

/// A portable, self-contained snapshot of an index.
#[derive(Clone, Debug, PartialEq)]
pub struct TreeSnapshot<K, V> {
    /// Fast-path mode the tree ran with.
    pub mode: FastPathMode,
    /// Tree geometry and QuIT feature toggles.
    pub config: TreeConfig,
    /// Every entry, sorted by key (duplicates preserved in order).
    pub entries: Vec<(K, V)>,
}

impl<K: Key, V: Clone + 'static> BpTree<K, V> {
    /// Captures the tree's logical state. Entries come out in key order via
    /// the leaf chain, so this is a single O(n) scan.
    pub fn to_snapshot(&self) -> TreeSnapshot<K, V> {
        TreeSnapshot {
            mode: self.mode(),
            config: self.config().clone(),
            entries: self.iter().map(|(k, v)| (k, v.clone())).collect(),
        }
    }

    /// Rebuilds an index from a snapshot, packing leaves full; pass an
    /// explicit `fill` through [`TreeSnapshot::restore_with_fill`] to leave
    /// insert headroom.
    pub fn from_snapshot(snapshot: TreeSnapshot<K, V>) -> Self {
        snapshot.restore_with_fill(1.0)
    }
}

// Physical page images: the paged backend's snapshot format. Where
// [`TreeSnapshot`] is logical (entries, rebuilt via the bulk loader), a page
// image captures the tree *structurally* — every page verbatim plus the
// root/spine metadata — so reopening is mostly lazy: integrity (per-page
// CRCs) is checked eagerly in one byte sweep, but nodes decode only when
// an operation faults them in.
impl<K: Key, V: Clone + 'static> BpTree<K, V> {
    /// Serializes a paged tree into a self-contained page image: a small
    /// metadata header (mode, geometry, root/head/tail, height, len) in
    /// front of the arena's page file, which is written straight into the
    /// same buffer. Returns `None` on the in-memory arena backend — use
    /// [`BpTree::to_snapshot`] there.
    pub fn to_page_image(&self) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(TREE_HEADER_LEN);
        out.extend_from_slice(TREE_IMAGE_MAGIC);
        out.push(match self.mode {
            FastPathMode::None => 0,
            FastPathMode::Tail => 1,
            FastPathMode::Lil => 2,
            FastPathMode::Pole => 3,
        });
        out.extend_from_slice(&(self.config.leaf_capacity as u32).to_le_bytes());
        out.extend_from_slice(&(self.config.internal_capacity as u32).to_le_bytes());
        out.extend_from_slice(&self.root.0.to_le_bytes());
        out.extend_from_slice(&self.head.0.to_le_bytes());
        out.extend_from_slice(&self.tail.0.to_le_bytes());
        out.extend_from_slice(&(self.height as u32).to_le_bytes());
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&crc32(&out).to_le_bytes());
        self.arena.to_image(&mut out).then_some(out)
    }

    /// Opens a tree from the page image that
    /// [`to_page_image`](Self::to_page_image) wrote, found at byte `at` of
    /// `buf` (so a caller that framed the image — the paged snapshot file's
    /// header — hands over the file as read). The buffer is kept, not
    /// copied: it becomes the read-only base that nodes decode out of.
    ///
    /// `config.storage` must be [`StorageKind::Paged`] (its `pool_pages`
    /// caps residency; the page size comes from the image) and the
    /// geometry must match the image's. Integrity is validated eagerly —
    /// the metadata header and every page CRC — and any corruption
    /// rejects the whole image; node decoding is lazy, so recovery cost
    /// is one byte sweep plus faulting the root/spine on first use. The
    /// fast path re-arms at the tail leaf.
    pub fn from_page_image(buf: Vec<u8>, at: usize, config: TreeConfig) -> Result<Self, Error> {
        config.assert_valid();
        let StorageKind::Paged { pool_pages, .. } = config.storage else {
            return Err(Error::config(
                "from_page_image requires StorageKind::Paged storage",
            ));
        };
        let Some(header) = buf.get(at..).and_then(|image| image.get(..TREE_HEADER_LEN)) else {
            return Err(Error::corruption("tree page image: truncated header"));
        };
        if &header[..6] != TREE_IMAGE_MAGIC {
            return Err(Error::corruption("tree page image: bad magic"));
        }
        let stored_crc = u32::from_le_bytes(header[TREE_HEADER_LEN - 4..].try_into().unwrap());
        if crc32(&header[..TREE_HEADER_LEN - 4]) != stored_crc {
            return Err(Error::corruption("tree page image: header CRC mismatch"));
        }
        let mode = match header[6] {
            0 => FastPathMode::None,
            1 => FastPathMode::Tail,
            2 => FastPathMode::Lil,
            3 => FastPathMode::Pole,
            m => {
                return Err(Error::corruption(format!(
                    "tree page image: unknown fast-path mode {m}"
                )))
            }
        };
        let u32_at = |off: usize| u32::from_le_bytes(header[off..off + 4].try_into().unwrap());
        let u64_at = |off: usize| u64::from_le_bytes(header[off..off + 8].try_into().unwrap());
        let leaf_capacity = u32_at(7) as usize;
        let internal_capacity = u32_at(11) as usize;
        if leaf_capacity != config.leaf_capacity || internal_capacity != config.internal_capacity {
            return Err(Error::config(format!(
                "tree page image geometry {leaf_capacity}/{internal_capacity} does not match \
                 config {}/{}",
                config.leaf_capacity, config.internal_capacity
            )));
        }
        let root = crate::arena::NodeId(u32_at(15));
        let head = crate::arena::NodeId(u32_at(19));
        let tail = crate::arena::NodeId(u32_at(23));
        let height = u32_at(27) as usize;
        let len = u64_at(31) as usize;
        let arena = crate::arena::Arena::from_image(
            buf,
            at + TREE_HEADER_LEN,
            pool_pages,
            leaf_capacity,
            internal_capacity,
        )?;
        if root.0 as usize >= arena.slot_count() {
            return Err(Error::corruption("tree page image: root id out of range"));
        }
        let fp = FastPathState::new(mode.has_fast_path().then_some(root));
        let metrics = MetricsRegistry::new(config.metrics_level);
        let mut tree = BpTree {
            arena,
            root,
            head,
            tail,
            height,
            len,
            config,
            mode,
            fp,
            metrics,
        };
        if tree.mode.has_fast_path() {
            // Faults in the tail leaf (and, for poℓe, its spine) — the
            // only eager node decoding recovery performs.
            tree.arm_fast_path_at_tail();
        }
        Ok(tree)
    }
}

impl<K: Key, V: 'static> TreeSnapshot<K, V> {
    /// Rebuilds the index, packing leaves to `fill` of capacity.
    pub fn restore_with_fill(self, fill: f64) -> BpTree<K, V> {
        BpTree::bulk_load(self.mode, self.config, self.entries, fill)
    }

    /// Number of entries captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::Variant;

    fn build() -> BpTree<u64, u64> {
        let mut t = Variant::Quit.build(TreeConfig::small(8));
        for k in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            t.insert(k, k * 10);
        }
        for k in 10..500u64 {
            t.insert(k, k * 10);
        }
        t
    }

    fn paged_config() -> TreeConfig {
        TreeConfig::small(8).with_storage(StorageKind::paged(4))
    }

    #[test]
    fn page_image_roundtrip_is_lazy_and_exact() {
        let mut t: BpTree<u64, u64> = Variant::Quit.build(paged_config());
        for k in 0..500u64 {
            t.insert(k, k * 10);
        }
        let expected: Vec<(u64, u64)> = t.range(..).map(|(k, v)| (k, *v)).collect();
        let image = t.to_page_image().expect("paged tree yields an image");
        assert_eq!(&image[..6], TREE_IMAGE_MAGIC);

        let mut back = BpTree::<u64, u64>::from_page_image(image, 0, paged_config()).unwrap();
        assert_eq!(back.len(), t.len());
        // Lazy recovery: only fast-path arming has touched nodes so far
        // (a spine's worth of overshoot past the 4-page budget is allowed
        // until the next operation boundary trims it).
        assert!(
            back.resident_nodes() <= 4 + back.height(),
            "resident {} is not lazy",
            back.resident_nodes()
        );
        assert!(back.node_count() > 50, "tree should have many nodes");
        let got: Vec<(u64, u64)> = back.range(..).map(|(k, v)| (k, *v)).collect();
        assert_eq!(got, expected);
        back.check_invariants().unwrap();
        // Ingestion resumes through the re-armed fast path.
        back.stats().reset();
        for k in 500..600u64 {
            back.insert(k, k * 10);
        }
        assert_eq!(back.stats().top_inserts.get(), 0);
    }

    #[test]
    fn reopen_decodes_nothing_and_the_first_get_decodes_one_spine() {
        // No fast path, so nothing arms at the tail: the reopen itself
        // must not decode a single node.
        let mut t: BpTree<u64, u64> = Variant::Classic.build(paged_config());
        for k in 0..500u64 {
            t.insert(k, k * 10);
        }
        assert!(t.height() >= 3);
        // The image sits behind a caller's header, as in a paged snapshot.
        let mut file = b"caller header".to_vec();
        file.extend_from_slice(&t.to_page_image().unwrap());
        let back = BpTree::<u64, u64>::from_page_image(file, 13, paged_config()).unwrap();
        assert_eq!(back.resident_nodes(), 0);
        assert_eq!(back.metrics().page_faults, 0);
        assert_eq!(back.get(250), Some(&2500));
        assert_eq!(back.metrics().page_faults, back.height() as u64);
        assert_eq!(back.resident_nodes(), back.height());
    }

    #[test]
    fn page_image_rejects_corruption_and_wrong_config() {
        let mut t: BpTree<u64, u64> = Variant::Quit.build(paged_config());
        for k in 0..200u64 {
            t.insert(k, k);
        }
        let image = t.to_page_image().unwrap();

        // In-memory arena config: refused outright.
        let err = BpTree::<u64, u64>::from_page_image(image.clone(), 0, TreeConfig::small(8))
            .unwrap_err();
        assert_eq!(err.kind(), "config");
        // Mismatched geometry: refused.
        let err = BpTree::<u64, u64>::from_page_image(
            image.clone(),
            0,
            TreeConfig::small(16).with_storage(StorageKind::paged(4)),
        )
        .unwrap_err();
        assert_eq!(err.kind(), "config");
        // A flipped byte anywhere — header or page area — rejects the image.
        for off in [7usize, 20, TREE_HEADER_LEN + 40, image.len() - 3] {
            let mut bad = image.clone();
            bad[off] ^= 0xFF;
            assert!(
                BpTree::<u64, u64>::from_page_image(bad, 0, paged_config()).is_err(),
                "corruption at byte {off} went undetected"
            );
        }
        // Truncations never pass.
        for cut in [
            3usize,
            TREE_HEADER_LEN - 1,
            TREE_HEADER_LEN + 9,
            image.len() - 1,
        ] {
            let cut = image[..cut].to_vec();
            assert!(BpTree::<u64, u64>::from_page_image(cut, 0, paged_config()).is_err());
        }
    }

    #[test]
    fn page_image_none_on_arena_backend() {
        let t = build();
        assert!(t.to_page_image().is_none());
        assert!(!t.is_paged());
    }

    #[test]
    fn snapshot_roundtrip_preserves_content() {
        let t = build();
        let snap = t.to_snapshot();
        assert_eq!(snap.len(), t.len());
        assert!(snap.entries.windows(2).all(|w| w[0].0 <= w[1].0));
        let restored = BpTree::from_snapshot(snap);
        assert_eq!(restored.len(), t.len());
        for k in 0..500u64 {
            assert_eq!(restored.get(k), t.get(k), "key {k}");
        }
        restored.check_invariants().unwrap();
    }

    #[test]
    fn restored_tree_is_packed_and_ingests_fast() {
        let t = build();
        let mut restored = BpTree::from_snapshot(t.to_snapshot());
        assert!(restored.memory_report().avg_leaf_occupancy > 0.95);
        restored.stats().reset();
        for k in 500..1000u64 {
            restored.insert(k, k);
        }
        assert_eq!(restored.stats().top_inserts.get(), 0, "fast path re-armed");
        restored.check_invariants().unwrap();
    }

    #[test]
    fn restore_with_headroom() {
        let t = build();
        let restored = t.to_snapshot().restore_with_fill(0.7);
        let occ = restored.memory_report().avg_leaf_occupancy;
        assert!((0.6..0.8).contains(&occ), "occupancy {occ}");
        restored.check_invariants().unwrap();
    }

    #[test]
    fn snapshot_preserves_duplicates() {
        let mut t: BpTree<u64, u64> = Variant::Classic.build(TreeConfig::small(4));
        for i in 0..30u64 {
            t.insert(7, i);
        }
        let restored = BpTree::from_snapshot(t.to_snapshot());
        assert_eq!(restored.get_all(7).len(), 30);
    }

    #[test]
    fn empty_snapshot() {
        let t: BpTree<u64, u64> = Variant::Quit.build(TreeConfig::small(4));
        let snap = t.to_snapshot();
        assert!(snap.is_empty());
        let restored = BpTree::from_snapshot(snap);
        assert!(restored.is_empty());
        restored.check_invariants().unwrap();
    }
}
