//! # quit-core — the Quick Insertion Tree
//!
//! A from-scratch reproduction of *"QuIT your B+-tree for the Quick
//! Insertion Tree"* (EDBT 2025): an in-memory B+-tree whose ingestion cost
//! shrinks in proportion to the *sortedness* of the incoming data, with no
//! read penalty and only a handful of bytes of extra metadata.
//!
//! ## The idea
//!
//! Indexing adds structure to data; when data already arrives (nearly)
//! sorted, most of the indexing effort is wasted tree traversal. Production
//! systems exploit the fully sorted case with a *tail-leaf* fast path, but
//! that goes stale after one leaf's worth of outliers. This crate implements
//! the paper's two generalizations and the full QuIT design on one shared
//! B+-tree platform:
//!
//! * **ℓiℓ** (last-insertion-leaf): follow the most recent insert.
//! * **poℓe** (predicted-ordered-leaf): follow the leaf *predicted* to
//!   receive future in-order inserts, moving the pointer only on node splits
//!   under guidance of the IKR outlier estimator (Eq. 2).
//! * **QuIT**: poℓe plus IKR-guided variable splits, redistribution into an
//!   under-full predecessor, and a stale-path reset — which also raise leaf
//!   occupancy (up to 100% for sorted streams) and therefore speed up range
//!   scans.
//!
//! ## Quick start
//!
//! ```
//! use quit_core::BpTree;
//!
//! let mut index: BpTree<u64, &str> = BpTree::quit();
//! // A nearly sorted stream: QuIT ingests this almost entirely through
//! // its fast path.
//! for key in [1u64, 2, 3, 5, 4, 6, 7, 8, 10, 9] {
//!     index.insert(key, "payload");
//! }
//! assert!(index.contains_key(4));
//! assert_eq!(index.range(3..7).count(), 4);
//! let m = index.metrics(); // unified snapshot: counters + window (+ latency)
//! assert!(m.fast_inserts > m.top_inserts);
//! assert!(m.recent_fastpath_rate() > 0.5);
//! println!("{}", m.to_json()); // dependency-free JSON export
//! ```
//!
//! Batches with sorted runs ingest even faster through
//! [`BpTree::insert_batch`], which validates each run against the fast-path
//! window once and appends it wholesale. Every index family in the workspace
//! — this crate's [`BpTree`], `quit-concurrent`'s tree, and `sware`'s
//! buffered tree — implements the [`SortedIndex`] trait, so harnesses and
//! applications can be written once:
//!
//! ```
//! use quit_core::{BpTree, SortedIndex};
//!
//! let mut index: BpTree<u64, u64> = BpTree::quit();
//! index.insert_batch(&(0..1000u64).map(|k| (k, k)).collect::<Vec<_>>());
//! assert_eq!(SortedIndex::len(&index), 1000);
//! assert_eq!(index.range(10..=12).count(), 3);
//! ```
//!
//! ## Choosing a variant
//!
//! [`Variant`] builds any of the paper's five designs on identical
//! geometry, which is exactly how the evaluation compares them:
//!
//! ```
//! use quit_core::{Variant, TreeConfig};
//!
//! let config = TreeConfig::paper_default(); // 4 KB pages, 510-entry leaves
//! let mut quit = Variant::Quit.build::<u64, u64>(config.clone());
//! let mut classic = Variant::Classic.build::<u64, u64>(config);
//! for k in 0..10_000u64 {
//!     quit.insert(k, k);
//!     classic.insert(k, k);
//! }
//! // Sorted ingest: QuIT's variable split packs leaves ~2× tighter.
//! assert!(quit.memory_report().leaf_nodes < classic.memory_report().leaf_nodes);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod arena;
mod bulk;
mod config;
mod crc;
mod cursor;
mod delete;
mod error;
mod fastpath;
mod ikr;
mod insert;
mod iter;
// `key` declares the `unsafe` `AnyBitPattern` marker trait (a contract on
// implementors, not unsafe operations — the crate still contains none).
#[allow(unsafe_code)]
mod key;
mod layout;
mod metrics;
mod node;
mod ordered;
// `paged` extends `&self` node borrows past its internal `RefCell` via
// raw pointers; soundness rests on boxed (address-stable) frames and
// eviction being confined to `&mut self` operation boundaries — see the
// module docs.
#[allow(unsafe_code)]
mod paged;
mod pool;
mod snapshot;
mod sorted_index;
mod split;
mod stats;
mod tree;
mod validate;
mod variants;

pub use arena::NodeId;
pub use config::{StorageKind, TreeConfig};
pub use crc::{crc32, simd_force_disabled, Crc32};
pub use cursor::Cursor;
pub use error::{Error, Result};
pub use fastpath::{FastPathMode, FastPathState, FullPolePlan, PoleSplit, PrevLeaf, TopInsert};
pub use iter::{RangeIter, RangeScan, TreeIter};
pub use key::{stripe_of, AnyBitPattern, Key, OrderedF64};
pub use layout::{
    branchless_partition_point, branchless_partition_point_by, guided_lower_bound,
    guided_partition_point_by, guided_partition_point_hinted, insert_at, insert_dense, lower_bound,
    regap, search_internal, search_leaf, upper_bound, GapMap, SearchKind, SlotInsert,
};
pub use metrics::{
    Counter, FastPathWindow, HistogramSnapshot, LatencyHistogram, MetricsLevel, MetricsRegistry,
    FASTPATH_WINDOW, HISTOGRAM_BUCKETS,
};
pub use paged::{max_encoded_node_size, value_is_pod, PagedNodes, IMAGE_MAGIC};
pub use pool::{
    BufferPool, MemPageStore, PageId, PageStore, PoolCounters, ReadGuard, WriteGuard,
    DEFAULT_PAGE_SIZE,
};
pub use snapshot::{TreeSnapshot, TREE_IMAGE_MAGIC};
pub use sorted_index::SortedIndex;
pub use stats::{MemoryReport, Stats, StatsSnapshot};
pub use tree::BpTree;
pub use validate::InvariantViolation;
pub use variants::Variant;
