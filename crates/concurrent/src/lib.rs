//! # quit-concurrent — thread-safe QuIT and B+-tree (paper §4.5)
//!
//! Traversal uses **optimistic lock coupling** (OLC): every node lock
//! carries a seqlock version word, and `get`/`range`/insert descents read
//! node contents without latching, validating parent-then-child versions
//! and restarting (with bounded exponential backoff) when a writer
//! intervened, before falling back to classical pessimistic lock-crabbing.
//! On top of that, a dedicated mutex guards the poℓe fast-path metadata,
//! and an in-range insert into a non-full poℓe leaf locks exactly **one
//! leaf** instead of crabbing a whole root-to-leaf path — the shorter
//! critical section behind the paper's Fig 13 result (1.5–2× higher insert
//! throughput under contention).
//!
//! ```
//! use quit_concurrent::{ConcConfig, ConcurrentTree};
//! use std::sync::Arc;
//!
//! let tree: Arc<ConcurrentTree<u64, u64>> =
//!     Arc::new(ConcurrentTree::new(ConcConfig::paper_default()));
//! let handles: Vec<_> = (0..4)
//!     .map(|t| {
//!         let tree = tree.clone();
//!         std::thread::spawn(move || {
//!             for k in 0..1000u64 {
//!                 tree.insert(t * 1_000_000 + k, k);
//!             }
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! assert_eq!(tree.len(), 4000);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod mvcc;
mod node;
#[allow(unsafe_code)]
mod olc;
#[allow(unsafe_code)]
mod sync;
#[cfg(feature = "olc-test-hooks")]
pub mod test_hooks;
mod tree;

pub use mvcc::{MvccTree, StripeGuards};
pub use node::{CNode, NodeRef};
pub use quit_core::StorageKind;
pub use tree::{ConcConfig, ConcRangeIter, ConcurrentTree, OLC_MAX_RESTARTS};
