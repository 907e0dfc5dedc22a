//! # quit-durability — crash durability for the QuIT index family
//!
//! Everything else in this workspace lives and dies with the process; this
//! crate makes an index survive a crash, built around the same observation
//! the paper builds ingestion around: **sortedness is cheap to exploit**.
//!
//! * A **segmented write-ahead log** ([`Wal`]) frames every mutation with
//!   a CRC32 and a dense LSN (hand-rolled, no dependencies); a batch of
//!   inserts is one frame, one LSN per entry. Concurrent
//!   writers batch their fsyncs through a **group-commit** leader — one
//!   fsync per group, composing with `ConcurrentTree`'s OLC write path.
//! * **Sorted snapshots** (checkpoints) walk the tree in key order. A
//!   plain log's recovery folds the append-mostly WAL tail into the
//!   snapshot's entries, sorting only the tail's out-of-order residue,
//!   and builds the tree once with `bulk_load` — O(n), leaves packed
//!   full. `TxnStore` bulk-loads its snapshot and applies each commit
//!   frame on top.
//! * [`Durable<T>`] wraps any `SortedIndex` with log-then-apply semantics
//!   behind three [`DurabilityLevel`]s: `Off`, `Buffered`, `GroupCommit`.
//!   Every fallible public API returns [`quit_core::Result`] — `Poisoned`
//!   for a log that can no longer promise durability, `Io` (via `From`)
//!   for storage failures — so callers and `quit-service`'s wire protocol
//!   share one error taxonomy. Only the [`Storage`] backend SPI keeps raw
//!   `io::Result`, since its implementors speak to the OS.
//! * Verification is part of the subsystem: [`MemStorage`] models a crash
//!   as an arbitrary byte prefix of the global append order (never less
//!   than what fsync promised), and `quit-testkit`'s crash-recovery
//!   differential mode fuzzes crash points (and byte flips inside a
//!   published snapshot) against a model replayed to the last durable
//!   group.
//!
//! ```
//! use quit_core::{FastPathMode, SortedIndex, TreeConfig};
//! use quit_durability::{bptree_builder, Durable, DurabilityConfig, MemStorage, Storage};
//! use std::sync::Arc;
//!
//! let storage = Arc::new(MemStorage::new());
//! let build = || bptree_builder::<u64, u64>(FastPathMode::Pole, TreeConfig::paper_default());
//! let (mut index, _) = Durable::open(
//!     storage.clone() as Arc<dyn Storage>,
//!     DurabilityConfig::group_commit(),
//!     build(),
//! )
//! .unwrap();
//! index.insert(1, 10);
//! index.insert(2, 20);
//!
//! // Crash keeping only fsync-guaranteed bytes, then recover.
//! let crashed = Arc::new(storage.crash_durable_only());
//! let (mut recovered, report) = Durable::open(
//!     crashed as Arc<dyn Storage>,
//!     DurabilityConfig::group_commit(),
//!     build(),
//! )
//! .unwrap();
//! assert_eq!(report.recovered_lsn, 2);
//! assert_eq!(recovered.get(2), Some(20));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod durable;
mod files;
mod frame;
mod snapshot;
mod storage;
mod txn;
mod wal;

pub use durable::{
    bptree_builder, concurrent_builder, DurabilityConfig, DurabilityLevel, Durable, RecoveryReport,
    Unacked,
};
pub use frame::{WalCodec, WalOp};
pub use quit_core::{crc32, Error, Result};
pub use storage::{FsStorage, MemStorage, Storage};
pub use txn::{Txn, TxnConfig, TxnStats, TxnStore};
pub use wal::{Lsn, Wal};
