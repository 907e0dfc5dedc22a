//! # quit-service — a sharded, pipelined TCP service over the QuIT index
//!
//! The paper's regime — very high ingest rates of *near-sorted* streams —
//! is the regime of networked platforms, so this crate puts the
//! workspace's durable QuIT tree behind a socket without giving up
//! the property everything else is built on: **sortedness must survive
//! the trip**. Three decisions carry that:
//!
//! * **Range partitioning** ([`shard_of`]): the `u64` keyspace is cut
//!   into contiguous shard ranges with a monotone multiply-shift rule,
//!   so the subsequence of a globally near-sorted stream each shard
//!   receives is itself near-sorted — a hash partitioner would shred it.
//! * **Run-building router** ([`InsertBatcher`]): a connection hands each
//!   shard everything it read for it as one burst, and the shard's worker
//!   forms the runs — consecutive single inserts go through
//!   `insert_batch`'s sorted-run detection as one batch — and pays one
//!   WAL group commit per drain of its queue, not one per request.
//! * **One `Durable<BpTree>` per shard**, owned by the shard's one worker
//!   thread and each with its own WAL directory
//!   ([`quit_durability::FsStorage::open_sharded`]): the single-writer
//!   tree runs the whole split policy (variable split, redistribute),
//!   group commit batches fsyncs *within* a shard while shards proceed in
//!   parallel, and each shard recovers independently.
//!
//! The wire protocol ([`wire`]) is length-prefixed, binary, and
//! pipelined; its status codes map one-to-one from [`quit_core::Error`]
//! — the unified error type this workspace's 0.7.0 API redesign
//! introduced — so a networked caller sees exactly the error taxonomy an
//! embedded caller does.
//!
//! ## Quick start
//!
//! ```
//! use quit_service::{Client, Server, ServiceConfig};
//!
//! let config = ServiceConfig::small(2);
//! let (server, _reports) = Server::start_in_memory(config, "127.0.0.1:0").unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! client.insert(1, 10).unwrap();
//! client.insert_batch(&(2..100u64).map(|k| (k, k * 10)).collect::<Vec<_>>()).unwrap();
//! assert_eq!(client.get(42).unwrap(), Some(420));
//! assert_eq!(client.range(90, 95, 0).unwrap().len(), 6);
//! let stats = client.stats().unwrap();
//! assert_eq!(stats.len, 99);
//! // The near-sorted stream stayed near-sorted per shard:
//! assert!(stats.fastpath_rate() > 0.5);
//!
//! drop(client);
//! server.shutdown().unwrap();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod client;
mod config;
mod router;
mod server;
pub mod wire;

pub use client::Client;
pub use config::ServiceConfig;
pub use quit_core::{Error, Result};
pub use router::{shard_of, shard_range, shards_overlapping, split_batch, InsertBatcher};
pub use server::Server;
pub use wire::{Reply, ReplyShape, Request, ServiceStats};
