//! Serve a sharded QuIT key-value store over TCP.
//!
//! ```sh
//! cargo run --release --example quit_server -- 127.0.0.1:7878 --shards 4 --dir /tmp/quit-data
//! ```
//!
//! Omit `--dir` for an in-memory store (nothing survives the process).
//! Each shard owns a `Durable<BpTree>` with its own WAL directory
//! (`shard-0000/`, `shard-0001/`, …) and a dedicated worker thread;
//! clients' pipelined inserts are coalesced per shard into sorted runs so
//! near-sorted streams ride the fast path end to end. Every acked write
//! is group-committed before its reply, so killing the process (ctrl-c)
//! loses nothing that was acknowledged.
//!
//! Pair with the `quit_client` example for a command-line client.

use quick_insertion_tree::quit_service::{Server, ServiceConfig};

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut dir: Option<String> = None;
    let mut shards = 4usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => dir = Some(args.next().expect("--dir needs a path")),
            "--shards" => {
                shards = args
                    .next()
                    .expect("--shards needs a count")
                    .parse()
                    .expect("--shards must be a number")
            }
            "--help" | "-h" => {
                eprintln!("usage: quit_server [ADDR] [--shards N] [--dir PATH]");
                return;
            }
            other if !other.starts_with("--") => addr = other.to_string(),
            other => panic!("unknown flag {other}"),
        }
    }

    let config = ServiceConfig::paper_default().with_shards(shards);
    let (server, reports) = match &dir {
        Some(dir) => Server::start_dir(dir, config, &addr),
        None => Server::start_in_memory(config, &addr),
    }
    .unwrap_or_else(|e| panic!("failed to start on {addr}: {e}"));

    for (i, r) in reports.iter().enumerate() {
        if r.recovered_lsn > 0 {
            println!(
                "shard {i}: recovered {} snapshot entries + {} tail records (LSN {}) in {:?}",
                r.snapshot_entries, r.tail_records, r.recovered_lsn, r.elapsed
            );
        }
    }
    println!(
        "quit_server: {} shards ({}) listening on {}",
        shards,
        if dir.is_some() {
            "durable"
        } else {
            "in-memory"
        },
        server.local_addr()
    );

    // Serve until killed. Acked writes are already fsync-durable, so an
    // abrupt exit is safe; the next start on the same --dir recovers.
    loop {
        std::thread::park();
    }
}
