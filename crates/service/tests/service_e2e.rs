//! End-to-end tests over real sockets: pipelining, read-your-writes,
//! cross-shard requests, the wire error taxonomy, concurrent clients,
//! durable restart on file-backed shard WALs, connections that end
//! releasing their sockets, a shard whose log dies under load, and the
//! burst path against a sequential model.

use proptest::prelude::*;
use quit_durability::{concurrent_builder, Durable, MemStorage, Storage};
use quit_service::wire::{encode_request, read_reply};
use quit_service::{shard_of, Client, Reply, ReplyShape, Request, Result, Server, ServiceConfig};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start(config: ServiceConfig) -> Server {
    let (server, _) = Server::start_in_memory(config, "127.0.0.1:0").unwrap();
    server
}

#[test]
fn sync_roundtrip_all_ops() {
    let server = start(ServiceConfig::small(3));
    let mut c = Client::connect(server.local_addr()).unwrap();

    c.insert(10, 100).unwrap();
    assert_eq!(c.get(10).unwrap(), Some(100));
    assert_eq!(c.get(11).unwrap(), None);

    let entries: Vec<(u64, u64)> = (0..1000u64).map(|k| (k * 3, k)).collect();
    c.insert_batch(&entries).unwrap();

    assert_eq!(c.delete(10).unwrap(), Some(100));
    assert_eq!(c.delete(10).unwrap(), None);

    // Range spanning the whole keyspace (crosses every shard boundary).
    let got = c.range(0, u64::MAX, 0).unwrap();
    assert_eq!(got.len(), 1000);
    assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "globally sorted");
    // Limited range truncates in key order.
    let got = c.range(0, u64::MAX, 10).unwrap();
    assert_eq!(got.len(), 10);
    assert_eq!(got[9].0, 27);

    let stats = c.stats().unwrap();
    assert_eq!(stats.len, 1000);
    assert_eq!(stats.shards, 3);

    drop(c);
    server.shutdown().unwrap();
}

#[test]
fn pipelined_burst_coalesces_and_replies_to_every_id() {
    let server = start(ServiceConfig::small(4));
    let mut c = Client::connect(server.local_addr()).unwrap();

    // 5000 near-sorted single inserts, all in flight before one reply is
    // read: the server-side batcher must coalesce them into per-shard
    // runs yet still answer each id individually.
    let mut ids = Vec::new();
    for i in 0..5000u64 {
        let key = i.wrapping_mul(u64::MAX / 5000);
        ids.push(c.send(&Request::Insert { key, value: i }).unwrap());
    }
    c.flush().unwrap();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..ids.len() {
        let (id, reply) = c.recv().unwrap();
        assert_eq!(reply.unwrap(), Reply::Inserted);
        assert!(seen.insert(id), "duplicate reply for id {id}");
    }
    assert_eq!(seen.len(), ids.len());
    assert_eq!(c.pending(), 0);

    let stats = c.stats().unwrap();
    assert_eq!(stats.len, 5000);
    // The whole point: a pipelined near-sorted stream must ride each
    // shard's fast path, not pay 5000 top-down descents.
    assert!(
        stats.fastpath_rate() > 0.9,
        "pipelined sorted inserts must stay on the fast path, rate {}",
        stats.fastpath_rate()
    );
    // And coalescing must reach the WAL too: appends count records (all
    // 5000 are logged), but each buffered run commits as one group, so
    // fsyncs stay far below one-per-key.
    assert_eq!(stats.wal_appends, 5000);
    assert!(
        stats.wal_fsyncs < 1000,
        "batcher must coalesce WAL commits, got {} fsyncs",
        stats.wal_fsyncs
    );

    drop(c);
    server.shutdown().unwrap();
}

#[test]
fn reads_observe_writes_from_the_same_connection() {
    let server = start(ServiceConfig::small(2));
    let mut c = Client::connect(server.local_addr()).unwrap();

    // Pipeline inserts and a dependent get in one burst, no intermediate
    // reply reads: the router must flush buffered inserts before the get.
    let mut ids = Vec::new();
    for k in 0..100u64 {
        ids.push(
            c.send(&Request::Insert {
                key: k,
                value: k + 1,
            })
            .unwrap(),
        );
    }
    let get_id = c.send(&Request::Get { key: 57 }).unwrap();
    c.flush().unwrap();
    let mut got = None;
    for _ in 0..ids.len() + 1 {
        let (id, reply) = c.recv().unwrap();
        if id == get_id {
            got = Some(reply.unwrap());
        }
    }
    assert_eq!(got, Some(Reply::Got(Some(58))), "read-your-writes");

    drop(c);
    server.shutdown().unwrap();
}

#[test]
fn concurrent_clients_partition_cleanly() {
    let server = start(ServiceConfig::small(4));
    let addr = server.local_addr();
    let per_client = 2000u64;
    let clients = 8u64;
    std::thread::scope(|s| {
        for t in 0..clients {
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                // Interleaved key stripes: each client's stream is sorted.
                let mut ids = Vec::new();
                for i in 0..per_client {
                    let key = (i * clients + t).wrapping_mul(u64::MAX / (per_client * clients));
                    ids.push(c.send(&Request::Insert { key, value: t }).unwrap());
                }
                c.flush().unwrap();
                for _ in ids {
                    c.recv().unwrap().1.unwrap();
                }
            });
        }
    });
    let mut c = Client::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.len, per_client * clients);
    drop(c);
    server.shutdown().unwrap();
}

/// `Server::start`'s error for a tree config the shards cannot run.
fn start_error(tree: quit_core::TreeConfig) -> quit_service::Error {
    match Server::start_in_memory(ServiceConfig::small(2).with_tree(tree), "127.0.0.1:0") {
        Ok(_) => panic!("the tree config must be rejected"),
        Err(e) => e,
    }
}

#[test]
fn start_rejects_a_paged_tree_config() {
    let paged = quit_core::TreeConfig::small(16).with_storage(quit_core::StorageKind::paged(64));
    let err = start_error(paged);
    assert_eq!(err.kind(), "config");
    assert!(err.to_string().contains("StorageKind::Arena"), "{err}");
}

#[test]
fn start_rejects_a_zero_ikr_scale() {
    let err = start_error(quit_core::TreeConfig {
        ikr_scale: 0.0,
        ..quit_core::TreeConfig::small(16)
    });
    assert_eq!(err.kind(), "config");
    assert!(err.to_string().contains("ikr_scale"), "{err}");
}

#[test]
fn wire_errors_carry_the_unified_taxonomy() {
    // Config errors surface before any socket is bound.
    let err = match Server::start_in_memory(ServiceConfig::small(0), "127.0.0.1:0") {
        Ok(_) => panic!("zero shards must be rejected"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), "config");

    // A malformed frame (bad opcode) earns a corruption status on the
    // wire, reported on request id 0.
    let server = start(ServiceConfig::small(1));
    use std::io::{Read, Write};
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&9u32.to_le_bytes());
    frame.extend_from_slice(&77u64.to_le_bytes());
    frame.push(200); // no such opcode
    raw.write_all(&frame).unwrap();
    // [len u32][req_id u64][status u8][message…]
    let mut hdr = [0u8; 4];
    raw.read_exact(&mut hdr).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(hdr) as usize];
    raw.read_exact(&mut body).unwrap();
    assert!(body.len() > 9, "error reply carries a message");
    assert_eq!(&body[0..8], &0u64.to_le_bytes(), "decode errors use id 0");
    assert_eq!(body[8], 2, "corruption status code");
    drop(raw);
    server.shutdown().unwrap();
}

#[test]
fn file_backed_shards_recover_after_restart() {
    let root = std::env::temp_dir().join(format!(
        "quit-service-e2e-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let config = ServiceConfig::small(3);

    let (server, reports) = Server::start_dir(&root, config.clone(), "127.0.0.1:0").unwrap();
    assert!(reports.iter().all(|r| r.recovered_lsn == 0), "fresh start");
    let mut c = Client::connect(server.local_addr()).unwrap();
    let entries: Vec<(u64, u64)> = (0..3000u64)
        .map(|k| (k.wrapping_mul(u64::MAX / 3000), k))
        .collect();
    c.insert_batch(&entries).unwrap();
    c.delete(entries[7].0).unwrap();
    drop(c);
    server.shutdown().unwrap();

    // Same directories, new process-lifetime: every acked write must be
    // back, each shard recovered from its own WAL directory.
    let (server, reports) = Server::start_dir(&root, config, "127.0.0.1:0").unwrap();
    assert!(reports.iter().any(|r| r.recovered_lsn > 0), "wal replayed");
    let mut c = Client::connect(server.local_addr()).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.len, 2999);
    assert_eq!(c.get(entries[7].0).unwrap(), None);
    assert_eq!(c.get(entries[8].0).unwrap(), Some(8));
    drop(c);
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shard_dirs_follow_the_sharded_layout() {
    let root = std::env::temp_dir().join(format!("quit-service-layout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (server, _) = Server::start_dir(&root, ServiceConfig::small(2), "127.0.0.1:0").unwrap();
    drop(Client::connect(server.local_addr()).unwrap());
    server.shutdown().unwrap();
    assert!(root.join("shard-0000").is_dir());
    assert!(root.join("shard-0001").is_dir());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn frames_larger_than_the_read_buffer_and_dribbled_bytes_arrive_intact() {
    let server = start(ServiceConfig::small(2));
    let mut c = Client::connect(server.local_addr()).unwrap();
    // One 160 KB frame: far more than the connection's read buffer holds.
    let entries: Vec<(u64, u64)> = (0..10_000u64)
        .map(|i| (i.wrapping_mul(u64::MAX / 10_000), i))
        .collect();
    c.insert_batch(&entries).unwrap();
    assert_eq!(c.stats().unwrap().len, 10_000);
    assert_eq!(c.get(entries[9_999].0).unwrap(), Some(9_999));
    drop(c);

    // The other extreme: every read the server makes ends inside a frame.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let requests = [
        Request::Insert { key: 77, value: 78 },
        Request::Get { key: 77 },
        Request::Range {
            start: 0,
            end: 77,
            limit: 2,
        },
    ];
    for (id, req) in requests.iter().enumerate() {
        for byte in encode_request(id as u64 + 1, req) {
            raw.write_all(&[byte]).unwrap();
        }
    }
    let mut replies = HashMap::new();
    for _ in &requests {
        let (id, reply) =
            read_reply(&mut raw, |id| Ok(requests[id as usize - 1].reply_shape())).unwrap();
        replies.insert(id, reply.unwrap());
    }
    assert_eq!(replies[&1], Reply::Inserted);
    assert_eq!(replies[&2], Reply::Got(Some(78)));
    assert_eq!(replies[&3], Reply::Entries(vec![(0, 0), (77, 78)]));
    drop(raw);
    server.shutdown().unwrap();
}

/// Descriptors this process holds open.
#[cfg(target_os = "linux")]
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_sockets() {
    let server = start(ServiceConfig::small(1));
    let before = open_fds();
    for _ in 0..300 {
        drop(std::net::TcpStream::connect(server.local_addr()).unwrap());
    }
    // Each connection ends on its own thread: give the last ones time.
    let slack = 16;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut after = open_fds();
    while after > before + slack && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        after = open_fds();
    }
    assert!(
        after <= before + slack,
        "{before} descriptors open before 300 connect/close cycles, {after} after"
    );
    server.shutdown().unwrap();
}

#[test]
fn a_connection_hung_up_on_sees_eof() {
    use std::io::Read;
    let server = start(ServiceConfig::small(1));
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    // A length prefix below the 8-byte minimum desynchronizes the stream.
    raw.write_all(&3u32.to_le_bytes()).unwrap();
    let mut hdr = [0u8; 4];
    raw.read_exact(&mut hdr).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(hdr) as usize];
    raw.read_exact(&mut body).unwrap();
    assert_eq!(&body[0..8], &0u64.to_le_bytes(), "decode errors use id 0");
    assert_eq!(body[8], 2, "corruption status code");
    // Then the server hangs up: the next read is end of stream, not a
    // timeout.
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest)
        .expect("the server closes a connection it hung up on");
    assert!(rest.is_empty());
    server.shutdown().unwrap();
}

/// A `MemStorage` whose `sync` fails from call `good_syncs + 1` on — a
/// disk that dies under a running shard.
struct DyingDisk {
    disk: Arc<MemStorage>,
    good_syncs: usize,
    syncs: AtomicUsize,
}

impl Storage for DyingDisk {
    fn append(&self, file: &str, bytes: &[u8]) -> io::Result<()> {
        self.disk.append(file, bytes)
    }
    fn sync(&self, file: &str) -> io::Result<()> {
        if self.syncs.fetch_add(1, Ordering::Relaxed) >= self.good_syncs {
            return Err(io::Error::other("injected fsync failure"));
        }
        self.disk.sync(file)
    }
    fn read(&self, file: &str) -> io::Result<Vec<u8>> {
        self.disk.read(file)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.disk.list()
    }
    fn remove(&self, file: &str) -> io::Result<()> {
        self.disk.remove(file)
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.disk.rename(from, to)
    }
}

#[test]
fn a_dying_shard_answers_every_request_it_was_sent() {
    let config = ServiceConfig::small(2);
    let disk = Arc::new(MemStorage::new());
    let storages: Vec<Arc<dyn Storage>> = vec![
        Arc::new(MemStorage::new()),
        Arc::new(DyingDisk {
            disk: disk.clone(),
            good_syncs: 1,
            syncs: AtomicUsize::new(0),
        }),
    ];
    let (server, _) = Server::start(storages, config.clone(), "127.0.0.1:0").unwrap();
    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    // A reply that is never sent is a failure here, not a hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = io::BufWriter::new(stream);

    // 2 000 pipelined inserts, alternating between the shards. The first
    // half is answered before the second is sent, so shard 1's one good
    // fsync is spent and its worker dies with requests in hand and more
    // arriving.
    let n = 2_000u64;
    let key = |i: u64| (i % 2) * (1 << 63) + i;
    let mut answered: HashMap<u64, Result<Reply>> = HashMap::new();
    for half in [0..n / 2, n / 2..n] {
        for i in half.clone() {
            let req = Request::Insert {
                key: key(i),
                value: i,
            };
            writer.write_all(&encode_request(i + 1, &req)).unwrap();
        }
        writer.flush().unwrap();
        for _ in half {
            let (id, reply) = read_reply(&mut reader, |_| Ok(ReplyShape::Inserted))
                .expect("every request is answered, none is left hanging");
            assert!(answered.insert(id, reply).is_none(), "two replies for {id}");
        }
    }
    assert_eq!(answered.len() as u64, n);

    let survived = Arc::new(disk.crash_durable_only());
    let (reopened, _) = Durable::open(
        survived as Arc<dyn Storage>,
        config.durability,
        concurrent_builder::<u64, u64>(config.tree.clone()),
    )
    .unwrap();
    let (mut acked, mut refused) = (0, 0);
    for i in 0..n {
        match (&answered[&(i + 1)], shard_of(key(i), 2)) {
            (Ok(reply), 0) => assert_eq!(*reply, Reply::Inserted),
            (Ok(reply), _) => {
                assert_eq!(*reply, Reply::Inserted);
                assert_eq!(
                    reopened.tree().get(key(i)),
                    Some(i),
                    "acknowledged, so durable"
                );
                acked += 1;
            }
            (Err(e), shard) => {
                assert_eq!(shard, 1, "the healthy shard refuses nothing: {e}");
                assert!(matches!(e.kind(), "shutdown" | "wal"), "{e}");
                refused += 1;
            }
        }
    }
    assert!(
        acked > 0 && refused > 0,
        "{acked} acknowledged, {refused} refused"
    );

    drop((reader, writer));
    assert_eq!(server.shutdown().unwrap_err().kind(), "wal");
}

/// The 64-key space of the model test, spread over the whole `u64` range
/// so that every shard owns some of it.
fn model_key(k: u64) -> u64 {
    k * (u64::MAX / 64)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
    #[test]
    fn one_flush_of_anything_answers_like_a_sequential_map(
        script in proptest::collection::vec((0u8..5, 0u64..64, 0u64..64, any::<u64>()), 1..400),
    ) {
        // A key is inserted only while absent (the trees keep duplicates, a
        // map does not): an insert of a live key deletes it instead.
        let mut model = BTreeMap::new();
        let mut expect = Vec::new();
        let mut requests = Vec::new();
        for (kind, a, b, value) in script {
            let (key, other) = (model_key(a), model_key(b));
            let (req, reply) = match kind {
                0 | 1 if !model.contains_key(&key) => {
                    model.insert(key, value);
                    (Request::Insert { key, value }, Some(Reply::Inserted))
                }
                0 | 1 => (Request::Delete { key }, Some(Reply::Deleted(model.remove(&key)))),
                2 => (Request::Get { key }, Some(Reply::Got(model.get(&key).copied()))),
                3 => {
                    // `other < key` is an empty range; limit 0 is "no cap".
                    let limit = (value % 8) as u32;
                    let cap = if limit == 0 { usize::MAX } else { limit as usize };
                    let hits = if other < key {
                        Vec::new()
                    } else {
                        model.range(key..=other).take(cap).map(|(&k, &v)| (k, v)).collect()
                    };
                    let req = Request::Range { start: key, end: other, limit };
                    (req, Some(Reply::Entries(hits)))
                }
                _ => {
                    // Up to 8 keys from `a` on, in a scrambled order, minus
                    // the live ones — sometimes nothing at all.
                    let mut entries = Vec::new();
                    for step in 0..b % 9 {
                        let key = model_key((a + step * 37) % 64);
                        if let Entry::Vacant(slot) = model.entry(key) {
                            slot.insert(value ^ step);
                            entries.push((key, value ^ step));
                        }
                    }
                    // How many rode the fast path is the tree's business.
                    (Request::InsertBatch { entries }, None)
                }
            };
            requests.push(req);
            expect.push(reply);
        }

        let server = start(ServiceConfig::small(3));
        let mut c = Client::connect(server.local_addr()).unwrap();
        let mut index_of = HashMap::new();
        for (i, req) in requests.iter().enumerate() {
            index_of.insert(c.send(req).unwrap(), i);
        }
        c.flush().unwrap();
        let mut seen = HashSet::new();
        for _ in 0..requests.len() {
            let (id, reply) = c.recv().unwrap();
            let i = index_of[&id];
            prop_assert!(seen.insert(i), "two replies for request {}", i);
            match (&expect[i], reply.unwrap()) {
                (Some(expected), got) => prop_assert_eq!(expected, &got, "request {}: {:?}", i, requests[i]),
                (None, got) => prop_assert!(matches!(got, Reply::BatchInserted { .. })),
            }
        }
        prop_assert_eq!(c.stats().unwrap().len, model.len() as u64);
        drop(c);
        server.shutdown().unwrap();
    }
}
