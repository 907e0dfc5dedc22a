//! Acknowledged means durable, reply by reply.
//!
//! A shard worker logs and applies a whole drain of requests and waits for
//! the log once, at the end; no reply may leave before that wait returns.
//! This test looks for one that did: while a pipelining connection reads
//! its replies, it keeps taking the image a crash would leave of every
//! shard's storage — only what an fsync covered — and recovers it. Every
//! write acknowledged by then must be in that image.
//!
//! The image may also hold writes that are durable but not acknowledged
//! yet, so only keys the script writes once can be judged: an acknowledged
//! insert of a key that is never deleted must be there with its value, and
//! an acknowledged delete must have left its key absent (no key is
//! inserted twice).

use quit_durability::{concurrent_builder, DurabilityLevel, Durable, MemStorage, Storage};
use quit_service::wire::{encode_request, read_reply};
use quit_service::{shard_of, Reply, Request, Server, ServiceConfig};
use std::collections::{BTreeMap, HashSet};
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

const OPS: usize = 20_000;
const SHARDS: usize = 2;
/// One reply in this many is followed by a crash image and a recovery.
const SAMPLE: usize = 50;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // xorshift64*
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct Script {
    requests: Vec<Request>,
    /// Keys some request of the script deletes.
    ever_deleted: HashSet<u64>,
    /// What a server that ran the whole script holds.
    model: BTreeMap<u64, u64>,
}

/// 40 % insert at a near-sorted frontier (each key once), 35 % get, 15 %
/// range limit 100, 10 % delete of a key inserted earlier and not deleted
/// yet. Keys are spread over the whole `u64` range, so both shards work.
fn script(seed: u64) -> Script {
    let mut rng = Rng(seed | 1);
    let stride = u64::MAX / OPS as u64;
    // The order keys are inserted in: ascending, but one in ten swapped
    // with a neighbour up to four places on.
    let mut order: Vec<u64> = (0..OPS as u64).collect();
    for i in 0..OPS - 4 {
        if rng.below(10) == 0 {
            order.swap(i, i + 1 + rng.below(4) as usize);
        }
    }
    let mut inserted = 0;
    let mut live: Vec<u64> = Vec::new();
    let mut s = Script {
        requests: Vec::with_capacity(OPS),
        ever_deleted: HashSet::new(),
        model: BTreeMap::new(),
    };
    for _ in 0..OPS {
        let req = match rng.below(100) {
            0..=39 => {
                let (key, value) = (order[inserted] * stride, rng.next());
                inserted += 1;
                s.model.insert(key, value);
                live.push(key);
                Request::Insert { key, value }
            }
            40..=74 => Request::Get {
                key: rng.below(inserted as u64 + 1) * stride,
            },
            75..=89 => {
                let start = rng.below(inserted as u64 + 1) * stride;
                Request::Range {
                    start,
                    end: start.saturating_add(100 * stride),
                    limit: 100,
                }
            }
            _ if live.is_empty() => Request::Stats,
            _ => {
                let key = live.swap_remove(rng.below(live.len() as u64) as usize);
                s.model.remove(&key);
                s.ever_deleted.insert(key);
                Request::Delete { key }
            }
        };
        s.requests.push(req);
    }
    s
}

/// Runs the script in pipelined bursts of 1–500 requests, calling
/// `on_reply` with the index of each request as its reply is read.
fn drive(server: &Server, script: &Script, seed: u64, mut on_reply: impl FnMut(usize)) {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut sent = 0;
    while sent < script.requests.len() {
        let burst = (1 + rng.below(500) as usize).min(script.requests.len() - sent);
        for i in sent..sent + burst {
            let frame = encode_request(i as u64 + 1, &script.requests[i]);
            writer.write_all(&frame).unwrap();
        }
        writer.flush().unwrap();
        sent += burst;
        for _ in 0..burst {
            let shape = |id: u64| Ok(script.requests[id as usize - 1].reply_shape());
            let (id, reply) = read_reply(&mut reader, shape).unwrap();
            reply.unwrap_or_else(|e| panic!("request {id} failed: {e}"));
            on_reply(id as usize - 1);
        }
    }
}

fn disks() -> Vec<Arc<MemStorage>> {
    (0..SHARDS).map(|_| Arc::new(MemStorage::new())).collect()
}

fn start(disks: &[Arc<MemStorage>], config: &ServiceConfig) -> Server {
    let storages = disks
        .iter()
        .map(|d| d.clone() as Arc<dyn Storage>)
        .collect();
    Server::start(storages, config.clone(), "127.0.0.1:0")
        .unwrap()
        .0
}

#[test]
fn every_acknowledged_write_survives_a_crash_at_that_moment() {
    let config = ServiceConfig::small(SHARDS);
    assert_eq!(config.durability.level, DurabilityLevel::GroupCommit);
    let script = script(0xACED);
    let disks = disks();
    let server = start(&disks, &config);

    let mut present: Vec<(u64, u64)> = Vec::new();
    let mut absent: Vec<u64> = Vec::new();
    let (mut replies, mut checks) = (0usize, 0usize);
    drive(&server, &script, 7, |i| {
        match script.requests[i] {
            Request::Insert { key, value } if !script.ever_deleted.contains(&key) => {
                present.push((key, value))
            }
            Request::Delete { key } => absent.push(key),
            _ => {}
        }
        replies += 1;
        if replies % SAMPLE != 0 {
            return;
        }
        let recovered: Vec<_> = disks
            .iter()
            .map(|disk| {
                let image = Arc::new(disk.crash_durable_only()) as Arc<dyn Storage>;
                let build = concurrent_builder::<u64, u64>(config.tree.clone());
                Durable::open(image, config.durability, build).unwrap().0
            })
            .collect();
        let get = |key: u64| recovered[shard_of(key, SHARDS)].tree().get(key);
        for &(key, value) in &present {
            assert_eq!(get(key), Some(value), "acknowledged insert of {key} lost");
        }
        for &key in &absent {
            assert_eq!(get(key), None, "acknowledged delete of {key} undone");
        }
        checks += present.len() + absent.len();
    });
    assert_eq!(replies, OPS);
    assert!(
        present.len() > 5_000 && absent.len() > 1_000 && checks > 1_000_000,
        "the script must keep the check busy: {} inserts, {} deletes, {checks} checks",
        present.len(),
        absent.len()
    );
    server.shutdown().unwrap();
}

#[test]
fn buffered_level_holds_everything_across_a_clean_restart() {
    let config = ServiceConfig::small(SHARDS).with_level(DurabilityLevel::Buffered);
    let script = script(0xB0FF);
    let disks = disks();
    let server = start(&disks, &config);
    drive(&server, &script, 11, |_| {});
    server.shutdown().unwrap();

    let server = start(&disks, &config);
    let all = Request::Range {
        start: 0,
        end: u64::MAX,
        limit: 0,
    };
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    (&stream).write_all(&encode_request(1, &all)).unwrap();
    let (_, reply) = read_reply(&mut &stream, |_| Ok(all.reply_shape())).unwrap();
    let expected: Vec<(u64, u64)> = script.model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(reply.unwrap(), Reply::Entries(expected));
    drop(stream);
    server.shutdown().unwrap();
}
