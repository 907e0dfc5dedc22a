//! The layer probes of a traced run: a **ladder** that drives one stream
//! single-threaded through `BpTree` → `ConcurrentTree` → `MvccTree` →
//! `Durable` Buffered → `Durable` GroupCommit → `TxnStore` → a service
//! round trip, so that each rung minus the one below is that layer's self
//! time; and **direct timed calls** into the public functions of the layers
//! a ladder cannot isolate (intra-node search and shift, wire codec,
//! router, buffer pool, WAL). The inputs do not depend on the workload
//! being traced, only on the seed.

use crate::model::{stream, sub_seed, uniform_keys, value_of, ScratchDir};
use crate::report::{Outcome, Prediction};
use crate::spec::{self, Sizes};
use crate::stats;
use crate::svc;
use crate::trace::{Tracer, CHUNK};
use quit_concurrent::{ConcConfig, ConcurrentTree, MvccTree};
use quit_core::{
    insert_at, regap, search_leaf, BpTree, BufferPool, FastPathMode, GapMap, MemPageStore,
    MetricsLevel, PageId, SearchKind, SlotInsert, SortedIndex, StorageKind, TreeConfig, Variant,
};
use quit_durability::{
    concurrent_builder, DurabilityConfig, Durable, FsStorage, Storage, TxnConfig, TxnStore, WalOp,
};
use quit_service::wire::{encode_request, read_request};
use quit_service::{InsertBatcher, Request};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// How much each probe does. The in-memory rungs take the first million
/// keys of the `embed-nearsorted` stream; a rung that pays an fsync per
/// insert takes a prefix short enough to finish in about a second.
struct Budget {
    memory: usize,
    buffered: usize,
    fsynced: usize,
    reads: usize,
    micro: usize,
}

const FULL: Budget = Budget {
    memory: 1_000_000,
    buffered: 200_000,
    fsynced: 1_500,
    reads: 200_000,
    micro: 1_000_000,
};

const QUICK: Budget = Budget {
    memory: 100_000,
    buffered: 20_000,
    fsynced: 300,
    reads: 20_000,
    micro: 100_000,
};

fn ns_per(ops: usize, start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / ops as f64
}

pub fn run(seed: u64, out_dir: &Path, quick: bool) -> Outcome {
    let mut out = Outcome::new("probes");
    let b = if quick { &QUICK } else { &FULL };
    let full = spec::sizes(spec::EMBED_NEARSORTED).n;
    let mut keys = stream(full, 0.05, 0.05, 0, sub_seed(seed, 1));
    keys.truncate(b.memory);
    let reads: Vec<u64> = uniform_keys(0, keys.len() as u64, b.reads, sub_seed(seed, 30))
        .into_iter()
        .map(|i| keys[i as usize])
        .collect();

    ladder_memory(&mut out, &keys, &reads, seed);
    match ScratchDir::new(out_dir, "probe") {
        Ok(dir) => ladder_durable(&mut out, &keys, seed, b, &dir),
        Err(e) => {
            out.notes.push(format!("no scratch directory: {e}"));
            out.tally.check(false);
        }
    }
    // The top rung and the open-loop numbers: a short run of the
    // svc-ingest shape on a fresh server.
    let svc_sizes = Sizes {
        reps: 1,
        n: b.buffered,
        preload: 0,
        gets: 0,
        scans: 0,
        scan_len: 1,
        mixed: 0,
        sync_inserts: b.fsynced,
        recoveries: 0,
        rate_seconds: if quick { 0.2 } else { 0.5 },
    };
    // Like the rungs below it, the service rung sits on real files here:
    // the ladder is where this machine's fsync is allowed to show.
    let mut tracer = Tracer::new(false);
    let disks = ScratchDir::new(out_dir, "probe-svc").and_then(|dir| {
        let shards =
            FsStorage::open_sharded(dir.path(), svc::SHARDS).map_err(std::io::Error::other)?;
        Ok((
            dir,
            shards.into_iter().map(|s| s as Arc<dyn Storage>).collect(),
        ))
    });
    match disks {
        Ok((_dir, disks)) => {
            let served = svc::probe(seed, &disks, &svc_sizes, &mut tracer);
            out.tally.merge(served.tally);
            out.metrics.extend(served.metrics);
            out.notes.extend(served.notes);
        }
        Err(e) => {
            out.notes.push(format!("no scratch directory: {e}"));
            out.tally.check(false);
        }
    }

    layout_cells(&mut out, b, seed);
    wire_and_router(&mut out, b);
    pool_cells(&mut out, b);
    paged_cells(&mut out, b, seed);

    let rungs: Vec<(&'static str, f64)> = LADDER
        .iter()
        .filter_map(|&name| {
            let v = out.value(name)?;
            Some((name, if name == "svc.rtt_us" { v * 1e3 } else { v }))
        })
        .collect();
    let selfs: Vec<String> = stats::ladder_self_times(&rungs)
        .iter()
        .map(|(name, ns)| format!("{name} {ns:+.0}"))
        .collect();
    out.notes.push(format!(
        "ladder self time per insert, ns: {}",
        selfs.join(", ")
    ));
    out
}

/// The rungs, bottom to top.
pub const LADDER: [&str; 7] = [
    "core.insert_ns",
    "conc.insert_ns",
    "mvcc.insert_ns",
    "durable.insert_ns.buffered",
    "durable.insert_ns.group",
    "txn.insert_ns",
    "svc.rtt_us",
];

fn ladder_memory(out: &mut Outcome, keys: &[u64], reads: &[u64], seed: u64) {
    let n = keys.len();

    // Rung 0: the arena BpTree, with the chunk tail and the cost of the
    // Histograms metrics level on the same ingest.
    let mut tree: BpTree<u64, u64> = Variant::Quit.build(TreeConfig::paper_default());
    let mut chunk_ns = Vec::with_capacity(n / CHUNK + 1);
    let t = Instant::now();
    for chunk in keys.chunks(CHUNK) {
        let t0 = Instant::now();
        for &k in chunk {
            tree.insert(k, value_of(k, seed));
        }
        chunk_ns.push(t0.elapsed().as_nanos() as u64 * CHUNK as u64 / chunk.len() as u64);
    }
    let core_insert = ns_per(n, t);
    out.set("core.insert_ns", core_insert);
    chunk_ns.sort_unstable();
    out.set(
        "core.insert_chunk_p99_ns",
        stats::percentile(&chunk_ns, 99.0) as f64 / CHUNK as f64,
    );
    let t = Instant::now();
    let mut hits = 0usize;
    for &k in reads {
        hits += usize::from(tree.get(k) == Some(&value_of(k, seed)));
    }
    out.set("core.get_ns", ns_per(reads.len(), t));
    out.tally
        .add(reads.len() as u64, (reads.len() - hits) as u64);
    let t = Instant::now();
    let mut deleted = 0usize;
    for &k in &keys[..n / 10] {
        deleted += usize::from(tree.delete(k).is_some());
    }
    out.set("core.delete_ns", ns_per(n / 10, t));
    out.tally.add((n / 10) as u64, (n / 10 - deleted) as u64);
    drop(tree);

    let timed = TreeConfig::paper_default().with_metrics_level(MetricsLevel::Histograms);
    let mut tree: BpTree<u64, u64> = Variant::Quit.build(timed);
    let t = Instant::now();
    for &k in keys {
        tree.insert(k, value_of(k, seed));
    }
    out.set("metrics.histograms_overhead_ns", ns_per(n, t) - core_insert);
    drop(tree);

    // Rung 1: the concurrent tree, one thread, no contention.
    let tree: ConcurrentTree<u64, u64> = ConcurrentTree::new(ConcConfig::paper_default());
    let t = Instant::now();
    for &k in keys {
        tree.insert(k, value_of(k, seed));
    }
    out.set("conc.insert_ns", ns_per(n, t));
    let t = Instant::now();
    let mut hits = 0usize;
    for &k in reads {
        hits += usize::from(tree.get(k) == Some(value_of(k, seed)));
    }
    out.set("conc.get_ns", ns_per(reads.len(), t));
    out.tally
        .add(reads.len() as u64, (reads.len() - hits) as u64);
    drop(tree);

    // Rung 2: a version chain per key on top of it.
    let mvcc: MvccTree<u64, u64> = MvccTree::new(ConcConfig::paper_default());
    let t = Instant::now();
    for (i, &k) in keys.iter().enumerate() {
        let _stripe = mvcc.lock_keys(&[k]);
        mvcc.apply(k, i as u64 + 1, Some(value_of(k, seed)));
    }
    out.set("mvcc.insert_ns", ns_per(n, t));
    let t = Instant::now();
    let mut hits = 0usize;
    for &k in reads {
        hits += usize::from(mvcc.read_at(k, u64::MAX) == Some(value_of(k, seed)));
    }
    out.set("mvcc.get_ns", ns_per(reads.len(), t));
    out.tally
        .add(reads.len() as u64, (reads.len() - hits) as u64);
}

fn fs_storage(dir: &ScratchDir, sub: &str) -> Option<Arc<dyn Storage>> {
    FsStorage::open(dir.path().join(sub))
        .ok()
        .map(|s| Arc::new(s) as Arc<dyn Storage>)
}

fn ladder_durable(out: &mut Outcome, keys: &[u64], seed: u64, b: &Budget, dir: &ScratchDir) {
    let open = |sub: &str, config: DurabilityConfig| {
        let storage = fs_storage(dir, sub)?;
        Durable::open(
            storage,
            config,
            concurrent_builder::<u64, u64>(ConcConfig::paper_default()),
        )
        .ok()
        .map(|(d, _)| d)
    };

    // Rungs 3 and 4: the WAL in front of the concurrent tree, first
    // without and then with an fsync before every return.
    for (name, config, n) in [
        (
            "durable.insert_ns.buffered",
            DurabilityConfig::buffered(),
            b.buffered,
        ),
        (
            "durable.insert_ns.group",
            DurabilityConfig::group_commit(),
            b.fsynced,
        ),
    ] {
        let Some(durable) = open(name, config) else {
            out.tally.check(false);
            continue;
        };
        let t = Instant::now();
        for &k in &keys[..n] {
            durable.insert_shared(k, value_of(k, seed));
        }
        out.set(name, ns_per(n, t));
        out.tally.add(n as u64, (n - durable.tree().len()) as u64);
    }

    // Rung 5: transactions on top (auto-commit, then 64-key batches),
    // and the price of a checkpoint of what they wrote.
    let store = fs_storage(dir, "txn").and_then(|storage| {
        TxnStore::<u64, u64>::open(storage, TxnConfig::default())
            .ok()
            .map(|(s, _)| s)
    });
    if let Some(store) = store {
        let n = b.fsynced;
        let t = Instant::now();
        let mut ok = 0usize;
        for &k in &keys[..n] {
            ok += usize::from(store.insert(k, value_of(k, seed)).is_ok());
        }
        out.set("txn.insert_ns", ns_per(n, t));
        out.tally.add(n as u64, (n - ok) as u64);
        let batched = &keys[n..n + 64 * (n / 8)];
        let t = Instant::now();
        let mut ok = 0usize;
        for batch in batched.chunks(64) {
            let mut txn = store.begin();
            for &k in batch {
                txn.insert(k, value_of(k, seed));
            }
            ok += usize::from(txn.commit().is_ok()) * batch.len();
        }
        out.set("txn.batch_key_ns", ns_per(batched.len(), t));
        out.tally
            .add(batched.len() as u64, (batched.len() - ok) as u64);
        let t = Instant::now();
        out.tally.check(store.checkpoint().is_ok());
        out.set("ckpt.s", t.elapsed().as_secs_f64());
    } else {
        out.tally.check(false);
    }

    // Direct WAL calls: the wrapper is opened at level Off so that it logs
    // nothing itself, and its log is appended to and committed by hand.
    if let Some(durable) = open("wal", DurabilityConfig::off()) {
        let wal = durable.wal();
        let n = b.buffered;
        let t = Instant::now();
        let mut ok = 0usize;
        for &k in &keys[..n] {
            ok += usize::from(wal.append(&[WalOp::Insert(k, value_of(k, seed))]).is_ok());
        }
        out.set("wal.append_ns", ns_per(n, t));
        out.tally.add(n as u64, (n - ok) as u64);
        let n = b.fsynced / 3;
        let mut commit_ns = 0u128;
        let mut ok = 0usize;
        for &k in &keys[..n] {
            if let Ok(lsn) = wal.append(&[WalOp::Insert(k, value_of(k, seed))]) {
                let t0 = Instant::now();
                ok += usize::from(wal.commit(lsn).is_ok());
                commit_ns += t0.elapsed().as_nanos();
            }
        }
        out.set("wal.commit_ns", commit_ns as f64 / n as f64);
        out.tally.add(n as u64, (n - ok) as u64);
    } else {
        out.tally.check(false);
    }
}

/// Search kind × layout micro-cells on one 510-key leaf: the BS-tree
/// evaluation shape.
fn layout_cells(out: &mut Outcome, b: &Budget, seed: u64) {
    const LEAF: usize = 510;
    let leaf: Vec<u64> = (0..LEAF as u64).map(|i| i * 2).collect();
    let probes = uniform_keys(0, 2 * LEAF as u64, b.micro, sub_seed(seed, 31));
    for (name, kind) in [
        ("layout.search_ns.binary", SearchKind::Binary),
        ("layout.search_ns.branchless", SearchKind::Branchless),
        ("layout.search_ns.simd", SearchKind::Simd),
    ] {
        let t = Instant::now();
        let mut sum = 0usize;
        for &p in &probes {
            sum += search_leaf(kind, black_box(&leaf), p);
        }
        black_box(sum);
        out.set(name, ns_per(probes.len(), t));
        // Every kind must agree with the binary search on the last probe.
        let last = *probes.last().expect("probes are not empty");
        out.tally
            .check(search_leaf(kind, &leaf, last) == search_leaf(SearchKind::Binary, &leaf, last));
    }

    // Fill a half-full leaf to capacity with random keys, over and over:
    // the shifting insert against the gap-absorbing one.
    let half: Vec<u64> = (0..LEAF as u64 / 2).map(|i| i * 4).collect();
    let fills = b.micro / (LEAF / 2);
    let want = (LEAF as f64).sqrt().floor() as usize;
    for (name, gapped) in [
        ("layout.insert_at_ns.dense", false),
        ("layout.insert_at_ns.gapped", true),
    ] {
        let mut inserted = 0usize;
        let mut spent = 0u128;
        for fill in 0..fills {
            let mut keys = half.clone();
            let mut vals = half.clone();
            let mut gaps = GapMap::new();
            if gapped {
                regap(&mut keys, &mut vals, &mut gaps, 0, want, LEAF);
            }
            let from = (fill * LEAF / 2) % (probes.len() - LEAF);
            let t0 = Instant::now();
            for &p in &probes[from..from + LEAF] {
                match insert_at(
                    SearchKind::Binary,
                    &mut keys,
                    &mut vals,
                    &mut gaps,
                    p * 2,
                    p,
                    LEAF,
                ) {
                    SlotInsert::Done(_) => inserted += 1,
                    SlotInsert::Full => break,
                }
            }
            spent += t0.elapsed().as_nanos();
            black_box(&keys);
        }
        out.set(name, spent as f64 / inserted.max(1) as f64);
        out.tally.add(1, u64::from(inserted == 0));
    }
}

fn wire_and_router(out: &mut Outcome, b: &Budget) {
    let n = b.micro;
    let t = Instant::now();
    let mut bytes = 0usize;
    for i in 0..n as u64 {
        bytes += black_box(encode_request(i, &Request::Insert { key: i, value: !i })).len();
    }
    out.set("wire.encode_ns", ns_per(n, t));

    let mut buffer = Vec::with_capacity(bytes);
    for i in 0..n as u64 {
        buffer.extend_from_slice(&encode_request(i, &Request::Insert { key: i, value: !i }));
    }
    let mut cursor = &buffer[..];
    let t = Instant::now();
    let mut decoded = 0usize;
    while let Ok(Some((id, Request::Insert { key, .. }))) = read_request(&mut cursor) {
        decoded += usize::from(id == key);
    }
    out.set("wire.decode_ns", ns_per(n, t));
    out.tally.add(n as u64, (n - decoded) as u64);

    // The per-connection batcher: push a burst, drain it, per entry.
    let config = svc::config();
    let mut batcher = InsertBatcher::new(config.shards, config.batch_max);
    let burst = 256u64;
    let t = Instant::now();
    let mut drained = 0usize;
    for round in 0..n as u64 / burst {
        for i in 0..burst {
            let id = round * burst + i;
            if let Some((_, run, _)) = batcher.push(id, id << 40, id) {
                drained += run.len();
            }
        }
        drained += batcher
            .drain()
            .iter()
            .map(|(_, run, _)| run.len())
            .sum::<usize>();
    }
    let pushed = (n as u64 / burst * burst) as usize;
    out.set("router.push_drain_ns", ns_per(pushed, t));
    out.tally.add(pushed as u64, (pushed - drained) as u64);
}

/// `BufferPool::read` on a resident page and on one that must be faulted
/// in over an evicted victim.
fn pool_cells(out: &mut Outcome, b: &Budget) {
    const FRAMES: usize = 256;
    const PAGES: u64 = 2048;
    let pool = BufferPool::new(
        Box::new(MemPageStore::new()),
        FRAMES,
        quit_core::DEFAULT_PAGE_SIZE,
    );
    let mut ok = true;
    for id in 0..PAGES {
        match pool.write(PageId(id)) {
            Ok(mut page) => page.with_mut(|bytes| bytes[0] = id as u8),
            Err(_) => ok = false,
        }
    }
    ok &= pool.flush().is_ok();
    let read = |id: u64| {
        pool.read(PageId(id))
            .map(|page| page.with(|bytes| bytes[0]) == id as u8)
            .unwrap_or(false)
    };
    let hot = FRAMES as u64 / 2;
    for id in 0..hot {
        ok &= read(id);
    }
    let n = b.micro;
    let t = Instant::now();
    for i in 0..n as u64 {
        ok &= read(i % hot);
    }
    out.set("pool.hit_ns", ns_per(n, t));
    // A sequential sweep over eight times the frames faults every time.
    let n = b.reads;
    let faults_before = pool.counters().faults.get();
    let t = Instant::now();
    for i in 0..n as u64 {
        ok &= read(hot + i % (PAGES - hot));
    }
    out.set("pool.fault_ns", ns_per(n, t));
    let faulted = pool.counters().faults.get() - faults_before;
    out.tally.add(n as u64, n as u64 - faulted.min(n as u64));
    out.tally.check(ok);
}

/// The paged backend against the arena on the same geometry: sorted
/// ingest with the pool at least as large as the working set (pure
/// indirection cost), and random gets at one eighth of it.
fn paged_cells(out: &mut Outcome, b: &Budget, seed: u64) {
    let n = b.memory / 2;
    let base = TreeConfig::small(120);
    let ingest = |config: TreeConfig| {
        let mut tree: BpTree<u64, u64> = BpTree::with_config(FastPathMode::Pole, config);
        let t = Instant::now();
        for k in 0..n as u64 {
            tree.insert(k, value_of(k, seed));
        }
        (ns_per(n, t), tree)
    };
    let (arena_ns, arena) = ingest(base.clone());
    let working_set = arena.node_count();
    drop(arena);
    let (paged_ns, roomy) = ingest(
        base.clone()
            .with_storage(StorageKind::paged(working_set + 64)),
    );
    drop(roomy);
    out.set("paged.insert_ns", paged_ns);
    out.set("paged.vs_arena", paged_ns / arena_ns);

    let (_, mut tight) = ingest(base.with_storage(StorageKind::paged((working_set / 8).max(8))));
    let reads = uniform_keys(0, n as u64, b.reads, sub_seed(seed, 32));
    let t = Instant::now();
    let mut hits = 0usize;
    for &k in &reads {
        hits += usize::from(SortedIndex::get(&mut tight, k) == Some(value_of(k, seed)));
    }
    out.set("paged.get_ns", ns_per(reads.len(), t));
    out.tally
        .add(reads.len() as u64, (reads.len() - hits) as u64);
}

/// Predictions that need two workloads side by side (`--workload all`).
pub fn cross_workload_predictions(outcomes: &[Outcome]) -> Vec<Prediction> {
    let value = |workload: &str, metric: &str| {
        outcomes
            .iter()
            .find(|o| o.workload == workload)
            .and_then(|o| o.value(metric))
    };
    let mut predictions = Vec::new();
    if let (Some(ingest), Some(mixed)) = (
        value(spec::SVC_INGEST, "router.entries_per_batch"),
        value(spec::SVC_MIXED, "router.entries_per_batch"),
    ) {
        predictions.push(Prediction {
            claim: format!(
                "reads break the insert batches: router.entries_per_batch on svc-mixed ({mixed:.1}) is below svc-ingest ({ingest:.1})"
            ),
            holds: mixed < ingest,
        });
    }
    predictions
}
