//! Buffer-pool benchmark: larger-than-RAM ingest and read behaviour of
//! the paged backend. Sizes the pool at ~1/8 of the tree's working set
//! (measured on an identical in-memory build), then drives sorted ingest,
//! random point reads, and a full scan through it, reporting hit rate,
//! faults, evictions, resident pages, and the paged-vs-arena overhead;
//! then checkpoints the same tree as a durable paged store and reopens it,
//! pricing the page image's byte path (serialize, verify, index).
//! Dumps everything to `results/pool.json`.
//!
//! With `--check`, self-asserts the subsystem's acceptance bars: the JSON
//! is valid, the working set really is larger than RAM (live nodes ≥ 8×
//! the pool), residency stays bounded by the pool budget plus one
//! operation's pin set, eviction actually happened, sorted ingest —
//! the paper's fast-path regime, which keeps hitting the rightmost spine —
//! sustains a ≥ 90% pool hit rate despite the 1/8 budget, and a reopen
//! reads, verifies and indexes the page image at ≥ 400 MB/s while
//! decoding no node beyond the ones the fast path re-arms on (the tail
//! spine and the poℓe's predecessor leaf).
//!
//! ```sh
//! cargo run --release -p quit-bench --bin pool_bench -- --check
//! ```

use quit_bench::json_is_valid;
use quit_core::{BpTree, FastPathMode, SortedIndex, StorageKind, TreeConfig};
use quit_durability::{DurabilityConfig, Durable, MemStorage, Storage};
use std::sync::Arc;
use std::time::Instant;

struct Args {
    n: usize,
    seed: u64,
    check: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        n: 2_000_000,
        seed: 0xB00C,
        check: false,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        let take = |i: usize| argv.get(i + 1).and_then(|v| v.parse::<u64>().ok());
        match argv[i].as_str() {
            "--n" => {
                if let Some(v) = take(i) {
                    a.n = v as usize;
                    i += 1;
                }
            }
            "--seed" => {
                if let Some(v) = take(i) {
                    a.seed = v;
                    i += 1;
                }
            }
            "--check" => a.check = true,
            "--quick" => a.n = a.n.min(200_000),
            "--help" | "-h" => {
                eprintln!("options: --n <entries> --seed <u64> --quick --check");
                std::process::exit(0);
            }
            other => eprintln!("ignoring unknown option {other}"),
        }
        i += 1;
    }
    a
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn main() {
    let args = parse_args();
    let n = args.n;
    // 120-entry leaves: the largest geometry whose encoded u64/u64 nodes
    // fit a 4 KiB page (paper-default 510 would need ~8 KiB pages). The
    // arena baseline uses the same geometry so the overhead is pool-only.
    let base = TreeConfig::small(120);

    // --- Size the pool off the real working set -----------------------
    // An identical in-memory build tells us how many nodes n sorted keys
    // settle into with this geometry; the pool gets 1/8 of that.
    let mut sizing: BpTree<u64, u64> = BpTree::with_config(FastPathMode::Pole, base.clone());
    let t0 = Instant::now();
    for k in 0..n as u64 {
        sizing.insert(k, k);
    }
    let arena_ns = t0.elapsed().as_nanos() as f64 / n as f64;
    let working_set = sizing.node_count();
    let pool_pages = (working_set / 8).max(8);
    drop(sizing);
    println!(
        "pool bench: N={n} sorted keys -> {working_set} nodes; pool budget {pool_pages} pages \
         (1/8 working set)"
    );

    let config = base.with_storage(StorageKind::paged(pool_pages));
    let page_size = match config.storage {
        StorageKind::Paged { page_size, .. } => page_size,
        StorageKind::Arena => unreachable!(),
    };

    // --- Sorted ingest through the 1/8 pool ---------------------------
    // The paper's fast-path regime: every insert lands on the rightmost
    // leaf, so the hot spine stays resident and the pool only faults when
    // a leaf fills and retires. This is the ≥ 90% hit-rate bar.
    let mut tree: BpTree<u64, u64> = BpTree::with_config(FastPathMode::Pole, config.clone());
    let t0 = Instant::now();
    for k in 0..n as u64 {
        tree.insert(k, k);
    }
    let paged_ns = t0.elapsed().as_nanos() as f64 / n as f64;
    let ingest = tree.metrics();
    let ingest_hit_rate = ingest.pool_hit_rate();
    let resident = tree.resident_nodes();
    let resident_bound = pool_pages + 2 * (tree.height() + 2);
    let resident_bytes = resident * page_size;
    println!(
        "  sorted ingest: {paged_ns:.1} ns/insert ({arena_ns:.1} arena, {:.2}x), \
         hit rate {:.4}, {} faults, {} evictions, {resident}/{} resident \
         (~{} KiB pool RSS)",
        paged_ns / arena_ns,
        ingest_hit_rate,
        ingest.page_faults,
        ingest.page_evictions,
        tree.node_count(),
        resident_bytes >> 10,
    );

    // --- Random point reads under pressure ----------------------------
    // Uniform gets over the full key space have no locality: with 1/8
    // residency most leaf visits fault, so this phase prices a miss-heavy
    // pool (the spine still hits). `&self` reads fault without evicting,
    // so residency is trimmed back to budget every 1k gets — otherwise
    // the read burst would quietly cache the whole tree.
    let reads = (n / 10).max(1);
    tree.trim_residency();
    let before = tree.metrics();
    let mut rng = args.seed;
    let t0 = Instant::now();
    let mut found = 0usize;
    for i in 0..reads {
        if tree.get(splitmix(&mut rng) % n as u64).is_some() {
            found += 1;
        }
        if i % 1024 == 1023 {
            tree.trim_residency();
        }
    }
    let read_ns = t0.elapsed().as_nanos() as f64 / reads as f64;
    let after = tree.metrics();
    let read_faults = after.page_faults - before.page_faults;
    let read_hits = after.pool_hits - before.pool_hits;
    let read_hit_rate = read_hits as f64 / (read_hits + read_faults).max(1) as f64;
    assert_eq!(found, reads, "every sampled key was inserted");
    println!(
        "  random reads:  {read_ns:.1} ns/get, hit rate {read_hit_rate:.4}, {read_faults} faults"
    );

    // --- Full scan -----------------------------------------------------
    // One pass over every leaf: the pool can at best keep the spine, so
    // the fault count approaches the leaf count — the worst case the pool
    // must survive with bounded residency (after the post-scan trim).
    tree.trim_residency();
    let before = tree.metrics();
    let t0 = Instant::now();
    let scanned = tree.range(..).count();
    let scan_ms = t0.elapsed().as_secs_f64() * 1e3;
    let after = tree.metrics();
    let scan_faults = after.page_faults - before.page_faults;
    assert_eq!(scanned, n, "scan must see every entry");
    tree.trim_residency();
    let resident_after_scan = tree.resident_nodes();
    println!(
        "  full scan:     {scan_ms:.1} ms, {scan_faults} faults, {resident_after_scan} resident \
         after trim"
    );

    // --- Checkpoint, then lazy reopen ----------------------------------
    // The same keys through the durable paged stack: `checkpoint_paged`
    // serializes every live page into one image, `open_paged` reads it
    // back, verifies every page CRC in one sweep and indexes it — and
    // decodes nothing but the nodes the fast path re-arms on. Best of
    // three reopens: the bar is about the byte path, not scheduler noise.
    let disk = Arc::new(MemStorage::new());
    let open = || {
        Durable::<BpTree<u64, u64>>::open_paged(
            disk.clone() as Arc<dyn Storage>,
            DurabilityConfig::buffered(),
            FastPathMode::Pole,
            config.clone(),
        )
        .expect("open paged store")
    };
    let (mut db, _) = open();
    let entries: Vec<(u64, u64)> = (0..n as u64).map(|k| (k, k)).collect();
    for batch in entries.chunks(4096) {
        db.insert_batch(batch);
    }
    let t0 = Instant::now();
    db.checkpoint_paged().expect("checkpoint");
    let ckpt_ms = t0.elapsed().as_secs_f64() * 1e3;
    let height = db.inner().height();
    drop(db);
    let image_bytes: usize = disk
        .list()
        .expect("list")
        .iter()
        .filter(|name| name.starts_with("psnap-"))
        .map(|name| disk.read(name).expect("read snapshot").len())
        .sum();
    let mut reopen_ms = f64::INFINITY;
    let mut reopen_decoded = 0;
    for _ in 0..3 {
        let t0 = Instant::now();
        let (db, report) = open();
        reopen_ms = reopen_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(report.snapshot_entries, n, "reopen sees every entry");
        reopen_decoded = db.inner().metrics().page_faults;
    }
    let image_mb = image_bytes as f64 / 1e6;
    let (ckpt_mb_s, reopen_mb_s) = (image_mb / ckpt_ms * 1e3, image_mb / reopen_ms * 1e3);
    println!(
        "  checkpoint:    {ckpt_ms:.1} ms for a {image_mb:.1} MB image ({ckpt_mb_s:.0} MB/s); \
         reopen {reopen_ms:.1} ms ({reopen_mb_s:.0} MB/s verified), {reopen_decoded} nodes decoded \
         (height {height})"
    );

    let json = format!(
        "{{\"n\":{n},\"working_set_nodes\":{working_set},\"pool_pages\":{pool_pages},\
         \"page_size\":{page_size},\
         \"ingest\":{{\"arena_ns_per_insert\":{arena_ns:.1},\"paged_ns_per_insert\":{paged_ns:.1},\
         \"hit_rate\":{ingest_hit_rate:.4},\"page_faults\":{},\"evictions\":{},\
         \"resident_nodes\":{resident},\"resident_bytes\":{resident_bytes}}},\
         \"random_reads\":{{\"reads\":{reads},\"ns_per_get\":{read_ns:.1},\
         \"hit_rate\":{read_hit_rate:.4},\"page_faults\":{read_faults}}},\
         \"scan\":{{\"ms\":{scan_ms:.1},\"page_faults\":{scan_faults},\
         \"resident_nodes\":{resident_after_scan}}},\
         \"checkpoint_reopen\":{{\"image_bytes\":{image_bytes},\"checkpoint_ms\":{ckpt_ms:.1},\
         \"checkpoint_mb_per_s\":{ckpt_mb_s:.0},\"reopen_ms\":{reopen_ms:.1},\
         \"reopen_mb_per_s\":{reopen_mb_s:.0},\"reopen_nodes_decoded\":{reopen_decoded},\
         \"height\":{height}}}}}",
        ingest.page_faults, ingest.page_evictions,
    );
    assert!(json_is_valid(&json), "emitted document must be valid JSON");
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/pool.json", &json).expect("write results/pool.json");
    println!("wrote results/pool.json ({} bytes)", json.len());

    if args.check {
        assert!(
            tree.node_count() >= 8 * pool_pages,
            "working set ({} nodes) must dwarf the pool ({pool_pages} pages)",
            tree.node_count()
        );
        assert!(
            resident <= resident_bound && resident_after_scan <= resident_bound,
            "residency must stay bounded: {resident} / {resident_after_scan} resident vs \
             pool {pool_pages} + pin-set bound {resident_bound}"
        );
        assert!(
            ingest.page_evictions > 0,
            "a 1/8 pool must evict during ingest"
        );
        assert!(
            ingest_hit_rate >= 0.90,
            "sorted ingest hit rate {ingest_hit_rate:.4} below the 0.90 bar"
        );
        assert!(
            reopen_mb_s >= 400.0,
            "reopen verified the image at {reopen_mb_s:.0} MB/s, below the 400 MB/s bar"
        );
        assert!(
            reopen_decoded as usize <= height + 1,
            "reopen decoded {reopen_decoded} nodes; only the tail spine and the poℓe's \
             predecessor leaf (<= height {height} + 1) may fault in"
        );
        println!(
            "check passed: hit rate {ingest_hit_rate:.4} (bar 0.90), residency {resident} <= \
             {resident_bound}, {} evictions, working set {}x pool",
            ingest.page_evictions,
            tree.node_count() / pool_pages
        );
    }
}
