//! The in-bench model every reply is checked against, the seeded inputs,
//! and the scratch directories the real-file probes write to.

use crate::spec::Sizes;
use crate::trace::Tracer;
use bods::BodsSpec;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub type Model = BTreeMap<u64, u64>;

/// What one pass of one workload runs with.
pub struct Ctx<'a> {
    pub seed: u64,
    pub sizes: Sizes,
    pub tracer: &'a mut Tracer,
}

/// The value stored under `key`: a fixed mix of the key and the run's
/// seed, so a reply can only match the model by being the right entry.
pub fn value_of(key: u64, seed: u64) -> u64 {
    (key ^ seed)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
}

/// `keys` with their seeded values, as the batch APIs take them.
pub fn entries(keys: &[u64], seed: u64) -> Vec<(u64, u64)> {
    keys.iter().map(|&k| (k, value_of(k, seed))).collect()
}

/// `num / den`, or 0 when nothing was counted (a bypassed layer).
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// How often a workload generates its inputs.
pub const GENERATIONS: usize = 5;

/// Runs `generate` [`GENERATIONS`] times, keeps the last result (the inputs
/// are a function of the seed alone) and returns it with the median time in
/// seconds: a step this short, timed once, reads the host's mood.
pub fn generate_timed<T>(mut generate: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(GENERATIONS);
    let mut last = None;
    for _ in 0..GENERATIONS {
        // The previous copy goes first: two at once would only add paging.
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(generate());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one generation"),
        crate::stats::median(&times),
    )
}

/// Derives an independent seed for one purpose (`lane`) of a run.
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(lane.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A BoDS stream: a permutation of `base..base + n` with `k` of its
/// entries out of place by at most `l` of its length.
pub fn stream(n: usize, k: f64, l: f64, base: u64, seed: u64) -> Vec<u64> {
    BodsSpec::new(n, k, l)
        .with_seed(seed)
        .generate_from_base(&mut (base..base + n as u64))
}

/// `count` keys drawn uniformly from `lo..hi`.
pub fn uniform_keys(lo: u64, hi: u64, count: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| rng.gen_range(lo..hi)).collect()
}

/// The model after inserting `keys`: sorted once and bulk-built, which is
/// an order of magnitude cheaper than inserting a scrambled stream.
pub fn model_of(keys: &[u64], seed: u64) -> Model {
    let mut entries = entries(keys, seed);
    entries.sort_unstable();
    entries.into_iter().collect()
}

/// What a range scan must return, without keeping the entries: how many,
/// a digest of the keys and values, and whether they came back in key
/// order. Cheap enough (a multiply and two adds per entry) to compute
/// inside a timed scan loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanDigest {
    pub count: u64,
    pub digest: u64,
    pub ordered: bool,
    last: u64,
}

impl Default for ScanDigest {
    fn default() -> Self {
        ScanDigest {
            count: 0,
            digest: 0,
            ordered: true,
            last: 0,
        }
    }
}

impl ScanDigest {
    #[inline]
    pub fn push(&mut self, key: u64, value: u64) {
        self.count += 1;
        self.digest = self
            .digest
            .wrapping_add(key.wrapping_mul(0x100_0000_01B3) ^ value);
        self.ordered &= key >= self.last;
        self.last = key;
    }

    pub fn of(entries: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut d = ScanDigest::default();
        for (k, v) in entries {
            d.push(k, v);
        }
        d
    }

    /// Whether a scan that produced `self` returned what the model says
    /// (`expected` is built from the model, so it is ordered).
    pub fn matches(&self, expected: &ScanDigest) -> bool {
        self.ordered && self.count == expected.count && self.digest == expected.digest
    }
}

/// Bytes of every file a storage backend currently holds.
pub fn stored_bytes(storage: &dyn quit_durability::Storage) -> u64 {
    storage.list().map_or(0, |files| {
        files
            .iter()
            .map(|f| storage.read(f).map_or(0, |bytes| bytes.len() as u64))
            .sum()
    })
}

/// A directory under `out_dir` that is removed when dropped.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(out_dir: &Path, label: &str) -> std::io::Result<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir.join(format!(
            "tmp-{}-{label}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = stream(10_000, 0.05, 0.05, 100, sub_seed(7, 1));
        let b = stream(10_000, 0.05, 0.05, 100, sub_seed(7, 1));
        let c = stream(10_000, 0.05, 0.05, 100, sub_seed(8, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(sub_seed(7, 1), sub_seed(7, 2));
        assert_eq!(uniform_keys(0, 50, 100, 3), uniform_keys(0, 50, 100, 3));
        assert_ne!(uniform_keys(0, 50, 100, 3), uniform_keys(0, 50, 100, 4));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (100..10_100).collect::<Vec<u64>>());
    }

    #[test]
    fn model_holds_every_key_with_its_seeded_value() {
        let keys = stream(1_000, 1.0, 1.0, 0, 5);
        let model = model_of(&keys, 9);
        assert_eq!(model.len(), 1_000);
        assert_eq!(model[&17], value_of(17, 9));
        assert_ne!(value_of(17, 9), value_of(17, 10));
    }

    #[test]
    fn scan_digest_is_order_and_content_sensitive() {
        let a = ScanDigest::of([(1, 10), (2, 20)]);
        assert!(ScanDigest::of([(1, 10), (2, 20)]).matches(&a));
        assert!(!ScanDigest::of([(2, 20), (1, 10)]).matches(&a));
        assert!(!ScanDigest::of([(1, 10), (2, 21)]).matches(&a));
        assert!(!ScanDigest::of([(1, 10)]).matches(&a));
        assert_eq!(a.count, 2);
    }
}
