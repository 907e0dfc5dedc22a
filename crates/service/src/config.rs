//! Service configuration: one struct embedding the shards' tree config
//! (`TreeConfig`, for each shard's `BpTree`), the durability policy
//! (`DurabilityConfig`, which carries the [`DurabilityLevel`]), and the
//! service's own knobs.

use quit_core::{Error, Result, StorageKind, TreeConfig};
use quit_durability::{DurabilityConfig, DurabilityLevel};

/// Everything a [`crate::Server`] needs: shard count, per-shard tree
/// geometry, per-shard durability policy, and router batching.
///
/// Follows the workspace's config idiom (`TreeConfig`):
/// constructors for the common cases, `with_*` builders for the rest —
/// but [`validate`](Self::validate) returns [`quit_core::Error`] instead
/// of panicking, because service configs arrive from CLIs and scripts,
/// not compile-time constants.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of range-partitioned shards (each owns a
    /// `Durable<BpTree>` and its own WAL directory).
    pub shards: usize,
    /// Per-shard tree geometry and fast-path policy. Storage must be
    /// [`StorageKind::Arena`].
    pub tree: TreeConfig,
    /// Per-shard WAL policy; `durability.level` is the
    /// [`DurabilityLevel`] every mutation buys before its reply.
    pub durability: DurabilityConfig,
    /// Router flush threshold: a shard worker's run of consecutive single
    /// inserts is applied once it reaches this many entries (and before
    /// any other request, and at the end of each burst).
    pub batch_max: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl ServiceConfig {
    /// Paper-default trees, group-commit durability, 4 shards.
    pub fn paper_default() -> Self {
        ServiceConfig {
            shards: 4,
            tree: TreeConfig::paper_default(),
            durability: DurabilityConfig::group_commit(),
            batch_max: 1024,
        }
    }

    /// Small trees that split often — for tests.
    pub fn small(shards: usize) -> Self {
        ServiceConfig {
            shards,
            tree: TreeConfig::small(16),
            durability: DurabilityConfig::group_commit(),
            batch_max: 64,
        }
    }

    /// Builder-style override of the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builder-style override of the per-shard tree config.
    pub fn with_tree(mut self, tree: TreeConfig) -> Self {
        self.tree = tree;
        self
    }

    /// Builder-style override of the per-shard durability config.
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = durability;
        self
    }

    /// Builder-style override of just the durability level.
    pub fn with_level(mut self, level: DurabilityLevel) -> Self {
        self.durability = self.durability.with_level(level);
        self
    }

    /// Builder-style override of the router flush threshold.
    pub fn with_batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max;
        self
    }

    /// Checks the configuration, returning [`Error::Config`] naming the
    /// first offending field. The tree config is checked by
    /// [`TreeConfig::validate`], and its storage must be the arena: a shard
    /// is an in-memory tree rebuilt from its WAL directory on start.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(Error::config("shards must be at least 1"));
        }
        if self.shards > u32::MAX as usize {
            return Err(Error::config("shards must fit in u32"));
        }
        if self.batch_max == 0 {
            return Err(Error::config("batch_max must be at least 1"));
        }
        self.tree.validate()?;
        if self.tree.storage != StorageKind::Arena {
            return Err(Error::config(
                "tree.storage: service shards support only StorageKind::Arena; \
                 for paged storage use Durable::open_paged",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ServiceConfig::paper_default().validate().unwrap();
        ServiceConfig::small(1).validate().unwrap();
    }

    #[test]
    fn bad_configs_name_the_field() {
        let e = ServiceConfig::paper_default()
            .with_shards(0)
            .validate()
            .unwrap_err();
        assert_eq!(e.kind(), "config");
        assert!(e.to_string().contains("shards"));
        let e = ServiceConfig::paper_default()
            .with_batch_max(0)
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("batch_max"));
    }

    #[test]
    fn level_override_reaches_durability() {
        let c = ServiceConfig::paper_default().with_level(DurabilityLevel::Buffered);
        assert_eq!(c.durability.level, DurabilityLevel::Buffered);
    }
}
