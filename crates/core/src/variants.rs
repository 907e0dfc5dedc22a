//! The five index variants of the paper's evaluation (§5), built from one
//! shared tree platform so comparisons are apples-to-apples.

use crate::config::TreeConfig;
use crate::fastpath::FastPathMode;
use crate::key::Key;
use crate::tree::BpTree;

/// Identifies an index design from the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Textbook B+-tree: top-inserts only.
    Classic,
    /// B+-tree with the tail-leaf fast path ("tail-B+-tree").
    Tail,
    /// B+-tree with the last-insertion-leaf fast path ("ℓiℓ-B+-tree").
    Lil,
    /// poℓe fast path *without* variable split / redistribute / reset
    /// ("poℓe-B+-tree", the ablation of Fig 12).
    PoleOnly,
    /// The full Quick Insertion Tree.
    Quit,
}

impl Variant {
    /// Every variant, in the order the paper's figures list them.
    pub const ALL: [Variant; 5] = [
        Variant::Classic,
        Variant::Tail,
        Variant::Lil,
        Variant::PoleOnly,
        Variant::Quit,
    ];

    /// The display name the paper uses.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Classic => "B+-tree",
            Variant::Tail => "tail-B+-tree",
            Variant::Lil => "lil-B+-tree",
            Variant::PoleOnly => "pole-B+-tree",
            Variant::Quit => "QuIT",
        }
    }

    /// Fast-path mode for this variant.
    pub fn mode(self) -> FastPathMode {
        match self {
            Variant::Classic => FastPathMode::None,
            Variant::Tail => FastPathMode::Tail,
            Variant::Lil => FastPathMode::Lil,
            Variant::PoleOnly | Variant::Quit => FastPathMode::Pole,
        }
    }

    /// Adjusts `config`'s QuIT feature toggles for this variant: only the
    /// full QuIT enables variable split, redistribution, and reset.
    pub fn configure(self, mut config: TreeConfig) -> TreeConfig {
        if self != Variant::Quit {
            config.variable_split = false;
            config.redistribute = false;
            config.reset_threshold = None;
        }
        config
    }

    /// Builds an empty index of this variant.
    pub fn build<K: Key, V: 'static>(self, config: TreeConfig) -> BpTree<K, V> {
        BpTree::with_config(self.mode(), self.configure(config))
    }
}

/// Convenience constructors mirroring [`Variant`].
impl<K: Key, V: 'static> BpTree<K, V> {
    /// A classical B+-tree with paper-default geometry.
    pub fn classic() -> Self {
        Variant::Classic.build(TreeConfig::paper_default())
    }

    /// A full Quick Insertion Tree with paper-default geometry.
    pub fn quit() -> Self {
        Variant::Quit.build(TreeConfig::paper_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_configuration() {
        let base = TreeConfig::paper_default();
        let quit = Variant::Quit.configure(base.clone());
        assert!(quit.variable_split && quit.redistribute);
        assert!(quit.reset_threshold.is_some());
        let pole = Variant::PoleOnly.configure(base.clone());
        assert!(!pole.variable_split && !pole.redistribute);
        assert_eq!(pole.reset_threshold, None);
        assert_eq!(Variant::Tail.mode(), FastPathMode::Tail);
        assert_eq!(Variant::Classic.mode(), FastPathMode::None);
    }

    #[test]
    fn constructors_build_working_trees() {
        let mut trees: Vec<BpTree<u64, u64>> = Variant::ALL
            .iter()
            .map(|v| v.build(TreeConfig::paper_default()))
            .collect();
        assert_eq!(BpTree::<u64, u64>::classic().mode(), FastPathMode::None);
        assert_eq!(BpTree::<u64, u64>::quit().config(), trees[4].config());
        for t in &mut trees {
            for k in 0..100u64 {
                t.insert(k, k);
            }
            assert_eq!(t.len(), 100);
            assert_eq!(t.get(50), Some(&50));
            t.check_invariants().unwrap();
        }
        // Only the non-classic variants fast-insert.
        assert_eq!(trees[0].stats().fast_inserts.get(), 0);
        for t in &trees[1..] {
            assert_eq!(t.stats().fast_inserts.get(), 100);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Variant::Quit.name(), "QuIT");
        assert_eq!(Variant::ALL.len(), 5);
    }
}
