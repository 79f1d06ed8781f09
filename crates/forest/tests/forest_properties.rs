//! Property-style tests for the block forest invariants.
//!
//! Randomised forests are generated from the workspace's own deterministic
//! [`SimRng`] over a grid of seeds (no external property-testing framework),
//! so every failure is reproducible from the printed seed.

use bamboo_forest::BlockForest;
use bamboo_sim::SimRng;
use bamboo_types::{Block, BlockId, NodeId, QuorumCert, SimTime, Transaction, View};

/// Builds a random forest from a seed: at each step pick a random existing
/// block and extend it, occasionally certifying blocks.
fn build_random_forest(seed: u64, steps: usize) -> (BlockForest, Vec<BlockId>) {
    let mut rng = SimRng::new(seed);
    let mut forest = BlockForest::new();
    let mut ids = vec![BlockId::GENESIS];
    for view in 1..=steps as u64 {
        let parent_id = ids[rng.choose_index(ids.len())];
        let parent = forest.get(parent_id).unwrap().clone();
        let block = Block::new(
            View(view),
            parent.height.next(),
            parent_id,
            NodeId(view % 4),
            QuorumCert::genesis(),
            vec![Transaction::new(NodeId(0), view, 4, SimTime::ZERO)],
        );
        let id = block.id;
        forest.insert(block).unwrap();
        ids.push(id);
        if rng.chance(0.6) {
            let qc = QuorumCert {
                block: id,
                view: View(view),
                signatures: Default::default(),
            };
            forest.register_qc(qc).unwrap();
        }
    }
    (forest, ids)
}

/// The seed/size grid every invariant is checked over.
fn cases() -> impl Iterator<Item = (u64, usize)> {
    (0u64..64).map(|seed| {
        let steps = 1 + (seed as usize * 7) % 60;
        (seed, steps)
    })
}

/// Every stored block's height is exactly its parent's height + 1, and every
/// non-genesis block extends genesis.
#[test]
fn heights_are_parent_plus_one() {
    for (seed, steps) in cases() {
        let (forest, ids) = build_random_forest(seed, steps);
        for id in &ids {
            let block = forest.get(*id).unwrap();
            if !block.is_genesis() {
                let parent = forest.get(block.parent).unwrap();
                assert_eq!(
                    block.height.as_u64(),
                    parent.height.as_u64() + 1,
                    "seed {seed}"
                );
                assert!(forest.extends(*id, BlockId::GENESIS), "seed {seed}");
            }
        }
    }
}

/// `extends` is reflexive and transitive along sampled ancestry chains.
#[test]
fn extends_is_reflexive_and_transitive() {
    for (seed, steps) in cases() {
        let steps = steps.max(2);
        let (forest, ids) = build_random_forest(seed, steps);
        for id in &ids {
            assert!(forest.extends(*id, *id), "seed {seed}");
            let block = forest.get(*id).unwrap();
            if !block.is_genesis() {
                let parent = forest.get(block.parent).unwrap();
                if !parent.is_genesis() {
                    assert!(forest.extends(*id, parent.parent), "seed {seed}");
                }
            }
        }
    }
}

/// The `k`-chain predicate agrees with a brute-force walk over parent links
/// for k = 1..=4, with and without view adjacency, from every block.
#[test]
fn certified_chain_matches_a_brute_force_walk() {
    let brute = |forest: &BlockForest, tip: BlockId, k: usize, adjacent: bool| {
        let mut chain = vec![forest.get(tip).unwrap()];
        while chain.len() < k {
            let last = chain[chain.len() - 1];
            if last.is_genesis() {
                return None;
            }
            chain.push(forest.get(last.parent).unwrap());
        }
        let linked = chain.iter().all(|b| forest.is_certified(b.id))
            && chain
                .windows(2)
                .all(|pair| !adjacent || pair[0].view.as_u64() == pair[1].view.as_u64() + 1);
        linked.then(|| chain[k - 1].id)
    };
    let mut hits = [0usize; 2];
    for (seed, steps) in cases() {
        let (forest, ids) = build_random_forest(seed, steps);
        for id in &ids {
            for k in 1..=4 {
                for adjacent in [false, true] {
                    let got = forest.certified_chain(*id, k, adjacent).map(|b| b.id);
                    assert_eq!(
                        got,
                        brute(&forest, *id, k, adjacent),
                        "seed {seed} k {k} adjacent {adjacent}"
                    );
                    hits[usize::from(adjacent)] += usize::from(got.is_some() && k > 1);
                }
            }
        }
    }
    assert!(
        hits[0] > hits[1] && hits[1] > 0,
        "both variants exercised: {hits:?}"
    );
}

/// Committing the deepest certified block and pruning preserves exactly the
/// committed chain plus blocks above the horizon, and forked blocks returned
/// by pruning are never on the committed chain.
#[test]
fn prune_preserves_committed_chain() {
    for (seed, steps) in cases() {
        let steps = steps.max(5);
        let (mut forest, ids) = build_random_forest(seed, steps);
        // Commit the highest block (any leaf works for the invariant).
        let deepest = ids
            .iter()
            .max_by_key(|id| forest.get(**id).unwrap().height)
            .copied()
            .unwrap();
        let committed = forest.commit(deepest).unwrap();
        let committed_ids: Vec<BlockId> = committed.iter().map(|b| b.id).collect();
        let forked = forest.prune_to_committed();
        for f in &forked {
            assert!(
                !committed_ids.contains(&f.id),
                "seed {seed}: forked block was committed"
            );
        }
        // The committed head must survive pruning.
        assert!(forest.contains(deepest), "seed {seed}");
        // Everything still stored is either the head, above the horizon, or
        // genesis.
        let horizon = forest.prune_horizon();
        for block in forest.iter() {
            assert!(
                block.id == deepest || block.height >= horizon || block.is_genesis(),
                "seed {seed}: block {} below horizon survived",
                block.id
            );
        }
    }
}

/// Stats are internally consistent.
#[test]
fn stats_are_consistent() {
    for (seed, steps) in cases() {
        let (forest, _) = build_random_forest(seed, steps);
        let stats = forest.stats();
        assert_eq!(stats.stored_blocks, forest.len(), "seed {seed}");
        assert!(stats.max_height as usize <= steps, "seed {seed}");
        assert_eq!(stats.committed_blocks, 0, "seed {seed}");
    }
}
