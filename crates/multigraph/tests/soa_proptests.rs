//! Property-based tests for the struct-of-arrays round engine: it must
//! agree with the retired array-of-structs reference simulator under
//! history-resolving execution equality — with the exact same number of
//! interned histories, so the hash-consing bounds proved elsewhere
//! transfer to the engine unchanged — on small arbitrary multigraphs,
//! at the dense-path `k` boundary, on large random populations and on
//! the Lemma 5 twins.

use anonet_multigraph::adversary::TwinBuilder;
use anonet_multigraph::simulate::{simulate, simulate_reference};
use anonet_multigraph::{DblMultigraph, LabelSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_labelset() -> impl Strategy<Value = LabelSet> {
    prop_oneof![Just(LabelSet::L1), Just(LabelSet::L2), Just(LabelSet::L12)]
}

/// Small arbitrary multigraphs: every label-set pattern is reachable.
fn arb_multigraph() -> impl Strategy<Value = DblMultigraph> {
    (1usize..12, 1usize..6).prop_flat_map(|(nodes, rounds)| {
        proptest::collection::vec(proptest::collection::vec(arb_labelset(), nodes), rounds)
            .prop_map(|r| DblMultigraph::new(2, r).unwrap())
    })
}

/// Seeded random multigraphs at a population far above the small
/// strategy's (every label set occurs thousands of times per round).
fn big_multigraph(nodes: usize, rounds: usize, seed: u64) -> DblMultigraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let sets = [LabelSet::L1, LabelSet::L2, LabelSet::L12];
    let per_round: Vec<Vec<LabelSet>> = (0..rounds)
        .map(|_| (0..nodes).map(|_| sets[rng.gen_range(0..3)]).collect())
        .collect();
    DblMultigraph::new(2, per_round).expect("valid by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50))]

    /// The engine vs the retired reference simulator on small arbitrary
    /// multigraphs: equal executions (resolved histories), equal
    /// delivery bytes per round, equal interning.
    #[test]
    fn engine_matches_reference(m in arb_multigraph(), rounds in 1usize..6) {
        let engine = simulate(&m, rounds);
        let reference = simulate_reference(&m, rounds);
        // Raw handle values may differ (the reference interns children
        // in node order, the engine in canonical rank order) — what
        // must agree is the resolved execution and the interning count.
        prop_assert_eq!(&engine, &reference);
        prop_assert_eq!(engine.arena.interned(), reference.arena.interned());
    }

    /// The `k = 6` dense-path boundary: `MAX_DENSE_K = 6` is the last
    /// label budget routed through the dense `(rank, label-set)`
    /// histogram, so masks range over the full `1..=63` slot space —
    /// the exact indexing the cast audit in `soa.rs` centralizes in
    /// `pair_slot`. Engine and reference must agree,
    /// and `k = 7` (one past the boundary, the generic sort path) must
    /// produce the same resolved execution as `k = 6` on the same rows.
    #[test]
    fn dense_path_k6_boundary_matches_reference(
        (nodes, rounds) in (1usize..10, 1usize..4),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<LabelSet>> = (0..rounds)
            .map(|_| {
                (0..nodes)
                    .map(|_| LabelSet::from_mask(rng.gen_range(1u32..64), 6).unwrap())
                    .collect()
            })
            .collect();
        let m6 = DblMultigraph::new(6, rows.clone()).unwrap();
        let m7 = DblMultigraph::new(7, rows).unwrap();
        let engine = simulate(&m6, rounds);
        let reference = simulate_reference(&m6, rounds);
        prop_assert_eq!(&engine, &reference);
        prop_assert_eq!(engine.arena.interned(), reference.arena.interned());
        // One past the boundary: same rows through the sparse path.
        let sparse = simulate(&m7, rounds);
        prop_assert_eq!(&engine, &sparse);
        prop_assert_eq!(engine.arena.interned(), sparse.arena.interned());
    }

    /// The worst-case Lemma 5 twin executions: engine and reference
    /// agree end to end.
    #[test]
    fn twin_executions_agree_across_representations(n in 1u64..200) {
        let pair = TwinBuilder::new().build(n).expect("twin construction");
        let rounds = pair.horizon as usize + 2;
        for m in [&pair.smaller, &pair.larger] {
            let engine = simulate(m, rounds);
            let reference = simulate_reference(m, rounds);
            prop_assert_eq!(&engine, &reference);
            prop_assert_eq!(engine.arena.interned(), reference.arena.interned());
        }
    }

    /// 20 000-node random multigraphs: the engine vs the reference
    /// simulator, the same oracle as `engine_matches_reference` at a
    /// population where every history run holds thousands of nodes.
    #[test]
    fn engine_matches_reference_large(seed in 0u64..50, rounds in 1usize..4) {
        let m = big_multigraph(20_000, rounds, seed);
        let engine = simulate(&m, rounds);
        let reference = simulate_reference(&m, rounds);
        prop_assert_eq!(&engine, &reference);
        prop_assert_eq!(engine.arena.interned(), reference.arena.interned());
    }
}
