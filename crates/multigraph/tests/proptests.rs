//! Property-based tests for the `M(DBL)_2` lower-bound machinery.

use anonet_multigraph::adversary::{indistinguishability_horizon, TwinBuilder};
use anonet_multigraph::system::{self, kernel_vector, solve_census};
use anonet_multigraph::{
    Census, DblMultigraph, History, HistoryArena, LabelSet, LeaderState, Observations,
};
use proptest::prelude::*;

fn arb_labelset() -> impl Strategy<Value = LabelSet> {
    prop_oneof![Just(LabelSet::L1), Just(LabelSet::L2), Just(LabelSet::L12)]
}

fn arb_multigraph() -> impl Strategy<Value = DblMultigraph> {
    (1usize..6, 1usize..5).prop_flat_map(|(nodes, rounds)| {
        proptest::collection::vec(proptest::collection::vec(arb_labelset(), nodes), rounds)
            .prop_map(|r| DblMultigraph::new(2, r).unwrap())
    })
}

proptest! {
    #[test]
    fn census_projection_commutes(m in arb_multigraph(), depth in 2usize..5) {
        // Census at depth d, projected, equals census at depth d-1.
        let c = Census::of_multigraph(&m, depth);
        let p = c.project().unwrap();
        prop_assert_eq!(p, Census::of_multigraph(&m, depth - 1));
        prop_assert_eq!(c.population() as usize, m.nodes());
    }

    #[test]
    fn realize_census_roundtrip(counts in proptest::collection::vec(0i64..4, 9)) {
        prop_assume!(counts.iter().sum::<i64>() > 0);
        let c = Census::from_counts(counts).unwrap();
        let m = c.realize().unwrap();
        prop_assert_eq!(Census::of_multigraph(&m, 2), c);
    }

    #[test]
    fn observations_are_matrix_times_census(m in arb_multigraph(), rounds in 1usize..4) {
        // m_r = M_r * s_r for the true census (the defining identity).
        let r = rounds - 1;
        let obs = Observations::observe(&m, rounds).unwrap();
        let mat = system::observation_matrix(r).unwrap();
        let census = Census::of_multigraph(&m, rounds);
        let prod = mat.mul_vec(census.counts()).unwrap();
        let flat: Vec<i128> = obs.flat().iter().map(|&x| x as i128).collect();
        prop_assert_eq!(prod, flat);
    }

    #[test]
    fn solver_line_contains_truth(m in arb_multigraph(), rounds in 1usize..4) {
        let obs = Observations::observe(&m, rounds).unwrap();
        let sol = solve_census(&obs).unwrap();
        let truth = Census::of_multigraph(&m, rounds);
        let (lo, hi) = sol.t_range().expect("real network is feasible");
        let found = (lo..=hi).any(|t| sol.at(t) == truth.counts());
        prop_assert!(found);
        // And every feasible point satisfies the system.
        let mat = system::observation_matrix(rounds - 1).unwrap();
        let flat: Vec<i128> = obs.flat().iter().map(|&x| x as i128).collect();
        for t in lo..=hi.min(lo + 3) {
            let s = sol.at(t);
            prop_assert!(s.iter().all(|&x| x >= 0));
            prop_assert_eq!(mat.mul_vec(&s).unwrap(), flat.clone());
        }
    }

    #[test]
    fn solver_kernel_is_lemma3_kernel(m in arb_multigraph(), rounds in 1usize..4) {
        let obs = Observations::observe(&m, rounds).unwrap();
        let sol = solve_census(&obs).unwrap();
        let k = kernel_vector(rounds - 1);
        prop_assert_eq!(sol.kernel(), k.as_slice());
        prop_assert_eq!(sol.depth(), rounds);
    }

    #[test]
    fn histories_sign_multiplicative(len in 0usize..6, idx in 0usize..200) {
        prop_assume!(idx < anonet_multigraph::ternary_count(len));
        let h = History::from_ternary_index(len, idx);
        // Appending {1} or {2} keeps the sign; {1,2} flips it.
        prop_assert_eq!(h.child(LabelSet::L1).sign(), h.sign());
        prop_assert_eq!(h.child(LabelSet::L2).sign(), h.sign());
        prop_assert_eq!(h.child(LabelSet::L12).sign(), -h.sign());
    }

    #[test]
    fn kernel_recursive_structure(r in 1usize..7) {
        // k_r = [k_{r-1}, k_{r-1}, -k_{r-1}] (Lemma 3).
        let k = kernel_vector(r);
        let prev = kernel_vector(r - 1);
        let third = k.len() / 3;
        prop_assert_eq!(&k[..third], prev.as_slice());
        prop_assert_eq!(&k[third..2 * third], prev.as_slice());
        let negated: Vec<i64> = prev.iter().map(|x| -x).collect();
        prop_assert_eq!(&k[2 * third..], negated.as_slice());
    }

    #[test]
    fn twins_agree_and_sizes_differ(n in 1u64..200) {
        let pair = TwinBuilder::new().build(n).unwrap();
        let rounds = pair.horizon as usize + 1;
        let s = LeaderState::observe(&pair.smaller, rounds);
        let sp = LeaderState::observe(&pair.larger, rounds);
        prop_assert_eq!(s, sp);
        prop_assert_eq!(pair.smaller.nodes() + 1, pair.larger.nodes());
        prop_assert_eq!(pair.horizon, indistinguishability_horizon(n).unwrap());
    }

    #[test]
    fn horizon_monotone(n in 1u64..100_000) {
        let h = indistinguishability_horizon(n).unwrap();
        let h2 = indistinguishability_horizon(n + 1).unwrap();
        prop_assert!(h2 >= h);
        prop_assert!(h2 <= h + 1);
        // Exact bound check: (3^{h+1} - 1)/2 <= n < (3^{h+2} - 1)/2.
        let lower = (3i128.pow(h + 1) - 1) / 2;
        let upper = (3i128.pow(h + 2) - 1) / 2;
        prop_assert!(lower <= n as i128 && (n as i128) < upper);
    }

    #[test]
    fn history_display_parse_roundtrip(len in 0usize..6, idx in 0usize..243) {
        prop_assume!(idx < anonet_multigraph::ternary_count(len));
        let h = History::from_ternary_index(len, idx);
        let parsed: History = h.to_string().parse().unwrap();
        prop_assert_eq!(parsed, h);
    }

    #[test]
    fn simulation_agrees_with_direct_observation(m in arb_multigraph(), rounds in 1usize..4) {
        use anonet_multigraph::simulate::{simulate, OnlineLeader};
        use anonet_multigraph::system::solve_census;

        let exec = simulate(&m, rounds);
        prop_assert_eq!(exec.leader_state(), LeaderState::observe(&m, rounds));

        // The online leader's solution line equals the batch solution.
        let mut leader = OnlineLeader::new();
        for round in &exec.rounds {
            let _ = leader.ingest(&exec.arena, round).unwrap();
        }
        let obs = Observations::observe(&m, rounds).unwrap();
        let batch = solve_census(&obs).unwrap();
        prop_assert_eq!(leader.solve().unwrap(), batch);
    }

    #[test]
    fn general_system_k2_identity(m in arb_multigraph(), rounds in 1usize..4) {
        use anonet_multigraph::system_k::GeneralSystem;
        // The general-k machinery specializes exactly to the k = 2 one.
        let sys = GeneralSystem::new(2).unwrap();
        let census = sys.census(&m, rounds).unwrap();
        let direct = Census::of_multigraph(&m, rounds);
        prop_assert_eq!(census.as_slice(), direct.counts());
        let obs = sys.observations(&m, rounds).unwrap();
        prop_assert_eq!(obs, Observations::observe(&m, rounds).unwrap().flat());
    }

    #[test]
    fn leader_state_determined_by_census(m in arb_multigraph(), rounds in 1usize..4) {
        // Any two multigraphs with the same depth-`rounds` census produce
        // identical leader states (anonymity!): permuting nodes is invisible.
        let census = Census::of_multigraph(&m, rounds);
        let m2 = census.realize().unwrap();
        prop_assert_eq!(
            LeaderState::observe(&m, rounds),
            LeaderState::observe(&m2, rounds)
        );
    }
}

/// Label sets over `k = 3`, so histories that are not ternary (and
/// masks above `0b11`) take part too.
fn arb_labelset_k3() -> impl Strategy<Value = LabelSet> {
    (1u32..8).prop_map(|mask| LabelSet::from_mask(mask, 3).unwrap())
}

proptest! {
    #[test]
    fn cmp_canonical_equals_mask_sequence_order(
        histories in proptest::collection::vec(
            proptest::collection::vec(arb_labelset_k3(), 0..6),
            1..10,
        ),
    ) {
        // Interning a history interns its prefixes, so the arena holds
        // pairs of unequal lengths, prefixes and shared stems.
        let mut arena = HistoryArena::new();
        for sets in histories {
            arena.intern(&History::new(sets));
        }
        for a in arena.ids() {
            for b in arena.ids() {
                prop_assert_eq!(
                    arena.cmp_canonical(a, b),
                    arena.masks(a).cmp(&arena.masks(b)),
                    "{:?} vs {:?}", arena.resolve(a), arena.resolve(b)
                );
            }
            let mut reversed: Vec<u32> = arena.masks_rev(a).collect();
            reversed.reverse();
            prop_assert_eq!(reversed, arena.masks(a));
        }
    }
}
