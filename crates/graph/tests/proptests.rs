//! Property-based tests for graphs, dynamic networks and metrics.

use anonet_graph::pd::{Pd2Layout, Pd2Schedule, PdError};
use anonet_graph::{
    generators, metrics, pd, ChainExtended, DynamicNetwork, Graph, GraphError, GraphSequence,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_edges(order: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..order, 0..order), 0..order * 2)
        .prop_map(|es| es.into_iter().filter(|(u, v)| u != v).collect())
}

proptest! {
    #[test]
    fn graph_invariants(order in 1usize..12, seed in arb_edges(11)) {
        let edges: Vec<_> = seed.into_iter().filter(|&(u, v)| u < order && v < order).collect();
        let g = Graph::from_edges(order, edges.clone()).unwrap();
        // Symmetry and degree sum.
        let degree_sum: usize = (0..order).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.size());
        for (u, v) in g.edges() {
            prop_assert!(u < v);
            prop_assert!(g.has_edge(v, u));
        }
        // BFS distances satisfy the triangle step: adjacent nodes differ by <= 1.
        let d = g.distances_from(0);
        for (u, v) in g.edges() {
            if let (Some(du), Some(dv)) = (d[u], d[v]) {
                prop_assert!(du.abs_diff(dv) <= 1);
            }
        }
    }

    #[test]
    fn random_connected_always_connected(order in 1usize..30, extra in 0usize..20, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(order, extra, &mut rng);
        prop_assert!(g.is_connected());
        prop_assert_eq!(g.order(), order);
    }

    #[test]
    fn flood_duration_bounded_by_order(order in 2usize..15, extra in 0usize..5, seed in any::<u64>()) {
        // On any connected static graph a flood completes within order-1 rounds.
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(order, extra, &mut rng);
        let mut net = GraphSequence::constant(g);
        let f = metrics::flood(&mut net, 0, 0, order as u32);
        prop_assert!(f.is_complete());
        prop_assert!(f.duration().unwrap() < order as u32 || order == 2);
    }

    #[test]
    fn flood_monotone_in_start_round_for_static(order in 2usize..10, seed in any::<u64>(), start in 0u32..5) {
        // Static networks: duration independent of the start round.
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(order, 2, &mut rng);
        let mut net = GraphSequence::constant(g);
        let d0 = metrics::flood(&mut net, 1, 0, 64).duration();
        let ds = metrics::flood(&mut net, 1, start, 64).duration();
        prop_assert_eq!(d0, ds);
    }

    #[test]
    fn random_pd2_distances(relays in 1usize..6, leaves in 1usize..12, seed in any::<u64>()) {
        let layout = pd::Pd2Layout { relays, leaves };
        let mut net = pd::RandomPd2::new(layout, StdRng::seed_from_u64(seed));
        let d = metrics::persistent_distances(&mut net, 8).unwrap();
        prop_assert_eq!(d[0], 0);
        for j in 0..relays { prop_assert_eq!(d[layout.relay(j)], 1); }
        for i in 0..leaves { prop_assert_eq!(d[layout.leaf(i)], 2); }
    }

    #[test]
    fn chain_extension_shifts_distances(chain in 0usize..6, leaves in 1usize..6, seed in any::<u64>()) {
        let layout = pd::Pd2Layout { relays: 2, leaves };
        let inner = pd::RandomPd2::new(layout, StdRng::seed_from_u64(seed));
        let mut net = ChainExtended::new(inner, chain);
        prop_assert_eq!(net.order(), layout.order() + chain);
        let d = metrics::persistent_distances(&mut net, 6).unwrap();
        // Chain nodes at distance = index; inner nodes shifted by chain.
        #[allow(clippy::needless_range_loop)]
        for i in 0..=chain { prop_assert_eq!(d[i], i as u32); }
        for j in 0..2 { prop_assert_eq!(d[chain + 1 + j], chain as u32 + 1); }
        for l in 0..leaves { prop_assert_eq!(d[chain + 3 + l], chain as u32 + 2); }
    }
}

/// The incremental reference build: `add_edge` folded over an empty
/// graph, stopping at the first invalid edge.
fn incremental(order: usize, edges: &[(usize, usize)]) -> Result<Graph, GraphError> {
    let mut g = Graph::empty(order);
    for &(u, v) in edges {
        g.add_edge(u, v)?;
    }
    Ok(g)
}

/// A `G(PD)_2` round graph built edge by edge with `add_edge`: the
/// leader–relay edges, then each leaf's relays, checking each leaf's
/// mask as it comes.
fn pd2_incremental(layout: Pd2Layout, masks: &[u32]) -> Result<Graph, PdError> {
    let mut g = Graph::empty(layout.order());
    for j in 0..layout.relays {
        g.add_edge(0, layout.relay(j))?;
    }
    for (i, &mask) in masks.iter().enumerate() {
        if mask == 0 {
            return Err(PdError::EmptyMask { leaf: i });
        }
        if mask >> layout.relays != 0 {
            return Err(PdError::MaskOutOfRange {
                leaf: i,
                mask,
                relays: layout.relays,
            });
        }
        for j in (0..layout.relays).filter(|j| mask & (1 << j) != 0) {
            g.add_edge(layout.relay(j), layout.leaf(i))?;
        }
    }
    Ok(g)
}

/// A layout with 1–5 relays and `leaves` leaves, and one round of masks
/// drawn from `0..1 << (relays + spill)`: `spill = 0` yields only
/// in-range masks (an empty one now and then), `spill = 1` out-of-range
/// ones as often as not.
fn arb_pd2_round(
    leaves: std::ops::Range<usize>,
    spill: usize,
) -> impl Strategy<Value = (Pd2Layout, Vec<u32>)> {
    (1usize..6, leaves).prop_flat_map(move |(relays, leaves)| {
        (
            Just(Pd2Layout { relays, leaves }),
            proptest::collection::vec(0u32..1 << (relays + spill), leaves),
        )
    })
}

proptest! {
    #[test]
    fn bulk_build_matches_incremental_on_any_edge_list(
        order in 0usize..10,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..24),
    ) {
        // Out-of-range nodes and self-loops: the same first error.
        prop_assert_eq!(Graph::from_edges(order, edges.clone()), incremental(order, &edges));
    }

    #[test]
    fn bulk_build_matches_incremental_on_valid_edge_lists(order in 1usize..12, seed in arb_edges(11)) {
        let edges: Vec<_> = seed.into_iter().filter(|&(u, v)| u < order && v < order).collect();
        // Every edge again, reversed: duplicates in both orientations.
        let doubled: Vec<_> = edges.iter().chain(edges.iter()).enumerate()
            .map(|(i, &(u, v))| if i < edges.len() { (u, v) } else { (v, u) })
            .collect();
        let reference = incremental(order, &edges).unwrap();
        prop_assert_eq!(Graph::from_edges(order, edges.clone()).unwrap(), reference.clone());
        prop_assert_eq!(Graph::from_edges(order, doubled.clone()).unwrap(), reference.clone());
        prop_assert_eq!(incremental(order, &doubled).unwrap(), reference);
    }

    #[test]
    fn intersection_and_union_match_incremental(order in 1usize..12, a in arb_edges(11), b in arb_edges(11)) {
        let keep = |es: Vec<(usize, usize)>| -> Vec<(usize, usize)> {
            es.into_iter().filter(|&(u, v)| u < order && v < order).collect()
        };
        let (a, b) = (keep(a), keep(b));
        let (ga, gb) = (Graph::from_edges(order, a.clone()).unwrap(), Graph::from_edges(order, b.clone()).unwrap());
        let common: Vec<_> = a.iter().copied().filter(|&(u, v)| gb.has_edge(u, v)).collect();
        let all: Vec<_> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(ga.intersection(&gb).unwrap(), incremental(order, &common).unwrap());
        prop_assert_eq!(ga.union(&gb).unwrap(), incremental(order, &all).unwrap());
    }

    #[test]
    fn pd2_round_graph_matches_incremental((layout, masks) in arb_pd2_round(0..12, 0)) {
        prop_assert_eq!(pd::pd2_round_graph(layout, &masks), pd2_incremental(layout, &masks));
    }

    #[test]
    fn pd2_round_graph_reports_the_first_bad_mask((layout, masks) in arb_pd2_round(0..4, 1)) {
        prop_assert_eq!(pd::pd2_round_graph(layout, &masks), pd2_incremental(layout, &masks));
    }

    #[test]
    fn schedule_validation_matches_building_every_round(
        (layout, first) in arb_pd2_round(1..5, 0),
        second_seed in proptest::collection::vec(0u32..64, 4),
    ) {
        // A second round over the same layout, some masks out of range.
        let second: Vec<u32> = second_seed.iter().take(layout.leaves).copied().collect();
        let rounds = vec![first, second];
        let built: Result<Vec<Graph>, PdError> =
            rounds.iter().map(|masks| pd2_incremental(layout, masks)).collect();
        match (Pd2Schedule::new(layout, rounds), built) {
            (Ok(mut net), Ok(graphs)) => {
                for (r, g) in (0u32..).zip(graphs) {
                    prop_assert_eq!(net.graph(r), g);
                }
            }
            (Err(e), Err(reference)) => prop_assert_eq!(e, reference),
            (got, reference) => prop_assert!(false, "schedule {:?} vs rounds {:?}", got.map(|_| ()), reference.map(|_| ())),
        }
    }
}
