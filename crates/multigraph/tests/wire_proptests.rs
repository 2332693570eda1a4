//! Property-based tests for the `FaultPlan → wire` projection.
//!
//! The load-bearing property for the socketed runtime: for **arbitrary**
//! multigraphs and fault plans, the `(label, history)` multiset the wire
//! plan delivers (peers emit → proxy applies copy counts → leader sorts)
//! equals, round by round, the multiset [`simulate_with_faults`]
//! produces in memory. Verdicts are a pure function of these multisets,
//! so this equality is what lets `exp_net` byte-compare its socketed
//! verdicts against the in-memory `schedule_verdict` oracle.

use anonet_multigraph::adversary::RandomDblAdversary;
use anonet_multigraph::faults::{simulate_with_faults, FaultEvent, FaultKind, FaultPlan};
use anonet_multigraph::wire::{project_wire_plan, wire_delivered_rounds};
use anonet_multigraph::{DblMultigraph, LabelSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_labelset() -> impl Strategy<Value = LabelSet> {
    prop_oneof![Just(LabelSet::L1), Just(LabelSet::L2), Just(LabelSet::L12)]
}

fn arb_multigraph() -> impl Strategy<Value = DblMultigraph> {
    (1usize..7, 1usize..5).prop_flat_map(|(nodes, rounds)| {
        proptest::collection::vec(proptest::collection::vec(arb_labelset(), nodes), rounds)
            .prop_map(|r| DblMultigraph::new(2, r).unwrap())
    })
}

fn arb_plan(nodes: u32, horizon: u32) -> impl Strategy<Value = FaultPlan> {
    let event = (0..horizon, 0u8..5, 1u32..5, 0u32..4).prop_map(|(round, kind, stride, offset)| {
        let kind = match kind {
            0 => FaultKind::DropDeliveries {
                stride,
                offset: offset % stride,
            },
            1 => FaultKind::DuplicateDeliveries {
                stride,
                offset: offset % stride,
            },
            2 => FaultKind::LeaderRestart,
            3 => FaultKind::Disconnect,
            _ => FaultKind::CrashNodes { count: 1 },
        };
        FaultEvent { round, kind }
    });
    proptest::collection::vec(event, 0..5).prop_map(move |events| {
        let mut crashes = 0u32;
        let events = events
            .into_iter()
            .filter(|e| match e.kind {
                FaultKind::CrashNodes { count } => {
                    crashes += count;
                    crashes <= nodes
                }
                _ => true,
            })
            .collect();
        FaultPlan::from_events(events)
    })
}

/// Resolves a faulted execution to per-round sorted `(label, masks)`
/// multisets — the same currency [`wire_delivered_rounds`] speaks.
fn simulated_rounds(m: &DblMultigraph, rounds: u32, plan: &FaultPlan) -> Vec<Vec<(u8, Vec<u32>)>> {
    let faulted = simulate_with_faults(m, rounds as usize, plan);
    faulted
        .execution
        .rounds
        .iter()
        .map(|cols| {
            let mut v: Vec<(u8, Vec<u32>)> = cols
                .iter()
                .map(|d| (d.label, faulted.execution.arena.masks(d.state)))
                .collect();
            v.sort();
            v
        })
        .collect()
}

/// A multigraph with an in-bounds plan: event rounds and crash budgets
/// derived from the drawn network, the way `arb_schedule` does it.
fn arb_case() -> impl Strategy<Value = (DblMultigraph, u32, FaultPlan)> {
    (arb_multigraph(), 1u32..7).prop_flat_map(|(m, horizon)| {
        let nodes = m.nodes() as u32;
        arb_plan(nodes, horizon).prop_map(move |plan| (m.clone(), horizon, plan))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wire_projection_delivers_the_simulated_multiset(
        (m, horizon, plan) in arb_case(),
    ) {
        let wire = project_wire_plan(&m, horizon, &plan);
        prop_assert_eq!(
            wire_delivered_rounds(&m, horizon, &wire),
            simulated_rounds(&m, horizon, &plan)
        );
    }

    #[test]
    fn wire_projection_matches_on_adversary_networks(
        net_seed in any::<u64>(),
        plan_seed in any::<u64>(),
        n in 2u64..25,
        faults in 0u32..5,
    ) {
        // Seeded plans over adversary-generated networks: the exact
        // population exp_net replays over sockets.
        let horizon = 6u32;
        let m = RandomDblAdversary::new(StdRng::seed_from_u64(net_seed))
            .generate(n, horizon as usize)
            .unwrap();
        let plan = FaultPlan::seeded(plan_seed, horizon, faults);
        let wire = project_wire_plan(&m, horizon, &plan);
        prop_assert_eq!(
            wire_delivered_rounds(&m, horizon, &wire),
            simulated_rounds(&m, horizon, &plan)
        );
    }

    #[test]
    fn clean_plans_need_no_wire_actions(
        m in arb_multigraph(),
        horizon in 1u32..7,
    ) {
        let wire = project_wire_plan(&m, horizon, &FaultPlan::new());
        prop_assert!(wire.is_empty());
        for peer in 0..m.nodes() as u32 {
            prop_assert!(!wire.touches_peer(peer));
        }
    }
}
