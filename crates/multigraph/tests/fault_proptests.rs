//! Property-based tests for the fault-injection layer.
//!
//! The load-bearing property: an **empty [`FaultPlan`] is a proven
//! no-op** — [`simulate_with_faults`] produces an [`Execution`] (and an
//! interned-history arena) byte-identical to the plain simulator, for
//! arbitrary multigraphs, adversary seeds and horizons. Every trace in
//! the workspace is a pure function of the execution, so this single
//! equality pins the empty-plan byte-identity of all downstream traces.
//!
//! The lazy stepper [`FaultedRounds`] is pinned against the eager
//! [`simulate_with_faults`]: drained, it yields the same rounds, records
//! and arena; stopped after `r` rounds, it yields exactly the eager
//! prefix. A fixed-seed digest pins `simulate_with_faults` itself to the
//! output of the eager loop it replaced. The arena the engine builds one
//! bulk level per round equals the arena that
//! [`HistoryArena::child`] builds from the same pairs.

use anonet_multigraph::adversary::RandomDblAdversary;
use anonet_multigraph::corpus::ArchivedSchedule;
use anonet_multigraph::adversary::TwinBuilder;
use anonet_multigraph::faults::{
    simulate_with_faults, FaultEvent, FaultKind, FaultPlan, FaultedExecution, FaultedRounds,
    Verdict, ViolationKind,
};
use anonet_multigraph::mutate::AdversarySchedule;
use anonet_multigraph::simulate::simulate;
use anonet_multigraph::{DblMultigraph, HistoryArena, LabelSet, RoundColumns};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_labelset() -> impl Strategy<Value = LabelSet> {
    prop_oneof![Just(LabelSet::L1), Just(LabelSet::L2), Just(LabelSet::L12)]
}

fn arb_multigraph() -> impl Strategy<Value = DblMultigraph> {
    (1usize..6, 1usize..5).prop_flat_map(|(nodes, rounds)| {
        proptest::collection::vec(proptest::collection::vec(arb_labelset(), nodes), rounds)
            .prop_map(|r| DblMultigraph::new(2, r).unwrap())
    })
}

/// An in-bounds fault plan for a `nodes`-wide schedule at `horizon`:
/// every round below the horizon, crash total capped at the node count.
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
    proptest::collection::vec(event, 0..4).prop_map(move |events| {
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

/// An arbitrary valid [`AdversarySchedule`]: arbitrary round rows, a
/// horizon at or past the prefix, and an in-bounds fault plan.
fn arb_schedule() -> impl Strategy<Value = AdversarySchedule> {
    (arb_multigraph(), 0u32..4).prop_flat_map(|(m, slack)| {
        let base =
            AdversarySchedule::from_multigraph(&m, anonet_multigraph::MAX_HORIZON).unwrap();
        let horizon = base.rounds().len() as u32 + slack;
        let nodes = base.nodes() as u32;
        let rows = base.rounds().to_vec();
        arb_plan(nodes, horizon)
            .prop_map(move |plan| AdversarySchedule::new(rows.clone(), plan, horizon).unwrap())
    })
}

/// A multigraph, a horizon of 1 to 7 rounds (past the explicit prefix
/// the last row repeats) and an in-bounds fault plan over that horizon.
fn arb_faulted_run() -> impl Strategy<Value = (DblMultigraph, usize, FaultPlan)> {
    (arb_multigraph(), 1usize..8).prop_flat_map(|(m, horizon)| {
        let nodes = m.nodes() as u32;
        arb_plan(nodes, horizon as u32).prop_map(move |plan| (m.clone(), horizon, plan))
    })
}

/// The raw columns of a round: labels and arena handles, not resolved
/// histories, so two rounds compare equal only if their arenas were
/// built in the same order.
fn raw(round: &RoundColumns) -> (Vec<u8>, String) {
    (round.labels().to_vec(), format!("{:?}", round.states()))
}

/// The arena's interned entries in handle order. Its child index is a
/// hash map (its `Debug` order varies between maps) and is a function of
/// the entries, so it is left out.
fn entries(arena: &HistoryArena) -> String {
    let debug = format!("{arena:?}");
    match debug.find(", children:") {
        Some(end) => debug[..end].to_string(),
        None => debug,
    }
}

fn raw_rounds(faulted: &FaultedExecution) -> Vec<(Vec<u8>, String)> {
    faulted.execution.rounds.iter().map(raw).collect()
}

/// 64-bit FNV-1a, folded over successive strings.
fn fnv(hash: &mut u64, text: &str) {
    for b in text.bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn simulate_with_faults_matches_the_eager_loop_digest() {
    // Digests of every round's raw columns, the fault records and the
    // interned-history count over 30 seeded plans per twin, computed
    // with the eager loop that simulated every round before the first
    // one was read. The lazy stepper must reproduce them bit for bit.
    let golden = [
        (4u64, 0xe8e8_db73_d943_db91u64),
        (13, 0x5c3e_f392_8dd6_16b0),
        (40, 0xe492_f2aa_acbc_6c4b),
        (364, 0x1676_bc4b_c9f2_4708),
    ];
    for (n, expected) in golden {
        let pair = TwinBuilder::new().build(n).unwrap();
        let budget = pair.horizon + 4;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for seed in 0..30u64 {
            let plan = FaultPlan::seeded(seed, budget, 1 + (seed % 3) as u32);
            let f = simulate_with_faults(&pair.smaller, budget as usize, &plan);
            for r in &f.execution.rounds {
                fnv(&mut digest, &format!("{:?}{:?};", r.labels(), r.states()));
            }
            fnv(
                &mut digest,
                &format!("{:?}{};", f.records, f.execution.arena.interned()),
            );
        }
        assert_eq!(digest, expected, "n={n}: digest {digest:#018x}");
    }
}

fn arb_verdict() -> impl Strategy<Value = Verdict> {
    prop_oneof![
        (any::<u64>(), any::<u32>())
            .prop_map(|(count, rounds)| Verdict::Correct { count, rounds }),
        (any::<u32>(), any::<bool>(), any::<u32>(), any::<u32>()).prop_map(
            |(rounds, has, lo, hi)| Verdict::Undecided {
                rounds,
                candidates: has.then(|| (i64::from(lo) - 7, i64::from(hi))),
            }
        ),
        (0u8..4, any::<u32>()).prop_map(|(kind, round)| Verdict::ModelViolation {
            kind: match kind {
                0 => ViolationKind::DeliveryIntegrity,
                1 => ViolationKind::Connectivity,
                2 => ViolationKind::CensusConservation,
                _ => ViolationKind::KernelConsistency,
            },
            round,
        }),
    ]
}

proptest! {
    #[test]
    fn empty_plan_is_a_noop_on_arbitrary_multigraphs(
        m in arb_multigraph(),
        horizon in 1usize..8,
    ) {
        let clean = simulate(&m, horizon);
        let faulted = simulate_with_faults(&m, horizon, &FaultPlan::new());
        prop_assert!(faulted.records.is_empty());
        prop_assert_eq!(&faulted.execution, &clean);
        // Arena layout included: the loop bodies are identical, so even
        // the interning order matches.
        prop_assert_eq!(faulted.execution.arena.interned(), clean.arena.interned());
    }

    #[test]
    fn empty_plan_is_a_noop_on_adversary_networks(
        seed in any::<u64>(),
        n in 1usize..30,
        horizon in 1usize..7,
    ) {
        let m = RandomDblAdversary::new(StdRng::seed_from_u64(seed))
            .generate(n as u64, horizon)
            .unwrap();
        let clean = simulate(&m, horizon);
        let faulted = simulate_with_faults(&m, horizon, &FaultPlan::new());
        prop_assert!(faulted.records.is_empty());
        prop_assert_eq!(&faulted.execution, &clean);
        prop_assert_eq!(faulted.execution.arena.interned(), clean.arena.interned());
    }

    #[test]
    fn seeded_plans_replay_byte_identically(
        plan_seed in any::<u64>(),
        net_seed in any::<u64>(),
        n in 2usize..20,
        faults in 0u32..5,
    ) {
        // Same (seed, rounds, faults) triple: same plan; same plan on
        // the same network: same execution and same fault records —
        // the determinism the parallel experiment runner relies on.
        let horizon = 6usize;
        let a = FaultPlan::seeded(plan_seed, horizon as u32, faults);
        let b = FaultPlan::seeded(plan_seed, horizon as u32, faults);
        prop_assert_eq!(&a, &b);
        let m = RandomDblAdversary::new(StdRng::seed_from_u64(net_seed))
            .generate(n as u64, horizon)
            .unwrap();
        let x = simulate_with_faults(&m, horizon, &a);
        let y = simulate_with_faults(&m, horizon, &b);
        prop_assert_eq!(&x.execution, &y.execution);
        prop_assert_eq!(&x.records, &y.records);
        prop_assert_eq!(
            x.execution.arena.interned(),
            y.execution.arena.interned()
        );
    }

    #[test]
    fn drained_stepper_equals_simulate_with_faults(
        (m, horizon, plan) in arb_faulted_run(),
    ) {
        let eager = simulate_with_faults(&m, horizon, &plan);
        let mut stepper = FaultedRounds::new(&m, horizon, &plan);
        let mut rounds = Vec::new();
        while let Some(round) = stepper.next_round() {
            rounds.push(raw(&round));
        }
        prop_assert!(stepper.next_round().is_none(), "the budget is spent");
        let (arena, records) = stepper.finish();
        prop_assert_eq!(rounds, raw_rounds(&eager));
        prop_assert_eq!(records, eager.records);
        prop_assert_eq!(entries(&arena), entries(&eager.execution.arena));
    }

    #[test]
    fn stopped_stepper_yields_the_eager_prefix(
        (m, horizon, plan) in arb_faulted_run(),
        stop in 0usize..8,
    ) {
        // A reader that stops after `r` rounds sees exactly the eager
        // rounds `0..r` and the records of rounds below `r`; the arena
        // it leaves is that of an eager run of `r` rounds.
        let r = stop.min(horizon);
        let eager = simulate_with_faults(&m, horizon, &plan);
        let mut stepper = FaultedRounds::new(&m, horizon, &plan);
        let mut rounds = Vec::new();
        for _ in 0..r {
            rounds.push(raw(&stepper.next_round().unwrap()));
        }
        let eager_rounds = raw_rounds(&eager);
        prop_assert_eq!(&rounds[..], &eager_rounds[..r]);
        let eager_records: Vec<_> = eager
            .records
            .iter()
            .filter(|rec| (rec.round as usize) < r)
            .copied()
            .collect();
        let (arena, records) = stepper.finish();
        prop_assert_eq!(records, eager_records);
        let short = simulate_with_faults(&m, r, &plan);
        prop_assert_eq!(entries(&arena), entries(&short.execution.arena));
    }

    #[test]
    fn bulk_levels_equal_child_interning((m, horizon, plan) in arb_faulted_run()) {
        // The engine interns every round as one bulk level; replaying
        // the same (parent, set) pairs in the same order through child()
        // must give the same handles and the same cached answers.
        let bulk = simulate_with_faults(&m, horizon, &plan).execution.arena;
        let mut by_child = HistoryArena::new();
        let mut probed = bulk.clone();
        for id in bulk.ids().skip(1) {
            let (parent, set) = (bulk.parent(id).unwrap(), bulk.last(id).unwrap());
            prop_assert_eq!(by_child.child(parent, set), id);
            // child() on the bulk-built arena finds the existing entry.
            prop_assert_eq!(probed.child(parent, set), id);
        }
        prop_assert_eq!(by_child.interned(), bulk.interned());
        prop_assert_eq!(probed.interned(), bulk.interned());
        for id in bulk.ids() {
            prop_assert_eq!(by_child.history_len(id), bulk.history_len(id));
            prop_assert_eq!(by_child.last(id), bulk.last(id));
            prop_assert_eq!(by_child.parent(id), bulk.parent(id));
            prop_assert_eq!(by_child.checked_ternary_index(id), bulk.checked_ternary_index(id));
            prop_assert_eq!(by_child.is_ternary(id), bulk.is_ternary(id));
            prop_assert_eq!(by_child.sign(id), bulk.sign(id));
            prop_assert_eq!(by_child.masks(id), bulk.masks(id));
        }
    }

    #[test]
    fn every_mutant_is_a_valid_schedule(
        schedule in arb_schedule(),
        seed in any::<u64>(),
        chain in 1usize..6,
    ) {
        // The closure property the search loop relies on: mutation never
        // leaves the valid-genome space — every event round stays below
        // the horizon and the crash total stays within the node budget,
        // over arbitrary operator chains.
        let mut current = schedule;
        for step in 0..chain {
            current = current.mutate(seed.wrapping_add(step as u64));
            prop_assert!(current.validate().is_ok(), "step {}: {:?}", step, current.validate());
            prop_assert!(current.rounds().len() as u32 <= current.horizon());
        }
    }

    #[test]
    fn mutation_is_deterministic_per_seed(
        schedule in arb_schedule(),
        seed in any::<u64>(),
    ) {
        // Same parent, same seed: the same child, field for field — the
        // determinism that makes search campaigns pure functions of
        // their specs.
        prop_assert_eq!(schedule.mutate(seed), schedule.mutate(seed));
    }

    #[test]
    fn archived_schedules_round_trip_byte_identically(
        schedule in arb_schedule(),
        verdict in arb_verdict(),
        name_tag in any::<u32>(),
        watchdogs in any::<bool>(),
        seed in any::<u64>(),
        iteration in any::<u64>(),
    ) {
        // Corpus files are canonical: render ∘ parse is the identity on
        // both the pretty (committed-file) and compact (checkpoint
        // payload) forms, for arbitrary schedules and verdicts.
        let entry = ArchivedSchedule {
            name: format!("sched-{name_tag}"),
            algorithm: "kernel".to_string(),
            watchdogs,
            schedule,
            verdict,
            seed,
            iteration,
        };
        let pretty = entry.render();
        let reparsed = ArchivedSchedule::parse(&pretty).unwrap();
        prop_assert_eq!(&reparsed, &entry);
        prop_assert_eq!(reparsed.render(), pretty);
        let compact = entry.render_line();
        let reparsed_line = ArchivedSchedule::parse(&compact).unwrap();
        prop_assert_eq!(&reparsed_line, &entry);
        prop_assert_eq!(reparsed_line.render_line(), compact);
    }
}
