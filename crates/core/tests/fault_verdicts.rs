//! Integration tests for the fault-aware, fail-closed verdict runners.
//!
//! Two contracts are pinned here:
//!
//! 1. **Empty-plan byte-identity** — with no faults scheduled, the
//!    traced verdict runners emit JSONL byte-identical to the plain
//!    algorithms (`KernelCounting`, `GeneralKCounting`), in both the
//!    watchdogs-on and watchdogs-off arms. Robustness costs nothing on
//!    clean runs.
//! 2. **Fail-closed detection** — the silent failure modes that the
//!    `simulate` module's tests merely *observed* (dropped deliveries
//!    make the leader undercount, duplicated deliveries shift the census
//!    estimate upward) are *detected*: with watchdogs on, both convert
//!    into `Verdict::ModelViolation` instead of a wrong count. A
//!    proptest over seeded plans pins the guarded kernel runner's
//!    fail-closed contract: a count, when reported, is the true one.

use anonet_core::algorithms::{GeneralKCounting, KernelCounting};
use anonet_core::trace::{MemorySink, RoundEvent};
use anonet_core::verdict::{
    general_k_verdict_with_sink, kernel_verdict, kernel_verdict_with_sink, thin_multigraph,
    FaultPlan, Verdict, ViolationKind,
};
use anonet_multigraph::adversary::TwinBuilder;
use anonet_multigraph::{Census, DblMultigraph};
use proptest::prelude::*;

fn jsonl(events: &[RoundEvent]) -> String {
    events
        .iter()
        .map(|e| e.to_json_line() + "\n")
        .collect::<String>()
}

#[test]
fn empty_plan_kernel_traces_are_byte_identical() {
    for n in [1u64, 4, 13, 40] {
        let pair = TwinBuilder::new().build(n).unwrap();
        let mut plain_sink = MemorySink::new();
        let plain = KernelCounting::new()
            .run_with_sink(&pair.smaller, 16, &mut plain_sink)
            .unwrap();
        for watchdogs in [false, true] {
            let mut sink = MemorySink::new();
            let v = kernel_verdict_with_sink(&pair.smaller, 16, &FaultPlan::new(), watchdogs, &mut sink);
            assert_eq!(
                v,
                Verdict::Correct {
                    count: plain.0.count,
                    rounds: plain.0.rounds
                },
                "n={n} watchdogs={watchdogs}"
            );
            assert_eq!(
                jsonl(sink.events()),
                jsonl(plain_sink.events()),
                "n={n} watchdogs={watchdogs}: traces must be byte-identical"
            );
        }
    }
}

#[test]
fn empty_plan_kernel_traces_match_when_undecided() {
    // The horizon elapses before uniqueness: the verdict runner must
    // still emit exactly the plain algorithm's per-round events.
    let pair = TwinBuilder::new().build(13).unwrap();
    let mut plain_sink = MemorySink::new();
    let err = KernelCounting::new()
        .run_with_sink(&pair.smaller, 2, &mut plain_sink)
        .unwrap_err();
    assert!(matches!(
        err,
        anonet_core::algorithms::CountingError::Undecided { .. }
    ));
    for watchdogs in [false, true] {
        let mut sink = MemorySink::new();
        let v = kernel_verdict_with_sink(&pair.smaller, 2, &FaultPlan::new(), watchdogs, &mut sink);
        assert!(matches!(v, Verdict::Undecided { .. }), "{v}");
        assert_eq!(jsonl(sink.events()), jsonl(plain_sink.events()));
    }
}

#[test]
fn empty_plan_general_k_traces_are_byte_identical() {
    for n in [1u64, 3, 4, 9] {
        let pair = TwinBuilder::new().build(n).unwrap();
        let mut plain_sink = MemorySink::new();
        let plain = GeneralKCounting::new(5_000_000)
            .run_with_sink(&pair.smaller, 6, &mut plain_sink)
            .unwrap();
        for watchdogs in [false, true] {
            let mut sink = MemorySink::new();
            let v = general_k_verdict_with_sink(
                &pair.smaller,
                6,
                5_000_000,
                &FaultPlan::new(),
                watchdogs,
                &mut sink,
            );
            assert_eq!(v.count(), Some(plain.count), "n={n} watchdogs={watchdogs}");
            assert_eq!(
                jsonl(sink.events()),
                jsonl(plain_sink.events()),
                "n={n} watchdogs={watchdogs}: traces must be byte-identical"
            );
        }
    }
}

// Promoted from `simulate`'s `message_loss_is_detected_as_infeasibility`:
// that test observed that dropping a quarter of round 1's deliveries
// leaves the leader either infeasible or silently *undercounting*. The
// watchdogs turn the observation into a guarantee.
#[test]
fn dropped_deliveries_fail_closed_instead_of_undercounting() {
    let pair = TwinBuilder::new().build(13).unwrap();
    let plan = FaultPlan::new().drop_deliveries(1, 4, 0);
    let guarded = kernel_verdict(&pair.smaller, 8, &plan, true);
    assert!(
        matches!(guarded, Verdict::ModelViolation { .. }),
        "watchdogs must name the violation, got {guarded}"
    );
    // The unguarded leader reproduces the original observation: if it
    // decides at all, it undercounts — silently.
    let unguarded = kernel_verdict(&pair.smaller, 8, &plan, false);
    if let Some(count) = unguarded.count() {
        assert!(count < 13, "a dropped-message count undercounts");
    }
}

// Promoted from `simulate`'s `duplicated_messages_shift_the_census_estimate`:
// duplicating every round-0 delivery of a 3-node network inflates the
// census estimate. The watchdogs reject the inflated observations.
#[test]
fn duplicated_deliveries_fail_closed_instead_of_overcounting() {
    let m = Census::from_counts(vec![1, 1, 1]).unwrap().realize().unwrap();
    let plan = FaultPlan::new().duplicate_deliveries(0, 1, 0); // double round 0
    let guarded = kernel_verdict(&m, 6, &plan, true);
    assert!(
        matches!(guarded, Verdict::ModelViolation { .. }),
        "watchdogs must name the violation, got {guarded}"
    );
    // The unguarded leader reproduces the original observation through
    // its trace: the duplicated round's candidate interval sits strictly
    // above the honest one.
    let mut honest_sink = MemorySink::new();
    kernel_verdict_with_sink(&m, 6, &FaultPlan::new(), false, &mut honest_sink);
    let mut duped_sink = MemorySink::new();
    let unguarded = kernel_verdict_with_sink(&m, 6, &plan, false, &mut duped_sink);
    let honest = &honest_sink.events()[0];
    let duped = &duped_sink.events()[0];
    assert!(
        duped.candidate_lo.unwrap() > honest.candidate_lo.unwrap()
            && duped.candidate_hi.unwrap() > honest.candidate_hi.unwrap(),
        "duplicates inflate the estimate"
    );
    // And it never arrives at the true count.
    assert_ne!(unguarded.count(), Some(3), "{unguarded}");
}

#[test]
fn seeded_corpus_has_zero_silent_wrong_counts() {
    // A miniature of the exp_faults safety envelope: across seeded
    // plans, a guarded kernel run never reports a wrong count.
    let mut violations = 0u32;
    let mut correct = 0u32;
    for seed in 0..60u64 {
        let n = [4u64, 9, 13][(seed % 3) as usize];
        let pair = TwinBuilder::new().build(n).unwrap();
        let horizon = pair.horizon + 3;
        let plan = FaultPlan::seeded(seed, horizon, 1 + (seed % 3) as u32);
        match kernel_verdict(&pair.smaller, horizon, &plan, true) {
            Verdict::Correct { count, .. } => {
                assert_eq!(count, n, "seed {seed}: silent wrong count");
                correct += 1;
            }
            Verdict::ModelViolation { .. } => violations += 1,
            Verdict::Undecided { .. } => {}
        }
    }
    assert!(violations > 0, "the corpus must actually exercise faults");
    assert!(correct > 0, "some faults must be harmless (post-decision)");
}

/// The guarded kernel runner over `rounds` rounds of `m`.
fn run_watched(m: &DblMultigraph, rounds: usize, plan: &FaultPlan) -> Verdict {
    kernel_verdict(m, rounds as u32, plan, true)
}

#[test]
fn drops_trip_a_watchdog() {
    let pair = TwinBuilder::new().build(13).unwrap();
    let plan = FaultPlan::new().drop_deliveries(1, 4, 0);
    let verdict = run_watched(&pair.smaller, 6, &plan);
    assert!(
        matches!(verdict, Verdict::ModelViolation { .. }),
        "dropped deliveries must be detected, got {verdict}"
    );
}

#[test]
fn duplicates_trip_a_watchdog() {
    let pair = TwinBuilder::new().build(13).unwrap();
    let plan = FaultPlan::new().duplicate_deliveries(0, 2, 0);
    let verdict = run_watched(&pair.smaller, 6, &plan);
    assert!(
        matches!(verdict, Verdict::ModelViolation { .. }),
        "duplicated deliveries must be detected, got {verdict}"
    );
}

#[test]
fn disconnect_trips_the_connectivity_watchdog() {
    let pair = TwinBuilder::new().build(13).unwrap();
    let plan = FaultPlan::new().disconnect(2);
    let verdict = run_watched(&pair.smaller, 6, &plan);
    assert_eq!(
        verdict,
        Verdict::ModelViolation {
            kind: ViolationKind::Connectivity,
            round: 2
        }
    );
}

#[test]
fn crash_never_yields_a_wrong_count() {
    // A crashed node's missing contributions must not produce a
    // *wrong* decided count: either detected or undecided or (if the
    // crash strikes after the decision) correct.
    for seed in 0..20u64 {
        let pair = TwinBuilder::new().build(9).unwrap();
        let round = (seed % 3) as u32;
        let plan = FaultPlan::new().crash_nodes(round, 1 + (seed % 2) as u32);
        let verdict = run_watched(&pair.smaller, 8, &plan);
        if let Verdict::Correct { count, .. } = verdict {
            assert_eq!(count, 9, "seed {seed}: silent wrong count");
        }
    }
}

#[test]
fn thinning_stays_in_model() {
    let pair = TwinBuilder::new().build(13).unwrap();
    let thinned = thin_multigraph(&pair.smaller, 2).unwrap();
    assert_eq!(thinned.nodes(), pair.smaller.nodes());
    // A thinned network is a real network: the watched leader counts
    // it exactly (possibly in more rounds).
    let verdict = run_watched(&thinned, 16, &FaultPlan::new());
    assert_eq!(verdict.count(), Some(13));
}

proptest! {
    #[test]
    fn watchdogs_never_output_a_wrong_count(
        plan_seed in any::<u64>(),
        n in 1u64..25,
        faults in 0u32..4,
    ) {
        // The fail-closed contract over random plans: a guarded run on a
        // worst-case twin network either counts exactly n, stays
        // undecided, or names a model violation.
        let pair = TwinBuilder::new().build(n).unwrap();
        let horizon = pair.horizon + 3;
        let plan = FaultPlan::seeded(plan_seed, horizon, faults);
        match kernel_verdict(&pair.smaller, horizon, &plan, true) {
            Verdict::Correct { count, .. } => prop_assert_eq!(count, n),
            Verdict::Undecided { .. } | Verdict::ModelViolation { .. } => {}
        }
    }
}
