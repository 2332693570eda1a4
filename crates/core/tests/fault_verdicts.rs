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
//! 3. **Lazy/eager parity** — every multigraph runner, in both arms,
//!    reports the same verdict and the same JSONL trace whether it pulls
//!    its rounds from the lazy `FaultedRounds` stepper or from an
//!    execution simulated in full beforehand, and both equal digests
//!    taken from the eager runners this stepper replaced.

use anonet_core::algorithms::{GeneralKCounting, KernelCounting};
use anonet_core::trace::{MemorySink, RoundEvent};
use anonet_core::transport::ExecutionSource;
use anonet_core::verdict::{
    general_k_source_verdict, general_k_verdict_with_sink, history_tree_source_verdict,
    history_tree_verdict_with_sink, kernel_source_verdict, kernel_verdict, kernel_verdict_with_sink,
    simulate_with_faults, thin_multigraph, FaultPlan, FaultedRounds, Verdict, Violation,
    ViolationKind, WatchedLeader, SEARCH_GENERAL_K_BUDGET,
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

// A known gap, pinned: guarded confirmation stops growing the census
// past `3^10` columns and screens the later rounds only (delivery
// integrity and connectivity). On both n = 3280 twins the guarded runner
// decides at round 9 and the level-10 census is never built, so a fault
// at round 10 passes unseen. A watched leader that builds the full
// census every round sees the same fault as a census-conservation trip.
// A confirmation that drops the budget must either keep the screen-only
// rounds past level 9 or accept these verdict changes.
#[test]
fn budgeted_confirmation_misses_a_fault_the_full_census_sees() {
    let pair = TwinBuilder::new().build(3280).unwrap();
    let budget = pair.horizon + 4;
    assert_eq!(budget, 11);
    let plans = [
        FaultPlan::new().duplicate_deliveries(10, 3, 1),
        FaultPlan::new().crash_nodes(10, 2),
    ];
    for (m, n) in [(&pair.smaller, 3280u64), (&pair.larger, 3281)] {
        for plan in &plans {
            assert_eq!(
                kernel_verdict(m, budget, plan, true),
                Verdict::Correct { count: n, rounds: 9 },
                "n={n} {plan:?}"
            );
            let mut rounds = FaultedRounds::new(m, budget as usize, plan);
            let mut leader = WatchedLeader::new();
            let mut last = Ok(());
            while let Some(deliveries) = rounds.next_round() {
                last = leader.ingest(rounds.arena(), &deliveries).map(|_| ());
            }
            assert_eq!(
                last,
                Err(Violation {
                    kind: ViolationKind::CensusConservation,
                    round: 10
                }),
                "n={n} {plan:?}"
            );
        }
    }
}

/// 64-bit FNV-1a, folded over successive strings.
fn fnv(hash: &mut u64, text: &str) {
    for b in text.bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The multigraph runners whose rounds come from the fault simulator.
#[derive(Debug, Clone, Copy)]
enum Runner {
    Kernel,
    HistoryTree,
    GeneralK,
}

impl Runner {
    /// The runner over the lazy stepper (its public `m`-taking entry).
    fn lazy(self, m: &DblMultigraph, rounds: u32, plan: &FaultPlan, watchdogs: bool) -> String {
        let mut sink = MemorySink::new();
        let v = match self {
            Runner::Kernel => kernel_verdict_with_sink(m, rounds, plan, watchdogs, &mut sink),
            Runner::HistoryTree => {
                history_tree_verdict_with_sink(m, rounds, plan, watchdogs, &mut sink)
            }
            Runner::GeneralK => general_k_verdict_with_sink(
                m,
                rounds,
                SEARCH_GENERAL_K_BUDGET,
                plan,
                watchdogs,
                &mut sink,
            ),
        };
        format!("{v:?}\n{}", jsonl(sink.events()))
    }

    /// The same runner over an execution simulated in full first.
    fn eager(self, m: &DblMultigraph, rounds: u32, plan: &FaultPlan, watchdogs: bool) -> String {
        let mut src = ExecutionSource::from_faulted(simulate_with_faults(m, rounds as usize, plan));
        let mut sink = MemorySink::new();
        let v = match self {
            Runner::Kernel => kernel_source_verdict(&mut src, rounds, plan, watchdogs, &mut sink),
            Runner::HistoryTree => {
                history_tree_source_verdict(&mut src, rounds, plan, watchdogs, &mut sink)
            }
            Runner::GeneralK => general_k_source_verdict(
                &mut src,
                rounds,
                SEARCH_GENERAL_K_BUDGET,
                plan,
                watchdogs,
                &mut sink,
            ),
        };
        format!("{v:?}\n{}", jsonl(sink.events()))
    }
}

#[test]
fn lazy_runners_match_the_eager_path_byte_for_byte() {
    // Per twin: digests of `Debug(verdict) + JSONL trace` for the
    // kernel, history-tree and general-k runners over 30 seeded plans
    // and both arms, computed with the runners that simulated the whole
    // budget before reading round 0. General-k stops at n = 40: its
    // census enumeration alone takes seconds per session at n = 364.
    const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    let golden = [
        (4u64, [0x5008_2545_3460_e36fu64, 0x11ee_3371_6bcd_eee2, 0x3405_4ca1_17a2_8499]),
        (13, [0x7d92_375a_6bb8_a4b0, 0xf801_1b57_78e6_3235, 0xc45c_b812_0cad_7b59]),
        (40, [0x26af_2844_c328_ce4c, 0x6f6b_701a_c55b_c3f1, 0x0e30_0529_4455_0a1a]),
        (364, [0x79ab_0e49_3e57_42e2, 0xc8cf_9f57_253b_d781, FNV_BASIS]),
    ];
    let runners = [Runner::Kernel, Runner::HistoryTree, Runner::GeneralK];
    for (n, expected) in golden {
        let pair = TwinBuilder::new().build(n).unwrap();
        let budget = pair.horizon + 4;
        let mut digests = [FNV_BASIS; 3];
        for seed in 0..30u64 {
            let plan = FaultPlan::seeded(seed, budget, 1 + (seed % 3) as u32);
            for watchdogs in [true, false] {
                for (runner, digest) in runners.iter().zip(&mut digests) {
                    if matches!(runner, Runner::GeneralK) && n > 40 {
                        continue;
                    }
                    let lazy = runner.lazy(&pair.smaller, budget, &plan, watchdogs);
                    let eager = runner.eager(&pair.smaller, budget, &plan, watchdogs);
                    assert_eq!(
                        lazy, eager,
                        "{runner:?} n={n} seed={seed} watchdogs={watchdogs}"
                    );
                    fnv(digest, &lazy);
                }
            }
        }
        for ((runner, digest), expected) in runners.iter().zip(digests).zip(expected) {
            assert_eq!(digest, expected, "{runner:?} n={n}: digest {digest:#018x}");
        }
    }
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
