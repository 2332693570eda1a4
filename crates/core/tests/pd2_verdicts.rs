//! Golden verdicts of the two `G(PD)_2` runners under seeded graph-fault
//! plans.
//!
//! `degree_oracle_verdict` and `pd2_view_verdict` run over round graphs
//! that are built in bulk, with each faulted round of a guarded session
//! built once and shared by the connectivity scan, the shape scan and
//! (for the oracle) the run itself. The table below pins their verdicts
//! for twins n ∈ {4, 13, 40, 364} × 30 seeded plans in both watchdog
//! arms, as produced by the earlier edge-by-edge construction in which
//! every scan rebuilt its rounds — so the order of the scans, the
//! violation kinds and rounds, and the counts stay as they were.

use anonet_core::verdict::{degree_oracle_verdict, pd2_view_verdict, FaultPlan, Verdict};
use anonet_multigraph::adversary::TwinBuilder;
use anonet_multigraph::transform;

/// One line per `(n, seed)`: guarded oracle | unguarded oracle | guarded
/// view counting | unguarded view counting.
const GOLDEN: &str = "\
4 0: delivery-integrity@1 | ok 7@3 | ok 7@3 | ok 7@3
4 1: connectivity@1 | ok 5@3 | undecided@3 4..5 | undecided@3 4..5
4 2: ok 7@3 | ok 7@3 | connectivity@1 | undecided@3
4 3: connectivity@0 | ok 4@3 | connectivity@1 | undecided@3
4 4: connectivity@1 | ok 5@3 | connectivity@1 | undecided@3
4 5: connectivity@1 | ok 5@3 | ok 7@3 | ok 7@3
4 6: ok 7@3 | ok 7@3 | undecided@3 4..5 | undecided@3 4..5
4 7: connectivity@2 | ok 3@3 | undecided@3 4..5 | undecided@3 4..5
4 8: connectivity@0 | ok 1@3 | connectivity@0 | undecided@3
4 9: connectivity@1 | ok 6@3 | connectivity@1 | undecided@3
4 10: connectivity@2 | ok 7@3 | connectivity@0 | undecided@3
4 11: connectivity@1 | ok 6@3 | connectivity@1 | undecided@3
4 12: ok 7@3 | ok 7@3 | undecided@3 4..5 | undecided@3 4..5
4 13: connectivity@0 | ok 4@3 | connectivity@1 | ok 8@3
4 14: connectivity@2 | ok 3@3 | connectivity@0 | undecided@3
4 15: connectivity@2 | ok 3@3 | connectivity@2 | undecided@3 4..5
4 16: connectivity@1 | ok 7@3 | connectivity@0 | undecided@3
4 17: connectivity@1 | ok 5@3 | connectivity@0 | undecided@3
4 18: ok 7@3 | ok 7@3 | connectivity@2 | undecided@3 4..5
4 19: connectivity@1 | ok 5@3 | connectivity@1 | undecided@3
4 20: connectivity@1 | ok 3@3 | connectivity@1 | undecided@3
4 21: ok 7@3 | ok 7@3 | connectivity@0 | undecided@3
4 22: connectivity@1 | ok 5@3 | connectivity@1 | ok 8@3
4 23: connectivity@2 | ok 5@3 | connectivity@1 | undecided@3
4 24: ok 7@3 | ok 7@3 | undecided@3 4..5 | undecided@3 4..5
4 25: ok 7@3 | ok 7@3 | connectivity@1 | undecided@3
4 26: connectivity@1 | ok 6@3 | connectivity@0 | undecided@3
4 27: ok 7@3 | ok 7@3 | connectivity@1 | undecided@3
4 28: ok 7@3 | ok 7@3 | connectivity@2 | undecided@3
4 29: connectivity@1 | ok 6@3 | connectivity@0 | undecided@3
13 0: ok 16@3 | ok 16@3 | connectivity@1 | undecided@4
13 1: connectivity@0 | ok 13@3 | connectivity@1 | undecided@4
13 2: connectivity@2 | undecided@3 | connectivity@0 | undecided@4
13 3: ok 16@3 | ok 16@3 | connectivity@2 | undecided@4
13 4: ok 16@3 | ok 16@3 | connectivity@2 | undecided@4
13 5: connectivity@1 | ok 14@3 | connectivity@1 | undecided@4
13 6: ok 16@3 | ok 16@3 | undecided@4 | undecided@4
13 7: connectivity@0 | ok 1@3 | connectivity@3 | undecided@4
13 8: connectivity@0 | ok 1@3 | connectivity@1 | undecided@4
13 9: ok 16@3 | ok 16@3 | undecided@4 | undecided@4
13 10: connectivity@0 | ok 16@3 | connectivity@1 | undecided@4
13 11: connectivity@0 | ok 2@3 | connectivity@0 | undecided@4
13 12: ok 16@3 | ok 16@3 | connectivity@3 | undecided@4
13 13: connectivity@1 | ok 14@3 | connectivity@1 | undecided@4
13 14: connectivity@0 | undecided@3 | connectivity@1 | undecided@4
13 15: connectivity@1 | ok 14@3 | undecided@4 | undecided@4
13 16: connectivity@2 | ok 16@3 | connectivity@1 | undecided@4
13 17: connectivity@0 | ok 1@3 | connectivity@2 | undecided@4
13 18: connectivity@2 | undecided@3 | undecided@4 | undecided@4
13 19: connectivity@0 | undecided@3 | connectivity@1 | undecided@4
13 20: connectivity@0 | ok 8@3 | connectivity@0 | undecided@4
13 21: ok 16@3 | ok 16@3 | connectivity@0 | undecided@4
13 22: connectivity@1 | ok 11@3 | undecided@4 | undecided@4
13 23: connectivity@1 | ok 13@3 | connectivity@2 | undecided@4
13 24: ok 16@3 | ok 16@3 | undecided@4 | undecided@4
13 25: connectivity@1 | ok 10@3 | undecided@4 | undecided@4
13 26: ok 16@3 | ok 16@3 | connectivity@0 | undecided@4
13 27: connectivity@2 | ok 16@3 | undecided@4 | undecided@4
13 28: connectivity@1 | ok 16@3 | connectivity@3 | undecided@4
13 29: connectivity@0 | ok 3@3 | connectivity@0 | undecided@4
40 0: connectivity@2 | ok 3@3 | connectivity@1 | undecided@5
40 1: connectivity@0 | ok 1@3 | connectivity@0 | undecided@5
40 2: connectivity@1 | ok 43@3 | connectivity@4 | undecided@5
40 3: connectivity@1 | ok 42@3 | connectivity@4 | undecided@5
40 4: connectivity@0 | ok 1@3 | connectivity@0 | undecided@5
40 5: connectivity@0 | ok 22@3 | connectivity@1 | undecided@5
40 6: connectivity@1 | ok 43@3 | undecided@5 | undecided@5
40 7: connectivity@0 | ok 22@3 | connectivity@1 | undecided@5
40 8: connectivity@1 | ok 40@3 | connectivity@2 | undecided@5
40 9: ok 43@3 | ok 43@3 | connectivity@0 | undecided@5
40 10: connectivity@2 | ok 23@3 | undecided@5 | undecided@5
40 11: connectivity@1 | ok 27@3 | connectivity@0 | undecided@5
40 12: connectivity@2 | ok 3@3 | connectivity@4 | undecided@5
40 13: ok 43@3 | ok 43@3 | undecided@5 | undecided@5
40 14: connectivity@2 | ok 3@3 | connectivity@3 | undecided@5
40 15: connectivity@1 | ok 42@3 | connectivity@0 | undecided@5
40 16: connectivity@1 | ok 41@3 | connectivity@1 | undecided@5
40 17: connectivity@1 | ok 40@3 | connectivity@0 | undecided@5
40 18: ok 43@3 | ok 43@3 | undecided@5 | undecided@5
40 19: connectivity@2 | ok 23@3 | connectivity@0 | undecided@5
40 20: connectivity@0 | ok 22@3 | connectivity@2 | undecided@5
40 21: connectivity@0 | ok 1@3 | connectivity@3 | undecided@5
40 22: connectivity@1 | ok 22@3 | connectivity@3 | undecided@5
40 23: connectivity@1 | ok 3@3 | connectivity@1 | undecided@5
40 24: connectivity@0 | ok 22@3 | undecided@5 | undecided@5
40 25: connectivity@1 | ok 42@3 | undecided@5 | undecided@5
40 26: connectivity@1 | ok 42@3 | connectivity@1 | undecided@5
40 27: connectivity@1 | ok 42@3 | connectivity@4 | undecided@5
40 28: connectivity@0 | ok 22@3 | undecided@5 | undecided@5
40 29: connectivity@0 | ok 1@3 | undecided@5 | undecided@5
364 0: ok 367@3 | ok 367@3 | undecided@7 | undecided@7
364 1: connectivity@1 | ok 306@3 | connectivity@4 | undecided@7
364 2: connectivity@0 | undecided@3 | connectivity@0 | undecided@7
364 3: ok 367@3 | ok 367@3 | undecided@7 | undecided@7
364 4: ok 367@3 | ok 367@3 | undecided@7 | undecided@7
364 5: connectivity@2 | ok 185@3 | connectivity@2 | undecided@7
364 6: connectivity@2 | ok 3@3 | undecided@7 | undecided@7
364 7: ok 367@3 | ok 367@3 | undecided@7 | undecided@7
364 8: connectivity@0 | undecided@3 | connectivity@3 | undecided@7
364 9: connectivity@1 | ok 247@3 | connectivity@6 | undecided@7
364 10: connectivity@2 | ok 367@3 | connectivity@3 | undecided@7
364 11: connectivity@1 | ok 307@3 | connectivity@1 | undecided@7
364 12: connectivity@2 | ok 367@3 | connectivity@6 | undecided@7
364 13: connectivity@0 | ok 1@3 | connectivity@3 | undecided@7
364 14: connectivity@1 | ok 364@3 | connectivity@1 | undecided@7
364 15: connectivity@1 | ok 367@3 | connectivity@6 | undecided@7
364 16: connectivity@0 | ok 2@3 | connectivity@1 | undecided@7
364 17: connectivity@1 | ok 3@3 | connectivity@1 | undecided@7
364 18: connectivity@1 | ok 367@3 | connectivity@3 | undecided@7
364 19: ok 367@3 | ok 367@3 | connectivity@4 | undecided@7
364 20: connectivity@2 | ok 367@3 | undecided@7 | undecided@7
364 21: ok 367@3 | ok 367@3 | connectivity@4 | undecided@7
364 22: connectivity@0 | ok 184@3 | connectivity@1 | undecided@7
364 23: connectivity@1 | ok 366@3 | connectivity@3 | undecided@7
364 24: connectivity@2 | ok 185@3 | connectivity@1 | undecided@7
364 25: connectivity@0 | ok 1@3 | connectivity@4 | undecided@7
364 26: connectivity@0 | undecided@3 | connectivity@5 | undecided@7
364 27: connectivity@1 | ok 244@3 | connectivity@0 | undecided@7
364 28: connectivity@2 | ok 3@3 | undecided@7 | undecided@7
364 29: connectivity@1 | ok 361@3 | connectivity@3 | undecided@7
";

/// A verdict with every field it carries, on one short line.
fn code(v: &Verdict) -> String {
    match v {
        Verdict::Correct { count, rounds } => format!("ok {count}@{rounds}"),
        Verdict::Undecided {
            rounds,
            candidates: Some((lo, hi)),
        } => format!("undecided@{rounds} {lo}..{hi}"),
        Verdict::Undecided {
            rounds,
            candidates: None,
        } => format!("undecided@{rounds}"),
        Verdict::ModelViolation { kind, round } => format!("{kind}@{round}"),
    }
}

#[test]
fn pd2_runners_match_the_golden_verdicts() {
    let mut golden = GOLDEN.lines();
    for n in [4u64, 13, 40, 364] {
        let pair = TwinBuilder::new().build(n).unwrap();
        let horizon = pair.horizon + 2;
        let net = transform::to_pd2(&pair.smaller, horizon as usize).unwrap();
        for seed in 0..30u64 {
            let faults = 1 + (seed % 3) as u32;
            // The oracle decides within 3 rounds, so its plans strike there.
            let oracle_plan = FaultPlan::seeded(1_000 * n + seed, 3, faults);
            let view_plan = FaultPlan::seeded(2_000 * n + seed, horizon, faults);
            // A small solution budget keeps view counting cheap; running
            // out of it is an `Undecided` verdict like any other.
            let row = [
                degree_oracle_verdict(net.clone(), &oracle_plan, true),
                degree_oracle_verdict(net.clone(), &oracle_plan, false),
                pd2_view_verdict(net.clone(), horizon, 8, &view_plan, true),
                pd2_view_verdict(net.clone(), horizon, 8, &view_plan, false),
            ];
            let row: Vec<String> = row.iter().map(code).collect();
            let line = format!("{n} {seed}: {}", row.join(" | "));
            assert_eq!(Some(line.as_str()), golden.next(), "n={n} seed={seed}");
        }
    }
    assert_eq!(golden.next(), None, "golden rows left unchecked");
}
