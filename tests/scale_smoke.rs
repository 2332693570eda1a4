//! A large-`n` end-to-end smoke execution: the struct-of-arrays round
//! engine drives the worst-case `n = 10^4` twin execution, the online
//! leader decides the exact count at the paper's tight bound. The
//! `10^5`-and-up sizes
//! run release-only via `exp_scale` (see `docs/SCALING.md`); this is
//! the debug-profile tier-1 guard for the same path.

use anonet::multigraph::adversary::TwinBuilder;
use anonet::multigraph::simulate::{simulate, OnlineLeader};

#[test]
fn ten_thousand_node_twin_decides_at_the_tight_bound() {
    let n: u64 = 10_000;
    let pair = TwinBuilder::new().build(n).expect("twin construction");
    assert_eq!(pair.horizon, 8, "closed-form horizon for n = 10^4");

    let rounds = pair.horizon as usize + 4;
    let exec = simulate(&pair.smaller, rounds);

    let mut leader = OnlineLeader::new();
    let mut decided = None;
    for (r, round) in exec.rounds.iter().enumerate() {
        if let Some(count) = leader
            .ingest(&exec.arena, round)
            .expect("real executions are feasible")
        {
            decided = Some((r as u32 + 1, count));
            break;
        }
    }
    let (rounds_to_decide, count) = decided.expect("decides within horizon + 2");
    assert_eq!(count, n, "leader outputs the exact count");
    assert_eq!(
        rounds_to_decide,
        pair.horizon + 2,
        "decision takes exactly horizon + 2 rounds"
    );
}
