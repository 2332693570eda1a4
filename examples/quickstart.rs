//! Quickstart: count an anonymous dynamic network under the worst-case
//! adversary and compare against the paper's bound.
//!
//! Run with: `cargo run --example quickstart [n]`

use anonet::core::algorithms::KernelCounting;
use anonet::core::bounds;
use anonet::multigraph::adversary::TwinBuilder;
use anonet::netsim::trace::NullSink;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(40);

    // 1. The worst-case adversary builds a dynamic multigraph of size n
    //    (and a twin of size n+1 that looks identical for as long as
    //    possible).
    let pair = TwinBuilder::new().build(n)?;
    println!(
        "adversary: twins of sizes {} and {} are leader-indistinguishable \
         through round {}",
        pair.smaller.nodes(),
        pair.larger.nodes(),
        pair.horizon
    );

    // 2. The optimal leader algorithm counts by solving the observation
    //    system m_r = M_r s_r each round and deciding once the
    //    non-negative solution is unique.
    let (outcome, trace) =
        KernelCounting::new().run_with_sink(&pair.smaller, 64, &mut NullSink)?;
    println!("\nleader's candidate population range per round:");
    for (r, (lo, hi)) in trace.candidate_ranges.iter().enumerate() {
        println!("  after round {r}: [{lo}, {hi}]");
    }
    println!(
        "\ncounted |W| = {} after {} rounds",
        outcome.count, outcome.rounds
    );

    // 3. The paper's Theorem 1 bound — matched exactly.
    let bound = bounds::counting_rounds_lower_bound(n);
    println!("paper lower bound: ⌊log₃(2·{n}+1)⌋ + 1 = {bound} rounds");
    assert_eq!(outcome.rounds, bound, "the algorithm is tight");
    println!("=> the cost of anonymity for n = {n} is exactly {bound} rounds");
    Ok(())
}
