//! Golden regression tests pinning *exact* termination rounds.
//!
//! The paper's bounds are tight on the worst-case adversary, so the
//! observed round counts are not allowed to drift at all: the kernel
//! rule must decide in exactly `⌊log₃(2n+1)⌋ + 1` rounds
//! ([Theorem 1]), the `G(PD)_2` view rule in exactly
//! `(D - 2) + ⌊log₃(2n+1)⌋ + 1` rounds with the reduction's dynamic
//! diameter `D = 3` (Corollary 1), and the non-anonymous degree oracle
//! in a size-independent 3 rounds. Any change to the observation
//! system, the incremental solver, or the kernel tracker that altered a
//! single decision round fails these literal tables.
//!
//! [Theorem 1]: anonet::core::bounds::counting_rounds_lower_bound

use anonet::core::algorithms::{run_degree_oracle, run_pd2_view_counting, KernelCounting};
use anonet::core::bounds;
use anonet::multigraph::adversary::TwinBuilder;
use anonet::multigraph::transform;

/// Dynamic diameter of the Lemma 1 `G(PD)_2` images: leader → relay →
/// leaf is a fixed 2-hop spine, plus one round for the return edge.
const PD2_DIAMETER: u32 = 3;

#[test]
fn golden_kernel_counting_rounds_on_worst_case_adversary() {
    // (n, exact decision round) across every value where the bound
    // steps: the kernel rule is *tight* against Theorem 1, so the
    // golden rounds equal the lower bound — and the indistinguishability
    // horizon of the twin construction sits exactly two rounds below.
    let golden: &[(u64, u32)] = &[
        (1, 2),
        (2, 2),
        (3, 2),
        (4, 3),
        (5, 3),
        (12, 3),
        (13, 4),
        (39, 4),
        (40, 5),
        (121, 6),
        (122, 6),
    ];
    for &(n, rounds) in golden {
        let pair = TwinBuilder::new().build(n).unwrap();
        let out = KernelCounting::new().run(&pair.smaller, 32).unwrap();
        assert_eq!(out.count, n, "n={n}");
        assert_eq!(out.rounds, rounds, "n={n}: decision round drifted");
        assert_eq!(
            rounds,
            bounds::counting_rounds_lower_bound(n),
            "n={n}: the golden table must equal the Theorem 1 bound"
        );
        assert_eq!(
            rounds,
            pair.horizon + 2,
            "n={n}: decision lands two rounds past the twin horizon"
        );
    }
}

#[test]
fn golden_pd2_view_counting_rounds_match_corollary_bound() {
    // On the G(PD)_2 images of the worst-case twins, the view rule
    // decides in exactly (D - 2) + ⌊log₃(2n+1)⌋ + 1 rounds — the
    // Corollary 1 lower bound with the reduction's diameter D = 3 —
    // and counts the image order |V| = n + 3.
    for n in [1u64, 2, 3, 4] {
        let pair = TwinBuilder::new().build(n).unwrap();
        let net = transform::to_pd2(&pair.smaller, 10).unwrap();
        let out = run_pd2_view_counting(net, 10, 2_000_000).unwrap();
        assert_eq!(out.count, n + 3, "n={n}: |V| of the PD2 image");
        assert_eq!(
            out.rounds,
            bounds::corollary_rounds_lower_bound(PD2_DIAMETER, n),
            "n={n}: view-counting decision round drifted off Corollary 1"
        );
    }
    // Literal spot values so the bound function itself cannot drift.
    assert_eq!(bounds::corollary_rounds_lower_bound(PD2_DIAMETER, 1), 3);
    assert_eq!(bounds::corollary_rounds_lower_bound(PD2_DIAMETER, 4), 4);
}

#[test]
fn golden_degree_oracle_is_constant_round() {
    // The non-anonymous baseline: 3 rounds regardless of n, counting
    // the full PD2 image. The gap between this table and the kernel
    // table above *is* the cost of anonymity.
    for n in [3u64, 12, 30, 40] {
        let pair = TwinBuilder::new().build(n).unwrap();
        let net = transform::to_pd2(&pair.smaller, 4).unwrap();
        let out = run_degree_oracle(net).unwrap();
        assert_eq!(out.rounds, 3, "n={n}: oracle is constant-round");
        assert_eq!(out.count, n + 3, "n={n}");
        assert!(
            n <= 12 || out.rounds < bounds::counting_rounds_lower_bound(n),
            "n={n}: past n = 12 the anonymous rule must be strictly slower"
        );
    }
}
