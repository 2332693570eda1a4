//! History-tree counting in `M(DBL)_2`: the linear-round alternating
//! spine-sum algorithm.
//!
//! Di Luna–Viglietta 2022 ("Computing in Anonymous Dynamic Networks Is
//! Linear") organizes the leader's view into a *history tree* and counts
//! by combinatorics on that tree instead of solving the `3^r`-column
//! observation system. This module wraps the incremental
//! [`HistoryTreeLeader`] of `anonet-multigraph` — the tree is exactly the
//! [`HistoryArena`](anonet_multigraph::HistoryArena) hash-cons the
//! simulator already maintains, so tree nodes are interned 4-byte
//! handles — in the same `run`/`run_with_sink` surface as
//! [`KernelCounting`](super::KernelCounting), with the same typed
//! [`CountingOutcome`]/[`CountingError`] results.
//!
//! The termination rule is the linear-round stabilization rule on the
//! tree's *spine* (the all-`{1,2}` branch): the alternating sum of
//! per-round spine deliveries equals the population exactly at the first
//! round whose spine is silent. See `anonet_multigraph::history_tree`
//! for the derivation, and for the honest limitation: executions that
//! keep the spine alive forever (static all-`{1,2}` networks, odd-depth
//! twins) end in [`CountingError::Undecided`] rather than a decision —
//! the kernel algorithm decides on every `M(DBL)_2` execution, and the
//! `exp_crossover` benchmark measures what that generality costs.

use super::{CountingError, CountingOutcome, CountingTrace};
use anonet_multigraph::history_tree::HistoryTreeLeader;
use anonet_multigraph::simulate::simulate;
use anonet_multigraph::DblMultigraph;
use anonet_trace::{NullSink, RoundEvent, TraceSink};

/// The history-tree counting algorithm.
///
/// Observing round `r` costs `O(deliveries of round r)` — each delivery
/// is classified on/off the spine with two O(1) arena lookups — so the
/// leader's per-round work is linear where the kernel solver's grows
/// with the `3^r` column count. The price is generality: the truncated
/// spine-death rule decides only when the spine empties.
///
/// # Examples
///
/// ```
/// use anonet_core::algorithms::HistoryTreeCounting;
/// use anonet_multigraph::adversary::TwinBuilder;
///
/// // Even-depth worst-case twins: the spine dies at horizon + 1 and the
/// // leader decides at horizon + 2 — the kernel algorithm's own bound.
/// let pair = TwinBuilder::new().build(40)?;
/// let outcome = HistoryTreeCounting::new().run(&pair.smaller, 16)?;
/// assert_eq!(outcome.count, 40);
/// assert_eq!(outcome.rounds, pair.horizon + 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct HistoryTreeCounting;

impl HistoryTreeCounting {
    /// Creates the algorithm.
    pub fn new() -> HistoryTreeCounting {
        HistoryTreeCounting
    }

    /// Runs the leader against the multigraph, observing one round at a
    /// time, and outputs at the first round whose spine is silent.
    ///
    /// # Errors
    ///
    /// Returns [`CountingError::Undecided`] if `max_rounds` elapse with
    /// the spine alive (the candidate interval of the error is the
    /// running intersection of the per-round spine bounds) and
    /// [`CountingError::BadObservations`] for non-`k=2` multigraphs or
    /// self-contradictory spine sums.
    pub fn run(
        &self,
        m: &DblMultigraph,
        max_rounds: u32,
    ) -> Result<CountingOutcome, CountingError> {
        self.run_with_sink(m, max_rounds, &mut NullSink)
            .map(|(o, _)| o)
    }

    /// Like [`HistoryTreeCounting::run`], also returning the per-round
    /// feasible population intervals (the leader's shrinking candidate
    /// set) and emitting one [`RoundEvent`] per observed round to
    /// `sink`: the delivery count (`deliveries`), the feasible population
    /// interval (`candidate_lo`/`candidate_hi`) with its width
    /// (`candidate_count`), the cumulative number of distinct
    /// `(label, history)` delivery classes — the materialized
    /// history-tree frontier — as `state_size`, and the round's spine
    /// delivery count as `spine` (the decision fires the round this
    /// drops to zero).
    ///
    /// # Errors
    ///
    /// Same as [`HistoryTreeCounting::run`].
    pub fn run_with_sink<S: TraceSink>(
        &self,
        m: &DblMultigraph,
        max_rounds: u32,
        sink: &mut S,
    ) -> Result<(CountingOutcome, CountingTrace), CountingError> {
        if m.k() != 2 {
            return Err(CountingError::BadObservations(format!(
                "history-tree counting requires k = 2, got k = {}",
                m.k()
            )));
        }
        let mut trace = CountingTrace {
            candidate_ranges: Vec::new(),
        };
        let exec = simulate(m, max_rounds as usize);
        let mut leader = HistoryTreeLeader::new();
        for rounds in 1..=max_rounds {
            let round = &exec.rounds[rounds as usize - 1];
            let step = leader
                .ingest(&exec.arena, round)
                .map_err(|e| CountingError::BadObservations(e.to_string()))?;
            let (lo, hi) = leader
                .candidates()
                .expect("interval exists after a successful ingest");
            trace.candidate_ranges.push((lo, hi));
            let event = RoundEvent::new(rounds - 1)
                .deliveries(round.len() as u64)
                .candidates(lo, hi)
                .candidate_count((hi - lo + 1) as u64)
                .state_size(leader.classes())
                .spine(leader.spine_deliveries());
            sink.record(&event);
            if let Some(count) = step {
                sink.flush();
                return Ok((CountingOutcome { count, rounds }, trace));
            }
        }
        sink.flush();
        Err(CountingError::Undecided {
            rounds: max_rounds,
            candidates: leader.candidates(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_multigraph::adversary::TwinBuilder;
    use anonet_multigraph::{Census, LabelSet};

    #[test]
    fn counts_even_depth_twins_at_the_kernel_bound() {
        let b = TwinBuilder::new();
        for n in [4u64, 40, 364] {
            let pair = b.build(n).unwrap();
            let outcome = HistoryTreeCounting::new().run(&pair.smaller, 32).unwrap();
            assert_eq!(outcome.count, n, "exact count for n={n}");
            assert_eq!(
                outcome.rounds,
                crate::bounds::counting_rounds_lower_bound(n),
                "ties the kernel bound on even-depth twins for n={n}"
            );
        }
    }

    #[test]
    fn never_decides_while_the_spine_is_alive() {
        let pair = TwinBuilder::new().build(40).unwrap();
        let err = HistoryTreeCounting::new()
            .run(&pair.smaller, pair.horizon + 1)
            .unwrap_err();
        match err {
            CountingError::Undecided { rounds, candidates } => {
                assert_eq!(rounds, pair.horizon + 1);
                let (lo, hi) = candidates.unwrap();
                assert!(lo <= 40 && 40 <= hi, "truth in [{lo}, {hi}]");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn static_all_l12_networks_stay_undecided() {
        // The documented limitation of the truncated spine-death rule:
        // a static clique delivering {1,2} forever never kills the
        // spine; the leader reports Undecided with the truth feasible.
        let m = Census::from_counts(vec![0, 0, 4])
            .unwrap()
            .realize()
            .unwrap();
        let err = HistoryTreeCounting::new().run(&m, 12).unwrap_err();
        match err {
            CountingError::Undecided { rounds, candidates } => {
                assert_eq!(rounds, 12);
                let (lo, hi) = candidates.unwrap();
                assert!(lo <= 4 && 4 <= hi);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn trace_ranges_shrink_and_contain_truth() {
        let pair = TwinBuilder::new().build(40).unwrap();
        let (outcome, trace) = HistoryTreeCounting::new()
            .run_with_sink(&pair.smaller, 32, &mut NullSink)
            .unwrap();
        assert_eq!(outcome.count, 40);
        let mut prev: Option<(i64, i64)> = None;
        for &(lo, hi) in &trace.candidate_ranges {
            assert!((lo..=hi).contains(&40), "truth always feasible");
            if let Some((plo, phi)) = prev {
                assert!(lo >= plo && hi <= phi, "candidate set shrinks");
            }
            prev = Some((lo, hi));
        }
        assert_eq!(*trace.candidate_ranges.last().unwrap(), (40, 40));
    }

    #[test]
    fn traced_events_carry_the_spine_facet() {
        use anonet_trace::MemorySink;
        let pair = TwinBuilder::new().build(40).unwrap();
        let mut sink = MemorySink::new();
        HistoryTreeCounting::new()
            .run_with_sink(&pair.smaller, 32, &mut sink)
            .unwrap();
        let events = sink.events();
        assert!(events.iter().all(|ev| ev.spine.is_some()));
        // The decision round is exactly the round the spine died.
        assert_eq!(events.last().unwrap().spine, Some(0));
        assert!(events[..events.len() - 1]
            .iter()
            .all(|ev| ev.spine.unwrap() > 0));
    }

    #[test]
    fn easy_instances_decide_as_soon_as_the_spine_dies() {
        let m = Census::from_counts(vec![3, 2, 0])
            .unwrap()
            .realize()
            .unwrap();
        let outcome = HistoryTreeCounting::new().run(&m, 8).unwrap();
        assert_eq!(outcome.count, 5);
        assert_eq!(outcome.rounds, 2);
    }

    #[test]
    fn rejects_k3() {
        let m = anonet_multigraph::DblMultigraph::new(
            3,
            vec![vec![LabelSet::from_labels(&[3], 3).unwrap()]],
        )
        .unwrap();
        assert!(matches!(
            HistoryTreeCounting::new().run(&m, 4),
            Err(CountingError::BadObservations(_))
        ));
    }
}
