//! Optimal leader counting in `M(DBL)_2`: the kernel (affine-solver)
//! algorithm.
//!
//! The leader's knowledge after observing rounds `0..=r` is the affine
//! line `{s + t·k_r}` of censuses consistent with its observations
//! (`anonet_multigraph::system::solve_census`). The *optimal* deterministic
//! algorithm outputs as soon as exactly one point on that line is
//! non-negative — no algorithm can decide earlier (it would be wrong on an
//! indistinguishable twin), and deciding then is always safe. Against the
//! kernel adversary this algorithm terminates after exactly
//! `⌊log₃(2n+1)⌋ + 1` observed rounds, matching Theorem 1.

use anonet_multigraph::system::{AffineCensus, IncrementalSolver};
use anonet_multigraph::{DblMultigraph, ObservationStream};
use anonet_trace::{NullSink, RoundEvent, TraceSink};
use core::fmt;

/// The outcome of running a counting algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountingOutcome {
    /// The count the leader output.
    pub count: u64,
    /// Number of observed rounds before deciding (deciding after rounds
    /// `0..=r` gives `rounds = r + 1`).
    pub rounds: u32,
}

/// Errors from the kernel counting algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CountingError {
    /// The horizon elapsed before the solution became unique.
    Undecided {
        /// Rounds observed without reaching uniqueness.
        rounds: u32,
        /// The candidate population range at the horizon.
        candidates: Option<(i64, i64)>,
    },
    /// The observations did not come from a `k = 2` multigraph.
    BadObservations(String),
}

impl fmt::Display for CountingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountingError::Undecided { rounds, candidates } => match candidates {
                Some((lo, hi)) => write!(
                    f,
                    "undecided after {rounds} rounds: population in [{lo}, {hi}]"
                ),
                None => write!(f, "undecided after {rounds} rounds"),
            },
            CountingError::BadObservations(s) => write!(f, "bad observations: {s}"),
        }
    }
}

impl std::error::Error for CountingError {}

/// Per-round progress of the kernel counting leader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountingTrace {
    /// After each observed round: the feasible population interval.
    pub candidate_ranges: Vec<(i64, i64)>,
}

/// The kernel counting algorithm.
///
/// The leader's state is maintained *incrementally*: an
/// [`ObservationStream`] derives each round's per-prefix counts from the
/// running histories, and an [`IncrementalSolver`] extends the affine
/// solution line level by level — so observing round `r` costs
/// `O(nodes + 3^r)` instead of rebuilding (and re-solving) the whole
/// observation system from scratch.
///
/// # Examples
///
/// ```
/// use anonet_core::algorithms::KernelCounting;
/// use anonet_multigraph::adversary::TwinBuilder;
///
/// // Against the worst-case adversary, counting n = 13 nodes takes
/// // exactly ⌊log₃ 27⌋ + 1 = 4 rounds.
/// let pair = TwinBuilder::new().build(13)?;
/// let outcome = KernelCounting::new().run(&pair.smaller, 16)?;
/// assert_eq!(outcome.count, 13);
/// assert_eq!(outcome.rounds, 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCounting;

impl KernelCounting {
    /// Creates the algorithm.
    pub fn new() -> KernelCounting {
        KernelCounting
    }

    /// Runs the leader against the multigraph, observing one round at a
    /// time, and outputs at the first round whose observation system has a
    /// unique non-negative solution.
    ///
    /// # Errors
    ///
    /// Returns [`CountingError::Undecided`] if `max_rounds` elapse first
    /// and [`CountingError::BadObservations`] for non-`k=2` multigraphs.
    pub fn run(
        &self,
        m: &DblMultigraph,
        max_rounds: u32,
    ) -> Result<CountingOutcome, CountingError> {
        self.run_with_sink(m, max_rounds, &mut NullSink)
            .map(|(o, _)| o)
    }

    /// Like [`KernelCounting::run`], also returning the per-round feasible
    /// population intervals (the leader's shrinking candidate set) and
    /// emitting one [`RoundEvent`] per observed round to `sink`: the
    /// feasible population interval (`candidate_lo`/`candidate_hi`), the
    /// number of feasible censuses on the affine line (`candidate_count`),
    /// the kernel dimension of the observation system `M_r` (always 1 for
    /// `k = 2` by Lemmas 2 and 3; `M_r` does not depend on the execution,
    /// so the fact is pinned once by tests rather than re-derived here)
    /// and the size of the flat constant-terms vector `m_r`
    /// (`state_size`).
    ///
    /// # Errors
    ///
    /// Same as [`KernelCounting::run`].
    pub fn run_with_sink<S: TraceSink>(
        &self,
        m: &DblMultigraph,
        max_rounds: u32,
        sink: &mut S,
    ) -> Result<(CountingOutcome, CountingTrace), CountingError> {
        let mut trace = CountingTrace {
            candidate_ranges: Vec::new(),
        };
        let mut stream = ObservationStream::new(m)
            .map_err(|e| CountingError::BadObservations(e.to_string()))?;
        let mut solver = IncrementalSolver::new();
        let mut state_size = 0u64;
        let mut last: Option<AffineCensus> = None;
        for rounds in 1..=max_rounds {
            let level = rounds as usize - 1;
            let (a, b) = stream
                .push_round()
                .map_err(|e| CountingError::BadObservations(e.to_string()))?;
            let sol = solver
                .push_level(a, b)
                .map_err(|e| CountingError::BadObservations(e.to_string()))?;
            // The flat constant-terms vector m_{r} grows by the new
            // level's 2·3^level entries (saturating: the metric is
            // diagnostic, and must not panic on absurd depths).
            state_size = state_size.saturating_add(
                3u64.checked_pow(level as u32)
                    .and_then(|c| c.checked_mul(2))
                    .unwrap_or(u64::MAX),
            );
            // In-model observations are always feasible; out-of-model
            // input (e.g. fault-injected deliveries replayed through the
            // observation stream) must fail closed, not panic.
            let range = sol.population_range().ok_or_else(|| {
                CountingError::BadObservations(format!(
                    "observation system infeasible at round {rounds} (out-of-model input)"
                ))
            })?;
            trace.candidate_ranges.push(range);
            sink.record(
                &RoundEvent::new(rounds - 1)
                    .candidates(range.0, range.1)
                    .candidate_count(sol.solution_count() as u64)
                    .kernel_dim(1) // Lemma 2: dim ker M_r = 1
                    .state_size(state_size),
            );
            if let Some(count) = sol.unique_population() {
                sink.flush();
                return Ok((
                    CountingOutcome {
                        count: count as u64,
                        rounds,
                    },
                    trace,
                ));
            }
            last = Some(sol);
        }
        sink.flush();
        Err(CountingError::Undecided {
            rounds: max_rounds,
            candidates: last.and_then(|s| s.population_range()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_multigraph::adversary::TwinBuilder;
    use anonet_multigraph::{Census, LabelSet};

    #[test]
    fn counts_exactly_under_worst_case_adversary() {
        let b = TwinBuilder::new();
        for n in [1u64, 2, 3, 4, 7, 12, 13, 26, 40, 100] {
            let pair = b.build(n).unwrap();
            let outcome = KernelCounting::new().run(&pair.smaller, 32).unwrap();
            assert_eq!(outcome.count, n, "exact count for n={n}");
            assert_eq!(
                outcome.rounds,
                crate::bounds::counting_rounds_lower_bound(n),
                "tight against the kernel adversary for n={n}"
            );
            // The larger twin is also counted exactly.
            let outcome = KernelCounting::new().run(&pair.larger, 32).unwrap();
            assert_eq!(outcome.count, n + 1);
        }
    }

    #[test]
    fn never_decides_during_ambiguity() {
        let b = TwinBuilder::new();
        for n in [4u64, 13, 40] {
            let pair = b.build(n).unwrap();
            let horizon = pair.horizon;
            let err = KernelCounting::new()
                .run(&pair.smaller, horizon + 1)
                .unwrap_err();
            match err {
                CountingError::Undecided { rounds, candidates } => {
                    assert_eq!(rounds, horizon + 1);
                    let (lo, hi) = candidates.unwrap();
                    assert!(lo <= n as i64 && (n as i64) < hi);
                }
                other => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn trace_ranges_shrink_and_contain_truth() {
        let pair = TwinBuilder::new().build(25).unwrap();
        let mut sink = anonet_trace::MemorySink::new();
        let (outcome, trace) = KernelCounting::new()
            .run_with_sink(&pair.smaller, 32, &mut sink)
            .unwrap();
        assert_eq!(outcome.count, 25);
        let mut prev: Option<(i64, i64)> = None;
        for &(lo, hi) in &trace.candidate_ranges {
            assert!((lo..=hi).contains(&25), "truth always feasible");
            if let Some((plo, phi)) = prev {
                assert!(lo >= plo && hi <= phi, "candidate set shrinks");
            }
            prev = Some((lo, hi));
        }
        let last = *trace.candidate_ranges.last().unwrap();
        assert_eq!(last, (25, 25));
        // Every traced round carries Lemma 2's kernel dimension.
        assert_eq!(sink.events().len(), trace.candidate_ranges.len());
        assert!(sink.events().iter().all(|ev| ev.kernel_dim == Some(1)));
    }

    #[test]
    fn easy_instances_decide_fast() {
        // A network where everyone uses distinct singleton labels is easy:
        // label-1 and label-2 observations already pin the census by round 2.
        let m = Census::from_counts(vec![3, 2, 0])
            .unwrap()
            .realize()
            .unwrap();
        let outcome = KernelCounting::new().run(&m, 8).unwrap();
        assert_eq!(outcome.count, 5);
        assert!(outcome.rounds <= 2);
    }

    #[test]
    fn single_node() {
        let m = anonet_multigraph::DblMultigraph::new(2, vec![vec![LabelSet::L12]]).unwrap();
        let outcome = KernelCounting::new().run(&m, 8).unwrap();
        assert_eq!(outcome.count, 1);
        assert_eq!(
            outcome.rounds,
            crate::bounds::counting_rounds_lower_bound(1)
        );
    }

    #[test]
    fn incremental_leader_matches_batch_reference() {
        // The streamed observations + incremental solver must reproduce
        // the batch path (full re-observation + solve_census) exactly at
        // every round prefix.
        use anonet_multigraph::system::solve_census;
        use anonet_multigraph::Observations;
        let pair = TwinBuilder::new().build(26).unwrap();
        let (outcome, trace) = KernelCounting::new()
            .run_with_sink(&pair.smaller, 32, &mut NullSink)
            .unwrap();
        assert_eq!(outcome.count, 26);
        for (i, &range) in trace.candidate_ranges.iter().enumerate() {
            let obs = Observations::observe(&pair.smaller, i + 1).unwrap();
            let sol = solve_census(&obs).unwrap();
            assert_eq!(sol.population_range().unwrap(), range, "round {}", i + 1);
        }
    }

    #[test]
    fn rejects_k3() {
        let m = anonet_multigraph::DblMultigraph::new(
            3,
            vec![vec![LabelSet::from_labels(&[3], 3).unwrap()]],
        )
        .unwrap();
        assert!(matches!(
            KernelCounting::new().run(&m, 4),
            Err(CountingError::BadObservations(_))
        ));
    }
}
