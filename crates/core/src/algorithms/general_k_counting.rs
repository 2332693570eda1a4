//! Counting in `M(DBL)_k` for arbitrary `k` (extension).
//!
//! For `k = 2` the observation system's kernel is one-dimensional and the
//! tree solver decides in `⌊log₃(2n+1)⌋ + 1` rounds. For `k ≥ 3` the
//! kernel grows with the round (see `anonet_multigraph::system_k`), and no
//! closed-form decision rule is known — but the *information-theoretic*
//! rule still applies: enumerate every census consistent with the
//! observations and output when all of them agree on the population.
//! This module implements that rule by bounded lattice enumeration;
//! exponential, so sized for small networks.

use super::kernel_counting::CountingOutcome;
use anonet_multigraph::system_k::{GeneralSystem, SystemKError};
use anonet_multigraph::DblMultigraph;
use anonet_trace::{NullSink, RoundEvent, TraceSink};
use core::fmt;

/// Errors of the general-`k` counting rule.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GeneralKError {
    /// The underlying system machinery failed (size, `k` mismatch, …).
    System(SystemKError),
    /// The horizon elapsed with more than one consistent population.
    Undecided {
        /// Rounds observed.
        rounds: u32,
        /// The consistent populations at the horizon.
        candidates: Vec<i64>,
    },
}

impl fmt::Display for GeneralKError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeneralKError::System(e) => write!(f, "system error: {e}"),
            GeneralKError::Undecided { rounds, candidates } => {
                write!(f, "undecided after {rounds} rounds: |W| in {candidates:?}")
            }
        }
    }
}

impl std::error::Error for GeneralKError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GeneralKError::System(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SystemKError> for GeneralKError {
    fn from(e: SystemKError) -> Self {
        GeneralKError::System(e)
    }
}

/// The exhaustive counting rule for `M(DBL)_k`, any `k ≤ 6`.
///
/// # Examples
///
/// ```
/// use anonet_core::algorithms::GeneralKCounting;
/// use anonet_multigraph::{DblMultigraph, LabelSet};
///
/// // A k = 3 network: one node per non-empty label subset.
/// let all: Vec<LabelSet> = (1u32..8)
///     .map(|m| LabelSet::from_mask(m, 3).unwrap())
///     .collect();
/// let m = DblMultigraph::new(3, vec![all])?;
/// let outcome = GeneralKCounting::new(500_000).run(&m, 6)?;
/// assert_eq!(outcome.count, 7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GeneralKCounting {
    max_solutions: usize,
}

impl GeneralKCounting {
    /// Creates the rule with an enumeration budget (solutions per round).
    pub fn new(max_solutions: usize) -> GeneralKCounting {
        GeneralKCounting { max_solutions }
    }

    /// Observes `m` round by round and outputs when exactly one
    /// population remains consistent.
    ///
    /// # Errors
    ///
    /// Returns [`GeneralKError::Undecided`] if `max_rounds` elapse first
    /// and [`GeneralKError::System`] for infeasible instances.
    pub fn run(
        &self,
        m: &DblMultigraph,
        max_rounds: u32,
    ) -> Result<CountingOutcome, GeneralKError> {
        self.run_with_sink(m, max_rounds, &mut NullSink)
    }

    /// Like [`GeneralKCounting::run`], additionally emitting one
    /// [`RoundEvent`] per observed round to `sink`: the number of
    /// consistent populations (`candidate_count`), their interval
    /// (`candidate_lo`/`candidate_hi`) and the kernel dimension of the
    /// round's observation system (`kernel_dim`; grows with the round for
    /// `k ≥ 3` — the reason no closed-form rule is known). The dimension
    /// is [`GeneralSystem::predicted_nullity`]: the matrix depends only on
    /// `k` and the round, and exact elimination in the tests confirms the
    /// closed form on every matrix of at most 512 columns.
    ///
    /// # Errors
    ///
    /// Same as [`GeneralKCounting::run`].
    pub fn run_with_sink<S: TraceSink>(
        &self,
        m: &DblMultigraph,
        max_rounds: u32,
        sink: &mut S,
    ) -> Result<CountingOutcome, GeneralKError> {
        let sys = GeneralSystem::new(m.k())?;
        let mut last = Vec::new();
        for rounds in 1..=max_rounds {
            let pops = sys.feasible_populations(m, rounds as usize, self.max_solutions)?;
            let mut ev = RoundEvent::new(rounds - 1).candidate_count(pops.len() as u64);
            if let (Some(&lo), Some(&hi)) = (pops.first(), pops.last()) {
                ev = ev.candidates(lo, hi);
            }
            if let Ok(nullity) = sys.predicted_nullity(rounds as usize - 1) {
                ev = ev.kernel_dim(nullity as u64);
            }
            sink.record(&ev);
            if pops.len() == 1 {
                sink.flush();
                return Ok(CountingOutcome {
                    count: pops[0] as u64,
                    rounds,
                });
            }
            last = pops;
        }
        sink.flush();
        Err(GeneralKError::Undecided {
            rounds: max_rounds,
            candidates: last,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_multigraph::adversary::TwinBuilder;
    use anonet_multigraph::LabelSet;

    fn l3(labels: &[u8]) -> LabelSet {
        LabelSet::from_labels(labels, 3).unwrap()
    }

    #[test]
    fn agrees_with_kernel_counting_for_k2() {
        use crate::algorithms::KernelCounting;
        for n in [1u64, 3, 4, 9] {
            let pair = TwinBuilder::new().build(n).unwrap();
            let exhaustive = GeneralKCounting::new(5_000_000)
                .run(&pair.smaller, 8)
                .unwrap();
            let kernel = KernelCounting::new().run(&pair.smaller, 8).unwrap();
            assert_eq!(exhaustive.count, kernel.count, "n={n}");
            assert_eq!(
                exhaustive.rounds, kernel.rounds,
                "both rules are information-theoretically optimal, n={n}"
            );
        }
    }

    #[test]
    fn counts_k3_networks() {
        // Rotating singletons: each node cycles through distinct labels.
        let m = DblMultigraph::new(
            3,
            vec![
                vec![l3(&[1]), l3(&[2]), l3(&[3])],
                vec![l3(&[2]), l3(&[3]), l3(&[1])],
                vec![l3(&[3]), l3(&[1]), l3(&[2])],
            ],
        )
        .unwrap();
        let out = GeneralKCounting::new(2_000_000).run(&m, 4).unwrap();
        assert_eq!(out.count, 3);
    }

    #[test]
    fn k3_needs_more_rounds_than_the_k2_embedding() {
        // The same census viewed as k=3 admits more confusions: the
        // one-per-set instance decides later (or at the same time) for
        // larger alphabets.
        let k2 =
            DblMultigraph::new(2, vec![vec![LabelSet::L1, LabelSet::L2, LabelSet::L12]]).unwrap();
        let all7: Vec<LabelSet> = (1u32..8)
            .map(|m| LabelSet::from_mask(m, 3).unwrap())
            .collect();
        let k3 = DblMultigraph::new(3, vec![all7]).unwrap();
        let r2 = GeneralKCounting::new(2_000_000).run(&k2, 8).unwrap().rounds;
        let r3 = GeneralKCounting::new(5_000_000).run(&k3, 8).unwrap().rounds;
        assert!(r3 >= r2, "k=3 ({r3}) at least as slow as k=2 ({r2})");
    }

    #[test]
    fn traced_kernel_dims_match_predicted_nullity() {
        // The traced kernel dimension is the closed-form prediction at
        // every round.
        use anonet_trace::MemorySink;
        let k3 = DblMultigraph::new(
            3,
            vec![
                vec![l3(&[1]), l3(&[2]), l3(&[3])],
                vec![l3(&[2]), l3(&[3]), l3(&[1])],
                vec![l3(&[3]), l3(&[1]), l3(&[2])],
            ],
        )
        .unwrap();
        let mut sink = MemorySink::new();
        let out = GeneralKCounting::new(2_000_000)
            .run_with_sink(&k3, 4, &mut sink)
            .unwrap();
        assert_eq!(out.count, 3);
        let sys = GeneralSystem::new(3).unwrap();
        assert!(!sink.events().is_empty());
        for (r, ev) in sink.events().iter().enumerate() {
            assert_eq!(
                ev.kernel_dim,
                Some(sys.predicted_nullity(r).unwrap() as u64),
                "round {r}"
            );
        }
    }

    #[test]
    fn undecided_reports_candidates() {
        let pair = TwinBuilder::new().build(4).unwrap();
        let err = GeneralKCounting::new(1_000_000)
            .run(&pair.smaller, pair.horizon + 1)
            .unwrap_err();
        match err {
            GeneralKError::Undecided { candidates, .. } => {
                assert!(candidates.contains(&4) && candidates.contains(&5));
            }
            other => panic!("unexpected: {other}"),
        }
    }
}
