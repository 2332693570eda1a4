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

use anonet_linalg::SolverBackend;
use anonet_multigraph::system::{AffineCensus, IncrementalSolver, ObservationKernel};
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
pub struct KernelCounting {
    verify_kernel: bool,
    trace_certification: bool,
    backend: SolverBackend,
}

/// Column budget for opt-in kernel verification: `3^5 = 243` unknowns
/// (rounds ≤ 5). Beyond it the leader reports the Lemma 3 value without
/// re-verifying — the verified and assumed values provably coincide.
/// The same budget caps the one-shot exact certification replay of the
/// fast backends (the [`SolverBackend::CrtCertified`] *reconstruction*
/// certificate has no such cliff and runs at any watched depth; only
/// its replay fallback is capped here).
const KERNEL_VERIFY_MAX_COLUMNS: usize = 243;

/// Column budget for the per-round watcher of the fast backends
/// ([`SolverBackend::ModpCertified`] / [`SolverBackend::CrtCertified`]):
/// `3^7 = 2187` unknowns (rounds ≤ 7) — two refinements past the exact
/// verifier. Raised from `3^6` once the delayed-reduction kernels made
/// watched appends cheap enough; the boundary regression tests cover
/// both the old (`729`) and new (`2187`) limits.
const MODP_WATCH_MAX_COLUMNS: usize = 2187;

/// Whether a round-`rounds` system (`3^rounds` unknowns) fits a column
/// budget. Computed with checked arithmetic so that depths whose column
/// count overflows `usize` are simply *past every budget* — the watcher
/// is gated off and the run falls back to Lemma 3's closed form —
/// rather than panicking mid-round (`ternary_count` asserts on
/// overflow).
fn within_column_budget(rounds: usize, budget: usize) -> bool {
    u32::try_from(rounds)
        .ok()
        .and_then(|r| 3usize.checked_pow(r))
        .is_some_and(|cols| cols <= budget)
}

impl KernelCounting {
    /// Creates the algorithm (kernel verification off, exact backend).
    pub fn new() -> KernelCounting {
        KernelCounting {
            verify_kernel: false,
            trace_certification: false,
            backend: SolverBackend::Exact,
        }
    }

    /// Additionally maintains the echelon form of `M_r` via an
    /// [`ObservationKernel`] and reports the *verified* kernel dimension
    /// in trace events instead of assuming Lemma 3's value of 1.
    ///
    /// Verification runs while the system has at most `3^5 = 243`
    /// unknowns (observed rounds ≤ 5); deeper rounds fall back to the
    /// closed form, which the verified prefix has just re-proved. The
    /// decision rule — and therefore every outcome and candidate range —
    /// is unaffected.
    pub fn with_kernel_verification(mut self) -> KernelCounting {
        self.verify_kernel = true;
        self
    }

    /// Selects the arithmetic backing the per-round kernel queries.
    ///
    /// [`SolverBackend::Exact`] (the default) is the PR 2 behaviour.
    /// [`SolverBackend::ModpCertified`] always maintains a mod-p
    /// [`ObservationKernel`] (columns ≤ `3^7 = 2187`) for the per-round
    /// kernel dimension, and certifies it against a one-shot exact
    /// elimination at the decision round (columns ≤ `3^5 = 243`) before
    /// the leader outputs. [`SolverBackend::CrtCertified`] watches with
    /// a three-prime tracker under the same column budget and replaces
    /// the decision-round replay with a *reconstructed* certificate —
    /// CRT + rational reconstruction + exact verification of the kernel
    /// basis — at any watched depth, falling back to the exact replay
    /// only if reconstruction fails. Decision rounds, candidate ranges
    /// and traces are bit-identical to the exact backend — the
    /// cross-oracle suite in `tests/tracing.rs` pins this over 50 seeds.
    pub fn with_backend(mut self, backend: SolverBackend) -> KernelCounting {
        self.backend = backend;
        self
    }

    /// Additionally labels the decision round's trace event with the
    /// certification method used (`"crt"` or `"exact-replay"`). Off by
    /// default so fast-backend traces stay byte-identical to the exact
    /// backend's.
    pub fn with_certification_trace(mut self) -> KernelCounting {
        self.trace_certification = true;
        self
    }

    /// The backend configured via [`with_backend`](Self::with_backend).
    pub fn backend(&self) -> SolverBackend {
        self.backend
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
    /// `k = 2` by Lemma 3; *verified* per round when
    /// [`with_kernel_verification`](KernelCounting::with_kernel_verification)
    /// is on) and the size of the flat constant-terms vector `m_r`
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
        let (mut verifier, watch_cols) = match self.backend {
            SolverBackend::Exact => (
                self.verify_kernel.then(ObservationKernel::new),
                KERNEL_VERIFY_MAX_COLUMNS,
            ),
            // The fast watchers are cheap enough to always run.
            SolverBackend::ModpCertified | SolverBackend::CrtCertified => (
                Some(ObservationKernel::with_backend(self.backend)),
                MODP_WATCH_MAX_COLUMNS,
            ),
        };
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
            // diagnostic, and must not panic where the budget gates
            // below already fail closed).
            state_size = state_size.saturating_add(
                3u64.checked_pow(level as u32)
                    .and_then(|c| c.checked_mul(2))
                    .unwrap_or(u64::MAX),
            );
            let kernel_dim = match verifier.as_mut() {
                Some(v) if within_column_budget(rounds as usize, watch_cols) => {
                    v.push_round()
                        .map_err(|e| CountingError::BadObservations(e.to_string()))?;
                    v.nullity() as u64
                }
                _ => 1, // Lemma 3 (re-proved by the verified prefix).
            };
            // In-model observations are always feasible; out-of-model
            // input (e.g. fault-injected deliveries replayed through the
            // observation stream) must fail closed, not panic.
            let range = sol.population_range().ok_or_else(|| {
                CountingError::BadObservations(format!(
                    "observation system infeasible at round {rounds} (out-of-model input)"
                ))
            })?;
            trace.candidate_ranges.push(range);
            // Second tier of the fast-backend protocols, run *before* the
            // decision event is recorded so the certification method can
            // be traced on it. ModpCertified replays the exact
            // elimination once (skipped past the exact column budget,
            // where Lemma 3's closed form is the certificate);
            // CrtCertified reconstructs the certificate from its three
            // prime lanes at any watched depth — no exact re-elimination
            // — and only replays if reconstruction fails (fail-closed).
            let decided = sol.unique_population();
            let mut certification: Option<&'static str> = None;
            if decided.is_some() {
                if let Some(v) = verifier.as_ref().filter(|v| v.rounds() > 0) {
                    let replay_ok =
                        within_column_budget(v.rounds(), KERNEL_VERIFY_MAX_COLUMNS);
                    let exact = match self.backend {
                        SolverBackend::Exact => None,
                        SolverBackend::ModpCertified if replay_ok => {
                            certification = Some("exact-replay");
                            Some(v.certify())
                        }
                        SolverBackend::CrtCertified => match v.crt_certificate() {
                            Some(cert) => {
                                certification = Some("crt");
                                Some(Ok(cert.nullity))
                            }
                            None if replay_ok => {
                                certification = Some("exact-replay");
                                Some(v.certify())
                            }
                            None => None,
                        },
                        _ => None,
                    };
                    if let Some(exact) = exact {
                        let exact = exact
                            .map_err(|e| CountingError::BadObservations(e.to_string()))?;
                        if exact != v.nullity() {
                            return Err(CountingError::BadObservations(format!(
                                "{} certification failed at decision round {rounds}: \
                                 exact nullity {exact} != watched nullity {}",
                                certification.unwrap_or("fast-backend"),
                                v.nullity()
                            )));
                        }
                    }
                }
            }
            let mut event = RoundEvent::new(rounds - 1)
                .candidates(range.0, range.1)
                .candidate_count(sol.solution_count() as u64)
                .kernel_dim(kernel_dim)
                .state_size(state_size);
            if self.trace_certification {
                if let Some(method) = certification {
                    event = event.certification(method);
                }
            }
            sink.record(&event);
            if let Some(count) = decided {
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
        let (outcome, trace) = KernelCounting::new()
            .run_with_sink(&pair.smaller, 32, &mut NullSink)
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
    fn kernel_verification_does_not_perturb_the_run() {
        use anonet_trace::MemorySink;
        let pair = TwinBuilder::new().build(40).unwrap();
        let mut plain_sink = MemorySink::new();
        let plain = KernelCounting::new()
            .run_with_sink(&pair.smaller, 32, &mut plain_sink)
            .unwrap();
        let mut verified_sink = MemorySink::new();
        let verified = KernelCounting::new()
            .with_kernel_verification()
            .run_with_sink(&pair.smaller, 32, &mut verified_sink)
            .unwrap();
        assert_eq!(plain, verified, "outcome and trace are unchanged");
        // Lemma 2 verified per round == Lemma 3 assumed: identical events.
        assert_eq!(plain_sink.events(), verified_sink.events());
        assert!(plain_sink
            .events()
            .iter()
            .all(|ev| ev.kernel_dim == Some(1)));
    }

    #[test]
    fn modp_backend_is_bit_identical_to_exact() {
        use anonet_trace::MemorySink;
        // n = 40 decides after 5 rounds (243 columns): the mod-p watcher
        // runs every round and the decision round pays one exact
        // certification replay.
        let pair = TwinBuilder::new().build(40).unwrap();
        let mut exact_sink = MemorySink::new();
        let exact = KernelCounting::new()
            .run_with_sink(&pair.smaller, 32, &mut exact_sink)
            .unwrap();
        let mut modp_sink = MemorySink::new();
        let algo = KernelCounting::new().with_backend(SolverBackend::ModpCertified);
        assert_eq!(algo.backend(), SolverBackend::ModpCertified);
        let modp = algo
            .run_with_sink(&pair.smaller, 32, &mut modp_sink)
            .unwrap();
        assert_eq!(exact, modp, "outcome and trace are backend-independent");
        assert_eq!(exact_sink.events(), modp_sink.events());
    }

    #[test]
    fn modp_backend_decides_past_the_certification_budget() {
        // n = 121 decides after 6 rounds (729 columns): the watcher still
        // runs (watch budget 3^7) but the exact certification replay is
        // skipped (exact budget 3^5) — Lemma 3 is the certificate there.
        let pair = TwinBuilder::new().build(121).unwrap();
        let exact = KernelCounting::new().run(&pair.smaller, 32).unwrap();
        let modp = KernelCounting::new()
            .with_backend(SolverBackend::ModpCertified)
            .run(&pair.smaller, 32)
            .unwrap();
        assert_eq!(exact, modp);
        assert_eq!(modp.rounds, 6);
    }

    #[test]
    fn column_budgets_sit_on_exact_round_boundaries() {
        use anonet_multigraph::ternary_count;
        // The budget constants are 3^5 and 3^7: the exact verifier covers
        // rounds <= 5, the fast watchers exactly two refinements more.
        assert_eq!(ternary_count(5), KERNEL_VERIFY_MAX_COLUMNS);
        assert_eq!(ternary_count(7), MODP_WATCH_MAX_COLUMNS);
        assert!(within_column_budget(5, KERNEL_VERIFY_MAX_COLUMNS));
        assert!(!within_column_budget(6, KERNEL_VERIFY_MAX_COLUMNS));
        // The old 3^6 watch limit stays strictly inside the new one.
        assert!(within_column_budget(6, 729));
        assert!(!within_column_budget(7, 729));
        assert!(within_column_budget(7, MODP_WATCH_MAX_COLUMNS));
        assert!(!within_column_budget(8, MODP_WATCH_MAX_COLUMNS));
    }

    #[test]
    fn overflowing_round_depths_are_past_every_budget_not_a_panic() {
        // 3^41 overflows usize on 64-bit targets, where `ternary_count`
        // asserts. The budget gate must instead treat such depths as past
        // the cap (watcher off, Lemma 3 fallback) — fail closed.
        for rounds in [41usize, 64, 1_000, usize::MAX] {
            assert!(
                !within_column_budget(rounds, usize::MAX),
                "rounds={rounds} must be past-budget, not a panic"
            );
        }
    }

    #[test]
    fn watcher_covers_the_old_budget_boundary() {
        // n = 364 decides after 7 rounds (2187 columns) — past the old
        // 3^6 watch budget, exactly *at* the new 3^7 one. The watcher
        // now runs through the decision round (the raised-budget
        // regression) while the exact certification replay is still
        // skipped (past 3^5). Same outcome as the exact backend.
        let pair = TwinBuilder::new().build(364).unwrap();
        let exact = KernelCounting::new().run(&pair.smaller, 32).unwrap();
        let modp = KernelCounting::new()
            .with_backend(SolverBackend::ModpCertified)
            .run(&pair.smaller, 32)
            .unwrap();
        assert_eq!(exact, modp);
        assert_eq!(modp.rounds, 7);
        assert_eq!(modp.count, 364);
    }

    #[test]
    fn watcher_fails_closed_past_its_column_budget() {
        // n = 1093 decides after 8 rounds (6561 columns): the decision
        // round is past even the raised watch budget (3^7 = 2187), so
        // the watcher is gated off mid-run and kernel_dim falls back to
        // Lemma 3's closed form. The run must complete cleanly — same
        // outcome as the exact backend, no certification, no panic.
        let pair = TwinBuilder::new().build(1093).unwrap();
        let exact = KernelCounting::new().run(&pair.smaller, 32).unwrap();
        let fast = KernelCounting::new()
            .with_backend(SolverBackend::CrtCertified)
            .run(&pair.smaller, 32)
            .unwrap();
        assert_eq!(exact, fast);
        assert_eq!(fast.rounds, 8);
        assert_eq!(fast.count, 1093);
    }

    #[test]
    fn crt_backend_is_bit_identical_to_exact() {
        use anonet_trace::MemorySink;
        // n = 40 decides after 5 rounds (243 columns): the CRT watcher
        // runs every round and the decision round is certified by
        // reconstruction — no exact re-elimination.
        let pair = TwinBuilder::new().build(40).unwrap();
        let mut exact_sink = MemorySink::new();
        let exact = KernelCounting::new()
            .run_with_sink(&pair.smaller, 32, &mut exact_sink)
            .unwrap();
        let mut crt_sink = MemorySink::new();
        let algo = KernelCounting::new().with_backend(SolverBackend::CrtCertified);
        assert_eq!(algo.backend(), SolverBackend::CrtCertified);
        let crt = algo.run_with_sink(&pair.smaller, 32, &mut crt_sink).unwrap();
        assert_eq!(exact, crt, "outcome and trace are backend-independent");
        assert_eq!(exact_sink.events(), crt_sink.events());
    }

    #[test]
    fn certification_trace_labels_the_decision_round() {
        use anonet_trace::MemorySink;
        let pair = TwinBuilder::new().build(40).unwrap();
        // CrtCertified decides via the reconstructed certificate: the
        // decision event carries "crt", earlier events carry nothing —
        // the decision round no longer invokes exact rational
        // elimination.
        let mut crt_sink = MemorySink::new();
        KernelCounting::new()
            .with_backend(SolverBackend::CrtCertified)
            .with_certification_trace()
            .run_with_sink(&pair.smaller, 32, &mut crt_sink)
            .unwrap();
        let (last, earlier) = crt_sink.events().split_last().unwrap();
        assert_eq!(last.certification.as_deref(), Some("crt"));
        assert!(earlier.iter().all(|ev| ev.certification.is_none()));
        // ModpCertified still pays the exact replay at the same depth.
        let mut modp_sink = MemorySink::new();
        KernelCounting::new()
            .with_backend(SolverBackend::ModpCertified)
            .with_certification_trace()
            .run_with_sink(&pair.smaller, 32, &mut modp_sink)
            .unwrap();
        let (last, _) = modp_sink.events().split_last().unwrap();
        assert_eq!(last.certification.as_deref(), Some("exact-replay"));
        // The exact backend certifies nothing, and without the opt-in
        // the facet never appears (byte-identity of default traces).
        let mut exact_sink = MemorySink::new();
        KernelCounting::new()
            .with_certification_trace()
            .run_with_sink(&pair.smaller, 32, &mut exact_sink)
            .unwrap();
        assert!(exact_sink
            .events()
            .iter()
            .all(|ev| ev.certification.is_none()));
        let mut default_sink = MemorySink::new();
        KernelCounting::new()
            .with_backend(SolverBackend::CrtCertified)
            .run_with_sink(&pair.smaller, 32, &mut default_sink)
            .unwrap();
        assert!(default_sink
            .events()
            .iter()
            .all(|ev| ev.certification.is_none()));
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
