//! Message-level simulation of `M(DBL)_k` executions.
//!
//! The paper notes (after Definition 7) that the leader state can be built
//! "by a simple message passing protocol where at each round each node
//! sends to the leader its own state". This module implements that
//! protocol literally: per-round, per-edge deliveries carrying `(label,
//! state)` pairs, with non-leader nodes learning their edge labels only in
//! the receive phase — and an **online leader** ([`OnlineLeader`]) that
//! ingests deliveries round by round, maintains the observation system
//! incrementally, and decides the count the moment it becomes unique.
//!
//! Rounds are stored as flat struct-of-arrays columns
//! ([`RoundColumns`]) and produced by the allocation-free, node-parallel
//! [`RoundEngine`](crate::soa::RoundEngine) — see [`crate::soa`] for the
//! layout and the determinism guarantees. [`simulate`] runs the whole
//! protocol and is checked (in tests and property tests) to agree with
//! the offline [`LeaderState::observe`]/[`KernelCounting`]-style
//! analysis and with the retired array-of-structs baseline
//! ([`simulate_reference`]).
//!
//! [`KernelCounting`]: https://docs.rs/anonet-core

use crate::history::{checked_ternary_count, HistoryArena, HistoryId};
use crate::leader::LeaderState;
use crate::multigraph::DblMultigraph;
use crate::soa::{RoundColumns, RoundEngine};
use crate::system::{AffineCensus, IncrementalSolver, LevelError};
use core::fmt;

/// One message delivered to the leader: the edge label it arrived on plus
/// the sender's state history (anonymous — no sender identity).
///
/// The state is a 4-byte [`HistoryId`] handle into the owning
/// [`Execution`]'s [`HistoryArena`]; resolve it with
/// [`HistoryArena::resolve`] when the owned [`History`](crate::History) is
/// needed. Deliveries are stored column-wise ([`RoundColumns`]); this
/// struct is the value the column iterators yield.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Delivery {
    /// The label of the edge the message used (the receiver learns it on
    /// receipt, per §4.1).
    pub label: u8,
    /// The sender's state `S(v, r)` — a handle to its label-set history
    /// so far.
    pub state: HistoryId,
}

/// The per-round deliveries of a full execution.
///
/// Equality compares the *resolved* histories (label plus canonical mask
/// sequence), never the raw handles — two executions produced by
/// different arenas are equal iff a leader reading the messages could not
/// tell them apart (see the `deliveries_are_anonymous` test).
#[derive(Debug, Clone)]
pub struct Execution {
    /// The arena interning every state history of this execution.
    pub arena: HistoryArena,
    /// `rounds[r]` holds every message the leader received in round `r`
    /// as flat `(label, state)` columns in canonical `(label, history)`
    /// order (the multiset order carries no information).
    pub rounds: Vec<RoundColumns>,
}

impl PartialEq for Execution {
    fn eq(&self, other: &Execution) -> bool {
        self.rounds.len() == other.rounds.len()
            && self.rounds.iter().zip(&other.rounds).all(|(a, b)| {
                a.len() == b.len()
                    && a.iter().zip(b.iter()).all(|(x, y)| {
                        x.label == y.label
                            && self
                                .arena
                                .masks_rev(x.state)
                                .eq(other.arena.masks_rev(y.state))
                    })
            })
    }
}

impl Eq for Execution {}

impl Execution {
    /// Reconstructs the leader state from the raw deliveries.
    pub fn leader_state(&self) -> LeaderState {
        // LeaderState is defined by counts; rebuild through a synthetic
        // multigraph-free path: count (label, history) pairs per round.
        let mut ls = LeaderState::default();
        for round in &self.rounds {
            ls.push_observation_round(
                round
                    .iter()
                    .map(|d| (d.label, self.arena.resolve(d.state))),
            );
        }
        ls
    }
}

/// Runs the send/receive protocol of the paper on `m` for `rounds` rounds.
///
/// Each round `r`:
/// 1. every non-leader node broadcasts its current state `S(v, r)` on all
///    of its edges;
/// 2. the leader receives one `(label, state)` pair per edge;
/// 3. every non-leader node appends its (just learned) label set to its
///    state.
///
/// States are hash-consed in the returned execution's [`HistoryArena`]
/// (each delivery carries a 4-byte handle) and the round step runs on
/// the struct-of-arrays [`RoundEngine`](crate::soa::RoundEngine): no
/// per-node `Vec` is built and no comparison sort runs — rounds are
/// emitted directly in canonical order from a `(rank, label-set)`
/// histogram.
pub fn simulate(m: &DblMultigraph, rounds: usize) -> Execution {
    let mut engine = RoundEngine::new(m.nodes(), m.k());
    let mut out = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let mut cols = RoundColumns::with_capacity(m.edge_count(r));
        engine.emit_round(m, r, &mut cols);
        engine.advance(m, r);
        out.push(cols);
    }
    Execution {
        arena: engine.into_arena(),
        rounds: out,
    }
}

/// The retired array-of-structs simulator, kept as a differential
/// baseline: per node, one [`Delivery`] pushed per edge, then a
/// comparison sort through [`HistoryArena::cmp_canonical`], and one
/// [`HistoryArena::child`] probe per node.
///
/// Produces an [`Execution`] equal (under [`Execution`]'s
/// history-resolving equality) to [`simulate`]'s, with the same number
/// of interned histories — property-tested on 50 seeds — but costs
/// `O(E log E · depth)` parent-chain steps per round where the
/// engine costs `O(E + n)`. The `exp_scale` benchmark measures the gap;
/// nothing else should call this.
pub fn simulate_reference(m: &DblMultigraph, rounds: usize) -> Execution {
    let mut arena = HistoryArena::new();
    let mut states: Vec<HistoryId> = vec![HistoryArena::empty(); m.nodes()];
    let mut out = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let mut deliveries = Vec::with_capacity(m.edge_count(r));
        #[allow(clippy::needless_range_loop)] // node indexes the multigraph, not just `states`
        for node in 0..m.nodes() {
            let set = m.label_set(r, node);
            for label in set.iter() {
                deliveries.push(Delivery {
                    label,
                    state: states[node],
                });
            }
        }
        // Canonical (label, history) order — handle values are
        // arena-creation order, so sort by walking the histories.
        deliveries.sort_by(|a, b| {
            a.label
                .cmp(&b.label)
                .then_with(|| arena.cmp_canonical(a.state, b.state))
        });
        out.push(RoundColumns::from_deliveries(&deliveries));
        // Receive phase: each node learns the labels of the edges it was
        // given this round and appends them to its state.
        #[allow(clippy::needless_range_loop)] // node indexes the multigraph, not just `states`
        for node in 0..m.nodes() {
            let set = m.label_set(r, node);
            states[node] = arena.child(states[node], set);
        }
    }
    Execution { arena, rounds: out }
}

/// Errors of the online leader.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OnlineError {
    /// A delivery carried a label other than 1 or 2 (`k = 2` only).
    BadLabel {
        /// The offending label.
        label: u8,
    },
    /// A delivery carried a state of the wrong length for its round.
    BadStateLength {
        /// The round being ingested.
        round: usize,
        /// The state length received.
        got: usize,
    },
    /// A delivery carried a state that is not a `k = 2` ternary history
    /// (some label set outside `{{1}, {2}, {1,2}}`, or an index overflow).
    NonTernaryState {
        /// The round being ingested.
        round: usize,
    },
    /// The incremental solver rejected an assembled observation level —
    /// unreachable when deliveries pass the integrity checks above, but
    /// surfaced as a typed error rather than a panic so fault-injected
    /// runs fail closed.
    Solver(LevelError),
    /// No rounds have been ingested yet.
    NoRounds,
    /// The round's ternary index space `3^round` overflows `usize`
    /// (round ≥ 41 on 64-bit) — the dense kernel cannot track executions
    /// this deep, so the leader fails closed instead of panicking.
    RoundOverflow {
        /// The round being ingested.
        round: usize,
    },
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::BadLabel { label } => {
                write!(f, "delivery label {label} outside {{1, 2}}")
            }
            OnlineError::BadStateLength { round, got } => {
                write!(f, "round {round} delivery carries a state of length {got}")
            }
            OnlineError::NonTernaryState { round } => {
                write!(f, "round {round} delivery carries a non-ternary (k != 2) state")
            }
            OnlineError::Solver(e) => write!(f, "solver rejected level: {e}"),
            OnlineError::NoRounds => write!(f, "no rounds ingested yet"),
            OnlineError::RoundOverflow { round } => {
                write!(f, "round {round}: 3^{round} histories overflow usize")
            }
        }
    }
}

impl std::error::Error for OnlineError {}

/// The online counting leader for `k = 2` executions: feed it each round's
/// delivery columns; it answers with the count as soon as the observation
/// system pins a unique census.
///
/// # Examples
///
/// ```
/// use anonet_multigraph::simulate::{simulate, OnlineLeader};
/// use anonet_multigraph::Census;
///
/// let m = Census::from_counts(vec![2, 1, 0])?.realize()?;
/// let exec = simulate(&m, 4);
/// let mut leader = OnlineLeader::new();
/// let mut decided = None;
/// for (r, round) in exec.rounds.iter().enumerate() {
///     if let Some(count) = leader.ingest(&exec.arena, round)? {
///         decided = Some((r, count));
///         break;
///     }
/// }
/// let (_, count) = decided.expect("easy instance decides");
/// assert_eq!(count, 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineLeader {
    solver: IncrementalSolver,
    decided: Option<u64>,
    // Reusable observation scratch (`a_l`/`b_l` of Definition 7), so a
    // long ingest loop allocates only when the level width grows.
    al: Vec<i64>,
    bl: Vec<i64>,
}

impl OnlineLeader {
    /// A fresh leader with no observations.
    pub fn new() -> OnlineLeader {
        OnlineLeader {
            solver: IncrementalSolver::new(),
            decided: None,
            al: Vec::new(),
            bl: Vec::new(),
        }
    }

    /// Number of ingested rounds.
    pub fn rounds(&self) -> usize {
        self.solver.levels()
    }

    /// The decision, if already made.
    pub fn decision(&self) -> Option<u64> {
        self.decided
    }

    /// Ingests one round of deliveries and returns the count if the
    /// accumulated observations now admit a unique census.
    ///
    /// `arena` must be the arena that produced the deliveries' state
    /// handles (for executions from [`simulate`], `exec.arena`). State
    /// length and ternary column index are cached per arena entry, so
    /// each delivery costs O(1) here instead of O(round).
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError`] for malformed deliveries (wrong label range
    /// or state length) and [`OnlineError::RoundOverflow`] when the round's
    /// ternary index space leaves `usize`.
    pub fn ingest(
        &mut self,
        arena: &HistoryArena,
        deliveries: &RoundColumns,
    ) -> Result<Option<u64>, OnlineError> {
        let round = self.solver.levels();
        let width =
            checked_ternary_count(round).ok_or(OnlineError::RoundOverflow { round })?;
        self.al.clear();
        self.al.resize(width, 0);
        self.bl.clear();
        self.bl.resize(width, 0);
        for d in deliveries.iter() {
            if arena.history_len(d.state) != round {
                return Err(OnlineError::BadStateLength {
                    round,
                    got: arena.history_len(d.state),
                });
            }
            let idx = arena
                .checked_ternary_index(d.state)
                .ok_or(OnlineError::NonTernaryState { round })?;
            match d.label {
                1 => self.al[idx] += 1,
                2 => self.bl[idx] += 1,
                label => return Err(OnlineError::BadLabel { label }),
            }
        }
        let sol = self
            .solver
            .push_level(&self.al, &self.bl)
            .map_err(OnlineError::Solver)?;
        if let Some(count) = sol.unique_population() {
            self.decided = Some(count as u64);
            return Ok(Some(count as u64));
        }
        Ok(None)
    }

    /// The current affine census solution line (incrementally maintained;
    /// each round costs `O(3^{round})`, not a full re-solve).
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::NoRounds`] before the first round.
    pub fn solve(&self) -> Result<AffineCensus, OnlineError> {
        if self.solver.levels() == 0 {
            return Err(OnlineError::NoRounds);
        }
        Ok(self.solver.current())
    }

    /// The candidate population interval consistent with everything seen
    /// so far (`None` before any round or if infeasible).
    pub fn candidates(&self) -> Option<(i64, i64)> {
        self.solve().ok()?.population_range()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::TwinBuilder;
    use crate::census::Census;
    use crate::label::LabelSet;

    #[test]
    fn simulation_reproduces_leader_state() {
        let m = DblMultigraph::new(
            2,
            vec![
                vec![LabelSet::L1, LabelSet::L12, LabelSet::L2],
                vec![LabelSet::L2, LabelSet::L1, LabelSet::L12],
            ],
        )
        .unwrap();
        let exec = simulate(&m, 3);
        assert_eq!(exec.leader_state(), LeaderState::observe(&m, 3));
        // Round 0: 4 edges; states all empty.
        assert_eq!(exec.rounds[0].len(), m.edge_count(0));
        assert!(exec.rounds[0]
            .iter()
            .all(|d| exec.arena.history_len(d.state) == 0));
        // Round 1 states have length 1.
        assert!(exec.rounds[1]
            .iter()
            .all(|d| exec.arena.history_len(d.state) == 1));
    }

    #[test]
    fn execution_interns_distinct_histories_once() {
        // n nodes with identical schedules share one handle per round, so
        // the arena stays tiny no matter how many deliveries flow.
        let m = Census::from_counts(vec![0, 0, 5]).unwrap().realize().unwrap();
        let exec = simulate(&m, 4);
        // Per round every non-leader node has the same history: at most
        // one new entry per round beyond the root.
        assert!(exec.arena.interned() <= 1 + 4);
        for round in &exec.rounds {
            let mut states: Vec<_> = round.states().to_vec();
            states.dedup();
            assert_eq!(states.len(), 1, "identical nodes share one handle");
        }
    }

    #[test]
    fn engine_matches_reference_representation() {
        let pair = TwinBuilder::new().build(17).unwrap();
        let engine = simulate(&pair.smaller, 5);
        let reference = simulate_reference(&pair.smaller, 5);
        assert_eq!(engine, reference);
        assert_eq!(engine.arena.interned(), reference.arena.interned());
    }

    #[test]
    fn online_leader_matches_offline_counting() {
        for n in [1u64, 3, 4, 13, 40] {
            let pair = TwinBuilder::new().build(n).unwrap();
            let exec = simulate(&pair.smaller, pair.horizon as usize + 4);
            let mut leader = OnlineLeader::new();
            let mut decided_at = None;
            for (r, round) in exec.rounds.iter().enumerate() {
                if let Some(count) = leader.ingest(&exec.arena, round).unwrap() {
                    decided_at = Some((r as u32 + 1, count));
                    break;
                }
            }
            let (rounds, count) = decided_at.expect("decides within horizon + 4");
            assert_eq!(count, n);
            assert_eq!(rounds, pair.horizon + 2, "tight for n={n}");
            assert_eq!(leader.decision(), Some(n));
        }
    }

    #[test]
    fn online_candidates_shrink() {
        let pair = TwinBuilder::new().build(13).unwrap();
        let exec = simulate(&pair.smaller, 6);
        let mut leader = OnlineLeader::new();
        let mut prev: Option<(i64, i64)> = None;
        for round in &exec.rounds {
            if leader.ingest(&exec.arena, round).unwrap().is_some() {
                break;
            }
            let cand = leader.candidates().unwrap();
            assert!(cand.0 <= 13 && 13 <= cand.1);
            if let Some((lo, hi)) = prev {
                assert!(cand.0 >= lo && cand.1 <= hi);
            }
            prev = Some(cand);
        }
    }

    #[test]
    fn online_rejects_malformed_deliveries() {
        let mut arena = HistoryArena::new();
        let mut leader = OnlineLeader::new();
        let bad_label = RoundColumns::from_deliveries(&[Delivery {
            label: 3,
            state: HistoryArena::empty(),
        }]);
        assert_eq!(
            leader.ingest(&arena, &bad_label),
            Err(OnlineError::BadLabel { label: 3 })
        );
        let mut leader = OnlineLeader::new();
        let bad_len = RoundColumns::from_deliveries(&[Delivery {
            label: 1,
            state: arena.child(HistoryArena::empty(), LabelSet::L1),
        }]);
        assert!(matches!(
            leader.ingest(&arena, &bad_len),
            Err(OnlineError::BadStateLength { round: 0, got: 1 })
        ));
    }

    #[test]
    fn message_loss_is_detected_as_infeasibility() {
        // Dropping deliveries violates the model (the adversary must keep
        // each node connected); the leader's system becomes infeasible and
        // candidates() reports it rather than mis-counting.
        let pair = TwinBuilder::new().build(13).unwrap();
        let exec = simulate(&pair.smaller, 4);
        let mut leader = OnlineLeader::new();
        // Deliver round 0 intact, then round 1 with a quarter of the
        // messages dropped.
        leader.ingest(&exec.arena, &exec.rounds[0]).unwrap();
        let mut dropped = exec.rounds[1].clone();
        dropped.retain_indexed(|i| i % 4 != 0);
        assert!(dropped.len() < exec.rounds[1].len());
        let outcome = leader.ingest(&exec.arena, &dropped).unwrap();
        // Either the system became infeasible (detected corruption) or the
        // surviving messages were coincidentally consistent — in which case
        // any produced count must disagree with reality only by reporting
        // a smaller, self-consistent network.
        match leader.candidates() {
            None => {} // detected
            Some((lo, hi)) => {
                assert!(lo <= hi);
                if let Some(count) = outcome {
                    assert!(count < 13, "a dropped-message count undercounts");
                }
            }
        }
    }

    #[test]
    fn duplicated_messages_shift_the_census_estimate() {
        // Injecting duplicates (a Byzantine relay) inflates observations;
        // the leader's candidate range moves accordingly — exactness of the
        // model's delivery guarantee matters.
        let m = Census::from_counts(vec![1, 1, 1])
            .unwrap()
            .realize()
            .unwrap();
        let exec = simulate(&m, 1);
        let mut honest = OnlineLeader::new();
        honest.ingest(&exec.arena, &exec.rounds[0]).unwrap();
        let mut duped = OnlineLeader::new();
        let mut round = exec.rounds[0].clone();
        round.extend_from(&exec.rounds[0]);
        duped.ingest(&exec.arena, &round).unwrap();
        let (hlo, hhi) = honest.candidates().unwrap();
        let (dlo, dhi) = duped.candidates().unwrap();
        assert!(dlo > hlo && dhi > hhi, "duplicates inflate the estimate");
    }

    #[test]
    fn deliveries_are_anonymous() {
        // Permuting nodes yields byte-identical executions.
        let a = Census::from_counts(vec![1, 1, 1])
            .unwrap()
            .realize()
            .unwrap();
        let b =
            DblMultigraph::new(2, vec![vec![LabelSet::L12, LabelSet::L2, LabelSet::L1]]).unwrap();
        assert_eq!(simulate(&a, 2), simulate(&b, 2));
    }

    #[test]
    fn delivery_counts_match_edges() {
        let pair = TwinBuilder::new().build(9).unwrap();
        let exec = simulate(&pair.smaller, 3);
        for (r, round) in exec.rounds.iter().enumerate() {
            assert_eq!(round.len(), pair.smaller.edge_count(r));
        }
    }
}
