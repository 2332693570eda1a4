//! Fault-aware, fail-closed runners: every counting algorithm and
//! baseline reduced to a typed [`Verdict`].
//!
//! The algorithms in [`algorithms`](crate::algorithms) and
//! [`baselines`](crate::baselines) are specified *inside* the paper's
//! model — synchronous reliable broadcast, 1-interval connectivity, a
//! fixed node set, a leader that never loses state. This module asks
//! what happens when an execution steps outside it, and guarantees one
//! property: **with watchdogs enabled, a run never reports a silently
//! wrong count.** It either
//!
//! * reports [`Verdict::Correct`] with the count it decided,
//! * reports [`Verdict::Undecided`] when the horizon elapsed, or
//! * fails closed with [`Verdict::ModelViolation`], naming the broken
//!   assumption ([`ViolationKind`]) and the round of detection.
//!
//! Each algorithm gets a runner with a `watchdogs` switch:
//!
//! | runner | algorithm | fault layer |
//! |---|---|---|
//! | [`kernel_verdict`] | kernel counting (`M(DBL)_2`) | [`FaultPlan`] on deliveries |
//! | [`history_tree_verdict`] | history-tree counting (`M(DBL)_2`) | [`FaultPlan`] on deliveries |
//! | [`general_k_verdict`] | exhaustive general-`k` rule | [`FaultPlan`] on deliveries |
//! | [`pd2_view_verdict`] | `G(PD)_2` view counting | [`FaultPlan::network_plan`] on edges |
//! | [`degree_oracle_verdict`] | O(1) degree oracle | [`FaultPlan::network_plan`] on edges |
//! | [`mass_drain_verdict`] | mass-drain baseline | [`FaultPlan::network_plan`] on edges |
//! | [`pushsum_verdict`] | push-sum baseline | [`FaultPlan::network_plan`] on edges |
//! | [`enumeration_verdict`] | exhaustive enumeration | [`FaultPlan::network_plan`] on edges |
//!
//! With `watchdogs = false` each runner reproduces the unguarded
//! algorithm: it reports whatever count the leader decides (possibly
//! silently wrong under faults — the contrast `exp_faults` measures) and
//! maps internal errors to [`Verdict::Undecided`] instead of panicking.
//!
//! The guarded arms of [`kernel_verdict`] and [`history_tree_verdict`]
//! are one session type, [`GuardedSession`], over one loop,
//! [`GuardedSession::drive`]: the session owns the round counter,
//! restarts, the provisional decision and its confirmation, and the
//! trace events, while a small [`Guard`] ([`KernelGuard`],
//! [`HistoryTreeGuard`]) supplies only the per-round screen. The same
//! session and loop serve every transport
//! ([`run_source_verdict`](crate::transport::run_source_verdict)).
//!
//! The multigraph runners read their rounds lazily: each one is a
//! `*_source_verdict` runner ([`kernel_source_verdict`],
//! [`history_tree_source_verdict`], [`general_k_source_verdict`]) over
//! a [`FaultedRounds`] stepper, which simulates round `r` only when the
//! runner asks for it. A session that stops at its first decision,
//! violation or error never simulates a later round.
//!
//! The multigraph runners are traced: `*_with_sink` variants emit the
//! same per-round [`RoundEvent`]s as the plain algorithms, plus the new
//! `fault` facet on rounds a fault struck and a final `violation` event
//! when a watchdog fires. On an **empty plan the emitted events are
//! byte-identical** to the plain `run_with_sink` traces (pinned by
//! `tests/fault_verdicts.rs`): clean rounds carry no fault facet, and
//! post-decision confirmation rounds are not traced.
//!
//! # Examples
//!
//! A duplicated-delivery fault is detected, not mis-counted:
//!
//! ```
//! use anonet_core::verdict::{kernel_verdict, FaultPlan, Verdict};
//! use anonet_multigraph::adversary::TwinBuilder;
//!
//! let pair = TwinBuilder::new().build(13)?;
//! let plan = FaultPlan::new().duplicate_deliveries(1, 3, 0);
//! let guarded = kernel_verdict(&pair.smaller, 8, &plan, true);
//! assert!(matches!(guarded, Verdict::ModelViolation { .. }));
//! // The unguarded leader happily counts a network that never existed.
//! let unguarded = kernel_verdict(&pair.smaller, 8, &plan, false);
//! if let Some(count) = unguarded.count() {
//!     assert_ne!(count, 13);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::algorithms::{run_degree_oracle, run_pd2_view_counting, CountingError, Pd2ViewError};
use crate::baselines::enumeration::run_enumeration_counting;
use crate::baselines::mass_drain::run_mass_drain;
use crate::baselines::pushsum::run_pushsum;
use crate::transport::RoundSource;
use anonet_graph::faults::FaultyNetwork;
use anonet_graph::{check_interval_connectivity, DynamicNetwork, Graph, GraphSequence};
use anonet_multigraph::history_tree::{HistoryTreeError, HistoryTreeLeader};
use anonet_multigraph::mutate::AdversarySchedule;
use anonet_multigraph::simulate::OnlineLeader;
use anonet_multigraph::LabelSet;
use anonet_multigraph::system_k::GeneralSystem;
use anonet_multigraph::transform;
use anonet_multigraph::DblMultigraph;
use anonet_multigraph::{HistoryArena, RoundColumns};
use anonet_trace::{NullSink, RoundEvent, TraceSink};

pub use anonet_multigraph::faults::{
    simulate_with_faults, thin_multigraph, FaultEvent, FaultKind, FaultPlan, FaultRecord,
    FaultedExecution, FaultedRounds, Verdict, Violation, ViolationKind, WatchedLeader,
    WatchedRound,
};

/// The growth of the flat constant-terms vector `m_r` at `level`
/// (`2·3^level` new entries, saturating) — matches the `state_size`
/// accounting of [`KernelCounting`](crate::algorithms::KernelCounting).
fn level_state_growth(level: u32) -> u64 {
    3u64.checked_pow(level)
        .and_then(|c| c.checked_mul(2))
        .unwrap_or(u64::MAX)
}

/// Runs the kernel counting algorithm on `m` under `plan` and reduces
/// the run to a [`Verdict`].
///
/// The rounds come from a [`FaultedRounds`] stepper, which simulates
/// each round only when the leader asks for it: a run that stops early
/// never pays for the rounds it did not read.
///
/// With `watchdogs = true` the leader is a [`GuardedKernelSession`]
/// driven over those rounds: every round passes the
/// [`WatchedLeader`]'s model watchdogs, the decision is provisional
/// and confirmed through the horizon (a fault striking exactly the
/// decision round can leave the observation system coincidentally
/// consistent; the pretend histories fail to extend within a round or
/// two, converting the run to [`Verdict::ModelViolation`]). With
/// `watchdogs = false` the leader is the plain
/// [`OnlineLeader`]: it outputs at the first unique solution and maps
/// ingestion errors to [`Verdict::Undecided`].
pub fn kernel_verdict(m: &DblMultigraph, max_rounds: u32, plan: &FaultPlan, watchdogs: bool) -> Verdict {
    kernel_verdict_with_sink(m, max_rounds, plan, watchdogs, &mut NullSink)
}

/// Like [`kernel_verdict`], additionally emitting one [`RoundEvent`]
/// per observed round (up to the decision round) to `sink` with the
/// same facets as
/// [`KernelCounting::run_with_sink`](crate::algorithms::KernelCounting::run_with_sink),
/// plus `fault` labels on faulted rounds and a final `violation` event
/// when a watchdog fires. Empty-plan traces are byte-identical to the
/// plain algorithm's.
pub fn kernel_verdict_with_sink<S: TraceSink>(
    m: &DblMultigraph,
    max_rounds: u32,
    plan: &FaultPlan,
    watchdogs: bool,
    sink: &mut S,
) -> Verdict {
    let mut rounds = FaultedRounds::new(m, max_rounds as usize, plan);
    kernel_source_verdict(&mut rounds, max_rounds, plan, watchdogs, sink)
}

/// [`kernel_verdict_with_sink`] over rounds from any [`RoundSource`]:
/// at most `max_rounds` rounds are pulled, and none after the run ends.
///
/// The in-memory runner passes a [`FaultedRounds`] stepper, so a session
/// that stops early never simulates the rounds it did not read. `plan`
/// carries the leader-side schedule (restarts, trace facets); delivery
/// faults are already inside the rounds. A
/// [`TransportError`](crate::transport::TransportError) ends the run as
/// [`Verdict::Undecided`] in both arms.
pub fn kernel_source_verdict<T: RoundSource + ?Sized, S: TraceSink>(
    source: &mut T,
    max_rounds: u32,
    plan: &FaultPlan,
    watchdogs: bool,
    sink: &mut S,
) -> Verdict {
    if watchdogs {
        GuardedKernelSession::new().drive(source, max_rounds, plan, sink)
    } else {
        kernel_unguarded(source, max_rounds, plan, sink)
    }
}

/// What a [`Guard`] reports for a pre-decision round that passed its
/// screen.
#[derive(Debug)]
pub struct Screened {
    /// The round's trace event; the session adds the `fault` facet.
    pub event: RoundEvent,
    /// The count, the moment the observations pin one.
    pub decision: Option<u64>,
}

/// The per-round screen of one guarded counting leader — the only part
/// of a [`GuardedSession`] that differs between algorithms.
///
/// Every method is called with the absolute round index `round`; a
/// screen that fires returns the [`ViolationKind`] and the session turns
/// it into a terminal [`Verdict::ModelViolation`] at that round.
pub trait Guard: Default {
    /// A leader restart with state loss.
    fn restart(&mut self);

    /// Screens and ingests a round before the decision.
    fn screen(
        &mut self,
        arena: &HistoryArena,
        deliveries: &RoundColumns,
        round: u32,
    ) -> Result<Screened, ViolationKind>;

    /// Screens a confirmation round after the provisional decision.
    fn confirm(
        &mut self,
        arena: &HistoryArena,
        deliveries: &RoundColumns,
        round: u32,
    ) -> Result<(), ViolationKind>;

    /// The leader's current candidate interval.
    fn candidates(&self) -> Option<(i64, i64)>;
}

/// A guarded counting leader as an **incremental session**: rounds
/// arrive one at a time from any transport — an in-memory execution, or
/// a [`RoundSource`] over real sockets in `anonet-net` — and
/// [`drive`](Self::drive) is the one loop that feeds them.
///
/// The session owns what every guarded leader shares: the round
/// counter, restart dispatch, the provisional decision (confirmed
/// through the horizon), the zero-count screen and the trace events;
/// the [`Guard`] owns only its per-round screen. Feed each observed
/// round to [`step`](Self::step); a `Some(verdict)` return is terminal
/// (a screen fired and the violation event was already emitted). When
/// the stream ends, close with [`finish`](Self::finish), or with
/// [`interrupt`](Self::interrupt) when the transport failed.
///
/// Trace emission stops at the decision round: confirmation rounds are
/// silent, so empty-plan traces match the plain algorithm exactly (the
/// trace-identity tests pin it).
#[derive(Debug, Default)]
pub struct GuardedSession<G: Guard> {
    guard: G,
    decided: Option<(u64, u32)>,
    round: u32,
}

/// The guarded kernel counting session ([`KernelGuard`]).
pub type GuardedKernelSession = GuardedSession<KernelGuard>;

/// The guarded history-tree counting session ([`HistoryTreeGuard`]).
pub type GuardedHistoryTreeSession = GuardedSession<HistoryTreeGuard>;

impl<G: Guard> GuardedSession<G> {
    /// A fresh session: the guarded leader before its first round.
    pub fn new() -> GuardedSession<G> {
        GuardedSession {
            guard: G::default(),
            decided: None,
            round: 0,
        }
    }

    /// Rounds ingested so far.
    pub fn rounds_seen(&self) -> u32 {
        self.round
    }

    /// The provisional decision, if one was reached (still being
    /// confirmed until the stream ends).
    pub fn decision(&self) -> Option<(u64, u32)> {
        self.decided
    }

    /// The leader's current candidate interval.
    pub fn candidates(&self) -> Option<(i64, i64)> {
        self.guard.candidates()
    }

    /// Ingests the next observed round. Returns `Some(verdict)` when a
    /// screen fires — terminal, the violation event has been emitted
    /// and flushed — and `None` to continue.
    pub fn step<S: TraceSink>(
        &mut self,
        arena: &HistoryArena,
        deliveries: &RoundColumns,
        plan: &FaultPlan,
        sink: &mut S,
    ) -> Option<Verdict> {
        let round = self.round;
        self.round += 1;
        if plan.has_restart_at(round) {
            self.guard.restart();
        }
        if self.decided.is_some() {
            let confirmed = self.guard.confirm(arena, deliveries, round);
            return confirmed
                .err()
                .map(|kind| violation_verdict(kind, round, plan, sink));
        }
        let screened = match self.guard.screen(arena, deliveries, round) {
            Ok(screened) => screened,
            Err(kind) => return Some(violation_verdict(kind, round, plan, sink)),
        };
        let mut ev = screened.event;
        if let Some(f) = plan.labels_at(round) {
            ev = ev.fault(&f);
        }
        sink.record(&ev);
        match screened.decision {
            // A non-empty round cannot come from zero nodes.
            Some(0) => Some(violation_verdict(
                ViolationKind::CensusConservation,
                round,
                plan,
                sink,
            )),
            Some(count) => {
                self.decided = Some((count, round + 1));
                None
            }
            None => None,
        }
    }

    /// Closes the stream after `max_rounds` were available: the
    /// confirmed decision or a decision-less horizon.
    pub fn finish<S: TraceSink>(self, max_rounds: u32, sink: &mut S) -> Verdict {
        sink.flush();
        match self.decided {
            Some((count, rounds)) => Verdict::Correct { count, rounds },
            None => Verdict::Undecided {
                rounds: max_rounds,
                candidates: self.guard.candidates(),
            },
        }
    }

    /// Closes the stream **early** (the transport failed — timeout,
    /// closed connection): always [`Verdict::Undecided`], never an
    /// unconfirmed count. Fail-closed even when a provisional decision
    /// exists, because the remaining confirmation rounds never arrived.
    pub fn interrupt<S: TraceSink>(self, sink: &mut S) -> Verdict {
        sink.flush();
        Verdict::Undecided {
            rounds: self.round,
            candidates: self.guard.candidates(),
        }
    }

    /// The one guarded round loop: steps the session over at most
    /// `max_rounds` rounds of `source` and reduces the run to a
    /// [`Verdict`]. A round that trips a screen ends the run; a
    /// [`TransportError`](crate::transport::TransportError) interrupts
    /// it (fail-closed); the end of the stream finishes it.
    pub fn drive<T: RoundSource + ?Sized, S: TraceSink>(
        mut self,
        source: &mut T,
        max_rounds: u32,
        plan: &FaultPlan,
        sink: &mut S,
    ) -> Verdict {
        for _ in 0..max_rounds {
            let deliveries = match source.next_round() {
                Ok(Some(deliveries)) => deliveries,
                Ok(None) => break,
                Err(_) => return self.interrupt(sink),
            };
            if let Some(v) = self.step(source.arena(), &deliveries, plan, sink) {
                return v;
            }
        }
        self.finish(max_rounds, sink)
    }
}

/// The kernel leader's screen: a [`WatchedLeader`] (delivery integrity,
/// connectivity, census conservation) and the plain algorithm's
/// `state_size` accounting.
///
/// Confirmation is budgeted: past the solver's column budget the
/// remaining post-decision rounds keep only the allocation-free
/// watchdogs ([`WatchedLeader::confirm_screen`]) — growing the
/// `O(3^level)` system to a distant horizon would cost gigabytes.
#[derive(Debug, Default)]
pub struct KernelGuard {
    leader: WatchedLeader,
    state_size: u64,
}

impl Guard for KernelGuard {
    fn restart(&mut self) {
        self.leader.restart();
    }

    fn screen(
        &mut self,
        arena: &HistoryArena,
        deliveries: &RoundColumns,
        round: u32,
    ) -> Result<Screened, ViolationKind> {
        let wr = self.leader.ingest(arena, deliveries).map_err(|v| v.kind)?;
        self.state_size = self.state_size.saturating_add(level_state_growth(round));
        // `M_r` has a one-dimensional kernel at every round (Lemma 2, with
        // Lemma 3's closed form) whatever the execution; the `system`
        // tests pin it.
        let event = RoundEvent::new(round)
            .candidates(wr.range.0, wr.range.1)
            .candidate_count(wr.solution_count)
            .kernel_dim(1)
            .state_size(self.state_size);
        Ok(Screened {
            event,
            decision: wr.decision,
        })
    }

    fn confirm(
        &mut self,
        arena: &HistoryArena,
        deliveries: &RoundColumns,
        round: u32,
    ) -> Result<(), ViolationKind> {
        let confirmed = if self.leader.within_confirm_budget() {
            self.leader.ingest(arena, deliveries).map(drop)
        } else {
            self.leader
                .confirm_screen(arena, deliveries, round as usize)
        };
        confirmed.map_err(|v| v.kind)
    }

    fn candidates(&self) -> Option<(i64, i64)> {
        self.leader.candidates()
    }
}

fn kernel_unguarded<T: RoundSource + ?Sized, S: TraceSink>(
    source: &mut T,
    max_rounds: u32,
    plan: &FaultPlan,
    sink: &mut S,
) -> Verdict {
    let mut leader = OnlineLeader::new();
    let mut state_size = 0u64;
    for r32 in 0..max_rounds {
        let round = match source.next_round() {
            Ok(Some(round)) => round,
            Ok(None) => break,
            Err(_) => return undecided(r32, leader.candidates(), sink),
        };
        if plan.has_restart_at(r32) {
            // State loss: the unguarded leader starts over, oblivious.
            leader = OnlineLeader::new();
            state_size = 0;
        }
        match leader.ingest(source.arena(), &round) {
            // The unguarded leader of PR 1 would have panicked here; the
            // typed error path surfaces as a decision-less horizon.
            Err(_) => return undecided(r32 + 1, None, sink),
            Ok(decision) => {
                state_size = state_size.saturating_add(level_state_growth(leader.rounds() as u32 - 1));
                let Ok(sol) = leader.solve() else {
                    continue; // unreachable: ingest just succeeded
                };
                let mut ev = RoundEvent::new(r32)
                    .candidate_count(sol.solution_count() as u64)
                    .kernel_dim(1)
                    .state_size(state_size);
                if let Some((lo, hi)) = sol.population_range() {
                    ev = ev.candidates(lo, hi);
                }
                if let Some(f) = plan.labels_at(r32) {
                    ev = ev.fault(&f);
                }
                sink.record(&ev);
                if let Some(count) = decision {
                    sink.flush();
                    return Verdict::Correct {
                        count,
                        rounds: r32 + 1,
                    };
                }
            }
        }
    }
    undecided(max_rounds, leader.candidates(), sink)
}

/// Runs the history-tree counting algorithm on `m` under `plan` and
/// reduces the run to a [`Verdict`].
///
/// With `watchdogs = true` the alternating-spine-sum leader of
/// [`HistoryTreeCounting`](crate::algorithms::HistoryTreeCounting) is
/// wrapped in fail-closed screens: malformed deliveries are
/// [`ViolationKind::DeliveryIntegrity`], an empty pre-decision round is
/// [`ViolationKind::Connectivity`], a growing spine delivery count, an
/// empty candidate intersection, a raw candidate interval escaping its
/// predecessor (in-model the per-round intervals nest), a zero count or
/// a post-decision spine *resurrection* (a full-spine history appearing
/// after the spine died) are [`ViolationKind::CensusConservation`].
///
/// The screens are deliberately `O(1)` per round on top of the leader's
/// own `O(deliveries)` — the whole point of this algorithm family is to
/// avoid the kernel's observation system. The price is strictly weaker
/// detection: a fault that leaves the delivery stream consistent with a
/// clean execution of a *different* size at the spine statistics'
/// granularity (e.g. crashing part of a history class mid-run) can slip
/// through guarded — but only when the full observation system would
/// also find that wrong size uniquely feasible, i.e. exactly when the
/// *unguarded* kernel is fooled identically (pinned by the
/// cross-algorithm agreement suite in `tests/algorithm_agreement.rs`). A leader restart leaves
/// the fresh leader expecting round-0 histories, so the next faulted
/// round trips the integrity screen — matching the kernel runner's
/// restart semantics. With `watchdogs = false` the unguarded leader
/// reports whatever the spine sums say (possibly silently wrong under
/// faults) and maps ingestion errors to [`Verdict::Undecided`].
pub fn history_tree_verdict(
    m: &DblMultigraph,
    max_rounds: u32,
    plan: &FaultPlan,
    watchdogs: bool,
) -> Verdict {
    history_tree_verdict_with_sink(m, max_rounds, plan, watchdogs, &mut NullSink)
}

/// Like [`history_tree_verdict`], additionally emitting one
/// [`RoundEvent`] per observed round (up to the decision round) to
/// `sink` with the same facets as
/// [`HistoryTreeCounting::run_with_sink`](crate::algorithms::HistoryTreeCounting::run_with_sink),
/// plus `fault` labels on faulted rounds and a final `violation` event
/// when a watchdog fires. Empty-plan traces are byte-identical to the
/// plain algorithm's.
pub fn history_tree_verdict_with_sink<S: TraceSink>(
    m: &DblMultigraph,
    max_rounds: u32,
    plan: &FaultPlan,
    watchdogs: bool,
    sink: &mut S,
) -> Verdict {
    let mut rounds = FaultedRounds::new(m, max_rounds as usize, plan);
    history_tree_source_verdict(&mut rounds, max_rounds, plan, watchdogs, sink)
}

/// [`history_tree_verdict_with_sink`] over rounds from any
/// [`RoundSource`], pulled lazily exactly as in
/// [`kernel_source_verdict`].
pub fn history_tree_source_verdict<T: RoundSource + ?Sized, S: TraceSink>(
    source: &mut T,
    max_rounds: u32,
    plan: &FaultPlan,
    watchdogs: bool,
    sink: &mut S,
) -> Verdict {
    if watchdogs {
        GuardedHistoryTreeSession::new().drive(source, max_rounds, plan, sink)
    } else {
        history_tree_unguarded(source, max_rounds, plan, sink)
    }
}

/// Maps a leader error to the model assumption it breaks: spine-sum
/// contradictions are conservation failures, everything else is a
/// malformed delivery.
fn history_tree_violation(e: &HistoryTreeError) -> ViolationKind {
    match e {
        HistoryTreeError::InconsistentCensus { .. } => ViolationKind::CensusConservation,
        _ => ViolationKind::DeliveryIntegrity,
    }
}

/// The history-tree leader's screens, deliberately `O(1)` per round on
/// top of the leader's own `O(deliveries)` (see
/// [`history_tree_verdict`]): spine monotonicity, raw-interval nesting,
/// an empty round as a connectivity break, and — after the decision —
/// well-formedness plus the spine-resurrection screen.
#[derive(Debug, Default)]
pub struct HistoryTreeGuard {
    leader: HistoryTreeLeader,
    prev_spine: Option<u64>,
    prev_raw: Option<(i64, i64)>,
}

impl Guard for HistoryTreeGuard {
    fn restart(&mut self) {
        // State loss: the fresh leader expects round-0 histories, so any
        // further delivery fails the integrity screen.
        *self = HistoryTreeGuard::default();
    }

    fn screen(
        &mut self,
        arena: &HistoryArena,
        deliveries: &RoundColumns,
        round: u32,
    ) -> Result<Screened, ViolationKind> {
        // In-model every live node delivers at least one message per
        // round; an empty round would otherwise read as spine death.
        if deliveries.is_empty() {
            return Err(ViolationKind::Connectivity);
        }
        let decision = self
            .leader
            .ingest(arena, deliveries)
            .map_err(|e| history_tree_violation(&e))?;
        // In-model d_r = g_r + g_{r+1} is non-increasing; growth means
        // deliveries were forged or replayed.
        let spine = self.leader.spine_deliveries();
        if self.prev_spine.is_some_and(|p| spine > p) {
            return Err(ViolationKind::CensusConservation);
        }
        self.prev_spine = Some(spine);
        // In-model the raw per-round intervals nest (the spine telescope
        // only ever tightens); a raw interval escaping its predecessor
        // witnesses an out-of-model census even while the running
        // intersection stays non-empty — the same screen the kernel's
        // watcher applies to its per-level population ranges.
        let raw = self.leader.raw_candidates();
        if let (Some((plo, phi)), Some((lo, hi))) = (self.prev_raw, raw) {
            if lo < plo || hi > phi {
                return Err(ViolationKind::CensusConservation);
            }
        }
        self.prev_raw = raw;
        let (lo, hi) = self.leader.candidates().unwrap_or((0, i64::MAX));
        let event = RoundEvent::new(round)
            .deliveries(deliveries.len() as u64)
            .candidates(lo, hi)
            .candidate_count((hi - lo + 1) as u64)
            .state_size(self.leader.classes())
            .spine(spine);
        Ok(Screened { event, decision })
    }

    fn confirm(
        &mut self,
        arena: &HistoryArena,
        deliveries: &RoundColumns,
        round: u32,
    ) -> Result<(), ViolationKind> {
        // The spine is dead, so beyond well-formedness the only thing
        // left to watch is a full-spine history coming back from the
        // grave.
        if deliveries.is_empty() {
            return Err(ViolationKind::Connectivity);
        }
        for d in deliveries.iter() {
            let well_formed = arena.history_len(d.state) == round as usize
                && arena.is_ternary(d.state)
                && (d.label == 1 || d.label == 2);
            if !well_formed {
                return Err(ViolationKind::DeliveryIntegrity);
            }
            let resurrected = arena
                .masks_rev(d.state)
                .all(|mask| mask == LabelSet::L12.mask());
            if resurrected {
                return Err(ViolationKind::CensusConservation);
            }
        }
        Ok(())
    }

    fn candidates(&self) -> Option<(i64, i64)> {
        self.leader.candidates()
    }
}

fn history_tree_unguarded<T: RoundSource + ?Sized, S: TraceSink>(
    source: &mut T,
    max_rounds: u32,
    plan: &FaultPlan,
    sink: &mut S,
) -> Verdict {
    let mut leader = HistoryTreeLeader::new();
    for r32 in 0..max_rounds {
        let round = match source.next_round() {
            Ok(Some(round)) => round,
            Ok(None) => break,
            Err(_) => return undecided(r32, leader.candidates(), sink),
        };
        if plan.has_restart_at(r32) {
            // State loss: the unguarded leader starts over, oblivious.
            leader = HistoryTreeLeader::new();
        }
        match leader.ingest(source.arena(), &round) {
            // Typed error path: a decision-less horizon, never a panic.
            Err(_) => return undecided(r32 + 1, None, sink),
            Ok(step) => {
                let (lo, hi) = leader.candidates().unwrap_or((0, i64::MAX));
                let mut ev = RoundEvent::new(r32)
                    .deliveries(round.len() as u64)
                    .candidates(lo, hi)
                    .candidate_count((hi - lo + 1) as u64)
                    .state_size(leader.classes())
                    .spine(leader.spine_deliveries());
                if let Some(f) = plan.labels_at(r32) {
                    ev = ev.fault(&f);
                }
                sink.record(&ev);
                if let Some(count) = step {
                    sink.flush();
                    return Verdict::Correct {
                        count,
                        rounds: r32 + 1,
                    };
                }
            }
        }
    }
    undecided(max_rounds, leader.candidates(), sink)
}

/// Runs the exhaustive general-`k` counting rule (`k = 2` executions)
/// on `m` under `plan` and reduces the run to a [`Verdict`].
///
/// The faulted delivery stream is replayed through
/// [`GeneralSystem::feasible_populations_from_observations`] — the
/// leader enumerates every census consistent with the (possibly
/// perturbed) observations. Watchdogs mirror [`WatchedLeader`]:
/// delivery integrity, connectivity (round must deliver between `lo`
/// and `2·hi` messages for the previous candidate range `[lo, hi]`),
/// and census conservation (the candidate set must stay non-empty and
/// nested). The traced `kernel_dim` is
/// [`GeneralSystem::predicted_nullity`]: `M_r^{(k)}` depends on the round
/// alone, so no execution can move it.
///
/// # Panics
///
/// Panics if `m.k() != 2` — the message-level fault simulator is
/// defined on `M(DBL)_2` executions.
pub fn general_k_verdict(
    m: &DblMultigraph,
    max_rounds: u32,
    max_solutions: usize,
    plan: &FaultPlan,
    watchdogs: bool,
) -> Verdict {
    general_k_verdict_with_sink(m, max_rounds, max_solutions, plan, watchdogs, &mut NullSink)
}

/// Column budget for post-decision confirmation rounds of the
/// general-`k` runner (`3^6 = 729` unknowns): within it, confirmation
/// re-runs the full enumeration watchdogs; past it, only the
/// allocation-free connectivity watchdog keeps screening the tail.
const GENERAL_K_CONFIRM_MAX_COLUMNS: usize = 729;

/// Like [`general_k_verdict`], additionally emitting one [`RoundEvent`]
/// per observed round (up to the decision round) to `sink` with the
/// same facets as
/// [`GeneralKCounting::run_with_sink`](crate::algorithms::GeneralKCounting::run_with_sink),
/// plus `fault`/`violation` labels. Empty-plan traces are
/// byte-identical to the plain algorithm's.
///
/// # Panics
///
/// Panics if `m.k() != 2` (see [`general_k_verdict`]).
pub fn general_k_verdict_with_sink<S: TraceSink>(
    m: &DblMultigraph,
    max_rounds: u32,
    max_solutions: usize,
    plan: &FaultPlan,
    watchdogs: bool,
    sink: &mut S,
) -> Verdict {
    assert_eq!(m.k(), 2, "fault injection replays M(DBL)_2 executions");
    let mut rounds = FaultedRounds::new(m, max_rounds as usize, plan);
    general_k_source_verdict(&mut rounds, max_rounds, max_solutions, plan, watchdogs, sink)
}

/// [`general_k_verdict_with_sink`] over `k = 2` rounds from any
/// [`RoundSource`], pulled lazily exactly as in
/// [`kernel_source_verdict`]: the unguarded rule stops pulling at its
/// first decision, the guarded rule confirms through `max_rounds`.
pub fn general_k_source_verdict<T: RoundSource + ?Sized, S: TraceSink>(
    source: &mut T,
    max_rounds: u32,
    max_solutions: usize,
    plan: &FaultPlan,
    watchdogs: bool,
    sink: &mut S,
) -> Verdict {
    let Ok(sys) = GeneralSystem::new(2) else {
        return Verdict::Undecided {
            rounds: 0,
            candidates: None,
        };
    };
    let mut rhs: Vec<i64> = Vec::new();
    let mut prev_range: Option<(i64, i64)> = None;
    let mut decided: Option<(u64, u32)> = None;
    for r32 in 0..max_rounds {
        let round = match source.next_round() {
            Ok(Some(round)) => round,
            Ok(None) => break,
            Err(_) => return undecided(r32, prev_range, sink),
        };
        if watchdogs && plan.has_restart_at(r32) {
            // The restarted leader re-observes from an empty system; its
            // first post-restart round then carries histories of the
            // wrong depth for level 0 — delivery integrity trips below.
            rhs.clear();
            prev_range = None;
        }
        // Post-decision confirmation budget: re-enumerating the census
        // lattice recurses once per column (3^rounds), so confirmation
        // rounds past the budget keep only the allocation-free
        // connectivity watchdog — a drop or duplicate striking the
        // decision round still shifts the later delivery counts out of
        // the decided range `[c, 2c]`.
        let level = levels_of(&rhs);
        let within_confirm_budget = 3usize
            .checked_pow(level as u32 + 1)
            .is_some_and(|cols| cols <= GENERAL_K_CONFIRM_MAX_COLUMNS);
        if decided.is_some() && !within_confirm_budget {
            if watchdogs {
                let dcount = round.len() as i64;
                let out_of_range = prev_range
                    .is_some_and(|(lo, hi)| dcount < lo || dcount > hi.saturating_mul(2));
                if dcount == 0 || out_of_range {
                    return violation_verdict(ViolationKind::Connectivity, r32, plan, sink);
                }
            }
            continue;
        }
        // Assemble the level-r observation block (label-major, matching
        // `GeneralSystem::observations`) from the faulted deliveries.
        let Some(width) = 3usize.checked_pow(level as u32) else {
            break;
        };
        let mut al = vec![0i64; width];
        let mut bl = vec![0i64; width];
        let mut integrity_ok = true;
        let arena = source.arena();
        for d in &round {
            let len_ok = arena.history_len(d.state) == level;
            let idx = arena.checked_ternary_index(d.state);
            match (len_ok, idx, d.label) {
                (true, Some(i), 1) => al[i] += 1,
                (true, Some(i), 2) => bl[i] += 1,
                _ => integrity_ok = false,
            }
        }
        if !integrity_ok {
            if watchdogs {
                return violation_verdict(ViolationKind::DeliveryIntegrity, r32, plan, sink);
            }
            return undecided(r32 + 1, None, sink);
        }
        if watchdogs {
            let dcount = round.len() as i64;
            let out_of_range = prev_range
                .is_some_and(|(lo, hi)| dcount < lo || dcount > hi.saturating_mul(2));
            if dcount == 0 || out_of_range {
                return violation_verdict(ViolationKind::Connectivity, r32, plan, sink);
            }
        }
        rhs.extend(al);
        rhs.extend(bl);
        let rounds_seen = level + 1;
        let pops = match sys.feasible_populations_from_observations(&rhs, rounds_seen, max_solutions)
        {
            Ok(pops) => pops,
            // Enumeration budget or size limits — not a model violation.
            Err(_) => return undecided(r32 + 1, prev_range, sink),
        };
        if watchdogs {
            let range = pops.first().zip(pops.last()).map(|(&lo, &hi)| (lo, hi));
            let conserved = match (range, prev_range) {
                (None, _) => false,
                (Some((_, hi)), _) if hi < 1 => false,
                (Some((lo, hi)), Some((plo, phi))) => lo >= plo && hi <= phi,
                (Some(_), None) => true,
            };
            if !conserved {
                return violation_verdict(ViolationKind::CensusConservation, r32, plan, sink);
            }
            prev_range = range;
        } else {
            prev_range = pops.first().zip(pops.last()).map(|(&lo, &hi)| (lo, hi));
        }
        if decided.is_none() {
            let mut ev = RoundEvent::new(r32).candidate_count(pops.len() as u64);
            if let (Some(&lo), Some(&hi)) = (pops.first(), pops.last()) {
                ev = ev.candidates(lo, hi);
            }
            if let Ok(nullity) = sys.predicted_nullity(rounds_seen - 1) {
                ev = ev.kernel_dim(nullity as u64);
            }
            if let Some(f) = plan.labels_at(r32) {
                ev = ev.fault(&f);
            }
            sink.record(&ev);
            if pops.len() == 1 {
                decided = Some((pops[0] as u64, r32 + 1));
                if !watchdogs {
                    // The unguarded rule outputs immediately; the guarded
                    // rule confirms through the horizon.
                    sink.flush();
                    let (count, rounds) = decided.unwrap_or((pops[0] as u64, r32 + 1));
                    return Verdict::Correct { count, rounds };
                }
            }
        }
    }
    sink.flush();
    match decided {
        Some((count, rounds)) => Verdict::Correct { count, rounds },
        None => Verdict::Undecided {
            rounds: max_rounds,
            candidates: prev_range,
        },
    }
}

/// Number of completed observation levels encoded in a label-major
/// `k = 2` rhs (`2·(3^0 + … + 3^{l-1})` entries after `l` levels).
fn levels_of(rhs: &[i64]) -> usize {
    let mut level = 0usize;
    let mut used = 0usize;
    loop {
        let Some(width) = 3usize.checked_pow(level as u32) else {
            return level;
        };
        let Some(next) = used.checked_add(2 * width) else {
            return level;
        };
        if next > rhs.len() {
            return level;
        }
        used = next;
        level += 1;
    }
}

/// Ends a run without a decision after `rounds` rounds.
fn undecided<S: TraceSink>(rounds: u32, candidates: Option<(i64, i64)>, sink: &mut S) -> Verdict {
    sink.flush();
    Verdict::Undecided { rounds, candidates }
}

fn violation_verdict<S: TraceSink>(
    kind: ViolationKind,
    round: u32,
    plan: &FaultPlan,
    sink: &mut S,
) -> Verdict {
    let mut ev = RoundEvent::new(round).violation(kind.label());
    if let Some(f) = plan.labels_at(round) {
        ev = ev.fault(&f);
    }
    sink.record(&ev);
    sink.flush();
    Verdict::ModelViolation { kind, round }
}

/// The first round in `0..window` whose faulted graph is disconnected —
/// the graph-layer 1-interval-connectivity watchdog. Scans a clone of
/// the network, so generator-backed networks replay identically when
/// the algorithm runs afterwards.
fn connectivity_prescan<N: DynamicNetwork + Clone>(
    net: &FaultyNetwork<N>,
    window: u32,
) -> Option<u32> {
    let mut probe = net.clone();
    check_interval_connectivity(&mut probe, window)
}

/// The faulted round graphs `0..window` of `net`, each built once, so the
/// graph-layer watchdogs of one session scan the same materialised
/// window.
fn faulted_window<N: DynamicNetwork>(net: &mut FaultyNetwork<N>, window: u32) -> Vec<Graph> {
    (0..window).map(|r| net.graph(r)).collect()
}

/// The first disconnected round of a materialised window — the
/// 1-interval-connectivity watchdog of [`connectivity_prescan`] over
/// graphs that are already built.
fn connectivity_scan(rounds: &[Graph]) -> Option<u32> {
    rounds
        .iter()
        .position(|g| !g.is_connected())
        .map(|r| r as u32)
}

/// The first round of a materialised window of an order-`order` network
/// that is not a restricted `G(PD)_2` — the graph-layer *shape* watchdog
/// for the algorithms whose model is stronger than mere connectivity.
///
/// The layer assignment is fixed by round 0 (node 0 the leader, its
/// round-0 neighbours the relays, everyone else a leaf); each round
/// must then keep the leader touching exactly the relay layer, admit no
/// intra-layer or leader–leaf edges, and give every leaf at least one
/// relay. These conditions imply connectivity, but are checked
/// *separately* from [`connectivity_scan`] so disconnections are
/// named [`ViolationKind::Connectivity`] and structural damage (e.g. an
/// edge drop that severs a relay from the leader while the graph stays
/// connected) is named [`ViolationKind::DeliveryIntegrity`].
fn pd2_shape_scan(order: usize, rounds: &[Graph]) -> Option<u32> {
    if order == 0 {
        return Some(0);
    }
    let mut is_relay = vec![false; order];
    for &v in rounds.first()?.neighbors(0) {
        is_relay[v] = true;
    }
    let relay_count = is_relay.iter().filter(|&&r| r).count();
    for (r, g) in (0u32..).zip(rounds) {
        if g.order() != order {
            return Some(r);
        }
        let leader_hood = g.neighbors(0);
        if leader_hood.len() != relay_count || leader_hood.iter().any(|&v| !is_relay[v]) {
            return Some(r);
        }
        let mut leaf_degree = vec![0usize; order];
        for (u, v) in g.edges() {
            match (u == 0 || is_relay[u], v == 0 || is_relay[v]) {
                // Upper-layer pairs: leader–relay is fine, relay–relay
                // and (already excluded above) leader–leaf are not.
                (true, true) => {
                    if u != 0 && v != 0 {
                        return Some(r);
                    }
                }
                (false, false) => return Some(r),
                (true, false) => {
                    if u == 0 {
                        return Some(r);
                    }
                    leaf_degree[v] += 1;
                }
                (false, true) => {
                    if v == 0 {
                        return Some(r);
                    }
                    leaf_degree[u] += 1;
                }
            }
        }
        for v in 1..order {
            if !is_relay[v] && leaf_degree[v] == 0 {
                return Some(r);
            }
        }
    }
    None
}

/// The graph-layer watchdogs of the `G(PD)_2` algorithms over one
/// materialised window: the connectivity scan runs first, so a
/// disconnected round anywhere in the window is named
/// [`ViolationKind::Connectivity`] even when an earlier round already
/// breaks the shape.
fn pd2_window_violation(order: usize, rounds: &[Graph]) -> Option<Verdict> {
    if let Some(round) = connectivity_scan(rounds) {
        return Some(Verdict::ModelViolation {
            kind: ViolationKind::Connectivity,
            round,
        });
    }
    pd2_shape_scan(order, rounds).map(|round| Verdict::ModelViolation {
        kind: ViolationKind::DeliveryIntegrity,
        round,
    })
}

/// Runs `G(PD)_2` view counting on `net` under the graph-level
/// projection of `plan` ([`FaultPlan::network_plan`]) and reduces the
/// run to a [`Verdict`].
///
/// Watchdogs: over one window of faulted rounds, built once, a
/// per-round connectivity scan (any disconnected round within the
/// horizon fails closed as [`ViolationKind::Connectivity`]) and the
/// `G(PD)_2` shape scan (structural damage that keeps the graph
/// connected fails closed as [`ViolationKind::DeliveryIntegrity`]), plus the decoder's own
/// structural checks — a [`Pd2ViewError::NotPd2`] rejection also
/// becomes [`ViolationKind::DeliveryIntegrity`]. Unguarded runs map
/// every error to [`Verdict::Undecided`] (the unguarded rule never
/// outputs a count it did not decide, but it also never names the
/// fault).
pub fn pd2_view_verdict<N: DynamicNetwork + Clone>(
    net: N,
    max_rounds: u32,
    max_solutions: usize,
    plan: &FaultPlan,
    watchdogs: bool,
) -> Verdict {
    let faulted = FaultyNetwork::new(net, plan.network_plan());
    if watchdogs {
        // The prescans read a clone, so generator-backed networks replay
        // identically when the runner reads `faulted` afterwards.
        let window = faulted_window(&mut faulted.clone(), max_rounds);
        if let Some(violation) = pd2_window_violation(faulted.order(), &window) {
            return violation;
        }
    }
    match run_pd2_view_counting(faulted, max_rounds, max_solutions) {
        Ok(out) => Verdict::Correct {
            count: out.count,
            rounds: out.rounds,
        },
        Err(Pd2ViewError::Undecided { rounds, candidates }) => Verdict::Undecided {
            rounds,
            candidates: candidates
                .first()
                .zip(candidates.last())
                .map(|(&lo, &hi)| (lo, hi)),
        },
        Err(Pd2ViewError::NotPd2 { .. }) if watchdogs => Verdict::ModelViolation {
            kind: ViolationKind::DeliveryIntegrity,
            round: 0,
        },
        Err(_) => Verdict::Undecided {
            rounds: max_rounds,
            candidates: None,
        },
    }
}

/// The degree oracle's whole horizon: it decides at round 2 or never.
const ORACLE_ROUNDS: u32 = 3;

/// Runs the O(1) degree-oracle algorithm on `net` under the graph-level
/// projection of `plan` and reduces the run to a [`Verdict`].
///
/// The three faulted rounds of the algorithm's whole horizon are built
/// once; the watchdogs scan them and the oracle then runs over them.
///
/// Watchdogs: a 3-round connectivity scan plus a 3-round **shape
/// scan** — the algorithm's model is the restricted `G(PD)_2`, and an
/// edge drop can leave the graph connected while severing a relay from
/// the leader, silently shrinking the telescoped sum to a smaller
/// integer. A round that is not a
/// restricted `G(PD)_2` (with the layer assignment fixed by round 0)
/// fails closed as [`ViolationKind::DeliveryIntegrity`]. The protocol's
/// own fractional-sum withholding (the leader refuses to output when
/// the telescoped shares are not an integer) maps to
/// [`Verdict::Undecided`] in both arms.
pub fn degree_oracle_verdict<N: DynamicNetwork>(
    net: N,
    plan: &FaultPlan,
    watchdogs: bool,
) -> Verdict {
    let mut faulted = FaultyNetwork::new(net, plan.network_plan());
    let order = faulted.order();
    let window = faulted_window(&mut faulted, ORACLE_ROUNDS);
    if watchdogs {
        if let Some(violation) = pd2_window_violation(order, &window) {
            return violation;
        }
    }
    let rounds = GraphSequence::new(window).expect("faulted rounds share the network's order");
    match run_degree_oracle(rounds) {
        Ok(out) => Verdict::Correct {
            count: out.count,
            rounds: out.rounds,
        },
        Err(CountingError::Undecided { rounds, candidates }) => {
            Verdict::Undecided { rounds, candidates }
        }
        Err(_) => Verdict::Undecided {
            rounds: ORACLE_ROUNDS,
            candidates: None,
        },
    }
}

/// Window over which the mass-drain / push-sum leaders require their
/// trailing statistic to be flat before claiming a count.
const STABLE_WINDOW: usize = 8;

/// Runs the mass-drain baseline on `net` under the graph-level
/// projection of `plan` and reduces the run to a [`Verdict`].
///
/// The leader's claim is computed *without ground truth*: when its
/// collected mass has been flat (change below `epsilon`) over the
/// trailing [`STABLE_WINDOW`] rounds it claims
/// `round(collected) + 1`. Watchdogs: the connectivity prescan plus
/// the protocol's own degree-bound detector
/// ([`MassDrainRun::bound_violated`](crate::baselines::MassDrainRun::bound_violated)),
/// which maps to [`ViolationKind::DeliveryIntegrity`]. Unguarded runs
/// ignore both and claim whatever the drained mass suggests — a
/// crashed node's stranded mass yields a silently wrong count.
pub fn mass_drain_verdict<N: DynamicNetwork + Clone>(
    net: N,
    degree_bound: u32,
    max_rounds: u32,
    epsilon: f64,
    plan: &FaultPlan,
    watchdogs: bool,
) -> Verdict {
    let faulted = FaultyNetwork::new(net, plan.network_plan());
    if watchdogs {
        if let Some(round) = connectivity_prescan(&faulted, max_rounds) {
            return Verdict::ModelViolation {
                kind: ViolationKind::Connectivity,
                round,
            };
        }
    }
    let run = run_mass_drain(faulted, degree_bound, max_rounds, epsilon);
    if watchdogs && run.bound_violated {
        return Verdict::ModelViolation {
            kind: ViolationKind::DeliveryIntegrity,
            round: 0,
        };
    }
    let n = run.collected.len();
    let stable = n > STABLE_WINDOW
        && run
            .collected
            .last()
            .zip(run.collected.get(n - 1 - STABLE_WINDOW))
            .is_some_and(|(&last, &earlier)| (last - earlier).abs() < epsilon);
    match run.collected.last() {
        Some(&c) if stable && c >= 0.0 => {
            // First round at which the leader's collected mass reached
            // its final plateau — the leader-observable decision round.
            let rounds = run
                .collected
                .iter()
                .position(|&v| (c - v).abs() < epsilon)
                .map(|r| r as u32 + 1)
                .unwrap_or(max_rounds);
            Verdict::Correct {
                count: libm_round(c) + 1,
                rounds,
            }
        }
        _ => Verdict::Undecided {
            rounds: max_rounds,
            candidates: None,
        },
    }
}

/// `f64::round` clamped into `u64` (negative and non-finite inputs
/// collapse to 0 — the caller treats any such claim as just another
/// wrong count for the envelope statistics).
fn libm_round(x: f64) -> u64 {
    if x.is_finite() && x > 0.0 {
        x.round() as u64
    } else {
        0
    }
}

/// Runs the push-sum baseline on `net` under the graph-level projection
/// of `plan` and reduces the run to a [`Verdict`].
///
/// Push-sum only estimates; the leader claims a count when its estimate
/// has stabilized (relative change below `tolerance` across the
/// trailing [`STABLE_WINDOW`] rounds) *and* sits within `tolerance` of
/// an integer — on in-model networks the claim then equals the true
/// size. Watchdogs: the connectivity prescan (mass stranded on a
/// crashed or disconnected node shifts the limit to a wrong integer,
/// which the unguarded arm happily reports).
pub fn pushsum_verdict<N: DynamicNetwork + Clone>(
    net: N,
    max_rounds: u32,
    tolerance: f64,
    plan: &FaultPlan,
    watchdogs: bool,
) -> Verdict {
    let faulted = FaultyNetwork::new(net, plan.network_plan());
    if watchdogs {
        if let Some(round) = connectivity_prescan(&faulted, max_rounds) {
            return Verdict::ModelViolation {
                kind: ViolationKind::Connectivity,
                round,
            };
        }
    }
    let run = run_pushsum(faulted, max_rounds);
    let n = run.estimates.len();
    let last = run.estimates.last().copied().unwrap_or(f64::NAN);
    let stable = n > STABLE_WINDOW
        && run.estimates[n - 1 - STABLE_WINDOW..]
            .iter()
            .all(|&e| e.is_finite() && (e - last).abs() <= tolerance * last.abs().max(1.0));
    let claim = libm_round(last);
    let near_integer = last.is_finite() && (last - claim as f64).abs() <= tolerance * (claim.max(1)) as f64;
    if stable && near_integer && claim >= 1 {
        Verdict::Correct {
            count: claim,
            rounds: max_rounds,
        }
    } else {
        Verdict::Undecided {
            rounds: max_rounds,
            candidates: None,
        }
    }
}

/// Runs the exhaustive enumeration baseline on `net` under the
/// graph-level projection of `plan` and reduces the run to a
/// [`Verdict`].
///
/// Watchdogs: the connectivity prescan, an empty candidate set at any
/// round (no 1-interval-connected network of any admissible size could
/// have produced the view — [`ViolationKind::CensusConservation`]) and
/// non-nested candidate sets (consistent sizes can only shrink as the
/// view grows).
///
/// # Panics
///
/// Panics if `max_size > 6` (inherited from
/// [`run_enumeration_counting`]).
pub fn enumeration_verdict<N: DynamicNetwork + Clone>(
    net: N,
    max_rounds: u32,
    max_size: usize,
    plan: &FaultPlan,
    watchdogs: bool,
) -> Verdict {
    let faulted = FaultyNetwork::new(net, plan.network_plan());
    if watchdogs {
        if let Some(round) = connectivity_prescan(&faulted, max_rounds) {
            return Verdict::ModelViolation {
                kind: ViolationKind::Connectivity,
                round,
            };
        }
    }
    let out = run_enumeration_counting(faulted, max_rounds, max_size);
    if watchdogs {
        let mut prev: Option<&Vec<usize>> = None;
        for (r, cands) in out.candidates_per_round.iter().enumerate() {
            let nested = prev.is_none_or(|p| cands.iter().all(|c| p.contains(c)));
            if cands.is_empty() || !nested {
                return Verdict::ModelViolation {
                    kind: ViolationKind::CensusConservation,
                    round: r as u32,
                };
            }
            prev = Some(cands);
        }
    }
    match out.decision_round {
        Some(rounds) => {
            let count = out
                .candidates_per_round
                .get(rounds as usize - 1)
                .and_then(|c| c.first())
                .copied()
                .unwrap_or(0) as u64;
            Verdict::Correct { count, rounds }
        }
        None => Verdict::Undecided {
            rounds: max_rounds,
            candidates: out.candidates_per_round.last().and_then(|c| {
                c.first()
                    .zip(c.last())
                    .map(|(&lo, &hi)| (lo as i64, hi as i64))
            }),
        },
    }
}

/// The counting algorithms exposed as **search oracles**: the
/// coverage-guided adversary search (`exp_search`) mutates
/// [`AdversarySchedule`]s and judges every mutant by feeding it to one
/// of these through [`schedule_verdict`]. Only the five deterministic
/// exact-counting rules are searchable — the float-valued baselines
/// (mass-drain, push-sum) would put `f64`s in fitness comparisons and
/// break the byte-identical-archive contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchAlgorithm {
    /// The paper's kernel counting rule on `M(DBL)_2` executions
    /// ([`kernel_verdict`]).
    Kernel,
    /// The exhaustive general-`k` rule ([`general_k_verdict`]).
    GeneralK,
    /// `G(PD)_2` view counting on the transformed network
    /// ([`pd2_view_verdict`]).
    Pd2View,
    /// The O(1) degree oracle on the transformed network
    /// ([`degree_oracle_verdict`]).
    DegreeOracle,
    /// The history-tree alternating-spine-sum rule on `M(DBL)_2`
    /// executions ([`history_tree_verdict`]). Appended after the
    /// original four so archived fitness-class bits keep their
    /// positions.
    HistoryTree,
}

impl SearchAlgorithm {
    /// Every searchable oracle, in the canonical (archive) order.
    pub const ALL: [SearchAlgorithm; 5] = [
        SearchAlgorithm::Kernel,
        SearchAlgorithm::GeneralK,
        SearchAlgorithm::Pd2View,
        SearchAlgorithm::DegreeOracle,
        SearchAlgorithm::HistoryTree,
    ];

    /// Stable name used in coverage keys, archive files and cell ids.
    pub fn name(self) -> &'static str {
        match self {
            SearchAlgorithm::Kernel => "kernel",
            SearchAlgorithm::GeneralK => "general-k",
            SearchAlgorithm::Pd2View => "pd2-views",
            SearchAlgorithm::DegreeOracle => "degree-oracle",
            SearchAlgorithm::HistoryTree => "history-tree",
        }
    }

    /// Inverse of [`SearchAlgorithm::name`].
    pub fn from_name(name: &str) -> Option<SearchAlgorithm> {
        SearchAlgorithm::ALL.into_iter().find(|a| a.name() == name)
    }
}

/// Candidate-set budget handed to [`general_k_verdict`] by
/// [`schedule_verdict`] — matches the `exp_faults` E22 grid so archived
/// verdicts replay against the same truncation behavior.
pub const SEARCH_GENERAL_K_BUDGET: usize = 10_000;

/// Candidate-set budget handed to [`pd2_view_verdict`] by
/// [`schedule_verdict`] — matches the `exp_faults` E22 grid.
pub const SEARCH_PD2_BUDGET: usize = 50_000;

/// Judges one [`AdversarySchedule`] with oracle `alg` — the single
/// entry point the search loop, the archive replay tests and the
/// corpus-seeding code all share, so a schedule's verdict means the
/// same thing everywhere.
///
/// The multigraph oracles ([`SearchAlgorithm::Kernel`],
/// [`SearchAlgorithm::GeneralK`]) replay the schedule's `M(DBL)_2`
/// execution directly under its [`FaultPlan`]. The graph oracles
/// ([`SearchAlgorithm::Pd2View`], [`SearchAlgorithm::DegreeOracle`])
/// run on the Lemma 1 transform of the schedule's network
/// ([`anonet_multigraph::transform::to_pd2`]) under the plan's
/// graph-level projection, exactly as in the E22 grid; the transform is
/// built over `max(horizon, 4)` rounds so the oracle's fixed 3-round
/// window always exists.
///
/// A schedule whose rows no longer assemble into a [`DblMultigraph`] or
/// transform into a `G(PD)_2` (impossible for
/// [validated](AdversarySchedule::validate) schedules, kept total for
/// robustness) maps to `Undecided { rounds: 0 }` — the worst possible
/// fitness, so malformed genomes die out instead of crashing a
/// campaign.
pub fn schedule_verdict(
    alg: SearchAlgorithm,
    schedule: &AdversarySchedule,
    watchdogs: bool,
) -> Verdict {
    let dead = Verdict::Undecided {
        rounds: 0,
        candidates: None,
    };
    let Ok(m) = schedule.multigraph() else {
        return dead;
    };
    let horizon = schedule.horizon();
    match alg {
        SearchAlgorithm::Kernel => kernel_verdict(&m, horizon, schedule.plan(), watchdogs),
        SearchAlgorithm::GeneralK => general_k_verdict(
            &m,
            horizon,
            SEARCH_GENERAL_K_BUDGET,
            schedule.plan(),
            watchdogs,
        ),
        SearchAlgorithm::Pd2View => {
            let Ok(net) = transform::to_pd2(&m, (horizon as usize).max(4)) else {
                return dead;
            };
            pd2_view_verdict(net, horizon, SEARCH_PD2_BUDGET, schedule.plan(), watchdogs)
        }
        SearchAlgorithm::DegreeOracle => {
            let Ok(net) = transform::to_pd2(&m, (horizon as usize).max(4)) else {
                return dead;
            };
            degree_oracle_verdict(net, schedule.plan(), watchdogs)
        }
        SearchAlgorithm::HistoryTree => {
            history_tree_verdict(&m, horizon, schedule.plan(), watchdogs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_multigraph::adversary::TwinBuilder;
    use anonet_multigraph::transform;

    #[test]
    fn kernel_verdict_counts_clean_runs_in_both_arms() {
        for n in [1u64, 4, 13, 40] {
            let pair = TwinBuilder::new().build(n).unwrap();
            let horizon = pair.horizon + 4;
            let plan = FaultPlan::new();
            for watchdogs in [false, true] {
                let v = kernel_verdict(&pair.smaller, horizon, &plan, watchdogs);
                assert_eq!(v.count(), Some(n), "n={n} watchdogs={watchdogs}");
            }
        }
    }

    #[test]
    fn kernel_watchdogs_catch_what_the_unguarded_leader_miscounts() {
        // The drop pattern from the simulate tests: a quarter of round
        // 1's deliveries vanish. The unguarded leader undercounts (or
        // stalls); the guarded leader names a violation.
        let pair = TwinBuilder::new().build(13).unwrap();
        let plan = FaultPlan::new().drop_deliveries(1, 4, 0);
        let guarded = kernel_verdict(&pair.smaller, 8, &plan, true);
        assert!(matches!(guarded, Verdict::ModelViolation { .. }), "{guarded}");
        let unguarded = kernel_verdict(&pair.smaller, 8, &plan, false);
        if let Some(count) = unguarded.count() {
            assert_ne!(count, 13, "any unguarded decision is wrong — silently");
        }
    }

    #[test]
    fn general_k_verdict_matches_kernel_on_clean_runs() {
        for n in [1u64, 3, 4, 9] {
            let pair = TwinBuilder::new().build(n).unwrap();
            let plan = FaultPlan::new();
            let gk = general_k_verdict(&pair.smaller, 8, 5_000_000, &plan, true);
            let kc = kernel_verdict(&pair.smaller, 8, &plan, true);
            assert_eq!(gk.count(), Some(n), "n={n}");
            assert_eq!(gk, kc, "both rules are optimal, n={n}");
        }
    }

    #[test]
    fn general_k_watchdogs_fail_closed_on_duplicates() {
        let pair = TwinBuilder::new().build(4).unwrap();
        let plan = FaultPlan::new().duplicate_deliveries(0, 2, 0);
        let guarded = general_k_verdict(&pair.smaller, 6, 2_000_000, &plan, true);
        assert!(guarded.is_fail_closed(), "{guarded}");
    }

    #[test]
    fn pd2_view_verdict_counts_clean_transforms() {
        let pair = TwinBuilder::new().build(4).unwrap();
        let net = transform::to_pd2(&pair.smaller, 8).unwrap();
        let v = pd2_view_verdict(net, 8, 2_000_000, &FaultPlan::new(), true);
        match v {
            Verdict::Correct { count, .. } => assert_eq!(count, 4 + 3),
            Verdict::Undecided { candidates, .. } => {
                let (lo, hi) = candidates.unwrap();
                assert!(lo <= 4 && 4 <= hi);
            }
            other => panic!("clean run must not fail closed: {other}"),
        }
    }

    #[test]
    fn pd2_view_verdict_fails_closed_on_disconnect() {
        let pair = TwinBuilder::new().build(4).unwrap();
        let net = transform::to_pd2(&pair.smaller, 8).unwrap();
        let plan = FaultPlan::new().disconnect(2);
        let v = pd2_view_verdict(net, 8, 2_000_000, &plan, true);
        assert_eq!(
            v,
            Verdict::ModelViolation {
                kind: ViolationKind::Connectivity,
                round: 2
            }
        );
    }

    #[test]
    fn degree_oracle_verdict_is_constant_time_and_guarded() {
        let pair = TwinBuilder::new().build(13).unwrap();
        let net = transform::to_pd2(&pair.smaller, 4).unwrap();
        let clean = degree_oracle_verdict(net.clone(), &FaultPlan::new(), true);
        assert_eq!(clean.count(), Some(13 + 3));
        let crashed = degree_oracle_verdict(net, &FaultPlan::new().crash_nodes(1, 2), true);
        assert!(crashed.is_fail_closed(), "{crashed}");
    }

    #[test]
    fn mass_drain_verdict_claims_without_ground_truth() {
        let net = anonet_graph::GraphSequence::constant(anonet_graph::Graph::star(8).unwrap());
        let v = mass_drain_verdict(net, 7, 800, 0.01, &FaultPlan::new(), true);
        assert_eq!(v.count(), Some(8), "{v}");
    }

    #[test]
    fn mass_drain_crash_is_silently_wrong_only_when_unguarded() {
        let mk = || anonet_graph::GraphSequence::constant(anonet_graph::Graph::star(8).unwrap());
        let plan = FaultPlan::new().crash_nodes(1, 2);
        let guarded = mass_drain_verdict(mk(), 7, 800, 0.01, &plan, true);
        assert!(guarded.is_fail_closed(), "{guarded}");
        let unguarded = mass_drain_verdict(mk(), 7, 800, 0.01, &plan, false);
        if let Some(count) = unguarded.count() {
            assert_ne!(count, 8, "stranded mass undercounts silently");
        }
    }

    #[test]
    fn pushsum_verdict_converges_cleanly_and_fails_closed_on_crash() {
        let clean = pushsum_verdict(
            anonet_graph::GraphSequence::constant(anonet_graph::Graph::complete(8)),
            200,
            1e-6,
            &FaultPlan::new(),
            true,
        );
        assert_eq!(clean.count(), Some(8), "{clean}");
        // A star mixes mass disproportionately, so a crashed leaf
        // strands a non-proportional (s, w) share and the surviving
        // estimate drifts off the true size. (On a complete graph one
        // round of mixing makes every node's mass proportional and a
        // crash leaves the limit at exactly n — push-sum is naturally
        // robust there.)
        let mk = || anonet_graph::GraphSequence::constant(anonet_graph::Graph::star(8).unwrap());
        let plan = FaultPlan::new().crash_nodes(1, 2);
        let guarded = pushsum_verdict(mk(), 200, 1e-6, &plan, true);
        assert!(guarded.is_fail_closed(), "{guarded}");
        let unguarded = pushsum_verdict(mk(), 200, 1e-6, &plan, false);
        assert_ne!(unguarded.count(), Some(8), "lost mass shifts the limit");
    }

    #[test]
    fn enumeration_verdict_counts_tiny_networks() {
        let net = anonet_graph::GraphSequence::constant(anonet_graph::Graph::star(3).unwrap());
        let v = enumeration_verdict(net, 3, 4, &FaultPlan::new(), true);
        assert_eq!(v.count(), Some(3), "{v}");
    }

    #[test]
    fn enumeration_verdict_fails_closed_on_disconnect() {
        let net = anonet_graph::GraphSequence::constant(anonet_graph::Graph::star(3).unwrap());
        let plan = FaultPlan::new().disconnect(1);
        let v = enumeration_verdict(net, 3, 4, &plan, true);
        assert!(v.is_fail_closed(), "{v}");
    }

    #[test]
    fn schedule_verdict_agrees_with_the_direct_runners() {
        use anonet_multigraph::mutate::AdversarySchedule;
        let pair = TwinBuilder::new().build(4).unwrap();
        let horizon = pair.horizon + 3;
        let schedule = AdversarySchedule::from_multigraph(&pair.smaller, horizon).unwrap();
        let m = schedule.multigraph().unwrap();
        assert_eq!(
            schedule_verdict(SearchAlgorithm::Kernel, &schedule, true),
            kernel_verdict(&m, horizon, schedule.plan(), true),
        );
        assert_eq!(
            schedule_verdict(SearchAlgorithm::GeneralK, &schedule, true),
            general_k_verdict(&m, horizon, SEARCH_GENERAL_K_BUDGET, schedule.plan(), true),
        );
        let net = transform::to_pd2(&m, (horizon as usize).max(4)).unwrap();
        assert_eq!(
            schedule_verdict(SearchAlgorithm::Pd2View, &schedule, true),
            pd2_view_verdict(net.clone(), horizon, SEARCH_PD2_BUDGET, schedule.plan(), true),
        );
        assert_eq!(
            schedule_verdict(SearchAlgorithm::DegreeOracle, &schedule, true),
            degree_oracle_verdict(net, schedule.plan(), true),
        );
    }

    #[test]
    fn search_algorithm_names_round_trip() {
        for alg in SearchAlgorithm::ALL {
            assert_eq!(SearchAlgorithm::from_name(alg.name()), Some(alg));
        }
        assert_eq!(SearchAlgorithm::from_name("push-sum"), None);
    }

    #[test]
    fn restart_resets_the_unguarded_leader_without_detection() {
        // The unguarded leader restarts from scratch and re-observes a
        // world whose histories are deeper than it thinks — ingestion
        // errors out (PR 1 would have panicked) and the run stays
        // decision-less rather than wrong.
        let pair = TwinBuilder::new().build(13).unwrap();
        let plan = FaultPlan::new().leader_restart(2);
        let unguarded = kernel_verdict(&pair.smaller, 6, &plan, false);
        assert!(unguarded.count().is_none(), "{unguarded}");
        let guarded = kernel_verdict(&pair.smaller, 6, &plan, true);
        assert_eq!(
            guarded,
            Verdict::ModelViolation {
                kind: ViolationKind::DeliveryIntegrity,
                round: 2
            }
        );
    }
}
