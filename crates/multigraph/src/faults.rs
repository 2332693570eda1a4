//! Deterministic fault injection and fail-closed model watchdogs for
//! `M(DBL)_2` executions.
//!
//! Every bound reproduced by this workspace assumes the paper's model:
//! synchronous reliable broadcast, 1-interval connectivity, a fixed node
//! set and a leader that never loses state. The tests in
//! [`simulate`](crate::simulate) show what happens when those assumptions
//! break silently — a dropped delivery makes the online leader
//! *undercount* and a duplicated delivery makes it *overcount*, with no
//! indication that anything went wrong. This module makes the breakage
//! explicit and the detection systematic:
//!
//! * [`FaultPlan`] — a deterministic, seedable schedule of typed faults
//!   ([`FaultKind`]): per-round delivery drops, duplicated deliveries,
//!   permanent node crashes, leader restarts with state loss, and
//!   connectivity-violating rounds.
//! * [`FaultedRounds`] — the message-passing protocol of
//!   [`simulate`](crate::simulate::simulate) with the plan applied
//!   inside the delivery loop, one round per call, so a reader that
//!   stops early never simulates the rounds it does not read.
//!   [`simulate_with_faults`] collects every round of it into an
//!   [`Execution`]. An **empty plan is a strict no-op**: the loop body
//!   is identical, so the produced execution (and every trace derived
//!   from it) is byte-identical to the unfaulted simulator — a property
//!   test pins this across seeds.
//! * [`WatchedLeader`] — the online counting leader wrapped in three
//!   runtime **model watchdogs** (delivery integrity, 1-interval
//!   connectivity, census conservation) plus a depth guard. In-model
//!   executions never trip a watchdog (each check is implied by the
//!   model, see the per-check notes); out-of-model executions either
//!   trip one or leave the leader undecided — never a silently wrong
//!   count.
//! * [`Verdict`] — the typed final answer every fault-aware runner in
//!   `anonet-core` reports: `Correct(count)`, `Undecided`, or
//!   `ModelViolation(kind, round)`.
//!
//! # Examples
//!
//! A quarter of round 1's messages are dropped; the watched leader
//! refuses to count and names the violated assumption:
//!
//! ```
//! use anonet_multigraph::adversary::TwinBuilder;
//! use anonet_multigraph::faults::{simulate_with_faults, FaultPlan, WatchedLeader};
//!
//! let pair = TwinBuilder::new().build(13)?;
//! let plan = FaultPlan::new().drop_deliveries(1, 4, 0);
//! let faulted = simulate_with_faults(&pair.smaller, 5, &plan);
//! let mut leader = WatchedLeader::new();
//! let mut verdict = None;
//! for round in &faulted.execution.rounds {
//!     match leader.ingest(&faulted.execution.arena, round) {
//!         Err(v) => {
//!             verdict = Some(v);
//!             break;
//!         }
//!         Ok(r) if r.decision.is_some() => break,
//!         Ok(_) => {}
//!     }
//! }
//! assert!(verdict.is_some(), "the drop is detected, not mis-counted");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::history::{checked_ternary_count, HistoryArena};
use crate::label::LabelSet;
use crate::multigraph::{DblError, DblMultigraph};
use crate::simulate::Execution;
use crate::soa::{RoundColumns, RoundEngine};
use crate::system::IncrementalSolver;
use anonet_graph::faults::NetworkFaultPlan;
use core::fmt;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One typed fault shape, applied at a specific round by a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Drop every delivery whose index (in the round's canonical sorted
    /// order) is congruent to `offset` modulo `stride` — message loss.
    DropDeliveries {
        /// Keep `stride - 1` of every `stride` deliveries (0 acts as 1).
        stride: u32,
        /// Which residue class is dropped.
        offset: u32,
    },
    /// Re-deliver every `stride`-th delivery once more — a duplicating
    /// (Byzantine) relay.
    DuplicateDeliveries {
        /// Duplicate one of every `stride` deliveries (0 acts as 1).
        stride: u32,
        /// Which residue class is duplicated.
        offset: u32,
    },
    /// Permanently crash the `count` highest-indexed still-live nodes:
    /// from this round on they send nothing and their states freeze.
    /// A crash acts no earlier than round 1 — every node completes
    /// round 0, because a node that never communicated at all is
    /// indistinguishable from (and equivalent to) a smaller in-model
    /// network, not a detectable fault.
    CrashNodes {
        /// How many additional nodes crash.
        count: u32,
    },
    /// The leader restarts and loses all accumulated observation state
    /// before ingesting this round.
    LeaderRestart,
    /// No delivery reaches the leader this round — a 1-interval
    /// connectivity violation.
    Disconnect,
}

impl FaultKind {
    /// A short stable label for traces (e.g. `"drop(4+0)"`, `"crash(2)"`).
    pub fn label(&self) -> String {
        match self {
            FaultKind::DropDeliveries { stride, offset } => format!("drop({stride}+{offset})"),
            FaultKind::DuplicateDeliveries { stride, offset } => {
                format!("dup({stride}+{offset})")
            }
            FaultKind::CrashNodes { count } => format!("crash({count})"),
            FaultKind::LeaderRestart => "restart".to_string(),
            FaultKind::Disconnect => "disconnect".to_string(),
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One scheduled fault: a [`FaultKind`] at a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The round the fault strikes (0-based, matching
    /// [`Execution::rounds`] indices).
    pub round: u32,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults against one execution.
///
/// Build one explicitly with the chainable constructors, or sample one
/// with [`FaultPlan::seeded`] — both are pure data, so the same plan
/// replays identically (the experiment grids stay byte-identical across
/// `--threads` counts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan — a proven no-op for [`simulate_with_faults`].
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules a [`FaultKind::DropDeliveries`] at `round`.
    #[must_use]
    pub fn drop_deliveries(mut self, round: u32, stride: u32, offset: u32) -> FaultPlan {
        self.events.push(FaultEvent {
            round,
            kind: FaultKind::DropDeliveries { stride, offset },
        });
        self
    }

    /// Schedules a [`FaultKind::DuplicateDeliveries`] at `round`.
    #[must_use]
    pub fn duplicate_deliveries(mut self, round: u32, stride: u32, offset: u32) -> FaultPlan {
        self.events.push(FaultEvent {
            round,
            kind: FaultKind::DuplicateDeliveries { stride, offset },
        });
        self
    }

    /// Schedules a [`FaultKind::CrashNodes`] at `round`.
    #[must_use]
    pub fn crash_nodes(mut self, round: u32, count: u32) -> FaultPlan {
        self.events.push(FaultEvent {
            round,
            kind: FaultKind::CrashNodes { count },
        });
        self
    }

    /// Schedules a [`FaultKind::LeaderRestart`] at `round`.
    #[must_use]
    pub fn leader_restart(mut self, round: u32) -> FaultPlan {
        self.events.push(FaultEvent {
            round,
            kind: FaultKind::LeaderRestart,
        });
        self
    }

    /// Schedules a [`FaultKind::Disconnect`] at `round`.
    #[must_use]
    pub fn disconnect(mut self, round: u32) -> FaultPlan {
        self.events.push(FaultEvent {
            round,
            kind: FaultKind::Disconnect,
        });
        self
    }

    /// Samples a plan of `faults` events over rounds `0..rounds`,
    /// deterministically from `seed`. Covers every [`FaultKind`]; the
    /// same `(seed, rounds, faults)` triple always yields the same plan.
    pub fn seeded(seed: u64, rounds: u32, faults: u32) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        let rounds = rounds.max(1);
        for _ in 0..faults {
            let round = rng.gen_range(0..rounds);
            plan = match rng.gen_range(0..5u32) {
                0 => {
                    let stride = rng.gen_range(2..5u32);
                    let offset = rng.gen_range(0..stride);
                    plan.drop_deliveries(round, stride, offset)
                }
                1 => {
                    let stride = rng.gen_range(2..5u32);
                    let offset = rng.gen_range(0..stride);
                    plan.duplicate_deliveries(round, stride, offset)
                }
                2 => plan.crash_nodes(round, rng.gen_range(1..3u32)),
                3 => plan.leader_restart(round),
                _ => plan.disconnect(round),
            };
        }
        plan
    }

    /// Builds a plan directly from an event list (insertion order is
    /// preserved, exactly as if the chainable constructors had been
    /// called in sequence). This is the entry point of the mutation
    /// operators in [`mutate`](crate::mutate) and of corpus replay
    /// ([`corpus`](crate::corpus)), which edit or decode event lists
    /// rather than re-deriving builder chains.
    pub fn from_events(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan { events }
    }

    /// True when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events striking `round`, in insertion order.
    pub fn events_at(&self, round: u32) -> impl Iterator<Item = &FaultEvent> + '_ {
        self.events.iter().filter(move |e| e.round == round)
    }

    /// Whether a [`FaultKind::LeaderRestart`] strikes `round`.
    pub fn has_restart_at(&self, round: u32) -> bool {
        self.events_at(round)
            .any(|e| matches!(e.kind, FaultKind::LeaderRestart))
    }

    /// The `+`-joined labels of the faults striking `round`, for the
    /// `fault` facet of trace events (`None` when the round is clean).
    pub fn labels_at(&self, round: u32) -> Option<String> {
        let labels: Vec<String> = self.events_at(round).map(|e| e.kind.label()).collect();
        if labels.is_empty() {
            None
        } else {
            Some(labels.join("+"))
        }
    }

    /// Projects the plan onto the graph layer: crashes, disconnects and
    /// delivery drops become their [`NetworkFaultPlan`] counterparts.
    /// Duplicated deliveries and leader restarts have no graph-level
    /// meaning (a simple graph cannot deliver an edge twice, and the
    /// topology does not model leader state) and are skipped — each
    /// layer applies exactly the faults it can represent.
    pub fn network_plan(&self) -> NetworkFaultPlan {
        let mut plan = NetworkFaultPlan::new();
        for e in &self.events {
            plan = match e.kind {
                FaultKind::CrashNodes { count } => plan.crash(e.round, count),
                FaultKind::Disconnect => plan.disconnect(e.round),
                FaultKind::DropDeliveries { stride, offset } => {
                    plan.drop_edges(e.round, stride, offset)
                }
                FaultKind::DuplicateDeliveries { .. } | FaultKind::LeaderRestart => plan,
            };
        }
        plan
    }
}

/// One applied fault: what struck which round, and how many deliveries
/// (or nodes) it affected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// The round the fault was applied at.
    pub round: u32,
    /// The fault applied.
    pub kind: FaultKind,
    /// Deliveries dropped/duplicated, nodes newly crashed, or deliveries
    /// suppressed by a disconnect (0 for leader restarts).
    pub affected: u64,
}

/// The output of [`simulate_with_faults`]: the perturbed execution plus
/// the log of faults actually applied.
#[derive(Debug, Clone)]
pub struct FaultedExecution {
    /// The (possibly perturbed) execution.
    pub execution: Execution,
    /// Every fault applied, in application order.
    pub records: Vec<FaultRecord>,
}

/// Runs the [`simulate`](crate::simulate::simulate) protocol on `m` for
/// `rounds` rounds with `plan`'s faults applied inside the delivery loop:
/// every round of a [`FaultedRounds`] stepper collected, then the last
/// round's receive phase, so the arena holds the histories after round
/// `rounds - 1` exactly as [`simulate`](crate::simulate::simulate)'s does.
///
/// Fault semantics, per round:
///
/// 1. [`FaultKind::CrashNodes`] marks the highest-indexed still-live
///    nodes crashed; crashed nodes send nothing this round and forever
///    after, and their states freeze (they stop appending label sets).
/// 2. Live nodes broadcast as usual; deliveries are put in canonical
///    `(label, history)` order.
/// 3. [`FaultKind::Disconnect`] then clears the round's deliveries;
///    [`FaultKind::DropDeliveries`] removes its residue class;
///    [`FaultKind::DuplicateDeliveries`] inserts a copy of each
///    delivery of its residue class right after the original, which
///    keeps canonical order (identical pairs are adjacent in it).
/// 4. [`FaultKind::LeaderRestart`] is recorded but applied by the
///    *leader* (see [`WatchedLeader::restart`]) — the network is not
///    affected.
///
/// With an empty plan the loop body is step-for-step identical to
/// [`simulate`](crate::simulate::simulate) (no special casing), so the
/// result is byte-identical — property-tested across seeds.
pub fn simulate_with_faults(
    m: &DblMultigraph,
    rounds: usize,
    plan: &FaultPlan,
) -> FaultedExecution {
    let mut stepper = FaultedRounds::new(m, rounds, plan);
    let mut out = Vec::with_capacity(rounds);
    while let Some(deliveries) = stepper.next_round() {
        out.push(deliveries);
    }
    let (arena, records) = stepper.finish();
    FaultedExecution {
        execution: Execution { arena, rounds: out },
        records,
    }
}

/// The fault-injected protocol of [`simulate_with_faults`] one round at
/// a time: the leader's observations are produced only when asked for.
///
/// [`next_round`](Self::next_round) runs, for round `r` and in order:
/// the receive phase of round `r - 1` (deferred from the previous call),
/// the crashes striking `r`, the broadcast of round `r`, and the
/// disconnect, drop and duplicate perturbations of `r`. A reader that
/// stops after round `r` therefore never pays for the receive phase of
/// round `r` or for anything later — with `3^r` possible histories per
/// round, the late rounds are the costly ones.
///
/// The engine calls run in exactly the order of the eager loop, so the
/// first `r` rounds, the records of rounds `< r` and (after
/// [`finish`](Self::finish)) the arena equal those of
/// `simulate_with_faults(m, r, plan)` — property-tested.
///
/// # Examples
///
/// ```
/// use anonet_multigraph::adversary::TwinBuilder;
/// use anonet_multigraph::faults::{simulate_with_faults, FaultPlan, FaultedRounds};
///
/// let pair = TwinBuilder::new().build(13)?;
/// let plan = FaultPlan::new().disconnect(1);
/// let mut rounds = FaultedRounds::new(&pair.smaller, 6, &plan);
/// let first = rounds.next_round().expect("round 0 is within the budget");
/// let eager = simulate_with_faults(&pair.smaller, 6, &plan);
/// assert_eq!(first.len(), eager.execution.rounds[0].len());
/// assert_eq!(rounds.next_round().map(|r| r.len()), Some(0), "disconnected");
/// let (_, records) = rounds.finish();
/// assert_eq!(records, eager.records);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FaultedRounds<'a> {
    m: &'a DblMultigraph,
    plan: &'a FaultPlan,
    engine: RoundEngine,
    rounds: usize,
    next: usize,
    records: Vec<FaultRecord>,
}

impl<'a> FaultedRounds<'a> {
    /// A stepper over rounds `0..rounds` of `m` under `plan`, before its
    /// first round.
    pub fn new(m: &'a DblMultigraph, rounds: usize, plan: &'a FaultPlan) -> FaultedRounds<'a> {
        FaultedRounds {
            m,
            plan,
            engine: RoundEngine::new(m.nodes(), m.k()),
            rounds,
            next: 0,
            records: Vec::new(),
        }
    }

    /// The arena interning every history delivered so far.
    pub fn arena(&self) -> &HistoryArena {
        self.engine.arena()
    }

    /// Produces the next round's (perturbed) deliveries in canonical
    /// order, or `None` once the `rounds` budget is spent.
    pub fn next_round(&mut self) -> Option<RoundColumns> {
        let r = self.next;
        if r >= self.rounds {
            return None;
        }
        let (m, plan, engine) = (self.m, self.plan, &mut self.engine);
        if r > 0 {
            engine.advance(m, r - 1);
        }
        let r32 = u32::try_from(r).unwrap_or(u32::MAX);
        // Crashes act at max(round, 1): every node completes round 0.
        for ev in plan.events().iter().filter(|e| e.round.max(1) == r32) {
            if let FaultKind::CrashNodes { count } = ev.kind {
                self.records.push(FaultRecord {
                    round: r32,
                    kind: ev.kind,
                    affected: engine.crash_highest(count),
                });
            }
        }
        let mut deliveries = RoundColumns::with_capacity(m.edge_count(r));
        engine.emit_round(m, r, &mut deliveries);
        for ev in plan.events_at(r32) {
            let affected = match ev.kind {
                FaultKind::Disconnect => {
                    let suppressed = deliveries.len();
                    deliveries.clear();
                    suppressed
                }
                FaultKind::DropDeliveries { stride, offset } => {
                    let stride = stride.max(1) as usize;
                    let before = deliveries.len();
                    deliveries.retain_indexed(|i| i % stride != (offset as usize) % stride);
                    before - deliveries.len()
                }
                FaultKind::DuplicateDeliveries { stride, offset } => {
                    let stride = stride.max(1) as usize;
                    deliveries.duplicate_indexed(|i| i % stride == (offset as usize) % stride)
                }
                FaultKind::LeaderRestart => 0,
                FaultKind::CrashNodes { .. } => continue, // applied above
            };
            self.records.push(FaultRecord {
                round: r32,
                kind: ev.kind,
                affected: affected as u64,
            });
        }
        self.next = r + 1;
        Some(deliveries)
    }

    /// Runs the receive phase of the last produced round and returns the
    /// arena and the fault log — the `arena` and `records` that
    /// [`simulate_with_faults`] over the rounds produced so far returns.
    pub fn finish(mut self) -> (HistoryArena, Vec<FaultRecord>) {
        if self.next > 0 {
            self.engine.advance(self.m, self.next - 1);
        }
        (self.engine.into_arena(), self.records)
    }
}

/// Thins `m` in-model: every `stride`-th `{1,2}` label set (counting
/// occurrences row-major across rounds and nodes) becomes `{1}`.
///
/// Unlike a delivery drop this yields a *valid* `M(DBL)_2` network of
/// the same population — the node still has an edge, it just lost its
/// second one. Thinned networks measure the benign-degradation arm of
/// the safety envelope: how many extra rounds counting needs when the
/// adversary withholds multi-edges, without ever leaving the model.
///
/// # Errors
///
/// Propagates [`DblError`] (unreachable for valid inputs: replacing
/// `{1,2}` by `{1}` preserves every multigraph invariant).
pub fn thin_multigraph(m: &DblMultigraph, stride: usize) -> Result<DblMultigraph, DblError> {
    let stride = stride.max(1);
    let mut seen = 0usize;
    let mut rows = Vec::with_capacity(m.prefix_len());
    for r in 0..m.prefix_len() {
        let mut row = Vec::with_capacity(m.nodes());
        for node in 0..m.nodes() {
            let mut s = m.label_set(r, node);
            if s == LabelSet::L12 {
                if seen.is_multiple_of(stride) {
                    s = LabelSet::L1;
                }
                seen += 1;
            }
            row.push(s);
        }
        rows.push(row);
    }
    DblMultigraph::new(m.k(), rows)
}

/// The model assumption a watchdog caught being violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A delivery was malformed: wrong label range, wrong state length
    /// for the round, a non-ternary state, or observations arriving
    /// after a leader state loss.
    DeliveryIntegrity,
    /// The delivery count is impossible for any 1-interval-connected
    /// network consistent with the observations so far (in-model, round
    /// `r` delivers between `n` and `2n` messages and the candidate
    /// range always contains `n`).
    Connectivity,
    /// The observation system became infeasible or the candidate
    /// population range grew — in-model, censuses of consecutive levels
    /// are conserved (children sum to their parent), so the feasible
    /// range only ever shrinks.
    CensusConservation,
    /// The observation system cannot be checked soundly: the kernel
    /// leader's round is deeper than its ternary index space (the depth
    /// guard), or the general-`k` verifier's nullity disagreed with the
    /// closed form — either way the decision rule would be unsound.
    KernelConsistency,
}

impl ViolationKind {
    /// A short stable label for traces and tables.
    pub fn label(&self) -> &'static str {
        match self {
            ViolationKind::DeliveryIntegrity => "delivery-integrity",
            ViolationKind::Connectivity => "connectivity",
            ViolationKind::CensusConservation => "census-conservation",
            ViolationKind::KernelConsistency => "kernel-consistency",
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A watchdog detection: which assumption broke, at which absolute round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The violated assumption.
    pub kind: ViolationKind,
    /// The absolute round (counting every ingested round, across leader
    /// restarts) at which the watchdog fired.
    pub round: u32,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "model violation: {} at round {}", self.kind, self.round)
    }
}

impl std::error::Error for Violation {}

/// The typed final answer of a fault-aware counting run.
///
/// Every fault-aware runner ends in exactly one of these; with watchdogs
/// enabled a run never reports `Correct` with a wrong count — it reports
/// the violation (or stays `Undecided`) instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The leader decided; `count` is its output (the *claimed* count —
    /// equal to the true population whenever the execution stayed
    /// in-model).
    Correct {
        /// The decided count.
        count: u64,
        /// Rounds observed before deciding.
        rounds: u32,
    },
    /// The horizon elapsed without a decision or a detection.
    Undecided {
        /// Rounds observed.
        rounds: u32,
        /// The final candidate population interval, if any was feasible.
        candidates: Option<(i64, i64)>,
    },
    /// A watchdog detected a model violation and the run failed closed.
    ModelViolation {
        /// The violated assumption.
        kind: ViolationKind,
        /// The absolute round of detection.
        round: u32,
    },
}

impl Verdict {
    /// True for [`Verdict::Correct`].
    pub fn is_correct(&self) -> bool {
        matches!(self, Verdict::Correct { .. })
    }

    /// True when the run refused to output a count (`Undecided` or
    /// `ModelViolation`) — the fail-closed outcomes.
    pub fn is_fail_closed(&self) -> bool {
        !self.is_correct()
    }

    /// The decided count, if any.
    pub fn count(&self) -> Option<u64> {
        match self {
            Verdict::Correct { count, .. } => Some(*count),
            _ => None,
        }
    }

    /// A short stable label for tables (e.g. `"correct(13)"`,
    /// `"violation(connectivity@2)"`).
    pub fn label(&self) -> String {
        match self {
            Verdict::Correct { count, .. } => format!("correct({count})"),
            Verdict::Undecided { .. } => "undecided".to_string(),
            Verdict::ModelViolation { kind, round } => format!("violation({kind}@{round})"),
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Column budget for post-decision confirmation: the incremental solver
/// allocates `O(3^level)` per ingested level, so confirming all the way
/// to a large horizon is unaffordable (level 20 alone is gigabytes).
/// Past `3^10` unknowns the confirmation rounds fall back to the
/// allocation-free watchdogs ([`WatchedLeader::confirm_screen`]):
/// delivery integrity and connectivity against the frozen candidate
/// range. The budget leaves at least two full solver-backed
/// confirmation rounds after the decision for every `n` up to a few
/// thousand (decision round `⌊log₃(2n+1)⌋ + 1 ≤ 8`).
const WATCHDOG_CONFIRM_MAX_COLUMNS: usize = 59_049;

/// Whether a round-`rounds` system (`3^rounds` unknowns) fits the
/// budget, with overflow treated as past-budget (fail closed, no panic).
fn within_column_budget(rounds: usize, budget: usize) -> bool {
    u32::try_from(rounds)
        .ok()
        .and_then(|r| 3usize.checked_pow(r))
        .is_some_and(|cols| cols <= budget)
}

/// What [`WatchedLeader::ingest`] reports for a round that passed every
/// watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchedRound {
    /// The count, the moment the observations pin a unique census.
    pub decision: Option<u64>,
    /// The feasible population interval after this round.
    pub range: (i64, i64),
    /// Number of feasible censuses on the affine line.
    pub solution_count: u64,
}

/// The online counting leader of
/// [`OnlineLeader`](crate::simulate::OnlineLeader) hardened with three
/// fail-closed model watchdogs and a depth guard.
///
/// Each ingested round is screened before it can influence a decision:
///
/// 1. **Delivery integrity** — labels must be in `{1, 2}`, states must
///    be ternary histories of exactly the expected length. Trivially
///    true in-model; trips on duplicate-after-restart, post-restart
///    observations and malformed relays.
/// 2. **1-interval connectivity** — a round must deliver at least one
///    message, at least `lo` and at most `2·hi` messages where
///    `[lo, hi]` is the previous candidate range. In-model round `r`
///    delivers between `n` and `2n` messages and `n ∈ [lo, hi]`, so
///    this never fires on clean executions.
/// 3. **Census conservation** — the observation system must stay
///    feasible, the candidate range must stay within the previous one
///    and admit a population `≥ 1`. In-model, level-`r+1` census
///    entries sum to their level-`r` parents, so feasible sets are
///    nested.
/// 4. **Depth guard** — a round deeper than the `usize` ternary index
///    space fails closed as [`ViolationKind::KernelConsistency`]
///    instead of panicking.
///
/// The decision rule's premise, Lemma 2 (`dim ker M_r = 1`), is a fact
/// about `M_r` alone, which does not depend on the execution, so one
/// test pins it for every run: `incremental_general_kernel_matches_batch`
/// eliminates `M_r` exactly, from the rows of
/// [`GeneralSystem::level_rows`](crate::system_k::GeneralSystem::level_rows),
/// at every level up to `3^5` columns.
///
/// A tripped watchdog latches: every later `ingest` returns the same
/// [`Violation`], and [`WatchedLeader::restart`] (state loss) does not
/// clear it — the *process* restarted, the detection already escaped to
/// the caller.
#[derive(Debug)]
pub struct WatchedLeader {
    solver: IncrementalSolver,
    prev_range: Option<(i64, i64)>,
    absolute_round: u32,
    violation: Option<Violation>,
    decided: Option<u64>,
    // Reusable observation scratch, as in `OnlineLeader`.
    al: Vec<i64>,
    bl: Vec<i64>,
}

impl Default for WatchedLeader {
    fn default() -> Self {
        WatchedLeader::new()
    }
}

impl WatchedLeader {
    /// A fresh watched leader with no observations.
    pub fn new() -> WatchedLeader {
        WatchedLeader {
            solver: IncrementalSolver::new(),
            prev_range: None,
            absolute_round: 0,
            violation: None,
            decided: None,
            al: Vec::new(),
            bl: Vec::new(),
        }
    }

    /// Simulates a leader restart with state loss: the observation
    /// system and candidate range are wiped; the absolute round counter
    /// and any latched violation survive (they belong to the caller's
    /// timeline, not the leader's memory).
    pub fn restart(&mut self) {
        self.solver = IncrementalSolver::new();
        self.prev_range = None;
        self.decided = None;
    }

    /// The decision, if already made.
    pub fn decision(&self) -> Option<u64> {
        self.decided
    }

    /// The latched violation, if a watchdog has fired.
    pub fn violation(&self) -> Option<Violation> {
        self.violation
    }

    /// The current candidate population interval (`None` before the
    /// first round, after a violation, or when infeasible).
    pub fn candidates(&self) -> Option<(i64, i64)> {
        self.prev_range
    }

    /// Absolute rounds ingested (including rounds lost to restarts).
    pub fn rounds_ingested(&self) -> u32 {
        self.absolute_round
    }

    /// Whether the *next* [`WatchedLeader::ingest`] still fits the
    /// confirmation column budget. Once it does not, post-decision
    /// callers should switch to [`WatchedLeader::confirm_screen`]
    /// instead of growing the `O(3^level)` observation system further.
    pub fn within_confirm_budget(&self) -> bool {
        within_column_budget(self.solver.levels() + 1, WATCHDOG_CONFIRM_MAX_COLUMNS)
    }

    /// The allocation-free subset of the watchdogs, for confirmation
    /// rounds past [the column budget](WatchedLeader::within_confirm_budget):
    /// delivery integrity (labels in `{1, 2}`, states are well-formed
    /// ternary histories of length `expected_len` — the execution round
    /// index) and 1-interval connectivity against the frozen candidate
    /// range. The observation system is *not* grown.
    ///
    /// # Errors
    ///
    /// Returns the [`Violation`] the first (and every later) time a
    /// watchdog fires, exactly like [`WatchedLeader::ingest`].
    pub fn confirm_screen(
        &mut self,
        arena: &HistoryArena,
        deliveries: &RoundColumns,
        expected_len: usize,
    ) -> Result<(), Violation> {
        if let Some(v) = self.violation {
            return Err(v);
        }
        for d in deliveries.iter() {
            if arena.history_len(d.state) != expected_len
                || !arena.is_ternary(d.state)
                || !matches!(d.label, 1 | 2)
            {
                return Err(self.trip(ViolationKind::DeliveryIntegrity));
            }
        }
        let dcount = deliveries.len() as i64;
        if dcount == 0 {
            return Err(self.trip(ViolationKind::Connectivity));
        }
        if let Some((lo, hi)) = self.prev_range {
            if dcount < lo || dcount > hi.saturating_mul(2) {
                return Err(self.trip(ViolationKind::Connectivity));
            }
        }
        self.absolute_round = self.absolute_round.saturating_add(1);
        Ok(())
    }

    fn trip(&mut self, kind: ViolationKind) -> Violation {
        let v = Violation {
            kind,
            round: self.absolute_round,
        };
        self.violation = Some(v);
        self.absolute_round = self.absolute_round.saturating_add(1);
        v
    }

    /// Ingests one round of deliveries through every watchdog.
    ///
    /// # Errors
    ///
    /// Returns the [`Violation`] the first (and every later) time a
    /// watchdog fires.
    pub fn ingest(
        &mut self,
        arena: &HistoryArena,
        deliveries: &RoundColumns,
    ) -> Result<WatchedRound, Violation> {
        if let Some(v) = self.violation {
            return Err(v);
        }
        let level = self.solver.levels();
        // Fail closed if the ternary index space leaves `usize` (level
        // ≥ 40 on 64-bit): no screen can run without the index, and no
        // in-model run reaches this depth, so refusing the round as a
        // consistency trip replaces the panic it would otherwise be.
        let Some(width) = checked_ternary_count(level) else {
            return Err(self.trip(ViolationKind::KernelConsistency));
        };
        self.al.clear();
        self.al.resize(width, 0);
        self.bl.clear();
        self.bl.resize(width, 0);
        // Watchdog 1: delivery integrity.
        for d in deliveries.iter() {
            if arena.history_len(d.state) != level {
                return Err(self.trip(ViolationKind::DeliveryIntegrity));
            }
            let Some(idx) = arena.checked_ternary_index(d.state) else {
                return Err(self.trip(ViolationKind::DeliveryIntegrity));
            };
            match d.label {
                1 => self.al[idx] += 1,
                2 => self.bl[idx] += 1,
                _ => return Err(self.trip(ViolationKind::DeliveryIntegrity)),
            }
        }
        // Watchdog 2: 1-interval connectivity. In-model, round r delivers
        // between n and 2n messages (every node has 1 or 2 edges) and the
        // previous candidate range contains n.
        let dcount = deliveries.len() as i64;
        if dcount == 0 {
            return Err(self.trip(ViolationKind::Connectivity));
        }
        if let Some((lo, hi)) = self.prev_range {
            if dcount < lo || dcount > hi.saturating_mul(2) {
                return Err(self.trip(ViolationKind::Connectivity));
            }
        }
        let sol = match self.solver.push_level(&self.al, &self.bl) {
            Ok(sol) => sol,
            // Unreachable after the integrity checks; typed, not a panic.
            Err(_) => return Err(self.trip(ViolationKind::DeliveryIntegrity)),
        };
        // Watchdog 3: census conservation.
        let Some(range) = sol.population_range() else {
            return Err(self.trip(ViolationKind::CensusConservation));
        };
        if range.1 < 1 {
            return Err(self.trip(ViolationKind::CensusConservation));
        }
        if let Some((lo, hi)) = self.prev_range {
            if range.0 < lo || range.1 > hi {
                return Err(self.trip(ViolationKind::CensusConservation));
            }
        }
        self.prev_range = Some(range);
        self.absolute_round = self.absolute_round.saturating_add(1);
        let decision = sol.unique_population().map(|c| c as u64);
        if let Some(c) = decision {
            self.decided = Some(c);
        }
        Ok(WatchedRound {
            decision,
            range,
            solution_count: sol.solution_count() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::TwinBuilder;
    use crate::census::Census;
    use crate::simulate::simulate;

    #[test]
    fn empty_plan_reproduces_simulate_exactly() {
        let pair = TwinBuilder::new().build(13).unwrap();
        let clean = simulate(&pair.smaller, 6);
        let faulted = simulate_with_faults(&pair.smaller, 6, &FaultPlan::new());
        assert!(faulted.records.is_empty());
        assert_eq!(faulted.execution, clean);
        // Even the arena layout matches: the loop bodies are identical.
        assert_eq!(faulted.execution.arena.interned(), clean.arena.interned());
    }

    #[test]
    fn violations_latch() {
        let pair = TwinBuilder::new().build(5).unwrap();
        let faulted = simulate_with_faults(&pair.smaller, 4, &FaultPlan::new().disconnect(1));
        let mut leader = WatchedLeader::new();
        leader
            .ingest(&faulted.execution.arena, &faulted.execution.rounds[0])
            .unwrap();
        let v = leader
            .ingest(&faulted.execution.arena, &faulted.execution.rounds[1])
            .unwrap_err();
        assert_eq!(v.kind, ViolationKind::Connectivity);
        // Feeding good rounds afterwards still reports the latched violation.
        let v2 = leader
            .ingest(&faulted.execution.arena, &faulted.execution.rounds[2])
            .unwrap_err();
        assert_eq!(v, v2);
        assert_eq!(leader.violation(), Some(v));
    }

    #[test]
    fn seeded_plans_are_deterministic_and_cover_kinds() {
        let a = FaultPlan::seeded(42, 6, 8);
        let b = FaultPlan::seeded(42, 6, 8);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 8);
        assert!(a.events().iter().all(|e| e.round < 6));
        // Across seeds, every fault kind appears.
        let mut kinds = std::collections::HashSet::new();
        for seed in 0..40u64 {
            for e in FaultPlan::seeded(seed, 6, 4).events() {
                kinds.insert(std::mem::discriminant(&e.kind));
            }
        }
        assert_eq!(kinds.len(), 5, "seeded generator covers all fault kinds");
    }

    #[test]
    fn network_plan_projects_the_graph_level_subset() {
        let plan = FaultPlan::new()
            .drop_deliveries(0, 3, 1)
            .duplicate_deliveries(1, 2, 0)
            .crash_nodes(2, 1)
            .leader_restart(3)
            .disconnect(4);
        let net = plan.network_plan();
        assert!(!net.is_empty());
        assert_eq!(net.crashed_at(1), 0);
        assert_eq!(net.crashed_at(2), 1);
        // Duplicates and restarts do not project.
        assert_eq!(
            FaultPlan::new()
                .duplicate_deliveries(0, 2, 0)
                .leader_restart(1)
                .network_plan(),
            NetworkFaultPlan::new()
        );
    }

    #[test]
    fn fault_records_report_affected_counts() {
        let m = Census::from_counts(vec![2, 2, 0]).unwrap().realize().unwrap();
        let plan = FaultPlan::new().drop_deliveries(0, 2, 0).crash_nodes(1, 1);
        let faulted = simulate_with_faults(&m, 2, &plan);
        assert_eq!(faulted.records.len(), 2);
        assert_eq!(faulted.records[0].affected, 2, "4 deliveries, stride 2");
        assert_eq!(faulted.records[1].affected, 1, "one node crashed");
        assert_eq!(faulted.execution.rounds[0].len(), 2);
    }

    #[test]
    fn labels_compose() {
        let plan = FaultPlan::new().drop_deliveries(1, 4, 0).disconnect(1);
        assert_eq!(plan.labels_at(1).unwrap(), "drop(4+0)+disconnect");
        assert_eq!(plan.labels_at(0), None);
        assert_eq!(
            Verdict::ModelViolation {
                kind: ViolationKind::CensusConservation,
                round: 3
            }
            .label(),
            "violation(census-conservation@3)"
        );
    }
}
