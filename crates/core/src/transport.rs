//! Verdict runners over a **transport trait**: the guarded counting
//! session of [`verdict`](crate::verdict) driven by rounds that arrive
//! from anywhere — an in-memory execution, or a leader ingesting framed
//! deliveries over real TCP (`anonet-net`).
//!
//! The split of responsibilities:
//!
//! * a [`RoundSource`] produces the leader's observations: one
//!   [`RoundColumns`] per synchronous round, with every delivered
//!   history interned in the source's [`HistoryArena`];
//! * [`GuardedSession::drive`](crate::verdict::GuardedSession::drive)
//!   is the one loop that feeds them to a guarded session and reduces
//!   the run to a [`Verdict`]; [`run_source_verdict`] only picks the
//!   session ([`GuardedKernelSession`] / [`GuardedHistoryTreeSession`]);
//! * transport failure is **fail-closed**: a [`TransportError`] (round
//!   deadline missed, connection lost, protocol breach) converts the
//!   run to [`Verdict::Undecided`] — never a count the remaining rounds
//!   were not there to confirm.
//!
//! Two in-memory sources implement the trait:
//!
//! * [`FaultedRounds`] — the fault-injected simulator as a round-local
//!   stepper. The in-memory runners
//!   ([`kernel_verdict`](crate::verdict::kernel_verdict),
//!   [`history_tree_verdict`](crate::verdict::history_tree_verdict),
//!   [`general_k_verdict`](crate::verdict::general_k_verdict), both
//!   arms) pull their rounds from it, so round `r` is simulated only
//!   when the session asks for it and a session that stops early never
//!   pays for the rounds it did not read. A socketed run and its
//!   in-memory oracle share the session loop itself, which is what lets
//!   `exp_net` byte-compare their verdicts.
//! * [`ExecutionSource`] — the adapter for an execution that is already
//!   stored (a recorded or hand-built [`Execution`], or a
//!   [`FaultedExecution`] from
//!   [`simulate_with_faults`](crate::verdict::simulate_with_faults)).
//!   Tests use it as the eager oracle the lazy stepper is compared
//!   against.

use crate::verdict::{FaultPlan, GuardedHistoryTreeSession, GuardedKernelSession, Verdict};
use anonet_multigraph::faults::{FaultedExecution, FaultedRounds};
use anonet_multigraph::simulate::Execution;
use anonet_multigraph::{HistoryArena, RoundColumns};
use anonet_trace::{NullSink, TraceSink};
use std::fmt;

/// Why a [`RoundSource`] could not produce the next round.
///
/// Every variant is fail-closed fuel: [`run_source_verdict`] maps each
/// of them to [`Verdict::Undecided`], never to a count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The round's deadline budget elapsed before every live peer
    /// reported (a hung peer — distinct from a *severed* peer, which
    /// still completes the barrier with zero deliveries).
    Timeout {
        /// The round whose barrier timed out.
        round: u32,
    },
    /// The transport shut down before the requested horizon (e.g. the
    /// leader's listener closed underneath the run).
    Closed {
        /// The first round that could not be served.
        round: u32,
    },
    /// A peer broke the wire protocol (bad frame, bad version, a
    /// history that does not extend its predecessor).
    Protocol {
        /// The round being assembled when the breach was detected.
        round: u32,
        /// Human-readable description of the breach.
        detail: String,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Timeout { round } => {
                write!(f, "round {round} deadline elapsed")
            }
            TransportError::Closed { round } => {
                write!(f, "transport closed before round {round}")
            }
            TransportError::Protocol { round, detail } => {
                write!(f, "protocol breach at round {round}: {detail}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// A synchronous stream of leader observations: one canonical
/// [`RoundColumns`] per round, over a shared [`HistoryArena`].
///
/// `Ok(None)` means the stream ended cleanly (the configured horizon);
/// `Err` means it failed and the run must fail closed. Implementations
/// must intern delivered histories into [`arena`](RoundSource::arena)
/// *before* returning the round that references them.
pub trait RoundSource {
    /// The arena resolving every [`HistoryId`](anonet_multigraph::HistoryId)
    /// in rounds returned so far.
    fn arena(&self) -> &HistoryArena;

    /// Produces the next round's deliveries, or `None` at end of
    /// stream.
    fn next_round(&mut self) -> Result<Option<RoundColumns>, TransportError>;
}

/// The algorithm a [`run_source_verdict`] call drives over the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportAlgorithm {
    /// Kernel counting under a [`GuardedKernelSession`].
    Kernel,
    /// History-tree counting under a [`GuardedHistoryTreeSession`].
    HistoryTree,
}

impl TransportAlgorithm {
    /// Stable name used in cell ids and logs.
    pub fn name(self) -> &'static str {
        match self {
            TransportAlgorithm::Kernel => "kernel",
            TransportAlgorithm::HistoryTree => "history-tree",
        }
    }
}

/// Drives `alg`'s guarded session over `source` for up to `max_rounds`
/// rounds and reduces the run to a [`Verdict`].
///
/// `plan` carries the *leader-side* fault schedule (restart rounds and
/// fault facets for tracing) — delivery faults are already inside the
/// rounds the source yields, exactly as in
/// [`kernel_verdict`](crate::verdict::kernel_verdict). Transport
/// failure at any point yields [`Verdict::Undecided`] (fail-closed),
/// even when a provisional decision was pending confirmation.
pub fn run_source_verdict<T: RoundSource>(
    alg: TransportAlgorithm,
    source: &mut T,
    max_rounds: u32,
    plan: &FaultPlan,
) -> Verdict {
    run_source_verdict_with_sink(alg, source, max_rounds, plan, &mut NullSink)
}

/// [`run_source_verdict`] with tracing: emits the same per-round
/// [`RoundEvent`](anonet_trace::RoundEvent)s as the in-memory guarded
/// runners.
pub fn run_source_verdict_with_sink<T: RoundSource, S: TraceSink>(
    alg: TransportAlgorithm,
    source: &mut T,
    max_rounds: u32,
    plan: &FaultPlan,
    sink: &mut S,
) -> Verdict {
    match alg {
        TransportAlgorithm::Kernel => {
            GuardedKernelSession::new().drive(source, max_rounds, plan, sink)
        }
        TransportAlgorithm::HistoryTree => {
            GuardedHistoryTreeSession::new().drive(source, max_rounds, plan, sink)
        }
    }
}

/// The fault-injected simulator as a [`RoundSource`]: each round is
/// simulated on demand, and the stream ends after the stepper's round
/// budget. Never fails.
impl RoundSource for FaultedRounds<'_> {
    fn arena(&self) -> &HistoryArena {
        FaultedRounds::arena(self)
    }

    fn next_round(&mut self) -> Result<Option<RoundColumns>, TransportError> {
        Ok(FaultedRounds::next_round(self))
    }
}

/// [`RoundSource`] over a stored execution: yields each round in order,
/// moving it out of the execution, then `Ok(None)`. The adapter for
/// recorded executions, and the eager oracle that the lazy
/// [`FaultedRounds`] path and the socketed leader are tested against.
#[derive(Debug, Clone)]
pub struct ExecutionSource {
    execution: Execution,
    next: usize,
}

impl ExecutionSource {
    /// Wraps a (clean or perturbed) execution.
    pub fn new(execution: Execution) -> ExecutionSource {
        ExecutionSource { execution, next: 0 }
    }

    /// Wraps the execution of a faulted run.
    pub fn from_faulted(faulted: FaultedExecution) -> ExecutionSource {
        ExecutionSource::new(faulted.execution)
    }
}

impl RoundSource for ExecutionSource {
    fn arena(&self) -> &HistoryArena {
        &self.execution.arena
    }

    fn next_round(&mut self) -> Result<Option<RoundColumns>, TransportError> {
        let round = self.execution.rounds.get_mut(self.next).map(std::mem::take);
        self.next += 1;
        Ok(round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verdict::{
        history_tree_verdict, kernel_verdict, simulate_with_faults, ViolationKind,
    };
    use anonet_multigraph::adversary::TwinBuilder;

    fn source_for(n: u64, horizon: u32, plan: &FaultPlan) -> ExecutionSource {
        let pair = TwinBuilder::new().build(n).unwrap();
        ExecutionSource::from_faulted(simulate_with_faults(
            &pair.smaller,
            horizon as usize,
            plan,
        ))
    }

    fn ok(count: u64, rounds: u32) -> Verdict {
        Verdict::Correct { count, rounds }
    }

    fn violation(kind: ViolationKind, round: u32) -> Verdict {
        Verdict::ModelViolation { kind, round }
    }

    #[test]
    fn guarded_verdicts_match_the_golden_table() {
        use ViolationKind::{
            CensusConservation as Census, Connectivity, DeliveryIntegrity as Integrity,
        };
        let plans = [
            FaultPlan::new(),
            FaultPlan::new().drop_deliveries(1, 4, 0),
            FaultPlan::new().duplicate_deliveries(2, 3, 1),
            FaultPlan::new().disconnect(2),
            FaultPlan::new().crash_nodes(1, 2),
            FaultPlan::new().leader_restart(2),
        ];
        // Literal (kernel, history-tree) verdicts per plan over
        // `horizon + 4` rounds. The history-tree rows include its known
        // weaknesses (the crash escapes, the clean n=13 false alarm), so a
        // change to any guarded screen shows up here.
        let golden: [(u64, [(Verdict, Verdict); 6]); 2] = [
            (
                4,
                [
                    (ok(4, 3), ok(4, 3)),
                    (violation(Census, 2), ok(4, 3)),
                    (violation(Census, 2), ok(4, 3)),
                    (violation(Connectivity, 2), violation(Connectivity, 2)),
                    (violation(Census, 1), ok(6, 2)),
                    (violation(Integrity, 2), violation(Integrity, 2)),
                ],
            ),
            (
                13,
                [
                    (ok(13, 4), violation(Census, 3)),
                    (violation(Census, 1), violation(Census, 3)),
                    (violation(Census, 2), violation(Census, 3)),
                    (violation(Connectivity, 2), violation(Connectivity, 2)),
                    (violation(Census, 2), ok(15, 3)),
                    (violation(Integrity, 2), violation(Integrity, 2)),
                ],
            ),
        ];
        for (n, rows) in golden {
            let pair = TwinBuilder::new().build(n).unwrap();
            let horizon = pair.horizon + 4;
            for (plan, (kernel, tree)) in plans.iter().zip(rows) {
                let mut src = source_for(n, horizon, plan);
                let v = run_source_verdict(TransportAlgorithm::Kernel, &mut src, horizon, plan);
                assert_eq!(v, kernel, "kernel source n={n} plan={plan:?}");
                let v = kernel_verdict(&pair.smaller, horizon, plan, true);
                assert_eq!(v, kernel, "kernel n={n} plan={plan:?}");
                let mut src = source_for(n, horizon, plan);
                let v =
                    run_source_verdict(TransportAlgorithm::HistoryTree, &mut src, horizon, plan);
                assert_eq!(v, tree, "history-tree source n={n} plan={plan:?}");
                let v = history_tree_verdict(&pair.smaller, horizon, plan, true);
                assert_eq!(v, tree, "history-tree n={n} plan={plan:?}");
            }
        }
    }

    /// A source that serves `good` rounds from an execution, then fails.
    struct FlakySource {
        inner: ExecutionSource,
        good: usize,
        served: usize,
        error: TransportError,
    }

    impl RoundSource for FlakySource {
        fn arena(&self) -> &HistoryArena {
            self.inner.arena()
        }

        fn next_round(&mut self) -> Result<Option<RoundColumns>, TransportError> {
            if self.served == self.good {
                return Err(self.error.clone());
            }
            self.served += 1;
            self.inner.next_round()
        }
    }

    #[test]
    fn transport_failure_is_never_a_count() {
        // Even after the leader has provisionally decided (n=4 decides
        // by round 3), a transport failure during confirmation must
        // yield Undecided — the fail-closed contract of the issue.
        for good in 0..6usize {
            for error in [
                TransportError::Timeout { round: good as u32 },
                TransportError::Closed { round: good as u32 },
                TransportError::Protocol {
                    round: good as u32,
                    detail: "truncated frame".to_string(),
                },
            ] {
                let mut src = FlakySource {
                    inner: source_for(4, 8, &FaultPlan::new()),
                    good,
                    served: 0,
                    error,
                };
                let v = run_source_verdict(TransportAlgorithm::Kernel, &mut src, 8, &FaultPlan::new());
                assert!(
                    matches!(v, Verdict::Undecided { .. }),
                    "good={good}: {v}"
                );
            }
        }
    }

    #[test]
    fn violations_fire_identically_through_the_source() {
        let plan = FaultPlan::new().duplicate_deliveries(1, 3, 0);
        let mut src = source_for(13, 8, &plan);
        let v = run_source_verdict(TransportAlgorithm::Kernel, &mut src, 8, &plan);
        assert!(
            matches!(v, Verdict::ModelViolation { .. }),
            "duplicates must fail closed: {v}"
        );
        let plan = FaultPlan::new().disconnect(2);
        let mut src = source_for(9, 8, &plan);
        assert_eq!(
            run_source_verdict(TransportAlgorithm::HistoryTree, &mut src, 8, &plan),
            Verdict::ModelViolation {
                kind: ViolationKind::Connectivity,
                round: 2
            }
        );
    }

    #[test]
    fn transport_error_messages_name_the_round() {
        assert_eq!(
            TransportError::Timeout { round: 3 }.to_string(),
            "round 3 deadline elapsed"
        );
        assert_eq!(
            TransportError::Closed { round: 0 }.to_string(),
            "transport closed before round 0"
        );
        assert_eq!(
            TransportError::Protocol {
                round: 2,
                detail: "bad magic".to_string()
            }
            .to_string(),
            "protocol breach at round 2: bad magic"
        );
    }
}
