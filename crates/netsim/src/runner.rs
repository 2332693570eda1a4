//! The synchronous round simulator.
//!
//! [`Simulator`] drives a population of [`Process`]es over the graphs
//! produced by a [`DynamicNetwork`] adversary: each round it collects every
//! node's broadcast, queries the adversary for `G_r`, and delivers each
//! message to the sender's round-`r` neighbours. Process 0 is the leader.

use crate::process::{Process, RecvContext, SendContext};
use anonet_graph::DynamicNetwork;
use anonet_trace::{NullSink, RoundEvent, TraceSink};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
/// Per-round execution statistics collected by [`Simulator::run_with_sink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// The absolute round index.
    pub round: u32,
    /// Messages delivered in this round (sum of inbox sizes).
    pub deliveries: u64,
    /// The largest inbox of the round (the maximum degree, since every
    /// node broadcasts exactly one message).
    pub max_inbox: usize,
    /// The leader's inbox size (its degree this round).
    pub leader_inbox: usize,
}

/// The outcome of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Number of rounds executed by this `run` call.
    pub rounds: u32,
    /// The leader's output and the absolute round at which it first
    /// appeared, if it decided within the horizon.
    pub leader_output: Option<(u64, u32)>,
    /// Total number of point-to-point message deliveries.
    pub deliveries: u64,
}

impl RunReport {
    /// The leader's decision value, if any.
    pub fn output(&self) -> Option<u64> {
        self.leader_output.map(|(v, _)| v)
    }

    /// The round at which the leader decided, if it did.
    pub fn decision_round(&self) -> Option<u32> {
        self.leader_output.map(|(_, r)| r)
    }
}

/// A synchronous simulator over a dynamic network.
///
/// # Examples
///
/// Flood a token through a static star from the leader:
///
/// ```
/// use anonet_graph::{Graph, GraphSequence};
/// use anonet_netsim::protocols::FloodingProcess;
/// use anonet_netsim::Simulator;
///
/// let net = GraphSequence::constant(Graph::star(5)?);
/// let mut sim = Simulator::new(net);
/// let mut procs = FloodingProcess::population(5);
/// sim.run(&mut procs, 10);
/// assert!(procs.iter().all(FloodingProcess::is_informed));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Simulator<N> {
    net: N,
    degree_oracle: bool,
    shuffle_seed: Option<u64>,
    next_round: u32,
}

impl<N: DynamicNetwork> Simulator<N> {
    /// Creates a simulator over the given adversary/network.
    pub fn new(net: N) -> Simulator<N> {
        Simulator {
            net,
            degree_oracle: false,
            shuffle_seed: None,
            next_round: 0,
        }
    }

    /// Enables the local degree detector oracle of \[13\]: processes learn
    /// `|N(v, r)|` already in the send phase (see the paper's Discussion).
    pub fn with_degree_oracle(mut self) -> Simulator<N> {
        self.degree_oracle = true;
        self
    }

    /// Shuffles every inbox with a deterministic RNG before delivery,
    /// enforcing that protocols cannot extract information from message
    /// order (anonymity hygiene).
    pub fn shuffle_inboxes(mut self, seed: u64) -> Simulator<N> {
        self.shuffle_seed = Some(seed);
        self
    }

    /// The underlying network.
    pub fn network(&self) -> &N {
        &self.net
    }

    /// The round the next call to [`Simulator::run`] will execute first.
    /// Starts at 0 and advances with every executed round, so repeated
    /// `run` calls *continue* the same execution (e.g. `run(procs, 1)` in
    /// a loop steps round by round).
    pub fn next_round(&self) -> u32 {
        self.next_round
    }

    /// Runs the protocol for at most `max_rounds` further rounds, stopping
    /// early as soon as the leader (process 0) produces an output.
    ///
    /// # Panics
    ///
    /// Panics if `procs.len()` differs from the network's order.
    pub fn run<P: Process>(&mut self, procs: &mut [P], max_rounds: u32) -> RunReport {
        self.run_with_sink(procs, max_rounds, &mut NullSink).0
    }

    /// Like [`Simulator::run`], additionally recording per-round
    /// statistics (delivery counts, inbox sizes) and emitting one
    /// [`RoundEvent`] per executed round to `sink` (with the absolute
    /// round index, the delivery count, the maximum inbox size, the
    /// leader's inbox size, and the round's live `connections` — the
    /// edge count of that round's graph, the same facet the socketed
    /// runtime uses for its barrier's live-connection count). The sink
    /// is flushed before returning, so a
    /// [`JsonlSink`](anonet_trace::JsonlSink) stream is complete when
    /// this call returns.
    ///
    /// # Examples
    ///
    /// ```
    /// use anonet_graph::{Graph, GraphSequence};
    /// use anonet_netsim::protocols::FloodingProcess;
    /// use anonet_netsim::Simulator;
    /// use anonet_trace::MemorySink;
    ///
    /// let net = GraphSequence::constant(Graph::star(5)?);
    /// let mut sim = Simulator::new(net);
    /// let mut procs = FloodingProcess::population(5);
    /// let mut sink = MemorySink::new();
    /// let (report, _) = sim.run_with_sink(&mut procs, 10, &mut sink);
    /// assert_eq!(sink.events().len() as u32, report.rounds);
    /// // Each event mirrors the RoundStats of the same round, plus the
    /// // round's live edge count in the `connections` facet.
    /// assert_eq!(sink.events()[0].deliveries, Some(8));
    /// assert_eq!(sink.events()[0].connections, Some(4));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `procs.len()` differs from the network's order.
    pub fn run_with_sink<P: Process, S: TraceSink>(
        &mut self,
        procs: &mut [P],
        max_rounds: u32,
        sink: &mut S,
    ) -> (RunReport, Vec<RoundStats>) {
        let n = self.net.order();
        assert_eq!(
            procs.len(),
            n,
            "need exactly one process per node ({} != {n})",
            procs.len()
        );
        let mut rng = self
            .shuffle_seed
            .map(|s| StdRng::seed_from_u64(s.wrapping_add(self.next_round as u64)));
        let mut deliveries = 0u64;

        let mut stats = Vec::new();

        if let Some(out) = procs[0].output() {
            sink.flush();
            return (
                RunReport {
                    rounds: 0,
                    leader_output: Some((out, self.next_round)),
                    deliveries,
                },
                stats,
            );
        }

        let first = self.next_round;
        // Send/inbox buffers are reused across rounds and nodes — the
        // round loop allocates only when a round outgrows every earlier
        // one.
        let mut msgs: Vec<P::Msg> = Vec::new();
        let mut inbox: Vec<P::Msg> = Vec::new();
        for round in first..first.saturating_add(max_rounds) {
            self.next_round = round + 1;
            let graph = self.net.graph(round);
            debug_assert_eq!(graph.order(), n, "adversary changed the node set");

            // Send phase: every process broadcasts one message.
            msgs.clear();
            msgs.extend(procs.iter_mut().enumerate().map(|(v, p)| {
                let ctx = SendContext {
                    round,
                    degree: self.degree_oracle.then(|| graph.degree(v) as u32),
                };
                p.send(&ctx)
            }));

            // Receive phase: deliver neighbours' messages.
            let mut round_deliveries = 0u64;
            let mut max_inbox = 0usize;
            for (v, p) in procs.iter_mut().enumerate() {
                inbox.clear();
                inbox.extend(graph.neighbors(v).iter().map(|&u| msgs[u].clone()));
                if let Some(rng) = rng.as_mut() {
                    inbox.shuffle(rng);
                }
                deliveries += inbox.len() as u64;
                round_deliveries += inbox.len() as u64;
                max_inbox = max_inbox.max(inbox.len());
                p.receive(RecvContext {
                    round,
                    inbox: &inbox,
                });
            }
            stats.push(RoundStats {
                round,
                deliveries: round_deliveries,
                max_inbox,
                leader_inbox: graph.degree(0),
            });
            sink.record(
                &RoundEvent::new(round)
                    .deliveries(round_deliveries)
                    .max_inbox(max_inbox as u64)
                    .leader_inbox(graph.degree(0) as u64)
                    .connections(graph.size() as u64),
            );

            if let Some(out) = procs[0].output() {
                sink.flush();
                return (
                    RunReport {
                        rounds: round + 1 - first,
                        leader_output: Some((out, round)),
                        deliveries,
                    },
                    stats,
                );
            }
        }

        sink.flush();
        (
            RunReport {
                rounds: max_rounds,
                leader_output: None,
                deliveries,
            },
            stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Process, RecvContext, Role, SendContext};
    use anonet_graph::{Graph, GraphSequence};

    /// Leader counts distinct rounds in which it heard >= 1 message; decides
    /// after 3 rounds. Exercises the run loop end-to-end.
    #[derive(Clone)]
    struct RoundCounter {
        role: Role,
        heard: u64,
        rounds_done: u32,
    }

    impl RoundCounter {
        fn population(n: usize) -> Vec<RoundCounter> {
            (0..n)
                .map(|i| RoundCounter {
                    role: if i == 0 {
                        Role::Leader
                    } else {
                        Role::Anonymous
                    },
                    heard: 0,
                    rounds_done: 0,
                })
                .collect()
        }
    }

    impl Process for RoundCounter {
        type Msg = u8;

        fn send(&mut self, _ctx: &SendContext) -> u8 {
            1
        }

        fn receive(&mut self, ctx: RecvContext<'_, u8>) {
            self.heard += ctx.inbox.len() as u64;
            self.rounds_done = ctx.round + 1;
        }

        fn output(&self) -> Option<u64> {
            (self.role == Role::Leader && self.rounds_done >= 3).then_some(self.heard)
        }
    }

    #[test]
    fn run_executes_rounds_and_counts_deliveries() {
        let net = GraphSequence::constant(Graph::star(4).unwrap());
        let mut sim = Simulator::new(net);
        let mut procs = RoundCounter::population(4);
        let report = sim.run(&mut procs, 10);
        // Leader decides in the receive phase of round 2 (3rd round).
        assert_eq!(report.decision_round(), Some(2));
        assert_eq!(report.rounds, 3);
        // Star with 3 leaves: 6 deliveries per round, 3 rounds.
        assert_eq!(report.deliveries, 18);
        // Leader heard 3 messages per round.
        assert_eq!(report.output(), Some(9));
    }

    #[test]
    fn run_with_sink_collects_round_stats() {
        let net = GraphSequence::constant(Graph::star(4).unwrap());
        let mut sim = Simulator::new(net);
        let mut procs = RoundCounter::population(4);
        let (report, stats) = sim.run_with_sink(&mut procs, 10, &mut NullSink);
        assert_eq!(report.rounds, 3);
        assert_eq!(stats.len(), 3);
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(s.round, i as u32);
            assert_eq!(s.deliveries, 6, "star(4): 3 + 3 x 1 deliveries");
            assert_eq!(s.max_inbox, 3, "the hub's inbox");
            assert_eq!(s.leader_inbox, 3, "leader is the hub");
        }
    }

    #[test]
    fn horizon_exhaustion() {
        let net = GraphSequence::constant(Graph::star(4).unwrap());
        let mut sim = Simulator::new(net);
        let mut procs = RoundCounter::population(4);
        let report = sim.run(&mut procs, 2);
        assert_eq!(report.leader_output, None);
        assert_eq!(report.rounds, 2);
    }

    #[test]
    #[should_panic(expected = "one process per node")]
    fn population_size_checked() {
        let net = GraphSequence::constant(Graph::star(4).unwrap());
        let mut sim = Simulator::new(net);
        let mut procs = RoundCounter::population(3);
        sim.run(&mut procs, 1);
    }

    /// A process that records whether it ever saw a degree hint.
    struct DegreeProbe {
        saw_degree: Option<u32>,
        done: bool,
    }

    impl Process for DegreeProbe {
        type Msg = ();

        fn send(&mut self, ctx: &SendContext) {
            if ctx.degree.is_some() {
                self.saw_degree = ctx.degree;
            }
        }

        fn receive(&mut self, _ctx: RecvContext<'_, ()>) {
            self.done = true;
        }

        fn output(&self) -> Option<u64> {
            self.done
                .then(|| self.saw_degree.map_or(u64::MAX, u64::from))
        }
    }

    #[test]
    fn degree_oracle_toggle() {
        let mk = || {
            vec![
                DegreeProbe {
                    saw_degree: None,
                    done: false,
                },
                DegreeProbe {
                    saw_degree: None,
                    done: false,
                },
            ]
        };
        let net = GraphSequence::constant(Graph::from_edges(2, [(0, 1)]).unwrap());

        let mut plain = Simulator::new(net.clone());
        let mut procs = mk();
        assert_eq!(plain.run(&mut procs, 4).output(), Some(u64::MAX));

        let mut oracle = Simulator::new(net).with_degree_oracle();
        let mut procs = mk();
        assert_eq!(oracle.run(&mut procs, 4).output(), Some(1));
    }

    #[test]
    fn shuffled_inboxes_are_deterministic_per_seed() {
        #[derive(Clone)]
        struct Tagger {
            id: u64,
            log: Vec<u64>,
        }
        impl Process for Tagger {
            type Msg = u64;
            fn send(&mut self, _ctx: &SendContext) -> u64 {
                self.id
            }
            fn receive(&mut self, ctx: RecvContext<'_, u64>) {
                self.log.extend_from_slice(ctx.inbox);
            }
        }
        let run = |seed: u64| {
            let net = GraphSequence::constant(Graph::complete(5));
            let mut sim = Simulator::new(net).shuffle_inboxes(seed);
            let mut procs: Vec<Tagger> = (0..5)
                .map(|id| Tagger {
                    id,
                    log: Vec::new(),
                })
                .collect();
            sim.run(&mut procs, 3);
            procs[0].log.clone()
        };
        assert_eq!(run(1), run(1));
        // Contents are the same multiset regardless of seed.
        let mut a = run(1);
        let mut b = run(2);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
