//! The four workloads: what each builds in set-up and how one guarded
//! session of each runs, untraced or traced layer by layer.
//!
//! Every workload fixes one network size `n` (the Lemma 5 twin of that
//! size) and one transport. A *pass* is the workload's fixed list of
//! [`Cell`]s, each one guarded session.

use crate::layers::{CountingSink, TimedSource, Tracer};
use anonet_bench::experiments::crossover;
use anonet_core::transport::{run_source_verdict_with_sink, TransportAlgorithm};
use anonet_core::verdict::{
    degree_oracle_verdict, history_tree_verdict, kernel_verdict, simulate_with_faults, FaultKind,
    FaultPlan, GuardedHistoryTreeSession, GuardedKernelSession, Verdict,
};
use anonet_graph::check_interval_connectivity;
use anonet_graph::faults::FaultyNetwork;
use anonet_multigraph::adversary::TwinBuilder;
use anonet_multigraph::wire::{peer_rows, project_wire_plan};
use anonet_multigraph::{transform, DblMultigraph};
use anonet_net::{
    run_socketed, spawn_peer, spawn_proxy, PeerConfig, ProxySpec, SocketConfig, SocketLeader,
};
use anonet_trace::NullSink;
use std::net::TcpListener;
use std::time::Instant;

/// Round window of the degree oracle (its whole horizon, and the window
/// its guards scan); `pd2-oracle` plans place their faults inside it.
pub const ORACLE_WINDOW: u32 = 3;

/// Plan-catalogue seed used when `--plan-seed` is not given.
pub const DEFAULT_PLAN_SEED: u64 = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long clean and duplicate-fault sessions on the n=29524 twin.
    TwinDeep,
    /// Sixteen seeded fault plans on the n=3280 twin.
    FaultMix,
    /// `to_pd2` plus the guarded degree oracle on the n=1093 twin.
    Pd2Oracle,
    /// Loopback TCP through `run_socketed` on the n=4 twin.
    Socket,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::TwinDeep,
        Workload::FaultMix,
        Workload::Pd2Oracle,
        Workload::Socket,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TwinDeep => "twin-deep",
            Workload::FaultMix => "fault-mix",
            Workload::Pd2Oracle => "pd2-oracle",
            Workload::Socket => "socket",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The network size; each is a Lemma 5 size `(3^j − 1)/2`.
    pub fn n(self) -> u64 {
        match self {
            Workload::TwinDeep => 29_524,
            Workload::FaultMix => 3_280,
            Workload::Pd2Oracle => 1_093,
            Workload::Socket => 4,
        }
    }

    /// How many `FaultPlan::seeded` plans follow the clean plan.
    pub fn seeded_plans(self) -> usize {
        match self {
            Workload::TwinDeep => 0,
            Workload::FaultMix => 16,
            Workload::Pd2Oracle => 7,
            Workload::Socket => 2,
        }
    }

    /// Whether passes are paced rather than run back to back. Every
    /// socketed session leaves about five loopback connections in
    /// TIME_WAIT for a minute; run back to back, `socket` passes pile up
    /// tens of thousands of them within seconds, after which binding and
    /// connecting slow down and pass times triple. A paced run holds a
    /// fixed number of passes, so its TIME_WAIT load stays bounded.
    pub fn paced(self) -> bool {
        self == Workload::Socket
    }

    /// The algorithms each plan is run with.
    pub fn algorithms(self) -> &'static [Algorithm] {
        match self {
            Workload::Pd2Oracle => &[Algorithm::DegreeOracle],
            _ => &[Algorithm::Kernel, Algorithm::HistoryTree],
        }
    }

    /// The true count a session must report: `n`, or `n + 3` on the
    /// `G(PD)_2` transform.
    pub fn truth(self) -> u64 {
        match self {
            Workload::Pd2Oracle => self.n() + 3,
            _ => self.n(),
        }
    }
}

/// The counting algorithm of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Guarded kernel counting.
    Kernel,
    /// Guarded history-tree counting.
    HistoryTree,
    /// Guarded O(1) degree oracle on the `G(PD)_2` transform.
    DegreeOracle,
}

impl Algorithm {
    fn transport(self) -> TransportAlgorithm {
        match self {
            Algorithm::HistoryTree => TransportAlgorithm::HistoryTree,
            _ => TransportAlgorithm::Kernel,
        }
    }

    /// Span names of a session `step` before and after the decision, and
    /// the step counter (kernel and history-tree sessions).
    pub fn step_spans(self) -> StepSpans {
        match self {
            Algorithm::HistoryTree => StepSpans {
                decide: "history_tree.decide",
                confirm: "history_tree.confirm",
                steps: "history_tree.steps",
            },
            _ => StepSpans {
                decide: "kernel.decide",
                confirm: "kernel.confirm",
                steps: "kernel.steps",
            },
        }
    }

    /// Root-span name of a session, which also names its session class
    /// for the per-layer denominators.
    pub fn session_span(self, socket: bool) -> &'static str {
        match (self, socket) {
            (Algorithm::Kernel, false) => "session.kernel",
            (Algorithm::HistoryTree, false) => "session.history_tree",
            (Algorithm::DegreeOracle, _) => "session.degree_oracle",
            (Algorithm::Kernel, true) => "session.socket_kernel",
            (Algorithm::HistoryTree, true) => "session.socket_history_tree",
        }
    }
}

/// See [`Algorithm::step_spans`].
#[derive(Debug, Clone, Copy)]
pub struct StepSpans {
    /// A step before the decision.
    pub decide: &'static str,
    /// A step after the provisional decision.
    pub confirm: &'static str,
    /// The step counter.
    pub steps: &'static str,
}

/// What a session's verdict is checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// No fixed expectation: the outcome is classified against the true
    /// count only.
    Any,
    /// Exactly this verdict: the true count at the expected round for
    /// clean cells, and for every socket cell the in-memory guarded
    /// verdict of the same cell.
    Exactly(Verdict),
}

/// One guarded session of a pass.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The algorithm.
    pub alg: Algorithm,
    /// The fault plan (empty for the clean cell).
    pub plan: FaultPlan,
    /// The check the verdict must pass.
    pub expect: Expect,
}

/// Everything set-up builds before the first timed pass.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The size-`n` twin execution.
    pub m: DblMultigraph,
    /// The round budget (`horizon + 4`).
    pub budget: u32,
    /// The pass, in canonical order.
    pub cells: Vec<Cell>,
    /// Wall time of `TwinBuilder::build` in this set-up, seconds.
    pub build_s: f64,
}

/// The SplitMix64 finaliser: the benchmark's only source of derived
/// seeds and permutations.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `count` seeded plans of a catalogue: plan `i` carries `1 + i % 3`
/// faults over rounds `0..rounds`, drawn by `FaultPlan::seeded` from a
/// seed derived from `(plan_seed, i)`.
pub fn seeded_plans(plan_seed: u64, count: usize, rounds: u32) -> Vec<FaultPlan> {
    (0..count)
        .map(|i| {
            let seed = splitmix(plan_seed ^ splitmix(i as u64));
            FaultPlan::seeded(seed, rounds, 1 + (i % 3) as u32)
        })
        .collect()
}

/// Which of the five fault kinds (`drop`, `dup`, `crash`, `restart`,
/// `disconnect`) `plans` contain.
pub fn kinds_covered(plans: &[FaultPlan]) -> [bool; 5] {
    let mut seen = [false; 5];
    for e in plans.iter().flat_map(FaultPlan::events) {
        let kind = match e.kind {
            FaultKind::DropDeliveries { .. } => 0,
            FaultKind::DuplicateDeliveries { .. } => 1,
            FaultKind::CrashNodes { .. } => 2,
            FaultKind::LeaderRestart => 3,
            FaultKind::Disconnect => 4,
        };
        seen[kind] = true;
    }
    seen
}

/// Builds a workload's inputs: the twin, the plans and the expected
/// verdicts (for `socket`, the in-memory guarded verdict of every cell).
pub fn setup(workload: Workload, plan_seed: u64) -> Result<Inputs, String> {
    let n = workload.n();
    let started = Instant::now();
    let pair = TwinBuilder::new()
        .build(n)
        .map_err(|e| format!("twin n={n}: {e}"))?;
    let build_s = started.elapsed().as_secs_f64();
    let (m, horizon) = (pair.smaller, pair.horizon);
    let budget = horizon + 4;

    let mut plans = vec![FaultPlan::new()];
    if workload == Workload::TwinDeep {
        plans.push(crossover::fault_plan(horizon));
    }
    let plan_rounds = match workload {
        Workload::Pd2Oracle => ORACLE_WINDOW,
        _ => budget,
    };
    let seeded = seeded_plans(plan_seed, workload.seeded_plans(), plan_rounds);
    if workload == Workload::FaultMix && kinds_covered(&seeded) != [true; 5] {
        return Err(format!(
            "plan seed {plan_seed} does not cover all five fault kinds; choose another"
        ));
    }
    plans.extend(seeded);

    // A clean session decides the true count at the Lemma 5 bound
    // `horizon + 2`, or at the end of the oracle's window.
    let clean = Verdict::Correct {
        count: workload.truth(),
        rounds: match workload {
            Workload::Pd2Oracle => ORACLE_WINDOW,
            _ => horizon + 2,
        },
    };
    let mut cells = Vec::new();
    for plan in plans {
        for &alg in workload.algorithms() {
            let expect = match (workload, alg) {
                (Workload::Socket, Algorithm::Kernel) => {
                    Expect::Exactly(kernel_verdict(&m, budget, &plan, true))
                }
                (Workload::Socket, _) => {
                    Expect::Exactly(history_tree_verdict(&m, budget, &plan, true))
                }
                _ if plan.is_empty() => Expect::Exactly(clean),
                _ => Expect::Any,
            };
            cells.push(Cell {
                alg,
                plan: plan.clone(),
                expect,
            });
        }
    }
    Ok(Inputs {
        workload,
        m,
        budget,
        cells,
        build_s,
    })
}

impl Inputs {
    fn is_socket(&self) -> bool {
        self.workload == Workload::Socket
    }

    /// Runs one guarded session through the public entry points, with
    /// tracing off. `Err` means the run itself failed.
    pub fn run(&self, cell: &Cell) -> Result<Verdict, String> {
        let (m, budget, plan) = (&self.m, self.budget, &cell.plan);
        if self.is_socket() {
            return run_socketed(
                cell.alg.transport(),
                m,
                budget,
                plan,
                &SocketConfig::default(),
            )
            .map(|report| report.verdict)
            .map_err(|e| e.to_string());
        }
        Ok(match cell.alg {
            Algorithm::Kernel => kernel_verdict(m, budget, plan, true),
            Algorithm::HistoryTree => history_tree_verdict(m, budget, plan, true),
            Algorithm::DegreeOracle => {
                let net = transform::to_pd2(m, budget as usize).map_err(|e| e.to_string())?;
                degree_oracle_verdict(net, plan, true)
            }
        })
    }

    /// Runs the same session split into layers: every layer is a call to
    /// the public function the untraced runner makes, wrapped in a span.
    pub fn run_traced(&self, cell: &Cell, tracer: &mut Tracer) -> Result<Verdict, String> {
        let root = tracer.open(cell.alg.session_span(self.is_socket()), None);
        let verdict = if self.is_socket() {
            self.socket_traced(cell, tracer, root)
        } else if cell.alg == Algorithm::DegreeOracle {
            self.oracle_traced(cell, tracer, root)
        } else {
            Ok(self.multigraph_traced(cell, tracer, root))
        };
        tracer.close(root);
        verdict
    }

    fn multigraph_traced(&self, cell: &Cell, tracer: &mut Tracer, root: usize) -> Verdict {
        let (budget, plan) = (self.budget, &cell.plan);
        let span = tracer.open("faults.simulate", Some(root));
        let faulted = simulate_with_faults(&self.m, budget as usize, plan);
        tracer.close(span);
        let execution = &faulted.execution;
        let deliveries: usize = execution.rounds.iter().map(|r| r.len()).sum();
        tracer.count("faults.deliveries", deliveries as u64);
        tracer.count("history.interned", execution.arena.interned() as u64);
        tracer.count("faults.rounds_simulated", execution.rounds.len() as u64);

        // The loop of the guarded runners in `anonet_core::verdict`,
        // with each `step` in a span named by the session's phase.
        macro_rules! drive {
            ($session:expr) => {{
                let names = cell.alg.step_spans();
                let mut session = $session;
                let mut terminal = None;
                for round in &execution.rounds {
                    let name = if session.decision().is_none() {
                        names.decide
                    } else {
                        names.confirm
                    };
                    let span = tracer.open(name, Some(root));
                    let stepped = session.step(&execution.arena, round, plan, &mut NullSink);
                    tracer.close(span);
                    tracer.count(names.steps, 1);
                    if stepped.is_some() {
                        terminal = stepped;
                        break;
                    }
                }
                tracer.count("faults.rounds_used", u64::from(session.rounds_seen()));
                terminal.unwrap_or_else(|| session.finish(budget, &mut NullSink))
            }};
        }
        match cell.alg {
            Algorithm::Kernel => drive!(GuardedKernelSession::new()),
            _ => drive!(GuardedHistoryTreeSession::new()),
        }
    }

    fn oracle_traced(
        &self,
        cell: &Cell,
        tracer: &mut Tracer,
        root: usize,
    ) -> Result<Verdict, String> {
        let span = tracer.open("transform.to_pd2", Some(root));
        let net = transform::to_pd2(&self.m, self.budget as usize);
        tracer.close(span);
        let net = net.map_err(|e| e.to_string())?;

        let span = tracer.open("graph.connectivity", Some(root));
        let mut probe = FaultyNetwork::new(net.clone(), cell.plan.network_plan());
        std::hint::black_box(check_interval_connectivity(&mut probe, ORACLE_WINDOW));
        tracer.close(span);

        let span = tracer.open("oracle.run", Some(root));
        std::hint::black_box(degree_oracle_verdict(net.clone(), &cell.plan, false));
        tracer.close(span);

        let span = tracer.open("oracle.guarded", Some(root));
        let verdict = degree_oracle_verdict(net, &cell.plan, true);
        tracer.close(span);
        Ok(verdict)
    }

    /// `run_socketed` taken apart into its public pieces, so the
    /// accept, barrier and reap phases can be timed from outside.
    fn socket_traced(
        &self,
        cell: &Cell,
        tracer: &mut Tracer,
        root: usize,
    ) -> Result<Verdict, String> {
        let (m, rounds, plan) = (&self.m, self.budget, &cell.plan);
        let timing = SocketConfig::default().timing;
        let accept = tracer.open("net.accept", Some(root));
        let wire = project_wire_plan(m, rounds, plan);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let leader_addr = listener.local_addr().map_err(|e| e.to_string())?;
        let mut proxies = Vec::new();
        let mut peers = Vec::new();
        for i in 0..m.nodes() as u32 {
            let overrides = wire.peer_overrides(i);
            let dial = if overrides.is_empty() {
                leader_addr
            } else {
                let proxy = spawn_proxy(
                    leader_addr,
                    ProxySpec {
                        peer: i,
                        overrides,
                        delay: std::time::Duration::ZERO,
                        timing,
                    },
                )
                .map_err(|e| e.to_string())?;
                let addr = proxy.addr;
                proxies.push(proxy);
                addr
            };
            peers.push(spawn_peer(
                dial,
                PeerConfig {
                    peer: i,
                    rows: peer_rows(m, i as usize, rounds),
                    crash_at: wire.crash_round[i as usize],
                    hang_at: None,
                    timing,
                },
            ));
        }
        tracer.count("net.threads", (peers.len() + proxies.len()) as u64);
        let leader = SocketLeader::accept_peers(listener, m.nodes(), rounds, timing);
        tracer.close(accept);
        let mut leader = match leader {
            Ok(leader) => leader,
            Err(e) => {
                drop(proxies);
                for peer in peers {
                    let _ = peer.join();
                }
                return Err(e.to_string());
            }
        };

        let mut sink = CountingSink::default();
        let mut source = TimedSource::new(&mut leader, sink.recorded());
        let verdict = run_source_verdict_with_sink(
            cell.alg.transport(),
            &mut source,
            rounds,
            plan,
            &mut sink,
        );
        source.finish(tracer, root, cell.alg.step_spans());

        let reap = tracer.open("net.reap", Some(root));
        let stats = leader.stats().clone();
        leader.shutdown_now();
        let mut retransmits = 0u64;
        for peer in peers {
            let peer_stats = peer
                .join()
                .map_err(|_| "peer thread panicked".to_string())?;
            retransmits += u64::from(peer_stats.retransmits);
        }
        let mut rewritten = 0;
        for proxy in proxies {
            rewritten += proxy.rewritten_frames();
            proxy.shutdown();
        }
        tracer.close(reap);
        tracer.count("net.retransmits", retransmits);
        tracer.count("net.duplicates_dropped", stats.duplicates_dropped);
        tracer.count("net.timeouts", stats.timed_out.len() as u64);
        tracer.count("net.crashed", stats.crashed.len() as u64);
        tracer.count("net.rewritten_frames", rewritten);
        Ok(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{classify, Outcome};

    #[test]
    fn same_seed_same_plans_covering_every_kind() {
        let plans = seeded_plans(DEFAULT_PLAN_SEED, 16, 11);
        assert_eq!(plans, seeded_plans(DEFAULT_PLAN_SEED, 16, 11));
        assert_ne!(plans, seeded_plans(DEFAULT_PLAN_SEED + 1, 16, 11));
        assert_eq!(kinds_covered(&plans), [true; 5]);
        for (i, plan) in plans.iter().enumerate() {
            assert_eq!(plan.events().len(), 1 + i % 3);
        }
    }

    #[test]
    fn passes_have_the_documented_shape() {
        for (workload, sessions) in [
            (Workload::FaultMix, 34),
            (Workload::Pd2Oracle, 8),
            (Workload::Socket, 6),
        ] {
            let inputs = setup(workload, DEFAULT_PLAN_SEED).unwrap();
            assert_eq!(inputs.cells.len(), sessions, "{}", workload.name());
            assert!(inputs.cells[0].plan.is_empty());
            assert!(inputs
                .cells
                .iter()
                .all(|c| c.expect != Expect::Any || !c.plan.is_empty()));
        }
        assert_eq!(setup(Workload::Socket, 0).unwrap().budget, 5);
    }

    #[test]
    fn socket_split_reproduces_run_socketed_on_every_cell() {
        let inputs = setup(Workload::Socket, DEFAULT_PLAN_SEED).unwrap();
        let mut tracer = Tracer::default();
        for cell in &inputs.cells {
            let plain = inputs.run(cell);
            let split = inputs.run_traced(cell, &mut tracer);
            assert_eq!(plain, split, "{:?}", cell.plan);
            let outcome = classify(&split, &cell.expect, None, inputs.workload.truth());
            assert_ne!(outcome, Outcome::Mismatch, "{:?}", cell.plan);
            assert_ne!(outcome, Outcome::Error, "{:?}", cell.plan);
        }
    }
}
