//! The tracing layer agrees with the untraced APIs on fixed-seed runs:
//! sinks observe exactly the statistics that `run_with_sink`'s
//! `RoundStats`/`RunReport` return, and JSONL round-trips losslessly.

use anonet::core::algorithms::{run_degree_oracle, GeneralKCounting, KernelCounting};
use anonet::core::bounds;
use anonet::graph::generators::RandomDynamic;
use anonet::multigraph::adversary::{RandomDblAdversary, TwinBuilder};
use anonet::multigraph::transform;
use anonet::netsim::protocols::FloodingProcess;
use anonet::netsim::trace::{JsonlSink, MemorySink, NullSink, RoundEvent, TraceSink};
use anonet::netsim::Simulator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixed_seed_sim() -> Simulator<RandomDynamic<StdRng>> {
    Simulator::new(RandomDynamic::new(12, 6, StdRng::seed_from_u64(42)))
}

#[test]
fn memory_sink_matches_run_traced_stats() {
    // Two identical fixed-seed simulations: one traced via RoundStats,
    // one via a MemorySink. Every per-round statistic must agree.
    let mut procs = FloodingProcess::population(12);
    let (report, stats) = fixed_seed_sim().run_with_sink(&mut procs, 8, &mut NullSink);

    let mut procs = FloodingProcess::population(12);
    let mut sink = MemorySink::new();
    let (report2, _) = fixed_seed_sim().run_with_sink(&mut procs, 8, &mut sink);

    assert_eq!(report, report2, "sink must not perturb the run");
    assert_eq!(sink.events().len(), stats.len());
    for (ev, st) in sink.events().iter().zip(&stats) {
        assert_eq!(ev.round, st.round);
        assert_eq!(ev.deliveries, Some(st.deliveries));
        assert_eq!(ev.max_inbox, Some(st.max_inbox as u64));
        assert_eq!(ev.leader_inbox, Some(st.leader_inbox as u64));
    }
    let total: u64 = sink.events().iter().filter_map(|e| e.deliveries).sum();
    assert_eq!(total, report.deliveries, "per-round deliveries sum to the report total");
}

#[test]
fn jsonl_trace_replays_to_the_same_events() {
    let mut procs = FloodingProcess::population(12);
    let mut jsonl = JsonlSink::new(Vec::new());
    let (report, stats) = fixed_seed_sim().run_with_sink(&mut procs, 8, &mut jsonl);
    let bytes = jsonl.finish().expect("writing to a Vec cannot fail");
    let text = String::from_utf8(bytes).expect("JSONL is UTF-8");

    let replayed = MemorySink::replay_jsonl(&text).expect("trace parses");
    assert_eq!(replayed.events().len(), stats.len());
    for (ev, st) in replayed.events().iter().zip(&stats) {
        assert_eq!(ev.deliveries, Some(st.deliveries));
        assert_eq!(ev.leader_inbox, Some(st.leader_inbox as u64));
    }
    let total: u64 = replayed.events().iter().filter_map(|e| e.deliveries).sum();
    assert_eq!(total, report.deliveries, "JSONL trace accounts for every delivery");
}

#[test]
fn kernel_counting_sink_mirrors_counting_trace() {
    let pair = TwinBuilder::new().build(25).unwrap();
    let mut sink = MemorySink::new();
    let (outcome, trace) = KernelCounting::new()
        .run_with_sink(&pair.smaller, 32, &mut sink)
        .unwrap();
    assert_eq!(sink.events().len() as u32, outcome.rounds);
    assert_eq!(sink.events().len(), trace.candidate_ranges.len());
    for (ev, &(lo, hi)) in sink.events().iter().zip(&trace.candidate_ranges) {
        assert_eq!(ev.candidate_lo, Some(lo));
        assert_eq!(ev.candidate_hi, Some(hi));
        assert_eq!(ev.kernel_dim, Some(1), "k = 2 kernels are lines (Lemma 3)");
    }
    let last = sink.events().last().unwrap();
    assert_eq!(last.candidate_lo, Some(outcome.count as i64));
    assert_eq!(last.candidate_hi, Some(outcome.count as i64));
}

#[test]
fn all_counting_oracles_agree_on_seeded_instances() {
    // 50 seeded random G(DBL)_2 instances. Every terminating rule must
    // report the same population, and the traced run must be identical
    // to the untraced one.
    for seed in 0..50u64 {
        let n = 1 + seed % 12;
        let budget = bounds::counting_rounds_lower_bound(n) + 2;
        let m = RandomDblAdversary::new(StdRng::seed_from_u64(seed))
            .generate(n, budget as usize)
            .unwrap();

        let untraced = KernelCounting::new()
            .run(&m, budget)
            .unwrap_or_else(|e| panic!("seed={seed} n={n}: {e}"));
        assert_eq!(untraced.count, n, "seed={seed}");

        let mut sink = MemorySink::new();
        let (traced, _) = KernelCounting::new()
            .run_with_sink(&m, budget, &mut sink)
            .unwrap();
        assert_eq!(traced, untraced, "seed={seed}: tracing perturbed the run");
        assert_eq!(sink.events().len() as u32, traced.rounds, "seed={seed}");

        // The exhaustive general-k rule (k = 2 instance of it) agrees,
        // never deciding later than the interval rule.
        if n <= 6 {
            let general = GeneralKCounting::new(5_000_000).run(&m, budget).unwrap();
            assert_eq!(general.count, n, "seed={seed}");
            assert!(general.rounds <= untraced.rounds, "seed={seed}");
        }

        // The PD2-side oracle counts the Lemma 1 image, |V| = n + 3.
        let net = transform::to_pd2(&m, budget as usize).unwrap();
        let oracle = run_degree_oracle(net).unwrap();
        assert_eq!(oracle.count, n + 3, "seed={seed}");
    }
}

#[test]
fn custom_sinks_compose_with_the_simulator() {
    // A user-written sink: counts events, proving the trait is open.
    struct Counter(u32);
    impl TraceSink for Counter {
        fn record(&mut self, _event: &RoundEvent) {
            self.0 += 1;
        }
    }
    let mut procs = FloodingProcess::population(12);
    let mut counter = Counter(0);
    let (report, _) = fixed_seed_sim().run_with_sink(&mut procs, 8, &mut counter);
    assert_eq!(counter.0, report.rounds);
}
