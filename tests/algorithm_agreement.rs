//! Cross-algorithm agreement: the history-tree counter against the
//! kernel solver.
//!
//! Two independently-derived exact algorithms for `M(DBL)_2` counting
//! must never contradict each other: whenever both decide on the same
//! execution, they decide the same count, and a guarded run of either
//! must never report a wrong count. This suite pins that over the
//! committed worst-case corpus (`tests/corpus/*.json` — every schedule
//! the adversary search ever archived, including the E22a silent-wrong
//! plans crafted against the kernel) and over a 50-seed random-adversary
//! grid, and re-checks that tracing and thread count never perturb the
//! history-tree decision.

use anonet_core::algorithms::{CountingError, HistoryTreeCounting, KernelCounting};
use anonet_core::bounds;
use anonet_core::verdict::{schedule_verdict, SearchAlgorithm, Verdict};
use anonet_multigraph::adversary::RandomDblAdversary;
use anonet_multigraph::corpus::ArchivedSchedule;
use anonet_multigraph::DblMultigraph;
use anonet_netsim::trace::MemorySink;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

fn corpus() -> Vec<(PathBuf, ArchivedSchedule)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable corpus file");
            let entry = ArchivedSchedule::parse(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (path, entry)
        })
        .collect()
}

/// Every corpus schedule — including the adversarial champions found
/// against *other* algorithms — replays through the history-tree oracle
/// and agrees with a live kernel run under the same watchdog setting
/// whenever both decide; the guarded kernel never reports a wrong
/// count; and the guarded history-tree runner reports a wrong count
/// *only* on executions the full observation system also finds uniquely
/// feasible at the wrong size — i.e. only where the unguarded optimal
/// kernel is fooled into exactly the same count. (That boundary is the
/// documented cost of the cheap algorithm: its `O(1)`-per-round spine
/// statistics cannot retain everything the `3^r`-column system can; the
/// E22a crash plans sit precisely on it.)
#[test]
fn history_tree_agrees_with_kernel_on_every_corpus_schedule() {
    let corpus = corpus();
    assert!(corpus.len() >= 13, "the committed corpus shrank");
    let mut ht_escapes = 0usize;
    for (path, entry) in corpus {
        let n = entry.schedule.nodes() as u64;
        let kernel_unguarded = schedule_verdict(SearchAlgorithm::Kernel, &entry.schedule, false);
        for watchdogs in [false, true] {
            let ht = schedule_verdict(SearchAlgorithm::HistoryTree, &entry.schedule, watchdogs);
            let kernel = schedule_verdict(SearchAlgorithm::Kernel, &entry.schedule, watchdogs);
            if watchdogs {
                // The guarded kernel's watchdogs are complete over this
                // corpus: never a wrong count.
                if let Verdict::Correct { count, .. } = &kernel {
                    assert_eq!(
                        *count,
                        n,
                        "{}: guarded kernel run reported a wrong count",
                        path.display()
                    );
                }
                // The guarded history-tree runner may only be fooled
                // where the unguarded *optimal* solver is fooled
                // identically — anything else is a watchdog regression.
                if let Verdict::Correct { count, .. } = &ht {
                    if *count != n {
                        ht_escapes += 1;
                        assert_eq!(
                            kernel_unguarded,
                            Verdict::Correct {
                                count: *count,
                                rounds: match kernel_unguarded {
                                    Verdict::Correct { rounds, .. } => rounds,
                                    _ => 0,
                                },
                            },
                            "{}: guarded history-tree reported {count} on a schedule \
                             the full observation system does not resolve to {count}",
                            path.display()
                        );
                    }
                }
            }
            // Whenever both decide (guarded or not), they agree.
            if let (Verdict::Correct { count: a, .. }, Verdict::Correct { count: b, .. }) =
                (&ht, &kernel)
            {
                assert_eq!(
                    a,
                    b,
                    "{}: history-tree and kernel decided different counts (watchdogs={watchdogs})",
                    path.display()
                );
            }
        }
    }
    // The two E22a crash plans sit on the information-theoretic
    // boundary; if a future guard learns to catch them this count drops
    // and the doc comment above should be updated alongside it.
    assert!(
        ht_escapes <= 2,
        "{ht_escapes} guarded history-tree escapes — the watchdogs regressed"
    );
}

fn random_instance(seed: u64) -> (u64, u32, DblMultigraph) {
    let n = 2 + seed % 39; // 2..=40
    let budget = bounds::counting_rounds_lower_bound(n) + 4;
    let m = RandomDblAdversary::new(StdRng::seed_from_u64(seed))
        .generate(n, budget as usize)
        .expect("random instance");
    (n, budget, m)
}

/// A 50-seed fair-adversary grid: whenever the history-tree algorithm
/// decides it reports exactly `n` (matching the kernel, which always
/// decides in-budget on these easy instances), and the overwhelming
/// majority of seeds decide — random dynamics kill the spine fast.
#[test]
fn fifty_seed_random_grid_agreement() {
    let mut decided = 0usize;
    for seed in 0..50u64 {
        let (n, budget, m) = random_instance(seed);
        let kernel = KernelCounting::new()
            .run(&m, budget)
            .unwrap_or_else(|e| panic!("seed {seed}: kernel failed: {e}"));
        assert_eq!(kernel.count, n, "seed {seed}: kernel miscounted");
        match HistoryTreeCounting::new().run(&m, budget) {
            Ok(out) => {
                assert_eq!(out.count, n, "seed {seed}: history-tree miscounted");
                assert_eq!(
                    out.count, kernel.count,
                    "seed {seed}: exact algorithms disagree"
                );
                // The kernel is round-optimal: the history-tree rule can
                // tie it but never beat it on an in-model execution.
                assert!(
                    out.rounds >= kernel.rounds,
                    "seed {seed}: history-tree decided before the optimal kernel"
                );
                decided += 1;
            }
            // A spine that survives the whole budget (some node drew
            // {1,2} every round) is a legitimate non-decision; anything
            // else is a bug.
            Err(CountingError::Undecided { .. }) => {}
            Err(e) => panic!("seed {seed}: history-tree failed: {e}"),
        }
    }
    assert!(
        decided >= 45,
        "only {decided}/50 random seeds decided — the spine-death rule regressed"
    );
}

/// Tracing is an observer: `run_with_sink` returns the same outcome as
/// `run`.
#[test]
fn tracing_never_perturbs_the_history_tree() {
    for seed in [3u64, 17, 29] {
        let (_, budget, m) = random_instance(seed);
        let plain = HistoryTreeCounting::new().run(&m, budget);
        let mut sink = MemorySink::new();
        let traced = HistoryTreeCounting::new().run_with_sink(&m, budget, &mut sink);
        match (&plain, &traced) {
            (Ok(a), Ok((b, _))) => assert_eq!(a, b, "seed {seed}: traced outcome diverged"),
            (Err(a), Err(b)) => {
                assert_eq!(format!("{a}"), format!("{b}"), "seed {seed}: errors diverged")
            }
            _ => panic!("seed {seed}: run and run_with_sink disagree on success"),
        }
    }
}
