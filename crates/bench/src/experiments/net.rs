//! E24: the socketed peer runtime cross-validated against the
//! in-memory oracle.
//!
//! The `anonet-net` crate re-runs the guarded counting sessions over
//! real loopback TCP — peers as threads with sockets, fault plans
//! projected onto wire behaviour by proxies. These experiments are the
//! CI face of that subsystem: every cell *asserts* its contract
//! in-process (a violated contract panics the cell and `run_and_emit`
//! exits non-zero) and tabulates what happened for `EXPERIMENTS.md`.
//!
//! * [`net_cross_validation`] — named fault-plan families × both
//!   algorithms over ≥ 8 loopback peers; the socketed verdict must
//!   equal the simulator's exactly, and frames must really be rewritten
//!   on the wire where the plan demands it.
//! * [`net_watchdog`] — out-of-model wire failures (a peer that hangs
//!   with its socket open, a roster that never assembles): each must
//!   surface as the *typed* error the runtime promises, inside its
//!   deadline budget, with a fail-closed verdict — never a wedge, never
//!   a count.
//! * [`net_e22_replay`] — the archived E22a silent-wrong schedules
//!   replayed at the socket layer: the plans that once fooled an
//!   unguarded in-memory leader must not extract a wrong count from the
//!   socketed runtime either.

use anonet_core::experiment::Table;
use anonet_core::transport::TransportAlgorithm;
use anonet_core::verdict::{FaultPlan, Verdict};
use anonet_multigraph::adversary::TwinBuilder;
use anonet_multigraph::corpus::ArchivedSchedule;
use anonet_net::{cross_validate, run_socketed, NetError, SocketConfig, Timing};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A compact, stable label for a verdict (used in table rows).
fn verdict_label(v: &Verdict) -> String {
    match v {
        Verdict::Correct { count, rounds } => format!("correct(count={count}, r={rounds})"),
        Verdict::Undecided { rounds, .. } => format!("undecided(r={rounds})"),
        Verdict::ModelViolation { kind, round } => {
            format!("violation({kind:?}, r={round})")
        }
    }
}

/// The named fault-plan families every socketed cross-validation runs.
fn plan_families() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("clean", FaultPlan::new()),
        ("drop", FaultPlan::new().drop_deliveries(1, 4, 0)),
        ("duplicate", FaultPlan::new().duplicate_deliveries(2, 3, 1)),
        ("disconnect", FaultPlan::new().disconnect(2)),
        ("crash", FaultPlan::new().crash_nodes(1, 2)),
        ("restart", FaultPlan::new().leader_restart(2)),
        (
            "stacked",
            FaultPlan::new()
                .drop_deliveries(1, 3, 1)
                .crash_nodes(2, 1)
                .leader_restart(3),
        ),
    ]
}

/// E24a: socketed verdict vs in-memory oracle across fault-plan
/// families and both algorithms, over ≥ 8 loopback peers.
///
/// Asserts in-process that every socketed verdict equals the oracle's
/// and that faulted families actually rewrite frames on the wire.
pub fn net_cross_validation(quick: bool) -> Table {
    let mut t = Table::new(
        "E24a (net: cross-validation)",
        "socketed runtime vs in-memory oracle across fault-plan families",
        &[
            "family",
            "algorithm",
            "n",
            "socketed verdict",
            "oracle verdict",
            "match",
            "retransmits",
            "rewritten frames",
            "churn events",
        ],
    );
    let sizes: &[u64] = if quick { &[8] } else { &[8, 13] };
    for &n in sizes {
        let pair = TwinBuilder::new().build(n).expect("twins build");
        let horizon = pair.horizon + 4;
        for (family, plan) in plan_families() {
            for alg in [TransportAlgorithm::Kernel, TransportAlgorithm::HistoryTree] {
                let cv = cross_validate(alg, &pair.smaller, horizon, &plan, &SocketConfig::default())
                    .unwrap_or_else(|e| panic!("{family}/{}/n={n}: {e}", alg.name()));
                assert!(
                    cv.verdicts_match(),
                    "CROSS-VALIDATION VIOLATION: {family}/{}/n={n}: socketed {:?} != oracle {:?}",
                    alg.name(),
                    cv.report.verdict,
                    cv.oracle
                );
                // The zero-silent-wrong guarantee is the kernel's: its
                // watchdogs are documented to catch every wrong count,
                // while the history-tree screens can slip crash-class
                // faults (see `history_tree_verdict`). The socketed
                // contract asserted above — verdict equals the oracle's
                // — holds for both.
                if alg == TransportAlgorithm::Kernel {
                    if let Verdict::Correct { count, .. } = cv.report.verdict {
                        assert_eq!(
                            count,
                            n,
                            "SAFETY VIOLATION: {family}/kernel/n={n}: socketed wrong count"
                        );
                    }
                }
                if family == "drop" || family == "duplicate" {
                    assert!(
                        cv.report.rewritten_frames > 0,
                        "{family}/{}/n={n}: the plan was not projected onto the wire",
                        alg.name()
                    );
                }
                let retransmits: u32 = cv.report.peers.iter().map(|p| p.retransmits).sum();
                t.push_row(vec![
                    family.to_string(),
                    alg.name().to_string(),
                    n.to_string(),
                    verdict_label(&cv.report.verdict),
                    verdict_label(&cv.oracle),
                    "yes".to_string(), // asserted above
                    retransmits.to_string(),
                    cv.report.rewritten_frames.to_string(),
                    cv.report.leader.crashed.len().to_string(),
                ]);
            }
        }
    }
    t
}

/// E24b: out-of-model wire failures surface as typed errors with
/// fail-closed verdicts, inside the deadline budget.
pub fn net_watchdog(_quick: bool) -> Table {
    let mut t = Table::new(
        "E24b (net: watchdog)",
        "out-of-model wire failures: typed errors, fail-closed verdicts, bounded time",
        &["scenario", "verdict", "typed error", "within budget"],
    );
    let pair = TwinBuilder::new().build(8).expect("twins build");
    let horizon = pair.horizon + 4;

    // A peer that hangs mid-run with its socket open: the barrier must
    // time out typed and the session must fail closed, well inside the
    // hang budget plus one round deadline.
    let hang_cfg = SocketConfig {
        hang_peer: Some((2, 1)),
        ..SocketConfig::default()
    };
    let started = Instant::now();
    let report = run_socketed(
        TransportAlgorithm::Kernel,
        &pair.smaller,
        horizon,
        &FaultPlan::new(),
        &hang_cfg,
    )
    .expect("a hung peer degrades the run, it does not abort it");
    let elapsed = started.elapsed();
    assert!(
        matches!(report.verdict, Verdict::Undecided { .. }),
        "a hung peer must fail closed, got {:?}",
        report.verdict
    );
    let err = report.net_error.expect("the timeout is typed and reported");
    assert!(
        err.contains("barrier timed out"),
        "expected a RoundTimeout, got: {err}"
    );
    // Generous bound: the hang itself plus a handful of round deadlines
    // and the retry budget — far below "wedged", far above jitter.
    let fast = Timing::fast();
    let budget = fast.hang_for + fast.accept_deadline + fast.round_deadline * 10;
    assert!(
        elapsed < budget,
        "timeout took {elapsed:?}, budget {budget:?} — the watchdog is not bounding the run"
    );
    t.push_row(vec![
        "hung peer (socket open, silent)".to_string(),
        verdict_label(&report.verdict),
        err,
        // The verdict, not the measured time: the table stays
        // byte-comparable between runs.
        format!("yes (< {}ms)", budget.as_millis()),
    ]);

    // A roster that never assembles: a typed accept timeout, not a hang.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let started = Instant::now();
    let err = match anonet_net::SocketLeader::accept_peers(listener, 3, horizon, Timing::fast()) {
        Ok(_) => panic!("an empty roster must not assemble"),
        Err(e) => e,
    };
    let elapsed = started.elapsed();
    assert!(
        matches!(err, NetError::AcceptTimeout { expected: 3, got: 0 }),
        "expected a typed AcceptTimeout, got: {err}"
    );
    // The accept deadline plus the same slack as above.
    let accept_budget = fast.accept_deadline + fast.round_deadline * 10;
    assert!(
        elapsed < accept_budget,
        "accept timeout took {elapsed:?}, budget {accept_budget:?}"
    );
    t.push_row(vec![
        "missing peers (no one dials)".to_string(),
        "no run".to_string(),
        err.to_string(),
        format!("yes (< {}ms)", accept_budget.as_millis()),
    ]);
    t
}

/// The archived E22a silent-wrong schedules committed to the workspace
/// corpus.
fn silent_wrong_corpus() -> Vec<(PathBuf, ArchivedSchedule)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("the workspace corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("e22a-silent-wrong") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "the E22a representatives are committed");
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

/// E24c: the E22a silent-wrong corpus replayed at the socket layer.
///
/// Asserts in-process that no archived plan extracts a wrong count from
/// the socketed runtime and that every socketed verdict equals the
/// guarded oracle's.
pub fn net_e22_replay(quick: bool) -> Table {
    let mut t = Table::new(
        "E24c (net: E22a replay)",
        "archived silent-wrong schedules replayed over loopback TCP",
        &["schedule", "n", "socketed verdict", "oracle verdict", "match"],
    );
    let corpus = silent_wrong_corpus();
    let take = if quick { 2.min(corpus.len()) } else { corpus.len() };
    for (path, entry) in corpus.into_iter().take(take) {
        assert_eq!(entry.algorithm, "kernel", "{}", path.display());
        let m = entry.schedule.multigraph().expect("archived rounds are valid");
        let n = entry.schedule.nodes() as u64;
        let cv = cross_validate(
            TransportAlgorithm::Kernel,
            &m,
            entry.schedule.horizon(),
            entry.schedule.plan(),
            &SocketConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            cv.verdicts_match(),
            "{}: socketed {:?} != oracle {:?}",
            path.display(),
            cv.report.verdict,
            cv.oracle
        );
        if let Verdict::Correct { count, .. } = cv.report.verdict {
            assert_eq!(
                count,
                n,
                "SAFETY VIOLATION: {}: the socketed runtime reproduced a silent-wrong count",
                path.display()
            );
        }
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("?")
            .to_string();
        t.push_row(vec![
            name,
            n.to_string(),
            verdict_label(&cv.report.verdict),
            verdict_label(&cv.oracle),
            "yes".to_string(), // asserted above
        ]);
    }
    t
}
