//! The traced run: spans and event counts recorded from outside the
//! program, and their reduction to the per-layer metrics.
//!
//! A span records a name, start, end, parent and session id; a count
//! records a name, session id and value at the same boundaries. Both
//! stay in memory until the run ends and are then written as JSON lines.

use crate::workload::StepSpans;
use anonet_core::transport::{RoundSource, TransportError};
use anonet_multigraph::{HistoryArena, RoundColumns};
use anonet_net::SocketLeader;
use anonet_trace::{RoundEvent, TraceSink};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One timed interval of a traced session.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `kernel.decide`.
    pub name: &'static str,
    /// The session it belongs to (1-based, in run order).
    pub session: u64,
    /// Index of the enclosing span; `None` for a session's root.
    pub parent: Option<usize>,
    /// Offset of the start from the tracer's origin.
    pub start: Duration,
    /// Offset of the end from the tracer's origin.
    pub end: Duration,
}

/// One event count of a traced session.
#[derive(Debug, Clone)]
pub struct Count {
    /// Counter name, e.g. `net.retransmits`.
    pub name: &'static str,
    /// The session it belongs to.
    pub session: u64,
    /// The count.
    pub value: u64,
}

/// In-memory span and count recorder.
pub struct Tracer {
    origin: Instant,
    session: u64,
    spans: Vec<Span>,
    counts: Vec<Count>,
}

/// Where a pass's records start, from [`Tracer::mark`].
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    spans: usize,
    counts: usize,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            session: 0,
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span now. A span without a parent is a session root and
    /// starts a new session id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Closes a span opened by [`Tracer::open`] now.
    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.origin.elapsed();
    }

    /// Records a span whose bounds were taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if parent.is_none() {
            self.session += 1;
        }
        self.spans.push(Span {
            name,
            session: self.session,
            parent,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        self.spans.len() - 1
    }

    /// Adds `value` to counter `name` of the current session.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counts.push(Count {
            name,
            session: self.session,
            value,
        });
    }

    /// The current end of the records, to total a pass from.
    pub fn mark(&self) -> Mark {
        Mark {
            spans: self.spans.len(),
            counts: self.counts.len(),
        }
    }

    /// Totals of every span name (seconds) and counter since `from`,
    /// with the number of sessions per root-span name.
    pub fn totals_since(&self, from: Mark) -> PassTotals {
        let mut totals = PassTotals::default();
        for span in &self.spans[from.spans..] {
            let secs = span.end.saturating_sub(span.start).as_secs_f64();
            *totals.seconds.entry(span.name).or_default() += secs;
            if span.parent.is_none() {
                *totals.sessions.entry(span.name).or_default() += 1;
            }
        }
        for count in &self.counts[from.counts..] {
            *totals.counts.entry(count.name).or_default() += count.value;
        }
        totals
    }

    /// Every record as JSON lines, spans first (times in microseconds).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"kind":"span","name":"{}","session":{},"parent":{},"start_us":{:.3},"end_us":{:.3}}}"#,
                s.name,
                s.session,
                parent,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            );
        }
        for c in &self.counts {
            let _ = writeln!(
                out,
                r#"{{"kind":"count","name":"{}","session":{},"value":{}}}"#,
                c.name, c.session, c.value
            );
        }
        out
    }
}

/// One traced pass reduced to totals.
#[derive(Debug, Default)]
pub struct PassTotals {
    seconds: HashMap<&'static str, f64>,
    counts: HashMap<&'static str, u64>,
    sessions: HashMap<&'static str, u64>,
}

/// The sessions a per-layer metric is averaged over.
#[derive(Debug, Clone, Copy)]
enum Per {
    /// In-memory kernel and history-tree sessions (they simulate).
    Simulated,
    /// Kernel sessions, in memory or over sockets.
    Kernel,
    /// History-tree sessions, in memory or over sockets.
    HistoryTree,
    /// Degree-oracle sessions.
    Oracle,
    /// Socketed sessions.
    Socket,
}

impl Per {
    fn roots(self) -> &'static [&'static str] {
        match self {
            Per::Simulated => &["session.kernel", "session.history_tree"],
            Per::Kernel => &["session.kernel", "session.socket_kernel"],
            Per::HistoryTree => &["session.history_tree", "session.socket_history_tree"],
            Per::Oracle => &["session.degree_oracle"],
            Per::Socket => &["session.socket_kernel", "session.socket_history_tree"],
        }
    }
}

/// How a per-layer metric is read off a pass.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// `TwinBuilder::build` in set-up (not a pass quantity).
    Build,
    /// Milliseconds in spans of this name, per session.
    Span(&'static str, Per),
    /// Milliseconds in the first span name minus the second, per session.
    SpanDiff(&'static str, &'static str, Per),
    /// Counter total per session.
    Count(&'static str, Per),
    /// One counter total over another.
    Ratio(&'static str, &'static str),
    /// `1 − traced/untraced sessions per CPU second` (not a pass quantity).
    Overhead,
}

/// A per-layer metric: name, unit, source.
pub struct LayerMetric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    source: Source,
}

const fn metric(name: &'static str, unit: &'static str, source: Source) -> LayerMetric {
    LayerMetric { name, unit, source }
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub const LAYER_METRICS: [LayerMetric; 24] = [
    metric("adversary.build_ms", "ms", Source::Build),
    metric(
        "faults.simulate_ms",
        "ms",
        Source::Span("faults.simulate", Per::Simulated),
    ),
    metric(
        "faults.deliveries",
        "count",
        Source::Count("faults.deliveries", Per::Simulated),
    ),
    metric(
        "history.interned",
        "count",
        Source::Count("history.interned", Per::Simulated),
    ),
    metric(
        "faults.rounds_used_share",
        "share",
        Source::Ratio("faults.rounds_used", "faults.rounds_simulated"),
    ),
    metric(
        "kernel.decide_ms",
        "ms",
        Source::Span("kernel.decide", Per::Kernel),
    ),
    metric(
        "kernel.confirm_ms",
        "ms",
        Source::Span("kernel.confirm", Per::Kernel),
    ),
    metric(
        "kernel.steps",
        "count",
        Source::Count("kernel.steps", Per::Kernel),
    ),
    metric(
        "history_tree.decide_ms",
        "ms",
        Source::Span("history_tree.decide", Per::HistoryTree),
    ),
    metric(
        "history_tree.confirm_ms",
        "ms",
        Source::Span("history_tree.confirm", Per::HistoryTree),
    ),
    metric(
        "transform.to_pd2_ms",
        "ms",
        Source::Span("transform.to_pd2", Per::Oracle),
    ),
    metric(
        "graph.connectivity_ms",
        "ms",
        Source::Span("graph.connectivity", Per::Oracle),
    ),
    metric(
        "oracle.guard_ms",
        "ms",
        Source::SpanDiff("oracle.guarded", "oracle.run", Per::Oracle),
    ),
    metric(
        "oracle.run_ms",
        "ms",
        Source::Span("oracle.run", Per::Oracle),
    ),
    metric(
        "net.accept_ms",
        "ms",
        Source::Span("net.accept", Per::Socket),
    ),
    metric(
        "net.barrier_ms",
        "ms",
        Source::Span("net.barrier", Per::Socket),
    ),
    metric("net.reap_ms", "ms", Source::Span("net.reap", Per::Socket)),
    metric(
        "net.retransmits",
        "count",
        Source::Count("net.retransmits", Per::Socket),
    ),
    metric(
        "net.duplicates_dropped",
        "count",
        Source::Count("net.duplicates_dropped", Per::Socket),
    ),
    metric(
        "net.timeouts",
        "count",
        Source::Count("net.timeouts", Per::Socket),
    ),
    metric(
        "net.crashed",
        "count",
        Source::Count("net.crashed", Per::Socket),
    ),
    metric(
        "net.rewritten_frames",
        "count",
        Source::Count("net.rewritten_frames", Per::Socket),
    ),
    metric(
        "net.threads",
        "count",
        Source::Count("net.threads", Per::Socket),
    ),
    metric("trace.overhead_share", "share", Source::Overhead),
];

impl PassTotals {
    fn sessions(&self, per: Per) -> u64 {
        per.roots()
            .iter()
            .map(|r| self.sessions.get(r).copied().unwrap_or(0))
            .sum()
    }

    fn seconds(&self, name: &str) -> f64 {
        self.seconds.get(name).copied().unwrap_or(0.0)
    }

    fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// The value of `m` on this pass; `None` for metrics that are not
    /// pass quantities. A layer that does not run on the workload reads 0.
    fn value(&self, m: &LayerMetric) -> Option<f64> {
        let per_session = |total: f64, per: Per| match self.sessions(per) {
            0 => 0.0,
            s => total / s as f64,
        };
        Some(match m.source {
            Source::Build | Source::Overhead => return None,
            Source::Span(name, per) => per_session(self.seconds(name) * 1e3, per),
            Source::SpanDiff(a, b, per) => {
                per_session((self.seconds(a) - self.seconds(b)) * 1e3, per)
            }
            Source::Count(name, per) => per_session(self.count(name) as f64, per),
            Source::Ratio(num, den) => match self.count(den) {
                0 => 0.0,
                d => self.count(num) as f64 / d as f64,
            },
        })
    }
}

/// The per-layer metrics of a traced run: the median over traced passes
/// of each pass quantity, plus the set-up build time and the overhead.
pub fn layer_values(
    passes: &[PassTotals],
    build_ms: f64,
    overhead: f64,
) -> Vec<(&'static LayerMetric, f64)> {
    LAYER_METRICS
        .iter()
        .map(|m| {
            let value = match m.source {
                Source::Build => build_ms,
                Source::Overhead => overhead,
                _ => {
                    let mut values: Vec<f64> = passes.iter().filter_map(|p| p.value(m)).collect();
                    crate::measure::median(&mut values)
                }
            };
            (m, value)
        })
        .collect()
}

/// A [`TraceSink`] that only counts recorded events, shared with the
/// [`TimedSource`] so each session step can be classified: the guarded
/// sessions emit one event per round up to the decision and fall silent
/// while confirming.
#[derive(Default)]
pub struct CountingSink {
    recorded: Rc<Cell<u64>>,
}

impl CountingSink {
    /// A handle on the running event count.
    pub fn recorded(&self) -> Rc<Cell<u64>> {
        Rc::clone(&self.recorded)
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, _event: &RoundEvent) {
        self.recorded.set(self.recorded.get() + 1);
    }
}

/// One `next_round` call on the socket barrier.
struct Barrier {
    start: Instant,
    end: Instant,
    events_before: u64,
    delivered: bool,
}

/// A timing [`RoundSource`] around [`SocketLeader`]: time inside
/// `next_round` is the round barrier; time between a delivered round and
/// the next call is the session's `step` on that round.
pub struct TimedSource<'a> {
    leader: &'a mut SocketLeader,
    recorded: Rc<Cell<u64>>,
    barriers: Vec<Barrier>,
}

impl<'a> TimedSource<'a> {
    /// Wraps `leader`; `recorded` is the session sink's event count.
    pub fn new(leader: &'a mut SocketLeader, recorded: Rc<Cell<u64>>) -> TimedSource<'a> {
        TimedSource {
            leader,
            recorded,
            barriers: Vec::new(),
        }
    }

    /// Records the barrier and step spans under `root` once the session
    /// has returned. A step that emitted an event ran before the
    /// decision; a silent one confirmed it.
    pub fn finish(self, tracer: &mut Tracer, root: usize, names: StepSpans) {
        let end = Instant::now();
        let events_end = self.recorded.get();
        for (i, b) in self.barriers.iter().enumerate() {
            tracer.record("net.barrier", Some(root), b.start, b.end);
            if !b.delivered {
                continue;
            }
            let next = self.barriers.get(i + 1);
            let step_end = next.map_or(end, |n| n.start);
            let events_after = next.map_or(events_end, |n| n.events_before);
            let name = if events_after > b.events_before {
                names.decide
            } else {
                names.confirm
            };
            tracer.record(name, Some(root), b.end, step_end);
            tracer.count(names.steps, 1);
        }
    }
}

impl RoundSource for TimedSource<'_> {
    fn arena(&self) -> &HistoryArena {
        self.leader.arena()
    }

    fn next_round(&mut self) -> Result<Option<RoundColumns>, TransportError> {
        let events_before = self.recorded.get();
        let start = Instant::now();
        let round = self.leader.next_round();
        self.barriers.push(Barrier {
            start,
            end: Instant::now(),
            events_before,
            delivered: matches!(round, Ok(Some(_))),
        });
        round
    }
}
