//! Structured per-round tracing for the anonet simulation stack.
//!
//! Every layer of the reproduction — the synchronous simulator
//! (`anonet-netsim`), the worst-case adversary and leader observation
//! machinery (`anonet-multigraph`), and the counting algorithms
//! (`anonet-core`) — can emit one [`RoundEvent`] per executed or observed
//! round into any [`TraceSink`]. Three sinks are provided:
//!
//! * [`NullSink`] — discards everything (the zero-cost default);
//! * [`MemorySink`] — collects events in memory for assertions;
//! * [`JsonlSink`] — streams events as JSON Lines for offline analysis
//!   and replay (see `docs/TRACING.md` for the schema and a worked
//!   replay example).
//!
//! The crate is dependency-free: JSONL emission and parsing are
//! hand-rolled for the flat event schema, so the trace layer can sit at
//! the very bottom of the workspace dependency graph.
//!
//! Two sibling modules extend the JSONL machinery beyond round events:
//! [`journal`] provides crash-safe line-atomic appends with per-line
//! fsync (the substrate of the experiment runner's checkpoint/resume
//! sidecars), and [`json`] a minimal JSON value parser for replaying
//! structured journal records without external dependencies.
//!
//! # Examples
//!
//! Record two rounds, serialize them, and replay the stream:
//!
//! ```
//! use anonet_trace::{JsonlSink, MemorySink, RoundEvent, TraceSink};
//!
//! let events = [
//!     RoundEvent::new(0).deliveries(6).leader_inbox(3),
//!     RoundEvent::new(1).candidates(4, 13).kernel_dim(1),
//! ];
//!
//! let mut jsonl = JsonlSink::new(Vec::new());
//! for e in &events {
//!     jsonl.record(e);
//! }
//! let text = String::from_utf8(jsonl.into_inner())?;
//! assert!(text.starts_with(r#"{"round":0,"deliveries":6,"leader_inbox":3}"#));
//!
//! let replayed = MemorySink::replay_jsonl(&text)?;
//! assert_eq!(replayed.events(), &events);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod journal;

use core::fmt;
use std::io::{self, Write};

/// One traced round of a simulation, observation, or algorithm run.
///
/// Every field except [`round`](RoundEvent::round) is optional: each
/// layer fills in the facets it knows. The simulator reports message
/// accounting (`deliveries`, `max_inbox`, `leader_inbox`); the counting
/// algorithms report solver state (`kernel_dim`, `candidate_lo/hi`,
/// `candidate_count`, `state_size`); adversary-driven runs label the
/// adversary's per-round choice (`adversary`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundEvent {
    /// The absolute round index.
    pub round: u32,
    /// Messages delivered in this round (sum of all inbox sizes).
    pub deliveries: Option<u64>,
    /// The largest inbox of the round.
    pub max_inbox: Option<u64>,
    /// The leader's inbox size this round (its degree).
    pub leader_inbox: Option<u64>,
    /// Dimension of the kernel of the observation system `M_r` after this
    /// round — the degrees of freedom the adversary still controls.
    pub kernel_dim: Option<u64>,
    /// Smallest population consistent with the observations so far.
    pub candidate_lo: Option<i64>,
    /// Largest population consistent with the observations so far.
    pub candidate_hi: Option<i64>,
    /// Number of candidate populations still consistent (exact rules that
    /// enumerate solutions report a count rather than an interval).
    pub candidate_count: Option<u64>,
    /// A label for the adversary's choice this round (e.g. the census or
    /// topology family it played).
    pub adversary: Option<String>,
    /// Size of the algorithm's round state (e.g. distinct `(label,
    /// state)` pairs in the leader's observation, or solver unknowns).
    pub state_size: Option<u64>,
    /// A label for injected faults active this round (e.g.
    /// `"drop(4+0)"`, `"crash(2)+dup(3+1)"`); set by the fault-injection
    /// layer, absent on clean runs.
    pub fault: Option<String>,
    /// A label for a model violation detected this round by a watchdog
    /// (e.g. `"connectivity"`, `"census-conservation"`); absent when no
    /// detector fired.
    pub violation: Option<String>,
    /// Packed fitness of an adversary-search candidate (verdict class in
    /// the high bits, termination round in the low bits); set by the
    /// coverage-guided search when it records an archive improvement.
    pub fitness: Option<u64>,
    /// The coverage-map key an adversary-search candidate landed in
    /// (e.g. `"kernel|violation:connectivity|r2|crash,drop"`); set
    /// alongside [`fitness`](RoundEvent::fitness).
    pub coverage: Option<String>,
    /// How a decision round's kernel dimension was certified (`"crt"` for
    /// a reconstructed CRT certificate, `"exact-replay"` for an exact
    /// re-elimination). No algorithm in this workspace sets it; it is
    /// kept so that traces which carry it still parse and round-trip.
    pub certification: Option<String>,
    /// Deliveries observed on the history-tree *spine* (the all-`{1,2}`
    /// history `T^r`) this round; set by the history-tree counting
    /// leader, whose alternating spine sums decide the count the round
    /// this drops to zero. Absent for the solver-based algorithms.
    pub spine: Option<u64>,
    /// Peer connections that were live when this round's barrier
    /// assembled; set by the socketed runtime (`anonet-net`), absent on
    /// in-memory runs.
    pub connections: Option<u64>,
    /// Retransmitted frames the round barrier deduplicated (first-wins)
    /// while assembling this round; set by the socketed runtime.
    pub retransmits: Option<u64>,
    /// A label for wire-level events observed this round (e.g.
    /// `"churn(peer 2)"`, `"timeout(missing [5])"`); set by the
    /// socketed runtime, absent on clean rounds and in-memory runs.
    pub net: Option<String>,
}

impl RoundEvent {
    /// Creates an event for `round` with every facet unset.
    pub fn new(round: u32) -> RoundEvent {
        RoundEvent {
            round,
            ..RoundEvent::default()
        }
    }

    /// Sets the delivery count.
    #[must_use]
    pub fn deliveries(mut self, n: u64) -> RoundEvent {
        self.deliveries = Some(n);
        self
    }

    /// Sets the maximum inbox size.
    #[must_use]
    pub fn max_inbox(mut self, n: u64) -> RoundEvent {
        self.max_inbox = Some(n);
        self
    }

    /// Sets the leader inbox size.
    #[must_use]
    pub fn leader_inbox(mut self, n: u64) -> RoundEvent {
        self.leader_inbox = Some(n);
        self
    }

    /// Sets the observation-system kernel dimension.
    #[must_use]
    pub fn kernel_dim(mut self, d: u64) -> RoundEvent {
        self.kernel_dim = Some(d);
        self
    }

    /// Sets the feasible candidate population interval `[lo, hi]`.
    #[must_use]
    pub fn candidates(mut self, lo: i64, hi: i64) -> RoundEvent {
        self.candidate_lo = Some(lo);
        self.candidate_hi = Some(hi);
        self
    }

    /// Sets the number of consistent candidate populations.
    #[must_use]
    pub fn candidate_count(mut self, n: u64) -> RoundEvent {
        self.candidate_count = Some(n);
        self
    }

    /// Sets the adversary-choice label.
    #[must_use]
    pub fn adversary(mut self, label: impl Into<String>) -> RoundEvent {
        self.adversary = Some(label.into());
        self
    }

    /// Sets the algorithm state size.
    #[must_use]
    pub fn state_size(mut self, n: u64) -> RoundEvent {
        self.state_size = Some(n);
        self
    }

    /// Sets the injected-fault label.
    #[must_use]
    pub fn fault(mut self, label: impl Into<String>) -> RoundEvent {
        self.fault = Some(label.into());
        self
    }

    /// Sets the detected-violation label.
    #[must_use]
    pub fn violation(mut self, label: impl Into<String>) -> RoundEvent {
        self.violation = Some(label.into());
        self
    }

    /// Sets the search-candidate fitness.
    #[must_use]
    pub fn fitness(mut self, f: u64) -> RoundEvent {
        self.fitness = Some(f);
        self
    }

    /// Sets the coverage-map key.
    #[must_use]
    pub fn coverage(mut self, key: impl Into<String>) -> RoundEvent {
        self.coverage = Some(key.into());
        self
    }

    /// Sets the decision-round certification method label.
    #[must_use]
    pub fn certification(mut self, label: impl Into<String>) -> RoundEvent {
        self.certification = Some(label.into());
        self
    }

    /// Sets the history-tree spine delivery count.
    #[must_use]
    pub fn spine(mut self, n: u64) -> RoundEvent {
        self.spine = Some(n);
        self
    }

    /// Sets the live-connection count at barrier assembly.
    #[must_use]
    pub fn connections(mut self, n: u64) -> RoundEvent {
        self.connections = Some(n);
        self
    }

    /// Sets the deduplicated-retransmission count.
    #[must_use]
    pub fn retransmits(mut self, n: u64) -> RoundEvent {
        self.retransmits = Some(n);
        self
    }

    /// Sets the wire-level event label.
    #[must_use]
    pub fn net(mut self, label: impl Into<String>) -> RoundEvent {
        self.net = Some(label.into());
        self
    }

    /// Renders the event as one compact JSON object (no trailing
    /// newline). Unset facets are omitted; field order is fixed, so equal
    /// events render to identical lines.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str("{\"round\":");
        s.push_str(&self.round.to_string());
        let num = |s: &mut String, key: &str, v: Option<i128>| {
            if let Some(v) = v {
                s.push_str(",\"");
                s.push_str(key);
                s.push_str("\":");
                s.push_str(&v.to_string());
            }
        };
        num(&mut s, "deliveries", self.deliveries.map(i128::from));
        num(&mut s, "max_inbox", self.max_inbox.map(i128::from));
        num(&mut s, "leader_inbox", self.leader_inbox.map(i128::from));
        num(&mut s, "kernel_dim", self.kernel_dim.map(i128::from));
        num(&mut s, "candidate_lo", self.candidate_lo.map(i128::from));
        num(&mut s, "candidate_hi", self.candidate_hi.map(i128::from));
        num(
            &mut s,
            "candidate_count",
            self.candidate_count.map(i128::from),
        );
        string_field(&mut s, "adversary", self.adversary.as_deref());
        num(&mut s, "state_size", self.state_size.map(i128::from));
        string_field(&mut s, "fault", self.fault.as_deref());
        string_field(&mut s, "violation", self.violation.as_deref());
        num(&mut s, "fitness", self.fitness.map(i128::from));
        string_field(&mut s, "coverage", self.coverage.as_deref());
        string_field(&mut s, "certification", self.certification.as_deref());
        // New facets append here so every pre-existing event keeps its
        // exact byte form (unset facets are omitted).
        num(&mut s, "spine", self.spine.map(i128::from));
        num(&mut s, "connections", self.connections.map(i128::from));
        num(&mut s, "retransmits", self.retransmits.map(i128::from));
        string_field(&mut s, "net", self.net.as_deref());
        s.push('}');
        s
    }

    /// Parses one line produced by [`RoundEvent::to_json_line`].
    ///
    /// This is a schema-specific parser (flat object, known keys), not a
    /// general JSON parser; it exists so traces can be replayed without
    /// external dependencies.
    ///
    /// # Errors
    ///
    /// Returns [`TraceParseError`] on malformed lines or unknown keys.
    pub fn from_json_line(line: &str) -> Result<RoundEvent, TraceParseError> {
        let line = line.trim();
        let inner = line
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| TraceParseError::new(line, "not a JSON object"))?;
        let mut event = RoundEvent::default();
        let mut saw_round = false;
        let mut rest = inner;
        while !rest.is_empty() {
            rest = rest.trim_start_matches(',');
            let key_start = rest
                .strip_prefix('"')
                .ok_or_else(|| TraceParseError::new(line, "expected key"))?;
            let key_end = key_start
                .find('"')
                .ok_or_else(|| TraceParseError::new(line, "unterminated key"))?;
            let key = &key_start[..key_end];
            let after_key = key_start[key_end + 1..]
                .strip_prefix(':')
                .ok_or_else(|| TraceParseError::new(line, "expected ':'"))?;
            if matches!(
                key,
                "adversary" | "fault" | "violation" | "coverage" | "certification" | "net"
            ) {
                let body = after_key
                    .strip_prefix('"')
                    .ok_or_else(|| TraceParseError::new(line, "expected a string value"))?;
                let (value, end) = parse_string_body(line, body)?;
                match key {
                    "adversary" => event.adversary = Some(value),
                    "fault" => event.fault = Some(value),
                    "coverage" => event.coverage = Some(value),
                    "certification" => event.certification = Some(value),
                    "net" => event.net = Some(value),
                    _ => event.violation = Some(value),
                }
                rest = &body[end + 1..];
                continue;
            }
            let value_end = after_key.find(',').unwrap_or(after_key.len());
            let raw = &after_key[..value_end];
            let n: i128 = raw
                .parse()
                .map_err(|_| TraceParseError::new(line, "expected a number"))?;
            match key {
                "round" => {
                    event.round = u32::try_from(n)
                        .map_err(|_| TraceParseError::new(line, "round out of range"))?;
                    saw_round = true;
                }
                "deliveries" => event.deliveries = Some(n as u64),
                "max_inbox" => event.max_inbox = Some(n as u64),
                "leader_inbox" => event.leader_inbox = Some(n as u64),
                "kernel_dim" => event.kernel_dim = Some(n as u64),
                "candidate_lo" => event.candidate_lo = Some(n as i64),
                "candidate_hi" => event.candidate_hi = Some(n as i64),
                "candidate_count" => event.candidate_count = Some(n as u64),
                "state_size" => event.state_size = Some(n as u64),
                "fitness" => event.fitness = Some(n as u64),
                "spine" => event.spine = Some(n as u64),
                "connections" => event.connections = Some(n as u64),
                "retransmits" => event.retransmits = Some(n as u64),
                other => {
                    return Err(TraceParseError::new(
                        line,
                        format!("unknown key `{other}`"),
                    ))
                }
            }
            rest = &after_key[value_end..];
        }
        if !saw_round {
            return Err(TraceParseError::new(line, "missing `round`"));
        }
        Ok(event)
    }
}

/// Appends `,"key":"escaped value"` to `s` when `value` is set.
fn string_field(s: &mut String, key: &str, value: Option<&str>) {
    let Some(v) = value else { return };
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":\"");
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
}

/// Parses an escaped JSON string body (after the opening quote),
/// returning the decoded value and the byte index of the closing quote.
fn parse_string_body(line: &str, body: &str) -> Result<(String, usize), TraceParseError> {
    let mut value = String::new();
    let mut chars = body.char_indices();
    loop {
        match chars.next() {
            Some((i, '"')) => return Ok((value, i)),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => value.push('"'),
                Some((_, '\\')) => value.push('\\'),
                Some((_, 'n')) => value.push('\n'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, h) = chars
                            .next()
                            .ok_or_else(|| TraceParseError::new(line, "truncated \\u escape"))?;
                        code = code * 16
                            + h.to_digit(16)
                                .ok_or_else(|| TraceParseError::new(line, "bad \\u escape"))?;
                    }
                    value.push(
                        char::from_u32(code)
                            .ok_or_else(|| TraceParseError::new(line, "bad \\u code point"))?,
                    );
                }
                _ => return Err(TraceParseError::new(line, "bad escape")),
            },
            Some((_, c)) => value.push(c),
            None => return Err(TraceParseError::new(line, "unterminated string")),
        }
    }
}

/// Error from [`RoundEvent::from_json_line`] / [`MemorySink::replay_jsonl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    line: String,
    reason: String,
}

impl TraceParseError {
    fn new(line: &str, reason: impl Into<String>) -> TraceParseError {
        TraceParseError {
            line: line.to_string(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad trace line `{}`: {}", self.line, self.reason)
    }
}

impl std::error::Error for TraceParseError {}

/// A consumer of [`RoundEvent`]s.
///
/// Implementations should be cheap when unused: the simulator and
/// algorithms call [`record`](TraceSink::record) once per round
/// unconditionally, and [`NullSink`] makes that a no-op.
pub trait TraceSink {
    /// Consumes one round event.
    fn record(&mut self, event: &RoundEvent);

    /// Flushes any buffered output (no-op by default).
    fn flush(&mut self) {}
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn record(&mut self, event: &RoundEvent) {
        (**self).record(event);
    }

    fn flush(&mut self) {
        (**self).flush();
    }
}

/// Discards every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &RoundEvent) {}
}

/// Collects events in memory.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Vec<RoundEvent>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// The recorded events, in record order.
    pub fn events(&self) -> &[RoundEvent] {
        &self.events
    }

    /// Consumes the sink, returning the recorded events.
    pub fn into_events(self) -> Vec<RoundEvent> {
        self.events
    }

    /// Rebuilds a sink from a JSONL trace (blank lines are skipped) —
    /// the inverse of streaming the same events through [`JsonlSink`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceParseError`] on the first malformed line.
    pub fn replay_jsonl(text: &str) -> Result<MemorySink, TraceParseError> {
        let mut sink = MemorySink::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let event = RoundEvent::from_json_line(line)?;
            sink.record(&event);
        }
        Ok(sink)
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &RoundEvent) {
        self.events.push(event.clone());
    }
}

/// Streams events as JSON Lines to any [`Write`] target.
///
/// Write failures are deferred: they do not panic during `record`, and
/// surface from [`JsonlSink::finish`] (or are dropped with the sink).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    error: Option<io::Error>,
}

impl JsonlSink<io::BufWriter<std::fs::File>> {
    /// Creates a sink writing to a freshly created (truncated) file.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(io::BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            writer,
            error: None,
        }
    }

    /// Flushes and returns the writer, surfacing any deferred write
    /// error.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered while recording or
    /// flushing.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush();
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.writer),
        }
    }

    /// Returns the writer without flushing or error-checking.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &RoundEvent) {
        if self.error.is_some() {
            return;
        }
        let mut line = event.to_json_line();
        line.push('\n');
        if let Err(e) = self.writer.write_all(line.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.error = Some(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RoundEvent {
        RoundEvent::new(3)
            .deliveries(12)
            .max_inbox(4)
            .leader_inbox(2)
            .kernel_dim(1)
            .candidates(-5, 40)
            .candidate_count(7)
            .adversary("kernel: s_3 + k_3 \"twin\"")
            .state_size(9)
    }

    #[test]
    fn json_roundtrip_full_event() {
        let e = sample();
        let line = e.to_json_line();
        assert_eq!(RoundEvent::from_json_line(&line).unwrap(), e);
    }

    #[test]
    fn json_roundtrip_sparse_event() {
        let e = RoundEvent::new(0).leader_inbox(3);
        let line = e.to_json_line();
        assert_eq!(line, r#"{"round":0,"leader_inbox":3}"#);
        assert_eq!(RoundEvent::from_json_line(&line).unwrap(), e);
    }

    #[test]
    fn json_roundtrip_fault_and_violation() {
        let e = RoundEvent::new(2)
            .deliveries(5)
            .fault("drop(4+0)+dup(3+1)")
            .violation("census-conservation");
        let line = e.to_json_line();
        assert_eq!(
            line,
            r#"{"round":2,"deliveries":5,"fault":"drop(4+0)+dup(3+1)","violation":"census-conservation"}"#
        );
        assert_eq!(RoundEvent::from_json_line(&line).unwrap(), e);
        // Escapes work in the new string fields too.
        let tricky = RoundEvent::new(0).fault("a\"b\\c\nd");
        let line = tricky.to_json_line();
        assert_eq!(RoundEvent::from_json_line(&line).unwrap(), tricky);
    }

    #[test]
    fn json_roundtrip_search_facets() {
        let e = RoundEvent::new(7)
            .adversary("n=9")
            .fault("crash(2)")
            .fitness((2 << 32) | 5)
            .coverage("kernel|violation:connectivity|r2|crash");
        let line = e.to_json_line();
        assert_eq!(
            line,
            r#"{"round":7,"adversary":"n=9","fault":"crash(2)","fitness":8589934597,"coverage":"kernel|violation:connectivity|r2|crash"}"#
        );
        assert_eq!(RoundEvent::from_json_line(&line).unwrap(), e);
        // Unset search facets are omitted, keeping pre-search traces
        // byte-identical.
        let plain = sample().to_json_line();
        assert!(!plain.contains("fitness") && !plain.contains("coverage"));
    }

    #[test]
    fn clean_events_render_without_fault_fields() {
        // The fault/violation keys are omitted when unset, so traces of
        // unfaulted runs are byte-identical to pre-fault-layer traces.
        let line = sample().to_json_line();
        assert!(!line.contains("fault"));
        assert!(!line.contains("violation"));
    }

    #[test]
    fn json_roundtrip_certification_facet() {
        let e = RoundEvent::new(4)
            .candidates(13, 13)
            .kernel_dim(1)
            .certification("crt");
        let line = e.to_json_line();
        assert_eq!(
            line,
            r#"{"round":4,"kernel_dim":1,"candidate_lo":13,"candidate_hi":13,"certification":"crt"}"#
        );
        assert_eq!(RoundEvent::from_json_line(&line).unwrap(), e);
        let replay = RoundEvent::from_json_line(
            r#"{"round":4,"certification":"exact-replay"}"#,
        )
        .unwrap();
        assert_eq!(replay.certification.as_deref(), Some("exact-replay"));
        // Unset certification is omitted, keeping pre-CRT traces
        // byte-identical.
        assert!(!sample().to_json_line().contains("certification"));
    }

    #[test]
    fn json_roundtrip_spine_facet() {
        let e = RoundEvent::new(3)
            .deliveries(26)
            .candidates(11, 13)
            .spine(2);
        let line = e.to_json_line();
        assert_eq!(
            line,
            r#"{"round":3,"deliveries":26,"candidate_lo":11,"candidate_hi":13,"spine":2}"#
        );
        assert_eq!(RoundEvent::from_json_line(&line).unwrap(), e);
        // A dead spine still renders (0 is the decision signal, not an
        // unset facet)…
        let dead = RoundEvent::new(5).spine(0);
        assert_eq!(dead.to_json_line(), r#"{"round":5,"spine":0}"#);
        assert_eq!(RoundEvent::from_json_line(&dead.to_json_line()).unwrap(), dead);
        // …while unset spine is omitted, keeping solver-algorithm traces
        // byte-identical to their pre-history-tree form.
        assert!(!sample().to_json_line().contains("spine"));
    }

    #[test]
    fn json_roundtrip_net_facets() {
        let e = RoundEvent::new(2)
            .deliveries(8)
            .connections(5)
            .retransmits(3)
            .net("churn(peer 2)");
        let line = e.to_json_line();
        assert_eq!(
            line,
            r#"{"round":2,"deliveries":8,"connections":5,"retransmits":3,"net":"churn(peer 2)"}"#
        );
        assert_eq!(RoundEvent::from_json_line(&line).unwrap(), e);
        // A timeout label with brackets survives the escape round trip.
        let t = RoundEvent::new(3).net("timeout(missing [5, 7])");
        assert_eq!(RoundEvent::from_json_line(&t.to_json_line()).unwrap(), t);
        // Unset net facets are omitted, keeping in-memory traces
        // byte-identical to their pre-socket form.
        let plain = sample().to_json_line();
        assert!(
            !plain.contains("connections")
                && !plain.contains("retransmits")
                && !plain.contains("\"net\"")
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(RoundEvent::from_json_line("not json").is_err());
        assert!(RoundEvent::from_json_line("{}").is_err(), "round required");
        assert!(RoundEvent::from_json_line(r#"{"round":1,"bogus":2}"#).is_err());
        assert!(RoundEvent::from_json_line(r#"{"round":"x"}"#).is_err());
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let mut sink = MemorySink::new();
        for r in 0..4 {
            sink.record(&RoundEvent::new(r).deliveries(u64::from(r) * 2));
        }
        assert_eq!(sink.events().len(), 4);
        assert_eq!(sink.events()[2].round, 2);
        assert_eq!(sink.events()[2].deliveries, Some(4));
    }

    #[test]
    fn jsonl_stream_replays_exactly() {
        let events: Vec<RoundEvent> = (0..5)
            .map(|r| {
                RoundEvent::new(r)
                    .deliveries(u64::from(r))
                    .candidates(i64::from(r), 2 * i64::from(r) + 1)
            })
            .collect();
        let mut jsonl = JsonlSink::new(Vec::new());
        for e in &events {
            jsonl.record(e);
        }
        let text = String::from_utf8(jsonl.finish().unwrap()).unwrap();
        assert_eq!(text.lines().count(), 5);
        let replayed = MemorySink::replay_jsonl(&text).unwrap();
        assert_eq!(replayed.events(), events.as_slice());
    }

    #[test]
    fn null_sink_is_a_noop() {
        let mut sink = NullSink;
        sink.record(&sample());
        sink.flush();
    }

    #[test]
    fn sink_usable_through_mut_ref() {
        fn feed<S: TraceSink>(mut sink: S) {
            sink.record(&RoundEvent::new(0));
        }
        let mut mem = MemorySink::new();
        feed(&mut mem);
        assert_eq!(mem.events().len(), 1);
    }
}
