//! Million-node simulation core scaling (`exp_scale`, `BENCH_scale.json`).
//!
//! Extends the separation grids to `n = 10^5` and beyond on the
//! struct-of-arrays round engine
//! ([`RoundEngine`](anonet_multigraph::RoundEngine)) and measures two
//! arms per cell, both driving the worst-case Lemma 5 twin execution of
//! size `n` for `horizon + 4` rounds:
//!
//! * **reference** — the retired array-of-structs simulator
//!   ([`simulate_reference`]): one `Delivery` push per edge, then a
//!   comparison sort by history (`O(E log E · depth)` per round), and
//!   one hash-probed `HistoryArena::child` per node;
//! * **soa** — [`simulate`]: the sort-free histogram round step
//!   (`O(E + n)` per round).
//!
//! Every cell re-proves the paper's bounds before anything is timed:
//! the online leader must decide exactly `n` at round `horizon + 2`
//! (Theorem 1's matching upper bound on the twin execution), and shared
//! cells must match the reference arm under history-resolving
//! [`Execution`](anonet_multigraph::simulate::Execution) equality with
//! an equal interned count.
//!
//! The emitted document (`BENCH_scale.json`) holds only strings and
//! integers — derived ratios are stored in permille — so the committed
//! file can be re-parsed and re-gated by the vendored
//! [`anonet_trace::json`] reader (the `--lint-bench` CI check), which
//! rejects floats. `bench_doc(cells, false)` omits the timing fields,
//! leaving only deterministic columns; `scripts/check.sh` byte-compares
//! the smoke grid's form against `tests/golden/exp_scale_smoke.json`.

use anonet_core::experiment::Table;
use anonet_multigraph::adversary::TwinBuilder;
use anonet_multigraph::simulate::{simulate, simulate_reference, OnlineLeader};
use serde::Value;
use std::hint::black_box;
use std::time::Instant;

/// Minimum reference-over-soa wall-clock ratio, in permille, the
/// *best* shared cell of a committed full run must reach (1500 =
/// 1.5×). The engine drops the `O(E log E · depth)` sort and interns
/// each round in bulk, with no hash probe (measured 7.7× at
/// `n = 10^3` and 9.5× at `n = 10^5` on a 2-vCPU VM); the floor is
/// deliberately conservative so slower machines pass.
pub const SPEEDUP_FLOOR_PERMILLE: u64 = 1500;

/// The document schema this module writes and accepts. Version 2
/// dropped the threaded arm (`threads`, `threaded_micros`) of
/// version 1; a version 1 document is rejected.
pub const SCHEMA_VERSION: i128 = 2;

/// Minimum size the largest cell of a committed full run must reach
/// (the ISSUE's `n = 10^5+` scaling target).
pub const MIN_LARGEST_N: u64 = 100_000;

/// Grid size selector for [`grid_specs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// One shared cell plus the `n = 10^5` CI cell (the acceptance
    /// criterion: a single `n = 10^5` execution under `--smoke`).
    Smoke,
    /// Reduced grid for `--quick` runs.
    Quick,
    /// The full grid behind the committed `BENCH_scale.json`, topping
    /// out at `n = 10^6`.
    Full,
}

/// One cell of the scaling grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleCell {
    /// Network size (the smaller twin).
    pub n: u64,
    /// The Lemma 5 indistinguishability horizon for `n`.
    pub horizon: u32,
    /// Rounds the online leader ingested until it decided — one past
    /// the deciding round index (asserted equal to `horizon + 2`, the
    /// paper's tight bound).
    pub decision_round: u32,
    /// Rounds simulated (`horizon + 4`).
    pub rounds: usize,
    /// Total deliveries over all simulated rounds (deterministic).
    pub deliveries: u64,
    /// Distinct histories interned by the execution (deterministic).
    pub interned: u64,
    /// Wall-clock microseconds of the SoA arm.
    pub soa_micros: u64,
    /// Wall-clock microseconds of the reference arm (`None` on
    /// soa-only cells, where the sort-based baseline would dominate the
    /// run).
    pub reference_micros: Option<u64>,
}

impl ScaleCell {
    /// Reference-over-soa wall-clock ratio; `None` on soa-only cells.
    pub fn speedup(&self) -> Option<f64> {
        self.reference_micros
            .map(|r| r as f64 / self.soa_micros.max(1) as f64)
    }

    /// [`ScaleCell::speedup`] in permille (the integer form stored in
    /// the float-free document).
    pub fn speedup_permille(&self) -> Option<u64> {
        self.reference_micros
            .map(|r| r.saturating_mul(1000) / self.soa_micros.max(1))
    }
}

/// Minimum wall-clock micros of `reps` executions of `f` (at least 1).
fn time_micros(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_micros() as u64);
    }
    best.max(1)
}

/// Pre-run coordinates of one grid cell (what the checkpoint runner
/// journals cells under across resumes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Network size.
    pub n: u64,
    /// Whether the reference arm is verified and timed too.
    pub shared: bool,
}

impl CellSpec {
    /// Stable identifier used in checkpoint journals.
    pub fn id(&self) -> String {
        format!(
            "scale:n={}{}",
            self.n,
            if self.shared { "" } else { ":soa-only" }
        )
    }

    /// Runs the cell (serially, for timing fidelity).
    ///
    /// # Panics
    ///
    /// Panics if any correctness gate fails: the twin construction, the
    /// reference-arm equality (shared cells), or the leader deciding
    /// anything other than `n` at round `horizon + 2` — the checkpoint
    /// runner catches this into a cell failure.
    pub fn run(&self) -> ScaleCell {
        let CellSpec { n, shared } = *self;
        let pair = TwinBuilder::new().build(n).expect("twin construction");
        let m = &pair.smaller;
        let rounds = pair.horizon as usize + 4;

        // The correctness passes double as the timing passes on large
        // cells (below, small cells re-time with min-of-reps): the
        // engine first, then the retired baseline on shared cells…
        let start = Instant::now();
        let exec = simulate(m, rounds);
        let mut soa_micros = (start.elapsed().as_micros() as u64).max(1);
        let mut reference_micros = shared.then(|| {
            let start = Instant::now();
            let reference = simulate_reference(m, rounds);
            let micros = (start.elapsed().as_micros() as u64).max(1);
            assert!(
                exec == reference,
                "n={n}: engine must reproduce the reference execution"
            );
            assert_eq!(
                exec.arena.interned(),
                reference.arena.interned(),
                "n={n}: engine must intern exactly the reference histories"
            );
            micros
        });
        // …and the paper's decision bound: exactly n, exactly at
        // horizon + 2.
        let mut leader = OnlineLeader::new();
        let mut decision = None;
        for (r, round) in exec.rounds.iter().enumerate() {
            if let Some(count) = leader
                .ingest(&exec.arena, round)
                .expect("real executions are feasible")
            {
                decision = Some((r as u32 + 1, count));
                break;
            }
        }
        let (decision_round, count) = decision.expect("leader decides within horizon + 2");
        assert_eq!(count, n, "leader must output the exact count");
        assert_eq!(
            decision_round,
            pair.horizon + 2,
            "n={n}: decision must take exactly horizon + 2 rounds"
        );

        let deliveries: u64 = exec.rounds.iter().map(|c| c.len() as u64).sum();
        let interned = exec.arena.interned() as u64;
        drop(exec);

        // Small cells are noise-prone: replace the single correctness
        // measurement with a min-of-reps timing. Large cells keep the
        // correctness-pass timings — re-running an `n = 10^6` arena
        // build just to time it again would double the grid's cost.
        if n < 50_000 {
            let reps = 3;
            soa_micros = time_micros(reps, || {
                black_box(simulate(m, rounds));
            });
            if shared {
                reference_micros = Some(time_micros(reps, || {
                    black_box(simulate_reference(m, rounds));
                }));
            }
        }

        ScaleCell {
            n,
            horizon: pair.horizon,
            decision_round,
            rounds,
            deliveries,
            interned,
            soa_micros,
            reference_micros,
        }
    }
}

/// The grid's cell specs, in grid order.
pub fn grid_specs(grid: Grid) -> Vec<CellSpec> {
    let (shared, only): (&[u64], &[u64]) = match grid {
        Grid::Smoke => (&[1_000], &[100_000]),
        Grid::Quick => (&[1_000, 10_000], &[100_000]),
        Grid::Full => (&[1_000, 10_000, 100_000], &[1_000_000]),
    };
    let spec = |&n: &u64, shared: bool| CellSpec { n, shared };
    shared
        .iter()
        .map(|n| spec(n, true))
        .chain(only.iter().map(|n| spec(n, false)))
        .collect()
}

/// Runs the scaling grid serially (timing fidelity) and returns its
/// cells in grid order.
pub fn run_scaling(grid: Grid) -> Vec<ScaleCell> {
    grid_specs(grid).iter().map(CellSpec::run).collect()
}

/// Serializes a cell as a single-line checkpoint payload (strings and
/// integers only — see the module docs).
pub fn cell_payload(cell: &ScaleCell) -> String {
    serde_json::to_string(&cell_value(cell, true)).expect("cell serializes")
}

/// Rebuilds a cell from a checkpoint payload.
///
/// # Errors
///
/// Returns a description of the first missing/mistyped field.
pub fn cell_from_payload(payload: &anonet_trace::json::JsonValue) -> Result<ScaleCell, String> {
    use anonet_trace::json::JsonValue;
    let int_field = |key: &str| -> Result<i128, String> {
        payload
            .get(key)
            .and_then(JsonValue::as_int)
            .ok_or_else(|| format!("cell payload is missing integer `{key}`"))
    };
    let as_u64 =
        |v: i128, key: &str| u64::try_from(v).map_err(|_| format!("cell payload `{key}` out of range"));
    let as_u32 =
        |v: i128, key: &str| u32::try_from(v).map_err(|_| format!("cell payload `{key}` out of range"));
    let as_usize = |v: i128, key: &str| {
        usize::try_from(v).map_err(|_| format!("cell payload `{key}` out of range"))
    };
    Ok(ScaleCell {
        n: as_u64(int_field("n")?, "n")?,
        horizon: as_u32(int_field("horizon")?, "horizon")?,
        decision_round: as_u32(int_field("decision_round")?, "decision_round")?,
        rounds: as_usize(int_field("rounds")?, "rounds")?,
        deliveries: as_u64(int_field("deliveries")?, "deliveries")?,
        interned: as_u64(int_field("interned")?, "interned")?,
        soa_micros: as_u64(int_field("soa_micros")?, "soa_micros")?,
        reference_micros: match payload.get("reference_micros") {
            Some(v) => Some(as_u64(
                v.as_int()
                    .ok_or("cell payload `reference_micros` must be an integer")?,
                "reference_micros",
            )?),
            None => None,
        },
    })
}

/// Renders the grid as the `scale` experiment table.
pub fn scaling_table(cells: &[ScaleCell]) -> Table {
    let mut t = Table::new(
        "scale",
        "SoA round engine vs retired reference simulator (µs per execution)",
        &[
            "n",
            "rounds",
            "deliveries",
            "interned",
            "reference_us",
            "soa_us",
            "speedup",
        ],
    );
    for c in cells {
        t.push_row(vec![
            c.n.to_string(),
            c.rounds.to_string(),
            c.deliveries.to_string(),
            c.interned.to_string(),
            c.reference_micros
                .map_or("(soa only)".to_string(), |r| r.to_string()),
            c.soa_micros.to_string(),
            c.speedup().map_or("-".to_string(), |s| format!("{s:.1}")),
        ]);
    }
    t
}

/// The shared cell with the largest `n`, if any.
pub fn largest_shared(cells: &[ScaleCell]) -> Option<&ScaleCell> {
    cells
        .iter()
        .filter(|c| c.reference_micros.is_some())
        .max_by_key(|c| c.n)
}

/// The shared cell with the highest reference-over-soa speedup, if any.
pub fn best_shared(cells: &[ScaleCell]) -> Option<&ScaleCell> {
    cells
        .iter()
        .filter(|c| c.reference_micros.is_some())
        .max_by_key(|c| c.speedup_permille())
}

/// Acceptance gates for full runs of the grid.
///
/// * the best shared cell must show a reference-over-soa speedup of
///   at least [`SPEEDUP_FLOOR_PERMILLE`];
/// * the grid must reach [`MIN_LARGEST_N`].
///
/// (Per-cell correctness — reference equality, the
/// decision landing at `horizon + 2` with the exact count — is asserted
/// inside [`CellSpec::run`] on every grid size, not here.)
///
/// # Errors
///
/// Returns a description of the first violated gate.
pub fn check_gates(cells: &[ScaleCell]) -> Result<(), String> {
    let best = best_shared(cells).ok_or("no shared cell in grid")?;
    let permille = best
        .speedup_permille()
        .expect("shared cell has a reference timing");
    if permille < SPEEDUP_FLOOR_PERMILLE {
        return Err(format!(
            "best shared cell n={} speedup {permille} permille < {SPEEDUP_FLOOR_PERMILLE}",
            best.n
        ));
    }
    let max_n = cells.iter().map(|c| c.n).max().unwrap_or(0);
    if max_n < MIN_LARGEST_N {
        return Err(format!(
            "grid tops out at n={max_n}, below the n={MIN_LARGEST_N} scaling target"
        ));
    }
    Ok(())
}

/// One cell as a document value; `timings` false omits the timing
/// fields, leaving only columns that are bit-for-bit reproducible on
/// any machine (the `--no-timings` byte-compare form).
fn cell_value(c: &ScaleCell, timings: bool) -> Value {
    let mut entries = vec![("n".to_string(), Value::Int(c.n as i128))];
    entries.extend([
        ("horizon".to_string(), Value::Int(c.horizon as i128)),
        (
            "decision_round".to_string(),
            Value::Int(c.decision_round as i128),
        ),
        ("rounds".to_string(), Value::Int(c.rounds as i128)),
        ("deliveries".to_string(), Value::Int(c.deliveries as i128)),
        ("interned".to_string(), Value::Int(c.interned as i128)),
    ]);
    if timings {
        entries.push(("soa_micros".to_string(), Value::Int(c.soa_micros as i128)));
        if let Some(r) = c.reference_micros {
            entries.push(("reference_micros".to_string(), Value::Int(r as i128)));
            entries.push((
                "speedup_permille".to_string(),
                Value::Int(c.speedup_permille().expect("shared cell") as i128),
            ));
        }
    }
    Value::Object(entries)
}

/// Builds the `BENCH_scale.json` document for a finished grid.
/// `timings` false produces the deterministic `--no-timings` form (see
/// [`cell_value`]).
pub fn bench_doc(cells: &[ScaleCell], timings: bool) -> Value {
    let mut entries = vec![
        ("bench".to_string(), Value::Str("scale".to_string())),
        ("schema_version".to_string(), Value::Int(SCHEMA_VERSION)),
        (
            "speedup_floor_permille".to_string(),
            Value::Int(SPEEDUP_FLOOR_PERMILLE as i128),
        ),
        (
            "grid".to_string(),
            Value::Array(cells.iter().map(|c| cell_value(c, timings)).collect()),
        ),
    ];
    if timings {
        if let Some(largest) = largest_shared(cells) {
            entries.push((
                "largest_shared_cell".to_string(),
                cell_value(largest, true),
            ));
        }
    }
    Value::Object(entries)
}

/// Looks up a key in a [`Value::Object`].
fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    match v {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key:?}")),
        _ => Err(format!("expected object around {key:?}")),
    }
}

/// In-process schema check for a [`bench_doc`] document (either form),
/// run before anything is written or printed: top-level keys, per-cell
/// shape, positive counters, `decision_round = horizon + 2` on every
/// cell, and timing fields present/absent consistently.
///
/// # Errors
///
/// Returns a description of the first violated rule.
pub fn validate_doc(doc: &Value) -> Result<(), String> {
    match field(doc, "bench")? {
        Value::Str(s) if s == "scale" => {}
        other => return Err(format!("bad bench name: {other:?}")),
    }
    match field(doc, "schema_version")? {
        Value::Int(v) if *v == SCHEMA_VERSION => {}
        other => return Err(format!("bad schema_version: {other:?}")),
    }
    match field(doc, "speedup_floor_permille")? {
        Value::Int(v) if *v == SPEEDUP_FLOOR_PERMILLE as i128 => {}
        other => return Err(format!("bad speedup_floor_permille: {other:?}")),
    }
    let cell_shape = |cell: &Value| -> Result<bool, String> {
        let int = |key: &str| -> Result<i128, String> {
            match field(cell, key)? {
                Value::Int(v) if *v >= 0 => Ok(*v),
                other => Err(format!("bad {key}: {other:?}")),
            }
        };
        for key in ["n", "rounds", "deliveries", "interned"] {
            if int(key)? <= 0 {
                return Err(format!("{key} must be positive"));
            }
        }
        if int("decision_round")? != int("horizon")? + 2 {
            return Err(format!(
                "cell n={} decided off the horizon + 2 bound",
                int("n")?
            ));
        }
        let timed = field(cell, "soa_micros").is_ok();
        if timed {
            if int("soa_micros")? <= 0 {
                return Err("soa_micros must be positive".to_string());
            }
            if field(cell, "reference_micros").is_ok()
                && (int("reference_micros")? <= 0 || int("speedup_permille")? == 0)
            {
                return Err("shared cell timings must be positive".to_string());
            }
        }
        Ok(timed)
    };
    let Value::Array(grid) = field(doc, "grid")? else {
        return Err("grid must be an array".to_string());
    };
    if grid.is_empty() {
        return Err("grid must be non-empty".to_string());
    }
    let timed = cell_shape(&grid[0])?;
    for cell in grid {
        if cell_shape(cell)? != timed {
            return Err("grid mixes timed and timing-free cells".to_string());
        }
    }
    if timed {
        cell_shape(field(doc, "largest_shared_cell")?)?;
    } else if field(doc, "largest_shared_cell").is_ok() {
        return Err("timing-free docs must omit largest_shared_cell".to_string());
    }
    Ok(())
}

/// Gates a *committed* `BENCH_scale.json`, re-parsed through the
/// vendored [`anonet_trace::json`] reader (the `--lint-bench` CI
/// check): full schema including timings, the
/// [`SPEEDUP_FLOOR_PERMILLE`] floor at the largest shared cell, and the
/// [`MIN_LARGEST_N`] scaling target.
///
/// # Errors
///
/// Returns a description of the first violated rule.
pub fn lint_committed(doc: &anonet_trace::json::JsonValue) -> Result<(), String> {
    use anonet_trace::json::JsonValue;
    let str_field = |v: &JsonValue, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string `{key}`"))
    };
    let int_field = |v: &JsonValue, key: &str| -> Result<i128, String> {
        v.get(key)
            .and_then(JsonValue::as_int)
            .ok_or_else(|| format!("missing integer `{key}`"))
    };
    if str_field(doc, "bench")? != "scale" {
        return Err("bad bench name".to_string());
    }
    let version = int_field(doc, "schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "bad schema_version {version}: expected {SCHEMA_VERSION}"
        ));
    }
    if int_field(doc, "speedup_floor_permille")? != SPEEDUP_FLOOR_PERMILLE as i128 {
        return Err(format!(
            "committed floor differs from the compiled {SPEEDUP_FLOOR_PERMILLE} permille"
        ));
    }
    let grid = doc
        .get("grid")
        .and_then(JsonValue::as_array)
        .ok_or("missing array `grid`")?;
    if grid.is_empty() {
        return Err("grid must be non-empty".to_string());
    }
    let mut max_n = 0i128;
    let mut best: Option<(i128, i128)> = None; // (n, speedup_permille)
    for cell in grid {
        let n = int_field(cell, "n")?;
        for key in ["rounds", "deliveries", "interned", "soa_micros"] {
            if int_field(cell, key)? <= 0 {
                return Err(format!("cell n={n}: {key} must be positive"));
            }
        }
        if int_field(cell, "decision_round")? != int_field(cell, "horizon")? + 2 {
            return Err(format!("cell n={n} decided off the horizon + 2 bound"));
        }
        max_n = max_n.max(n);
        if cell.get("reference_micros").is_some() {
            let permille = int_field(cell, "speedup_permille")?;
            if best.is_none_or(|(_, bp)| permille > bp) {
                best = Some((n, permille));
            }
        }
    }
    let (n, permille) = best.ok_or("no shared cell in committed grid")?;
    if permille < SPEEDUP_FLOOR_PERMILLE as i128 {
        return Err(format!(
            "best shared cell n={n} speedup {permille} permille < {SPEEDUP_FLOOR_PERMILLE}"
        ));
    }
    if max_n < MIN_LARGEST_N as i128 {
        return Err(format!(
            "committed grid tops out at n={max_n}, below the n={MIN_LARGEST_N} target"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_trace::json::JsonValue;

    /// A debug-build-sized cell (the real smoke grid's `n = 10^5` cell
    /// is release-only CI territory).
    fn tiny_cells() -> Vec<ScaleCell> {
        [
            CellSpec { n: 64, shared: true },
            CellSpec {
                n: 200,
                shared: false,
            },
        ]
        .iter()
        .map(CellSpec::run)
        .collect()
    }

    #[test]
    fn cells_run_validate_and_tabulate() {
        let cells = tiny_cells();
        assert!(cells.iter().all(|c| c.decision_round == c.horizon + 2));
        assert!(cells[0].reference_micros.is_some());
        assert!(cells[1].reference_micros.is_none());
        for timings in [true, false] {
            validate_doc(&bench_doc(&cells, timings)).expect("doc validates");
        }
        assert_eq!(scaling_table(&cells).rows.len(), cells.len());
    }

    #[test]
    fn no_timings_doc_is_machine_free() {
        let cells = tiny_cells();
        let doc = serde_json::to_string(&bench_doc(&cells, false)).expect("serializes");
        assert!(!doc.contains("micros"), "timings leaked: {doc}");
        // Two runs of the same grid agree bit-for-bit once stripped.
        let again = serde_json::to_string(&bench_doc(&tiny_cells(), false)).expect("serializes");
        assert_eq!(doc, again);
    }

    #[test]
    fn cell_round_trips_through_payload() {
        for cell in tiny_cells() {
            let payload = cell_payload(&cell);
            assert!(!payload.contains('\n'));
            let parsed = JsonValue::parse(&payload).expect("payload parses");
            assert_eq!(cell_from_payload(&parsed).expect("rebuilds"), cell);
        }
    }

    #[test]
    fn gates_judge_speedup_and_size() {
        let shared = ScaleCell {
            n: 100_000,
            horizon: 10,
            decision_round: 12,
            rounds: 14,
            deliveries: 1,
            interned: 1,
            soa_micros: 100,
            reference_micros: Some(1_000),
        };
        check_gates(std::slice::from_ref(&shared)).expect("10x passes");

        let slow = ScaleCell {
            reference_micros: Some(120),
            ..shared.clone()
        };
        assert!(check_gates(&[slow]).unwrap_err().contains("speedup"));

        let small = ScaleCell {
            n: 4_000,
            ..shared
        };
        assert!(check_gates(&[small]).unwrap_err().contains("scaling target"));
    }

    #[test]
    fn lint_gates_the_committed_document() {
        let cells = tiny_cells();
        // A structurally valid doc that still fails the committed gates
        // (tiny n): lint must reject on the scaling target.
        let doc = serde_json::to_string(&bench_doc(&cells, true)).expect("serializes");
        let parsed = JsonValue::parse(&doc).expect("document re-parses float-free");
        let err = lint_committed(&parsed).unwrap_err();
        assert!(
            err.contains("target") || err.contains("permille"),
            "unexpected lint error: {err}"
        );

        // A version 1 document (the retired threaded-arm schema) is
        // rejected before any cell is read.
        let v1 = doc.replace("\"schema_version\":2", "\"schema_version\":1");
        assert_ne!(v1, doc);
        let parsed = JsonValue::parse(&v1).expect("still json");
        assert!(lint_committed(&parsed)
            .unwrap_err()
            .contains("schema_version"));

        // Tampering with the decision bound is caught.
        let bad = doc.replace("\"decision_round\":", "\"decision_round\":1000000,\"x\":");
        let parsed = JsonValue::parse(&bad).expect("still json");
        assert!(lint_committed(&parsed)
            .unwrap_err()
            .contains("horizon + 2"));
    }

    #[test]
    fn validation_rejects_tampered_docs() {
        let cells = tiny_cells();
        let doc = bench_doc(&cells, true);

        let mut bad = doc.clone();
        if let Value::Object(entries) = &mut bad {
            entries[0].1 = Value::Str("other".to_string());
        }
        assert!(validate_doc(&bad).unwrap_err().contains("bench name"));

        let mut bad = doc.clone();
        if let Value::Object(entries) = &mut bad {
            for (k, v) in entries.iter_mut() {
                if k == "grid" {
                    *v = Value::Array(Vec::new());
                }
            }
        }
        assert!(validate_doc(&bad).unwrap_err().contains("non-empty"));

        for timings in [true, false] {
            let mut v1 = bench_doc(&cells, timings);
            if let Value::Object(entries) = &mut v1 {
                for (k, v) in entries.iter_mut() {
                    if k == "schema_version" {
                        *v = Value::Int(1);
                    }
                }
            }
            assert!(validate_doc(&v1).unwrap_err().contains("schema_version"));
        }

        // A timing-free doc must not carry the largest-shared summary.
        let mut bad = bench_doc(&cells, false);
        if let Value::Object(entries) = &mut bad {
            entries.push((
                "largest_shared_cell".to_string(),
                doc.clone(),
            ));
        }
        assert!(validate_doc(&bad)
            .unwrap_err()
            .contains("largest_shared_cell"));
    }

    #[test]
    fn grids_scale_to_the_issue_targets() {
        let smoke = grid_specs(Grid::Smoke);
        assert!(smoke.iter().any(|s| s.n == 100_000), "smoke must cover 10^5");
        let full = grid_specs(Grid::Full);
        assert!(full.iter().any(|s| s.n == 1_000_000), "full must cover 10^6");
        assert!(full.iter().any(|s| s.shared && s.n == 100_000));
        assert_eq!(CellSpec { n: 1_000, shared: true }.id(), "scale:n=1000");
        assert_eq!(
            CellSpec {
                n: 1_000_000,
                shared: false
            }
            .id(),
            "scale:n=1000000:soa-only"
        );
    }
}
