//! Batch-vs-incremental kernel maintenance scaling (`exp_linalg_scaling`).
//!
//! Times the two ways the leader can maintain the observation system's
//! echelon and kernel as rounds accumulate:
//!
//! * **batch** — rebuild the matrix and rerun
//!   [`gauss::kernel_basis`](anonet_linalg::gauss::kernel_basis) from
//!   scratch after every append (the reference path; total work is
//!   quadratic in the number of appended rows);
//! * **incremental** — keep a [`KernelTracker`] and reduce only the new
//!   rows against the stored echelon, one row-reduction per append (for
//!   `M_r`, each round widens the columns and appends the rows of
//!   [`GeneralSystem::level_rows`]).
//!
//! Two cell families cover the `(n, r)` grid:
//!
//! * `M_r` — the paper's observation system itself, maintained across
//!   rounds `0..=r` (`3^{r+1} - 1` rows over `3^{r+1}` columns);
//! * `random` — seeded low-rank append trajectories of `n` rows over
//!   `3^r` columns. The rank is kept small by construction (rows are
//!   short combinations of a fixed `{-1, 0, 1}` basis) so rational
//!   intermediates stay inside `i128` on both paths, as they do in the
//!   structured systems the tracker was built for.
//!
//! Before any timed loop runs, each cell cross-checks (un-timed) that
//! the incremental kernel is bit-identical to the batch kernel on its
//! trajectory. Timing is single-threaded `Instant` wall clock, minimum
//! over a few repetitions; the emitted document (`BENCH_linalg.json`)
//! is validated in-process by [`validate_doc`] because the vendored
//! `serde_json` deliberately has no parser.

use anonet_core::experiment::Table;
use anonet_linalg::{gauss, KernelTracker, Matrix, Ratio};
use anonet_multigraph::system;
use anonet_multigraph::system_k::GeneralSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::hint::black_box;
use std::time::Instant;

/// Grid size selector for [`run_scaling`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// Tiny cells for schema smoke tests (sub-second even in debug).
    Smoke,
    /// Reduced grid for `--quick` runs.
    Quick,
    /// The full grid behind the committed `BENCH_linalg.json`.
    Full,
}

/// One timed cell of the scaling grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalingCell {
    /// Cell family: `"M_r"` or `"random"`.
    pub family: &'static str,
    /// Human-readable grid coordinates, e.g. `"n=128,r=4"`.
    pub cell: String,
    /// Rows appended over the trajectory.
    pub rows: usize,
    /// Columns of the final system.
    pub cols: usize,
    /// Wall-clock microseconds for the batch trajectory.
    pub batch_micros: u64,
    /// Wall-clock microseconds for the incremental trajectory.
    pub incremental_micros: u64,
}

impl ScalingCell {
    /// Batch-over-incremental wall-clock ratio (≥ 5 expected at the
    /// largest grid cell).
    pub fn speedup(&self) -> f64 {
        self.batch_micros as f64 / self.incremental_micros.max(1) as f64
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

/// The sparse rows each round `0..=r` appends to `M_r`, generated up front
/// so the timed loops only widen and append.
pub fn mr_levels(r: usize) -> Vec<Vec<Vec<(usize, i64)>>> {
    let sys = GeneralSystem::new(2).expect("k = 2 is supported");
    (0..=r)
        .map(|level| sys.level_rows(level).expect("M_r within budget"))
        .collect()
}

/// One round of `M_r` on the exact tracker: every history splits into its
/// three extensions, then the level's connection rows are appended.
pub fn push_mr_level(t: &mut KernelTracker, rows: &[Vec<(usize, i64)>]) {
    t.extend_columns(3).expect("widen M_r columns");
    for row in rows {
        t.append_row_sparse_i64(row).expect("append M_r row");
    }
}

/// The paper-system family: maintain `M_0 ⊂ M_1 ⊂ … ⊂ M_r`.
fn mr_cell(r: usize) -> ScalingCell {
    let dense: Vec<Matrix> = (0..=r)
        .map(|level| {
            system::observation_matrix(level)
                .expect("M_r within budget")
                .to_dense()
                .expect("dense M_r")
        })
        .collect();

    let levels = mr_levels(r);

    // Un-timed equivalence gate: the incremental kernel must be
    // bit-identical to the batch kernel at the final round.
    let mut kernel = KernelTracker::new(1);
    for rows in &levels {
        push_mr_level(&mut kernel, rows);
    }
    let batch_kernel =
        gauss::kernel_basis(dense.last().expect("non-empty trajectory")).expect("batch kernel");
    assert_eq!(
        kernel.kernel_basis().expect("incremental kernel"),
        batch_kernel,
        "M_{r}: incremental and batch kernels must be bit-identical"
    );

    let reps = if r >= 3 { 2 } else { 5 };
    let batch = time_micros(reps, || {
        let mut sink = 0u64;
        for m in &dense {
            sink ^= gauss::kernel_basis(m).expect("batch kernel").len() as u64;
        }
        black_box(sink);
    });
    let incremental = time_micros(reps, || {
        let mut k = KernelTracker::new(1);
        let mut sink = 0u64;
        for rows in &levels {
            push_mr_level(&mut k, rows);
            sink ^= k.kernel_basis().expect("incremental kernel").len() as u64;
        }
        black_box(sink);
    });

    ScalingCell {
        family: "M_r",
        cell: format!("r={r}"),
        rows: system::row_count(r),
        cols: system::column_count(r),
        batch_micros: batch,
        incremental_micros: incremental,
    }
}

/// Seeded `n`-row trajectory over `3^r` columns with rank ≤ `rank`:
/// every row is a `{-1, 0, 1}`-combination of three basis rows.
fn random_rows(n: usize, cols: usize, rank: usize, seed: u64) -> Vec<Vec<i64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let basis: Vec<Vec<i64>> = (0..rank)
        .map(|_| (0..cols).map(|_| rng.gen_range(-1i64..=1)).collect())
        .collect();
    (0..n)
        .map(|_| {
            let mut row = vec![0i64; cols];
            for _ in 0..3 {
                let b = rng.gen_range(0..rank);
                let c = rng.gen_range(-1i64..=1);
                for (x, y) in row.iter_mut().zip(&basis[b]) {
                    *x += c * *y;
                }
            }
            row
        })
        .collect()
}

/// The random family: append `n` seeded rows over `3^r` columns,
/// querying rank and kernel after every append on both paths.
fn random_cell(n: usize, r: u32, rank: usize, seed: u64) -> ScalingCell {
    let cols = 3usize.pow(r);
    let rows = random_rows(n, cols, rank, seed);
    let ratio_rows: Vec<Vec<Ratio>> = rows
        .iter()
        .map(|row| row.iter().map(|&x| Ratio::from_integer(x as i128)).collect())
        .collect();

    // Un-timed equivalence gate on the full trajectory.
    let mut tracker = KernelTracker::new(cols);
    for row in &rows {
        tracker.append_row_i64(row).expect("append");
    }
    let full = Matrix::from_rows(ratio_rows.clone()).expect("full matrix");
    let ech = gauss::rref(&full).expect("batch rref");
    assert_eq!(tracker.rank(), ech.rank(), "rank mismatch at n={n}, r={r}");
    assert_eq!(
        tracker.kernel_basis().expect("incremental kernel"),
        gauss::kernel_basis(&full).expect("batch kernel"),
        "random n={n}, r={r}: incremental and batch kernels must be bit-identical"
    );

    let reps = if n >= 96 { 1 } else { 3 };
    let batch = time_micros(reps, || {
        let mut sink = 0u64;
        for m in 1..=ratio_rows.len() {
            let mat = Matrix::from_rows(ratio_rows[..m].to_vec()).expect("prefix matrix");
            sink ^= gauss::kernel_basis(&mat).expect("batch kernel").len() as u64;
        }
        black_box(sink);
    });
    let incremental = time_micros(reps, || {
        let mut t = KernelTracker::new(cols);
        let mut sink = 0u64;
        for row in &rows {
            t.append_row_i64(row).expect("append");
            sink ^= t.kernel_basis().expect("incremental kernel").len() as u64;
        }
        black_box(sink);
    });

    ScalingCell {
        family: "random",
        cell: format!("n={n},r={r}"),
        rows: n,
        cols,
        batch_micros: batch,
        incremental_micros: incremental,
    }
}

/// `(n, r, rank, seed)` coordinates of one random-family cell.
type RandomSpec = (usize, u32, usize, u64);

/// Pre-run coordinates of one grid cell — computable *before* the cell
/// runs, which is what lets the checkpoint runner identify journaled
/// cells across resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSpec {
    /// One `M_r`-family cell.
    Mr {
        /// Top round index.
        r: usize,
    },
    /// One random-family cell.
    Random {
        /// Rows appended over the trajectory.
        n: usize,
        /// Column exponent (`3^r` columns).
        r: u32,
        /// Basis size bounding the construction rank.
        rank: usize,
        /// RNG seed of the trajectory.
        seed: u64,
    },
}

impl CellSpec {
    /// Stable identifier used in checkpoint journals.
    pub fn id(&self) -> String {
        match *self {
            CellSpec::Mr { r } => format!("M_r:r={r}"),
            CellSpec::Random { n, r, seed, .. } => format!("random:n={n},r={r},seed={seed}"),
        }
    }

    /// Runs the cell (serially, for timing fidelity).
    ///
    /// # Panics
    ///
    /// Panics if the batch/incremental cross-check fails — the
    /// checkpoint runner catches this into a `CellFailure`.
    pub fn run(&self) -> ScalingCell {
        match *self {
            CellSpec::Mr { r } => mr_cell(r),
            CellSpec::Random { n, r, rank, seed } => random_cell(n, r, rank, seed),
        }
    }
}

/// The grid's cell specs, in grid order.
pub fn grid_specs(grid: Grid) -> Vec<CellSpec> {
    let (mr_levels, random_cells): (&[usize], &[RandomSpec]) = match grid {
        Grid::Smoke => (&[1], &[(16, 2, 4, 101)]),
        Grid::Quick => (&[1, 2], &[(32, 2, 6, 101), (64, 3, 10, 202)]),
        Grid::Full => (
            &[1, 2, 3],
            &[
                (32, 2, 6, 101),
                (64, 3, 10, 202),
                (96, 3, 14, 303),
                (128, 4, 20, 404),
            ],
        ),
    };
    let mut specs: Vec<CellSpec> = mr_levels.iter().map(|&r| CellSpec::Mr { r }).collect();
    specs.extend(
        random_cells
            .iter()
            .map(|&(n, r, rank, seed)| CellSpec::Random { n, r, rank, seed }),
    );
    specs
}

/// Runs the scaling grid serially (timing fidelity) and returns its
/// cells in grid order.
pub fn run_scaling(grid: Grid) -> Vec<ScalingCell> {
    grid_specs(grid).iter().map(CellSpec::run).collect()
}

/// Serializes a cell as a single-line checkpoint payload (strings and
/// integers only — `speedup` is derived and recomputed).
pub fn cell_payload(cell: &ScalingCell) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("family".to_string(), Value::Str(cell.family.to_string())),
        ("cell".to_string(), Value::Str(cell.cell.clone())),
        ("rows".to_string(), Value::Int(cell.rows as i128)),
        ("cols".to_string(), Value::Int(cell.cols as i128)),
        (
            "batch_micros".to_string(),
            Value::Int(cell.batch_micros as i128),
        ),
        (
            "incremental_micros".to_string(),
            Value::Int(cell.incremental_micros as i128),
        ),
    ]))
    .expect("cell serializes")
}

/// Rebuilds a cell from a checkpoint payload.
///
/// # Errors
///
/// Returns a description of the first missing/mistyped field or of an
/// unknown family.
pub fn cell_from_payload(payload: &anonet_trace::json::JsonValue) -> Result<ScalingCell, String> {
    use anonet_trace::json::JsonValue;
    let int_field = |key: &str| -> Result<u64, String> {
        payload
            .get(key)
            .and_then(JsonValue::as_int)
            .and_then(|v| u64::try_from(v).ok())
            .ok_or_else(|| format!("cell payload is missing non-negative integer `{key}`"))
    };
    let family = match payload.get("family").and_then(JsonValue::as_str) {
        Some("M_r") => "M_r",
        Some("random") => "random",
        Some(other) => return Err(format!("unknown cell family `{other}`")),
        None => return Err("cell payload is missing string `family`".to_string()),
    };
    Ok(ScalingCell {
        family,
        cell: payload
            .get("cell")
            .and_then(JsonValue::as_str)
            .ok_or("cell payload is missing string `cell`")?
            .to_string(),
        rows: int_field("rows")? as usize,
        cols: int_field("cols")? as usize,
        batch_micros: int_field("batch_micros")?,
        incremental_micros: int_field("incremental_micros")?,
    })
}

/// Renders the grid as the `linalg_scaling` experiment table.
pub fn scaling_table(cells: &[ScalingCell]) -> Table {
    let mut t = Table::new(
        "linalg_scaling",
        "Batch vs incremental kernel maintenance (µs per trajectory)",
        &["family", "cell", "rows", "cols", "batch_us", "incremental_us", "speedup"],
    );
    for c in cells {
        t.push_row(vec![
            c.family.to_string(),
            c.cell.clone(),
            c.rows.to_string(),
            c.cols.to_string(),
            c.batch_micros.to_string(),
            c.incremental_micros.to_string(),
            format!("{:.1}", c.speedup()),
        ]);
    }
    t
}

/// Builds the `BENCH_linalg.json` document for a finished grid.
///
/// The `largest_cell` entry summarizes the cell with the most matrix
/// entries (`rows × cols`) — the acceptance gate for the ≥ 5× speedup.
///
/// # Panics
///
/// Panics on an empty grid.
pub fn bench_doc(cells: &[ScalingCell]) -> Value {
    let obj = |c: &ScalingCell| {
        Value::Object(vec![
            ("family".to_string(), Value::Str(c.family.to_string())),
            ("cell".to_string(), Value::Str(c.cell.clone())),
            ("rows".to_string(), Value::Int(c.rows as i128)),
            ("cols".to_string(), Value::Int(c.cols as i128)),
            ("batch_micros".to_string(), Value::Int(c.batch_micros as i128)),
            (
                "incremental_micros".to_string(),
                Value::Int(c.incremental_micros as i128),
            ),
            ("speedup".to_string(), Value::Float(c.speedup())),
        ])
    };
    let largest = cells
        .iter()
        .max_by_key(|c| c.rows * c.cols)
        .expect("non-empty grid");
    Value::Object(vec![
        ("bench".to_string(), Value::Str("linalg_scaling".to_string())),
        ("schema_version".to_string(), Value::Int(1)),
        (
            "grid".to_string(),
            Value::Array(cells.iter().map(obj).collect()),
        ),
        ("largest_cell".to_string(), obj(largest)),
    ])
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

/// Schema check for the `BENCH_linalg.json` document.
///
/// Runs in-process (the vendored `serde_json` has no parser): top-level
/// keys, per-cell key/variant shape, positive timings, and that
/// `largest_cell` really is the grid cell with the most entries.
///
/// # Errors
///
/// Returns a description of the first violated schema rule.
pub fn validate_doc(doc: &Value) -> Result<(), String> {
    match field(doc, "bench")? {
        Value::Str(s) if s == "linalg_scaling" => {}
        other => return Err(format!("bad bench name: {other:?}")),
    }
    match field(doc, "schema_version")? {
        Value::Int(1) => {}
        other => return Err(format!("bad schema_version: {other:?}")),
    }
    let cell_shape = |cell: &Value| -> Result<(i128, i128), String> {
        match field(cell, "family")? {
            Value::Str(s) if s == "M_r" || s == "random" => {}
            other => return Err(format!("bad family: {other:?}")),
        }
        let Value::Str(_) = field(cell, "cell")? else {
            return Err("cell label must be a string".to_string());
        };
        let mut dims = (0i128, 0i128);
        for (key, slot) in [("rows", 0), ("cols", 1), ("batch_micros", 2), ("incremental_micros", 3)]
        {
            match field(cell, key)? {
                Value::Int(v) if *v > 0 => {
                    if slot == 0 {
                        dims.0 = *v;
                    } else if slot == 1 {
                        dims.1 = *v;
                    }
                }
                other => return Err(format!("bad {key}: {other:?}")),
            }
        }
        match field(cell, "speedup")? {
            Value::Float(f) if *f > 0.0 => {}
            other => return Err(format!("bad speedup: {other:?}")),
        }
        Ok(dims)
    };
    let Value::Array(grid) = field(doc, "grid")? else {
        return Err("grid must be an array".to_string());
    };
    if grid.is_empty() {
        return Err("grid must be non-empty".to_string());
    }
    let mut max_entries = 0i128;
    for cell in grid {
        let (rows, cols) = cell_shape(cell)?;
        max_entries = max_entries.max(rows * cols);
    }
    let largest = field(doc, "largest_cell")?;
    let (rows, cols) = cell_shape(largest)?;
    if rows * cols != max_entries {
        return Err(format!(
            "largest_cell has {} entries but the grid maximum is {max_entries}",
            rows * cols
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_runs_and_validates() {
        let cells = run_scaling(Grid::Smoke);
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.batch_micros >= 1));
        let doc = bench_doc(&cells);
        validate_doc(&doc).expect("smoke doc validates");
        let table = scaling_table(&cells);
        assert_eq!(table.rows.len(), cells.len());
    }

    #[test]
    fn validation_rejects_tampered_docs() {
        let cells = run_scaling(Grid::Smoke);
        let doc = bench_doc(&cells);

        // Wrong bench name.
        let mut bad = doc.clone();
        if let Value::Object(entries) = &mut bad {
            entries[0].1 = Value::Str("other".to_string());
        }
        assert!(validate_doc(&bad).unwrap_err().contains("bench name"));

        // Empty grid.
        let mut bad = doc.clone();
        if let Value::Object(entries) = &mut bad {
            for (k, v) in entries.iter_mut() {
                if k == "grid" {
                    *v = Value::Array(Vec::new());
                }
            }
        }
        assert!(validate_doc(&bad).unwrap_err().contains("non-empty"));

        // largest_cell inconsistent with the grid.
        let mut bad = doc.clone();
        if let Value::Object(entries) = &mut bad {
            for (k, v) in entries.iter_mut() {
                if k == "largest_cell" {
                    if let Value::Object(cell) = v {
                        for (ck, cv) in cell.iter_mut() {
                            if ck == "rows" {
                                *cv = Value::Int(1);
                            }
                        }
                    }
                }
            }
        }
        assert!(validate_doc(&bad).unwrap_err().contains("largest_cell"));

        // Missing key.
        let bad = Value::Object(vec![(
            "bench".to_string(),
            Value::Str("linalg_scaling".to_string()),
        )]);
        assert!(validate_doc(&bad).unwrap_err().contains("schema_version"));
    }

    #[test]
    fn random_family_trajectories_are_seeded() {
        assert_eq!(random_rows(8, 9, 3, 42), random_rows(8, 9, 3, 42));
        assert_ne!(random_rows(8, 9, 3, 42), random_rows(8, 9, 3, 43));
    }
}
