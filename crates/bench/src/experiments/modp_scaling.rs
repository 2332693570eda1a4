//! Mod-p vs exact incremental kernel maintenance (`exp_modp_scaling`).
//!
//! Times the two incremental rank/nullity watchers the counting
//! algorithms can run per round:
//!
//! * **exact** — the rational [`KernelTracker`], reducing each appended
//!   row with exact [`Ratio`](anonet_linalg::Ratio) arithmetic;
//! * **modp** — the [`ModpKernelTracker`] over the fixed 62-bit prime
//!   field `F_P`, `P = 2^62 − 57`, doing the same forward elimination in
//!   branch-free `u64` Montgomery arithmetic.
//!
//! Three cell families cover the `(n, r)` grid:
//!
//! * `M_r` — the paper's observation system maintained across rounds
//!   `0..=r` (each round widens the columns and appends the rows of
//!   [`GeneralSystem::level_rows`](anonet_multigraph::system_k::GeneralSystem::level_rows));
//! * `random` — seeded low-rank append trajectories of `n` rows over
//!   `3^r` columns (same construction as `exp_linalg_scaling`);
//! * `fast` — the same construction at `n` up to `10^5`, timing the
//!   delayed-reduction fused append
//!   ([`ModpKernelTracker::append_row_i64`]) against the scalar
//!   reference path ([`ModpKernelTracker::append_row_scalar_i64`]).
//!
//! Cells up to the `exp_linalg_scaling` grid boundary are **shared**:
//! both arms are timed and the mod-p rank is cross-checked (un-timed)
//! against the exact rank after every append. Larger cells
//! (`n ∈ {256, 512, 1024}`, `M_4`, `M_5`) are **mod-p only** — the
//! exact arm would dominate the run — and are instead certified against
//! structural invariants (Lemma 2's `dim ker M_r = 1` for `M_r` cells,
//! the construction rank bound for `random` cells). `fast` cells check
//! (un-timed) that the fused path leaves the tracker byte-identical to
//! the scalar path, and record the final rank plus an FNV-1a digest of
//! the canonical echelon, which `scripts/check.sh` pins against a
//! committed golden document.
//!
//! The emitted document (`BENCH_modp.json`, schema v2, all-integer) is
//! validated in-process by [`validate_doc`]; full runs additionally
//! pass [`check_gates`]: ≥ 5× over the exact tracker at the largest
//! shared cell, at least one `n ≥ 512` cell finishing under the exact
//! tracker's committed `n = 128` time (16,704 µs in
//! `BENCH_linalg.json`), and the largest `fast` cell reaching
//! `n ≥ 10^5` rows with the fused path ≥ 3× over the scalar path.
//! [`lint_committed`] re-checks all of that on the committed file
//! through the float-free [`anonet_trace::json`] parser.

use super::linalg_scaling::{mr_levels, push_mr_level};
use anonet_core::experiment::Table;
use anonet_linalg::{KernelTracker, ModpKernelTracker};
use anonet_multigraph::system;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::hint::black_box;
use std::time::Instant;

/// The exact tracker's committed `n = 128, r = 4` trajectory time from
/// `BENCH_linalg.json` — the anchor an `n ≥ 512` mod-p cell must beat.
pub const EXACT_N128_BASELINE_MICROS: u64 = 16_704;

/// Gate: the largest shared cell's exact-over-modp speedup floor,
/// in permille (5000 = 5×).
pub const SPEEDUP_FLOOR_PERMILLE: u64 = 5000;

/// Gate: the largest `fast` cell's scalar-over-fused speedup floor,
/// in permille (3000 = 3×).
pub const FAST_SPEEDUP_FLOOR_PERMILLE: u64 = 3000;

/// Gate: the row count the largest `fast` cell must reach.
pub const MIN_LARGEST_FAST_ROWS: u64 = 100_000;

/// Grid size selector for [`run_scaling`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// Tiny cells for schema smoke tests (sub-second even in debug).
    Smoke,
    /// Reduced grid for `--quick` runs.
    Quick,
    /// The full grid behind the committed `BENCH_modp.json`.
    Full,
}

/// One timed cell of the mod-p scaling grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModpCell {
    /// Cell family: `"M_r"`, `"random"` or `"fast"`.
    pub family: &'static str,
    /// Human-readable grid coordinates, e.g. `"n=512,r=4"`.
    pub cell: String,
    /// Rows appended over the trajectory.
    pub rows: usize,
    /// Columns of the final system.
    pub cols: usize,
    /// Wall-clock microseconds for the exact trajectory (`None` on
    /// mod-p-only and `fast` cells).
    pub exact_micros: Option<u64>,
    /// Wall-clock microseconds for the mod-p trajectory (on `fast`
    /// cells: the delayed-reduction fused append path).
    pub modp_micros: u64,
    /// Wall-clock microseconds for the scalar reference path (`fast`
    /// cells only).
    pub scalar_micros: Option<u64>,
    /// Final rank of the trajectory (`fast` cells only).
    pub rank: Option<usize>,
    /// FNV-1a digest of the final canonical echelon (`fast` cells
    /// only) — identical across append paths.
    pub echelon_digest: Option<u64>,
}

impl ModpCell {
    /// Exact-over-modp wall-clock ratio in permille (5000 = 5×);
    /// `None` on cells without an exact arm.
    pub fn speedup_permille(&self) -> Option<u64> {
        self.exact_micros
            .map(|e| e.saturating_mul(1000) / self.modp_micros.max(1))
    }

    /// Scalar-over-fused wall-clock ratio in permille (3000 = 3×);
    /// `None` outside the `fast` family.
    pub fn fast_speedup_permille(&self) -> Option<u64> {
        self.scalar_micros
            .map(|s| s.saturating_mul(1000) / self.modp_micros.max(1))
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

/// One round of `M_r` on the mod-p tracker, mirroring
/// [`push_mr_level`].
pub fn push_modp_level(t: &mut ModpKernelTracker, rows: &[Vec<(usize, i64)>]) {
    t.extend_columns(3).expect("widen M_r columns");
    for row in rows {
        t.append_row_sparse_i64(row).expect("append M_r row");
    }
}

/// The paper-system family: maintain `M_0 ⊂ M_1 ⊂ … ⊂ M_r` on both
/// backends (`shared = false` skips the exact arm).
fn mr_cell(r: usize, shared: bool) -> ModpCell {
    let levels = mr_levels(r);

    // Un-timed agreement gate. Shared cells check the mod-p nullity
    // against the exact one per round; mod-p-only cells check Lemma 2's
    // closed form (rank = rows, dim ker = 1) directly.
    let mut modp = ModpKernelTracker::new(1);
    let mut exact = shared.then(|| KernelTracker::new(1));
    for (level, rows) in levels.iter().enumerate() {
        push_modp_level(&mut modp, rows);
        if let Some(exact) = exact.as_mut() {
            push_mr_level(exact, rows);
            assert_eq!(
                modp.nullity(),
                exact.nullity(),
                "M_{level}: mod-p nullity must match exact"
            );
        }
    }
    assert_eq!(modp.rank(), system::row_count(r), "Lemma 2 rank at r={r}");
    assert_eq!(modp.nullity(), 1, "Lemma 2 nullity at r={r}");

    let reps = if r >= 3 { 2 } else { 5 };
    let exact_micros = shared.then(|| {
        time_micros(reps, || {
            let mut k = KernelTracker::new(1);
            let mut sink = 0u64;
            for rows in &levels {
                push_mr_level(&mut k, rows);
                sink ^= k.nullity() as u64;
            }
            black_box(sink);
        })
    });
    let modp_micros = time_micros(reps, || {
        let mut k = ModpKernelTracker::new(1);
        let mut sink = 0u64;
        for rows in &levels {
            push_modp_level(&mut k, rows);
            sink ^= k.nullity() as u64;
        }
        black_box(sink);
    });

    ModpCell {
        family: "M_r",
        cell: format!("r={r}"),
        rows: system::row_count(r),
        cols: system::column_count(r),
        exact_micros,
        modp_micros,
        scalar_micros: None,
        rank: None,
        echelon_digest: None,
    }
}

/// Seeded `n`-row trajectory over `cols` columns with rank ≤ `rank` —
/// the same construction as `exp_linalg_scaling`'s random family.
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
/// querying the rank after every append on both arms.
fn random_cell(n: usize, r: u32, rank: usize, seed: u64, shared: bool) -> ModpCell {
    let cols = 3usize.pow(r);
    let rows = random_rows(n, cols, rank, seed);

    // Un-timed agreement gate.
    let mut modp = ModpKernelTracker::new(cols);
    if shared {
        let mut exact = KernelTracker::new(cols);
        for row in &rows {
            exact.append_row_i64(row).expect("exact append");
            modp.append_row_i64(row).expect("modp append");
            assert_eq!(modp.rank(), exact.rank(), "rank mismatch at n={n}, r={r}");
            assert_eq!(modp.pivots(), exact.pivots(), "pivots at n={n}, r={r}");
        }
    } else {
        for row in &rows {
            modp.append_row_i64(row).expect("modp append");
        }
        // The construction bounds the true rank by the basis size.
        assert!(modp.rank() <= rank, "construction rank bound at n={n}");
        assert_eq!(modp.nullity(), cols - modp.rank());
    }

    let reps = if n >= 96 { 1 } else { 3 };
    let exact_micros = shared.then(|| {
        time_micros(reps, || {
            let mut t = KernelTracker::new(cols);
            let mut sink = 0u64;
            for row in &rows {
                t.append_row_i64(row).expect("exact append");
                sink ^= t.rank() as u64;
            }
            black_box(sink);
        })
    });
    let modp_micros = time_micros(reps.max(3), || {
        let mut t = ModpKernelTracker::new(cols);
        let mut sink = 0u64;
        for row in &rows {
            t.append_row_i64(row).expect("modp append");
            sink ^= t.rank() as u64;
        }
        black_box(sink);
    });

    ModpCell {
        family: "random",
        cell: format!("n={n},r={r}"),
        rows: n,
        cols,
        exact_micros,
        modp_micros,
        scalar_micros: None,
        rank: None,
        echelon_digest: None,
    }
}

/// FNV-1a digest of a tracker's canonical echelon (rank, pivots and the
/// Montgomery-reduced residues of every stored row) — the value every
/// append path must agree on byte for byte.
pub fn echelon_digest(t: &ModpKernelTracker) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mix = |h: &mut u64, x: u64| {
        *h ^= x;
        *h = h.wrapping_mul(PRIME);
    };
    mix(&mut h, t.rank() as u64);
    for &p in t.pivots() {
        mix(&mut h, p as u64);
    }
    for i in 0..t.rank() {
        for v in t.echelon_row(i) {
            mix(&mut h, v);
        }
    }
    h
}

/// The fast family: `n` seeded rows over `3^r` columns, timing the
/// delayed-reduction fused append against the scalar reference path.
/// The un-timed gate checks the fused path leaves the tracker
/// byte-identical to the scalar path.
fn fast_cell(n: usize, r: u32, rank: usize, seed: u64) -> ModpCell {
    let cols = 3usize.pow(r);
    let rows = random_rows(n, cols, rank, seed);

    // Un-timed agreement gate.
    let mut scalar = ModpKernelTracker::new(cols);
    for row in &rows {
        scalar.append_row_scalar_i64(row).expect("scalar append");
    }
    let mut fused = ModpKernelTracker::new(cols);
    for row in &rows {
        fused.append_row_i64(row).expect("fused append");
    }
    assert_eq!(fused, scalar, "fused echelon diverged at n={n}, r={r}");
    assert!(scalar.rank() <= rank, "construction rank bound at n={n}");
    let digest = echelon_digest(&scalar);

    let reps = if n >= 50_000 { 2 } else { 3 };
    let scalar_micros = time_micros(reps, || {
        let mut t = ModpKernelTracker::new(cols);
        let mut sink = 0u64;
        for row in &rows {
            t.append_row_scalar_i64(row).expect("scalar append");
            sink ^= t.rank() as u64;
        }
        black_box(sink);
    });
    let fast_micros = time_micros(reps, || {
        let mut t = ModpKernelTracker::new(cols);
        let mut sink = 0u64;
        for row in &rows {
            t.append_row_i64(row).expect("fused append");
            sink ^= t.rank() as u64;
        }
        black_box(sink);
    });

    ModpCell {
        family: "fast",
        cell: format!("n={n},r={r}"),
        rows: n,
        cols,
        exact_micros: None,
        modp_micros: fast_micros,
        scalar_micros: Some(scalar_micros),
        rank: Some(scalar.rank()),
        echelon_digest: Some(digest),
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
        /// Whether the exact arm is timed too.
        shared: bool,
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
        /// Whether the exact arm is timed too.
        shared: bool,
    },
    /// One fast-family cell (fused vs scalar append).
    Fast {
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
            CellSpec::Mr { r, shared } => {
                format!("M_r:r={r}{}", if shared { "" } else { ":modp-only" })
            }
            CellSpec::Random {
                n, r, seed, shared, ..
            } => format!(
                "random:n={n},r={r},seed={seed}{}",
                if shared { "" } else { ":modp-only" }
            ),
            CellSpec::Fast { n, r, seed, .. } => format!("fast:n={n},r={r},seed={seed}"),
        }
    }

    /// Runs the cell (serially, for timing fidelity).
    ///
    /// # Panics
    ///
    /// Panics if a cross-check between the two backends (or against the
    /// structural invariants) fails — the checkpoint runner catches
    /// this into a `CellFailure`.
    pub fn run(&self) -> ModpCell {
        match *self {
            CellSpec::Mr { r, shared } => mr_cell(r, shared),
            CellSpec::Random {
                n,
                r,
                rank,
                seed,
                shared,
            } => random_cell(n, r, rank, seed, shared),
            CellSpec::Fast { n, r, rank, seed } => fast_cell(n, r, rank, seed),
        }
    }
}

/// The grid's cell specs, in grid order.
pub fn grid_specs(grid: Grid) -> Vec<CellSpec> {
    // Shared specs mirror `exp_linalg_scaling`'s grid (both arms timed);
    // the extended `n ∈ {256, 512, 1024}` cells are mod-p only; the
    // fast cells push the fused append path to `n = 10^5`.
    type GridTable = (
        &'static [usize],
        &'static [usize],
        &'static [RandomSpec],
        &'static [RandomSpec],
        &'static [RandomSpec],
    );
    let (mr_shared, mr_only, shared, only, fast): GridTable = match grid {
        Grid::Smoke => (&[1], &[], &[(16, 2, 4, 101)], &[], &[(2_000, 4, 24, 303)]),
        Grid::Quick => (
            &[1, 2],
            &[4],
            &[(32, 2, 6, 101), (64, 3, 10, 202)],
            &[(256, 4, 24, 505)],
            &[(10_000, 4, 40, 808)],
        ),
        Grid::Full => (
            &[1, 2, 3],
            &[4, 5],
            &[(32, 2, 6, 101), (64, 3, 10, 202), (128, 4, 20, 404)],
            &[(256, 4, 24, 505), (512, 4, 24, 606), (1024, 4, 28, 707)],
            &[(10_000, 4, 40, 808), (100_000, 4, 40, 909)],
        ),
    };
    let mut specs: Vec<CellSpec> = mr_shared
        .iter()
        .map(|&r| CellSpec::Mr { r, shared: true })
        .collect();
    specs.extend(mr_only.iter().map(|&r| CellSpec::Mr { r, shared: false }));
    specs.extend(shared.iter().map(|&(n, r, rank, seed)| CellSpec::Random {
        n,
        r,
        rank,
        seed,
        shared: true,
    }));
    specs.extend(only.iter().map(|&(n, r, rank, seed)| CellSpec::Random {
        n,
        r,
        rank,
        seed,
        shared: false,
    }));
    specs.extend(
        fast.iter()
            .map(|&(n, r, rank, seed)| CellSpec::Fast { n, r, rank, seed }),
    );
    specs
}

/// Runs the scaling grid serially (timing fidelity) and returns its
/// cells in grid order.
pub fn run_scaling(grid: Grid) -> Vec<ModpCell> {
    grid_specs(grid).iter().map(CellSpec::run).collect()
}

/// Serializes a cell as a single-line checkpoint payload.
///
/// The payload carries only strings and integers — the speedups are
/// derived permille ratios recomputed from the timings, which keeps
/// the journal parseable by [`anonet_trace::json`] (floats round-trip
/// unreliably and are rejected there).
pub fn cell_payload(cell: &ModpCell) -> String {
    let mut entries = vec![
        ("family".to_string(), Value::Str(cell.family.to_string())),
        ("cell".to_string(), Value::Str(cell.cell.clone())),
        ("rows".to_string(), Value::Int(cell.rows as i128)),
        ("cols".to_string(), Value::Int(cell.cols as i128)),
        (
            "modp_micros".to_string(),
            Value::Int(cell.modp_micros as i128),
        ),
    ];
    if let Some(e) = cell.exact_micros {
        entries.push(("exact_micros".to_string(), Value::Int(e as i128)));
    }
    if let Some(s) = cell.scalar_micros {
        entries.push(("scalar_micros".to_string(), Value::Int(s as i128)));
    }
    if let Some(r) = cell.rank {
        entries.push(("rank".to_string(), Value::Int(r as i128)));
    }
    if let Some(d) = cell.echelon_digest {
        entries.push(("echelon_digest".to_string(), Value::Int(d as i128)));
    }
    serde_json::to_string(&Value::Object(entries)).expect("cell serializes")
}

/// Rebuilds a cell from a checkpoint payload.
///
/// # Errors
///
/// Returns a description of the first missing/mistyped field or of an
/// unknown family.
pub fn cell_from_payload(payload: &anonet_trace::json::JsonValue) -> Result<ModpCell, String> {
    use anonet_trace::json::JsonValue;
    let int_field = |key: &str| -> Result<i128, String> {
        payload
            .get(key)
            .and_then(JsonValue::as_int)
            .ok_or_else(|| format!("cell payload is missing integer `{key}`"))
    };
    let family = match payload.get("family").and_then(JsonValue::as_str) {
        Some("M_r") => "M_r",
        Some("random") => "random",
        Some("fast") => "fast",
        Some(other) => return Err(format!("unknown cell family `{other}`")),
        None => return Err("cell payload is missing string `family`".to_string()),
    };
    let as_usize = |v: i128, key: &str| {
        usize::try_from(v).map_err(|_| format!("cell payload `{key}` out of range"))
    };
    let as_u64 =
        |v: i128, key: &str| u64::try_from(v).map_err(|_| format!("cell payload `{key}` out of range"));
    Ok(ModpCell {
        family,
        cell: payload
            .get("cell")
            .and_then(JsonValue::as_str)
            .ok_or("cell payload is missing string `cell`")?
            .to_string(),
        rows: as_usize(int_field("rows")?, "rows")?,
        cols: as_usize(int_field("cols")?, "cols")?,
        exact_micros: match payload.get("exact_micros") {
            Some(v) => Some(as_u64(
                v.as_int().ok_or("cell payload `exact_micros` must be an integer")?,
                "exact_micros",
            )?),
            None => None,
        },
        modp_micros: as_u64(int_field("modp_micros")?, "modp_micros")?,
        scalar_micros: match payload.get("scalar_micros") {
            Some(v) => Some(as_u64(
                v.as_int().ok_or("cell payload `scalar_micros` must be an integer")?,
                "scalar_micros",
            )?),
            None => None,
        },
        rank: match payload.get("rank") {
            Some(v) => Some(as_usize(
                v.as_int().ok_or("cell payload `rank` must be an integer")?,
                "rank",
            )?),
            None => None,
        },
        echelon_digest: match payload.get("echelon_digest") {
            Some(v) => Some(as_u64(
                v.as_int().ok_or("cell payload `echelon_digest` must be an integer")?,
                "echelon_digest",
            )?),
            None => None,
        },
    })
}

/// Renders a permille ratio as `12.3x`.
fn permille_display(permille: u64) -> String {
    format!("{}.{}x", permille / 1000, permille % 1000 / 100)
}

/// Renders the grid as the `modp_scaling` experiment table.
pub fn scaling_table(cells: &[ModpCell]) -> Table {
    let mut t = Table::new(
        "modp_scaling",
        "Exact vs mod-p incremental rank maintenance (µs per trajectory)",
        &[
            "family", "cell", "rows", "cols", "exact_us", "scalar_us", "modp_us", "speedup",
        ],
    );
    for c in cells {
        let speedup = c
            .speedup_permille()
            .or_else(|| c.fast_speedup_permille())
            .map_or("-".to_string(), permille_display);
        t.push_row(vec![
            c.family.to_string(),
            c.cell.clone(),
            c.rows.to_string(),
            c.cols.to_string(),
            c.exact_micros.map_or("-".to_string(), |e| e.to_string()),
            c.scalar_micros.map_or("-".to_string(), |s| s.to_string()),
            c.modp_micros.to_string(),
            speedup,
        ]);
    }
    t
}

/// The shared cell with the most matrix entries (`rows × cols`), if any.
pub fn largest_shared(cells: &[ModpCell]) -> Option<&ModpCell> {
    cells
        .iter()
        .filter(|c| c.exact_micros.is_some())
        .max_by_key(|c| c.rows * c.cols)
}

/// The fast cell with the most rows, if any.
pub fn largest_fast(cells: &[ModpCell]) -> Option<&ModpCell> {
    cells
        .iter()
        .filter(|c| c.scalar_micros.is_some())
        .max_by_key(|c| c.rows)
}

/// Acceptance gates for full runs of the grid.
///
/// * the largest shared cell must show ≥ [`SPEEDUP_FLOOR_PERMILLE`]
///   exact-over-modp speedup;
/// * at least one `n ≥ 512` cell must finish its mod-p trajectory under
///   [`EXACT_N128_BASELINE_MICROS`];
/// * the largest fast cell must reach [`MIN_LARGEST_FAST_ROWS`] rows
///   with ≥ [`FAST_SPEEDUP_FLOOR_PERMILLE`] scalar-over-fused speedup.
///
/// # Errors
///
/// Returns a description of the first violated gate.
pub fn check_gates(cells: &[ModpCell]) -> Result<(), String> {
    let largest = largest_shared(cells).ok_or("no shared cell in grid")?;
    let speedup = largest
        .speedup_permille()
        .expect("shared cell has both timings");
    if speedup < SPEEDUP_FLOOR_PERMILLE {
        return Err(format!(
            "largest shared cell {} speedup {speedup} permille < {SPEEDUP_FLOOR_PERMILLE}",
            largest.cell
        ));
    }
    let beats_baseline = cells
        .iter()
        .any(|c| c.rows >= 512 && c.modp_micros < EXACT_N128_BASELINE_MICROS);
    if !beats_baseline {
        return Err(format!(
            "no n >= 512 cell under the exact n=128 baseline of {EXACT_N128_BASELINE_MICROS} us"
        ));
    }
    let fast = largest_fast(cells).ok_or("no fast cell in grid")?;
    if (fast.rows as u64) < MIN_LARGEST_FAST_ROWS {
        return Err(format!(
            "largest fast cell tops out at {} rows, below the {MIN_LARGEST_FAST_ROWS} target",
            fast.rows
        ));
    }
    let fast_speedup = fast
        .fast_speedup_permille()
        .expect("fast cell has both timings");
    if fast_speedup < FAST_SPEEDUP_FLOOR_PERMILLE {
        return Err(format!(
            "largest fast cell {} speedup {fast_speedup} permille < {FAST_SPEEDUP_FLOOR_PERMILLE}",
            fast.cell
        ));
    }
    Ok(())
}

/// Builds the `BENCH_modp.json` document (schema v2, all-integer) for
/// a finished grid. With `timings = false` every wall-clock field (and
/// the timing-derived `largest_shared_cell`) is omitted, leaving only
/// the deterministic facts — rows, cols, rank, echelon digest — so every
/// run emits a byte-identical document.
///
/// # Panics
///
/// Panics if `timings` is set and the grid has no shared cell.
pub fn bench_doc(cells: &[ModpCell], timings: bool) -> Value {
    let obj = |c: &ModpCell| {
        let mut entries = vec![
            ("family".to_string(), Value::Str(c.family.to_string())),
            ("cell".to_string(), Value::Str(c.cell.clone())),
            ("rows".to_string(), Value::Int(c.rows as i128)),
            ("cols".to_string(), Value::Int(c.cols as i128)),
        ];
        if timings {
            entries.push(("modp_micros".to_string(), Value::Int(c.modp_micros as i128)));
            if let Some(e) = c.exact_micros {
                entries.push(("exact_micros".to_string(), Value::Int(e as i128)));
                entries.push((
                    "speedup_permille".to_string(),
                    Value::Int(c.speedup_permille().expect("shared cell") as i128),
                ));
            }
            if let Some(s) = c.scalar_micros {
                entries.push(("scalar_micros".to_string(), Value::Int(s as i128)));
                entries.push((
                    "fast_speedup_permille".to_string(),
                    Value::Int(c.fast_speedup_permille().expect("fast cell") as i128),
                ));
            }
        }
        if let Some(r) = c.rank {
            entries.push(("rank".to_string(), Value::Int(r as i128)));
        }
        if let Some(d) = c.echelon_digest {
            entries.push(("echelon_digest".to_string(), Value::Int(d as i128)));
        }
        Value::Object(entries)
    };
    let mut entries = vec![
        ("bench".to_string(), Value::Str("modp_scaling".to_string())),
        ("schema_version".to_string(), Value::Int(2)),
        (
            "exact_n128_baseline_micros".to_string(),
            Value::Int(EXACT_N128_BASELINE_MICROS as i128),
        ),
        (
            "grid".to_string(),
            Value::Array(cells.iter().map(obj).collect()),
        ),
    ];
    if timings {
        let largest = largest_shared(cells).expect("grid has a shared cell");
        entries.push(("largest_shared_cell".to_string(), obj(largest)));
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

/// Schema check for the `BENCH_modp.json` document (schema v2).
///
/// Runs in-process (the vendored `serde_json` has no parser): top-level
/// keys, per-cell key/variant shape, positive all-integer timings,
/// shared cells carrying consistent `exact_micros`/`speedup_permille`,
/// fast cells carrying `scalar_micros`/`fast_speedup_permille`/`rank`/
/// `echelon_digest`, and that `largest_shared_cell` (required exactly
/// when the document carries timings) really is the shared cell with
/// the most entries.
///
/// # Errors
///
/// Returns a description of the first violated schema rule.
pub fn validate_doc(doc: &Value) -> Result<(), String> {
    match field(doc, "bench")? {
        Value::Str(s) if s == "modp_scaling" => {}
        other => return Err(format!("bad bench name: {other:?}")),
    }
    match field(doc, "schema_version")? {
        Value::Int(2) => {}
        other => return Err(format!("bad schema_version: {other:?}")),
    }
    match field(doc, "exact_n128_baseline_micros")? {
        Value::Int(v) if *v == EXACT_N128_BASELINE_MICROS as i128 => {}
        other => return Err(format!("bad exact_n128_baseline_micros: {other:?}")),
    }
    // Returns (rows*cols, is_shared, is_timed) for consistency checks.
    let cell_shape = |cell: &Value| -> Result<(i128, bool, bool), String> {
        let family = match field(cell, "family")? {
            Value::Str(s) if s == "M_r" || s == "random" || s == "fast" => s.clone(),
            other => return Err(format!("bad family: {other:?}")),
        };
        let Value::Str(_) = field(cell, "cell")? else {
            return Err("cell label must be a string".to_string());
        };
        let positive = |key: &str| -> Result<i128, String> {
            match field(cell, key)? {
                Value::Int(v) if *v > 0 => Ok(*v),
                other => Err(format!("bad {key}: {other:?}")),
            }
        };
        let rows = positive("rows")?;
        let cols = positive("cols")?;
        let timed = field(cell, "modp_micros").is_ok();
        if timed {
            positive("modp_micros")?;
        }
        let shared = field(cell, "exact_micros").is_ok();
        if shared {
            positive("exact_micros")?;
            positive("speedup_permille")?;
        }
        if family == "fast" {
            positive("rank")?;
            match field(cell, "echelon_digest")? {
                Value::Int(v) if *v >= 0 => {}
                other => return Err(format!("bad echelon_digest: {other:?}")),
            }
            if timed {
                positive("scalar_micros")?;
                positive("fast_speedup_permille")?;
            }
        } else if field(cell, "scalar_micros").is_ok() {
            return Err(format!("family {family} must not carry scalar_micros"));
        }
        if shared && !timed {
            return Err("shared cell carries exact timings but no modp_micros".to_string());
        }
        Ok((rows * cols, shared, timed))
    };
    let Value::Array(grid) = field(doc, "grid")? else {
        return Err("grid must be an array".to_string());
    };
    if grid.is_empty() {
        return Err("grid must be non-empty".to_string());
    }
    let mut max_shared = 0i128;
    let mut timed_doc = None;
    for cell in grid {
        let (entries, shared, timed) = cell_shape(cell)?;
        if *timed_doc.get_or_insert(timed) != timed {
            return Err("grid mixes timed and timing-free cells".to_string());
        }
        if shared {
            max_shared = max_shared.max(entries);
        }
    }
    if timed_doc != Some(true) {
        if field(doc, "largest_shared_cell").is_ok() {
            return Err("timing-free docs must omit largest_shared_cell".to_string());
        }
        return Ok(());
    }
    if max_shared == 0 {
        return Err("grid has no shared cell".to_string());
    }
    let largest = field(doc, "largest_shared_cell")?;
    let (entries, shared, _) = cell_shape(largest)?;
    if !shared {
        return Err("largest_shared_cell must carry exact timings".to_string());
    }
    if entries != max_shared {
        return Err(format!(
            "largest_shared_cell has {entries} entries but the shared maximum is {max_shared}"
        ));
    }
    Ok(())
}

/// Gates a *committed* `BENCH_modp.json`, re-parsed through the
/// vendored [`anonet_trace::json`] reader (the `--lint-bench` CI
/// check): full schema including timings, the
/// [`SPEEDUP_FLOOR_PERMILLE`] floor at the best shared cell, the
/// `n ≥ 512` cell under [`EXACT_N128_BASELINE_MICROS`], and the
/// largest fast cell reaching [`MIN_LARGEST_FAST_ROWS`] rows at
/// ≥ [`FAST_SPEEDUP_FLOOR_PERMILLE`].
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
    if str_field(doc, "bench")? != "modp_scaling" {
        return Err("bad bench name".to_string());
    }
    if int_field(doc, "schema_version")? != 2 {
        return Err("bad schema_version".to_string());
    }
    if int_field(doc, "exact_n128_baseline_micros")? != EXACT_N128_BASELINE_MICROS as i128 {
        return Err(format!(
            "committed baseline differs from the compiled {EXACT_N128_BASELINE_MICROS} us"
        ));
    }
    let grid = doc
        .get("grid")
        .and_then(JsonValue::as_array)
        .ok_or("missing array `grid`")?;
    if grid.is_empty() {
        return Err("grid must be non-empty".to_string());
    }
    let mut best_shared: Option<i128> = None;
    let mut under_baseline = false;
    let mut best_fast: Option<(i128, i128)> = None; // (rows, permille)
    for cell in grid {
        let label = str_field(cell, "cell")?;
        let rows = int_field(cell, "rows")?;
        for key in ["cols", "modp_micros"] {
            if int_field(cell, key)? <= 0 {
                return Err(format!("cell {label}: {key} must be positive"));
            }
        }
        let modp = int_field(cell, "modp_micros")?;
        if rows >= 512 && modp < EXACT_N128_BASELINE_MICROS as i128 {
            under_baseline = true;
        }
        if cell.get("exact_micros").is_some() {
            let permille = int_field(cell, "speedup_permille")?;
            if best_shared.is_none_or(|b| permille > b) {
                best_shared = Some(permille);
            }
        }
        if str_field(cell, "family")? == "fast" {
            let permille = int_field(cell, "fast_speedup_permille")?;
            if int_field(cell, "scalar_micros")? <= 0 || int_field(cell, "rank")? <= 0 {
                return Err(format!("cell {label}: bad fast-cell fields"));
            }
            int_field(cell, "echelon_digest")?;
            if best_fast.is_none_or(|(br, _)| rows > br) {
                best_fast = Some((rows, permille));
            }
        }
    }
    let best = best_shared.ok_or("no shared cell in committed grid")?;
    if best < SPEEDUP_FLOOR_PERMILLE as i128 {
        return Err(format!(
            "best shared cell speedup {best} permille < {SPEEDUP_FLOOR_PERMILLE}"
        ));
    }
    if !under_baseline {
        return Err(format!(
            "no n >= 512 cell under the exact n=128 baseline of {EXACT_N128_BASELINE_MICROS} us"
        ));
    }
    let (rows, permille) = best_fast.ok_or("no fast cell in committed grid")?;
    if rows < MIN_LARGEST_FAST_ROWS as i128 {
        return Err(format!(
            "committed fast cells top out at {rows} rows, below the {MIN_LARGEST_FAST_ROWS} target"
        ));
    }
    if permille < FAST_SPEEDUP_FLOOR_PERMILLE as i128 {
        return Err(format!(
            "largest fast cell speedup {permille} permille < {FAST_SPEEDUP_FLOOR_PERMILLE}"
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
        assert_eq!(cells.len(), 3);
        assert!(cells.iter().all(|c| c.modp_micros >= 1));
        let fast = largest_fast(&cells).expect("smoke grid has a fast cell");
        assert_eq!(fast.rows, 2_000);
        assert!(fast.rank.is_some() && fast.echelon_digest.is_some());
        let doc = bench_doc(&cells, true);
        validate_doc(&doc).expect("smoke doc validates");
        let table = scaling_table(&cells);
        assert_eq!(table.rows.len(), cells.len());

        // The timing-free form validates too and is deterministic: it
        // carries no wall-clock field at all.
        let doc = bench_doc(&cells, false);
        validate_doc(&doc).expect("timing-free doc validates");
        let text = serde_json::to_string(&doc).expect("doc serializes");
        for key in ["modp_micros", "exact_micros", "scalar_micros", "permille"] {
            assert!(!text.contains(key), "timing-free doc leaks {key}");
        }
        assert!(text.contains("echelon_digest"));
    }

    #[test]
    fn fast_cell_payload_roundtrips() {
        let cell = ModpCell {
            family: "fast",
            cell: "n=100000,r=4".to_string(),
            rows: 100_000,
            cols: 81,
            exact_micros: None,
            modp_micros: 1_000,
            scalar_micros: Some(3_700),
            rank: Some(40),
            echelon_digest: Some(u64::MAX - 1),
        };
        let payload = cell_payload(&cell);
        let parsed = anonet_trace::json::JsonValue::parse(&payload).expect("payload parses");
        assert_eq!(cell_from_payload(&parsed).expect("payload rebuilds"), cell);
        assert_eq!(cell.fast_speedup_permille(), Some(3_700));
    }

    #[test]
    fn lint_accepts_gated_docs_and_rejects_shortfalls() {
        let shared = ModpCell {
            family: "random",
            cell: "n=128,r=4".to_string(),
            rows: 128,
            cols: 81,
            exact_micros: Some(10_000),
            modp_micros: 100,
            scalar_micros: None,
            rank: None,
            echelon_digest: None,
        };
        let big = ModpCell {
            family: "random",
            cell: "n=512,r=4".to_string(),
            rows: 512,
            cols: 81,
            exact_micros: None,
            modp_micros: 2_000,
            scalar_micros: None,
            rank: None,
            echelon_digest: None,
        };
        let fast = ModpCell {
            family: "fast",
            cell: "n=100000,r=4".to_string(),
            rows: 100_000,
            cols: 81,
            exact_micros: None,
            modp_micros: 1_000,
            scalar_micros: Some(3_700),
            rank: Some(40),
            echelon_digest: Some(7),
        };
        let lint = |cells: &[ModpCell]| -> Result<(), String> {
            let text =
                serde_json::to_string(&bench_doc(cells, true)).expect("doc serializes");
            let doc = anonet_trace::json::JsonValue::parse(&text).expect("doc re-parses");
            lint_committed(&doc)
        };
        lint(&[shared.clone(), big.clone(), fast.clone()]).expect("gated doc lints");

        let slow_fast = ModpCell {
            scalar_micros: Some(2_000),
            ..fast.clone()
        };
        assert!(lint(&[shared.clone(), big.clone(), slow_fast])
            .unwrap_err()
            .contains("fast cell speedup"));

        let small_fast = ModpCell {
            rows: 50_000,
            ..fast.clone()
        };
        assert!(lint(&[shared.clone(), big.clone(), small_fast])
            .unwrap_err()
            .contains("top out"));

        assert!(lint(&[shared, big])
            .unwrap_err()
            .contains("no fast cell"));
    }

    #[test]
    fn echelon_digest_is_stable_and_path_independent() {
        let rows = random_rows(48, 27, 8, 1234);
        let mut a = ModpKernelTracker::new(27);
        let mut b = ModpKernelTracker::new(27);
        for row in &rows {
            a.append_row_i64(row).unwrap();
            b.append_row_scalar_i64(row).unwrap();
        }
        assert_eq!(echelon_digest(&a), echelon_digest(&b));
        let mut d = ModpKernelTracker::new(27);
        for row in &random_rows(48, 27, 8, 4321) {
            d.append_row_i64(row).unwrap();
        }
        assert_ne!(echelon_digest(&a), echelon_digest(&d), "digest sees content");
    }

    #[test]
    fn validation_rejects_tampered_docs() {
        let cells = run_scaling(Grid::Smoke);
        let doc = bench_doc(&cells, true);

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

        // largest_shared_cell inconsistent with the grid.
        let mut bad = doc.clone();
        if let Value::Object(entries) = &mut bad {
            for (k, v) in entries.iter_mut() {
                if k == "largest_shared_cell" {
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
        assert!(validate_doc(&bad)
            .unwrap_err()
            .contains("largest_shared_cell"));

        // Missing baseline anchor.
        let bad = Value::Object(vec![
            ("bench".to_string(), Value::Str("modp_scaling".to_string())),
            ("schema_version".to_string(), Value::Int(2)),
        ]);
        assert!(validate_doc(&bad)
            .unwrap_err()
            .contains("exact_n128_baseline_micros"));
    }

    #[test]
    fn gates_judge_speedup_baseline_and_fast_floor() {
        let shared = ModpCell {
            family: "random",
            cell: "n=128,r=4".to_string(),
            rows: 128,
            cols: 81,
            exact_micros: Some(10_000),
            modp_micros: 100,
            scalar_micros: None,
            rank: None,
            echelon_digest: None,
        };
        let big = ModpCell {
            family: "random",
            cell: "n=512,r=4".to_string(),
            rows: 512,
            cols: 81,
            exact_micros: None,
            modp_micros: 2_000,
            scalar_micros: None,
            rank: None,
            echelon_digest: None,
        };
        let fast = ModpCell {
            family: "fast",
            cell: "n=100000,r=4".to_string(),
            rows: 100_000,
            cols: 81,
            exact_micros: None,
            modp_micros: 1_000,
            scalar_micros: Some(3_700),
            rank: Some(40),
            echelon_digest: Some(7),
        };
        check_gates(&[shared.clone(), big.clone(), fast.clone()]).expect("all gates pass");

        let slow_shared = ModpCell {
            exact_micros: Some(300),
            ..shared.clone()
        };
        assert!(check_gates(&[slow_shared, big.clone(), fast.clone()])
            .unwrap_err()
            .contains("speedup"));

        let slow_big = ModpCell {
            modp_micros: EXACT_N128_BASELINE_MICROS + 1,
            ..big.clone()
        };
        // The fast cell would satisfy the n >= 512 baseline gate itself,
        // so slow it past the anchor too (its scalar arm keeps the fast
        // floor satisfied so the baseline gate is the one that trips).
        let slow_anchor_fast = ModpCell {
            modp_micros: EXACT_N128_BASELINE_MICROS + 1,
            scalar_micros: Some((EXACT_N128_BASELINE_MICROS + 1) * 4),
            ..fast.clone()
        };
        assert!(check_gates(&[shared.clone(), slow_big, slow_anchor_fast])
            .unwrap_err()
            .contains("baseline"));

        let slow_fast = ModpCell {
            modp_micros: 2_000,
            ..fast.clone()
        };
        assert!(check_gates(&[shared.clone(), big.clone(), slow_fast])
            .unwrap_err()
            .contains("fast cell"));

        assert!(check_gates(&[shared, big])
            .unwrap_err()
            .contains("no fast cell"));
    }

    #[test]
    fn random_family_trajectories_are_seeded() {
        assert_eq!(random_rows(8, 9, 3, 42), random_rows(8, 9, 3, 42));
        assert_ne!(random_rows(8, 9, 3, 42), random_rows(8, 9, 3, 43));
    }
}
