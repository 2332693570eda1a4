//! Incremental echelon maintenance under row appends.
//!
//! The leader of the paper's counting game only ever *appends* rows to its
//! observation system: each new round contributes the next level of
//! connection constraints, and nothing already observed is ever revised.
//! [`KernelTracker`] exploits that: it maintains the reduced row echelon
//! form of everything appended so far, so a rank / nullity / kernel-basis
//! query after round `r + 1` costs one row-reduction against the existing
//! echelon instead of the full re-elimination that batch
//! [`gauss::rref`](crate::gauss::rref) performs.
//!
//! Two arithmetic paths back every append:
//!
//! * a **fraction-free integer fast path** (Bareiss-style): rows are kept
//!   as primitive `i128` vectors and eliminated by checked
//!   cross-multiplication with gcd normalization, so no rationals are
//!   materialized;
//! * a **rational fallback**: if any intermediate product overflows
//!   `i128`, the same append is retried with exact [`Ratio`] arithmetic,
//!   which survives cases where the cross-multiplied intermediates are
//!   large but the reduced rationals are small.
//!
//! If both paths overflow, the append fails with
//! [`LinalgError::Overflow`] and the tracker is left **unchanged** — a
//! degraded instance reports an error instead of a silently wrong kernel.
//!
//! Because the reduced row echelon form of a matrix is canonical, every
//! query answer is bit-identical to the batch reference implementation in
//! [`gauss`](crate::gauss) (see the equivalence property tests).
//!
//! # Examples
//!
//! Track the paper's `M_0` one row at a time:
//!
//! ```
//! use anonet_linalg::KernelTracker;
//!
//! let mut t = KernelTracker::new(3);
//! t.append_row_i64(&[1, 0, 1])?;
//! t.append_row_i64(&[0, 1, 1])?;
//! assert_eq!(t.rank(), 2);
//! assert_eq!(t.nullity(), 1);
//! let k0 = t.kernel_basis_integer()?;
//! assert_eq!(k0, vec![vec![-1, -1, 1]]);
//! # Ok::<(), anonet_linalg::LinalgError>(())
//! ```

use crate::error::{LinalgError, Result};
use crate::gauss::{self, Echelon};
use crate::matrix::Matrix;
use crate::ratio::{gcd_i128, Ratio};

/// Entry magnitude above which the integer path re-normalizes a row
/// mid-elimination (cheap insurance against avoidable overflow).
const RENORM_THRESHOLD: i128 = 1 << 96;

/// Incrementally maintained reduced row echelon form of an append-only
/// matrix, with exact rank / nullity / kernel queries.
///
/// See the [module documentation](self) for the maintained invariant and
/// arithmetic strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelTracker {
    cols: usize,
    appended: usize,
    /// Non-zero echelon rows: row `i` is the `i`-th row of the RREF,
    /// scaled to a primitive integer vector (gcd 1) whose leading (pivot)
    /// entry is positive. Sorted by pivot column.
    rows: Vec<Vec<i128>>,
    /// Pivot column of each stored row, strictly increasing.
    pivots: Vec<usize>,
}

/// Outcome of reducing one appended row against the current echelon.
enum Reduced {
    /// The row was a linear combination of earlier rows.
    Dependent,
    /// The row added a pivot: its primitive echelon form, plus the
    /// back-eliminated replacements for existing rows.
    Independent {
        lead: usize,
        row: Vec<i128>,
        updated: Vec<(usize, Vec<i128>)>,
    },
}

/// Divides `v` by the gcd of its entries and flips signs so the leading
/// non-zero entry is positive. No-op on the zero vector.
fn primitivize(v: &mut [i128]) -> Result<()> {
    let mut g: i128 = 0;
    for &x in v.iter() {
        let a = x.checked_abs().ok_or(LinalgError::Overflow)?;
        g = gcd_i128(g, a);
    }
    if g > 1 {
        for x in v.iter_mut() {
            *x /= g;
        }
    }
    if let Some(&lead) = v.iter().find(|&&x| x != 0) {
        if lead < 0 {
            for x in v.iter_mut() {
                *x = x.checked_neg().ok_or(LinalgError::Overflow)?;
            }
        }
    }
    Ok(())
}

impl KernelTracker {
    /// A tracker over `cols` columns with no rows appended yet (rank 0,
    /// nullity `cols`).
    pub fn new(cols: usize) -> KernelTracker {
        KernelTracker {
            cols,
            appended: 0,
            rows: Vec::new(),
            pivots: Vec::new(),
        }
    }

    /// Number of columns of the tracked matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows appended so far (including dependent ones).
    pub fn appended_rows(&self) -> usize {
        self.appended
    }

    /// Rank of the tracked matrix.
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Nullity (kernel dimension) of the tracked matrix.
    pub fn nullity(&self) -> usize {
        self.cols - self.rank()
    }

    /// Pivot columns of the maintained echelon, ascending.
    pub fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    /// Appends one row given as `i64` entries.
    ///
    /// Returns `true` iff the row increased the rank. On error the
    /// tracker is unchanged.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] for a wrong-length row;
    /// [`LinalgError::Overflow`] if both arithmetic paths overflow `i128`.
    pub fn append_row_i64(&mut self, row: &[i64]) -> Result<bool> {
        let wide: Vec<i128> = row.iter().map(|&x| x as i128).collect();
        self.append_row_i128(&wide)
    }

    /// Appends one row given as `i128` entries.
    ///
    /// Returns `true` iff the row increased the rank. On error the
    /// tracker is unchanged.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KernelTracker::append_row_i64`].
    pub fn append_row_i128(&mut self, row: &[i128]) -> Result<bool> {
        if row.len() != self.cols {
            return Err(LinalgError::dims(format!(
                "append of length-{} row to {}-column tracker",
                row.len(),
                self.cols
            )));
        }
        let reduced = match self.reduce_integer(row) {
            Ok(r) => r,
            Err(LinalgError::Overflow) => {
                let rational: Vec<Ratio> = row.iter().map(|&x| Ratio::from_integer(x)).collect();
                self.reduce_rational(&rational)?
            }
            Err(e) => return Err(e),
        };
        Ok(self.commit(reduced))
    }

    /// Appends one row of exact rationals.
    ///
    /// The row is first scaled to a primitive integer vector (via
    /// [`gauss::to_integer_vector`]) for the fast path; if that scaling or
    /// the integer elimination overflows, the append is retried in
    /// rational arithmetic. Returns `true` iff the row increased the
    /// rank. On error the tracker is unchanged.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KernelTracker::append_row_i64`].
    pub fn append_row(&mut self, row: &[Ratio]) -> Result<bool> {
        if row.len() != self.cols {
            return Err(LinalgError::dims(format!(
                "append of length-{} row to {}-column tracker",
                row.len(),
                self.cols
            )));
        }
        let integer_attempt =
            gauss::to_integer_vector(row).and_then(|ints| self.reduce_integer(&ints));
        let reduced = match integer_attempt {
            Ok(r) => r,
            Err(LinalgError::Overflow) => self.reduce_rational(row)?,
            Err(e) => return Err(e),
        };
        Ok(self.commit(reduced))
    }

    /// Appends a row given as strictly-ascending `(column, value)` pairs.
    ///
    /// The observation rows of the counting game have 2–3 non-zeros
    /// across thousands of columns; this entry point skips materializing
    /// the caller-side dense row. The committed state is identical to
    /// [`KernelTracker::append_row_i64`] on the densified row (the sparse
    /// form only changes how the input is *spelled*, not the arithmetic).
    /// Returns `true` iff the row increased the rank. On error the
    /// tracker is unchanged.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] for an out-of-range column or
    /// non-ascending column order; [`LinalgError::Overflow`] as for
    /// [`KernelTracker::append_row_i64`].
    pub fn append_row_sparse_i64(&mut self, entries: &[(usize, i64)]) -> Result<bool> {
        let mut v = vec![0i128; self.cols];
        let mut prev: Option<usize> = None;
        for &(c, x) in entries {
            if c >= self.cols {
                return Err(LinalgError::dims(format!(
                    "sparse entry at column {c} in {}-column tracker",
                    self.cols
                )));
            }
            if prev.is_some_and(|p| p >= c) {
                return Err(LinalgError::dims(format!(
                    "sparse entries must have strictly ascending columns (column {c})"
                )));
            }
            prev = Some(c);
            v[c] = x as i128;
        }
        self.append_row_i128(&v)
    }

    /// Appends every row of `m` in order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KernelTracker::append_row`]; rows appended
    /// before the failing one remain committed.
    pub fn append_matrix(&mut self, m: &Matrix) -> Result<()> {
        for r in 0..m.rows() {
            self.append_row(m.row(r))?;
        }
        Ok(())
    }

    /// Replaces every column by `factor` adjacent copies of itself: the
    /// tracked matrix `M` becomes `M ⊗ 1ᵀ_factor`.
    ///
    /// This is the column-refinement step of the leader's observation
    /// system: between rounds every length-`r` history splits into its
    /// `factor` one-round extensions, and an old constraint row applies
    /// equally to all children. Because the Kronecker product with an
    /// all-ones row vector maps the canonical RREF of `M` to the
    /// canonical RREF of `M ⊗ 1ᵀ` (pivot columns land on each first
    /// copy), the echelon is updated in `O(rank · cols · factor)` with no
    /// re-elimination.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] for `factor == 0`;
    /// [`LinalgError::Overflow`] if the new column count overflows.
    pub fn extend_columns(&mut self, factor: usize) -> Result<()> {
        if factor == 0 {
            return Err(LinalgError::dims("column extension factor must be >= 1"));
        }
        if factor == 1 {
            return Ok(());
        }
        let new_cols = self.cols.checked_mul(factor).ok_or(LinalgError::Overflow)?;
        // Scale the pivots first, with checked arithmetic, so a failure
        // leaves the tracker untouched instead of half-widened.
        let pivots: Vec<usize> = self
            .pivots
            .iter()
            .map(|p| p.checked_mul(factor).ok_or(LinalgError::Overflow))
            .collect::<Result<_>>()?;
        for row in &mut self.rows {
            let mut wide = Vec::with_capacity(new_cols);
            for &x in row.iter() {
                for _ in 0..factor {
                    wide.push(x);
                }
            }
            *row = wide;
        }
        self.pivots = pivots;
        self.cols = new_cols;
        Ok(())
    }

    /// The maintained reduced row echelon form, padded with zero rows to
    /// the appended row count — bit-identical to
    /// [`gauss::rref`](crate::gauss::rref) of the appended matrix.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Overflow`] if normalizing a stored row overflows
    /// (cannot happen for rows that committed successfully, but the
    /// conversion is checked anyway).
    pub fn echelon(&self) -> Result<Echelon> {
        let mut m = Matrix::zeros(self.appended, self.cols);
        for (i, row) in self.rows.iter().enumerate() {
            let d = row[self.pivots[i]];
            for (c, &x) in row.iter().enumerate() {
                if x != 0 {
                    m.set(i, c, Ratio::new(x, d)?);
                }
            }
        }
        Ok(Echelon {
            rref: m,
            pivots: self.pivots.clone(),
        })
    }

    /// A basis of the kernel of the tracked matrix, one rational vector
    /// per free column — bit-identical to
    /// [`gauss::kernel_basis`](crate::gauss::kernel_basis) of the
    /// appended matrix.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Overflow`] on (theoretical) conversion overflow.
    pub fn kernel_basis(&self) -> Result<Vec<Vec<Ratio>>> {
        let mut pivot_of_col: Vec<Option<usize>> = vec![None; self.cols];
        for (row, &col) in self.pivots.iter().enumerate() {
            pivot_of_col[col] = Some(row);
        }
        let mut basis = Vec::with_capacity(self.nullity());
        for free in 0..self.cols {
            if pivot_of_col[free].is_some() {
                continue;
            }
            let mut vec = vec![Ratio::ZERO; self.cols];
            vec[free] = Ratio::ONE;
            for (col, pr) in pivot_of_col.iter().enumerate() {
                if let Some(row) = pr {
                    let d = self.rows[*row][self.pivots[*row]];
                    vec[col] = Ratio::new(self.rows[*row][free], d)?.checked_neg()?;
                }
            }
            basis.push(vec);
        }
        Ok(basis)
    }

    /// The kernel basis scaled to primitive integer vectors (via
    /// [`gauss::to_integer_vector`]).
    ///
    /// # Errors
    ///
    /// [`LinalgError::Overflow`] if a basis vector does not fit `i128`
    /// after clearing denominators.
    pub fn kernel_basis_integer(&self) -> Result<Vec<Vec<i128>>> {
        self.kernel_basis()?
            .iter()
            .map(|v| gauss::to_integer_vector(v))
            .collect()
    }

    /// Fraction-free forward elimination and back-substitution of one new
    /// row. Pure: does not mutate the tracker.
    fn reduce_integer(&self, row: &[i128]) -> Result<Reduced> {
        let mut v = row.to_vec();
        for (i, &pc) in self.pivots.iter().enumerate() {
            let a = v[pc];
            if a == 0 {
                continue;
            }
            let d = self.rows[i][pc];
            for (c, x) in v.iter_mut().enumerate() {
                let scaled = x.checked_mul(d).ok_or(LinalgError::Overflow)?;
                let sub = self.rows[i][c]
                    .checked_mul(a)
                    .ok_or(LinalgError::Overflow)?;
                *x = scaled.checked_sub(sub).ok_or(LinalgError::Overflow)?;
            }
            debug_assert_eq!(v[pc], 0);
            if v.iter()
                .any(|x| x.unsigned_abs() > RENORM_THRESHOLD as u128)
            {
                primitivize(&mut v)?;
            }
        }
        let Some(lead) = v.iter().position(|&x| x != 0) else {
            return Ok(Reduced::Dependent);
        };
        primitivize(&mut v)?;
        let d = v[lead];
        let mut updated = Vec::new();
        for (i, r) in self.rows.iter().enumerate() {
            let a = r[lead];
            if a == 0 {
                continue;
            }
            let mut nr = Vec::with_capacity(self.cols);
            for (c, &x) in r.iter().enumerate() {
                let scaled = x.checked_mul(d).ok_or(LinalgError::Overflow)?;
                let sub = v[c].checked_mul(a).ok_or(LinalgError::Overflow)?;
                nr.push(scaled.checked_sub(sub).ok_or(LinalgError::Overflow)?);
            }
            primitivize(&mut nr)?;
            updated.push((i, nr));
        }
        Ok(Reduced::Independent {
            lead,
            row: v,
            updated,
        })
    }

    /// Exact rational elimination of one new row — the fallback when the
    /// integer path overflows. Pure: does not mutate the tracker.
    fn reduce_rational(&self, row: &[Ratio]) -> Result<Reduced> {
        let mut v = row.to_vec();
        for (i, &pc) in self.pivots.iter().enumerate() {
            let a = v[pc];
            if a.is_zero() {
                continue;
            }
            let d = self.rows[i][pc];
            for (c, x) in v.iter_mut().enumerate() {
                if self.rows[i][c] == 0 {
                    continue;
                }
                let entry = Ratio::new(self.rows[i][c], d)?;
                *x = x.checked_sub(&a.checked_mul(&entry)?)?;
            }
            debug_assert!(v[pc].is_zero());
        }
        let Some(lead) = v.iter().position(|x| !x.is_zero()) else {
            return Ok(Reduced::Dependent);
        };
        // Normalize to the RREF row (leading 1), then store its primitive
        // integer scaling.
        let inv = v[lead].checked_recip()?;
        for x in v.iter_mut() {
            *x = x.checked_mul(&inv)?;
        }
        let ints = gauss::to_integer_vector(&v)?;
        let mut updated = Vec::new();
        for (i, r) in self.rows.iter().enumerate() {
            let pc = self.pivots[i];
            if r[lead] == 0 {
                continue;
            }
            let factor = Ratio::new(r[lead], r[pc])?;
            let mut nr = Vec::with_capacity(self.cols);
            for (c, &x) in r.iter().enumerate() {
                let old = Ratio::new(x, r[pc])?;
                nr.push(old.checked_sub(&factor.checked_mul(&v[c])?)?);
            }
            updated.push((i, gauss::to_integer_vector(&nr)?));
        }
        Ok(Reduced::Independent {
            lead,
            row: ints,
            updated,
        })
    }

    /// Applies a successful reduction; returns whether the rank grew.
    fn commit(&mut self, reduced: Reduced) -> bool {
        self.appended += 1;
        match reduced {
            Reduced::Dependent => false,
            Reduced::Independent { lead, row, updated } => {
                for (i, nr) in updated {
                    self.rows[i] = nr;
                }
                let at = self.pivots.partition_point(|&p| p < lead);
                self.pivots.insert(at, lead);
                self.rows.insert(at, row);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker_of(rows: &[&[i64]]) -> KernelTracker {
        let mut t = KernelTracker::new(rows[0].len());
        for r in rows {
            t.append_row_i64(r).unwrap();
        }
        t
    }

    fn batch(rows: &[&[i64]]) -> Matrix {
        Matrix::from_i64_rows(rows).unwrap()
    }

    #[test]
    fn matches_batch_on_paper_m1() {
        let rows: [&[i64]; 8] = [
            &[1, 1, 1, 0, 0, 0, 1, 1, 1],
            &[0, 0, 0, 1, 1, 1, 1, 1, 1],
            &[1, 0, 1, 0, 0, 0, 0, 0, 0],
            &[0, 0, 0, 1, 0, 1, 0, 0, 0],
            &[0, 0, 0, 0, 0, 0, 1, 0, 1],
            &[0, 1, 1, 0, 0, 0, 0, 0, 0],
            &[0, 0, 0, 0, 1, 1, 0, 0, 0],
            &[0, 0, 0, 0, 0, 0, 0, 1, 1],
        ];
        let mut t = KernelTracker::new(9);
        for (i, r) in rows.iter().enumerate() {
            t.append_row_i64(r).unwrap();
            let prefix = batch(&rows[..=i]);
            let ech = gauss::rref(&prefix).unwrap();
            assert_eq!(t.rank(), ech.rank(), "prefix {}", i + 1);
            assert_eq!(t.echelon().unwrap().rref, ech.rref, "prefix {}", i + 1);
            assert_eq!(
                t.kernel_basis().unwrap(),
                gauss::kernel_basis(&prefix).unwrap(),
                "prefix {}",
                i + 1
            );
        }
        assert_eq!(t.rank(), 8);
        assert_eq!(t.nullity(), 1);
        let k = t.kernel_basis_integer().unwrap();
        assert_eq!(k[0].iter().map(|x| x.abs()).sum::<i128>(), 9);
    }

    #[test]
    fn dependent_rows_do_not_change_rank() {
        let mut t = KernelTracker::new(3);
        assert!(t.append_row_i64(&[1, 2, 3]).unwrap());
        assert!(!t.append_row_i64(&[2, 4, 6]).unwrap());
        assert!(!t.append_row_i64(&[0, 0, 0]).unwrap());
        assert!(t.append_row_i64(&[0, 1, 1]).unwrap());
        assert_eq!(t.rank(), 2);
        assert_eq!(t.appended_rows(), 4);
        assert_eq!(t.nullity(), 1);
    }

    #[test]
    fn kernel_vectors_annihilate_appended_rows() {
        let rows: [&[i64]; 3] = [&[2, -1, 0, 3], &[1, 1, 1, 1], &[0, 5, -2, 7]];
        let t = tracker_of(&rows);
        let m = batch(&rows);
        for k in t.kernel_basis().unwrap() {
            let out = m.mul_vec(&k).unwrap();
            assert!(out.iter().all(Ratio::is_zero));
        }
    }

    #[test]
    fn extend_columns_matches_kronecker_batch() {
        let rows: [&[i64]; 2] = [&[1, 0, 1], &[0, 1, 1]];
        let mut t = tracker_of(&rows);
        t.extend_columns(3).unwrap();
        assert_eq!(t.cols(), 9);
        // Batch reference: each entry repeated 3 times.
        let wide: Vec<Vec<i64>> = rows
            .iter()
            .map(|r| r.iter().flat_map(|&x| [x, x, x]).collect())
            .collect();
        let refs: Vec<&[i64]> = wide.iter().map(|r| r.as_slice()).collect();
        let ech = gauss::rref(&batch(&refs)).unwrap();
        assert_eq!(t.echelon().unwrap().rref, ech.rref);
        assert_eq!(t.echelon().unwrap().pivots, ech.pivots);
        // Appending after the extension still agrees with batch.
        t.append_row_i64(&[0, 0, 0, 1, 1, 1, 1, 1, 1]).unwrap();
        let mut all = wide.clone();
        all.push(vec![0, 0, 0, 1, 1, 1, 1, 1, 1]);
        let refs: Vec<&[i64]> = all.iter().map(|r| r.as_slice()).collect();
        assert_eq!(
            t.kernel_basis().unwrap(),
            gauss::kernel_basis(&batch(&refs)).unwrap()
        );
    }

    #[test]
    fn sparse_append_matches_dense_and_validates() {
        let mut dense = KernelTracker::new(6);
        let mut sparse = KernelTracker::new(6);
        dense.append_row_i64(&[1, 0, 1, 0, 0, 0]).unwrap();
        sparse.append_row_sparse_i64(&[(0, 1), (2, 1)]).unwrap();
        dense.append_row_i64(&[0, 3, 0, 0, -2, 0]).unwrap();
        sparse.append_row_sparse_i64(&[(1, 3), (4, -2)]).unwrap();
        assert_eq!(dense, sparse);
        // The empty sparse row is the zero row: dependent, but counted.
        assert!(!sparse.append_row_sparse_i64(&[]).unwrap());
        assert_eq!(sparse.appended_rows(), 3);
        // Validation failures leave the tracker unchanged.
        let before = sparse.clone();
        for bad in [
            &[(6, 1)][..],         // out of range
            &[(2, 1), (2, 5)][..], // duplicate column
            &[(3, 1), (1, 1)][..], // descending
        ] {
            assert!(matches!(
                sparse.append_row_sparse_i64(bad),
                Err(LinalgError::DimensionMismatch { .. })
            ));
            assert_eq!(sparse, before);
        }
    }

    #[test]
    fn rational_rows_agree_with_batch() {
        let r = |n: i128, d: i128| Ratio::new(n, d).unwrap();
        let rows = vec![
            vec![r(1, 2), r(1, 3), r(0, 1)],
            vec![r(1, 1), r(-2, 5), r(7, 3)],
            vec![r(3, 2), r(-1, 15), r(7, 3)],
        ];
        let mut t = KernelTracker::new(3);
        for row in &rows {
            t.append_row(row).unwrap();
        }
        let m = Matrix::from_rows(rows).unwrap();
        let ech = gauss::rref(&m).unwrap();
        assert_eq!(t.rank(), ech.rank());
        assert_eq!(t.echelon().unwrap().rref, ech.rref);
        assert_eq!(t.kernel_basis().unwrap(), gauss::kernel_basis(&m).unwrap());
    }

    #[test]
    fn wrong_width_is_rejected_without_mutation() {
        let mut t = tracker_of(&[&[1, 0, 1]]);
        let before = t.clone();
        assert!(matches!(
            t.append_row_i64(&[1, 2]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert_eq!(t, before);
    }

    #[test]
    fn integerization_overflow_falls_back_to_rationals() {
        // Three prime denominators near 2^43: their product exceeds
        // i128, so to_integer_vector on the raw row overflows and the
        // integer fast path is unusable — but after normalizing the
        // leading coefficient only two of the primes survive, so the
        // rational fallback commits the row exactly.
        let (p1, p2, p3) = (8_796_093_022_237i128, 8_796_093_022_283, 8_796_093_022_289);
        let row = vec![
            Ratio::new(1, p1).unwrap(),
            Ratio::new(1, p2).unwrap(),
            Ratio::new(1, p3).unwrap(),
        ];
        assert_eq!(gauss::to_integer_vector(&row), Err(LinalgError::Overflow));
        let mut t = KernelTracker::new(3);
        assert!(t.append_row(&row).unwrap());
        assert_eq!(t.rank(), 1);
        // The batch reference on the same row agrees exactly.
        let m = Matrix::from_rows(vec![row.clone()]).unwrap();
        assert_eq!(t.echelon().unwrap().rref, gauss::rref(&m).unwrap().rref);
        assert_eq!(t.kernel_basis().unwrap(), gauss::kernel_basis(&m).unwrap());
        // A later integer append still reduces against the stored row.
        assert!(t.append_row_i64(&[0, 1, 1]).unwrap());
        assert_eq!(t.rank(), 2);
        assert_eq!(t.nullity(), 1);
        for k in t.kernel_basis().unwrap() {
            let out =
                Matrix::from_rows(vec![row.clone(), vec![Ratio::ZERO, Ratio::ONE, Ratio::ONE]])
                    .unwrap()
                    .mul_vec(&k)
                    .unwrap();
            assert!(out.iter().all(Ratio::is_zero));
        }
    }

    #[test]
    fn double_overflow_reports_error_and_preserves_state() {
        // A stored pivot of 2^120 overflows the fraction-free cross
        // products, and the rational retry overflows too (the exact
        // difference `2^120 - 2^-120` needs a 2^240 numerator); the
        // append must fail cleanly without corrupting the echelon.
        let huge = 1i128 << 120;
        let mut t = KernelTracker::new(3);
        t.append_row_i128(&[huge, 1, 0]).unwrap();
        let before = t.clone();
        let err = t.append_row_i128(&[1, huge, 1]);
        assert_eq!(err, Err(LinalgError::Overflow));
        assert_eq!(t, before, "failed append must not corrupt the echelon");
    }

    #[test]
    fn extension_factor_validation() {
        let mut t = tracker_of(&[&[1, 1]]);
        assert!(matches!(
            t.extend_columns(0),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        t.extend_columns(1).unwrap();
        assert_eq!(t.cols(), 2);
    }

    #[test]
    fn empty_tracker_kernel_is_identity_basis() {
        let t = KernelTracker::new(3);
        assert_eq!(t.rank(), 0);
        assert_eq!(t.nullity(), 3);
        let basis = t.kernel_basis().unwrap();
        assert_eq!(basis.len(), 3);
        for (i, v) in basis.iter().enumerate() {
            for (c, x) in v.iter().enumerate() {
                assert_eq!(*x, if c == i { Ratio::ONE } else { Ratio::ZERO });
            }
        }
    }
}
