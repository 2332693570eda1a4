//! Sparse integer matrices.
//!
//! The observation matrix `M_r` of the paper has `3^{r+1}` columns and
//! `3^{r+1} - 1` rows but only `O(r·3^r)` non-zero (all-one) entries, so the
//! exact kernel identity `M_r · k_r = 0` (Lemma 3) can be verified for
//! rounds far beyond what dense elimination reaches. [`SparseIntMatrix`]
//! stores rows as sorted `(column, value)` pairs.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::ratio::Ratio;

/// A sparse integer matrix stored by rows.
///
/// # Examples
///
/// ```
/// use anonet_linalg::SparseIntMatrix;
///
/// let mut m = SparseIntMatrix::new(3);
/// m.push_row(vec![(0, 1), (2, 1)])?;
/// m.push_row(vec![(1, 1), (2, 1)])?;
/// assert_eq!(m.mul_vec(&[1, 1, -1])?, vec![0, 0]);
/// # Ok::<(), anonet_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SparseIntMatrix {
    cols: usize,
    rows: Vec<Vec<(u32, i64)>>,
    nnz: usize,
}

impl SparseIntMatrix {
    /// Creates an empty matrix with `cols` columns and no rows.
    pub fn new(cols: usize) -> SparseIntMatrix {
        SparseIntMatrix {
            cols,
            rows: Vec::new(),
            nnz: 0,
        }
    }

    /// Appends a row given as `(column, value)` pairs.
    ///
    /// Entries may arrive unsorted; they are sorted internally. Zero values
    /// are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if any column index is out
    /// of range or duplicated.
    pub fn push_row(&mut self, mut entries: Vec<(u32, i64)>) -> Result<()> {
        entries.retain(|&(_, v)| v != 0);
        entries.sort_unstable_by_key(|&(c, _)| c);
        for w in entries.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(LinalgError::dims(format!(
                    "duplicate column {} in sparse row",
                    w[0].0
                )));
            }
        }
        if let Some(&(c, _)) = entries.last() {
            if c as usize >= self.cols {
                return Err(LinalgError::dims(format!(
                    "column {c} out of range for {} columns",
                    self.cols
                )));
            }
        }
        self.nnz += entries.len();
        self.rows.push(entries);
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The `(column, value)` pairs of row `r`, sorted by column.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row(&self, r: usize) -> &[(u32, i64)] {
        &self.rows[r]
    }

    /// Exact matrix-vector product with an integer vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != cols()` and
    /// [`LinalgError::Overflow`] if an accumulation overflows `i128`.
    pub fn mul_vec(&self, v: &[i64]) -> Result<Vec<i128>> {
        if v.len() != self.cols {
            return Err(LinalgError::dims(format!(
                "sparse {}x{} * vector of length {}",
                self.rows.len(),
                self.cols,
                v.len()
            )));
        }
        let mut out = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let mut acc: i128 = 0;
            for &(c, val) in row {
                let term = (val as i128)
                    .checked_mul(v[c as usize] as i128)
                    .ok_or(LinalgError::Overflow)?;
                acc = acc.checked_add(term).ok_or(LinalgError::Overflow)?;
            }
            out.push(acc);
        }
        Ok(out)
    }

    /// Builds a sparse matrix from a dense rational [`Matrix`] whose
    /// entries are all integers fitting `i64`.
    ///
    /// Inverse of [`SparseIntMatrix::to_dense`] for integer matrices; the
    /// `0/±1` observation matrices and their elimination intermediates
    /// all satisfy the entry constraint.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if some entry is not an
    /// integer and [`LinalgError::Overflow`] if one falls outside `i64`.
    pub fn from_dense(m: &Matrix) -> Result<SparseIntMatrix> {
        let mut out = SparseIntMatrix::new(m.cols());
        for r in 0..m.rows() {
            let mut entries = Vec::new();
            for (c, &x) in m.row(r).iter().enumerate() {
                if x.is_zero() {
                    continue;
                }
                if !x.is_integer() {
                    return Err(LinalgError::dims(format!(
                        "non-integer entry {x} at ({r}, {c}) cannot be sparsified"
                    )));
                }
                let v = i64::try_from(x.numer()).map_err(|_| LinalgError::Overflow)?;
                entries.push((c as u32, v));
            }
            out.push_row(entries)?;
        }
        Ok(out)
    }

    /// Sparse kernel-identity check: does `M · v = 0`?
    ///
    /// One pass over the stored non-zeros — `O(nnz)` instead of the
    /// `O(rows · cols)` of a dense product — which is what lets the
    /// Lemma 3 identity `M_r · k_r = 0` be checked for rounds whose dense
    /// `3^{r+1}`-column matrix would not even be materializable.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != cols()`
    /// and [`LinalgError::Overflow`] if an accumulation overflows `i128`.
    pub fn annihilates(&self, v: &[i64]) -> Result<bool> {
        Ok(self.mul_vec(v)?.iter().all(|&x| x == 0))
    }

    /// Converts to a dense rational [`Matrix`] (small instances only).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the matrix has no rows
    /// or no columns.
    pub fn to_dense(&self) -> Result<Matrix> {
        if self.rows.is_empty() || self.cols == 0 {
            return Err(LinalgError::dims("cannot densify an empty sparse matrix"));
        }
        let mut m = Matrix::zeros(self.rows.len(), self.cols);
        for (r, row) in self.rows.iter().enumerate() {
            for &(c, v) in row {
                m.set(r, c as usize, Ratio::from(v));
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseIntMatrix {
        let mut m = SparseIntMatrix::new(3);
        m.push_row(vec![(0, 1), (2, 1)]).unwrap();
        m.push_row(vec![(1, 1), (2, 1)]).unwrap();
        m
    }

    #[test]
    fn construction() {
        let m = sample();
        assert_eq!((m.rows(), m.cols(), m.nnz()), (2, 3, 4));
        assert_eq!(m.row(0), &[(0, 1), (2, 1)]);
    }

    #[test]
    fn unsorted_input_is_sorted_and_zeros_dropped() {
        let mut m = SparseIntMatrix::new(5);
        m.push_row(vec![(4, 2), (1, 3), (2, 0)]).unwrap();
        assert_eq!(m.row(0), &[(1, 3), (4, 2)]);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn out_of_range_and_duplicates_rejected() {
        let mut m = SparseIntMatrix::new(2);
        assert!(m.push_row(vec![(2, 1)]).is_err());
        assert!(m.push_row(vec![(0, 1), (0, 2)]).is_err());
        assert_eq!(m.rows(), 0);
    }

    #[test]
    fn mul_vec_matches_paper_kernel() {
        assert_eq!(sample().mul_vec(&[1, 1, -1]).unwrap(), vec![0, 0]);
        assert_eq!(sample().mul_vec(&[2, 2, 0]).unwrap(), vec![2, 2]);
    }

    #[test]
    fn mul_vec_dimension_check() {
        assert!(sample().mul_vec(&[1]).is_err());
    }

    #[test]
    fn densify_roundtrip() {
        let d = sample().to_dense().unwrap();
        assert_eq!(d.get(0, 0), Ratio::ONE);
        assert_eq!(d.get(0, 1), Ratio::ZERO);
        assert_eq!(
            crate::gauss::kernel_basis(&d).unwrap().len(),
            1,
            "sample matrix has a 1-dimensional kernel"
        );
    }

    #[test]
    fn from_dense_roundtrips_and_validates() {
        let d = sample().to_dense().unwrap();
        let back = SparseIntMatrix::from_dense(&d).unwrap();
        assert_eq!(back, sample());
        // Non-integer entries are rejected.
        let mut frac = Matrix::zeros(1, 2);
        frac.set(0, 1, Ratio::new(1, 2).unwrap());
        assert!(matches!(
            SparseIntMatrix::from_dense(&frac),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        // Integers beyond i64 are an overflow, not a wrap.
        let mut big = Matrix::zeros(1, 1);
        big.set(0, 0, Ratio::from_integer(i64::MAX as i128 + 1));
        assert_eq!(
            SparseIntMatrix::from_dense(&big),
            Err(LinalgError::Overflow)
        );
    }

    #[test]
    fn annihilates_detects_kernel_membership() {
        let m = sample();
        assert!(m.annihilates(&[1, 1, -1]).unwrap());
        assert!(!m.annihilates(&[1, 1, 0]).unwrap());
        assert!(m.annihilates(&[1]).is_err());
    }

    #[test]
    fn overflow_reported() {
        let mut m = SparseIntMatrix::new(1);
        m.push_row(vec![(0, i64::MAX)]).unwrap();
        // i64::MAX * i64::MAX fits in i128, so build a row long enough to
        // overflow the accumulator instead: not feasible directly; check the
        // multiplication path with extreme values stays exact.
        assert_eq!(
            m.mul_vec(&[i64::MAX]).unwrap(),
            vec![(i64::MAX as i128) * (i64::MAX as i128)]
        );
    }
}
