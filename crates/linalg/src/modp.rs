//! Rank maintenance over a fixed 62-bit prime field.
//!
//! The exact [`KernelTracker`](crate::KernelTracker) answers every
//! rank/nullity query with checked `i128`/[`Ratio`](crate::Ratio)
//! arithmetic — bit-identical to batch elimination, but paying for gcd
//! renormalisation and wide multiplies on every reduction. This module
//! provides the same echelon maintenance over the prime field `F_p` with
//! `p = 2^62 − 57`, one `u64` lane per entry, Montgomery multiplication
//! and a Barrett-style reduction into the field.
//!
//! Soundness is one-sided: for any integer matrix, `rank_p ≤ rank` (a
//! vanishing minor mod `p` may be non-zero over `ℚ`, never the other way
//! around), and by the Schwartz–Zippel / minor-divisibility argument the
//! two differ only if `p` divides a non-zero `rank × rank` minor — see
//! `docs/LINALG.md` for the quantitative bound. A mod-p answer is
//! therefore only ever compared against the exact tracker (tests,
//! `exp_modp_scaling`), never trusted alone.

use crate::crt::PrimeEchelon;
use crate::error::{LinalgError, Result};
use crate::montops::MontPrime;

/// The field modulus: `2^62 − 57`, the largest 62-bit prime.
///
/// Chosen so that (a) a full element fits a `u64` lane with headroom for
/// carry-free addition (`p < 2^63`), (b) Montgomery reduction with
/// `R = 2^64` needs only `u128` intermediates, and (c) the quotient in
/// the Barrett-style reduction of any `u64` is simply `x >> 62`, off by
/// at most one.
pub const P: u64 = (1u64 << 62) - 57;

/// `−p⁻¹ mod 2^64`, the Montgomery magic constant.
const NINV: u64 = {
    // Newton–Hensel: each step doubles the number of correct low bits of
    // the inverse of the odd number `P`; six steps cover 64 bits.
    let mut inv: u64 = 1;
    let mut i = 0;
    while i < 6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(P.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
};

/// `R² mod p` with `R = 2^64`; multiplying by this maps into Montgomery form.
const R2: u64 = {
    let r = (1u128 << 64) % (P as u128);
    ((r * r) % (P as u128)) as u64
};

/// `R mod p`: the Montgomery representation of `1`.
const MONT_ONE: u64 = ((1u128 << 64) % (P as u128)) as u64;

/// Montgomery REDC: maps `t < p·2^64` to `t·2^{−64} mod p`.
#[inline(always)]
const fn redc(t: u128) -> u64 {
    let m = (t as u64).wrapping_mul(NINV);
    let t2 = ((t + (m as u128) * (P as u128)) >> 64) as u64;
    if t2 >= P {
        t2 - P
    } else {
        t2
    }
}

/// `x mod p` for any `u64`, by Barrett-style quotient estimation.
///
/// Because `p = 2^62 − 57` is within `57` of `2^62`, the shift
/// `q = ⌊x / 2^62⌋` underestimates the true quotient `⌊x / p⌋` by at
/// most one, so a single conditional subtraction completes the
/// reduction — no division instruction, no wide multiply.
#[inline(always)]
const fn barrett_reduce(x: u64) -> u64 {
    let q = x >> 62;
    let mut r = x - q * P;
    if r >= P {
        r -= P;
    }
    r
}

/// An element of `F_p`, stored in Montgomery form.
///
/// All operations are total (the field has no overflow); only
/// [`Fp::inv`] and [`batch_inverse`] can fail, on a zero input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp(u64);

impl Fp {
    /// The additive identity.
    pub const ZERO: Fp = Fp(0);
    /// The multiplicative identity.
    pub const ONE: Fp = Fp(MONT_ONE);

    /// Reduces an arbitrary `u64` into the field.
    #[inline]
    pub fn from_u64(x: u64) -> Fp {
        Fp(redc(barrett_reduce(x) as u128 * R2 as u128))
    }

    /// Reduces a signed integer into the field (`−x ↦ p − (x mod p)`).
    #[inline]
    pub fn from_i64(x: i64) -> Fp {
        let r = barrett_reduce(x.unsigned_abs());
        let canonical = if x < 0 && r != 0 { P - r } else { r };
        Fp(redc(canonical as u128 * R2 as u128))
    }

    /// The canonical representative in `0..p` (out of Montgomery form).
    #[inline]
    pub fn to_u64(self) -> u64 {
        redc(self.0 as u128)
    }

    /// Whether this is the zero element.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Exponentiation by square-and-multiply.
    pub fn pow(self, mut e: u64) -> Fp {
        let mut base = self;
        let mut acc = Fp::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * base;
            }
            base = base * base;
            e >>= 1;
        }
        acc
    }

    /// The multiplicative inverse, by Fermat (`x^{p−2}`).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DivisionByZero`] for the zero element.
    pub fn inv(self) -> Result<Fp> {
        if self.is_zero() {
            return Err(LinalgError::DivisionByZero);
        }
        Ok(self.pow(P - 2))
    }
}

impl core::ops::Add for Fp {
    type Output = Fp;
    /// Field addition.
    #[inline]
    fn add(self, rhs: Fp) -> Fp {
        // p < 2^63, so the lane sum cannot wrap.
        let s = self.0 + rhs.0;
        Fp(if s >= P { s - P } else { s })
    }
}

impl core::ops::Sub for Fp {
    type Output = Fp;
    /// Field subtraction.
    #[inline]
    fn sub(self, rhs: Fp) -> Fp {
        let (d, borrow) = self.0.overflowing_sub(rhs.0);
        Fp(if borrow { d.wrapping_add(P) } else { d })
    }
}

impl core::ops::Neg for Fp {
    type Output = Fp;
    /// Field negation.
    #[inline]
    fn neg(self) -> Fp {
        Fp(if self.0 == 0 { 0 } else { P - self.0 })
    }
}

impl core::ops::Mul for Fp {
    type Output = Fp;
    /// Field multiplication (one Montgomery REDC).
    #[inline]
    fn mul(self, rhs: Fp) -> Fp {
        Fp(redc(self.0 as u128 * rhs.0 as u128))
    }
}

/// Inverts a whole slice with one field inversion (Montgomery's trick).
///
/// `n` elements cost `3(n−1)` multiplications plus a single [`Fp::inv`],
/// instead of `n` Fermat exponentiations.
///
/// # Errors
///
/// [`LinalgError::DivisionByZero`] if any input is zero (no partial
/// output is produced).
pub fn batch_inverse(xs: &[Fp]) -> Result<Vec<Fp>> {
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    batch_inverse_into(xs, &mut out, &mut scratch)?;
    Ok(out)
}

/// Scratch-buffer variant of [`batch_inverse`]: writes the inverses into
/// `out` and uses `scratch` for the prefix products, clearing both first.
/// Callers inverting many batches reuse the buffers' capacity and perform
/// no steady-state allocation — the runtime-prime twin
/// [`MontPrime::batch_inverse_into`](crate::MontPrime::batch_inverse_into)
/// is what the CRT certificate's lane-2 screen calls per kernel vector.
///
/// # Errors
///
/// [`LinalgError::DivisionByZero`] if any input is zero; `out` and
/// `scratch` contents are unspecified afterwards.
pub fn batch_inverse_into(xs: &[Fp], out: &mut Vec<Fp>, scratch: &mut Vec<Fp>) -> Result<()> {
    out.clear();
    scratch.clear();
    if xs.is_empty() {
        return Ok(());
    }
    // scratch[i] = xs[0] · … · xs[i]
    scratch.reserve(xs.len());
    let mut acc = Fp::ONE;
    for &x in xs {
        if x.is_zero() {
            return Err(LinalgError::DivisionByZero);
        }
        acc = acc * x;
        scratch.push(acc);
    }
    let mut inv_acc = scratch[xs.len() - 1].inv()?;
    out.resize(xs.len(), Fp::ZERO);
    for i in (1..xs.len()).rev() {
        out[i] = inv_acc * scratch[i - 1];
        inv_acc = inv_acc * xs[i];
    }
    out[0] = inv_acc;
    Ok(())
}

/// Append-only rank/nullity tracker over `F_p`, mirroring
/// [`KernelTracker`](crate::KernelTracker)'s API.
///
/// Stored rows form a row-echelon basis of the appended rows' span mod
/// `p`: each row's first non-zero entry (its pivot) is normalised to
/// `1`, rows are kept sorted by pivot column, and a new row is reduced
/// against them in ascending pivot order before being committed (if
/// independent) or discarded (if it reduced to zero). Unlike the exact
/// tracker there is no back-elimination — forward echelon form is
/// enough for rank, nullity and pivots, and it keeps an append at
/// `O(rank · cols)` single-word Montgomery operations with no gcds and
/// no fallback path.
///
/// For any sequence of integer rows, `rank() ≤` the exact tracker's
/// rank, with equality unless `p` divides a non-zero maximal minor of
/// the appended matrix (see `docs/LINALG.md` for why that never happens
/// on the paper's observation systems and is `≈ 2^{−62}`-rare for
/// random ones).
///
/// ```
/// use anonet_linalg::ModpKernelTracker;
///
/// // The paper's M_0: rows [1,0,1] and [0,1,1] over 3 columns.
/// let mut t = ModpKernelTracker::new(3);
/// assert!(t.append_row_i64(&[1, 0, 1]).unwrap());
/// assert!(t.append_row_i64(&[0, 1, 1]).unwrap());
/// assert!(!t.append_row_i64(&[1, 1, 2]).unwrap()); // dependent: the sum
/// assert_eq!((t.rank(), t.nullity()), (2, 1));     // Lemma 2 at r = 0
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModpKernelTracker {
    inner: PrimeEchelon,
}

impl Default for ModpKernelTracker {
    fn default() -> ModpKernelTracker {
        ModpKernelTracker::new(0)
    }
}

impl ModpKernelTracker {
    /// An empty tracker over `cols` columns (rank 0, nullity `cols`).
    pub fn new(cols: usize) -> ModpKernelTracker {
        ModpKernelTracker {
            inner: PrimeEchelon::new(MontPrime::new(P), cols),
        }
    }

    /// Number of columns currently tracked.
    pub fn cols(&self) -> usize {
        self.inner.cols()
    }

    /// Total number of rows ever appended (independent or not).
    pub fn appended_rows(&self) -> usize {
        self.inner.appended_rows()
    }

    /// Rank of the appended matrix over `F_p`.
    pub fn rank(&self) -> usize {
        self.inner.rank()
    }

    /// Kernel dimension of the appended matrix over `F_p`.
    pub fn nullity(&self) -> usize {
        self.inner.nullity()
    }

    /// Pivot columns, in increasing order.
    pub fn pivots(&self) -> &[usize] {
        self.inner.pivots()
    }

    /// The stored echelon row with index `i`, as canonical `0..p`
    /// representatives (leading entry `1`). Rows are ordered by pivot
    /// column, matching [`ModpKernelTracker::pivots`].
    pub fn echelon_row(&self, i: usize) -> Vec<u64> {
        self.inner.row_canonical(i)
    }

    /// Appends one row of `i64` entries, reduced into `F_p` through the
    /// delayed-reduction kernel pair ([`MontPrime::accumulate4`] /
    /// [`MontPrime::fold_sub`]): stored rows are streamed four at a time
    /// into per-column `u128` accumulators, with a single Montgomery
    /// reduction per column at the end. All arithmetic yields canonical
    /// residues, so the committed state is byte-identical to the scalar
    /// reference path ([`ModpKernelTracker::append_row_scalar_i64`]).
    ///
    /// Returns `true` iff the row increased the rank. On error the
    /// tracker is unchanged.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if the row width differs from
    /// [`ModpKernelTracker::cols`].
    pub fn append_row_i64(&mut self, row: &[i64]) -> Result<bool> {
        self.inner.append_row_i64(row)
    }

    /// Appends one row through the scalar one-multiply-per-element loop —
    /// the pre-fused hot path, kept as the baseline arm of
    /// `exp_modp_scaling` and for differential tests against the fused and
    /// sparse paths.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if the row width differs from
    /// [`ModpKernelTracker::cols`].
    pub fn append_row_scalar_i64(&mut self, row: &[i64]) -> Result<bool> {
        self.inner.append_row_scalar_i64(row)
    }

    /// Appends a row of strictly-ascending `(column, value)` pairs,
    /// converting only the non-zeros into `F_p` — the sparse-aware path
    /// for observation rows (2–3 non-zeros across thousands of columns).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] for out-of-range or
    /// non-ascending columns; the tracker is unchanged.
    pub fn append_row_sparse_i64(&mut self, entries: &[(usize, i64)]) -> Result<bool> {
        self.inner.append_row_sparse_i64(entries)
    }

    /// Replaces every column by `factor` adjacent copies of itself: the
    /// tracked matrix `M` becomes `M ⊗ 1ᵀ_factor`, exactly as
    /// [`KernelTracker::extend_columns`](crate::KernelTracker::extend_columns)
    /// does for the per-round refinement of the observation system.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] for `factor == 0`;
    /// [`LinalgError::Overflow`] if the new width exceeds `usize`.
    pub fn extend_columns(&mut self, factor: usize) -> Result<()> {
        self.inner.extend_columns(factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelTracker;

    #[test]
    fn constants_are_consistent() {
        // p really is 2^62 - 57 and NINV really is -p^{-1} mod 2^64.
        assert_eq!(P, 4_611_686_018_427_387_847);
        assert_eq!(P.wrapping_mul(NINV), u64::MAX); // p * (-p^{-1}) = -1
        assert_eq!(MONT_ONE as u128, (1u128 << 64) % P as u128);
        assert_eq!(R2 as u128, ((1u128 << 64) % P as u128).pow(2) % P as u128);
    }

    #[test]
    fn field_roundtrip_and_reference_arithmetic() {
        let vals = [0u64, 1, 2, 56, 57, P - 1, P, P + 1, u64::MAX, 1 << 62];
        for &a in &vals {
            assert_eq!(Fp::from_u64(a).to_u64(), a % P);
            for &b in &vals {
                let x = Fp::from_u64(a);
                let y = Fp::from_u64(b);
                let (am, bm) = (a as u128 % P as u128, b as u128 % P as u128);
                assert_eq!((x + y).to_u64() as u128, (am + bm) % P as u128);
                assert_eq!(
                    (x - y).to_u64() as u128,
                    (am + P as u128 - bm) % P as u128
                );
                assert_eq!((x * y).to_u64() as u128, am * bm % P as u128);
            }
        }
    }

    #[test]
    fn signed_embedding() {
        assert_eq!(Fp::from_i64(-1).to_u64(), P - 1);
        assert_eq!(Fp::from_i64(-1) + Fp::ONE, Fp::ZERO);
        assert_eq!(Fp::from_i64(i64::MIN).to_u64(), P - (i64::MIN.unsigned_abs() % P));
        assert_eq!(Fp::from_i64(7) - Fp::from_i64(9), Fp::from_i64(-2));
        assert_eq!(-Fp::from_i64(-3), Fp::from_i64(3));
    }

    #[test]
    fn fermat_inverse_and_pow() {
        for x in [1i64, 2, 3, -1, -57, 1_000_003] {
            let f = Fp::from_i64(x);
            assert_eq!(f * f.inv().unwrap(), Fp::ONE);
        }
        assert_eq!(Fp::ZERO.inv(), Err(LinalgError::DivisionByZero));
        assert_eq!(Fp::from_u64(3).pow(0), Fp::ONE);
        assert_eq!(Fp::from_u64(3).pow(5), Fp::from_u64(243));
        // Fermat's little theorem.
        assert_eq!(Fp::from_u64(123_456_789).pow(P - 1), Fp::ONE);
    }

    #[test]
    fn batch_inverse_matches_individual() {
        let xs: Vec<Fp> = (1..=20).map(|i| Fp::from_i64(i * i - 7)).collect();
        let inv = batch_inverse(&xs).unwrap();
        for (x, y) in xs.iter().zip(&inv) {
            assert_eq!(*x * *y, Fp::ONE);
        }
        assert!(batch_inverse(&[]).unwrap().is_empty());
        assert_eq!(
            batch_inverse(&[Fp::ONE, Fp::ZERO]),
            Err(LinalgError::DivisionByZero)
        );
    }

    /// The paper's `M_1` (8 rows, 9 columns), as in `incremental.rs`.
    fn m1_rows() -> Vec<Vec<i64>> {
        vec![
            vec![1, 1, 1, 0, 0, 0, 1, 1, 1],
            vec![0, 0, 0, 1, 1, 1, 1, 1, 1],
            vec![1, 0, 1, 0, 0, 0, 0, 0, 0],
            vec![0, 1, 1, 0, 0, 0, 0, 0, 0],
            vec![0, 0, 0, 1, 0, 1, 0, 0, 0],
            vec![0, 0, 0, 0, 1, 1, 0, 0, 0],
            vec![0, 0, 0, 0, 0, 0, 1, 0, 1],
            vec![0, 0, 0, 0, 0, 0, 0, 1, 1],
        ]
    }

    #[test]
    fn matches_exact_tracker_on_paper_m1() {
        let mut modp = ModpKernelTracker::new(9);
        let mut exact = KernelTracker::new(9);
        for row in m1_rows() {
            let grew_p = modp.append_row_i64(&row).unwrap();
            let grew = exact.append_row_i64(&row).unwrap();
            assert_eq!(grew_p, grew);
            assert_eq!(modp.rank(), exact.rank());
            assert_eq!(modp.nullity(), exact.nullity());
            assert_eq!(modp.pivots(), exact.pivots());
        }
        assert_eq!((modp.rank(), modp.nullity()), (8, 1)); // Lemma 2 at r = 1
        assert_eq!(modp.appended_rows(), 8);
    }

    #[test]
    fn dependent_rows_do_not_change_rank() {
        let mut t = ModpKernelTracker::new(4);
        assert!(t.append_row_i64(&[1, 2, 3, 4]).unwrap());
        assert!(t.append_row_i64(&[0, 1, 1, 0]).unwrap());
        // 2*r0 - 3*r1 is in the span.
        assert!(!t.append_row_i64(&[2, 1, 3, 8]).unwrap());
        assert!(!t.append_row_i64(&[0, 0, 0, 0]).unwrap());
        assert_eq!(t.rank(), 2);
        assert_eq!(t.appended_rows(), 4);
    }

    #[test]
    fn echelon_rows_are_normalised_and_staircased() {
        let mut t = ModpKernelTracker::new(4);
        t.append_row_i64(&[0, 0, 5, 7]).unwrap();
        t.append_row_i64(&[3, 0, 1, 0]).unwrap();
        assert_eq!(t.pivots(), &[0, 2]);
        for i in 0..t.rank() {
            let row = t.echelon_row(i);
            let pivot = t.pivots()[i];
            assert!(row[..pivot].iter().all(|&x| x == 0));
            assert_eq!(row[pivot], 1);
        }
    }

    #[test]
    fn extend_columns_matches_kronecker_appends() {
        // Appending widened rows from scratch must agree with widening
        // the tracker, for every prefix.
        let rows = m1_rows();
        for split in 0..=rows.len() {
            let mut widened = ModpKernelTracker::new(9);
            for row in &rows[..split] {
                widened.append_row_i64(row).unwrap();
            }
            widened.extend_columns(3).unwrap();
            let mut fresh = ModpKernelTracker::new(27);
            for row in &rows[..split] {
                let wide: Vec<i64> =
                    row.iter().flat_map(|&x| std::iter::repeat_n(x, 3)).collect();
                fresh.append_row_i64(&wide).unwrap();
            }
            assert_eq!(widened.rank(), fresh.rank());
            assert_eq!(widened.pivots(), fresh.pivots());
            assert_eq!(widened.cols(), 27);
            // And both keep accepting rows identically afterwards.
            let probe: Vec<i64> = (0..27).map(|i| (i % 3) as i64 - 1).collect();
            assert_eq!(
                widened.append_row_i64(&probe).unwrap(),
                fresh.append_row_i64(&probe).unwrap()
            );
            assert_eq!(widened.rank(), fresh.rank());
        }
    }

    #[test]
    fn wrong_width_is_rejected_without_mutation() {
        let mut t = ModpKernelTracker::new(3);
        t.append_row_i64(&[1, 0, 1]).unwrap();
        let before = t.clone();
        let err = t.append_row_i64(&[1, 0]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
        assert_eq!(t, before);
    }

    #[test]
    fn extension_factor_validation() {
        let mut t = ModpKernelTracker::new(3);
        t.append_row_i64(&[1, 1, 0]).unwrap();
        let before = t.clone();
        assert!(matches!(
            t.extend_columns(0),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert_eq!(t, before);
        t.extend_columns(1).unwrap();
        assert_eq!(t, before);
    }

    #[test]
    fn empty_tracker_has_full_nullity() {
        let t = ModpKernelTracker::new(5);
        assert_eq!(t.rank(), 0);
        assert_eq!(t.nullity(), 5);
        assert!(t.pivots().is_empty());
    }

    #[test]
    fn large_entries_agree_with_exact_rank() {
        // Entries far outside 0/±1 still give the right rank here
        // (nothing in sight divides p).
        let mut modp = ModpKernelTracker::new(3);
        let mut exact = KernelTracker::new(3);
        for row in [
            [i64::MAX, -i64::MAX, 12_345],
            [1_000_000_007, 998_244_353, -3],
            [i64::MIN + 1, 0, i64::MAX],
        ] {
            assert_eq!(
                modp.append_row_i64(&row).unwrap(),
                exact.append_row_i64(&row).unwrap()
            );
        }
        assert_eq!(modp.rank(), exact.rank());
    }
}
