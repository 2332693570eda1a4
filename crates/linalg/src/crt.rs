//! Multi-prime CRT rank/kernel engine.
//!
//! [`ModpKernelTracker`](crate::ModpKernelTracker) tracks rank over a single
//! prime, so an exact answer would need a second, rational elimination.
//! [`CrtKernelTracker`] avoids it: the same echelon elimination runs in
//! lockstep over **three** independent Montgomery primes
//! ([`CRT_PRIMES`]), and on request the rational kernel basis is
//! *reconstructed* from the residues (Chinese remaindering over the first
//! two primes + Wang rational reconstruction), *screened* against the third
//! prime, and finally *verified exactly* against every appended row with
//! checked [`Ratio`] arithmetic. Soundness never rests on a probabilistic
//! argument: a certificate is only issued when the reconstructed vectors
//! provably annihilate the appended matrix, which pins the rational nullity
//! from below while the mod-p rank pins it from above. Any cross-prime
//! disagreement, reconstruction failure, or verification miss yields `None`
//! (fail-closed).
//!
//! The per-round arithmetic itself is the delayed-reduction kernel pair
//! [`MontPrime::accumulate4`] / [`MontPrime::fold_sub`] of
//! [`montops`](crate::montops): one widening multiply and one 128-bit add
//! per matrix element with a single REDC per output column.

use crate::error::{LinalgError, Result};
use crate::modp::P;
use crate::montops::MontPrime;
use crate::ratio::{gcd_i128, Ratio};
use crate::sparse::SparseIntMatrix;

/// The three independent CRT lanes, all below `2^62` so the delayed
/// [`MontPrime::accumulate4`] kernel can sum four products per guard.
///
/// Lane 0 is the [`modp`](crate::modp) prime `2^62 - 57`, which keeps the
/// CRT tracker's per-round answers bit-identical to
/// [`ModpKernelTracker`](crate::ModpKernelTracker). Lane 1 is the Mersenne
/// prime `2^61 - 1` and lane 2 is `2^62 - 87`. Primality of all three is
/// asserted by a deterministic Miller–Rabin test in `montops`.
pub const CRT_PRIMES: [u64; 3] = [P, (1 << 61) - 1, (1 << 62) - 87];

/// Row-echelon elimination state over one runtime prime.
///
/// This is the shared engine behind both
/// [`ModpKernelTracker`](crate::ModpKernelTracker) (one lane over `P`) and
/// [`CrtKernelTracker`] (three lanes): rows are stored in Montgomery form
/// with their first non-zero entry normalised to `1`, kept sorted by pivot
/// column, with no back-elimination. All arithmetic produces canonical
/// residues, so every append path — scalar, fused, sparse — commits
/// byte-identical state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PrimeEchelon {
    m: MontPrime,
    cols: usize,
    appended: usize,
    rows: Vec<Vec<u64>>,
    pivots: Vec<usize>,
}

impl PrimeEchelon {
    /// An empty tracker over `cols` columns for the given prime context.
    pub(crate) fn new(m: MontPrime, cols: usize) -> PrimeEchelon {
        PrimeEchelon {
            m,
            cols,
            appended: 0,
            rows: Vec::new(),
            pivots: Vec::new(),
        }
    }

    /// The Montgomery context of this lane.
    pub(crate) fn prime(&self) -> MontPrime {
        self.m
    }

    /// Number of columns currently tracked.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of rows ever appended (independent or not).
    pub(crate) fn appended_rows(&self) -> usize {
        self.appended
    }

    /// Rank of the appended matrix over this lane's prime.
    pub(crate) fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Kernel dimension of the appended matrix over this lane's prime.
    pub(crate) fn nullity(&self) -> usize {
        self.cols - self.rows.len()
    }

    /// Pivot columns, in increasing order.
    pub(crate) fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    /// Stored echelon row `i` as canonical `0..p` representatives.
    pub(crate) fn row_canonical(&self, i: usize) -> Vec<u64> {
        self.rows[i].iter().map(|&x| self.m.to_u64(x)).collect()
    }

    /// Reference scalar reduction: one pass per stored row, one Montgomery
    /// multiply per element. This is the pre-fused hot loop, kept as the
    /// baseline arm of `exp_modp_scaling` and for differential tests.
    fn reduce_scalar(&self, v: &mut [u64]) {
        let m = self.m;
        for (i, &pc) in self.pivots.iter().enumerate() {
            let a = v[pc];
            if a == 0 {
                continue;
            }
            for (dst, &src) in v[pc..].iter_mut().zip(&self.rows[i][pc..]) {
                *dst = m.sub(*dst, m.mul(a, src));
            }
        }
    }

    /// Fused reduction with fully delayed Montgomery arithmetic.
    ///
    /// Elimination factors form a unit-triangular system (each stored row
    /// is zero strictly left of its pivot), so phase A solves for *all* of
    /// them first — `O(rank²)` scalar work restricted to pivot columns,
    /// with products grouped four at a time per delayed reduction. Phase B
    /// then streams the stored rows four at a time into a per-column
    /// `u128` accumulator via [`MontPrime::accumulate4`]: one widening
    /// multiply and one 128-bit add per matrix element, with a single
    /// conditional subtraction of `p·2^64` per group as the only in-loop
    /// reduction. [`MontPrime::fold_sub`] performs one REDC per column at
    /// the very end — compare one full Montgomery multiply per element
    /// *per stored row* on the scalar path.
    ///
    /// `fac`/`acc` are caller-owned scratch buffers so a caller can reuse
    /// them across rows; they are cleared and resized here.
    ///
    /// Because shifting the accumulator by multiples of `p·2^64` leaves
    /// the REDC output untouched and every settled value is the canonical
    /// residue, the result is byte-identical to
    /// [`PrimeEchelon::reduce_scalar`].
    fn reduce_fused(&self, v: &mut [u64], fac: &mut Vec<u64>, acc: &mut Vec<u128>) {
        let m = self.m;
        let rank = self.pivots.len();
        if rank == 0 {
            return;
        }
        // Phase A: unit-triangular solve for the elimination factors. The
        // inner sum only visits indices whose factor is non-zero (`nz`),
        // so a sparse appended row — two non-zeros against a rank-2000
        // echelon — costs `O(rank)` here, like the scalar path's
        // zero-factor skip, not `O(rank²)`.
        fac.clear();
        fac.resize(rank, 0);
        let mut nz: Vec<(usize, u64)> = Vec::new();
        for (j, &pj) in self.pivots.iter().enumerate() {
            let mut sum = 0u64;
            let mut part: u128 = 0;
            let mut pending = 0u32;
            for &(i, f) in nz.iter() {
                part += f as u128 * self.rows[i][pj] as u128;
                pending += 1;
                if pending == 4 {
                    sum = m.add(sum, m.redc(part));
                    part = 0;
                    pending = 0;
                }
            }
            if pending > 0 {
                sum = m.add(sum, m.redc(part));
            }
            let a = m.sub(v[pj], sum);
            fac[j] = a;
            if a != 0 {
                nz.push((j, a));
            }
        }
        let Some(&(first_nz, _)) = nz.first() else {
            return;
        };
        // Phase B: delayed accumulation of Σ fac[j]·row_j, four rows per
        // pass. Groups strictly before the first non-zero factor never
        // fire, and all rows of later groups are zero left of the first
        // fired group's base pivot — so the accumulator starts there.
        let start = self.pivots[(first_nz / 4) * 4];
        acc.clear();
        acc.resize(self.cols - start, 0);
        let mut j = (first_nz / 4) * 4;
        while j < rank {
            let chunk = (rank - j).min(4);
            let mut f4 = [0u64; 4];
            f4[..chunk].copy_from_slice(&fac[j..j + chunk]);
            if f4 != [0; 4] {
                let base = self.pivots[j];
                let row = |t: usize| -> &[u64] {
                    // Pad short tails by repeating row j with a zero factor.
                    let i = if t < chunk { j + t } else { j };
                    &self.rows[i][base..]
                };
                m.accumulate4(&mut acc[base - start..], f4, [row(0), row(1), row(2), row(3)]);
            }
            j += chunk;
        }
        m.fold_sub(&mut v[start..], acc);
    }

    /// Normalises a fully reduced row and inserts it in pivot order.
    /// Returns `Ok(false)` for a dependent (all-zero) row.
    fn commit(&mut self, mut v: Vec<u64>) -> Result<bool> {
        let Some(lead) = v.iter().position(|&x| x != 0) else {
            return Ok(false);
        };
        let scale = self.m.inv(v[lead])?;
        for x in &mut v[lead..] {
            *x = self.m.mul(*x, scale);
        }
        let at = self.pivots.partition_point(|&p| p < lead);
        self.pivots.insert(at, lead);
        self.rows.insert(at, v);
        Ok(true)
    }

    fn width_error(&self, got: usize) -> LinalgError {
        LinalgError::dims(format!(
            "append of length-{got} row to {}-column tracker",
            self.cols
        ))
    }

    /// Appends one dense `i64` row through the fused reduction path.
    pub(crate) fn append_row_i64(&mut self, row: &[i64]) -> Result<bool> {
        if row.len() != self.cols {
            return Err(self.width_error(row.len()));
        }
        let mut v: Vec<u64> = row.iter().map(|&x| self.m.from_i64(x)).collect();
        self.appended += 1;
        let (mut fac, mut acc) = (Vec::new(), Vec::new());
        self.reduce_fused(&mut v, &mut fac, &mut acc);
        self.commit(v)
    }

    /// Appends one dense `i64` row through the scalar reference path.
    pub(crate) fn append_row_scalar_i64(&mut self, row: &[i64]) -> Result<bool> {
        if row.len() != self.cols {
            return Err(self.width_error(row.len()));
        }
        let mut v: Vec<u64> = row.iter().map(|&x| self.m.from_i64(x)).collect();
        self.appended += 1;
        self.reduce_scalar(&mut v);
        self.commit(v)
    }

    /// Appends a row given as strictly-ascending `(column, value)` pairs,
    /// converting only the non-zero entries — the observation rows have
    /// 2–3 non-zeros across thousands of columns, so skipping the dense
    /// signed-to-Montgomery conversion is a real saving. Elimination cost
    /// is unchanged (stored pivots left of the first non-zero see a zero
    /// factor and are skipped).
    pub(crate) fn append_row_sparse_i64(&mut self, entries: &[(usize, i64)]) -> Result<bool> {
        let mut v = vec![0u64; self.cols];
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
            v[c] = self.m.from_i64(x);
        }
        self.appended += 1;
        let (mut fac, mut acc) = (Vec::new(), Vec::new());
        self.reduce_fused(&mut v, &mut fac, &mut acc);
        self.commit(v)
    }

    /// Replaces every column by `factor` adjacent copies of itself
    /// (`M ⊗ 1ᵀ_factor`), mirroring
    /// [`ModpKernelTracker::extend_columns`](crate::ModpKernelTracker::extend_columns).
    pub(crate) fn extend_columns(&mut self, factor: usize) -> Result<()> {
        if factor == 0 {
            return Err(LinalgError::dims("column extension factor must be >= 1"));
        }
        if factor == 1 {
            return Ok(());
        }
        let new_cols = self.cols.checked_mul(factor).ok_or(LinalgError::Overflow)?;
        for row in &mut self.rows {
            let mut wide = Vec::with_capacity(new_cols);
            for &x in row.iter() {
                for _ in 0..factor {
                    wide.push(x);
                }
            }
            *row = wide;
        }
        for p in &mut self.pivots {
            // p < cols and cols * factor was checked above, so this cannot
            // overflow; keep it checked anyway.
            *p = p.checked_mul(factor).ok_or(LinalgError::Overflow)?;
        }
        self.cols = new_cols;
        Ok(())
    }

    /// The kernel vector associated with free column `free`, as canonical
    /// residues: `v[free] = 1`, other free columns `0`, pivot coordinates
    /// by back-substitution over the echelon rows (bottom-up). This is the
    /// unique kernel vector with that free-column pattern, i.e. the mod-p
    /// image of the exact tracker's
    /// [`kernel_basis`](crate::KernelTracker::kernel_basis) vector.
    pub(crate) fn kernel_residues(&self, free: usize) -> Vec<u64> {
        let m = self.m;
        let mut v = vec![0u64; self.cols];
        v[free] = m.one();
        for i in (0..self.pivots.len()).rev() {
            let pc = self.pivots[i];
            // v is supported on `free` and already-solved pivots, all > pc.
            let mut s = if free > pc { self.rows[i][free] } else { 0 };
            for &pk in &self.pivots[i + 1..] {
                let f = v[pk];
                if f != 0 {
                    s = m.add(s, m.mul(self.rows[i][pk], f));
                }
            }
            v[pc] = m.neg(s);
        }
        for x in &mut v {
            *x = m.to_u64(*x);
        }
        v
    }
}

/// A certified rational kernel description reconstructed by CRT.
///
/// `basis[j]` is the exact kernel vector whose value is `1` at the `j`-th
/// free column and `0` at every other free column — precisely the vectors
/// [`KernelTracker::kernel_basis`](crate::KernelTracker::kernel_basis)
/// produces — verified to annihilate every appended row with checked
/// rational arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrtCertificate {
    /// The certified kernel dimension (`basis.len()`).
    pub nullity: usize,
    /// The certified kernel basis, one full-width vector per free column,
    /// free columns in increasing order.
    pub basis: Vec<Vec<Ratio>>,
}

/// Append-only rank/kernel tracker over the three [`CRT_PRIMES`] lanes
/// with exact on-demand certification.
///
/// Per-round queries ([`CrtKernelTracker::rank`] /
/// [`CrtKernelTracker::nullity`] / [`CrtKernelTracker::pivots`]) report
/// lane 0 — the [`modp`](crate::modp) prime — so they are bit-identical to
/// a [`ModpKernelTracker`](crate::ModpKernelTracker) fed the same rows.
/// [`CrtKernelTracker::certify`] reconstructs the rational kernel basis
/// from the lane residues and verifies it exactly, in
/// `O(nullity · rank² + nnz)` work instead of an exact re-elimination.
///
/// # Examples
///
/// ```
/// use anonet_linalg::{CrtKernelTracker, Ratio};
///
/// // The paper's M_0: rows [1,0,1] and [0,1,1] over 3 columns.
/// let mut t = CrtKernelTracker::new(3);
/// assert!(t.append_row_i64(&[1, 0, 1])?);
/// assert!(t.append_row_i64(&[0, 1, 1])?);
/// let cert = t.certify().expect("small system certifies");
/// assert_eq!(cert.nullity, 1);
/// assert_eq!(
///     cert.basis,
///     vec![vec![Ratio::from(-1), Ratio::from(-1), Ratio::from(1)]],
/// );
/// # Ok::<(), anonet_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrtKernelTracker {
    lanes: Vec<PrimeEchelon>,
    retained: SparseIntMatrix,
}

impl CrtKernelTracker {
    /// An empty tracker over `cols` columns.
    pub fn new(cols: usize) -> CrtKernelTracker {
        CrtKernelTracker {
            lanes: CRT_PRIMES
                .iter()
                .map(|&p| PrimeEchelon::new(MontPrime::new(p), cols))
                .collect(),
            retained: SparseIntMatrix::new(cols),
        }
    }

    /// Number of columns currently tracked.
    pub fn cols(&self) -> usize {
        self.lanes[0].cols()
    }

    /// Total number of rows ever appended (independent or not).
    pub fn appended_rows(&self) -> usize {
        self.lanes[0].appended_rows()
    }

    /// Rank over lane 0 (the `modp` prime) — bit-identical to
    /// [`ModpKernelTracker::rank`](crate::ModpKernelTracker::rank).
    pub fn rank(&self) -> usize {
        self.lanes[0].rank()
    }

    /// Nullity over lane 0 (the `modp` prime).
    pub fn nullity(&self) -> usize {
        self.lanes[0].nullity()
    }

    /// Lane-0 pivot columns, in increasing order.
    pub fn pivots(&self) -> &[usize] {
        self.lanes[0].pivots()
    }

    /// Appends one dense `i64` row to all three lanes (fused path) and to
    /// the retained sparse copy used by exact certification.
    ///
    /// Returns `true` iff the row increased lane 0's rank.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if the row width differs from
    /// [`CrtKernelTracker::cols`]; the tracker is unchanged.
    pub fn append_row_i64(&mut self, row: &[i64]) -> Result<bool> {
        if row.len() != self.cols() {
            return Err(LinalgError::dims(format!(
                "append of length-{} row to {}-column tracker",
                row.len(),
                self.cols()
            )));
        }
        let entries: Vec<(u32, i64)> = row
            .iter()
            .enumerate()
            .filter(|&(_, &x)| x != 0)
            .map(|(c, &x)| (c as u32, x))
            .collect();
        self.retained.push_row(entries)?;
        let mut grew = false;
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let g = lane.append_row_i64(row)?;
            if i == 0 {
                grew = g;
            }
        }
        Ok(grew)
    }

    /// Appends a row of strictly-ascending `(column, value)` pairs — the
    /// sparse-aware path used by the observation systems, whose rows carry
    /// 2–3 non-zeros across thousands of columns.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] for out-of-range or non-ascending
    /// columns.
    pub fn append_row_sparse_i64(&mut self, entries: &[(usize, i64)]) -> Result<bool> {
        // Lane appends validate range and ordering before mutating, and all
        // lanes see the same entries, so either every append below succeeds
        // or the first fails with the tracker untouched.
        let retained_entries: Vec<(u32, i64)> = entries
            .iter()
            .filter(|&&(_, x)| x != 0)
            .map(|&(c, x)| (c as u32, x))
            .collect();
        let mut grew = false;
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let g = lane.append_row_sparse_i64(entries)?;
            if i == 0 {
                grew = g;
            }
        }
        self.retained.push_row(retained_entries)?;
        Ok(grew)
    }

    /// Kronecker column widening on all lanes and the retained rows; see
    /// [`ModpKernelTracker::extend_columns`](crate::ModpKernelTracker::extend_columns).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] for `factor == 0`,
    /// [`LinalgError::Overflow`] if the new width overflows.
    pub fn extend_columns(&mut self, factor: usize) -> Result<()> {
        for lane in &mut self.lanes {
            lane.extend_columns(factor)?;
        }
        self.retained.extend_columns(factor)
    }

    /// Attempts to certify the rational kernel at the current state.
    ///
    /// Steps, all fail-closed to `None`:
    ///
    /// 1. the three lanes must agree on the pivot set (a disagreement
    ///    means some prime divides a pivot minor — the aliasing case);
    /// 2. for each lane-0 free column, the kernel vector's residues are
    ///    combined by CRT over lanes 0–1 and lifted to rationals by Wang
    ///    rational reconstruction with bound `⌊√(P₀P₁/2)⌋`;
    /// 3. every lifted entry is screened against lane 2 (`n·d⁻¹ ≡ r₂`,
    ///    denominators inverted in one batch via
    ///    [`MontPrime::batch_inverse_into`]);
    /// 4. each lifted vector is verified to annihilate **every** appended
    ///    row with checked rational arithmetic.
    ///
    /// Step 4 alone carries the soundness: the verified vectors are
    /// linearly independent (unit at distinct free columns), so the exact
    /// nullity is at least lane 0's, and the mod-p rank bound gives the
    /// reverse inequality. Moreover any vector that survives verification
    /// forces its free column to be a *rational* free column, so a
    /// certificate equals the exact tracker's
    /// [`kernel_basis`](crate::KernelTracker::kernel_basis) byte for byte.
    pub fn certify(&self) -> Option<CrtCertificate> {
        let l0 = &self.lanes[0];
        if self.lanes[1].pivots() != l0.pivots() || self.lanes[2].pivots() != l0.pivots() {
            return None;
        }
        let cols = l0.cols();
        let p0 = CRT_PRIMES[0] as u128;
        let p1 = CRT_PRIMES[1] as u128;
        let m01 = p0 * p1;
        let bound = isqrt_u128(m01 / 2);
        let m1 = self.lanes[1].prime();
        let m2 = self.lanes[2].prime();
        let inv01 = m1.to_u64(m1.inv(m1.from_u64(CRT_PRIMES[0])).ok()?) as u128;

        let mut is_pivot = vec![false; cols];
        for &p in l0.pivots() {
            is_pivot[p] = true;
        }
        let mut basis = Vec::with_capacity(l0.nullity());
        // Scratch reused across free columns: reconstructed (col, n, d,
        // lane-2 residue) entries and the batch-inversion buffers.
        let mut lifted: Vec<(usize, i128, i128, u64)> = Vec::new();
        let mut dens_mont = Vec::new();
        let mut inv_out = Vec::new();
        let mut inv_scratch = Vec::new();
        for (free, &pivot) in is_pivot.iter().enumerate() {
            if pivot {
                continue;
            }
            let r0 = self.lanes[0].kernel_residues(free);
            let r1 = self.lanes[1].kernel_residues(free);
            let r2 = self.lanes[2].kernel_residues(free);
            lifted.clear();
            dens_mont.clear();
            for c in 0..cols {
                if r0[c] == 0 && r1[c] == 0 {
                    if r2[c] != 0 {
                        return None; // zero in two lanes, non-zero in one
                    }
                    continue;
                }
                let x01 = crt_combine(r0[c], r1[c], inv01);
                let (n, d) = rational_reconstruct(x01, m01, bound)?;
                lifted.push((c, n, d, r2[c]));
                // `d <= bound < 2^62` fits i64.
                dens_mont.push(m2.from_i64(d as i64));
            }
            m2.batch_inverse_into(&dens_mont, &mut inv_out, &mut inv_scratch)
                .ok()?;
            let mut v = vec![Ratio::ZERO; cols];
            for (&(c, n, d, res2), &dinv) in lifted.iter().zip(&inv_out) {
                if m2.to_u64(m2.mul(m2.from_i64(n as i64), dinv)) != res2 {
                    return None; // lane-2 screen failed
                }
                v[c] = Ratio::new(n, d).ok()?;
            }
            if !matches!(self.retained.annihilates_rational(&v), Ok(true)) {
                return None; // exact verification failed
            }
            basis.push(v);
        }
        Some(CrtCertificate {
            nullity: basis.len(),
            basis,
        })
    }
}

/// Combines residues of lanes 0 and 1 into the unique value modulo
/// `P₀·P₁`: `x = r0 + P₀·((r1 - r0)·P₀⁻¹ mod P₁)`.
fn crt_combine(r0: u64, r1: u64, inv01: u128) -> u128 {
    let p0 = CRT_PRIMES[0] as u128;
    let p1 = CRT_PRIMES[1] as u128;
    let r0m = r0 as u128 % p1;
    let diff = (r1 as u128 + p1 - r0m) % p1;
    let t = diff * inv01 % p1;
    r0 as u128 + p0 * t
}

/// Wang rational reconstruction: the unique `n/d` with `|n|, d <= bound`,
/// `gcd(n, d) = 1` and `n·d⁻¹ ≡ x (mod modulus)`, if one exists. Runs the
/// half-extended Euclidean algorithm with checked `i128` cofactors and
/// returns `None` on any failure.
fn rational_reconstruct(x: u128, modulus: u128, bound: u128) -> Option<(i128, i128)> {
    if x == 0 {
        return Some((0, 1));
    }
    let (mut r0, mut r1) = (modulus, x);
    let (mut t0, mut t1): (i128, i128) = (0, 1);
    while r1 > bound {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        let step = i128::try_from(q).ok()?.checked_mul(t1)?;
        (t0, t1) = (t1, t0.checked_sub(step)?);
    }
    if t1 == 0 {
        return None;
    }
    let d = t1.checked_abs()?;
    if d as u128 > bound {
        return None;
    }
    let mut n = i128::try_from(r1).ok()?;
    if t1 < 0 {
        n = -n;
    }
    let g = gcd_i128(n.abs(), d);
    if g > 1 {
        Some((n / g, d / g))
    } else {
        Some((n, d))
    }
}

/// Integer square root of a `u128` (largest `s` with `s² <= n`).
fn isqrt_u128(n: u128) -> u128 {
    if n < 2 {
        return n;
    }
    let mut x = 1u128 << (n.ilog2() / 2 + 1);
    loop {
        let y = (x + n / x) / 2;
        if y >= x {
            return x;
        }
        x = y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelTracker, ModpKernelTracker};

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `n` rows of small entries with some injected dependencies.
    fn sample_rows(seed: u64, n: usize, cols: usize, span: i64) -> Vec<Vec<i64>> {
        let mut st = seed;
        let mut rows: Vec<Vec<i64>> = (0..n)
            .map(|_| {
                (0..cols)
                    .map(|_| (splitmix(&mut st) % (2 * span as u64 + 1)) as i64 - span)
                    .collect()
            })
            .collect();
        // Overwrite a third of the rows with combinations of earlier ones
        // so the dependent-row paths are exercised too.
        for i in (0..n).filter(|i| i % 3 == 2) {
            let a = (splitmix(&mut st) % i as u64) as usize;
            let b = (splitmix(&mut st) % i as u64) as usize;
            rows[i] = (0..cols).map(|c| 3 * rows[a][c] - rows[b][c]).collect();
        }
        rows
    }

    fn to_sparse(row: &[i64]) -> Vec<(usize, i64)> {
        row.iter()
            .enumerate()
            .filter(|&(_, &x)| x != 0)
            .map(|(c, &x)| (c, x))
            .collect()
    }

    #[test]
    fn all_append_paths_commit_identical_state() {
        for (lane, &p) in CRT_PRIMES.iter().enumerate() {
            let cols = 23;
            let rows = sample_rows(41 + lane as u64, 40, cols, 50);
            let m = MontPrime::new(p);
            let mut scalar = PrimeEchelon::new(m, cols);
            let mut fused = PrimeEchelon::new(m, cols);
            let mut sparse = PrimeEchelon::new(m, cols);
            for row in &rows {
                let a = scalar.append_row_scalar_i64(row).unwrap();
                let b = fused.append_row_i64(row).unwrap();
                let c = sparse.append_row_sparse_i64(&to_sparse(row)).unwrap();
                assert_eq!(a, b);
                assert_eq!(a, c);
            }
            assert_eq!(scalar, fused, "fused != scalar for p = {p}");
            assert_eq!(scalar, sparse, "sparse != scalar for p = {p}");
        }
    }

    #[test]
    fn sparse_append_validates_without_mutation() {
        let mut t = PrimeEchelon::new(MontPrime::new(CRT_PRIMES[0]), 4);
        t.append_row_sparse_i64(&[(0, 1), (3, -1)]).unwrap();
        let before = t.clone();
        assert!(t.append_row_sparse_i64(&[(1, 1), (4, 1)]).is_err());
        assert!(t.append_row_sparse_i64(&[(2, 1), (2, 5)]).is_err());
        assert!(t.append_row_sparse_i64(&[(3, 1), (1, 5)]).is_err());
        assert_eq!(t, before);
        // An all-zero sparse row is dependent, not an error.
        assert!(!t.append_row_sparse_i64(&[]).unwrap());
        assert_eq!(t.appended_rows(), 2);
    }

    #[test]
    fn kernel_residues_solve_the_paper_m0() {
        for &p in &CRT_PRIMES {
            let mut t = PrimeEchelon::new(MontPrime::new(p), 3);
            t.append_row_i64(&[1, 0, 1]).unwrap();
            t.append_row_i64(&[0, 1, 1]).unwrap();
            // ker M_0 with v[2] = 1 is (-1, -1, 1).
            assert_eq!(t.kernel_residues(2), vec![p - 1, p - 1, 1]);
        }
    }

    #[test]
    fn crt_tracker_lane0_matches_modp_tracker() {
        let cols = 17;
        let rows = sample_rows(7, 25, cols, 40);
        let mut crt = CrtKernelTracker::new(cols);
        let mut modp = ModpKernelTracker::new(cols);
        for row in &rows {
            assert_eq!(
                crt.append_row_i64(row).unwrap(),
                modp.append_row_i64(row).unwrap()
            );
            assert_eq!(crt.rank(), modp.rank());
            assert_eq!(crt.pivots(), modp.pivots());
        }
        assert_eq!(crt.nullity(), modp.nullity());
        assert_eq!(crt.appended_rows(), modp.appended_rows());
    }

    #[test]
    fn certificate_matches_exact_kernel_basis() {
        for seed in 0..8 {
            let (n, cols) = (6, 8);
            let rows = sample_rows(100 + seed, n, cols, 9);
            let mut crt = CrtKernelTracker::new(cols);
            let mut exact = KernelTracker::new(cols);
            for row in &rows {
                crt.append_row_i64(row).unwrap();
                exact.append_row_i64(row).unwrap();
            }
            let cert = crt.certify().expect("well-conditioned system certifies");
            assert_eq!(cert.nullity, exact.nullity(), "seed {seed}");
            assert_eq!(cert.basis, exact.kernel_basis().unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn certificate_survives_column_extension() {
        let mut crt = CrtKernelTracker::new(3);
        let mut exact = KernelTracker::new(3);
        for row in [[1i64, 0, 1], [0, 1, 1]] {
            crt.append_row_i64(&row).unwrap();
            exact.append_row_i64(&row).unwrap();
        }
        crt.extend_columns(3).unwrap();
        exact.extend_columns(3).unwrap();
        crt.append_row_sparse_i64(&[(0, 1), (4, 1), (8, -1)]).unwrap();
        exact.append_row_i64(&[1, 0, 0, 0, 1, 0, 0, 0, -1]).unwrap();
        assert_eq!(crt.rank(), exact.rank());
        let cert = crt.certify().expect("widened system certifies");
        assert_eq!(cert.nullity, exact.nullity());
        assert_eq!(cert.basis, exact.kernel_basis().unwrap());
    }

    #[test]
    fn single_prime_aliasing_fails_closed() {
        // A row divisible by exactly one lane prime makes that lane see a
        // different pivot set; the certificate must refuse, and the
        // per-round answers must keep matching the single-prime watcher
        // (which is what the certified protocols fall back on).
        for &p in &CRT_PRIMES {
            let mut crt = CrtKernelTracker::new(2);
            let mut modp = ModpKernelTracker::new(2);
            let row = [p as i64, 1];
            crt.append_row_i64(&row).unwrap();
            modp.append_row_i64(&row).unwrap();
            assert_eq!(crt.rank(), modp.rank());
            assert_eq!(crt.pivots(), modp.pivots());
            assert!(
                crt.certify().is_none(),
                "aliasing by {p} must not certify"
            );
        }
        // ... and a full-rank system with no kernel certifies trivially.
        let mut crt = CrtKernelTracker::new(2);
        crt.append_row_i64(&[1, 0]).unwrap();
        crt.append_row_i64(&[0, 1]).unwrap();
        let cert = crt.certify().unwrap();
        assert_eq!(cert.nullity, 0);
        assert!(cert.basis.is_empty());
    }

    #[test]
    fn rational_reconstruction_roundtrip() {
        let m01 = CRT_PRIMES[0] as u128 * CRT_PRIMES[1] as u128;
        let bound = isqrt_u128(m01 / 2);
        let m0 = MontPrime::new(CRT_PRIMES[0]);
        let m1 = MontPrime::new(CRT_PRIMES[1]);
        let inv01 = m1.to_u64(m1.inv(m1.from_u64(CRT_PRIMES[0])).unwrap()) as u128;
        let residue = |m: MontPrime, n: i64, d: i64| {
            m.to_u64(m.mul(m.from_i64(n), m.inv(m.from_i64(d)).unwrap()))
        };
        for &(n, d) in &[
            (0i64, 1i64),
            (1, 1),
            (-1, 2),
            (3, 7),
            (-123_456_789, 987_654_321),
            (1 << 40, (1 << 41) - 1),
        ] {
            let x = crt_combine(residue(m0, n, d), residue(m1, n, d), inv01);
            let g = gcd_i128(i128::from(n.abs()), i128::from(d));
            assert_eq!(
                rational_reconstruct(x, m01, bound),
                Some((i128::from(n) / g, i128::from(d) / g)),
                "n/d = {n}/{d}"
            );
        }
        // Small integers reconstruct as themselves.
        assert_eq!(rational_reconstruct(42, m01, bound), Some((42, 1)));
    }

    #[test]
    #[ignore = "release-mode timing probe; run manually with --release -- --ignored"]
    fn fused_speedup_probe() {
        let (n, cols, rank) = (100_000usize, 81usize, 40usize);
        let mut st = 909u64;
        let basis: Vec<Vec<i64>> = (0..rank)
            .map(|_| (0..cols).map(|_| (splitmix(&mut st) % 19) as i64 - 9).collect())
            .collect();
        let rows: Vec<Vec<i64>> = (0..n)
            .map(|_| {
                let mut row = vec![0i64; cols];
                for _ in 0..3 {
                    let b = (splitmix(&mut st) % rank as u64) as usize;
                    let s = (splitmix(&mut st) % 7) as i64 - 3;
                    for (dst, &src) in row.iter_mut().zip(&basis[b]) {
                        *dst += s * src;
                    }
                }
                row
            })
            .collect();
        let m = MontPrime::new(CRT_PRIMES[0]);
        let time = |f: &mut dyn FnMut() -> PrimeEchelon| {
            let t0 = std::time::Instant::now();
            let out = f();
            (t0.elapsed().as_micros(), out)
        };
        let (scalar_us, scalar) = time(&mut || {
            let mut t = PrimeEchelon::new(m, cols);
            for row in &rows {
                t.append_row_scalar_i64(row).unwrap();
            }
            t
        });
        let (fused_us, fused) = time(&mut || {
            let mut t = PrimeEchelon::new(m, cols);
            for row in &rows {
                t.append_row_i64(row).unwrap();
            }
            t
        });
        assert_eq!(scalar, fused);
        println!(
            "rank {}: scalar {scalar_us}us fused {fused_us}us; fused {:.2}x",
            scalar.rank(),
            scalar_us as f64 / fused_us as f64,
        );
    }

    #[test]
    fn isqrt_is_exact() {
        for n in [0u128, 1, 2, 3, 4, 15, 16, 17, (1 << 61) - 1, 1 << 122] {
            let s = isqrt_u128(n);
            assert!(s * s <= n);
            assert!((s + 1) * (s + 1) > n);
        }
        let m01 = CRT_PRIMES[0] as u128 * CRT_PRIMES[1] as u128;
        let b = isqrt_u128(m01 / 2);
        // The reconstruction bound comfortably fits i64 (needed for the
        // lane-2 screen's `from_i64` embedding).
        assert!(b < i64::MAX as u128);
        assert!(2 * b * b < m01);
    }
}
