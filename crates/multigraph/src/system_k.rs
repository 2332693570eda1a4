//! The observation system for general `M(DBL)_k` (extension).
//!
//! The paper proves its bound for `k = 2` and lifts it to every `k` via
//! `M(DBL)_2 ⊆ M(DBL)_k` (Theorem 1). This module builds the general-`k`
//! observation matrix explicitly so the structure behind that containment
//! can be inspected: with `q = 2^k - 1` possible label sets, the system at
//! round `r` has `q^{r+1}` unknowns and `k·(q^{r+1} - 1)/(q - 1)` rows,
//! giving (for independent rows, which we verify computationally) a kernel
//! of dimension
//!
//! ```text
//! dim ker M_r^{(k)} = q^{r+1} − k·(q^{r+1} − 1)/(q − 1)
//! ```
//!
//! — 1 for `k = 2`, but *growing with the round* for `k ≥ 3`: richer label
//! alphabets leave the leader with more ambiguity dimensions, not fewer,
//! which is why proving the bound for `k = 2` suffices.

use crate::history::History;
use crate::label::LabelSet;
use crate::multigraph::DblMultigraph;
use anonet_linalg::{LinalgError, SparseIntMatrix};
use core::fmt;

/// The observation system builder for a given label budget `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneralSystem {
    k: u8,
}

/// Errors from the general-`k` system.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SystemKError {
    /// `k` must be between 1 and 6 (the matrices explode beyond that).
    UnsupportedK {
        /// The requested label budget.
        k: u8,
    },
    /// The multigraph's `k` does not match the system's.
    KMismatch {
        /// The system's label budget.
        system: u8,
        /// The multigraph's label budget.
        multigraph: u8,
    },
    /// Index arithmetic overflowed (round too large for this `k`).
    TooLarge,
    /// Matrix assembly failed.
    Linalg(LinalgError),
}

impl fmt::Display for SystemKError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemKError::UnsupportedK { k } => {
                write!(f, "general system supports 1 <= k <= 6, got {k}")
            }
            SystemKError::KMismatch { system, multigraph } => write!(
                f,
                "system built for k = {system} but multigraph has k = {multigraph}"
            ),
            SystemKError::TooLarge => write!(f, "round too large for this k"),
            SystemKError::Linalg(e) => write!(f, "matrix assembly failed: {e}"),
        }
    }
}

impl std::error::Error for SystemKError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SystemKError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for SystemKError {
    fn from(e: LinalgError) -> Self {
        SystemKError::Linalg(e)
    }
}

impl GeneralSystem {
    /// Creates the system for label budget `k` (1 ≤ k ≤ 6).
    ///
    /// # Errors
    ///
    /// Returns [`SystemKError::UnsupportedK`] outside that range.
    pub fn new(k: u8) -> Result<GeneralSystem, SystemKError> {
        if !(1..=6).contains(&k) {
            return Err(SystemKError::UnsupportedK { k });
        }
        Ok(GeneralSystem { k })
    }

    /// The label budget.
    pub fn k(&self) -> u8 {
        self.k
    }

    /// Number of distinct label sets `q = 2^k - 1`.
    pub fn q(&self) -> usize {
        (1usize << self.k) - 1
    }

    /// Number of unknowns at round `r`: `q^{r+1}`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemKError::TooLarge`] on overflow.
    pub fn column_count(&self, r: usize) -> Result<usize, SystemKError> {
        self.q()
            .checked_pow(r as u32 + 1)
            .ok_or(SystemKError::TooLarge)
    }

    /// Number of observation rows at round `r`:
    /// `k · Σ_{ℓ=0}^{r} q^ℓ = k·(q^{r+1} - 1)/(q - 1)` (for `q > 1`).
    ///
    /// # Errors
    ///
    /// Returns [`SystemKError::TooLarge`] on overflow.
    pub fn row_count(&self, r: usize) -> Result<usize, SystemKError> {
        let q = self.q();
        if q == 1 {
            return Ok((r + 1) * self.k as usize);
        }
        let cols = self.column_count(r)?;
        Ok(self.k as usize * ((cols - 1) / (q - 1)))
    }

    /// Predicted kernel dimension: `columns - rows` assuming independent
    /// rows. `M_r^{(k)}` depends only on `k` and `r`, so this is checked
    /// once, by exact elimination in the tests, at every cell with at most
    /// 512 columns (`k ≥ 2`). For the degenerate `k = 1` family every
    /// level repeats the same single constraint, so the nullity is 0 at
    /// every round.
    ///
    /// # Errors
    ///
    /// Returns [`SystemKError::TooLarge`] on overflow.
    pub fn predicted_nullity(&self, r: usize) -> Result<usize, SystemKError> {
        if self.q() == 1 {
            return Ok(0);
        }
        Ok(self.column_count(r)? - self.row_count(r)?)
    }

    /// The index of a history under the `q`-ary encoding (digit =
    /// bitmask − 1).
    ///
    /// # Panics
    ///
    /// Panics if a label set exceeds `k`.
    pub fn history_index(&self, h: &History) -> usize {
        let q = self.q();
        h.sets().iter().fold(0usize, |acc, s| {
            let digit = s.mask() as usize - 1;
            assert!(digit < q, "label set beyond k");
            acc * q + digit
        })
    }

    /// Builds the sparse observation matrix `M_r^{(k)}`.
    ///
    /// Rows are ordered level by level, label `1..=k` within a level,
    /// prefixes in `q`-ary order; columns are `q`-ary history indices.
    ///
    /// # Errors
    ///
    /// Returns [`SystemKError::TooLarge`] for infeasible sizes.
    pub fn observation_matrix(&self, r: usize) -> Result<SparseIntMatrix, SystemKError> {
        let q = self.q();
        let cols = self.column_count(r)?;
        if cols > 2_000_000 {
            return Err(SystemKError::TooLarge);
        }
        let mut m = SparseIntMatrix::new(cols);
        for level in 0..=r {
            let prefixes = q.pow(level as u32);
            let suffixes = q.pow((r - level) as u32);
            for j in 1..=self.k {
                for p in 0..prefixes {
                    let mut entries = Vec::new();
                    for digit in 0..q {
                        let mask = (digit + 1) as u32;
                        if mask & (1 << (j - 1)) == 0 {
                            continue;
                        }
                        let block = (p * q + digit) * suffixes;
                        for s in 0..suffixes {
                            entries.push(((block + s) as u32, 1i64));
                        }
                    }
                    m.push_row(entries)?;
                }
            }
        }
        debug_assert_eq!(m.rows(), self.row_count(r)?);
        Ok(m)
    }

    /// The sparse connection rows that round `level` appends to the
    /// observation system: `k · q^level` rows over the `q^{level+1}`
    /// columns left once every length-`level` history is refined into its
    /// `q` one-round extensions. Row `(j, p)` (label `j = 1..=k`, prefix
    /// `p` in `q`-ary order) has a one at every child `p·S` whose label
    /// set `S` contains `j`.
    ///
    /// An incremental tracker over one column that runs
    /// `extend_columns(q)` and then appends these rows, for each
    /// `level = 0..=r`, holds `M_r^{(k)}` up to row order — the same rank,
    /// nullity and reduced echelon as [`GeneralSystem::observation_matrix`]
    /// `(r)`, whose last `k · q^r` rows these are.
    ///
    /// # Errors
    ///
    /// Returns [`SystemKError::TooLarge`] if `q^{level+1}` overflows.
    pub fn level_rows(&self, level: usize) -> Result<Vec<Vec<(usize, i64)>>, SystemKError> {
        let q = self.q();
        let prefixes = self.column_count(level)? / q;
        let mut rows = Vec::with_capacity(self.k as usize * prefixes);
        for j in 0..self.k {
            for p in 0..prefixes {
                // Digit `d` is the label set with bitmask `d + 1`.
                let row = (0..q)
                    .filter(|&d| (d + 1) >> j & 1 == 1)
                    .map(|d| (p * q + d, 1))
                    .collect();
                rows.push(row);
            }
        }
        Ok(rows)
    }

    /// The census of `m` at depth `r + 1` under the `q`-ary indexing.
    ///
    /// # Errors
    ///
    /// Returns [`SystemKError::KMismatch`] if the multigraph's `k`
    /// differs and [`SystemKError::TooLarge`] for infeasible sizes.
    pub fn census(&self, m: &DblMultigraph, depth: usize) -> Result<Vec<i64>, SystemKError> {
        if m.k() != self.k {
            return Err(SystemKError::KMismatch {
                system: self.k,
                multigraph: m.k(),
            });
        }
        let size = self
            .q()
            .checked_pow(depth as u32)
            .filter(|&s| s <= 50_000_000)
            .ok_or(SystemKError::TooLarge)?;
        let mut counts = vec![0i64; size];
        for node in 0..m.nodes() {
            counts[self.history_index(&m.node_history(node, depth))] += 1;
        }
        Ok(counts)
    }

    /// The flat constant-terms vector `m_r` (the leader's observations),
    /// ordered like [`GeneralSystem::observation_matrix`] rows.
    ///
    /// # Errors
    ///
    /// Returns [`SystemKError::KMismatch`] or [`SystemKError::TooLarge`].
    pub fn observations(&self, m: &DblMultigraph, rounds: usize) -> Result<Vec<i64>, SystemKError> {
        if m.k() != self.k {
            return Err(SystemKError::KMismatch {
                system: self.k,
                multigraph: m.k(),
            });
        }
        let q = self.q();
        let mut out = Vec::new();
        for level in 0..rounds {
            let width = q
                .checked_pow(level as u32)
                .filter(|&s| s <= 50_000_000)
                .ok_or(SystemKError::TooLarge)?;
            let mut per_label = vec![vec![0i64; width]; self.k as usize];
            for node in 0..m.nodes() {
                let prefix = self.history_index(&m.node_history(node, level));
                let set: LabelSet = m.label_set(level, node);
                for j in set.iter() {
                    per_label[j as usize - 1][prefix] += 1;
                }
            }
            for row in per_label {
                out.extend(row);
            }
        }
        Ok(out)
    }
}

impl GeneralSystem {
    /// The set of population sizes consistent with the leader's round-`r`
    /// observations of `m`, by exhaustive lattice enumeration (extension
    /// experiments; small instances only).
    ///
    /// For `k = 2` this reproduces the tree solver's population interval;
    /// for `k ≥ 3` it quantifies the *wider* ambiguity left by the
    /// higher-dimensional kernel.
    ///
    /// # Errors
    ///
    /// Returns [`SystemKError`] for mismatched `k`, oversized instances,
    /// or an enumeration exceeding `max_solutions`.
    pub fn feasible_populations(
        &self,
        m: &DblMultigraph,
        rounds: usize,
        max_solutions: usize,
    ) -> Result<Vec<i64>, SystemKError> {
        let rhs = self.observations(m, rounds)?;
        self.feasible_populations_from_observations(&rhs, rounds, max_solutions)
    }

    /// [`GeneralSystem::feasible_populations`] from an already-assembled
    /// constant-terms vector (ordered like
    /// [`GeneralSystem::observations`]).
    ///
    /// This is the entry point for observations that did *not* come from
    /// a well-formed multigraph — e.g. the fault-injection layer replays
    /// perturbed delivery streams through it to ask which populations (if
    /// any) remain consistent. An empty result means no census explains
    /// the observations: the model was violated.
    ///
    /// # Errors
    ///
    /// Returns [`SystemKError::TooLarge`] for oversized instances, a
    /// mismatched `rhs` length, or an enumeration exceeding
    /// `max_solutions`.
    pub fn feasible_populations_from_observations(
        &self,
        rhs: &[i64],
        rounds: usize,
        max_solutions: usize,
    ) -> Result<Vec<i64>, SystemKError> {
        let r = rounds.saturating_sub(1);
        let matrix = self.observation_matrix(r)?;
        if rhs.len() != self.row_count(r)? {
            return Err(SystemKError::TooLarge);
        }
        let cap = rhs.iter().copied().max().unwrap_or(0);
        let sols = anonet_linalg::enumerate::enumerate_nonnegative_solutions(
            &matrix,
            rhs,
            cap,
            max_solutions,
        )?;
        let mut pops: Vec<i64> = sols.iter().map(|s| s.iter().sum()).collect();
        pops.sort_unstable();
        pops.dedup();
        Ok(pops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system;
    use anonet_linalg::{gauss, KernelTracker};

    #[test]
    fn k2_matches_specialized_system() {
        let sys = GeneralSystem::new(2).unwrap();
        for r in 0..4usize {
            assert_eq!(sys.column_count(r).unwrap(), system::column_count(r));
            assert_eq!(sys.row_count(r).unwrap(), system::row_count(r));
            assert_eq!(sys.predicted_nullity(r).unwrap(), 1);
            let a = sys.observation_matrix(r).unwrap();
            let b = system::observation_matrix(r).unwrap();
            assert_eq!(a, b, "general system specializes at r={r}");
        }
    }

    #[test]
    fn k_validation() {
        assert!(GeneralSystem::new(0).is_err());
        assert!(GeneralSystem::new(7).is_err());
        assert_eq!(GeneralSystem::new(3).unwrap().q(), 7);
    }

    #[test]
    fn k3_dimensions_and_rank() {
        let sys = GeneralSystem::new(3).unwrap();
        // r = 0: 3 rows, 7 cols, nullity 4.
        assert_eq!(sys.row_count(0).unwrap(), 3);
        assert_eq!(sys.column_count(0).unwrap(), 7);
        assert_eq!(sys.predicted_nullity(0).unwrap(), 4);
        // r = 1: 3 + 21 = 24 rows, 49 cols, nullity 25.
        assert_eq!(sys.row_count(1).unwrap(), 24);
        assert_eq!(sys.column_count(1).unwrap(), 49);
        assert_eq!(sys.predicted_nullity(1).unwrap(), 25);

        // Rows are independent (verified by exact elimination), so the
        // predicted nullity is the true kernel dimension.
        for r in 0..=1usize {
            let dense = sys.observation_matrix(r).unwrap().to_dense().unwrap();
            let ech = gauss::rref(&dense).unwrap();
            assert_eq!(ech.rank(), sys.row_count(r).unwrap(), "independent rows");
            assert_eq!(ech.nullity(), sys.predicted_nullity(r).unwrap());
        }
    }

    #[test]
    fn k4_predicted_nullity_grows() {
        let sys = GeneralSystem::new(4).unwrap();
        // q = 15: nullity at r=0 is 15 - 4 = 11.
        assert_eq!(sys.predicted_nullity(0).unwrap(), 11);
        let dense = sys.observation_matrix(0).unwrap().to_dense().unwrap();
        assert_eq!(gauss::rref(&dense).unwrap().nullity(), 11);
    }

    #[test]
    fn observations_are_matrix_times_census_k3() {
        let l = |labels: &[u8]| LabelSet::from_labels(labels, 3).unwrap();
        let m = DblMultigraph::new(
            3,
            vec![
                vec![l(&[1, 2, 3]), l(&[1]), l(&[2, 3]), l(&[2])],
                vec![l(&[1, 2]), l(&[3]), l(&[1]), l(&[2, 3])],
            ],
        )
        .unwrap();
        let sys = GeneralSystem::new(3).unwrap();
        for rounds in 1..=2usize {
            let r = rounds - 1;
            let mat = sys.observation_matrix(r).unwrap();
            let census = sys.census(&m, rounds).unwrap();
            let obs = sys.observations(&m, rounds).unwrap();
            let prod = mat.mul_vec(&census).unwrap();
            let expect: Vec<i128> = obs.iter().map(|&x| x as i128).collect();
            assert_eq!(prod, expect, "m_r = M_r s_r for k=3, r={r}");
        }
    }

    #[test]
    fn k_mismatch_detected() {
        let sys = GeneralSystem::new(3).unwrap();
        let m2 = DblMultigraph::new(2, vec![vec![LabelSet::L1]]).unwrap();
        assert!(matches!(
            sys.census(&m2, 1),
            Err(SystemKError::KMismatch { .. })
        ));
        assert!(matches!(
            sys.observations(&m2, 1),
            Err(SystemKError::KMismatch { .. })
        ));
    }

    #[test]
    fn too_large_detected() {
        let sys = GeneralSystem::new(6).unwrap();
        assert!(matches!(
            sys.observation_matrix(5),
            Err(SystemKError::TooLarge)
        ));
    }

    #[test]
    fn feasible_populations_matches_tree_solver_for_k2() {
        use crate::leader::Observations;
        use crate::system::solve_census;

        let m = crate::Census::from_counts(vec![0, 0, 2])
            .unwrap()
            .realize()
            .unwrap();
        let sys = GeneralSystem::new(2).unwrap();
        for rounds in 1..=2usize {
            let pops = sys.feasible_populations(&m, rounds, 10_000).unwrap();
            let obs = Observations::observe(&m, rounds).unwrap();
            let sol = solve_census(&obs).unwrap();
            let (lo, hi) = sol.population_range().unwrap();
            let expect: Vec<i64> = (lo..=hi).collect();
            assert_eq!(pops, expect, "rounds={rounds}");
        }
    }

    #[test]
    fn k3_ambiguity_is_wider_than_k2() {
        // One node on every label set: for k=3 the leader's round-0
        // ambiguity spans more candidate sizes than the k=2 analogue.
        let all7: Vec<LabelSet> = (1u32..8)
            .map(|mask| LabelSet::from_mask(mask, 3).unwrap())
            .collect();
        let m3 = DblMultigraph::new(3, vec![all7]).unwrap();
        let sys3 = GeneralSystem::new(3).unwrap();
        let pops3 = sys3.feasible_populations(&m3, 1, 1_000_000).unwrap();

        let m2 = DblMultigraph::new(
            2,
            vec![vec![
                crate::LabelSet::L1,
                crate::LabelSet::L2,
                crate::LabelSet::L12,
            ]],
        )
        .unwrap();
        let sys2 = GeneralSystem::new(2).unwrap();
        let pops2 = sys2.feasible_populations(&m2, 1, 10_000).unwrap();

        assert!(pops3.contains(&7), "truth is feasible: {pops3:?}");
        assert!(pops2.contains(&3), "truth is feasible: {pops2:?}");
        assert!(
            pops3.len() > pops2.len(),
            "k=3 ambiguity {pops3:?} wider than k=2 {pops2:?}"
        );
    }

    #[test]
    fn incremental_general_kernel_matches_batch() {
        // `M_r^{(k)}` depends on `k` and `r` alone, so its kernel is pinned
        // here once instead of being re-derived in every counting session:
        // every matrix with at most 512 columns for k = 2..=6, plus the
        // degenerate k = 1 family up to r = 2.
        for k in 1u8..=6 {
            let sys = GeneralSystem::new(k).unwrap();
            let mut exact = KernelTracker::new(1);
            let cells = (0usize..).take_while(|&r| {
                if k == 1 {
                    r <= 2
                } else {
                    sys.column_count(r).unwrap() <= 512
                }
            });
            for r in cells {
                // Round r: every history splits into its q extensions, then
                // the level's connection rows arrive.
                let rows = sys.level_rows(r).unwrap();
                exact.extend_columns(sys.q()).unwrap();
                for row in &rows {
                    exact.append_row_sparse_i64(row).unwrap();
                }
                let predicted = sys.predicted_nullity(r).unwrap();
                let independent = if k == 1 { 1 } else { sys.row_count(r).unwrap() };
                assert_eq!(exact.rank(), independent, "rank, k={k} r={r}");
                assert_eq!(exact.nullity(), predicted, "exact nullity, k={k} r={r}");
                let basis = exact.kernel_basis().unwrap();

                // The generated rows are the tail of the batch matrix, and
                // the incremental echelon is its canonical RREF.
                let batch = sys.observation_matrix(r).unwrap();
                let tail: Vec<Vec<(usize, i64)>> = (batch.rows() - rows.len()..batch.rows())
                    .map(|i| batch.row(i).iter().map(|&(c, x)| (c as usize, x)).collect())
                    .collect();
                assert_eq!(tail, rows, "level rows, k={k} r={r}");
                let dense = batch.to_dense().unwrap();
                let ech = gauss::rref(&dense).unwrap();
                assert_eq!(exact.pivots(), ech.pivots.as_slice(), "pivots, k={k} r={r}");
                assert_eq!(basis, gauss::kernel_basis(&dense).unwrap(), "k={k} r={r}");

                if k == 2 {
                    // Lemma 3: the kernel is the closed-form ±1 line.
                    let mut v = exact.kernel_basis_integer().unwrap().remove(0);
                    if v[0] < 0 {
                        v.iter_mut().for_each(|x| *x = -*x);
                    }
                    let expect: Vec<i128> =
                        system::kernel_vector(r).iter().map(|&x| x.into()).collect();
                    assert_eq!(v, expect, "Lemma 3 at r={r}");
                }
            }
        }
    }

    #[test]
    fn k1_degenerate_family() {
        // k = 1: every node has exactly the edge {1}; the leader counts in
        // one round (the star / G(PD)_1 situation). Nullity is 0.
        let sys = GeneralSystem::new(1).unwrap();
        assert_eq!(sys.q(), 1);
        assert_eq!(sys.column_count(0).unwrap(), 1);
        assert_eq!(sys.row_count(0).unwrap(), 1);
        assert_eq!(sys.predicted_nullity(0).unwrap(), 0);
        let dense = sys.observation_matrix(0).unwrap().to_dense().unwrap();
        assert_eq!(gauss::rref(&dense).unwrap().nullity(), 0);
    }
}
