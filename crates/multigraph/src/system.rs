//! The observation linear system `m_r = M_r s_r` for `M(DBL)_2` (§4.2).
//!
//! After round `r` the leader's knowledge about the census `s_r` (over
//! length-`r+1` histories) is exactly the linear system whose rows are its
//! per-round connection observations. This module provides:
//!
//! * [`observation_matrix`] — the explicit sparse `M_r`
//!   (`(3^{r+1} - 1) × 3^{r+1}`, 0/1 entries);
//! * [`kernel_vector`] — the closed-form kernel `k_r` of Lemma 3
//!   (`k_r = [k_{r-1}, k_{r-1}, -k_{r-1}]`, entries ±1);
//! * [`verify_kernel_product`] — a streaming check of `M_r · k_r = 0` that
//!   never materializes `M_r` (reaches much larger `r`);
//! * [`kernel_sums`] / [`KernelSums`] — `Σ`, `Σ⁺`, `Σ⁻` of Lemma 4;
//! * [`solve_census`] — the `O(3^{r+1})` tree solver recovering the affine
//!   solution line `{s_0 + t·k_r}` from the observations, which is how the
//!   optimal leader counting algorithm decides termination.

use crate::history::ternary_count;
use crate::leader::Observations;
use anonet_linalg::{LinalgError, SparseIntMatrix};
use core::fmt;

/// Number of columns of `M_r`: all length-`r+1` histories, `3^{r+1}`.
pub fn column_count(r: usize) -> usize {
    ternary_count(r + 1)
}

/// Number of rows of `M_r`: `2·Σ_{ℓ=0}^{r} 3^ℓ = 3^{r+1} - 1`.
pub fn row_count(r: usize) -> usize {
    column_count(r) - 1
}

/// Builds the sparse observation matrix `M_r`.
///
/// Rows are ordered level by level (`ℓ = 0..=r`), label 1 before label 2
/// within a level, prefixes in ternary order — the lexicographic
/// convention of §4.2. Columns are ternary history indices. The row for
/// connection `(j, p)` at level `ℓ` has ones exactly at the histories that
/// extend `p` with a label set containing `j` at position `ℓ`
/// (two trails of `3^{r-ℓ}` ones, as the paper describes).
///
/// # Errors
///
/// Returns [`LinalgError::Overflow`] only on astronomically large `r`
/// (index arithmetic is checked via `usize`).
pub fn observation_matrix(r: usize) -> Result<SparseIntMatrix, LinalgError> {
    let cols = column_count(r);
    let mut m = SparseIntMatrix::new(cols);
    for level in 0..=r {
        let prefixes = ternary_count(level);
        let suffixes = ternary_count(r - level);
        for j in 0..2usize {
            for p in 0..prefixes {
                // Histories extending p whose digit at `level` is `j` (the
                // singleton {j+1}) or 2 ({1,2}).
                let mut entries = Vec::with_capacity(2 * suffixes);
                for digit in [j, 2] {
                    let block = (p * 3 + digit) * suffixes;
                    for s in 0..suffixes {
                        entries.push(((block + s) as u32, 1i64));
                    }
                }
                m.push_row(entries)?;
            }
        }
    }
    debug_assert_eq!(m.rows(), row_count(r));
    Ok(m)
}

/// The closed-form kernel vector `k_r` of Lemma 3: component `h` is the
/// sign of history `h` (`+1` for an even number of `{1,2}` entries, `-1`
/// for odd), equivalently `k_r = [k_{r-1}, k_{r-1}, -k_{r-1}]`.
pub fn kernel_vector(r: usize) -> Vec<i64> {
    let mut k = vec![1i64];
    for _ in 0..=r {
        let mut next = Vec::with_capacity(k.len() * 3);
        next.extend_from_slice(&k);
        next.extend_from_slice(&k);
        next.extend(k.iter().map(|x| -x));
        k = next;
    }
    k
}

/// Streaming verification that `M_r · k_r = 0` without materializing
/// `M_r`: each row's two one-trails are summed directly over `k_r`.
///
/// Returns the first failing row as `(level, label, prefix)` or `None` if
/// the identity holds (Lemma 3).
pub fn verify_kernel_product(r: usize) -> Option<(usize, u8, usize)> {
    let k = kernel_vector(r);
    for level in 0..=r {
        let prefixes = ternary_count(level);
        let suffixes = ternary_count(r - level);
        for j in 0..2usize {
            for p in 0..prefixes {
                let mut acc: i64 = 0;
                for digit in [j, 2] {
                    let block = (p * 3 + digit) * suffixes;
                    for s in 0..suffixes {
                        acc += k[block + s];
                    }
                }
                if acc != 0 {
                    return Some((level, j as u8 + 1, p));
                }
            }
        }
    }
    None
}

/// The component sums of `k_r` (Lemma 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSums {
    /// `Σ⁺ k_r` — sum of positive components.
    pub positive: i64,
    /// `Σ⁻ k_r` — absolute sum of negative components.
    pub negative: i64,
}

impl KernelSums {
    /// `Σ k_r = Σ⁺ - Σ⁻`.
    pub fn total(&self) -> i64 {
        self.positive - self.negative
    }

    /// `min(Σ⁺, Σ⁻)` — the paper always finds the negative side smaller.
    pub fn min(&self) -> i64 {
        self.positive.min(self.negative)
    }
}

/// Computes [`KernelSums`] by materializing `k_r` and summing.
///
/// Use [`kernel_sums_closed_form`] for the Lemma 4 formulas; this function
/// is the independent computation the experiments compare against.
pub fn kernel_sums(r: usize) -> KernelSums {
    let k = kernel_vector(r);
    let positive = k.iter().filter(|&&x| x > 0).sum::<i64>();
    let negative = -k.iter().filter(|&&x| x < 0).sum::<i64>();
    KernelSums { positive, negative }
}

/// Lemma 4 closed forms: `Σ⁺ k_r = (3^{r+1} + 1) / 2`,
/// `Σ⁻ k_r = (3^{r+1} + 1)/2 - 1`, hence `Σ k_r = 1`.
pub fn kernel_sums_closed_form(r: usize) -> KernelSums {
    let p = (3i64.pow(r as u32 + 1) + 1) / 2;
    KernelSums {
        positive: p,
        negative: p - 1,
    }
}

/// The affine line of census solutions `{base + t·k : t ∈ ℤ}` recovered
/// from leader observations.
///
/// `base` is the (integral) solution at parameter `t = 0`; `kernel` is
/// `k_r`. The *feasible* solutions — those representing real networks —
/// are the non-negative ones; [`AffineCensus::t_range`] gives the integer
/// parameter interval, and the leader can output a count exactly when that
/// interval is a single point ([`AffineCensus::unique_population`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineCensus {
    base: Vec<i64>,
    kernel: Vec<i64>,
}

impl AffineCensus {
    /// The base solution (parameter `t = 0`), possibly with negative
    /// entries.
    pub fn base(&self) -> &[i64] {
        &self.base
    }

    /// The kernel direction `k_r` (entries ±1).
    pub fn kernel(&self) -> &[i64] {
        &self.kernel
    }

    /// History depth `L` of the solutions (`base.len() == 3^L`).
    pub fn depth(&self) -> usize {
        let mut size = 1usize;
        let mut depth = 0usize;
        while size < self.base.len() {
            size *= 3;
            depth += 1;
        }
        depth
    }

    /// The census at parameter `t`.
    pub fn at(&self, t: i64) -> Vec<i64> {
        self.base
            .iter()
            .zip(&self.kernel)
            .map(|(&b, &k)| b + t * k)
            .collect()
    }

    /// Population `Σ` of the census at parameter `t`. By Lemma 4
    /// (`Σ k_r = 1`), consecutive parameters differ by exactly one node.
    pub fn population_at(&self, t: i64) -> i64 {
        self.base.iter().sum::<i64>() + t
    }

    /// The integer interval `[t_min, t_max]` of parameters whose census is
    /// non-negative, or `None` if no feasible solution exists (the
    /// observations are not realizable).
    pub fn t_range(&self) -> Option<(i64, i64)> {
        let mut t_min = i64::MIN;
        let mut t_max = i64::MAX;
        for (&b, &k) in self.base.iter().zip(&self.kernel) {
            match k {
                1 => t_min = t_min.max(-b),
                -1 => t_max = t_max.min(b),
                _ => unreachable!("kernel entries are ±1"),
            }
        }
        (t_min <= t_max).then_some((t_min, t_max))
    }

    /// Number of feasible solutions (distinct candidate networks sizes).
    pub fn solution_count(&self) -> i64 {
        match self.t_range() {
            Some((lo, hi)) => hi - lo + 1,
            None => 0,
        }
    }

    /// If exactly one non-negative solution exists, its population — the
    /// count the leader can safely output.
    pub fn unique_population(&self) -> Option<i64> {
        match self.t_range() {
            Some((lo, hi)) if lo == hi => Some(self.population_at(lo)),
            _ => None,
        }
    }

    /// The feasible populations `[n_min, n_max]`, if any. The true network
    /// size always lies in this interval.
    pub fn population_range(&self) -> Option<(i64, i64)> {
        let (lo, hi) = self.t_range()?;
        Some((self.population_at(lo), self.population_at(hi)))
    }
}

/// Errors from the census solver.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveError {
    /// The observations cover zero rounds; there is nothing to solve.
    NoRounds,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NoRounds => write!(f, "cannot solve with zero observed rounds"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Solves `m_r = M_r s` for the affine census line in `O(3^{r+1})` time
/// using the ternary-tree structure of the system.
///
/// The recurrence: let `Y_p` be the number of nodes whose history extends
/// prefix `p`. The level-`ℓ` observations give, for every prefix `p` of
/// length `ℓ` with children `p·{1}, p·{2}, p·{1,2}`:
///
/// ```text
/// Y_{p·{1}}   = Y_p − B_p
/// Y_{p·{2}}   = Y_p − A_p
/// Y_{p·{1,2}} = A_p + B_p − Y_p
/// ```
///
/// where `A_p = |(1, p)|`, `B_p = |(2, p)|`. Every `Y` is thus an affine
/// function of the single unknown root value `Y_[] = |W| = t`, with
/// coefficient ±1 flipping exactly on `{1,2}` edges — which re-derives
/// Lemma 2 (`dim ker = 1`) and Lemma 3 (the sign structure of `k_r`)
/// constructively.
///
/// # Errors
///
/// Returns [`SolveError::NoRounds`] for empty observations.
pub fn solve_census(obs: &Observations) -> Result<AffineCensus, SolveError> {
    let rounds = obs.rounds();
    if rounds == 0 {
        return Err(SolveError::NoRounds);
    }
    // Affine value of Y_p as (const, coef) with census-at-parameter t being
    // const + coef * t; root: Y = 0 + 1·t.
    let mut consts = vec![0i64];
    let mut coefs = vec![1i64];
    for level in 0..rounds {
        let prefixes = ternary_count(level);
        debug_assert_eq!(consts.len(), prefixes);
        let mut next_consts = Vec::with_capacity(prefixes * 3);
        let mut next_coefs = Vec::with_capacity(prefixes * 3);
        for p in 0..prefixes {
            let a = obs.label1(level, p);
            let b = obs.label2(level, p);
            let (c, f) = (consts[p], coefs[p]);
            // Child {1}: Y − B_p.
            next_consts.push(c - b);
            next_coefs.push(f);
            // Child {2}: Y − A_p.
            next_consts.push(c - a);
            next_coefs.push(f);
            // Child {1,2}: A_p + B_p − Y.
            next_consts.push(a + b - c);
            next_coefs.push(-f);
        }
        consts = next_consts;
        coefs = next_coefs;
    }
    // The coefficient vector is exactly k_{rounds-1} by construction; use
    // it as the kernel direction.
    Ok(AffineCensus {
        base: consts,
        kernel: coefs,
    })
}

/// Incremental version of [`solve_census`]: maintains the affine census
/// line across rounds, extending it in `O(3^{level})` work per new level
/// instead of re-deriving the whole tree.
///
/// # Examples
///
/// ```
/// use anonet_multigraph::system::IncrementalSolver;
///
/// let mut solver = IncrementalSolver::new();
/// // Round 0 of the paper's Figure 3: a = [2], b = [2].
/// let sol = solver.push_level(&[2], &[2])?;
/// assert_eq!(sol.population_range(), Some((2, 4)));
/// # Ok::<(), anonet_multigraph::system::LevelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSolver {
    consts: Vec<i64>,
    coefs: Vec<i64>,
    levels: usize,
}

impl Default for IncrementalSolver {
    fn default() -> Self {
        IncrementalSolver::new()
    }
}

/// Error returned when a level of the wrong width is pushed into an
/// [`IncrementalSolver`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelError {
    /// The level being pushed.
    pub level: usize,
    /// The provided width.
    pub got: usize,
    /// The expected width `3^level`.
    pub expected: usize,
}

impl fmt::Display for LevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "level {} has width {}, expected 3^{} = {}",
            self.level, self.got, self.level, self.expected
        )
    }
}

impl std::error::Error for LevelError {}

impl IncrementalSolver {
    /// A fresh solver with no observed levels.
    pub fn new() -> IncrementalSolver {
        IncrementalSolver {
            consts: vec![0],
            coefs: vec![1],
            levels: 0,
        }
    }

    /// Number of ingested levels (observed rounds).
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Ingests one round of observations (`a[p] = |(1, p)|`,
    /// `b[p] = |(2, p)|` over the `3^level` prefixes) and returns the
    /// updated affine solution line.
    ///
    /// # Errors
    ///
    /// Returns [`LevelError`] if the slices do not have `3^level` entries.
    pub fn push_level(&mut self, a: &[i64], b: &[i64]) -> Result<AffineCensus, LevelError> {
        let expected = ternary_count(self.levels);
        for side in [a, b] {
            if side.len() != expected {
                return Err(LevelError {
                    level: self.levels,
                    got: side.len(),
                    expected,
                });
            }
        }
        let prefixes = self.consts.len();
        let mut next_consts = Vec::with_capacity(prefixes * 3);
        let mut next_coefs = Vec::with_capacity(prefixes * 3);
        for p in 0..prefixes {
            let (c, f) = (self.consts[p], self.coefs[p]);
            next_consts.push(c - b[p]);
            next_coefs.push(f);
            next_consts.push(c - a[p]);
            next_coefs.push(f);
            next_consts.push(a[p] + b[p] - c);
            next_coefs.push(-f);
        }
        self.consts = next_consts;
        self.coefs = next_coefs;
        self.levels += 1;
        Ok(self.current())
    }

    /// The current affine solution line.
    ///
    /// # Panics
    ///
    /// Panics if no level has been pushed yet (the line over zero rounds
    /// is not a census space).
    pub fn current(&self) -> AffineCensus {
        assert!(self.levels > 0, "push at least one level first");
        AffineCensus {
            base: self.consts.clone(),
            kernel: self.coefs.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::Census;
    use crate::label::LabelSet;
    use crate::multigraph::DblMultigraph;
    use anonet_linalg::{gauss, vector};

    #[test]
    fn dimensions_match_paper() {
        // M_0: 2x3. M_1: 8x9 (§4.2).
        assert_eq!((row_count(0), column_count(0)), (2, 3));
        assert_eq!((row_count(1), column_count(1)), (8, 9));
        let m1 = observation_matrix(1).unwrap();
        assert_eq!((m1.rows(), m1.cols()), (8, 9));
    }

    #[test]
    fn m1_matches_equation_5() {
        let m1 = observation_matrix(1).unwrap();
        let expected: [[i64; 9]; 8] = [
            [1, 1, 1, 0, 0, 0, 1, 1, 1],
            [0, 0, 0, 1, 1, 1, 1, 1, 1],
            [1, 0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0, 1],
            [0, 1, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1, 1],
        ];
        for (r, row) in expected.iter().enumerate() {
            let dense: Vec<i64> = {
                let mut v = vec![0i64; 9];
                for &(c, val) in m1.row(r) {
                    v[c as usize] = val;
                }
                v
            };
            assert_eq!(dense, row.to_vec(), "row {r} of M_1 (Eq. 5)");
        }
    }

    #[test]
    fn kernel_vector_matches_paper() {
        assert_eq!(kernel_vector(0), vec![1, 1, -1]);
        assert_eq!(kernel_vector(1), vec![1, 1, -1, 1, 1, -1, -1, -1, 1]);
    }

    #[test]
    fn kernel_annihilates_small_rounds() {
        for r in 0..6 {
            let m = observation_matrix(r).unwrap();
            let k = kernel_vector(r);
            let out = m.mul_vec(&k).unwrap();
            assert!(out.iter().all(|&x| x == 0), "M_{r} · k_{r} = 0");
        }
    }

    #[test]
    fn streaming_verification_agrees() {
        for r in 0..8 {
            assert_eq!(verify_kernel_product(r), None, "Lemma 3 at round {r}");
        }
    }

    #[test]
    fn kernel_is_whole_kernel_lemma2() {
        // Rational elimination: nullity of M_r is exactly 1 (Lemma 2).
        for r in 0..3 {
            let dense = observation_matrix(r).unwrap().to_dense().unwrap();
            let basis = gauss::kernel_basis(&dense).unwrap();
            assert_eq!(basis.len(), 1, "dim ker M_{r} = 1");
            let mut k = gauss::to_integer_vector(&basis[0]).unwrap();
            if k[0] < 0 {
                for x in &mut k {
                    *x = -*x;
                }
            }
            let expect: Vec<i128> = kernel_vector(r).iter().map(|&x| x as i128).collect();
            assert_eq!(k, expect);
        }
    }

    #[test]
    fn kernel_sums_match_lemma4() {
        for r in 0..10 {
            let computed = kernel_sums(r);
            let closed = kernel_sums_closed_form(r);
            assert_eq!(computed, closed, "Lemma 4 at round {r}");
            assert_eq!(computed.total(), 1);
            assert_eq!(computed.min(), computed.negative);
        }
        // The paper's r = 1 values: Σ⁺ = 5, Σ⁻ = 4.
        assert_eq!(
            kernel_sums(1),
            KernelSums {
                positive: 5,
                negative: 4
            }
        );
    }

    fn solve_for(m: &DblMultigraph, rounds: usize) -> AffineCensus {
        let obs = Observations::observe(m, rounds).unwrap();
        solve_census(&obs).unwrap()
    }

    #[test]
    fn solver_recovers_census_line_figure3() {
        // Figure 3: M (2 nodes, both {1,2}) at round 0.
        let m = DblMultigraph::new(2, vec![vec![LabelSet::L12, LabelSet::L12]]).unwrap();
        let sol = solve_for(&m, 1);
        let (lo, hi) = sol.t_range().unwrap();
        // Solutions: [0,0,2] (n=2), [1,1,1] (n=3), [2,2,0] (n=4).
        assert_eq!(hi - lo, 2);
        let censuses: Vec<Vec<i64>> = (lo..=hi).map(|t| sol.at(t)).collect();
        assert!(censuses.contains(&vec![0, 0, 2]));
        assert!(censuses.contains(&vec![2, 2, 0]));
        assert_eq!(sol.population_range().unwrap(), (2, 4));
        assert_eq!(sol.unique_population(), None);
    }

    #[test]
    fn solver_base_satisfies_system() {
        let m = DblMultigraph::new(
            2,
            vec![
                vec![LabelSet::L1, LabelSet::L12, LabelSet::L2],
                vec![LabelSet::L2, LabelSet::L12, LabelSet::L2],
            ],
        )
        .unwrap();
        for rounds in 1..=2 {
            let sol = solve_for(&m, rounds);
            let r = rounds - 1;
            let mat = observation_matrix(r).unwrap();
            let obs = Observations::observe(&m, rounds).unwrap();
            let flat = obs.flat();
            // Every point on the line satisfies M_r s = m_r.
            for t in [-3i64, 0, 2] {
                let s = sol.at(t);
                let prod = mat.mul_vec(&s).unwrap();
                let expect: Vec<i128> = flat.iter().map(|&x| x as i128).collect();
                assert_eq!(prod, expect);
            }
            // The kernel direction is k_r.
            assert_eq!(sol.kernel(), kernel_vector(r).as_slice());
        }
    }

    #[test]
    fn solver_true_census_is_feasible() {
        let m = DblMultigraph::new(
            2,
            vec![
                vec![LabelSet::L1, LabelSet::L2, LabelSet::L12, LabelSet::L1],
                vec![LabelSet::L12, LabelSet::L2, LabelSet::L1, LabelSet::L1],
                vec![LabelSet::L2, LabelSet::L2, LabelSet::L2, LabelSet::L12],
            ],
        )
        .unwrap();
        for rounds in 1..=3 {
            let sol = solve_for(&m, rounds);
            let truth = Census::of_multigraph(&m, rounds);
            let (lo, hi) = sol.t_range().unwrap();
            let found = (lo..=hi).any(|t| sol.at(t) == truth.counts());
            assert!(found, "true census on the solution line at depth {rounds}");
            let (nlo, nhi) = sol.population_range().unwrap();
            assert!((nlo..=nhi).contains(&(m.nodes() as i64)));
        }
    }

    #[test]
    fn unique_solution_for_tiny_networks() {
        // n = 1: a single node; by round 1 (system at r=1) the leader knows
        // the count (the paper: n ≤ 3 is countable in 2 rounds).
        let m = DblMultigraph::new(2, vec![vec![LabelSet::L1], vec![LabelSet::L2]]).unwrap();
        let sol = solve_for(&m, 2);
        assert_eq!(sol.unique_population(), Some(1));
        assert_eq!(sol.solution_count(), 1);
    }

    #[test]
    fn solver_rejects_empty() {
        let obs = Observations::from_levels(vec![], vec![]).unwrap();
        assert_eq!(solve_census(&obs), Err(SolveError::NoRounds));
    }

    #[test]
    fn infeasible_observations_detected() {
        // a = [5], b = [0] at level 0 and zero everywhere at level 1 is
        // inconsistent with any census: level-1 says nobody connected.
        let obs =
            Observations::from_levels(vec![vec![5], vec![0, 0, 0]], vec![vec![0], vec![0, 0, 0]])
                .unwrap();
        let sol = solve_census(&obs).unwrap();
        assert_eq!(sol.t_range(), None);
        assert_eq!(sol.solution_count(), 0);
        assert_eq!(sol.unique_population(), None);
    }

    #[test]
    fn incremental_solver_matches_batch() {
        let m = DblMultigraph::new(
            2,
            vec![
                vec![LabelSet::L1, LabelSet::L2, LabelSet::L12, LabelSet::L1],
                vec![LabelSet::L12, LabelSet::L2, LabelSet::L1, LabelSet::L1],
                vec![LabelSet::L2, LabelSet::L2, LabelSet::L2, LabelSet::L12],
            ],
        )
        .unwrap();
        let mut inc = IncrementalSolver::new();
        assert_eq!(inc.levels(), 0);
        for rounds in 1..=3usize {
            let obs = Observations::observe(&m, rounds).unwrap();
            let level = rounds - 1;
            let a: Vec<i64> = (0..ternary_count(level))
                .map(|p| obs.label1(level, p))
                .collect();
            let b: Vec<i64> = (0..ternary_count(level))
                .map(|p| obs.label2(level, p))
                .collect();
            let incremental = inc.push_level(&a, &b).unwrap();
            let batch = solve_census(&obs).unwrap();
            assert_eq!(incremental, batch, "rounds={rounds}");
            assert_eq!(inc.levels(), rounds);
        }
    }

    #[test]
    fn incremental_solver_rejects_bad_widths() {
        let mut inc = IncrementalSolver::new();
        assert!(inc.push_level(&[1, 2], &[1]).is_err());
        inc.push_level(&[3], &[3]).unwrap();
        let err = inc.push_level(&[1], &[1]).unwrap_err();
        assert_eq!(err.expected, 3);
        assert_eq!(err.to_string(), "level 1 has width 1, expected 3^1 = 3");
    }

    #[test]
    #[should_panic(expected = "push at least one level")]
    fn incremental_solver_current_requires_levels() {
        IncrementalSolver::new().current();
    }

    #[test]
    fn population_step_is_one() {
        // Lemma 4 consequence: consecutive feasible solutions differ by one
        // node.
        let m = DblMultigraph::new(2, vec![vec![LabelSet::L12, LabelSet::L12]]).unwrap();
        let sol = solve_for(&m, 1);
        let (lo, hi) = sol.t_range().unwrap();
        for t in lo..hi {
            assert_eq!(sol.population_at(t + 1) - sol.population_at(t), 1);
            assert_eq!(
                vector::sum(&sol.at(t + 1)).unwrap() - vector::sum(&sol.at(t)).unwrap(),
                1
            );
        }
    }
}
