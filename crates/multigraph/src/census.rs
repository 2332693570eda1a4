//! Census vectors: counting nodes by state history.
//!
//! A *census* at depth `L` assigns to every length-`L` history the number
//! of nodes currently carrying it — the paper's solution vector `s_r`
//! (with `L = r + 1`). The census is the bridge between the linear-algebra
//! view (§4.2) and concrete multigraphs: any non-negative census is
//! *realizable* as an `M(DBL)_2` multigraph, and projecting a census one
//! level down (summing ternary siblings) gives the census of the preceding
//! round.

use crate::history::{ternary_count, History};
use crate::label::LabelSet;
use crate::multigraph::{DblError, DblMultigraph};
use core::fmt;

/// Errors produced by census operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CensusError {
    /// The counts vector length was not `3^depth` for any depth ≥ 1.
    BadLength {
        /// The provided length.
        got: usize,
    },
    /// A count was negative.
    Negative {
        /// Index of the offending history.
        index: usize,
    },
    /// The census is empty (no nodes) and cannot be realized.
    NoNodes,
}

impl fmt::Display for CensusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CensusError::BadLength { got } => {
                write!(f, "census length {got} is not a power of three")
            }
            CensusError::Negative { index } => {
                write!(f, "census count at history index {index} is negative")
            }
            CensusError::NoNodes => write!(f, "census has no nodes to realize"),
        }
    }
}

impl std::error::Error for CensusError {}

/// A `k = 2` census: `counts[i]` nodes carry the length-`depth` history
/// with ternary index `i`.
///
/// # Examples
///
/// The paper's Figure 3 censuses `s_0 = [0,0,2]` and `s'_0 = [2,2,0]`:
///
/// ```
/// use anonet_multigraph::Census;
///
/// let s = Census::from_counts(vec![0, 0, 2])?;
/// let s_prime = Census::from_counts(vec![2, 2, 0])?;
/// assert_eq!(s.population(), 2);
/// assert_eq!(s_prime.population(), 4);
/// # Ok::<(), anonet_multigraph::CensusError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Census {
    depth: usize,
    counts: Vec<i64>,
}

impl Census {
    /// Builds a census from per-history counts (length must be `3^depth`,
    /// depth ≥ 1, all counts non-negative).
    ///
    /// # Errors
    ///
    /// Returns [`CensusError::BadLength`] or [`CensusError::Negative`].
    pub fn from_counts(counts: Vec<i64>) -> Result<Census, CensusError> {
        let mut depth = 0usize;
        let mut size = 1usize;
        while size < counts.len() {
            size *= 3;
            depth += 1;
        }
        if size != counts.len() || depth == 0 {
            return Err(CensusError::BadLength { got: counts.len() });
        }
        if let Some(index) = counts.iter().position(|&c| c < 0) {
            return Err(CensusError::Negative { index });
        }
        Ok(Census { depth, counts })
    }

    /// The census of `m` at history depth `depth` (counting each node's
    /// length-`depth` history).
    ///
    /// # Panics
    ///
    /// Panics if `m.k() != 2` or `depth == 0`.
    pub fn of_multigraph(m: &DblMultigraph, depth: usize) -> Census {
        assert_eq!(m.k(), 2, "census indexing requires k = 2");
        assert!(depth > 0, "census depth must be at least 1");
        let mut counts = vec![0i64; ternary_count(depth)];
        for node in 0..m.nodes() {
            let mut idx = 0usize;
            for r in 0..depth {
                idx = idx * 3 + m.label_set(r, node).ternary_digit();
            }
            counts[idx] += 1;
        }
        Census { depth, counts }
    }

    /// History depth `L`.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The raw counts, indexed by ternary history index.
    pub fn counts(&self) -> &[i64] {
        &self.counts
    }

    /// Number of nodes carrying history index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 3^depth`.
    pub fn count(&self, i: usize) -> i64 {
        self.counts[i]
    }

    /// Total number of nodes `|W| = Σ s`.
    pub fn population(&self) -> i64 {
        self.counts.iter().sum()
    }

    /// Projects one level down: the census of length-`depth-1` histories
    /// (each entry the sum of its three ternary children). Returns `None`
    /// at depth 1.
    pub fn project(&self) -> Option<Census> {
        if self.depth == 1 {
            return None;
        }
        let counts: Vec<i64> = self.counts.chunks(3).map(|c| c.iter().sum()).collect();
        Some(Census {
            depth: self.depth - 1,
            counts,
        })
    }

    /// Projects down to exactly `depth` levels.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or greater than the census depth.
    pub fn project_to(&self, depth: usize) -> Census {
        assert!(depth >= 1 && depth <= self.depth, "bad projection depth");
        let mut c = self.clone();
        while c.depth > depth {
            c = c.project().expect("depth > 1");
        }
        c
    }

    /// Adds `t` copies of the signed vector `k` (entries ±1 per history
    /// sign), returning an error description if any count would go
    /// negative.
    ///
    /// # Errors
    ///
    /// Returns [`CensusError::Negative`] (with the first offending index)
    /// if the shifted census has a negative entry.
    pub fn shift(&self, t: i64, k: &[i64]) -> Result<Census, CensusError> {
        assert_eq!(k.len(), self.counts.len(), "kernel length mismatch");
        let mut counts = Vec::with_capacity(self.counts.len());
        for (i, (&c, &kv)) in self.counts.iter().zip(k).enumerate() {
            let v = c + t * kv;
            if v < 0 {
                return Err(CensusError::Negative { index: i });
            }
            counts.push(v);
        }
        Ok(Census {
            depth: self.depth,
            counts,
        })
    }

    /// Expands the census into one [`History`] per node, in ternary-index
    /// order.
    pub fn to_histories(&self) -> Vec<History> {
        let mut out = Vec::with_capacity(self.population().max(0) as usize);
        for (i, &c) in self.counts.iter().enumerate() {
            for _ in 0..c {
                out.push(History::from_ternary_index(self.depth, i));
            }
        }
        out
    }

    /// Realizes the census as a concrete `M(DBL)_2` multigraph whose nodes
    /// play exactly these histories over rounds `0..depth`.
    ///
    /// Nodes come in ternary-index order, as in [`Census::to_histories`];
    /// each round's label sets are written straight from the digits of
    /// the census index (round `depth - 1` reads the least significant
    /// digit), without a per-node history.
    ///
    /// # Errors
    ///
    /// Returns [`CensusError::NoNodes`] for an all-zero census; multigraph
    /// construction itself cannot fail for valid censuses.
    pub fn realize(&self) -> Result<DblMultigraph, CensusError> {
        let nodes = usize::try_from(self.population()).unwrap_or(0);
        if nodes == 0 {
            return Err(CensusError::NoNodes);
        }
        let mut rounds: Vec<Vec<LabelSet>> =
            (0..self.depth).map(|_| Vec::with_capacity(nodes)).collect();
        for (i, &c) in self.counts.iter().enumerate() {
            let copies = usize::try_from(c).unwrap_or(0);
            if copies == 0 {
                continue;
            }
            let mut rest = i;
            for round in rounds.iter_mut().rev() {
                let set = LabelSet::from_ternary_digit(rest % 3);
                round.extend(std::iter::repeat_n(set, copies));
                rest /= 3;
            }
        }
        DblMultigraph::new(2, rounds)
            .map_err(|e: DblError| unreachable!("valid census must realize: {e}"))
    }
}

impl fmt::Debug for Census {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Census(depth={}, population={}, counts={:?})",
            self.depth,
            self.population(),
            self.counts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelSet;
    use crate::system::kernel_vector;

    #[test]
    fn from_counts_validation() {
        assert!(Census::from_counts(vec![1, 2, 3]).is_ok());
        assert!(Census::from_counts(vec![0; 9]).is_ok());
        assert_eq!(
            Census::from_counts(vec![1, 2]),
            Err(CensusError::BadLength { got: 2 })
        );
        assert_eq!(
            Census::from_counts(vec![1]),
            Err(CensusError::BadLength { got: 1 })
        );
        assert_eq!(
            Census::from_counts(vec![0, -1, 0]),
            Err(CensusError::Negative { index: 1 })
        );
    }

    #[test]
    fn population_and_projection() {
        // Figure 4's s_1 = [0,0,1,0,0,1,1,1,0]: 4 nodes.
        let s1 = Census::from_counts(vec![0, 0, 1, 0, 0, 1, 1, 1, 0]).unwrap();
        assert_eq!(s1.population(), 4);
        let p = s1.project().unwrap();
        assert_eq!(p.counts(), &[1, 1, 2]);
        assert_eq!(p.population(), 4);
        assert!(p.project().is_none());
        assert_eq!(s1.project_to(1).counts(), &[1, 1, 2]);
    }

    #[test]
    fn shift_by_kernel_matches_figure4() {
        let s1 = Census::from_counts(vec![0, 0, 1, 0, 0, 1, 1, 1, 0]).unwrap();
        let k1 = kernel_vector(1);
        let s1p = s1.shift(1, &k1).unwrap();
        assert_eq!(s1p.counts(), &[1, 1, 0, 1, 1, 0, 0, 0, 1]);
        assert_eq!(s1p.population(), 5);
        // Shifting down is impossible: s_1 - k_1 has negatives.
        assert!(s1.shift(-1, &k1).is_err());
    }

    #[test]
    fn realize_roundtrip() {
        let s = Census::from_counts(vec![2, 0, 1]).unwrap();
        let m = s.realize().unwrap();
        assert_eq!(m.nodes(), 3);
        assert_eq!(Census::of_multigraph(&m, 1), s);
        // Node histories: two [{1}] then one [{1,2}].
        assert_eq!(m.label_set(0, 0), LabelSet::L1);
        assert_eq!(m.label_set(0, 2), LabelSet::L12);
    }

    #[test]
    fn realize_matches_the_per_node_history_build_on_twins() {
        use crate::adversary::{SurplusPlacement, TwinBuilder};
        for placement in [SurplusPlacement::FirstNegative, SurplusPlacement::Spread] {
            let builder = TwinBuilder::new().with_placement(placement);
            for n in [1u64, 2, 4, 13, 40, 121, 364, 1093] {
                let smaller = builder.smaller_census(n).unwrap();
                let larger = smaller
                    .shift(1, &kernel_vector(smaller.depth() - 1))
                    .unwrap();
                for census in [smaller, larger] {
                    let reference =
                        DblMultigraph::from_histories(2, &census.to_histories()).unwrap();
                    assert_eq!(census.realize().unwrap(), reference, "n={n} {placement:?}");
                }
            }
        }
    }

    #[test]
    fn realize_empty_fails() {
        let z = Census::from_counts(vec![0, 0, 0]).unwrap();
        assert_eq!(z.realize(), Err(CensusError::NoNodes));
    }

    #[test]
    fn of_multigraph_depths() {
        let m = DblMultigraph::new(
            2,
            vec![
                vec![LabelSet::L1, LabelSet::L12],
                vec![LabelSet::L2, LabelSet::L12],
            ],
        )
        .unwrap();
        let c1 = Census::of_multigraph(&m, 1);
        assert_eq!(c1.counts(), &[1, 0, 1]);
        let c2 = Census::of_multigraph(&m, 2);
        // Node 0: [{1},{2}] → index 0*3+1 = 1. Node 1: [{1,2},{1,2}] → 8.
        assert_eq!(c2.count(1), 1);
        assert_eq!(c2.count(8), 1);
        assert_eq!(c2.population(), 2);
        // Projection of depth-2 census equals depth-1 census.
        assert_eq!(c2.project().unwrap(), c1);
    }

    #[test]
    fn to_histories_order() {
        let s = Census::from_counts(vec![1, 0, 2]).unwrap();
        let hs = s.to_histories();
        assert_eq!(hs.len(), 3);
        assert_eq!(hs[0].ternary_index(), 0);
        assert_eq!(hs[1].ternary_index(), 2);
        assert_eq!(hs[2].ternary_index(), 2);
    }
}
