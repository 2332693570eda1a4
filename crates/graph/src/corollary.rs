//! The Corollary 1 construction: grafting a static chain onto a dynamic
//! core to inflate the dynamic diameter.
//!
//! Corollary 1 of the paper lifts the `G(PD)_2` lower bound to any constant
//! dynamic diameter `D`: connect the leader to the dynamic core through a
//! static chain, so information needs `Θ(chain)` extra rounds in each
//! direction while the core still forces the `Ω(log |V|)` ambiguity.
//!
//! [`ChainExtended`] implements this as a generic graph transformer: the
//! inner network's leader (its node 0) is replaced by the far end of a
//! static chain whose near end is the new leader.

use crate::dynamic::DynamicNetwork;
use crate::graph::Graph;

/// A dynamic network obtained from `inner` by splicing a static chain of
/// `chain_len` extra nodes between a new leader and the inner network's
/// leader position.
///
/// Node layout of the result (order = `inner.order() + chain_len`):
///
/// * node `0` — the new leader;
/// * nodes `1..=chain_len` — the static chain (`0 – 1 – … – chain_len`);
/// * node `chain_len` is additionally connected, each round, to every node
///   the *inner* leader was adjacent to in that round's inner graph;
/// * inner node `i >= 1` becomes node `chain_len + i`.
///
/// With `chain_len = 0` the transformation is the identity.
///
/// # Examples
///
/// ```
/// use anonet_graph::{ChainExtended, DynamicNetwork, Graph, GraphSequence, metrics};
///
/// let core = GraphSequence::constant(Graph::star(4)?); // leader + 3 leaves
/// let mut net = ChainExtended::new(core, 3);
/// assert_eq!(net.order(), 7);
/// // Distances grow by the chain length.
/// let d = metrics::persistent_distances(&mut net, 4).unwrap();
/// assert_eq!(d, vec![0, 1, 2, 3, 4, 4, 4]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ChainExtended<N> {
    inner: N,
    chain_len: usize,
}

impl<N: DynamicNetwork> ChainExtended<N> {
    /// Wraps `inner`, adding `chain_len` chain nodes before its leader.
    ///
    /// # Panics
    ///
    /// Panics if `inner` has no nodes.
    pub fn new(inner: N, chain_len: usize) -> ChainExtended<N> {
        assert!(inner.order() > 0, "inner network must be non-empty");
        ChainExtended { inner, chain_len }
    }

    /// The wrapped inner network.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// Number of spliced chain nodes.
    pub fn chain_len(&self) -> usize {
        self.chain_len
    }

    /// Maps an inner node id to its id in the extended network.
    pub fn map_inner(&self, inner_node: usize) -> usize {
        if inner_node == 0 {
            self.chain_len
        } else {
            self.chain_len + inner_node
        }
    }
}

impl<N: DynamicNetwork> DynamicNetwork for ChainExtended<N> {
    fn order(&self) -> usize {
        self.inner.order() + self.chain_len
    }

    fn graph(&mut self, round: u32) -> Graph {
        let inner_g = self.inner.graph(round);
        // Static chain 0 - 1 - ... - chain_len.
        let chain = (1..=self.chain_len).map(|i| (i - 1, i));
        // Inner edges, remapped; the inner leader's position is the chain end.
        let remapped = inner_g
            .edges()
            .map(|(u, v)| (self.map_inner(u), self.map_inner(v)));
        Graph::from_edges(inner_g.order() + self.chain_len, chain.chain(remapped))
            .expect("chain and remapped edges valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::GraphSequence;
    use crate::metrics;

    fn star_core(leaves: usize) -> GraphSequence {
        GraphSequence::constant(Graph::star(leaves + 1).unwrap())
    }

    #[test]
    fn zero_chain_is_identity() {
        let mut net = ChainExtended::new(star_core(3), 0);
        assert_eq!(net.order(), 4);
        assert_eq!(net.graph(0), Graph::star(4).unwrap());
        assert_eq!(net.map_inner(0), 0);
        assert_eq!(net.map_inner(2), 2);
    }

    #[test]
    fn chain_structure() {
        let mut net = ChainExtended::new(star_core(2), 2);
        let g = net.graph(0);
        assert_eq!(g.order(), 5);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2));
        // Chain end (node 2) took over the inner leader's star edges.
        assert!(g.has_edge(2, 3) && g.has_edge(2, 4));
        assert!(!g.has_edge(0, 3));
        assert!(g.is_connected());
    }

    #[test]
    fn diameter_grows_with_chain() {
        // For a star core the extremal flood is leaf -> hub -> chain -> new
        // leader: max(base, chain + 1) rounds.
        let base = metrics::dynamic_diameter(&mut star_core(4), 2, 32).unwrap();
        assert_eq!(base, 2);
        for chain in [1usize, 3, 6] {
            let mut net = ChainExtended::new(star_core(4), chain);
            let d = metrics::dynamic_diameter(&mut net, 2, 64).unwrap();
            assert_eq!(d, base.max(chain as u32 + 1));
        }
    }

    #[test]
    fn preserves_interval_connectivity() {
        let mut net = ChainExtended::new(star_core(3), 4);
        assert_eq!(
            crate::dynamic::check_interval_connectivity(&mut net, 8),
            None
        );
    }

    #[test]
    fn map_inner_consistency() {
        let net = ChainExtended::new(star_core(3), 5);
        assert_eq!(net.chain_len(), 5);
        assert_eq!(net.map_inner(0), 5);
        assert_eq!(net.map_inner(1), 6);
        assert_eq!(net.inner().order(), 4);
    }
}
