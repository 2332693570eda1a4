//! Static undirected graphs.
//!
//! [`Graph`] is the per-round communication topology `G_r = (V, E(r))` of
//! the paper's model (§3): a simple undirected graph over a fixed node set
//! `0..n`, where node `0` is conventionally the distinguished leader `v_l`.

use core::fmt;

/// Index of a node in a [`Graph`]. Node `0` is the leader by convention.
pub type NodeId = usize;

/// Errors produced when building or validating graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge referenced a node outside `0..order`.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// The number of nodes in the graph.
        order: usize,
    },
    /// A self-loop was requested; the model uses simple graphs.
    SelfLoop {
        /// The node with the attempted loop.
        node: NodeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, order } => {
                write!(f, "node {node} out of range for graph of order {order}")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node} not allowed"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A simple undirected graph over nodes `0..order`.
///
/// # Examples
///
/// ```
/// use anonet_graph::Graph;
///
/// // A star with the leader (node 0) at the center: the G(PD)_1 topology.
/// let g = Graph::star(4)?;
/// assert_eq!(g.order(), 4);
/// assert_eq!(g.degree(0), 3);
/// assert!(g.is_connected());
/// # Ok::<(), anonet_graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<NodeId>>,
    edges: usize,
}

impl Graph {
    /// Creates an edgeless graph with `order` nodes.
    pub fn empty(order: usize) -> Graph {
        Graph {
            adj: vec![Vec::new(); order],
            edges: 0,
        }
    }

    /// Builds a graph from an explicit edge list in one bulk pass.
    ///
    /// Every edge is validated in list order and counted, each adjacency
    /// list is allocated at its final size, both directions are pushed,
    /// and each list is then sorted and deduplicated once, so the build
    /// costs O(E log d) rather than the O(E·d) of repeated
    /// [`add_edge`](Graph::add_edge) calls. Duplicate edges (in either
    /// orientation) are idempotent. The result, and the error for an
    /// invalid list, equal folding `add_edge` over [`Graph::empty`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`]
    /// for the first invalid edge.
    pub fn from_edges(
        order: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Graph, GraphError> {
        let edges: Vec<(NodeId, NodeId)> = edges.into_iter().collect();
        let mut degree = vec![0usize; order];
        for &(u, v) in &edges {
            for node in [u, v] {
                if node >= order {
                    return Err(GraphError::NodeOutOfRange { node, order });
                }
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut adj: Vec<Vec<NodeId>> = degree.into_iter().map(Vec::with_capacity).collect();
        for (u, v) in edges {
            adj[u].push(v);
            adj[v].push(u);
        }
        let mut ends = 0;
        for ns in &mut adj {
            ns.sort_unstable();
            ns.dedup();
            ends += ns.len();
        }
        Ok(Graph {
            adj,
            edges: ends / 2,
        })
    }

    /// A star with node `0` at the center — exactly the `G(PD)_1` topology
    /// in which the leader counts in one round.
    ///
    /// # Errors
    ///
    /// Never fails for `order >= 1`; propagates [`GraphError`] otherwise.
    pub fn star(order: usize) -> Result<Graph, GraphError> {
        Graph::from_edges(order, (1..order).map(|v| (0, v)))
    }

    /// A simple path `0 - 1 - … - (order-1)`.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] (unreachable for valid orders).
    pub fn path(order: usize) -> Result<Graph, GraphError> {
        Graph::from_edges(order, (1..order).map(|v| (v - 1, v)))
    }

    /// A cycle over all nodes (requires `order >= 3`).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `order < 3` makes the closing
    /// edge degenerate.
    pub fn cycle(order: usize) -> Result<Graph, GraphError> {
        let closing = (order >= 2).then(|| (order - 1, 0));
        Graph::from_edges(order, (1..order).map(|v| (v - 1, v)).chain(closing))
    }

    /// The complete graph on `order` nodes.
    pub fn complete(order: usize) -> Graph {
        let pairs = (0..order).flat_map(|u| ((u + 1)..order).map(move |v| (u, v)));
        Graph::from_edges(order, pairs).expect("complete graph edges are valid")
    }

    /// Inserts the undirected edge `{u, v}`; idempotent.
    ///
    /// Each insert keeps both adjacency lists sorted, so building a whole
    /// graph this way costs O(E·d); [`Graph::from_edges`] is the bulk
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is out of range
    /// and [`GraphError::SelfLoop`] if `u == v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        let order = self.order();
        for node in [u, v] {
            if node >= order {
                return Err(GraphError::NodeOutOfRange { node, order });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if self.has_edge(u, v) {
            return Ok(());
        }
        self.adj[u].push(v);
        self.adj[v].push(u);
        self.adj[u].sort_unstable();
        self.adj[v].sort_unstable();
        self.edges += 1;
        Ok(())
    }

    /// Whether the edge `{u, v}` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u < self.order() && self.adj[u].binary_search(&v).is_ok()
    }

    /// Number of nodes `|V|`.
    pub fn order(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges `|E|`.
    pub fn size(&self) -> usize {
        self.edges
    }

    /// The sorted neighbourhood `N(v, r)` of a node.
    ///
    /// # Panics
    ///
    /// Panics if `v >= order()`.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v]
    }

    /// Degree `|N(v, r)|` of a node.
    ///
    /// # Panics
    ///
    /// Panics if `v >= order()`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v].len()
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Iterates over all edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, ns)| ns.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
    }

    /// The edge-intersection of two graphs over the same node set — the
    /// stable subgraph of two rounds.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if the orders differ.
    pub fn intersection(&self, other: &Graph) -> Result<Graph, GraphError> {
        if self.order() != other.order() {
            return Err(GraphError::NodeOutOfRange {
                node: other.order(),
                order: self.order(),
            });
        }
        let common = self.edges().filter(|&(u, v)| other.has_edge(u, v));
        Graph::from_edges(self.order(), common)
    }

    /// The edge-union of two graphs over the same node set.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if the orders differ.
    pub fn union(&self, other: &Graph) -> Result<Graph, GraphError> {
        if self.order() != other.order() {
            return Err(GraphError::NodeOutOfRange {
                node: other.order(),
                order: self.order(),
            });
        }
        Graph::from_edges(self.order(), self.edges().chain(other.edges()))
    }

    /// BFS distances from `src`; `None` for unreachable nodes.
    ///
    /// # Panics
    ///
    /// Panics if `src >= order()`.
    pub fn distances_from(&self, src: NodeId) -> Vec<Option<u32>> {
        assert!(src < self.order(), "source out of range");
        let mut dist = vec![None; self.order()];
        dist[src] = Some(0);
        let mut frontier = vec![src];
        let mut d = 0u32;
        while !frontier.is_empty() {
            d += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in self.neighbors(u) {
                    if dist[v].is_none() {
                        dist[v] = Some(d);
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        dist
    }

    /// Whether the graph is connected (vacuously true for order ≤ 1).
    ///
    /// The paper's worst-case adversary is constrained to keep every round's
    /// graph connected (1-interval connectivity).
    pub fn is_connected(&self) -> bool {
        if self.order() <= 1 {
            return true;
        }
        self.distances_from(0).iter().all(Option::is_some)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(order={}, edges=[", self.order())?;
        for (i, (u, v)) in self.edges().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{u}-{v}")?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_is_pd1_shape() {
        let g = Graph::star(5).unwrap();
        assert_eq!(g.size(), 4);
        assert_eq!(g.degree(0), 4);
        for v in 1..5 {
            assert_eq!(g.degree(v), 1);
            assert!(g.has_edge(0, v));
        }
        assert!(g.is_connected());
    }

    #[test]
    fn add_edge_idempotent_and_symmetric() {
        let mut g = Graph::empty(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 0).unwrap();
        assert_eq!(g.size(), 1);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn invalid_edges() {
        let mut g = Graph::empty(2);
        assert_eq!(
            g.add_edge(0, 2),
            Err(GraphError::NodeOutOfRange { node: 2, order: 2 })
        );
        assert_eq!(g.add_edge(1, 1), Err(GraphError::SelfLoop { node: 1 }));
    }

    #[test]
    fn path_distances() {
        let g = Graph::path(5).unwrap();
        let d = g.distances_from(0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn disconnected_detected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.distances_from(0)[2], None);
    }

    #[test]
    fn cycle_and_complete() {
        let c = Graph::cycle(6).unwrap();
        assert_eq!(c.size(), 6);
        assert_eq!(c.distances_from(0)[3], Some(3));

        let k = Graph::complete(5);
        assert_eq!(k.size(), 10);
        assert_eq!(k.max_degree(), 4);
        assert!(k.distances_from(2).iter().all(|d| d.unwrap() <= 1));
    }

    #[test]
    fn edges_iterator_normalized() {
        let g = Graph::from_edges(4, [(3, 1), (0, 2)]).unwrap();
        let mut e: Vec<_> = g.edges().collect();
        e.sort_unstable();
        assert_eq!(e, vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn empty_and_singleton_connected() {
        assert!(Graph::empty(0).is_connected());
        assert!(Graph::empty(1).is_connected());
        assert!(!Graph::empty(2).is_connected());
    }

    #[test]
    fn intersection_and_union() {
        let a = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let b = Graph::from_edges(4, [(0, 1), (2, 3), (0, 3)]).unwrap();
        let i = a.intersection(&b).unwrap();
        let mut e: Vec<_> = i.edges().collect();
        e.sort_unstable();
        assert_eq!(e, vec![(0, 1), (2, 3)]);
        let u = a.union(&b).unwrap();
        assert_eq!(u.size(), 4);
        assert!(u.has_edge(0, 3) && u.has_edge(1, 2));
        // Mismatched orders rejected.
        assert!(a.intersection(&Graph::empty(3)).is_err());
        assert!(a.union(&Graph::empty(5)).is_err());
        // Algebra: intersection is idempotent, union with self too.
        assert_eq!(a.intersection(&a).unwrap(), a);
        assert_eq!(a.union(&a).unwrap(), a);
    }

    #[test]
    fn error_display() {
        let e = GraphError::NodeOutOfRange { node: 7, order: 3 };
        assert_eq!(e.to_string(), "node 7 out of range for graph of order 3");
    }
}
