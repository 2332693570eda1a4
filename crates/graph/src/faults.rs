//! Graph-layer fault injection: deterministic perturbation of a
//! [`DynamicNetwork`]'s per-round topologies.
//!
//! The counting algorithms that run on explicit graph sequences (the
//! `G(PD)_2` view-counting rule, the degree-oracle algorithm, and the
//! netsim baselines) assume every round's graph is connected and every
//! edge delivers. [`NetworkFaultPlan`] breaks those assumptions on
//! purpose — crashing nodes, isolating the leader, and dropping edges at
//! chosen rounds — and [`FaultyNetwork`] applies the plan as a filtering
//! adapter around any inner network.
//!
//! Only faults with a graph-level meaning live here (a crashed node has
//! no edges; a dropped edge delivers in neither direction). Message-level
//! faults — duplicated deliveries, leader state loss — cannot be
//! expressed as an edge filter and are applied by the multigraph-layer
//! fault plan instead (`anonet-multigraph`'s `faults` module, which
//! projects onto a [`NetworkFaultPlan`] for the graph-level subset).
//!
//! Everything is a pure function of the plan and the round, so faulted
//! networks replay deterministically: the experiment grids stay
//! byte-identical for every `--threads` count.
//!
//! # Examples
//!
//! ```
//! use anonet_graph::faults::{FaultyNetwork, NetworkFaultPlan};
//! use anonet_graph::{DynamicNetwork, Graph, GraphSequence};
//!
//! let seq = GraphSequence::new(vec![Graph::star(4)?])?;
//! let plan = NetworkFaultPlan::new().crash(1, 1); // node 3 dies at round 1
//! let mut net = FaultyNetwork::new(seq, plan);
//! assert_eq!(net.graph(0).degree(0), 3); // round 0 intact
//! assert_eq!(net.graph(1).degree(0), 2); // node 3's edge gone
//! assert_eq!(net.graph(1).degree(3), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::dynamic::DynamicNetwork;
use crate::graph::Graph;

/// A deterministic schedule of graph-level faults.
///
/// Three fault shapes are supported:
///
/// * **crash** — from the given round on, the `count` highest-indexed
///   live non-leader nodes stop forever: all their edges are removed.
///   Crashes accumulate across entries and never heal. A crash can take
///   effect no earlier than round 1: every node completes round 0 (a
///   node that never communicated is indistinguishable from a smaller
///   network, not a fault), so a round-0 entry acts at round 1.
/// * **disconnect** — for exactly the given round, every edge incident to
///   the leader (node 0) is removed, violating 1-interval connectivity.
/// * **edge drops** — for exactly the given round, every edge whose index
///   in [`Graph::edges`] order is congruent to `offset` modulo `stride`
///   is removed (a deterministic stand-in for per-round message loss).
///
/// The empty plan is a strict no-op: [`NetworkFaultPlan::apply`] returns
/// the input graph unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkFaultPlan {
    /// `(round, count)`: at `round`, `count` more highest-indexed
    /// non-leader nodes crash permanently.
    crashes: Vec<(u32, u32)>,
    /// Rounds whose graphs lose every leader-incident edge.
    disconnects: Vec<u32>,
    /// `(round, stride, offset)`: at `round`, drop edges with index
    /// `i % stride == offset % stride` (stride 0 is treated as 1).
    edge_drops: Vec<(u32, u32, u32)>,
}

impl NetworkFaultPlan {
    /// An empty plan (guaranteed no-op).
    pub fn new() -> NetworkFaultPlan {
        NetworkFaultPlan::default()
    }

    /// Crashes `count` additional highest-indexed non-leader nodes from
    /// `round` on.
    #[must_use]
    pub fn crash(mut self, round: u32, count: u32) -> NetworkFaultPlan {
        self.crashes.push((round, count));
        self
    }

    /// Removes every leader-incident edge of round `round`.
    #[must_use]
    pub fn disconnect(mut self, round: u32) -> NetworkFaultPlan {
        self.disconnects.push(round);
        self
    }

    /// Drops every `stride`-th edge (at `offset`) of round `round`.
    #[must_use]
    pub fn drop_edges(mut self, round: u32, stride: u32, offset: u32) -> NetworkFaultPlan {
        self.edge_drops.push((round, stride, offset));
        self
    }

    /// True when the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.disconnects.is_empty() && self.edge_drops.is_empty()
    }

    /// Total number of nodes crashed at or before `round` (entries act
    /// no earlier than round 1).
    pub fn crashed_at(&self, round: u32) -> u64 {
        self.crashes
            .iter()
            .filter(|(r, _)| (*r).max(1) <= round)
            .map(|(_, c)| u64::from(*c))
            .sum()
    }

    /// Applies the plan to round `round`'s graph, returning the faulted
    /// graph. The inner graph is never mutated.
    pub fn apply(&self, g: &Graph, round: u32) -> Graph {
        if self.is_empty() {
            return g.clone();
        }
        let order = g.order();
        // Crashed set: the `crashed` highest-indexed nodes, never node 0.
        let crashed = usize::try_from(self.crashed_at(round)).unwrap_or(usize::MAX);
        let first_dead = order.saturating_sub(crashed).max(1);
        let disconnect = self.disconnects.contains(&round);
        let kept = g.edges().enumerate().filter_map(|(i, (u, v))| {
            if u >= first_dead || v >= first_dead {
                return None;
            }
            if disconnect && (u == 0 || v == 0) {
                return None;
            }
            for &(r, stride, offset) in &self.edge_drops {
                if r == round {
                    let stride = stride.max(1) as usize;
                    if i % stride == (offset as usize) % stride {
                        return None;
                    }
                }
            }
            Some((u, v))
        });
        Graph::from_edges(order, kept).expect("a subset of a valid graph's edges is valid")
    }
}

/// A [`DynamicNetwork`] adapter that applies a [`NetworkFaultPlan`] to
/// every round of an inner network.
#[derive(Debug, Clone)]
pub struct FaultyNetwork<N> {
    inner: N,
    plan: NetworkFaultPlan,
}

impl<N: DynamicNetwork> FaultyNetwork<N> {
    /// Wraps `inner`, faulting it according to `plan`.
    pub fn new(inner: N, plan: NetworkFaultPlan) -> FaultyNetwork<N> {
        FaultyNetwork { inner, plan }
    }

    /// The fault plan in effect.
    pub fn plan(&self) -> &NetworkFaultPlan {
        &self.plan
    }

    /// Unwraps the inner network.
    pub fn into_inner(self) -> N {
        self.inner
    }
}

impl<N: DynamicNetwork> DynamicNetwork for FaultyNetwork<N> {
    fn order(&self) -> usize {
        self.inner.order()
    }

    fn graph(&mut self, round: u32) -> Graph {
        let g = self.inner.graph(round);
        if self.plan.is_empty() {
            return g;
        }
        self.plan.apply(&g, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::GraphSequence;

    fn star4() -> GraphSequence {
        GraphSequence::new(vec![Graph::star(4).unwrap()]).unwrap()
    }

    #[test]
    fn empty_plan_is_a_noop() {
        let g = Graph::complete(5);
        let plan = NetworkFaultPlan::new();
        assert!(plan.is_empty());
        for r in 0..4 {
            assert_eq!(plan.apply(&g, r), g);
        }
    }

    #[test]
    fn crash_removes_highest_indexed_nodes_permanently() {
        let plan = NetworkFaultPlan::new().crash(2, 2);
        let mut net = FaultyNetwork::new(star4(), plan);
        assert_eq!(net.graph(1).degree(0), 3);
        let g2 = net.graph(2);
        assert_eq!(g2.degree(0), 1, "nodes 2 and 3 crashed");
        assert_eq!(g2.degree(2), 0);
        assert_eq!(g2.degree(3), 0);
        assert_eq!(net.graph(7).degree(0), 1, "crashes never heal");
    }

    #[test]
    fn crash_never_kills_the_leader() {
        let plan = NetworkFaultPlan::new().crash(1, 99);
        let g = plan.apply(&Graph::complete(4), 1);
        // Everyone but the leader is dead: no edges remain.
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.order(), 4);
    }

    #[test]
    fn round_zero_crashes_act_at_round_one() {
        let plan = NetworkFaultPlan::new().crash(0, 1);
        let g = Graph::complete(4);
        assert_eq!(plan.apply(&g, 0), g, "every node completes round 0");
        assert_eq!(plan.apply(&g, 1).degree(3), 0);
    }

    #[test]
    fn disconnect_isolates_the_leader_for_one_round() {
        let plan = NetworkFaultPlan::new().disconnect(1);
        let g = Graph::complete(4);
        assert_eq!(plan.apply(&g, 0), g);
        let faulted = plan.apply(&g, 1);
        assert_eq!(faulted.degree(0), 0);
        assert!(!faulted.is_connected());
        assert!(faulted.degree(1) > 0, "non-leader edges survive");
        assert_eq!(plan.apply(&g, 2), g);
    }

    #[test]
    fn drop_edges_filters_by_stride() {
        let g = Graph::star(5).unwrap(); // 4 edges
        let plan = NetworkFaultPlan::new().drop_edges(0, 2, 0);
        let faulted = plan.apply(&g, 0);
        assert_eq!(faulted.edges().count(), 2);
        // Other rounds untouched.
        assert_eq!(plan.apply(&g, 1), g);
    }

    #[test]
    fn plans_compose() {
        let plan = NetworkFaultPlan::new().crash(1, 1).disconnect(1);
        let g = Graph::complete(4); // 6 edges
        let faulted = plan.apply(&g, 1);
        // Node 3 dead, leader isolated: only edge (1,2) remains.
        let edges: Vec<_> = faulted.edges().collect();
        assert_eq!(edges, vec![(1, 2)]);
    }
}
