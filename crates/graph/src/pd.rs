//! Persistent-distance networks `G(PD)_h`, in particular `G(PD)_2`.
//!
//! A `G(PD)_2` network (paper §3) has the leader at the centre, a layer
//! `V_1` of relay nodes at persistent distance 1 and a layer `V_2` of leaf
//! nodes at persistent distance 2. The adversary rewires which relays each
//! leaf touches every round; the leader's task is to count `V_2` through
//! that ambiguity. This module builds such networks from per-round
//! *relay masks* — for each leaf, the non-empty set of relays it touches —
//! which is exactly the data of an `M(DBL)_k` multigraph round.

use crate::dynamic::{DynamicNetwork, GraphSequence};
use crate::graph::{Graph, GraphError};
use rand::Rng;

/// Errors produced when building persistent-distance networks.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PdError {
    /// A leaf's relay mask was empty (it would disconnect the leaf).
    EmptyMask {
        /// Index of the offending leaf (0-based within the leaf layer).
        leaf: usize,
    },
    /// A relay mask referenced a relay `>= relay_count`.
    MaskOutOfRange {
        /// Index of the offending leaf.
        leaf: usize,
        /// The mask value.
        mask: u32,
        /// Number of relays.
        relays: usize,
    },
    /// The underlying graph construction failed.
    Graph(GraphError),
}

impl core::fmt::Display for PdError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PdError::EmptyMask { leaf } => {
                write!(f, "leaf {leaf} has an empty relay mask")
            }
            PdError::MaskOutOfRange { leaf, mask, relays } => write!(
                f,
                "leaf {leaf} mask {mask:#b} references relays beyond {relays}"
            ),
            PdError::Graph(e) => write!(f, "graph construction failed: {e}"),
        }
    }
}

impl std::error::Error for PdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PdError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for PdError {
    fn from(e: GraphError) -> Self {
        PdError::Graph(e)
    }
}

/// Node layout of a `G(PD)_2` network built by this module.
///
/// * node `0` — the leader `v_l` (`V_0`),
/// * nodes `1..=relays` — the relay layer `V_1`,
/// * nodes `relays+1..relays+leaves` — the leaf layer `V_2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pd2Layout {
    /// Number of relay nodes `|V_1|`.
    pub relays: usize,
    /// Number of leaf nodes `|V_2|`.
    pub leaves: usize,
}

impl Pd2Layout {
    /// Total number of nodes (`1 + relays + leaves`).
    pub fn order(&self) -> usize {
        1 + self.relays + self.leaves
    }

    /// Node id of relay `j` (0-based).
    pub fn relay(&self, j: usize) -> usize {
        assert!(j < self.relays, "relay index out of range");
        1 + j
    }

    /// Node id of leaf `i` (0-based).
    pub fn leaf(&self, i: usize) -> usize {
        assert!(i < self.leaves, "leaf index out of range");
        1 + self.relays + i
    }
}

/// Checks one round of per-leaf relay masks without building its graph.
///
/// # Panics
///
/// Panics if `masks.len() != layout.leaves`.
///
/// # Errors
///
/// Returns [`PdError::EmptyMask`] or [`PdError::MaskOutOfRange`] for the
/// first invalid leaf.
fn check_masks(layout: Pd2Layout, masks: &[u32]) -> Result<(), PdError> {
    assert_eq!(masks.len(), layout.leaves, "one mask per leaf required");
    let full: u32 = if layout.relays >= 32 {
        u32::MAX
    } else {
        (1u32 << layout.relays) - 1
    };
    for (i, &mask) in masks.iter().enumerate() {
        if mask == 0 {
            return Err(PdError::EmptyMask { leaf: i });
        }
        if mask & !full != 0 {
            return Err(PdError::MaskOutOfRange {
                leaf: i,
                mask,
                relays: layout.relays,
            });
        }
    }
    Ok(())
}

/// Builds the round graph of a `G(PD)_2` network from per-leaf relay masks.
///
/// `masks[i]` is a bitmask over relays `0..layout.relays`: bit `j` set means
/// leaf `i` touches relay `j` this round. The leader is always connected to
/// every relay (keeping `V_1` at persistent distance 1). The edge list is
/// collected and handed to [`Graph::from_edges`], so the build is linear in
/// the number of edges up to the per-list sort.
///
/// # Errors
///
/// Returns [`PdError::EmptyMask`] or [`PdError::MaskOutOfRange`] on invalid
/// masks and propagates graph construction failures.
pub fn pd2_round_graph(layout: Pd2Layout, masks: &[u32]) -> Result<Graph, PdError> {
    check_masks(layout, masks)?;
    let leaf_edges: usize = masks.iter().map(|m| m.count_ones() as usize).sum();
    let mut edges = Vec::with_capacity(layout.relays + leaf_edges);
    edges.extend((0..layout.relays).map(|j| (0, layout.relay(j))));
    for (i, &mask) in masks.iter().enumerate() {
        let mut m = mask;
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            edges.push((layout.relay(j), layout.leaf(i)));
            m &= m - 1;
        }
    }
    Ok(Graph::from_edges(layout.order(), edges)?)
}

/// A `G(PD)_2` network given by an explicit per-round mask schedule; the
/// last round's masks are held forever.
///
/// # Examples
///
/// ```
/// use anonet_graph::pd::{Pd2Layout, Pd2Schedule};
/// use anonet_graph::{metrics, DynamicNetwork};
///
/// let layout = Pd2Layout { relays: 2, leaves: 3 };
/// // Leaves hop between relays but stay at distance 2.
/// let mut net = Pd2Schedule::new(layout, vec![
///     vec![0b01, 0b10, 0b11],
///     vec![0b10, 0b01, 0b01],
/// ])?;
/// assert!(metrics::is_pd_h(&mut net, 2, 4));
/// # Ok::<(), anonet_graph::pd::PdError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Pd2Schedule {
    layout: Pd2Layout,
    rounds: Vec<Vec<u32>>,
}

impl Pd2Schedule {
    /// Creates a schedule, checking every round's masks up front without
    /// building any round graph: O(rounds × leaves). Round graphs are
    /// built on demand by [`DynamicNetwork::graph`].
    ///
    /// # Panics
    ///
    /// Panics if a round does not hold exactly one mask per leaf.
    ///
    /// # Errors
    ///
    /// Returns the first mask error encountered (earliest round, then
    /// first leaf); an empty schedule is rejected as an empty mask at
    /// leaf 0 of a synthetic round.
    pub fn new(layout: Pd2Layout, rounds: Vec<Vec<u32>>) -> Result<Pd2Schedule, PdError> {
        if rounds.is_empty() {
            return Err(PdError::EmptyMask { leaf: 0 });
        }
        for masks in &rounds {
            check_masks(layout, masks)?;
        }
        Ok(Pd2Schedule { layout, rounds })
    }

    /// The node layout of this network.
    pub fn layout(&self) -> Pd2Layout {
        self.layout
    }

    /// Number of explicitly scheduled rounds.
    pub fn prefix_len(&self) -> usize {
        self.rounds.len()
    }
}

impl DynamicNetwork for Pd2Schedule {
    fn order(&self) -> usize {
        self.layout.order()
    }

    fn graph(&mut self, round: u32) -> Graph {
        let idx = (round as usize).min(self.rounds.len() - 1);
        pd2_round_graph(self.layout, &self.rounds[idx]).expect("schedule validated at construction")
    }
}

/// A `G(PD)_2` network whose leaves pick a uniformly random non-empty relay
/// set every round — the "fair adversary" version of the family.
#[derive(Debug)]
pub struct RandomPd2<R> {
    layout: Pd2Layout,
    rng: R,
}

impl<R: Rng> RandomPd2<R> {
    /// Creates a random `G(PD)_2` source over the given layout.
    ///
    /// # Panics
    ///
    /// Panics if the layout has zero relays or more than 31 relays.
    pub fn new(layout: Pd2Layout, rng: R) -> RandomPd2<R> {
        assert!(
            (1..=31).contains(&layout.relays),
            "RandomPd2 supports 1..=31 relays"
        );
        RandomPd2 { layout, rng }
    }
}

impl<R: Rng> DynamicNetwork for RandomPd2<R> {
    fn order(&self) -> usize {
        self.layout.order()
    }

    fn graph(&mut self, _round: u32) -> Graph {
        let full = (1u32 << self.layout.relays) - 1;
        let masks: Vec<u32> = (0..self.layout.leaves)
            .map(|_| self.rng.gen_range(1..=full))
            .collect();
        pd2_round_graph(self.layout, &masks).expect("random masks are valid")
    }
}

/// Node layout of a general layered `G(PD)_h` network: `layers[i]` nodes
/// at persistent distance `i + 1` from the leader (node 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdLayout {
    layers: Vec<usize>,
}

impl PdLayout {
    /// Creates a layout from per-layer sizes (`layers[0]` = `|V_1|`, …).
    ///
    /// # Panics
    ///
    /// Panics if any layer is empty or there are no layers (a gap would
    /// break the persistent distances below it).
    pub fn new(layers: Vec<usize>) -> PdLayout {
        assert!(!layers.is_empty(), "at least one layer required");
        assert!(
            layers.iter().all(|&l| l > 0),
            "layers must be non-empty to carry the ones below"
        );
        PdLayout { layers }
    }

    /// The maximum persistent distance `h`.
    pub fn h(&self) -> usize {
        self.layers.len()
    }

    /// Per-layer sizes.
    pub fn layers(&self) -> &[usize] {
        &self.layers
    }

    /// Total number of nodes (leader included).
    pub fn order(&self) -> usize {
        1 + self.layers.iter().sum::<usize>()
    }

    /// Node id of the `i`-th node (0-based) in 1-based layer `layer`.
    ///
    /// # Panics
    ///
    /// Panics if the layer or index is out of range.
    pub fn node(&self, layer: usize, i: usize) -> usize {
        assert!((1..=self.h()).contains(&layer), "layer out of range");
        assert!(i < self.layers[layer - 1], "index out of range");
        1 + self.layers[..layer - 1].iter().sum::<usize>() + i
    }
}

/// A random `G(PD)_h` network for arbitrary depth `h`: every round, each
/// node of layer `i ≥ 2` picks a random non-empty subset of layer `i - 1`
/// to attach to (layer 1 is always fully attached to the leader), so every
/// node keeps persistent distance = its layer.
///
/// Intra-layer edges are never created (the paper's restricted variant),
/// and no node ever attaches above its parent layer, so distances are
/// exactly the layer indices every round.
#[derive(Debug)]
pub struct RandomPdH<R> {
    layout: PdLayout,
    rng: R,
}

impl<R: Rng> RandomPdH<R> {
    /// Creates the generator.
    ///
    /// # Panics
    ///
    /// Panics if any layer has more than 20 nodes acting as parents (the
    /// subset sampling uses bitmasks).
    pub fn new(layout: PdLayout, rng: R) -> RandomPdH<R> {
        assert!(
            layout.layers().iter().all(|&l| l <= 20),
            "parent layers of at most 20 nodes supported"
        );
        RandomPdH { layout, rng }
    }

    /// The layout.
    pub fn layout(&self) -> &PdLayout {
        &self.layout
    }
}

impl<R: Rng> DynamicNetwork for RandomPdH<R> {
    fn order(&self) -> usize {
        self.layout.order()
    }

    fn graph(&mut self, _round: u32) -> Graph {
        // Layer 1 is pinned to the leader.
        let mut edges: Vec<(usize, usize)> = (0..self.layout.layers()[0])
            .map(|i| (0, self.layout.node(1, i)))
            .collect();
        for layer in 2..=self.layout.h() {
            let parents = self.layout.layers()[layer - 2];
            let full = (1u32 << parents) - 1;
            for i in 0..self.layout.layers()[layer - 1] {
                let mut mask = self.rng.gen_range(1..=full);
                while mask != 0 {
                    let p = mask.trailing_zeros() as usize;
                    edges.push((self.layout.node(layer - 1, p), self.layout.node(layer, i)));
                    mask &= mask - 1;
                }
            }
        }
        Graph::from_edges(self.layout.order(), edges).expect("layout nodes valid")
    }
}

/// The paper's Figure 1: a `G(PD)_2` network over three explicit rounds
/// whose dynamic diameter is `D = 4` — a flood started by leaf `v0` at
/// round 0 reaches leaf `v3` only at round 3.
///
/// Layout: node 0 = leader, nodes 1–2 = relays (`V_1`), nodes 3–5 = leaves
/// (`V_2`); node 3 plays the figure's `v0` and node 4 its `v3`.
pub fn figure1() -> GraphSequence {
    let layout = Pd2Layout {
        relays: 2,
        leaves: 3,
    };
    let rounds = vec![
        // r0: v0—relay1, v3—relay2, v4—relay1.
        vec![0b01, 0b10, 0b01],
        // r1: v4 hops to relay 2; v0 keeps relay 1 (which now knows the token).
        vec![0b01, 0b10, 0b10],
        // r2 (held forever): v4 back to relay 1.
        vec![0b01, 0b10, 0b01],
    ];
    let schedule = Pd2Schedule::new(layout, rounds).expect("figure 1 masks are valid");
    let graphs: Vec<Graph> = {
        let mut s = schedule;
        (0..3).map(|r| s.graph(r)).collect()
    };
    GraphSequence::new(graphs).expect("figure 1 rounds share one order")
}

/// Node ids of the named nodes in [`figure1`]: `(v_l, v0, v3)`.
pub fn figure1_nodes() -> (usize, usize, usize) {
    (0, 3, 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn layout_indices() {
        let l = Pd2Layout {
            relays: 2,
            leaves: 3,
        };
        assert_eq!(l.order(), 6);
        assert_eq!(l.relay(0), 1);
        assert_eq!(l.relay(1), 2);
        assert_eq!(l.leaf(0), 3);
        assert_eq!(l.leaf(2), 5);
    }

    #[test]
    fn round_graph_structure() {
        let l = Pd2Layout {
            relays: 2,
            leaves: 2,
        };
        let g = pd2_round_graph(l, &[0b01, 0b11]).unwrap();
        assert!(g.has_edge(0, 1) && g.has_edge(0, 2));
        assert!(g.has_edge(1, 3));
        assert!(!g.has_edge(2, 3));
        assert!(g.has_edge(1, 4) && g.has_edge(2, 4));
        assert!(g.is_connected());
    }

    #[test]
    fn invalid_masks_rejected() {
        let l = Pd2Layout {
            relays: 2,
            leaves: 1,
        };
        assert_eq!(
            pd2_round_graph(l, &[0]),
            Err(PdError::EmptyMask { leaf: 0 })
        );
        assert!(matches!(
            pd2_round_graph(l, &[0b100]),
            Err(PdError::MaskOutOfRange { .. })
        ));
    }

    #[test]
    fn schedule_is_pd2() {
        let l = Pd2Layout {
            relays: 3,
            leaves: 4,
        };
        let mut net = Pd2Schedule::new(
            l,
            vec![
                vec![0b001, 0b010, 0b100, 0b111],
                vec![0b010, 0b001, 0b011, 0b100],
            ],
        )
        .unwrap();
        assert_eq!(net.order(), 8);
        assert!(metrics::is_pd_h(&mut net, 2, 6));
        let d = metrics::persistent_distances(&mut net, 6).unwrap();
        assert_eq!(d, vec![0, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn schedule_validation_is_eager() {
        let l = Pd2Layout {
            relays: 2,
            leaves: 1,
        };
        assert!(Pd2Schedule::new(l, vec![vec![0b01], vec![0]]).is_err());
        assert!(Pd2Schedule::new(l, vec![]).is_err());
    }

    #[test]
    fn random_pd2_always_pd2() {
        let l = Pd2Layout {
            relays: 4,
            leaves: 10,
        };
        let mut net = RandomPd2::new(l, StdRng::seed_from_u64(42));
        assert!(metrics::is_pd_h(&mut net, 2, 20));
    }

    #[test]
    fn pd_layout_indices() {
        let l = PdLayout::new(vec![2, 3, 1]);
        assert_eq!(l.h(), 3);
        assert_eq!(l.order(), 7);
        assert_eq!(l.node(1, 0), 1);
        assert_eq!(l.node(1, 1), 2);
        assert_eq!(l.node(2, 0), 3);
        assert_eq!(l.node(2, 2), 5);
        assert_eq!(l.node(3, 0), 6);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn pd_layout_rejects_empty_layers() {
        PdLayout::new(vec![2, 0, 1]);
    }

    #[test]
    fn random_pd_h_has_persistent_layer_distances() {
        for (layers, seed) in [
            (vec![2usize, 4], 1u64),
            (vec![3, 5, 4], 2),
            (vec![1, 1, 1, 1], 3),
            (vec![2, 6, 3, 2, 4], 4),
        ] {
            let h = layers.len() as u32;
            let layout = PdLayout::new(layers.clone());
            let mut net = RandomPdH::new(layout.clone(), StdRng::seed_from_u64(seed));
            let d = metrics::persistent_distances(&mut net, 8)
                .unwrap_or_else(|| panic!("PD for layers {layers:?}"));
            assert!(metrics::is_pd_h(&mut net, h, 8));
            for layer in 1..=layout.h() {
                for i in 0..layout.layers()[layer - 1] {
                    assert_eq!(d[layout.node(layer, i)], layer as u32);
                }
            }
        }
    }

    #[test]
    fn random_pd_h_diameter_scales_with_depth() {
        // Seed chosen so the sampled shallow instance actually witnesses a
        // smaller dynamic diameter than the deep one (depth only bounds the
        // diameter from below, so not every seed separates the two).
        let shallow = {
            let mut net = RandomPdH::new(
                PdLayout::new(vec![2, 4]),
                StdRng::seed_from_u64(0),
            );
            metrics::dynamic_diameter(&mut net, 3, 64).unwrap()
        };
        let deep = {
            let mut net = RandomPdH::new(
                PdLayout::new(vec![2, 4, 4, 4]),
                StdRng::seed_from_u64(0),
            );
            metrics::dynamic_diameter(&mut net, 3, 64).unwrap()
        };
        assert!(deep > shallow, "{deep} > {shallow}");
    }

    #[test]
    fn figure1_reproduces_paper_flood() {
        let mut net = figure1();
        let (leader, v0, v3) = figure1_nodes();
        assert!(metrics::is_pd_h(&mut net, 2, 6));

        let f = metrics::flood(&mut net, v0, 0, 16);
        assert!(f.is_complete());
        assert_eq!(
            f.received_round(v3),
            Some(3),
            "the flood from v0 reaches v3 at round 3 (Figure 1)"
        );
        assert_eq!(f.duration(), Some(4), "witnesses D = 4");
        assert_eq!(f.received_round(leader), Some(1));

        // The dynamic diameter of the whole example is 4.
        assert_eq!(metrics::dynamic_diameter(&mut net, 4, 16), Some(4));
    }
}
