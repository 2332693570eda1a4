//! Struct-of-arrays round loop for `M(DBL)_k` executions.
//!
//! The original message-passing simulator represented a round as
//! `Vec<Delivery>` — one heap cell per `(label, state)` pair, built per
//! node and then comparison-sorted by history (`O(E log E · depth)`
//! mask words compared per round). This module replaces that hot path
//! end to end:
//!
//! * [`RoundColumns`] — the deliveries of one round as two flat columns
//!   (`labels: Vec<u8>`, `states: Vec<HistoryId>`), always held in the
//!   canonical `(label, history)` order. The columns are the unit the
//!   online leaders ingest and the fault layer perturbs.
//! * [`RoundEngine`] — an allocation-free round step over the hash-consed
//!   [`HistoryArena`]: per-round scratch buffers are reused, no per-node
//!   `Vec` is ever built, and the canonical sort disappears entirely.
//!
//! # How the sort disappears
//!
//! Hash-consing makes same-depth histories unique per [`HistoryId`], so a
//! canonically sorted round is a sequence of *runs* of identical
//! `(label, state)` pairs. The engine therefore maintains, across rounds,
//! the distinct live histories of the current depth in canonical (mask
//! lexicographic) order — their *rank* — and reduces the round step to:
//!
//! 1. **histogram** — count live nodes per `(rank, label-set)` pair
//!    (`O(n)`);
//! 2. **run emission** — walk ranks in order and emit each `(label,
//!    state)` run with its multiplicity straight into the columns
//!    (`O(E + ranks·2^k)`, no comparisons);
//! 3. **rank advance** — intern the occupied `(rank, label-set)`
//!    children in canonical order (ranks of depth `r+1` are exactly the
//!    occupied pairs ordered by `(parent rank, mask)`, because mask
//!    vectors compare lexicographically), then remap every live node's
//!    state handle and rank (`O(n)`).
//!
//! # Bulk levels
//!
//! Rank advance interns the whole level through one
//! [`HistoryArena::intern_level`] call: no hash probe and no heap
//! allocation per history (an arena entry is a fixed-size parent link,
//! see [`crate::history`]). The call's two O(1) checks hold by
//! construction here. The parents are the current depth's live
//! histories, which are the arena's deepest, since the engine created
//! them one level ago. The pairs strictly increase in `(parent, mask)`
//! order, because each level's handles were pushed in rank order, so
//! rank order is handle order. The new handles come back in rank order
//! and become the next depth's `ids_by_rank`.
//!
//! # Perturbed rounds
//!
//! The fault layer duplicates deliveries with
//! [`RoundColumns::duplicate_indexed`], which inserts each copy right
//! after its original instead of appending and re-sorting. Within one
//! arena equal histories have equal handles, so in canonical order
//! every copy of a `(label, state)` pair sits in one run, and a copy
//! placed next to its original leaves the columns exactly as a stable
//! sort would.
//!
//! # Serial by design
//!
//! The round step runs on one thread. A node-parallel split needs one
//! `ranks × 2^k` histogram per worker; on the twin executions the rank
//! space grows with the population, so merging those buffers costs as
//! much as the `O(n)` scan, and splitting only the remap never beat
//! this path on the committed `exp_scale` grid (`docs/SCALING.md`).
//! Parallelism lives one level up, across independent grid cells
//! (`docs/RUNNER.md`).

use crate::history::{HistoryArena, HistoryId};
use crate::label::LabelSet;
use crate::multigraph::DblMultigraph;
use crate::simulate::Delivery;

/// Largest `k` for which the engine uses the dense `(rank, label-set)`
/// histogram (`2^k - 1 ≤ 63` columns per rank). Larger `k` falls back to
/// the sort-based generic path — no caller in this workspace exceeds
/// `k = 3`.
const MAX_DENSE_K: u8 = 6;

/// Dense histogram slot for a `(rank, label-set-mask)` pair.
///
/// Label sets are non-empty by construction ([`LabelSet`] rejects mask
/// 0) and within the engine's `k ≤ MAX_DENSE_K = 6` budget (the
/// `m.k()` asserts at every entry point), so `1 ≤ mask ≤ nsets ≤ 63`
/// and the `mask - 1` cannot underflow; `u32` ranks widen to `usize`
/// losslessly. Every mask-indexed access goes through here so the
/// invariant is checked (in debug builds) in exactly one place.
#[inline]
fn pair_slot(rank: u32, nsets: usize, mask: u32) -> usize {
    let mask = mask as usize;
    debug_assert!(
        mask >= 1 && mask <= nsets,
        "label set empty or outside the k <= {MAX_DENSE_K} dense budget"
    );
    rank as usize * nsets + mask - 1
}

/// One round of leader deliveries as flat struct-of-arrays columns, in
/// canonical `(label, history)` order.
///
/// This is the in-memory form of every round in an
/// [`Execution`](crate::simulate::Execution): two parallel columns
/// instead of one `Vec` of structs, so a million-delivery round is two
/// contiguous allocations (5 bytes per delivery) that the leaders scan
/// linearly.
///
/// # Examples
///
/// ```
/// use anonet_multigraph::simulate::Delivery;
/// use anonet_multigraph::soa::RoundColumns;
/// use anonet_multigraph::HistoryArena;
///
/// let mut cols = RoundColumns::new();
/// cols.push(1, HistoryArena::empty());
/// cols.push(2, HistoryArena::empty());
/// assert_eq!(cols.len(), 2);
/// assert_eq!(cols.get(1), Delivery { label: 2, state: HistoryArena::empty() });
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundColumns {
    labels: Vec<u8>,
    states: Vec<HistoryId>,
}

impl RoundColumns {
    /// Empty columns.
    pub fn new() -> RoundColumns {
        RoundColumns::default()
    }

    /// Empty columns with capacity for `cap` deliveries.
    pub fn with_capacity(cap: usize) -> RoundColumns {
        RoundColumns {
            labels: Vec::with_capacity(cap),
            states: Vec::with_capacity(cap),
        }
    }

    /// Builds columns from an array-of-structs delivery slice, keeping
    /// its order.
    pub fn from_deliveries(deliveries: &[Delivery]) -> RoundColumns {
        let mut cols = RoundColumns::with_capacity(deliveries.len());
        for d in deliveries {
            cols.push(d.label, d.state);
        }
        cols
    }

    /// Number of deliveries.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the round is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label column.
    pub fn labels(&self) -> &[u8] {
        &self.labels
    }

    /// The state-handle column.
    pub fn states(&self) -> &[HistoryId] {
        &self.states
    }

    /// The `i`-th delivery.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> Delivery {
        Delivery {
            label: self.labels[i],
            state: self.states[i],
        }
    }

    /// Iterates the deliveries in stored (canonical) order.
    pub fn iter(&self) -> RoundColumnsIter<'_> {
        RoundColumnsIter {
            inner: self.labels.iter().zip(&self.states),
        }
    }

    /// Appends one delivery.
    pub fn push(&mut self, label: u8, state: HistoryId) {
        self.labels.push(label);
        self.states.push(state);
    }

    /// Appends `count` copies of one delivery (one canonical run).
    pub fn push_run(&mut self, label: u8, state: HistoryId, count: usize) {
        self.labels.resize(self.labels.len() + count, label);
        self.states.resize(self.states.len() + count, state);
    }

    /// Appends every delivery of `other`.
    pub fn extend_from(&mut self, other: &RoundColumns) {
        self.labels.extend_from_slice(&other.labels);
        self.states.extend_from_slice(&other.states);
    }

    /// Removes all deliveries, keeping the allocations.
    pub fn clear(&mut self) {
        self.labels.clear();
        self.states.clear();
    }

    /// Keeps only the deliveries whose index satisfies `keep` (the fault
    /// layer's stride drops address deliveries by canonical index).
    pub fn retain_indexed(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut write = 0usize;
        for read in 0..self.labels.len() {
            if keep(read) {
                self.labels[write] = self.labels[read];
                self.states[write] = self.states[read];
                write += 1;
            }
        }
        self.labels.truncate(write);
        self.states.truncate(write);
    }

    /// Inserts a copy of every delivery whose index satisfies `dup`
    /// right after it (the fault layer's stride duplicates) and returns
    /// how many were copied. In canonical order identical `(label,
    /// state)` pairs are adjacent, so the result is still canonical: it
    /// equals appending the copies and calling
    /// [`RoundColumns::canonical_sort`].
    pub fn duplicate_indexed(&mut self, mut dup: impl FnMut(usize) -> bool) -> usize {
        let mut out = RoundColumns::with_capacity(2 * self.len());
        for (i, d) in self.iter().enumerate() {
            out.push(d.label, d.state);
            if dup(i) {
                out.push(d.label, d.state);
            }
        }
        let copies = out.len() - self.len();
        *self = out;
        copies
    }

    /// Restores canonical `(label, history)` order by sorting with the
    /// arena's allocation-free [`HistoryArena::cmp_canonical`]. The
    /// engine never needs this (it emits in canonical order); it exists
    /// for hand-built columns and histories interned out of order.
    pub fn canonical_sort(&mut self, arena: &HistoryArena) {
        let mut aos: Vec<Delivery> = self.iter().collect();
        aos.sort_by(|a, b| {
            a.label
                .cmp(&b.label)
                .then_with(|| arena.cmp_canonical(a.state, b.state))
        });
        self.clear();
        for d in aos {
            self.push(d.label, d.state);
        }
    }
}

/// Iterator over a [`RoundColumns`], yielding [`Delivery`] values in the
/// stored (canonical) order.
#[derive(Debug, Clone)]
pub struct RoundColumnsIter<'a> {
    inner: std::iter::Zip<std::slice::Iter<'a, u8>, std::slice::Iter<'a, HistoryId>>,
}

impl Iterator for RoundColumnsIter<'_> {
    type Item = Delivery;

    fn next(&mut self) -> Option<Delivery> {
        self.inner
            .next()
            .map(|(&label, &state)| Delivery { label, state })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for RoundColumnsIter<'_> {}

impl<'a> IntoIterator for &'a RoundColumns {
    type Item = Delivery;
    type IntoIter = RoundColumnsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The allocation-free struct-of-arrays round stepper.
///
/// One engine drives one execution: construct it with the population
/// size and `k`, then per round call [`RoundEngine::emit_round`] (fill a
/// [`RoundColumns`] with the canonical deliveries) and
/// [`RoundEngine::advance`] (append the round's label sets to every live
/// node's history). [`simulate`](crate::simulate::simulate) and
/// [`simulate_with_faults`](crate::faults::simulate_with_faults) are
/// thin loops over these two calls; the fault layer perturbs the emitted
/// columns *between* them.
///
/// # Examples
///
/// ```
/// use anonet_multigraph::soa::{RoundColumns, RoundEngine};
/// use anonet_multigraph::Census;
///
/// let m = Census::from_counts(vec![2, 1, 0])?.realize()?;
/// let mut engine = RoundEngine::new(m.nodes(), m.k());
/// let mut cols = RoundColumns::new();
/// engine.emit_round(&m, 0, &mut cols);
/// assert_eq!(cols.len(), m.edge_count(0));
/// engine.advance(&m, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct RoundEngine {
    arena: HistoryArena,
    k: u8,
    /// `2^k - 1` on the dense path, 0 on the generic (large-`k`) path.
    nsets: usize,
    /// Per node: the current state handle (frozen once crashed).
    states: Vec<HistoryId>,
    /// Per node: the canonical rank of its state among `ids_by_rank`
    /// (dense path only; stale for crashed nodes, which are skipped).
    node_rank: Vec<u32>,
    /// The distinct live histories of the current depth, canonically
    /// ordered (mask lexicographic).
    ids_by_rank: Vec<HistoryId>,
    alive: Vec<bool>,
    live: usize,
    // --- reusable scratch (dense path) ---
    /// `(rank, set)` histogram of the current round, width
    /// `ids_by_rank.len() * nsets`.
    pair_counts: Vec<u64>,
    /// The round `pair_counts` currently describes.
    hist_round: Option<usize>,
    /// Next-depth rank per occupied `(rank, set)` pair.
    rank_of: Vec<u32>,
    /// Next-depth `ids_by_rank`, filled by the bulk intern and swapped
    /// in.
    next_ids: Vec<HistoryId>,
}

impl RoundEngine {
    /// An engine for `n` nodes and label budget `k`.
    pub fn new(n: usize, k: u8) -> RoundEngine {
        let nsets = if k <= MAX_DENSE_K {
            (1usize << k) - 1
        } else {
            0
        };
        RoundEngine {
            arena: HistoryArena::new(),
            k,
            nsets,
            states: vec![HistoryArena::empty(); n],
            node_rank: vec![0; n],
            ids_by_rank: vec![HistoryArena::empty()],
            alive: vec![true; n],
            live: n,
            pair_counts: Vec::new(),
            hist_round: None,
            rank_of: Vec::new(),
            next_ids: Vec::new(),
        }
    }

    /// The arena interning every state of this execution.
    pub fn arena(&self) -> &HistoryArena {
        &self.arena
    }

    /// Consumes the engine, returning its arena (the
    /// [`Execution`](crate::simulate::Execution) keeps it).
    pub fn into_arena(self) -> HistoryArena {
        self.arena
    }

    /// Population size.
    pub fn nodes(&self) -> usize {
        self.states.len()
    }

    /// Nodes that have not crashed.
    pub fn live_nodes(&self) -> usize {
        self.live
    }

    /// The current state handle of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn state_of(&self, node: usize) -> HistoryId {
        self.states[node]
    }

    /// Whether `node` is still live.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive[node]
    }

    /// Permanently crashes the `count` highest-indexed still-live nodes
    /// (the fault layer's [`CrashNodes`](crate::faults::FaultKind)
    /// semantics) and returns how many newly crashed.
    pub fn crash_highest(&mut self, count: u32) -> u64 {
        let mut newly = 0u64;
        for node in (0..self.nodes()).rev() {
            if newly == u64::from(count) {
                break;
            }
            if self.alive[node] {
                self.alive[node] = false;
                self.live -= 1;
                newly += 1;
            }
        }
        if newly > 0 {
            self.hist_round = None;
        }
        newly
    }

    /// Emits round `r`'s deliveries — one `(label, state)` pair per edge
    /// of every live node — into `out`, in canonical order, without
    /// sorting (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `m`'s population or label budget disagree with the
    /// engine's.
    pub fn emit_round(&mut self, m: &DblMultigraph, r: usize, out: &mut RoundColumns) {
        assert_eq!(m.nodes(), self.nodes(), "engine sized for another network");
        assert_eq!(m.k(), self.k, "engine built for another label budget");
        out.clear();
        if self.nsets == 0 {
            for node in 0..self.nodes() {
                if !self.alive[node] {
                    continue;
                }
                for label in m.label_set(r, node).iter() {
                    out.push(label, self.states[node]);
                }
            }
            out.canonical_sort(&self.arena);
            return;
        }
        self.ensure_histogram(m, r);
        let nsets = self.nsets;
        for label in 1..=self.k {
            let bit = 1usize << (label - 1);
            for (rank, &id) in self.ids_by_rank.iter().enumerate() {
                let mut count = 0u64;
                for mask in 1..=nsets {
                    if mask & bit != 0 {
                        count += self.pair_counts[rank * nsets + mask - 1];
                    }
                }
                if count > 0 {
                    let count = usize::try_from(count)
                        .expect("per-label run length bounded by the population");
                    out.push_run(label, id, count);
                }
            }
        }
    }

    /// Appends round `r`'s label set to every live node's history
    /// (the receive phase), interning new histories in canonical order
    /// and remapping node ranks for the next round.
    ///
    /// # Panics
    ///
    /// Panics if `m`'s population or label budget disagree with the
    /// engine's.
    pub fn advance(&mut self, m: &DblMultigraph, r: usize) {
        assert_eq!(m.nodes(), self.nodes(), "engine sized for another network");
        assert_eq!(m.k(), self.k, "engine built for another label budget");
        if self.nsets == 0 {
            for node in 0..self.nodes() {
                if self.alive[node] {
                    self.states[node] = self.arena.child(self.states[node], m.label_set(r, node));
                }
            }
            return;
        }
        self.ensure_histogram(m, r);
        let nsets = self.nsets;
        // The occupied (rank, set) pairs, in slot order, are the next
        // depth's ranks — and, since ranks follow handle order, strictly
        // increasing (parent, mask) pairs whose parents are the arena's
        // deepest histories. So they intern as one bulk level.
        self.rank_of.clear();
        self.rank_of.resize(self.pair_counts.len(), u32::MAX);
        let mut next_rank = 0u32;
        for (rank, &count) in self.rank_of.iter_mut().zip(&self.pair_counts) {
            if count > 0 {
                *rank = next_rank;
                next_rank += 1;
            }
        }
        self.next_ids.clear();
        let (ids, k) = (&self.ids_by_rank, self.k);
        let pairs = self
            .pair_counts
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(idx, _)| {
                let mask = u32::try_from(idx % nsets + 1).expect("nsets <= 63 for the dense path");
                let set =
                    LabelSet::from_mask(mask, k).expect("mask ranges over valid non-empty sets");
                (ids[idx / nsets], set)
            });
        self.arena.intern_level(pairs, &mut self.next_ids);
        // Remap every live node's rank and state handle.
        for node in 0..self.nodes() {
            if !self.alive[node] {
                continue;
            }
            let idx = pair_slot(self.node_rank[node], nsets, m.label_set(r, node).mask());
            self.node_rank[node] = self.rank_of[idx];
            self.states[node] = self.next_ids[self.rank_of[idx] as usize];
        }
        std::mem::swap(&mut self.ids_by_rank, &mut self.next_ids);
        self.hist_round = None;
    }

    /// Fills `pair_counts` with round `r`'s live `(rank, set)` histogram
    /// unless it is already current.
    fn ensure_histogram(&mut self, m: &DblMultigraph, r: usize) {
        if self.hist_round == Some(r) {
            return;
        }
        let nsets = self.nsets;
        self.pair_counts.clear();
        self.pair_counts.resize(self.ids_by_rank.len() * nsets, 0);
        for node in 0..self.nodes() {
            if !self.alive[node] {
                continue;
            }
            let idx = pair_slot(self.node_rank[node], nsets, m.label_set(r, node).mask());
            self.pair_counts[idx] += 1;
        }
        self.hist_round = Some(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::Census;
    use crate::simulate::Delivery;

    #[test]
    fn columns_roundtrip_and_retain() {
        let a = Delivery {
            label: 1,
            state: HistoryArena::empty(),
        };
        let b = Delivery {
            label: 2,
            state: HistoryArena::empty(),
        };
        let mut cols = RoundColumns::from_deliveries(&[a, b, a]);
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.iter().collect::<Vec<_>>(), vec![a, b, a]);
        cols.retain_indexed(|i| i != 1);
        assert_eq!(cols.iter().collect::<Vec<_>>(), vec![a, a]);
        cols.clear();
        assert!(cols.is_empty());
    }

    #[test]
    fn push_run_emits_multiplicity() {
        let mut cols = RoundColumns::new();
        cols.push_run(2, HistoryArena::empty(), 3);
        assert_eq!(cols.labels(), &[2, 2, 2]);
        assert_eq!(cols.states().len(), 3);
    }

    #[test]
    fn canonical_sort_matches_mask_order() {
        let mut arena = HistoryArena::new();
        let h1 = arena.child(HistoryArena::empty(), LabelSet::L1);
        let h2 = arena.child(HistoryArena::empty(), LabelSet::L2);
        let mut cols = RoundColumns::from_deliveries(&[
            Delivery { label: 2, state: h1 },
            Delivery { label: 1, state: h2 },
            Delivery { label: 1, state: h1 },
        ]);
        cols.canonical_sort(&arena);
        assert_eq!(cols.labels(), &[1, 1, 2]);
        assert_eq!(cols.states(), &[h1, h2, h1]);
        // A history sorts after its prefix and before any history that
        // differs earlier, whatever the handle order or the lengths.
        let h22 = arena.child(h2, LabelSet::L2);
        let h12 = arena.child(h1, LabelSet::L12);
        let mut cols = RoundColumns::from_deliveries(&[
            Delivery { label: 1, state: h22 },
            Delivery { label: 1, state: h2 },
            Delivery { label: 1, state: h12 },
            Delivery { label: 1, state: h1 },
            Delivery { label: 1, state: HistoryArena::empty() },
        ]);
        cols.canonical_sort(&arena);
        assert_eq!(cols.states(), &[HistoryArena::empty(), h1, h12, h2, h22]);
    }

    #[test]
    fn engine_emits_edge_counts_in_canonical_order() {
        let m = Census::from_counts(vec![2, 1, 3]).unwrap().realize().unwrap();
        let mut engine = RoundEngine::new(m.nodes(), m.k());
        let mut cols = RoundColumns::new();
        for r in 0..3 {
            engine.emit_round(&m, r, &mut cols);
            assert_eq!(cols.len(), m.edge_count(r));
            let aos: Vec<Delivery> = cols.iter().collect();
            let mut sorted = aos.clone();
            sorted.sort_by(|a, b| {
                (a.label, engine.arena().masks(a.state))
                    .cmp(&(b.label, engine.arena().masks(b.state)))
            });
            assert_eq!(aos, sorted, "round {r} is emitted pre-sorted");
            engine.advance(&m, r);
        }
    }

    #[test]
    fn crash_highest_freezes_states() {
        let m = Census::from_counts(vec![0, 0, 4]).unwrap().realize().unwrap();
        let mut engine = RoundEngine::new(m.nodes(), m.k());
        let mut cols = RoundColumns::new();
        engine.emit_round(&m, 0, &mut cols);
        engine.advance(&m, 0);
        assert_eq!(engine.crash_highest(2), 2);
        assert_eq!(engine.live_nodes(), 2);
        let frozen = engine.state_of(3);
        engine.emit_round(&m, 1, &mut cols);
        assert_eq!(cols.len(), 4, "two live nodes × two edges");
        engine.advance(&m, 1);
        assert_eq!(engine.state_of(3), frozen, "crashed state is frozen");
        assert!(engine.arena().history_len(engine.state_of(0)) == 2);
    }
}
