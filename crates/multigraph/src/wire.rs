//! Projection of a [`FaultPlan`] onto **socket behavior** — the bridge
//! between the in-memory fault model of [`faults`](crate::faults) and
//! the TCP peer runtime in `anonet-net`.
//!
//! [`simulate_with_faults`](crate::faults::simulate_with_faults) defines
//! every fault against the round's *canonical delivery order* (stride
//! drops remove residue classes of the sorted `(label, history)` list).
//! A wire proxy sees something else entirely: per-peer streams of framed
//! delivery records, in arrival order. [`project_wire_plan`] closes the
//! gap by replaying the plan against a deterministic mirror of the
//! canonical list — the multigraph fixes every node's history, so the
//! canonical position of each `(peer, label)` delivery is computable
//! ahead of time — and emitting, per round and per peer, **how many
//! copies of each delivery record the wire must let through**:
//!
//! * `copies = 1` — the record passes untouched (the default);
//! * `copies = 0` — the proxy swallows the record
//!   ([`FaultKind::DropDeliveries`], or everything in a
//!   [`FaultKind::Disconnect`] round);
//! * `copies = n > 1` — the proxy re-emits the record `n − 1` extra
//!   times ([`FaultKind::DuplicateDeliveries`]).
//!
//! [`FaultKind::CrashNodes`] projects to a per-peer **crash round** (the
//! peer daemon severs its connection there and sends nothing after);
//! [`FaultKind::LeaderRestart`] projects to a leader-side restart round
//! (state loss is a process fault — no wire behavior can express it).
//!
//! The load-bearing property (property-tested here and replayed over
//! real sockets in `anonet-net`): for every schedule and plan, the
//! multiset of `(label, history)` pairs the leader receives through the
//! projected wire plan equals, round by round, the multiset produced by
//! [`simulate_with_faults`](crate::faults::simulate_with_faults) — so a
//! socketed run reaches the same verdict as the in-memory oracle.

use crate::faults::{FaultKind, FaultPlan};
use crate::label::LabelSet;
use crate::multigraph::DblMultigraph;

/// How many copies of one peer's labeled delivery record the wire lets
/// through in one round (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyOverride {
    /// The round the override applies to.
    pub round: u32,
    /// The sending peer (node index).
    pub peer: u32,
    /// The delivery's edge label (1 or 2 for `M(DBL)_2`).
    pub label: u8,
    /// Copies delivered (0 = dropped, 2+ = duplicated).
    pub copies: u32,
}

/// The wire-level projection of one [`FaultPlan`] against one
/// multigraph: everything a socketed run needs to reproduce
/// [`simulate_with_faults`](crate::faults::simulate_with_faults)'s
/// delivered multisets over real connections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WirePlan {
    /// Copy-count overrides, for every `(round, peer, label)` whose
    /// delivered copy count is not 1. Sorted by `(round, peer, label)`.
    pub overrides: Vec<CopyOverride>,
    /// Per-peer crash round: the peer plays rounds `0..crash`, then
    /// severs its connection and sends nothing more. `None` = the peer
    /// survives the whole run.
    pub crash_round: Vec<Option<u32>>,
    /// Rounds at which the *leader* restarts with state loss (applied by
    /// the orchestrator, not the wire).
    pub restarts: Vec<u32>,
}

impl WirePlan {
    /// The copy count for `(round, peer, label)` — 1 unless overridden.
    pub fn copies(&self, round: u32, peer: u32, label: u8) -> u32 {
        self.overrides
            .iter()
            .find(|o| o.round == round && o.peer == peer && o.label == label)
            .map_or(1, |o| o.copies)
    }

    /// The overrides affecting `peer`, in `(round, label)` order — the
    /// egress filter one fault proxy enforces.
    pub fn peer_overrides(&self, peer: u32) -> Vec<CopyOverride> {
        self.overrides
            .iter()
            .filter(|o| o.peer == peer)
            .copied()
            .collect()
    }

    /// Whether any override or crash touches `peer` (a clean peer needs
    /// no proxy in front of its connection).
    pub fn touches_peer(&self, peer: u32) -> bool {
        self.crash_round
            .get(peer as usize)
            .is_some_and(Option::is_some)
            || self.overrides.iter().any(|o| o.peer == peer)
    }

    /// True when no override, crash or restart is scheduled — the wire
    /// passes everything through verbatim.
    pub fn is_empty(&self) -> bool {
        self.overrides.is_empty()
            && self.restarts.is_empty()
            && self.crash_round.iter().all(Option::is_none)
    }
}

/// One mirrored canonical delivery: the projection's stand-in for an
/// engine-emitted `(label, state)` column entry, tagged with its sender.
#[derive(Debug, Clone)]
struct MirrorEntry {
    label: u8,
    /// The sender's history as label-set masks (the canonical sort key
    /// [`RoundColumns::canonical_sort`](crate::soa::RoundColumns::canonical_sort)
    /// uses, resolved eagerly — no arena needed).
    masks: Vec<u32>,
    peer: u32,
}

/// Projects `plan` onto wire behavior for a `rounds`-round run of `m`.
///
/// Replays the exact per-round fault pipeline of
/// [`simulate_with_faults`](crate::faults::simulate_with_faults) —
/// crashes at `round.max(1)`, then disconnect/drop/duplicate in plan
/// order against the canonically sorted delivery list — on a mirror
/// that remembers which peer each delivery came from, and returns the
/// surviving copy count of every `(round, peer, label)` record.
///
/// Ties in the canonical order (two peers delivering the same label
/// with identical histories) are broken by peer index; a stride drop
/// may therefore attribute a dropped copy to a different *peer* than
/// the engine would, but the delivered `(label, history)` **multiset**
/// — the only thing any leader can observe in an anonymous network —
/// is identical, which the property tests pin.
pub fn project_wire_plan(m: &DblMultigraph, rounds: u32, plan: &FaultPlan) -> WirePlan {
    let n = m.nodes();
    let mut alive = vec![true; n];
    let mut crash_round = vec![None; n];
    let mut overrides = Vec::new();
    let mut restarts = Vec::new();
    for r in 0..rounds {
        // Crashes act at max(round, 1), in plan order, highest-indexed
        // live nodes first — mirroring `RoundEngine::crash_highest`.
        for ev in plan.events().iter().filter(|e| e.round.max(1) == r) {
            if let FaultKind::CrashNodes { count } = ev.kind {
                let mut newly = 0u32;
                for node in (0..n).rev() {
                    if newly == count {
                        break;
                    }
                    if alive[node] {
                        alive[node] = false;
                        crash_round[node] = Some(r);
                        newly += 1;
                    }
                }
            }
        }
        if plan.has_restart_at(r) {
            restarts.push(r);
        }
        // Mirror the canonical delivery list: every live node's labeled
        // edges, stably sorted by the same `(label, masks)` key the
        // engine sorts by (peer index breaks ties deterministically).
        let mut entries: Vec<MirrorEntry> = Vec::new();
        for (node, &live) in alive.iter().enumerate().take(n) {
            if !live {
                continue;
            }
            let masks: Vec<u32> = (0..r as usize)
                .map(|rr| m.label_set(rr, node).mask())
                .collect();
            for label in m.label_set(r as usize, node).iter() {
                entries.push(MirrorEntry {
                    label,
                    masks: masks.clone(),
                    peer: node as u32,
                });
            }
        }
        entries.sort_by(|a, b| (a.label, &a.masks).cmp(&(b.label, &b.masks)));
        // Replay the round's delivery faults in plan order, exactly as
        // `simulate_with_faults` applies them.
        for ev in plan.events_at(r) {
            match ev.kind {
                FaultKind::Disconnect => entries.clear(),
                FaultKind::DropDeliveries { stride, offset } => {
                    let stride = stride.max(1) as usize;
                    let mut i = 0usize;
                    entries.retain(|_| {
                        let keep = i % stride != (offset as usize) % stride;
                        i += 1;
                        keep
                    });
                }
                FaultKind::DuplicateDeliveries { stride, offset } => {
                    let stride = stride.max(1) as usize;
                    let dups: Vec<MirrorEntry> = entries
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % stride == (offset as usize) % stride)
                        .map(|(_, e)| e.clone())
                        .collect();
                    entries.extend(dups);
                    entries.sort_by(|a, b| (a.label, &a.masks).cmp(&(b.label, &b.masks)));
                }
                FaultKind::LeaderRestart | FaultKind::CrashNodes { .. } => {}
            }
        }
        // Tally surviving copies per (peer, label) and emit overrides
        // where the count differs from 1. A peer that is live this round
        // emits each of its labels exactly once; everything it would
        // emit that survived 0 or 2+ times is a wire action.
        let mut survived = vec![[0u32; 2]; n];
        for e in &entries {
            survived[e.peer as usize][(e.label - 1) as usize] += 1;
        }
        for node in 0..n {
            if !alive[node] {
                continue;
            }
            for label in m.label_set(r as usize, node).iter() {
                let copies = survived[node][(label - 1) as usize];
                if copies != 1 {
                    overrides.push(CopyOverride {
                        round: r,
                        peer: node as u32,
                        label,
                        copies,
                    });
                }
            }
        }
    }
    WirePlan {
        overrides,
        crash_round,
        restarts,
    }
}

/// What the leader receives through the projected wire plan, resolved
/// to `(label, history-masks)` pairs and canonically sorted — the pure
/// reference the socket tests and the equivalence proptests both
/// compare against
/// [`simulate_with_faults`](crate::faults::simulate_with_faults).
///
/// Round `r`'s list is built exactly the way the peers + proxy + leader
/// pipeline builds it: each surviving peer emits its labeled records,
/// each record is repeated `copies(r, peer, label)` times, and the
/// leader sorts the assembled round canonically.
pub fn wire_delivered_rounds(
    m: &DblMultigraph,
    rounds: u32,
    wire: &WirePlan,
) -> Vec<Vec<(u8, Vec<u32>)>> {
    let n = m.nodes();
    let mut out = Vec::with_capacity(rounds as usize);
    for r in 0..rounds {
        let mut round: Vec<(u8, Vec<u32>)> = Vec::new();
        for node in 0..n {
            let crashed = wire.crash_round[node].is_some_and(|c| c <= r);
            if crashed {
                continue;
            }
            let masks: Vec<u32> = (0..r as usize)
                .map(|rr| m.label_set(rr, node).mask())
                .collect();
            for label in m.label_set(r as usize, node).iter() {
                for _ in 0..wire.copies(r, node as u32, label) {
                    round.push((label, masks.clone()));
                }
            }
        }
        round.sort();
        out.push(round);
    }
    out
}

/// The label sets a single peer plays, one per round up to `rounds`
/// (hold-last past the explicit prefix) — the only slice of the
/// multigraph a peer daemon is ever given, preserving the anonymity
/// boundary: a peer knows its own connectivity schedule, never the
/// population.
pub fn peer_rows(m: &DblMultigraph, node: usize, rounds: u32) -> Vec<LabelSet> {
    (0..rounds as usize).map(|r| m.label_set(r, node)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::TwinBuilder;
    use crate::faults::simulate_with_faults;

    /// Resolves a faulted execution's rounds to sorted
    /// `(label, masks)` multisets, the common currency of equivalence.
    fn reference_rounds(
        m: &DblMultigraph,
        rounds: u32,
        plan: &FaultPlan,
    ) -> Vec<Vec<(u8, Vec<u32>)>> {
        let faulted = simulate_with_faults(m, rounds as usize, plan);
        faulted
            .execution
            .rounds
            .iter()
            .map(|cols| {
                let mut v: Vec<(u8, Vec<u32>)> = cols
                    .iter()
                    .map(|d| (d.label, faulted.execution.arena.masks(d.state)))
                    .collect();
                v.sort();
                v
            })
            .collect()
    }

    #[test]
    fn empty_plan_projects_to_empty_wire_plan() {
        let pair = TwinBuilder::new().build(9).unwrap();
        let wire = project_wire_plan(&pair.smaller, 6, &FaultPlan::new());
        assert!(wire.is_empty());
        assert_eq!(
            wire_delivered_rounds(&pair.smaller, 6, &wire),
            reference_rounds(&pair.smaller, 6, &FaultPlan::new())
        );
    }

    #[test]
    fn drop_projection_matches_simulate() {
        let pair = TwinBuilder::new().build(13).unwrap();
        let plan = FaultPlan::new().drop_deliveries(1, 4, 0);
        let wire = project_wire_plan(&pair.smaller, 6, &plan);
        assert!(wire.overrides.iter().all(|o| o.copies == 0 && o.round == 1));
        assert_eq!(
            wire_delivered_rounds(&pair.smaller, 6, &wire),
            reference_rounds(&pair.smaller, 6, &plan)
        );
    }

    #[test]
    fn duplicate_projection_matches_simulate() {
        let pair = TwinBuilder::new().build(7).unwrap();
        let plan = FaultPlan::new().duplicate_deliveries(2, 3, 1);
        let wire = project_wire_plan(&pair.smaller, 6, &plan);
        assert!(wire.overrides.iter().all(|o| o.copies >= 2));
        assert_eq!(
            wire_delivered_rounds(&pair.smaller, 6, &wire),
            reference_rounds(&pair.smaller, 6, &plan)
        );
    }

    #[test]
    fn disconnect_projects_to_all_zero_copies() {
        let pair = TwinBuilder::new().build(5).unwrap();
        let plan = FaultPlan::new().disconnect(2);
        let wire = project_wire_plan(&pair.smaller, 5, &plan);
        let delivered = wire_delivered_rounds(&pair.smaller, 5, &wire);
        assert!(delivered[2].is_empty(), "severed round delivers nothing");
        assert_eq!(delivered, reference_rounds(&pair.smaller, 5, &plan));
    }

    #[test]
    fn crashes_project_to_crash_rounds() {
        let pair = TwinBuilder::new().build(6).unwrap();
        let plan = FaultPlan::new().crash_nodes(0, 2).crash_nodes(3, 1);
        let wire = project_wire_plan(&pair.smaller, 6, &plan);
        // Round-0 crashes act at round 1 (every node completes round 0).
        assert_eq!(wire.crash_round[5], Some(1));
        assert_eq!(wire.crash_round[4], Some(1));
        assert_eq!(wire.crash_round[3], Some(3));
        assert_eq!(wire.crash_round[2], None);
        assert_eq!(
            wire_delivered_rounds(&pair.smaller, 6, &wire),
            reference_rounds(&pair.smaller, 6, &plan)
        );
    }

    #[test]
    fn restarts_are_leader_side_only() {
        let pair = TwinBuilder::new().build(4).unwrap();
        let plan = FaultPlan::new().leader_restart(2);
        let wire = project_wire_plan(&pair.smaller, 5, &plan);
        assert_eq!(wire.restarts, vec![2]);
        assert!(wire.overrides.is_empty());
        assert!(!wire.is_empty(), "a restart is still a scheduled fault");
    }

    #[test]
    fn stacked_same_round_events_compose_in_plan_order() {
        // Drop-then-duplicate at the same round: the duplicate indexes
        // into the *post-drop* canonical list, exactly as in
        // `simulate_with_faults`.
        let pair = TwinBuilder::new().build(9).unwrap();
        let plan = FaultPlan::new()
            .drop_deliveries(1, 2, 0)
            .duplicate_deliveries(1, 3, 1);
        let wire = project_wire_plan(&pair.smaller, 5, &plan);
        assert_eq!(
            wire_delivered_rounds(&pair.smaller, 5, &wire),
            reference_rounds(&pair.smaller, 5, &plan)
        );
    }
}
