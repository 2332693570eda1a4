//! Dynamic bipartite labeled multigraphs `M(DBL)_k` and the paper's
//! lower-bound machinery.
//!
//! This crate implements §4 of *"Investigating the Cost of Anonymity on
//! Dynamic Networks"* (Di Luna & Baldoni, PODC 2015):
//!
//! * [`LabelSet`] / [`History`] — edge-label sets and node state histories
//!   (Definitions 5–6);
//! * [`DblMultigraph`] — the `M(DBL)_k` family (§4.1);
//! * [`LeaderState`] / [`Observations`] — the leader's knowledge
//!   (Definition 7, the constant-terms vector `m_r`);
//! * [`system`] — the observation matrix `M_r`, the closed-form kernel
//!   `k_r` (Lemma 3), kernel sums (Lemma 4) and the `O(3^r)` tree solver
//!   recovering the affine solution line (the constructive Lemma 2);
//! * [`Census`] — solution vectors `s_r` and their realization as concrete
//!   multigraphs;
//! * [`adversary`] — the executable Lemma 5: twin networks of sizes `n` and
//!   `n+1` indistinguishable through `⌊log₃(2n+1)⌋ - 1` rounds;
//! * [`transform`] — the Lemma 1 reduction to `G(PD)_2` graphs (Figure 2);
//! * [`soa`] — the struct-of-arrays round engine behind
//!   [`simulate`](crate::simulate::simulate): flat `(label, state)`
//!   delivery columns and a sort-free, allocation-free serial round
//!   step.
//!
//! # Examples
//!
//! The paper's Figure 3: two multigraphs of sizes 2 and 4 that give the
//! leader identical round-0 observations:
//!
//! ```
//! use anonet_multigraph::{Census, LeaderState};
//!
//! let s = Census::from_counts(vec![0, 0, 2])?;   // two nodes on {1,2}
//! let s_prime = Census::from_counts(vec![2, 2, 0])?; // 2x{1}, 2x{2}
//! let m = s.realize()?;
//! let m_prime = s_prime.realize()?;
//! assert_eq!(
//!     LeaderState::observe(&m, 1),
//!     LeaderState::observe(&m_prime, 1),
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adversary;
mod census;
pub mod corpus;
pub mod faults;
mod history;
pub mod history_tree;
mod label;
mod leader;
#[allow(clippy::module_inception)]
mod multigraph;
pub mod mutate;
pub mod render;
pub mod simulate;
pub mod soa;
pub mod system;
pub mod system_k;
pub mod transform;
pub mod wire;

pub use adversary::{AdversaryError, TwinBuilder, TwinError, TwinPair};
pub use census::{Census, CensusError};
pub use corpus::{read_archive, write_archive, ArchiveRead, ArchivedSchedule, CorpusError};
pub use history::{
    checked_ternary_count, ternary_count, History, HistoryArena, HistoryId, ParseHistoryError,
};
pub use history_tree::{HistoryTreeError, HistoryTreeLeader};
pub use label::{LabelError, LabelSet, MAX_LABELS};
pub use leader::{LeaderState, ObservationError, Observations, ObservationStream};
pub use multigraph::{DblError, DblMultigraph};
pub use mutate::{AdversarySchedule, ScheduleError, MAX_HORIZON};
pub use soa::{RoundColumns, RoundEngine};
pub use wire::{project_wire_plan, CopyOverride, WirePlan};

/// Structured round tracing ([`TraceSink`](anonet_trace::TraceSink),
/// [`RoundEvent`](anonet_trace::RoundEvent), the JSONL sinks), re-exported
/// for callers of the `*_with_sink` observation methods.
pub use anonet_trace as trace;
