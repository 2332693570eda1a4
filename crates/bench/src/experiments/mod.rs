//! One module per group of paper artifacts.

mod baselines;
pub mod checkpoint;
pub mod crossover;
mod extensions;
pub mod faults;
mod figures;
mod lemmas;
pub mod linalg_scaling;
pub mod net;
pub mod runner;
pub mod scale;
pub mod search;
mod theorems;

pub use baselines::{discussion, enumeration, gossip, mass_drain};
pub use extensions::{
    adversary_ablation, general_k, general_k_ambiguity, pd2_view_counting, placement_ablation,
    state_growth, view_complexity,
};
pub use figures::{fig1, fig2, fig3, fig4};
pub use lemmas::{lemma2, lemma3, lemma4};
pub use theorems::{cor1, gap, thm1, thm2, token_dissemination};

use anonet_core::experiment::Table;
use runner::Cell;

/// The complete experiment suite in paper order, as parallel-runnable
/// cells (one per experiment; every experiment seeds itself, so cells
/// are order- and thread-independent).
///
/// The fault-injection safety envelope ([`faults`]) is deliberately
/// *not* part of this suite: it measures out-of-model behaviour and
/// runs via its own `exp_faults` binary. The large-`n` scaling grid
/// ([`scale`]) likewise runs via its own `exp_scale` binary: its cells
/// need the machine to themselves for timing fidelity. The adversary
/// search ([`search`]) runs via `exp_search`: its campaigns are
/// open-ended optimisation, not paper reproductions.
pub fn all_cells(quick: bool) -> Vec<Cell> {
    vec![
        Cell::new("fig1", fig1),
        Cell::new("fig2", fig2),
        Cell::new("fig3", fig3),
        Cell::new("fig4", fig4),
        Cell::new("lemma2", lemma2),
        Cell::new("lemma3", move || lemma3(if quick { 8 } else { 11 })),
        Cell::new("lemma4", move || lemma4(if quick { 9 } else { 12 })),
        Cell::new("thm1", thm1),
        Cell::new("thm2", move || thm2(quick)),
        Cell::new("cor1", cor1),
        Cell::new("discussion", discussion),
        Cell::new("gap", gap),
        Cell::new("tokens", token_dissemination),
        Cell::new("gossip", gossip),
        Cell::new("massdrain", mass_drain),
        Cell::new("enum", enumeration),
        Cell::new("general_k", general_k),
        Cell::new("general_k_ambiguity", general_k_ambiguity),
        Cell::new("adversary_ablation", adversary_ablation),
        Cell::new("placement", placement_ablation),
        Cell::new("stategrowth", state_growth),
        Cell::new("views", view_complexity),
        Cell::new("pd2views", pd2_view_counting),
    ]
}

/// Runs the complete experiment suite serially, in paper order.
pub fn all(quick: bool) -> Vec<Table> {
    runner::run_cells(&all_cells(quick), 1).0
}
