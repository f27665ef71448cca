//! # ftdb-analysis
//!
//! Analysis and reporting layer: everything needed to regenerate the
//! paper's figures, its comparison against prior constructions, and the
//! corollary degree bounds, in the form the `experiments` binary in
//! `ftdb-bench` prints.
//!
//! * [`comparison`] — the "ours vs. Samatham–Pradhan" node/degree tables
//!   (experiments TAB1 and TAB2) and the shuffle-exchange degree table
//!   (TAB3).
//! * [`corollaries`] — parameter sweeps checking Corollaries 1–4 by
//!   construction and measurement (experiment COR1-4) and the exhaustive
//!   tolerance verification sweep (THM1-2).
//! * [`figures`] — text/DOT renderings of Figures 1–5.
//! * [`sim_experiments`] — the SIM1 (Ascend slowdown under faults) and SIM2
//!   (bus slowdown) tables built on `ftdb-sim`.
//! * [`ablation`] — ablations of the design choices: offset shaving (ABL1)
//!   and rank-map vs search-based reconfiguration (ABL2).
//! * [`report`] — plain-text table formatting and JSON export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod comparison;
pub mod corollaries;
pub mod figures;
pub mod reliability;
pub mod report;
pub mod sim_experiments;

pub use report::TextTable;
