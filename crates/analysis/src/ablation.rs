//! Ablation experiments around the paper's design choices.
//!
//! Two questions the paper raises but does not answer empirically:
//!
//! * **ABL1 — are all the extra edges needed?** The construction widens each
//!   de Bruijn edge into a block of `2k + 2` offsets. Using the general
//!   (search-based) notion of tolerance from `ftdb_core::lowerbound`, we ask
//!   whether any single offset can be dropped while preserving
//!   `(k, B_{2,h})`-tolerance. (The paper's conclusion poses the matching
//!   open problem: are the degrees optimal?)
//! * **ABL2 — does the simple rank-based reconfiguration give anything
//!   away?** For every fault set of the small instances we compare the rank
//!   map against a full embedding search on the surviving subgraph: if the
//!   rank map ever failed where some other embedding existed, the paper's
//!   "reconfiguration is trivial" story would weaken. (It never does — that
//!   is Theorem 1 — and the experiment documents it mechanically.)

use crate::report::TextTable;
use ftdb_core::lowerbound::{is_tolerant_general, search_lower_degree, GeneralTolerance};
use ftdb_core::verify::verify_exhaustive;
use ftdb_core::FtDeBruijn2;

/// One row of the ABL1 offset-shaving table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OffsetAblationRow {
    /// Digits of the target graph.
    pub h: usize,
    /// Fault budget.
    pub k: usize,
    /// Measured degree of the full (paper) construction.
    pub paper_degree: usize,
    /// Number of shaved candidates examined (one per dropped offset).
    pub candidates: usize,
    /// Number of shaved candidates that remain tolerant (general sense).
    pub still_tolerant: usize,
    /// The smallest degree among still-tolerant shaved candidates, if any.
    pub best_shaved_degree: Option<usize>,
    /// Number of candidates whose verdict was left unresolved by the search
    /// budget.
    pub unresolved: usize,
}

/// Runs ABL1 for the given `(h, k)` pairs.
pub fn offset_ablation(params: &[(usize, usize)], per_fault_budget: u64) -> Vec<OffsetAblationRow> {
    params
        .iter()
        .map(|&(h, k)| {
            let search = search_lower_degree(h, k, per_fault_budget);
            let still_tolerant = search
                .candidates
                .iter()
                .filter(|c| c.tolerance.is_tolerant())
                .count();
            let unresolved = search
                .candidates
                .iter()
                .filter(|c| matches!(c.tolerance, GeneralTolerance::Unknown { .. }))
                .count();
            let best_shaved_degree = search
                .candidates
                .iter()
                .filter(|c| c.tolerance.is_tolerant())
                .map(|c| c.max_degree)
                .min();
            OffsetAblationRow {
                h,
                k,
                paper_degree: search.paper_degree,
                candidates: search.candidates.len(),
                still_tolerant,
                best_shaved_degree,
                unresolved,
            }
        })
        .collect()
}

/// Renders the ABL1 table.
pub fn render_offset_ablation(rows: &[OffsetAblationRow]) -> TextTable {
    let mut table = TextTable::new(
        "ABL1: can any offset be dropped from B^k(2,h)? (general, search-based tolerance)",
        &[
            "h",
            "k",
            "paper degree",
            "shaved candidates",
            "still tolerant",
            "best shaved degree",
            "unresolved",
        ],
    );
    for r in rows {
        table.push_row(vec![
            r.h.to_string(),
            r.k.to_string(),
            r.paper_degree.to_string(),
            r.candidates.to_string(),
            r.still_tolerant.to_string(),
            r.best_shaved_degree
                .map_or("-".to_string(), |d| d.to_string()),
            r.unresolved.to_string(),
        ]);
    }
    table
}

/// One row of the ABL2 rank-map-vs-search table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReconfigAblationRow {
    /// Digits of the target graph.
    pub h: usize,
    /// Fault budget.
    pub k: usize,
    /// Fault sets checked (all of them, exhaustively).
    pub fault_sets: u64,
    /// Fault sets where the rank map succeeded.
    pub rank_map_ok: bool,
    /// Whether a general embedding search also certifies tolerance
    /// (it must, since the rank map is a special case).
    pub search_ok: bool,
}

/// Runs ABL2 for the given `(h, k)` pairs (small instances only), with
/// `threads` exhaustive-verification workers (the rows do not depend on
/// it).
pub fn reconfig_ablation(
    params: &[(usize, usize)],
    per_fault_budget: u64,
    threads: usize,
) -> Vec<ReconfigAblationRow> {
    params
        .iter()
        .map(|&(h, k)| {
            let ft = FtDeBruijn2::new(h, k);
            let rank = verify_exhaustive(ft.target().graph(), ft.graph(), k, threads);
            let general = is_tolerant_general(ft.target().graph(), ft.graph(), k, per_fault_budget);
            ReconfigAblationRow {
                h,
                k,
                fault_sets: rank.checked,
                rank_map_ok: rank.is_tolerant(),
                search_ok: general.is_tolerant(),
            }
        })
        .collect()
}

/// Renders the ABL2 table.
pub fn render_reconfig_ablation(rows: &[ReconfigAblationRow]) -> TextTable {
    let mut table = TextTable::new(
        "ABL2: rank-based reconfiguration vs general embedding search",
        &[
            "h",
            "k",
            "fault sets",
            "rank map tolerant",
            "search tolerant",
        ],
    );
    for r in rows {
        table.push_row(vec![
            r.h.to_string(),
            r.k.to_string(),
            r.fault_sets.to_string(),
            if r.rank_map_ok { "yes" } else { "NO" }.to_string(),
            if r.search_ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_ablation_small_cases() {
        let rows = offset_ablation(&[(3, 1), (3, 2)], 10_000_000);
        assert_eq!(rows.len(), 2);
        // k = 1: no shaved candidate survives.
        assert_eq!(rows[0].still_tolerant, 0);
        assert!(rows[0].best_shaved_degree.is_none());
        // k = 2 at toy scale: some candidates survive with smaller degree.
        assert!(rows[1].still_tolerant > 0);
        assert!(rows[1].best_shaved_degree.unwrap() < rows[1].paper_degree);
        let table = render_offset_ablation(&rows);
        assert_eq!(table.row_count(), 2);
    }

    #[test]
    fn reconfig_ablation_agrees_both_ways() {
        let rows = reconfig_ablation(&[(3, 1), (3, 2)], 10_000_000, 2);
        assert!(rows.iter().all(|r| r.rank_map_ok && r.search_ok));
        let text = render_reconfig_ablation(&rows).render();
        assert!(!text.contains("NO"));
    }
}
