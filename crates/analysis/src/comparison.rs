//! The node-count / degree comparison against prior constructions
//! (experiments TAB1, TAB2 and TAB3).
//!
//! The paper's introduction compares its constructions with the
//! Samatham–Pradhan scheme \[12\]: *"our constructions use far fewer nodes and
//! yet have only slightly larger degrees."* These tables make the comparison
//! concrete for a sweep of parameters, reporting both the closed-form
//! figures quoted in the paper and (for instances small enough to
//! materialise) the measured maximum degree of the actual graphs.

use crate::report::TextTable;
use ftdb_core::baseline::SpBaseline;
use ftdb_core::{FtDeBruijn2, FtDeBruijnM, FtShuffleExchange, NaturalFtShuffleExchange};
use ftdb_topology::labels::pow_nodes;

/// One row of the base-2 / base-m comparison table.
#[derive(Clone, Debug, PartialEq)]
pub struct ComparisonRow {
    /// Base of the target de Bruijn graph.
    pub m: usize,
    /// Digits of the target de Bruijn graph.
    pub h: usize,
    /// Fault budget.
    pub k: usize,
    /// Target node count `m^h`.
    pub target_nodes: u128,
    /// Target degree (`2m` for the de Bruijn graph).
    pub target_degree: usize,
    /// Our construction's node count `m^h + k`.
    pub ours_nodes: u128,
    /// Our construction's degree bound `4(m-1)k + 2m`.
    pub ours_degree_bound: usize,
    /// Our construction's measured maximum degree (if the instance was small
    /// enough to build).
    pub ours_degree_measured: Option<usize>,
    /// Samatham–Pradhan node count `(m(k+1))^h`.
    pub sp_nodes: u128,
    /// Samatham–Pradhan quoted degree `2mk + 2`.
    pub sp_degree: usize,
    /// Node-count ratio `sp_nodes / ours_nodes`.
    pub node_ratio: f64,
}

/// Builds one comparison row; the graph is materialised (to measure its
/// true degree) only when it has at most `measure_limit` nodes.
fn comparison_row(m: usize, h: usize, k: usize, measure_limit: usize) -> ComparisonRow {
    let target_nodes = (m as u128).pow(h as u32);
    let ours_nodes = target_nodes + k as u128;
    let sp = SpBaseline::new(m, h, k);
    let ours_degree_measured = if ours_nodes <= measure_limit as u128 {
        let measured = if m == 2 {
            FtDeBruijn2::new(h, k).graph().max_degree()
        } else {
            FtDeBruijnM::new(m, h, k).graph().max_degree()
        };
        Some(measured)
    } else {
        None
    };
    ComparisonRow {
        m,
        h,
        k,
        target_nodes,
        target_degree: 2 * m,
        ours_nodes,
        ours_degree_bound: 4 * (m - 1) * k + 2 * m,
        ours_degree_measured,
        sp_nodes: sp.nodes(),
        sp_degree: sp.quoted_degree(),
        node_ratio: sp.nodes() as f64 / ours_nodes as f64,
    }
}

/// TAB1: the base-2 comparison over `h ∈ hs`, `k ∈ ks`.
pub fn base2_table(hs: &[usize], ks: &[usize], measure_limit: usize) -> Vec<ComparisonRow> {
    let mut rows = Vec::new();
    for &h in hs {
        for &k in ks {
            rows.push(comparison_row(2, h, k, measure_limit));
        }
    }
    rows
}

/// TAB2: the base-m comparison over `(m, h)` pairs and `k ∈ ks`.
pub fn base_m_table(
    mhs: &[(usize, usize)],
    ks: &[usize],
    measure_limit: usize,
) -> Vec<ComparisonRow> {
    let mut rows = Vec::new();
    for &(m, h) in mhs {
        for &k in ks {
            rows.push(comparison_row(m, h, k, measure_limit));
        }
    }
    rows
}

/// Renders a list of comparison rows as a [`TextTable`].
pub fn render_comparison(title: &str, rows: &[ComparisonRow]) -> TextTable {
    let mut table = TextTable::new(
        title,
        &[
            "m",
            "h",
            "k",
            "N (target)",
            "deg(target)",
            "N+k (ours)",
            "deg<= (ours)",
            "deg meas (ours)",
            "N (S-P)",
            "deg (S-P)",
            "node ratio S-P/ours",
        ],
    );
    for r in rows {
        table.push_row(vec![
            r.m.to_string(),
            r.h.to_string(),
            r.k.to_string(),
            r.target_nodes.to_string(),
            r.target_degree.to_string(),
            r.ours_nodes.to_string(),
            r.ours_degree_bound.to_string(),
            r.ours_degree_measured
                .map_or("-".to_string(), |d| d.to_string()),
            r.sp_nodes.to_string(),
            r.sp_degree.to_string(),
            format!("{:.1}", r.node_ratio),
        ]);
    }
    table
}

/// One row of TAB3: the two fault-tolerant shuffle-exchange constructions.
#[derive(Clone, Debug, PartialEq)]
pub struct ShuffleExchangeRow {
    /// Digits of the shuffle-exchange network.
    pub h: usize,
    /// Fault budget.
    pub k: usize,
    /// Node count of both constructions, `2^h + k`.
    pub nodes: usize,
    /// Degree bound of the de Bruijn-containment route, `4k + 4`.
    pub via_db_bound: usize,
    /// Measured degree of the de Bruijn-containment route.
    pub via_db_measured: Option<usize>,
    /// Degree figure the paper quotes for the natural labeling, `6k + 4`.
    pub natural_paper_bound: usize,
    /// Measured degree of the natural-labeling construction.
    pub natural_measured: usize,
}

/// Builds TAB3 for the given `(h, k)` pairs. The de Bruijn route needs the
/// SE ⊆ DB embedding, which is only computed for `h ≤ embed_limit`.
pub fn shuffle_exchange_table(
    hks: &[(usize, usize)],
    embed_limit: usize,
) -> Vec<ShuffleExchangeRow> {
    hks.iter()
        .map(|&(h, k)| {
            let natural = NaturalFtShuffleExchange::new(h, k);
            let via_db_measured = if h <= embed_limit {
                FtShuffleExchange::new(h, k)
                    .ok()
                    .map(|ft| ft.graph().max_degree())
            } else {
                None
            };
            ShuffleExchangeRow {
                h,
                k,
                nodes: pow_nodes(2, h) + k,
                via_db_bound: 4 * k + 4,
                via_db_measured,
                natural_paper_bound: natural.paper_degree_bound(),
                natural_measured: natural.graph().max_degree(),
            }
        })
        .collect()
}

/// Renders TAB3 as a [`TextTable`].
pub fn render_shuffle_exchange(rows: &[ShuffleExchangeRow]) -> TextTable {
    let mut table = TextTable::new(
        "TAB3: fault-tolerant shuffle-exchange degrees (via de Bruijn vs natural labeling)",
        &[
            "h",
            "k",
            "nodes",
            "deg<= via DB (4k+4)",
            "deg meas via DB",
            "paper natural (6k+4)",
            "deg meas natural",
        ],
    );
    for r in rows {
        table.push_row(vec![
            r.h.to_string(),
            r.k.to_string(),
            r.nodes.to_string(),
            r.via_db_bound.to_string(),
            r.via_db_measured.map_or("-".to_string(), |d| d.to_string()),
            r.natural_paper_bound.to_string(),
            r.natural_measured.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_reproduces_intro_comparison_shape() {
        // k = 1, base 2, h = 4: ours 17 nodes / degree ≤ 8 vs S-P 256 nodes /
        // degree 6 — far fewer nodes, slightly larger degree.
        let r = comparison_row(2, 4, 1, 10_000);
        assert_eq!(r.ours_nodes, 17);
        assert_eq!(r.ours_degree_bound, 8);
        assert_eq!(r.sp_nodes, 256);
        assert_eq!(r.sp_degree, 6);
        assert!(r.node_ratio > 15.0);
        assert!(r.ours_degree_measured.unwrap() <= 8);
    }

    #[test]
    fn measured_degree_is_skipped_for_large_instances() {
        let r = comparison_row(2, 20, 2, 1000);
        assert!(r.ours_degree_measured.is_none());
        assert_eq!(r.ours_nodes, (1 << 20) + 2);
    }

    #[test]
    fn tables_have_expected_dimensions() {
        let t1 = base2_table(&[3, 4, 5], &[1, 2], 5000);
        assert_eq!(t1.len(), 6);
        let t2 = base_m_table(&[(3, 3), (4, 2)], &[1, 2, 3], 5000);
        assert_eq!(t2.len(), 6);
        let rendered = render_comparison("TAB1", &t1);
        assert_eq!(rendered.row_count(), 6);
        assert!(rendered.render().contains("TAB1"));
    }

    #[test]
    fn sp_baseline_always_needs_more_nodes() {
        for row in base2_table(&[3, 4, 5, 6], &[1, 2, 3, 4], 0) {
            assert!(row.sp_nodes > row.ours_nodes, "h={}, k={}", row.h, row.k);
        }
    }

    #[test]
    fn shuffle_exchange_table_shows_db_route_winning() {
        let rows = shuffle_exchange_table(&[(4, 1), (4, 2), (5, 1)], 5);
        for r in &rows {
            let via = r.via_db_measured.expect("embedding should be found");
            assert!(via <= r.via_db_bound);
            assert!(via <= r.natural_measured);
        }
        let rendered = render_shuffle_exchange(&rows);
        assert_eq!(rendered.row_count(), 3);
    }

    #[test]
    fn shuffle_exchange_table_skips_embedding_beyond_limit() {
        let rows = shuffle_exchange_table(&[(7, 1)], 5);
        assert!(rows[0].via_db_measured.is_none());
        assert_eq!(rows[0].nodes, 129);
    }
}
