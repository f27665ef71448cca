//! Parameter sweeps for the paper's corollaries and theorems
//! (experiments COR1-4 and THM1-2).

use crate::report::TextTable;
use ftdb_core::verify::{certify, verify_exhaustive};
use ftdb_core::{BusArchitecture, FtDeBruijn2, FtDeBruijnM};

/// Which corollary a sweep row instantiates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corollary {
    /// Corollary 1: `B^k_{2,h}` has `2^h + k` nodes and degree ≤ `4k + 4`.
    C1,
    /// Corollary 2: `B^1_{2,h}` has `2^h + 1` nodes and degree ≤ 8.
    C2,
    /// Corollary 3: `B^k_{m,h}` has `m^h + k` nodes and degree ≤ `4(m-1)k + 2m`.
    C3,
    /// Corollary 4: `B^1_{m,h}` has `m^h + 1` nodes and degree ≤ `6m − 4`.
    C4,
    /// Section V: the bus implementation has bus-degree ≤ `2k + 3`.
    Bus,
}

/// One row of the corollary sweep: construction parameters, the bound the
/// paper states, and the measured value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorollaryRow {
    /// Which corollary this row checks.
    pub corollary: Corollary,
    /// Base of the target graph.
    pub m: usize,
    /// Digits of the target graph.
    pub h: usize,
    /// Fault budget.
    pub k: usize,
    /// Node count required by the statement.
    pub expected_nodes: usize,
    /// Node count of the constructed graph.
    pub measured_nodes: usize,
    /// Degree bound stated by the paper.
    pub degree_bound: usize,
    /// Measured maximum degree.
    pub measured_degree: usize,
}

impl CorollaryRow {
    /// `true` if the measured values satisfy the statement.
    pub(crate) fn holds(&self) -> bool {
        self.measured_nodes == self.expected_nodes && self.measured_degree <= self.degree_bound
    }
}

/// Sweeps Corollaries 1 and 2 (base-2) over the given parameters.
pub fn sweep_base2(hs: &[usize], ks: &[usize]) -> Vec<CorollaryRow> {
    let mut rows = Vec::new();
    for &h in hs {
        for &k in ks {
            let ft = FtDeBruijn2::new(h, k);
            rows.push(CorollaryRow {
                corollary: if k == 1 { Corollary::C2 } else { Corollary::C1 },
                m: 2,
                h,
                k,
                expected_nodes: (1 << h) + k,
                measured_nodes: ft.node_count(),
                degree_bound: 4 * k + 4,
                measured_degree: ft.graph().max_degree(),
            });
        }
    }
    rows
}

/// Sweeps Corollaries 3 and 4 (base-m) over the given parameters.
pub fn sweep_base_m(mhs: &[(usize, usize)], ks: &[usize]) -> Vec<CorollaryRow> {
    let mut rows = Vec::new();
    for &(m, h) in mhs {
        for &k in ks {
            let ft = FtDeBruijnM::new(m, h, k);
            let degree_bound = if k == 1 {
                6 * m - 4
            } else {
                4 * (m - 1) * k + 2 * m
            };
            rows.push(CorollaryRow {
                corollary: if k == 1 { Corollary::C4 } else { Corollary::C3 },
                m,
                h,
                k,
                expected_nodes: m.pow(h as u32) + k,
                measured_nodes: ft.node_count(),
                degree_bound,
                measured_degree: ft.graph().max_degree(),
            });
        }
    }
    rows
}

/// Sweeps the Section V bus-degree bound `2k + 3`.
pub fn sweep_bus(hs: &[usize], ks: &[usize]) -> Vec<CorollaryRow> {
    let mut rows = Vec::new();
    for &h in hs {
        for &k in ks {
            let arch = BusArchitecture::new(h, k);
            rows.push(CorollaryRow {
                corollary: Corollary::Bus,
                m: 2,
                h,
                k,
                expected_nodes: (1 << h) + k,
                measured_nodes: arch.node_count(),
                degree_bound: 2 * k + 3,
                measured_degree: arch.max_bus_degree(),
            });
        }
    }
    rows
}

/// Renders a corollary sweep as a [`TextTable`].
pub fn render_corollaries(title: &str, rows: &[CorollaryRow]) -> TextTable {
    let mut table = TextTable::new(
        title,
        &[
            "corollary",
            "m",
            "h",
            "k",
            "nodes",
            "degree bound",
            "degree measured",
            "holds",
        ],
    );
    for r in rows {
        table.push_row(vec![
            format!("{:?}", r.corollary),
            r.m.to_string(),
            r.h.to_string(),
            r.k.to_string(),
            format!("{}/{}", r.measured_nodes, r.expected_nodes),
            r.degree_bound.to_string(),
            r.measured_degree.to_string(),
            if r.holds() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table
}

/// One row of the THM1/THM2 tolerance-verification sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ToleranceRow {
    /// Base of the target graph.
    pub m: usize,
    /// Digits of the target graph.
    pub h: usize,
    /// Fault budget (and fault-set size checked).
    pub k: usize,
    /// Number of fault sets enumerated (0 for a certified row).
    pub checked: u64,
    /// Whether every fault set admitted a valid reconfiguration.
    pub tolerant: bool,
    /// Whether every fault set was enumerated (`false` = decided by
    /// [`certify`], which enumerates none).
    pub exhaustive: bool,
}

/// Verifies Theorem 1/2 for each parameter triple, exhaustively when
/// `C(m^h + k, k)` does not exceed `exhaustive_limit` and by [`certify`]
/// otherwise.
pub fn tolerance_sweep(
    params: &[(usize, usize, usize)],
    exhaustive_limit: u128,
    threads: usize,
) -> Vec<ToleranceRow> {
    params
        .iter()
        .map(|&(m, h, k)| {
            let (target, host): (ftdb_graph::Graph, ftdb_graph::Graph) = if m == 2 {
                let ft = FtDeBruijn2::new(h, k);
                (ft.target().graph().clone(), ft.graph().clone())
            } else {
                let ft = FtDeBruijnM::new(m, h, k);
                (ft.target().graph().clone(), ft.graph().clone())
            };
            let combos = ftdb_core::fault::Combinations::total(host.node_count(), k);
            let exhaustive = combos <= exhaustive_limit;
            let (checked, tolerant) = if exhaustive {
                let report = verify_exhaustive(&target, &host, k, threads);
                (report.checked, report.is_tolerant())
            } else {
                (0, certify(&target, &host, k).is_ok())
            };
            ToleranceRow {
                m,
                h,
                k,
                checked,
                tolerant,
                exhaustive,
            }
        })
        .collect()
}

/// Renders the tolerance sweep as a [`TextTable`].
pub fn render_tolerance(rows: &[ToleranceRow]) -> TextTable {
    let mut table = TextTable::new(
        "THM1-2: (k,G)-tolerance verification",
        &["m", "h", "k", "fault sets checked", "mode", "tolerant"],
    );
    for r in rows {
        table.push_row(vec![
            r.m.to_string(),
            r.h.to_string(),
            r.k.to_string(),
            r.checked.to_string(),
            if r.exhaustive {
                "exhaustive"
            } else {
                "certified"
            }
            .to_string(),
            if r.tolerant { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base2_sweep_all_hold() {
        let rows = sweep_base2(&[3, 4, 5], &[0, 1, 2, 3]);
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().all(CorollaryRow::holds));
        assert!(rows.iter().any(|r| r.corollary == Corollary::C2));
    }

    #[test]
    fn base_m_sweep_all_hold() {
        let rows = sweep_base_m(&[(3, 3), (4, 2), (5, 2)], &[1, 2]);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(CorollaryRow::holds));
        assert!(rows.iter().any(|r| r.corollary == Corollary::C4));
        assert!(rows.iter().any(|r| r.corollary == Corollary::C3));
    }

    #[test]
    fn bus_sweep_all_hold() {
        let rows = sweep_bus(&[3, 4, 5], &[0, 1, 2]);
        assert!(rows.iter().all(CorollaryRow::holds));
    }

    #[test]
    fn render_marks_everything_yes() {
        let rows = sweep_base2(&[3], &[1]);
        let table = render_corollaries("COR", &rows);
        let text = table.render();
        assert!(text.contains("yes"));
        assert!(!text.contains("NO"));
    }

    #[test]
    fn tolerance_sweep_small_instances_exhaustive() {
        let rows = tolerance_sweep(&[(2, 3, 1), (2, 3, 2), (3, 3, 1)], 100_000, 2);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.tolerant));
        assert!(rows.iter().all(|r| r.exhaustive));
        assert_eq!(rows[0].checked, 9);
    }

    #[test]
    fn tolerance_sweep_falls_back_to_certificate() {
        // C(67, 3) = 47,905 fault sets exceed the limit of 100: the row is
        // certified, enumerates nothing, and agrees with the enumeration.
        let rows = tolerance_sweep(&[(2, 6, 3)], 100, 2);
        assert!(!rows[0].exhaustive);
        assert_eq!(rows[0].checked, 0);
        assert!(rows[0].tolerant);
        let table = render_tolerance(&rows);
        assert!(table.render().contains("certified"));
        let enumerated = tolerance_sweep(&[(2, 6, 3)], u128::MAX, 2);
        assert!(enumerated[0].exhaustive && enumerated[0].tolerant);
        assert_eq!(enumerated[0].checked, 47_905);
    }
}
