//! The Samatham–Pradhan baseline construction used in the paper's
//! comparison.
//!
//! Samatham and Pradhan \[12\] also obtain fault-tolerant de Bruijn graphs in
//! Hayes's model, but instead of adding `k` spare nodes they select a
//! *larger de Bruijn graph* as the fault-tolerant graph. Quoting the paper's
//! introduction: for a base-2 target with `N` nodes their construction has
//! `N^{log_2(2(k+1))}` nodes and degree `4k + 2`; for a base-m target it has
//! `N^{log_m(m(k+1))}` nodes and degree `2mk + 2`.
//!
//! Concretely, the larger graph is the de Bruijn graph of base `m(k+1)` with
//! the same number of digits: `B_{m(k+1), h}`, which indeed has
//! `(m(k+1))^h = N^{log_m(m(k+1))}` nodes. Its exact degree is at most
//! `2m(k+1)` (the paper's quoted `2mk + 2` counts the directed out-links
//! plus two). This module provides
//!
//! * closed-form node/degree figures for the comparison tables (TAB1/TAB2),
//!   without materialising the astronomically large graphs, and
//! * an explicit construction plus a digit-wise embedding
//!   `B_{m,h} ⊆ B_{M,h}` (for `M ≥ m`) so the containment underlying the
//!   baseline can be verified on small instances.

use ftdb_graph::Embedding;
use ftdb_topology::labels::{from_digits, to_digits};
use ftdb_topology::DeBruijnM;

/// Closed-form description of the Samatham–Pradhan fault-tolerant graph for
/// a base-m, h-digit target tolerating `k` faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpBaseline {
    /// Base of the target de Bruijn graph.
    pub m: usize,
    /// Number of digits of the target.
    pub h: usize,
    /// Number of faults tolerated.
    pub k: usize,
}

impl SpBaseline {
    /// Creates the description.
    pub fn new(m: usize, h: usize, k: usize) -> Self {
        assert!(m >= 2 && h >= 1);
        SpBaseline { m, h, k }
    }

    /// The base of the larger de Bruijn graph the scheme selects,
    /// `m(k + 1)`.
    fn host_base(&self) -> usize {
        self.m * (self.k + 1)
    }

    /// Number of nodes of the target graph, `m^h`.
    pub fn target_nodes(&self) -> u128 {
        (self.m as u128).pow(self.h as u32)
    }

    /// Number of nodes of the fault-tolerant graph, `(m(k+1))^h`
    /// (`= N^{log_m(m(k+1))}`).
    pub fn nodes(&self) -> u128 {
        (self.host_base() as u128).pow(self.h as u32)
    }

    /// The degree figure the paper quotes for this baseline
    /// (`4k + 2` for base 2, `2mk + 2` in general).
    pub fn quoted_degree(&self) -> usize {
        2 * self.m * self.k + 2
    }

    /// The redundancy ratio `nodes / target_nodes` — the factor by which the
    /// baseline over-provisions, to contrast with the paper's `(N + k) / N`.
    pub fn redundancy_ratio(&self) -> f64 {
        self.nodes() as f64 / self.target_nodes() as f64
    }

    /// Materialises the host graph `B_{m(k+1), h}`. Only sensible for small
    /// parameters; the comparison tables use the closed forms instead.
    pub fn construct(&self) -> DeBruijnM {
        DeBruijnM::new(self.host_base(), self.h)
    }
}

/// The digit-wise embedding of `B_{m,h}` into `B_{M,h}` for `M ≥ m`:
/// a node keeps its digit string, which is simply re-read in base `M`.
/// Every de Bruijn edge (drop a digit at one end, append at the other) is
/// preserved verbatim, so this is an embedding — the structural fact that
/// makes "use a bigger de Bruijn graph" a meaningful fault-tolerance scheme.
pub fn embed_smaller_base(m: usize, big_base: usize, h: usize) -> Embedding {
    assert!(2 <= m && m <= big_base, "need 2 <= m <= M");
    let small = ftdb_topology::labels::pow_nodes(m, h);
    let map = (0..small)
        .map(|x| from_digits(&to_digits(x, m, h), big_base))
        .collect();
    Embedding::from_map(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn closed_forms_match_paper_quotes_base2() {
        // Base-2 target, k = 1: host base 4, N^{log_2 4} = N^2 nodes.
        let sp = SpBaseline::new(2, 4, 1);
        assert_eq!(sp.host_base(), 4);
        assert_eq!(sp.target_nodes(), 16);
        assert_eq!(sp.nodes(), 256); // 16^2
        assert_eq!(sp.quoted_degree(), 6); // 4k + 2
        assert!((sp.redundancy_ratio() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn closed_forms_match_paper_quotes_base_m() {
        let sp = SpBaseline::new(3, 3, 2);
        assert_eq!(sp.host_base(), 9);
        assert_eq!(sp.nodes(), 729);
        assert_eq!(sp.quoted_degree(), 2 * 3 * 2 + 2);
    }

    #[test]
    fn node_count_equals_power_formula() {
        // nodes = N^{log_m(m(k+1))} — check via logarithms.
        for (m, h, k) in [(2, 5, 1), (2, 6, 3), (3, 4, 1), (4, 3, 2)] {
            let sp = SpBaseline::new(m, h, k);
            let n = sp.target_nodes() as f64;
            let expected = n.powf((sp.host_base() as f64).ln() / (m as f64).ln());
            let actual = sp.nodes() as f64;
            assert!(
                (expected - actual).abs() / actual < 1e-9,
                "m={m}, h={h}, k={k}: {expected} vs {actual}"
            );
        }
    }

    #[test]
    fn explicit_construction_has_expected_size() {
        let sp = SpBaseline::new(2, 3, 1);
        let host = sp.construct();
        assert_eq!(host.node_count() as u128, sp.nodes());
        // The host B_{m(k+1), h} has degree at most 2·m(k+1).
        assert!(host.graph().max_degree() <= 2 * sp.host_base());
    }

    #[test]
    fn digit_embedding_is_valid_for_small_cases() {
        for (m, big, h) in [(2, 3, 3), (2, 4, 3), (3, 4, 2), (2, 6, 2), (3, 9, 2)] {
            let small = DeBruijnM::new(m, h);
            let large = DeBruijnM::new(big, h);
            let sigma = embed_smaller_base(m, big, h);
            sigma
                .verify(small.graph(), large.graph())
                .unwrap_or_else(|e| panic!("m={m}, M={big}, h={h}: {e}"));
        }
    }

    #[test]
    fn baseline_containment_end_to_end() {
        // The containment that makes the baseline work: B_{2,3} embeds in the
        // Samatham–Pradhan host for k = 1 (which is B_{4,3}).
        let sp = SpBaseline::new(2, 3, 1);
        let target = DeBruijnM::new(2, 3);
        let host = sp.construct();
        let sigma = embed_smaller_base(2, sp.host_base(), 3);
        sigma.verify(target.graph(), host.graph()).unwrap();
    }

    proptest! {
        /// Our construction always uses vastly fewer nodes than the baseline
        /// (for every k ≥ 1), while the degree gap stays bounded by 2.
        #[test]
        fn ours_always_smaller(mp in 2usize..5, h in 3usize..7, k in 1usize..5) {
            let sp = SpBaseline::new(mp, h, k);
            let ours_nodes = sp.target_nodes() + k as u128;
            prop_assert!(ours_nodes < sp.nodes());
            // Degree comparison: ours 4(m-1)k + 2m vs theirs 2mk + 2 (quoted);
            // the gap is exactly 2k(m-2) + 2(m-1), i.e. "only slightly larger".
            let ours_degree = 4 * (mp - 1) * k + 2 * mp;
            let gap = ours_degree as i64 - sp.quoted_degree() as i64;
            prop_assert_eq!(gap, (2 * k * (mp - 2) + 2 * (mp - 1)) as i64);
        }
    }
}
