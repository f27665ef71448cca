//! Timing model for the Section V bus implementation.
//!
//! Section V argues:
//!
//! * replacing the two forward links of each node by one bus costs
//!   "approximately a factor of 2" **if** each processor could previously
//!   send two different values in unit time (multi-port), and
//! * "little or no slowdown" **if** each processor can send only one value
//!   per unit time anyway (single-port), because the serialisation was
//!   already there.
//!
//! This module models one communication *superstep* of a de Bruijn-style
//! computation in which every node must deliver one distinct value to each
//! of its `fanout` forward partners (2 for the plain de Bruijn graph,
//! `2k + 2` for `B^k_{2,h}`), and counts unit-time slots under three
//! implementations: multi-port point-to-point, single-port point-to-point,
//! and the shared bus. The numbers reproduce the paper's factor-of-2 claim
//! exactly.

use crate::machine::PortModel;

/// The interconnect implementation being timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interconnect {
    /// Dedicated point-to-point links with the given port model.
    PointToPoint(PortModel),
    /// One shared bus per node (Section V): a single value can cross the bus
    /// per time slot, regardless of the port model.
    Bus,
}

/// Number of unit-time slots needed for every node to send `distinct_values`
/// different values to distinct forward partners, repeated for
/// `supersteps` supersteps.
pub fn slots_needed(
    interconnect: Interconnect,
    distinct_values: usize,
    supersteps: usize,
) -> usize {
    let per_step = match interconnect {
        Interconnect::PointToPoint(PortModel::MultiPort) => usize::from(distinct_values > 0),
        Interconnect::PointToPoint(PortModel::SinglePort) => distinct_values,
        Interconnect::Bus => distinct_values,
    };
    per_step * supersteps
}

/// The slowdown of the bus implementation relative to point-to-point links
/// under the given port model, for a workload where every node sends
/// `distinct_values` distinct values per superstep.
///
/// Returns 1.0 when the point-to-point baseline needs zero slots.
pub fn bus_slowdown(port_model: PortModel, distinct_values: usize) -> f64 {
    let p2p = slots_needed(Interconnect::PointToPoint(port_model), distinct_values, 1);
    let bus = slots_needed(Interconnect::Bus, distinct_values, 1);
    if p2p == 0 {
        1.0
    } else {
        bus as f64 / p2p as f64
    }
}

/// A row of the SIM2 table: one fanout / port-model combination.
#[derive(Clone, Debug, PartialEq)]
pub struct BusTimingRow {
    /// Number of distinct values each node must send per superstep.
    pub fanout: usize,
    /// Slots per superstep with multi-port point-to-point links.
    pub p2p_multi_port: usize,
    /// Slots per superstep with single-port point-to-point links.
    pub p2p_single_port: usize,
    /// Slots per superstep with the shared bus.
    pub bus: usize,
    /// Bus slowdown vs the multi-port baseline.
    pub slowdown_vs_multi_port: f64,
    /// Bus slowdown vs the single-port baseline.
    pub slowdown_vs_single_port: f64,
}

/// Builds the SIM2 table rows for the given fanouts.
pub fn bus_timing_table(fanouts: &[usize]) -> Vec<BusTimingRow> {
    fanouts
        .iter()
        .map(|&fanout| BusTimingRow {
            fanout,
            p2p_multi_port: slots_needed(
                Interconnect::PointToPoint(PortModel::MultiPort),
                fanout,
                1,
            ),
            p2p_single_port: slots_needed(
                Interconnect::PointToPoint(PortModel::SinglePort),
                fanout,
                1,
            ),
            bus: slots_needed(Interconnect::Bus, fanout, 1),
            slowdown_vs_multi_port: bus_slowdown(PortModel::MultiPort, fanout),
            slowdown_vs_single_port: bus_slowdown(PortModel::SinglePort, fanout),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn de_bruijn_fanout_two_matches_the_paper() {
        // Two distinct values per step (the plain de Bruijn forward links):
        // bus is 2x slower than multi-port, but no slower than single-port.
        assert_eq!(bus_slowdown(PortModel::MultiPort, 2), 2.0);
        assert_eq!(bus_slowdown(PortModel::SinglePort, 2), 1.0);
    }

    #[test]
    fn ft_graph_after_reconfiguration_still_sends_two_values() {
        // In B^k_{2,h} each node owns one bus spanning 2k+2 nodes, but after
        // reconfiguration it still only sends 2 *distinct* values per
        // superstep (to its two logical de Bruijn successors), so the bus
        // slowdown remains ≈ 2 independent of k — the paper's claim.
        for _k in 0..5 {
            let distinct_values_after_reconfiguration = 2;
            assert_eq!(
                bus_slowdown(PortModel::MultiPort, distinct_values_after_reconfiguration),
                2.0
            );
            assert_eq!(
                bus_slowdown(PortModel::SinglePort, distinct_values_after_reconfiguration),
                1.0
            );
        }
    }

    #[test]
    fn slowdown_grows_only_with_distinct_values_sent() {
        // The general law of the model: bus cost tracks the number of
        // distinct values a node injects, not the width of its bus.
        for values in 1..8 {
            assert_eq!(bus_slowdown(PortModel::MultiPort, values), values as f64);
            assert_eq!(bus_slowdown(PortModel::SinglePort, values), 1.0);
        }
    }

    #[test]
    fn slots_scale_linearly_with_supersteps() {
        assert_eq!(
            slots_needed(Interconnect::PointToPoint(PortModel::MultiPort), 2, 10),
            10
        );
        assert_eq!(slots_needed(Interconnect::Bus, 2, 10), 20);
        assert_eq!(
            slots_needed(Interconnect::PointToPoint(PortModel::SinglePort), 2, 10),
            20
        );
        assert_eq!(slots_needed(Interconnect::Bus, 0, 10), 0);
    }

    #[test]
    fn timing_table_has_expected_shape() {
        let table = bus_timing_table(&[2, 4, 6]);
        assert_eq!(table.len(), 3);
        assert_eq!(table[0].bus, 2);
        assert_eq!(table[0].p2p_multi_port, 1);
        assert_eq!(table[2].fanout, 6);
        assert_eq!(table[2].slowdown_vs_single_port, 1.0);
    }

    #[test]
    fn zero_fanout_is_benign() {
        assert_eq!(bus_slowdown(PortModel::MultiPort, 0), 1.0);
        assert_eq!(bus_slowdown(PortModel::SinglePort, 0), 1.0);
    }
}
