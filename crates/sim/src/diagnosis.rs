//! System-level fault diagnosis: detect the fault set before reconfiguring.
//!
//! The paper assumes the fault set is known ("given any set of k node
//! faults …"); a real machine has to *find* it first. This module provides
//! the missing operational step under a crash-fault model: every healthy
//! processor probes its neighbours once per round, a processor that fails to
//! answer any healthy neighbour is flagged, and the flags are aggregated
//! into the global fault set that the reconfiguration algorithm consumes.
//! Because the fault-tolerant graphs are connected and have minimum degree
//! well above `k`, every faulty processor has at least one healthy
//! neighbour, so one probing round suffices for complete diagnosis whenever
//! at most `k < min-degree` processors have crashed.
//!
//! [`detect_reconfigure_resume`] chains the whole recovery pipeline:
//! diagnose → reconfigure (rank map) → verify → re-run the Ascend all-reduce
//! — the end-to-end path a machine built on these constructions would take
//! after a crash.

use crate::ascend_descend::allreduce_shuffle_exchange;
use crate::machine::{PhysicalMachine, SimError};
use ftdb_core::{FaultSet, FtShuffleExchange};
use ftdb_graph::embedding::EmbeddingError;
use ftdb_graph::{Embedding, NodeId};
use ftdb_topology::ShuffleExchange;

/// The outcome of one probing-based diagnosis pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiagnosisReport {
    /// The fault set as diagnosed by the healthy processors.
    pub diagnosed: FaultSet,
    /// Number of probe messages sent (one per direction of each link with a
    /// healthy prober).
    pub probes_sent: usize,
    /// Faulty processors that no healthy neighbour could observe (possible
    /// only if faults isolate a node, which cannot happen for `k` below the
    /// minimum degree).
    pub unobserved: Vec<NodeId>,
}

impl DiagnosisReport {
    /// `true` if the diagnosis matches the machine's actual fault set.
    pub fn is_complete_and_correct(&self, actual: &FaultSet) -> bool {
        self.unobserved.is_empty()
            && self.diagnosed.len() == actual.len()
            && actual.iter().all(|f| self.diagnosed.contains(f))
    }
}

/// Runs one probing round on the machine and returns the diagnosed fault
/// set. Healthy processors probe every neighbour; a processor is flagged
/// faulty iff it is actually crashed and at least one healthy neighbour
/// probed it (crash faults cannot lie, so there are no false positives).
pub fn diagnose(machine: &PhysicalMachine) -> DiagnosisReport {
    let g = machine.graph();
    let mut diagnosed = FaultSet::empty(g.node_count());
    let mut observed = vec![false; g.node_count()];
    let mut probes_sent = 0;
    for prober in g.nodes() {
        if !machine.is_healthy(prober) {
            continue;
        }
        for &target in g.neighbors(prober) {
            let target = target as usize;
            probes_sent += 1;
            observed[target] = true;
            if !machine.is_healthy(target) {
                diagnosed.add(target);
            }
        }
    }
    let unobserved = machine.faults().iter().filter(|&f| !observed[f]).collect();
    DiagnosisReport {
        diagnosed,
        probes_sent,
        unobserved,
    }
}

/// Summary of the full detect → reconfigure → resume pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// The diagnosis step's report.
    pub diagnosis: DiagnosisReport,
    /// Steps taken by the resumed Ascend all-reduce.
    pub resumed_steps: usize,
    /// The all-reduce total computed after recovery.
    pub total: u64,
}

/// Runs the complete recovery pipeline on a fault-tolerant shuffle-exchange
/// machine whose actual fault set is `actual_faults`:
///
/// 1. probe-based diagnosis on the physical machine,
/// 2. rank-based reconfiguration from the *diagnosed* fault set,
/// 3. verification of the resulting embedding, and
/// 4. a full Ascend all-reduce over the logical shuffle-exchange.
///
/// Returns an error if any stage fails:
/// [`SimError::SizeMismatch`] when `actual_faults` is not over the
/// machine's nodes or `values` does not hold one value per logical node,
/// [`SimError::FaultBudgetExceeded`] when more than `k` processors are
/// diagnosed faulty, [`SimError::ReconfigurationFailed`] when the embedding
/// fails verification (it cannot, for at most `k` faults), and the
/// all-reduce's own error when a step finds no link.
pub fn detect_reconfigure_resume(
    ft: &FtShuffleExchange,
    actual_faults: &FaultSet,
    values: &[u64],
) -> Result<RecoveryOutcome, SimError> {
    recover_through(ft, actual_faults, values, |faults| {
        ft.reconfigure_verified(faults)
    })
}

/// [`detect_reconfigure_resume`] with its reconfigure-and-verify step
/// passed in, so that a test can make the verification fail.
fn recover_through(
    ft: &FtShuffleExchange,
    actual_faults: &FaultSet,
    values: &[u64],
    reconfigure_verified: impl FnOnce(&FaultSet) -> Result<Embedding, EmbeddingError>,
) -> Result<RecoveryOutcome, SimError> {
    if actual_faults.universe() != ft.node_count() {
        return Err(SimError::SizeMismatch {
            what: "fault set",
            expected: ft.node_count(),
            got: actual_faults.universe(),
        });
    }
    let machine = PhysicalMachine::with_faults(
        ft.graph().clone(),
        actual_faults.clone(),
        crate::machine::PortModel::MultiPort,
    );
    let diagnosis = diagnose(&machine);
    // Reconfigure from what was *diagnosed*, not from ground truth; past
    // the budget the reconfiguration would panic.
    let faults = diagnosis.diagnosed.len();
    if faults > ft.k() {
        return Err(SimError::FaultBudgetExceeded {
            faults,
            budget: ft.k(),
        });
    }
    let placement = reconfigure_verified(&diagnosis.diagnosed)
        .map_err(|_| SimError::ReconfigurationFailed { faults })?;
    let se = ShuffleExchange::new(ft.h());
    let out = allreduce_shuffle_exchange(&se, &placement, &machine, values)?;
    Ok(RecoveryOutcome {
        diagnosis,
        resumed_steps: out.steps,
        total: out.values[0],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::PortModel;
    use crate::workload;
    use ftdb_core::FtDeBruijn2;
    use rand::SeedableRng;

    #[test]
    fn healthy_machine_diagnoses_nothing() {
        let ft = FtDeBruijn2::new(4, 2);
        let machine = PhysicalMachine::new(ft.graph().clone(), PortModel::MultiPort);
        let report = diagnose(&machine);
        assert!(report.diagnosed.is_empty());
        assert!(report.unobserved.is_empty());
        assert_eq!(report.probes_sent, 2 * ft.graph().edge_count());
    }

    #[test]
    fn crashed_processors_are_found_exactly() {
        let ft = FtDeBruijn2::new(4, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..25 {
            let actual =
                FaultSet::random(ft.node_count(), 3, &mut rng).expect("k within node count");
            let machine = PhysicalMachine::with_faults(
                ft.graph().clone(),
                actual.clone(),
                PortModel::MultiPort,
            );
            let report = diagnose(&machine);
            assert!(report.is_complete_and_correct(&actual));
        }
    }

    #[test]
    fn diagnosis_never_reports_false_positives() {
        let ft = FtDeBruijn2::new(5, 2);
        let actual = FaultSet::from_nodes(ft.node_count(), [4, 19]);
        let machine =
            PhysicalMachine::with_faults(ft.graph().clone(), actual.clone(), PortModel::MultiPort);
        let report = diagnose(&machine);
        assert_eq!(report.diagnosed.iter().collect::<Vec<_>>(), vec![4, 19]);
    }

    #[test]
    fn full_recovery_pipeline_restores_the_computation() {
        let h = 4;
        let k = 2;
        let ft = FtShuffleExchange::new(h, k).unwrap();
        let values = workload::index_values(1 << h);
        let expected: u64 = values.iter().sum();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for _ in 0..10 {
            let actual =
                FaultSet::random(ft.node_count(), k, &mut rng).expect("k within node count");
            let outcome = detect_reconfigure_resume(&ft, &actual, &values)
                .expect("recovery pipeline must succeed for <= k crashes");
            assert!(outcome.diagnosis.is_complete_and_correct(&actual));
            assert_eq!(outcome.resumed_steps, 2 * h);
            assert_eq!(outcome.total, expected);
        }
    }

    #[test]
    fn pipeline_rejects_more_faults_than_the_budget() {
        let ft = FtShuffleExchange::new(4, 1).unwrap();
        let actual = FaultSet::from_nodes(ft.node_count(), [3, 9]);
        let values = workload::index_values(16);
        assert_eq!(
            detect_reconfigure_resume(&ft, &actual, &values),
            Err(SimError::FaultBudgetExceeded {
                faults: 2,
                budget: 1
            })
        );
    }

    #[test]
    fn pipeline_reports_a_failed_verification() {
        // Verify the placement against a host that has lost every link.
        let ft = FtShuffleExchange::new(4, 2).unwrap();
        let actual = FaultSet::from_nodes(ft.node_count(), [5]);
        let values = workload::index_values(16);
        let unlinked = ftdb_graph::GraphBuilder::new(ft.node_count()).build();
        let outcome = recover_through(&ft, &actual, &values, |faults| {
            let phi = ft.reconfigure(faults);
            phi.verify(ft.target().graph(), &unlinked).map(|()| phi)
        });
        assert_eq!(outcome, Err(SimError::ReconfigurationFailed { faults: 1 }));
    }

    #[test]
    fn pipeline_rejects_values_not_one_per_logical_node() {
        let ft = FtShuffleExchange::new(4, 1).unwrap();
        let actual = FaultSet::from_nodes(ft.node_count(), [3]);
        assert_eq!(
            detect_reconfigure_resume(&ft, &actual, &[1, 2, 3]),
            Err(SimError::SizeMismatch {
                what: "values",
                expected: 16,
                got: 3
            })
        );
    }

    #[test]
    fn pipeline_rejects_a_fault_set_over_another_machine() {
        let ft = FtShuffleExchange::new(4, 1).unwrap();
        let actual = FaultSet::from_nodes(40, [3]);
        let values = workload::index_values(16);
        assert_eq!(
            detect_reconfigure_resume(&ft, &actual, &values),
            Err(SimError::SizeMismatch {
                what: "fault set",
                expected: ft.node_count(),
                got: 40
            })
        );
    }

    #[test]
    fn pipeline_with_no_faults_is_a_noop_recovery() {
        let ft = FtShuffleExchange::new(3, 1).unwrap();
        let values = workload::index_values(8);
        let outcome =
            detect_reconfigure_resume(&ft, &FaultSet::empty(ft.node_count()), &values).unwrap();
        assert!(outcome.diagnosis.diagnosed.is_empty());
        assert_eq!(outcome.total, values.iter().sum::<u64>());
    }
}
