//! Acceptance tests for bounded-buffer credit flow control and the
//! offered-load sweep machinery: saturation *collapse* on the faulted,
//! reconfigured `B^1(2,8)` under credit flow control versus the flat
//! plateau of infinite buffers, plus the open-loop conservation and
//! latency-monotonicity properties on `B(2,5)`.

use ftdb_analysis::sim_experiments::{sim5_load_sweep, SweepScenario};
use ftdb_graph::Embedding;
use ftdb_sim::congestion::{
    measure_open_loop, CongestionConfig, CongestionSim, FlowControl, OpenLoopReport,
};
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::workload::{self, InjectionProcess, OpenLoopSpec};
use ftdb_topology::DeBruijn2;

const SWEEP_LOADS: [f64; 4] = [0.05, 0.2, 0.5, 0.9];
const SWEEP_SEED: u64 = 0xF7DB;

fn faulted_b128_scenario(flow: FlowControl) -> SweepScenario {
    SweepScenario {
        h: 8,
        k: 1,
        fault_count: 1,
        port: PortModel::MultiPort,
        flow,
    }
}

fn peak_throughput(points: &[OpenLoopReport]) -> f64 {
    points.iter().map(|p| p.throughput).fold(0.0, f64::max)
}

#[test]
fn infinite_buffers_plateau_flat_past_saturation_on_faulted_b1_2_8() {
    let points = sim5_load_sweep(
        &faulted_b128_scenario(FlowControl::Infinite),
        &SWEEP_LOADS,
        SWEEP_SEED,
        1,
    );
    assert!(
        points.iter().all(|p| !p.deadlocked),
        "unbounded queues cannot deadlock"
    );
    let peak = peak_throughput(&points);
    let end = points.last().expect("nonempty sweep").throughput;
    // The de Bruijn fabric saturates around 0.24 packets/node/cycle here;
    // past saturation the delivered rate must stay flat, not collapse.
    assert!(peak > 0.2, "sweep must reach saturation (peak {peak})");
    assert!(
        end >= 0.9 * peak,
        "infinite buffers must plateau: peak {peak}, at max load {end}"
    );
}

#[test]
fn credit_flow_shows_saturation_collapse_on_faulted_b1_2_8() {
    // The acceptance shape for every depth in 1..=4: delivered throughput
    // at the highest offered load collapses to a fraction of the infinite
    // plateau — where Infinite keeps delivering at capacity, bounded
    // buffers fall over (tree saturation / buffer deadlock).
    let infinite_end = sim5_load_sweep(
        &faulted_b128_scenario(FlowControl::Infinite),
        &[*SWEEP_LOADS.last().expect("nonempty")],
        SWEEP_SEED,
        1,
    )[0]
    .throughput;
    let by_depth: Vec<Vec<OpenLoopReport>> = (1..=4u32)
        .map(|buffer_depth| {
            sim5_load_sweep(
                &faulted_b128_scenario(FlowControl::CreditBased { buffer_depth }),
                &SWEEP_LOADS,
                SWEEP_SEED,
                1,
            )
        })
        .collect();
    let first_dead =
        |ps: &[OpenLoopReport]| ps.iter().position(|p| p.deadlocked).unwrap_or(ps.len());
    for (points, buffer_depth) in by_depth.iter().zip(1u32..) {
        let end = points.last().expect("nonempty sweep");
        assert!(
            end.throughput < 0.5 * infinite_end,
            "depth {buffer_depth}: overload throughput {} did not collapse \
             (infinite plateau {infinite_end})",
            end.throughput
        );
        assert!(
            end.deadlocked || end.accepted < 0.5,
            "depth {buffer_depth}: collapse must come from blocked buffers \
             (deadlocked={}, accepted={})",
            end.deadlocked,
            end.accepted
        );
        // Deeper buffers survive at least as far up the load axis as
        // shallower ones before their first deadlocked point.
        if buffer_depth >= 2 {
            let shallower = &by_depth[(buffer_depth - 2) as usize];
            assert!(
                first_dead(points) >= first_dead(shallower),
                "depth {buffer_depth} must not deadlock earlier than depth {}",
                buffer_depth - 1
            );
        }
    }
    // Depth 4 additionally shows the classic rollover: it rises to a real
    // operating region first (throughput tracks a pre-collapse load).
    let depth4 = &by_depth[3];
    let peak = peak_throughput(depth4);
    assert!(
        peak > 0.15,
        "depth 4 must saturate before collapsing (peak {peak})"
    );
    assert!(depth4.last().expect("nonempty").throughput < 0.5 * peak);
}

fn b25_open_loop(offered_load: f64, buffer_depth: u32, seed: u64) -> OpenLoopReport {
    let db = DeBruijn2::new(5);
    let n = db.node_count();
    let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
    let config = CongestionConfig {
        flow_control: if buffer_depth == 0 {
            FlowControl::Infinite
        } else {
            FlowControl::CreditBased { buffer_depth }
        },
        ..CongestionConfig::default()
    };
    let spec = OpenLoopSpec {
        offered_load,
        process: InjectionProcess::Bernoulli,
        warmup_cycles: 80,
        measure_cycles: 160,
        drain_cycles: 240,
        seed,
    };
    let mut sim = CongestionSim::new(machine, config);
    let injections = workload::open_loop_injections(n, &spec);
    sim.load_oblivious_timed(&db, &Embedding::identity(n), &injections);
    measure_open_loop(&mut sim, &spec)
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(16))]

    /// For any offered load and buffer depth >= 1, delivered throughput
    /// never exceeds offered load: exactly in cumulative terms (causality:
    /// nothing is delivered before it is injected), and up to boundary
    /// noise in windowed terms.
    #[test]
    fn delivered_throughput_never_exceeds_offered_load(
        offered_permille in 50u64..1000,
        depth in 1u32..5,
        seed in 0u64..500,
    ) {
        let report = b25_open_loop(offered_permille as f64 / 1000.0, depth, seed);
        proptest::prop_assert!(
            report.cum_delivered_by_window_end <= report.cum_injected_by_window_end
        );
        proptest::prop_assert!(report.window_delivered <= report.window_injected);
        proptest::prop_assert!(
            report.throughput <= report.offered_realized + 0.05,
            "windowed throughput {} above realized offered load {}",
            report.throughput,
            report.offered_realized
        );
    }

    /// Mean latency is monotonically non-decreasing in offered load on
    /// B(2,5) at well-separated sample points, for every buffer depth. The
    /// Bernoulli schedules at one seed are coupled (higher load = superset
    /// of injections with identical destinations), so this is a like-for-
    /// like comparison. Points past the collapse (accepted < 0.9) are
    /// treated as "latency -> infinity": accepted must not recover at
    /// higher loads, and latency comparison applies to pre-collapse points.
    #[test]
    fn latency_is_monotone_in_offered_load(depth in 1u32..5, seed in 0u64..200) {
        let loads = [0.1, 0.4, 0.8];
        let reports: Vec<OpenLoopReport> =
            loads.iter().map(|&p| b25_open_loop(p, depth, seed)).collect();
        let mut last_mean = 0.0f64;
        let mut collapsed = false;
        for (report, &load) in reports.iter().zip(&loads) {
            if collapsed {
                proptest::prop_assert!(
                    report.accepted < 0.95,
                    "depth {}: accepted recovered to {} at load {} after a collapse",
                    depth, report.accepted, load
                );
                continue;
            }
            if report.accepted < 0.9 {
                collapsed = true;
                continue;
            }
            proptest::prop_assert!(
                report.latency.mean >= 0.95 * last_mean,
                "depth {}: mean latency fell from {} to {} at load {}",
                depth, last_mean, report.latency.mean, load
            );
            last_mean = report.latency.mean;
        }
    }
}
