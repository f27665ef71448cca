//! Monte-Carlo reliability engine: delivery-probability and
//! expected-slowdown curves under randomized node, directed-link and
//! correlated-burst faults.
//!
//! The paper's constructions guarantee *reconfigurability* under at most
//! `k` faults; this module measures what traffic actually experiences when
//! faults strike **mid-run** and the engine answers with adaptive
//! re-routing. For each probability `p` in a grid and each fault model, it
//! runs thousands of seeded trials on `B(2,h)`: a random permutation
//! workload injects at cycle 0, the drawn fault set fires at a fixed kill
//! cycle, and the run drains. Two curves come out, with 95% confidence
//! intervals:
//!
//! * **delivery probability** — packets delivered / injected, pooled over
//!   all trials of the point, with a Wilson score interval;
//! * **expected slowdown** — the per-trial ratio of faulted to healthy mean
//!   delivered latency (same workload, same engine), summarised as mean ±
//!   1.96·sd/√m over the trials that delivered anything.
//!
//! Determinism is load-bearing (the CI reliability-determinism job diffs
//! runs at different `--threads` and `--shards`): every trial derives its
//! seeds from the root seed and the *trial index* via SplitMix64, workers
//! process contiguous trial chunks, and results merge in trial order, so
//! the output is byte-identical for any thread count. The fault coins for
//! a trial are shared across the whole `p` grid (one coin per element,
//! compared against each `p`), so a trial's fault sets are *nested* as `p`
//! grows and the curves are monotone draw-by-draw, not just in
//! expectation.

use crate::report::TextTable;
use ftdb_core::parallel::fan_out;
use ftdb_core::LinkFaultSet;
use ftdb_graph::Embedding;
use ftdb_sim::congestion::{CongestionConfig, FaultResponse, FlowControl, ShardedSim};
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::workload;
use ftdb_topology::DeBruijn2;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Which elements the Bernoulli coins kill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultModel {
    /// Every processor dies independently with probability `p` (its
    /// incident links die with it — the degenerate all-incident-links
    /// case of the directed-link model).
    Node,
    /// Every directed link (CSR edge slot) dies independently with
    /// probability `p`.
    Link,
    /// Every aligned label-prefix ball of `2^radius_bits` nodes dies as a
    /// *burst* — all links incident to the ball — with probability `p`
    /// per ball: the spatially-correlated failure mode (a rack, a board)
    /// that independent link coins cannot express.
    Burst,
}

impl FaultModel {
    /// Parses the `--fault-model` argument.
    pub fn parse(s: &str) -> Option<FaultModel> {
        match s {
            "node" => Some(FaultModel::Node),
            "link" => Some(FaultModel::Link),
            "burst" => Some(FaultModel::Burst),
            _ => None,
        }
    }

    /// The argument spelling, for table titles.
    pub fn label(self) -> &'static str {
        match self {
            FaultModel::Node => "node",
            FaultModel::Link => "link",
            FaultModel::Burst => "burst",
        }
    }

    /// All three models, in report order.
    pub const ALL: [FaultModel; 3] = [FaultModel::Node, FaultModel::Link, FaultModel::Burst];
}

/// One Monte-Carlo reliability sweep: a topology, a trial budget, a
/// probability grid and the engine configuration knobs.
#[derive(Clone, Debug)]
pub struct ReliabilitySpec {
    /// De Bruijn order: trials run on a healthy `B(2,h)`.
    pub h: usize,
    /// Seeded trials per grid point.
    pub trials: usize,
    /// Fault probabilities to sweep.
    pub p_grid: Vec<f64>,
    /// Cycle at which the drawn fault set fires (mid-run for the default
    /// permutation workload).
    pub kill_cycle: u32,
    /// Prefix-ball radius for [`FaultModel::Burst`] (`2^radius_bits`
    /// nodes per ball).
    pub burst_radius_bits: u32,
    /// Root seed; every trial seed derives from it and the trial index.
    pub root_seed: u64,
    /// Worker threads for the trial fan-out (results are byte-identical
    /// for any value).
    pub threads: usize,
    /// Shards of each worker's serial [`ShardedSim`] (1, the single-table
    /// engine, by default; byte-identical reports for any count, exercised
    /// by the CI determinism job).
    pub shards: usize,
}

impl ReliabilitySpec {
    /// The canonical spec for order `h`: 200 trials over
    /// `p ∈ {0.001, 0.005, 0.01, 0.02, 0.05}`, kill cycle 2, radius-2
    /// bursts.
    pub fn canonical(h: usize) -> ReliabilitySpec {
        ReliabilitySpec {
            h,
            trials: 200,
            p_grid: vec![0.001, 0.005, 0.01, 0.02, 0.05],
            kill_cycle: 2,
            burst_radius_bits: 2,
            root_seed: 0x1992_BC92,
            threads: 1,
            shards: 1,
        }
    }
}

/// One aggregated grid point of a reliability curve.
#[derive(Clone, Debug)]
pub struct ReliabilityPoint {
    /// The fault probability.
    pub p: f64,
    /// Trials aggregated.
    pub trials: usize,
    /// Packets injected over all trials.
    pub injected: u64,
    /// Packets delivered over all trials.
    pub delivered: u64,
    /// Pooled delivery probability (`delivered / injected`).
    pub delivery_rate: f64,
    /// Wilson 95% score interval around [`ReliabilityPoint::delivery_rate`].
    pub delivery_ci: (f64, f64),
    /// Mean per-trial slowdown (faulted / healthy mean latency) over the
    /// trials that delivered at least one packet; `0.0` when none did.
    pub mean_slowdown: f64,
    /// Normal 95% interval around [`ReliabilityPoint::mean_slowdown`].
    pub slowdown_ci: (f64, f64),
    /// Trials whose slowdown was measurable (delivered > 0).
    pub slowdown_samples: usize,
}

/// One fault model's curve over the probability grid.
#[derive(Clone, Debug)]
pub struct ReliabilityCurve {
    /// The fault model swept.
    pub model: FaultModel,
    /// De Bruijn order of the swept machine.
    pub h: usize,
    /// One aggregated point per grid probability, in grid order.
    pub points: Vec<ReliabilityPoint>,
}

/// SplitMix64: the per-trial seed derivation. Small, well-mixed and
/// stateless, so a trial's seeds depend only on the root seed and the
/// trial index — never on which worker ran it.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Wilson 95% score interval for `k` successes in `n` draws.
fn wilson_ci(k: u64, n: u64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let z = 1.959_963_984_540_054_f64;
    let nf = n as f64;
    let phat = k as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = (phat + z2 / (2.0 * nf)) / denom;
    let half = z * (phat * (1.0 - phat) / nf + z2 / (4.0 * nf * nf)).sqrt() / denom;
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// What one trial contributes to every grid point.
struct TrialOutcome {
    /// Healthy-run mean delivered latency for this trial's workload.
    healthy_mean: f64,
    /// Per grid probability: `(injected, delivered, faulted mean latency)`.
    per_p: Vec<(u64, u64, f64)>,
}

/// The engine configuration every reliability run uses: unbounded buffers
/// (reliability isolates *routability*, not buffer sizing) and adaptive
/// re-routing around the drawn faults.
fn reliability_config() -> CongestionConfig {
    CongestionConfig {
        flow_control: FlowControl::Infinite,
        fault_response: FaultResponse::RerouteAdaptive,
        max_cycles: 50_000,
    }
}

/// The faults one trial's coins select at one grid probability.
struct TrialFaults {
    /// Dead processors ([`FaultModel::Node`] only).
    nodes: Vec<usize>,
    /// Dead directed links (link and burst models).
    links: Option<LinkFaultSet>,
}

/// Draws the trial's fault coins: one coin per element in a fixed order,
/// compared against `p`, so the drawn sets are nested across the grid.
fn draw_trial_faults(
    db: &DeBruijn2,
    model: FaultModel,
    spec: &ReliabilitySpec,
    p: f64,
    fault_seed: u64,
) -> TrialFaults {
    let mut rng = StdRng::seed_from_u64(fault_seed);
    let n = db.node_count();
    match model {
        FaultModel::Node => TrialFaults {
            nodes: (0..n).filter(|_| rng.random::<f64>() < p).collect(),
            links: None,
        },
        FaultModel::Link => TrialFaults {
            nodes: Vec::new(),
            links: Some(LinkFaultSet::bernoulli(db.graph(), p, &mut rng)),
        },
        FaultModel::Burst => {
            let ball = 1usize << (spec.burst_radius_bits as usize).min(usize::BITS as usize - 1);
            let mut union = LinkFaultSet::empty(db.graph());
            let mut any = false;
            let mut center = 0usize;
            while center < n {
                if rng.random::<f64>() < p {
                    let burst = LinkFaultSet::burst(db.graph(), center, spec.burst_radius_bits)
                        .expect("burst center in range");
                    union.union_with(&burst);
                    any = true;
                }
                center += ball;
            }
            TrialFaults {
                nodes: Vec::new(),
                links: any.then_some(union),
            }
        }
    }
}

/// One worker's warmed engine, reused for every run of its trial chunk
/// through `clear_workload`: a serial [`ShardedSim`] with `shards` shards
/// (one is the single-table engine), since the trial fan-out owns the
/// thread budget. Reports are identical for any shard count.
fn trial_engine(db: &DeBruijn2, shards: usize) -> ShardedSim {
    let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
    ShardedSim::new(machine, reliability_config(), shards.max(1), 1)
}

/// Runs one trial's healthy baseline plus its whole `p` row on the
/// worker's reused engine.
fn run_trial(
    db: &DeBruijn2,
    sim: &mut ShardedSim,
    model: FaultModel,
    spec: &ReliabilitySpec,
    trial: usize,
) -> TrialOutcome {
    let placement = Embedding::identity(db.node_count());
    let workload_seed = splitmix64(spec.root_seed ^ (trial as u64).wrapping_mul(0x9E37_79B9));
    let fault_seed = splitmix64(workload_seed ^ 0x5EED_FA17);
    let mut wl_rng = StdRng::seed_from_u64(workload_seed);
    let pairs = workload::permutation_pairs(db.node_count(), &mut wl_rng);

    let mut run_one = |p: Option<f64>| -> (u64, u64, f64) {
        let faults = p.map(|p| draw_trial_faults(db, model, spec, p, fault_seed));
        sim.clear_workload();
        sim.load_oblivious(db, &placement, &pairs);
        if let Some(faults) = &faults {
            for &node in &faults.nodes {
                sim.schedule_fault(spec.kill_cycle, node)
                    .expect("node kills are drawn over the engine's graph");
            }
            if let Some(links) = &faults.links {
                sim.schedule_link_faults(spec.kill_cycle, links)
                    .expect("link kills are drawn over the engine's graph");
            }
        }
        let report = sim.run();
        (report.injected, report.delivered, report.latency.mean)
    };

    let (_, _, healthy_mean) = run_one(None);
    let per_p = spec.p_grid.iter().map(|&p| run_one(Some(p))).collect();
    TrialOutcome {
        healthy_mean,
        per_p,
    }
}

/// One worker's contiguous trial chunk, on one warmed engine.
fn trial_chunk(
    db: &DeBruijn2,
    model: FaultModel,
    spec: &ReliabilitySpec,
    trials: std::ops::Range<usize>,
) -> Vec<TrialOutcome> {
    let mut sim = trial_engine(db, spec.shards);
    trials
        .map(|trial| run_trial(db, &mut sim, model, spec, trial))
        .collect()
}

/// Runs the Monte-Carlo sweep for one fault model: `spec.trials` seeded
/// trials per grid probability, fanned out over `spec.threads` workers in
/// contiguous trial chunks ([`fan_out`]) and merged in trial order —
/// byte-identical output for any `threads` and `shards` setting.
pub fn reliability_sweep(spec: &ReliabilitySpec, model: FaultModel) -> ReliabilityCurve {
    let db = DeBruijn2::new(spec.h);
    let outcomes: Vec<TrialOutcome> = fan_out(0..spec.trials, spec.threads, |trials| {
        trial_chunk(&db, model, spec, trials)
    })
    .into_iter()
    .flatten()
    .collect();

    let points = spec
        .p_grid
        .iter()
        .enumerate()
        .map(|(pi, &p)| aggregate(p, pi, &outcomes))
        .collect();
    ReliabilityCurve {
        model,
        h: spec.h,
        points,
    }
}

/// Folds every trial's contribution to grid point `pi`, in trial order
/// (fixed-order float sums keep the output bit-stable).
fn aggregate(p: f64, pi: usize, outcomes: &[TrialOutcome]) -> ReliabilityPoint {
    let mut injected = 0u64;
    let mut delivered = 0u64;
    let mut slowdowns: Vec<f64> = Vec::with_capacity(outcomes.len());
    for trial in outcomes {
        let (inj, del, faulted_mean) = trial.per_p[pi];
        injected += inj;
        delivered += del;
        if del > 0 && trial.healthy_mean > 0.0 {
            slowdowns.push(faulted_mean / trial.healthy_mean);
        }
    }
    let delivery_rate = if injected == 0 {
        0.0
    } else {
        delivered as f64 / injected as f64
    };
    let m = slowdowns.len();
    let (mean_slowdown, slowdown_ci) = if m == 0 {
        (0.0, (0.0, 0.0))
    } else {
        let mf = m as f64;
        let mean = slowdowns.iter().sum::<f64>() / mf;
        let var = slowdowns
            .iter()
            .map(|s| (s - mean) * (s - mean))
            .sum::<f64>()
            / if m > 1 { mf - 1.0 } else { 1.0 };
        let half = 1.959_963_984_540_054_f64 * (var / mf).sqrt();
        (mean, (mean - half, mean + half))
    };
    ReliabilityPoint {
        p,
        trials: outcomes.len(),
        injected,
        delivered,
        delivery_rate,
        delivery_ci: wilson_ci(delivered, injected),
        mean_slowdown,
        slowdown_ci,
        slowdown_samples: m,
    }
}

/// Renders one curve as a [`TextTable`] (the `experiments` driver prints
/// it; the CI determinism job diffs the rendered bytes).
pub fn render_reliability(curve: &ReliabilityCurve) -> TextTable {
    let mut table = TextTable::new(
        format!(
            "MC reliability: {} faults on B(2,{}) ({} trials/point)",
            curve.model.label(),
            curve.h,
            curve.points.first().map_or(0, |pt| pt.trials),
        ),
        &[
            "p",
            "delivered",
            "injected",
            "delivery",
            "wilson 95%",
            "slowdown",
            "slowdown 95%",
            "samples",
        ],
    );
    for pt in &curve.points {
        table.push_row(vec![
            format!("{:.4}", pt.p),
            pt.delivered.to_string(),
            pt.injected.to_string(),
            format!("{:.6}", pt.delivery_rate),
            format!("[{:.6}, {:.6}]", pt.delivery_ci.0, pt.delivery_ci.1),
            format!("{:.4}", pt.mean_slowdown),
            format!("[{:.4}, {:.4}]", pt.slowdown_ci.0, pt.slowdown_ci.1),
            pt.slowdown_samples.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_packet_saved_by_a_re_route_stays_delivered_across_the_grid() {
        // Trial 71 of the default B(2,9) link sweep. Its one packet that a
        // dead link forces to re-route used to be reported lost at
        // p = 0.001 and 0.005 — a cycle whose only event was the re-route
        // read as a deadlock — yet delivered at p = 0.01 on a superset of
        // the dead links.
        let spec = ReliabilitySpec::canonical(9);
        let db = DeBruijn2::new(spec.h);
        let mut sim = trial_engine(&db, 1);
        let outcome = run_trial(&db, &mut sim, FaultModel::Link, &spec, 71);
        let delivered: Vec<u64> = outcome.per_p.iter().map(|&(_, d, _)| d).collect();
        assert!(delivered.windows(2).all(|w| w[1] <= w[0]), "{delivered:?}");
        assert_eq!(delivered[0], db.node_count() as u64, "{delivered:?}");
    }

    fn tiny_spec(threads: usize, shards: usize) -> ReliabilitySpec {
        ReliabilitySpec {
            h: 5,
            trials: 8,
            p_grid: vec![0.0, 0.02, 0.2],
            kill_cycle: 2,
            burst_radius_bits: 2,
            root_seed: 0xBC92,
            threads,
            shards,
        }
    }

    #[test]
    fn zero_probability_delivers_everything() {
        for model in FaultModel::ALL {
            let curve = reliability_sweep(&tiny_spec(1, 1), model);
            let p0 = &curve.points[0];
            assert_eq!(
                p0.delivered, p0.injected,
                "{model:?}: p=0 must be loss-free"
            );
            assert!(p0.delivery_ci.0 <= 1.0 && p0.delivery_ci.1 >= p0.delivery_rate - 1e-9);
        }
    }

    #[test]
    fn delivery_curves_are_monotone_in_p() {
        for model in FaultModel::ALL {
            let curve = reliability_sweep(&tiny_spec(1, 1), model);
            for pair in curve.points.windows(2) {
                assert!(
                    pair[1].delivered <= pair[0].delivered,
                    "{model:?}: delivered rose from p={} to p={}",
                    pair[0].p,
                    pair[1].p
                );
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_the_rendered_curve() {
        for model in FaultModel::ALL {
            let serial = render_reliability(&reliability_sweep(&tiny_spec(1, 1), model)).render();
            let threaded = render_reliability(&reliability_sweep(&tiny_spec(4, 1), model)).render();
            assert_eq!(serial, threaded, "{model:?}: thread count leaked");
        }
    }

    #[test]
    fn shard_count_does_not_change_the_rendered_curve() {
        let single = render_reliability(&reliability_sweep(&tiny_spec(1, 1), FaultModel::Link));
        for shards in [2usize, 4] {
            let sharded =
                render_reliability(&reliability_sweep(&tiny_spec(1, shards), FaultModel::Link));
            assert_eq!(
                single.render(),
                sharded.render(),
                "shards={shards} leaked into the curve"
            );
        }
    }

    #[test]
    fn wilson_interval_brackets_the_point_estimate() {
        let (lo, hi) = wilson_ci(90, 100);
        assert!(lo < 0.9 && 0.9 < hi);
        assert!(lo > 0.8 && hi < 1.0);
        let (el, eh) = wilson_ci(0, 0);
        assert!(el < 1e-12 && eh > 1.0 - 1e-12, "empty draw covers [0,1]");
        let (l0, h0) = wilson_ci(0, 50);
        assert!(l0 < 1e-12 && h0 > 0.0 && h0 < 0.2);
        let (l1, h1) = wilson_ci(50, 50);
        assert!(h1 > 1.0 - 1e-12 && l1 > 0.9);
    }
}
