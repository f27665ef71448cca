//! Packet routing on healthy and faulty machines.
//!
//! Two routing strategies are simulated:
//!
//! * **Logical (oblivious) routing** — the classic de Bruijn digit-shifting
//!   route (or shuffle-exchange route), mapped onto the physical machine
//!   through a placement embedding. This is how a production machine routes:
//!   cheap, local decisions, fixed path length ≤ `h` (or `2h`). It has no
//!   notion of faults: if the path crosses a faulty processor the packet is
//!   lost — the situation the paper's constructions are designed to avoid by
//!   restoring a fully healthy logical topology.
//! * **Adaptive (BFS) routing** — shortest healthy path in the surviving
//!   physical graph. Used as a foil: it shows that even when packets *can*
//!   be salvaged without spares, they pay latency and the machine loses the
//!   uniform-step structure that Ascend/Descend algorithms rely on.
//!
//! Each strategy is one `route_*_into` kernel that writes the path into a
//! caller-owned buffer and reports the hop count — zero heap allocation per
//! packet once the buffers are warm. [`RouteScratch`] bundles the buffers of
//! adaptive routing.
//!
//! [`route_logical_debruijn_into`] is the reference walker of the oblivious
//! route. The oblivious workload driver proves the placement sound or not
//! once, in the pass that builds the congestion engine's successor-slot
//! table; its per-packet walk then only counts the hops of a sound
//! placement and checks those of an unsound one, with the reference
//! walker's statistics.

use crate::congestion::implicit_route::{check_endpoints, ImplicitRoute};
use crate::machine::{PhysicalMachine, SimError};
use crate::metrics::RoutingStats;
use ftdb_core::parallel::fan_out;
use ftdb_graph::traversal::Searcher;
use ftdb_graph::{Embedding, NodeId};
use ftdb_topology::DeBruijn2;

/// Reusable per-worker routing scratch: the physical path buffer and the
/// BFS state for adaptive routing. One `RouteScratch` per thread routes any
/// number of packets with zero per-packet allocation.
#[derive(Clone, Debug, Default)]
pub struct RouteScratch {
    /// Buffer the routed physical path is written into.
    pub path: Vec<NodeId>,
    searcher: Searcher,
}

impl RouteScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        RouteScratch::default()
    }
}

/// Allocation-free kernel for the oblivious de Bruijn route: walks the
/// digit-shifting route from logical `source` to logical `target`, checking
/// every physical link and processor through `placement`, and writes the
/// physical path into `out`.
///
/// Returns the hop count on delivery. `out` is cleared first; once its
/// capacity reaches `h + 1` no allocation happens. A placement shorter than
/// the logical topology is an error ([`SimError::UnplacedNode`]) for the
/// routes that leave its domain, not a panic.
pub fn route_logical_debruijn_into(
    db: &DeBruijn2,
    placement: &Embedding,
    machine: &PhysicalMachine,
    source: NodeId,
    target: NodeId,
    out: &mut Vec<NodeId>,
) -> Result<usize, SimError> {
    check_endpoints(db.node_count(), source, target)?;
    out.clear();
    let g = machine.graph();
    let h = db.h();
    let mut current = source;
    let mut physical = image(placement, source)?;
    if !machine.is_healthy(physical) {
        return Err(SimError::FaultyProcessor { node: physical });
    }
    out.push(physical);
    for i in (0..h).rev() {
        let next = db.route_step(current, target >> i);
        if next != current {
            let next_physical = image(placement, next)?;
            // `physical` is already known healthy, so only the new endpoint
            // and the connecting link need checking (same classification as
            // `PhysicalMachine::check_link`, including its allowance for a
            // step whose endpoints coincide under a non-injective
            // placement — no physical link is needed then).
            if !machine.is_healthy(next_physical) {
                return Err(SimError::FaultyProcessor {
                    node: next_physical,
                });
            }
            if next_physical != physical && !g.has_edge(physical, next_physical) {
                return Err(SimError::MissingLink {
                    link: (physical, next_physical),
                });
            }
            out.push(next_physical);
            physical = next_physical;
        }
        current = next;
    }
    debug_assert_eq!(current, target);
    Ok(out.len() - 1)
}

/// Physical image of logical node `x` under `placement`, or
/// [`SimError::UnplacedNode`] when the placement does not reach `x`.
// analyzer: alloc-free
#[inline]
fn image(placement: &Embedding, x: NodeId) -> Result<NodeId, SimError> {
    placement
        .as_slice()
        .get(x)
        .copied()
        .ok_or(SimError::UnplacedNode {
            node: x,
            placed: placement.len(),
        })
}

/// Allocation-free kernel for adaptive routing: the shortest path between
/// the *physical* endpoints inside the healthy part of the machine, written
/// into `scratch.path`. Returns the hop count on delivery.
pub fn route_adaptive_into(
    machine: &PhysicalMachine,
    physical_source: NodeId,
    physical_target: NodeId,
    scratch: &mut RouteScratch,
) -> Result<usize, SimError> {
    let limit = machine.node_count();
    for endpoint in [physical_source, physical_target] {
        if endpoint >= limit {
            return Err(SimError::EndpointOutOfRange {
                node: endpoint,
                limit,
            });
        }
    }
    if !machine.is_healthy(physical_source) {
        return Err(SimError::FaultyProcessor {
            node: physical_source,
        });
    }
    if !machine.is_healthy(physical_target) {
        return Err(SimError::FaultyProcessor {
            node: physical_target,
        });
    }
    let found = scratch.searcher.shortest_path_avoiding_into(
        machine.graph(),
        physical_source,
        physical_target,
        |v| machine.is_healthy(v),
        |_| true,
        &mut scratch.path,
    );
    if found {
        Ok(scratch.path.len() - 1)
    } else {
        Err(SimError::Unreachable {
            source: physical_source,
            target: physical_target,
        })
    }
}

/// Routes a whole workload of logical `(source, target)` pairs with the
/// oblivious de Bruijn strategy and aggregates statistics.
///
/// The placement is checked against the machine once, by capturing the
/// same `ImplicitRoute` context the congestion engine's loads use: on a
/// sound placement each packet costs shift arithmetic, on any other one
/// the context's walk, which agrees with [`route_logical_debruijn_into`]
/// packet by packet. `pairs` is cut into `threads` contiguous chunks
/// ([`fan_out`]) that share the context — zero allocation per packet, no
/// lock in the hot loop — and the statistics are merged in chunk order.
/// The per-packet outcomes are independent, so the result is the same for
/// any `threads`; with 1 the workload is routed on the calling thread.
pub fn run_logical_workload(
    db: &DeBruijn2,
    placement: &Embedding,
    machine: &PhysicalMachine,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> RoutingStats {
    let mut route = ImplicitRoute::default();
    route.capture(db, placement, machine);
    let chunks = fan_out(pairs, threads, |chunk| {
        let mut stats = RoutingStats::default();
        for &(s, t) in chunk {
            match route.walk(machine, s, t) {
                Ok(hops) => stats.record_delivered(hops),
                Err(_) => stats.record_dropped(),
            }
        }
        stats
    });
    let mut stats = RoutingStats::default();
    for chunk in &chunks {
        stats.merge(chunk);
    }
    stats
}

/// Routes a workload of *physical* `(source, target)` pairs adaptively.
pub fn run_adaptive_workload(
    machine: &PhysicalMachine,
    pairs: &[(NodeId, NodeId)],
) -> RoutingStats {
    let mut stats = RoutingStats::default();
    let mut scratch = RouteScratch::new();
    for &(s, t) in pairs {
        match route_adaptive_into(machine, s, t, &mut scratch) {
            Ok(hops) => stats.record_delivered(hops),
            Err(_) => stats.record_dropped(),
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::PortModel;
    use crate::workload;
    use ftdb_core::{FaultSet, FtDeBruijn2};
    use ftdb_graph::Embedding;
    use rand::SeedableRng;

    /// Records one kernel result the way the workload drivers do.
    fn record(stats: &mut RoutingStats, result: Result<usize, SimError>) {
        match result {
            Ok(hops) => stats.record_delivered(hops),
            Err(_) => stats.record_dropped(),
        }
    }

    #[test]
    fn healthy_machine_delivers_all_logical_packets() {
        let db = DeBruijn2::new(4);
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let placement = Embedding::identity(db.node_count());
        let mut path = Vec::new();
        for s in 0..db.node_count() {
            for t in 0..db.node_count() {
                let hops = route_logical_debruijn_into(&db, &placement, &machine, s, t, &mut path)
                    .expect("healthy machine must deliver");
                assert!(hops <= db.h());
                assert_eq!(hops, path.len() - 1);
                assert_eq!((path[0], path[hops]), (s, t));
                assert!(path.windows(2).all(|w| db.graph().has_edge(w[0], w[1])));
            }
        }
    }

    #[test]
    fn into_kernel_path_matches_outcome_path() {
        // The digit-shifting routes on B(2,5), derived by hand: each hop
        // shifts the next target bit, most significant first, into the
        // label.
        let db = DeBruijn2::new(5);
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let placement = Embedding::identity(db.node_count());
        let mut path = Vec::new();
        let routes: [(usize, usize, &[usize]); 3] = [
            (0, 31, &[0, 1, 3, 7, 15, 31]),
            (7, 7, &[7, 14, 28, 25, 19, 7]),
            (12, 19, &[12, 25, 18, 4, 9, 19]),
        ];
        for (s, t, want) in routes {
            let hops = route_logical_debruijn_into(&db, &placement, &machine, s, t, &mut path)
                .expect("healthy delivery");
            assert_eq!(path, want, "({s},{t})");
            assert_eq!(hops, want.len() - 1);
        }
    }

    #[test]
    fn faulty_node_drops_logical_packets_through_it() {
        let db = DeBruijn2::new(4);
        let mut machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        machine.inject_fault(1);
        let placement = Embedding::identity(db.node_count());
        let mut path = Vec::new();
        let mut route =
            |s, t| route_logical_debruijn_into(&db, &placement, &machine, s, t, &mut path);
        // A route ending at the faulty node is dropped.
        assert!(route(5, 1).is_err());
        // And so is one that merely passes through it: 8 -> 1 -> 2.
        assert_eq!(route(8, 2), Err(SimError::FaultyProcessor { node: 1 }));
        // Routes that avoid it still work.
        assert!(route(10, 5).is_ok());
    }

    #[test]
    fn adaptive_routing_survives_faults_at_a_latency_cost() {
        let db = DeBruijn2::new(4);
        let mut machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        machine.inject_fault(1);
        // 8 -> 2 obliviously goes through 1 and is dropped; adaptively it
        // finds another healthy path.
        let mut scratch = RouteScratch::new();
        assert!(route_adaptive_into(&machine, 8, 2, &mut scratch).is_ok());
        assert!(!scratch.path.contains(&1));
        // Faulty endpoints are still undeliverable.
        assert_eq!(
            route_adaptive_into(&machine, 1, 3, &mut scratch),
            Err(SimError::FaultyProcessor { node: 1 })
        );
    }

    #[test]
    fn adaptive_routing_reports_unreachable_partitions() {
        // A path graph cut in the middle.
        let g = ftdb_graph::generators::path(5);
        let faults = FaultSet::from_nodes(5, [2]);
        let machine = PhysicalMachine::with_faults(g, faults, PortModel::SinglePort);
        assert_eq!(
            route_adaptive_into(&machine, 0, 4, &mut RouteScratch::new()),
            Err(SimError::Unreachable {
                source: 0,
                target: 4
            })
        );
    }

    #[test]
    fn reconfigured_ft_machine_delivers_everything_again() {
        let ft = FtDeBruijn2::new(4, 1);
        let db = ft.target().clone();
        for faulty in [0usize, 7, 16] {
            let faults = FaultSet::from_nodes(ft.node_count(), [faulty]);
            let placement = ft.reconfigure_verified(&faults).unwrap();
            let machine =
                PhysicalMachine::with_faults(ft.graph().clone(), faults, PortModel::MultiPort);
            let pairs: Vec<(usize, usize)> = (0..db.node_count())
                .flat_map(|s| [(s, (s * 7 + 3) % db.node_count()), (s, 0)])
                .collect();
            let stats = run_logical_workload(&db, &placement, &machine, &pairs, 1);
            assert_eq!(stats.dropped, 0, "faulty={faulty}");
            assert_eq!(stats.delivered as usize, pairs.len());
            assert!(stats.max_hops <= db.h());
        }
    }

    #[test]
    fn workload_statistics_accumulate() {
        let db = DeBruijn2::new(3);
        let mut machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        machine.inject_fault(3);
        let placement = Embedding::identity(db.node_count());
        let pairs = vec![(0, 7), (0, 3), (5, 6)];
        let stats = run_logical_workload(&db, &placement, &machine, &pairs, 1);
        assert_eq!(stats.delivered + stats.dropped, 3);
        assert!(stats.dropped >= 1); // the packet to the faulty node
        let adaptive = run_adaptive_workload(&machine, &[(0, 7), (6, 2)]);
        assert_eq!(adaptive.delivered + adaptive.dropped, 2);
    }

    #[test]
    fn non_injective_placement_delivers_over_coinciding_endpoints() {
        // check_link treats a step whose physical endpoints coincide as not
        // needing a link; the kernels and the workload tiers must agree.
        let db = DeBruijn2::new(3);
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let collapsed = Embedding::from_map(vec![0; db.node_count()]);
        let mut path = Vec::new();
        for (s, t) in [(0, 7), (3, 4), (6, 6)] {
            let out = route_logical_debruijn_into(&db, &collapsed, &machine, s, t, &mut path);
            assert!(out.is_ok(), "({s},{t}) must deliver: {out:?}");
        }
        let pairs: Vec<(usize, usize)> = (0..8).map(|s| (s, 7 - s)).collect();
        let mut reference = RoutingStats::default();
        for &(s, t) in &pairs {
            let out = route_logical_debruijn_into(&db, &collapsed, &machine, s, t, &mut path);
            record(&mut reference, out);
        }
        assert_eq!(
            run_logical_workload(&db, &collapsed, &machine, &pairs, 1),
            reference
        );
        assert_eq!(
            run_logical_workload(&db, &collapsed, &machine, &pairs, 3),
            reference
        );
    }

    #[test]
    fn workload_tiers_match_per_packet_reference() {
        // The captured context's soundness verdict, its walk and check, and
        // the workload runs must agree with per-packet routing on (a) a
        // healthy machine (sound), (b) a faulty machine and (c) a machine
        // whose graph is missing links (both unsound), and (d) a
        // reconfigured B^k(2,h) host, whose faults all sit off the
        // placement (sound).
        let db = DeBruijn2::new(5);
        let n = db.node_count();
        let identity = Embedding::identity(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let pairs = workload::permutation_pairs(n, &mut rng);
        let healthy = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut faulty = healthy.clone();
        faulty.inject_fault(3);
        faulty.inject_fault(20);
        let sparse = PhysicalMachine::new(ftdb_graph::generators::cycle(n), PortModel::MultiPort);
        let ft = FtDeBruijn2::new(5, 2);
        let faults = FaultSet::from_nodes(ft.node_count(), [4, 19]);
        let reconfigured_placement = ft.reconfigure_verified(&faults).unwrap();
        let reconfigured =
            PhysicalMachine::with_faults(ft.graph().clone(), faults, PortModel::MultiPort);
        let cases = [
            (&healthy, &identity, true),
            (&faulty, &identity, false),
            (&sparse, &identity, false),
            (&reconfigured, &reconfigured_placement, true),
        ];
        let mut path = Vec::new();
        for (machine, placement, sound) in cases {
            let mut route = ImplicitRoute::default();
            assert!(route.capture(&db, placement, machine));
            assert_eq!(route.sound(), sound);
            let mut reference = RoutingStats::default();
            for &(s, t) in &pairs {
                let want = route_logical_debruijn_into(&db, placement, machine, s, t, &mut path);
                assert_eq!(route.walk(machine, s, t), want, "sound={sound} ({s},{t})");
                assert_eq!(
                    route.check(machine, s, t),
                    want.clone().map(drop),
                    "({s},{t})"
                );
                record(&mut reference, want);
            }
            let sequential = run_logical_workload(&db, placement, machine, &pairs, 1);
            assert_eq!(sequential, reference, "sound={sound}");
            let threaded = run_logical_workload(&db, placement, machine, &pairs, 3);
            assert_eq!(threaded, reference, "sound={sound}");
        }
    }

    #[test]
    fn short_placement_is_an_error_not_a_panic() {
        // identity(8) maps only half of B(2,4). The route 3 → 7 → 15 → 14 →
        // 12 leaves the placement's domain at 15; 0 → 1 → 2 → 5 stays inside.
        let db = DeBruijn2::new(4);
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let short = Embedding::identity(8);
        let mut path = Vec::new();
        assert_eq!(
            route_logical_debruijn_into(&db, &short, &machine, 3, 12, &mut path),
            Err(SimError::UnplacedNode {
                node: 15,
                placed: 8
            })
        );
        assert_eq!(
            route_logical_debruijn_into(&db, &short, &machine, 9, 1, &mut path),
            Err(SimError::UnplacedNode { node: 9, placed: 8 })
        );
        assert_eq!(
            route_logical_debruijn_into(&db, &short, &machine, 0, 5, &mut path),
            Ok(3)
        );
        // A short identity placement is not the identity: the context keeps
        // its map, reads unsound and walks to the same verdicts.
        let mut route = ImplicitRoute::default();
        assert!(route.capture(&db, &short, &machine));
        assert!(!route.sound());
        let pairs = [(3, 12), (0, 5), (9, 1)];
        for (s, t) in pairs {
            assert_eq!(
                route.walk(&machine, s, t),
                route_logical_debruijn_into(&db, &short, &machine, s, t, &mut path)
            );
        }
        let stats = run_logical_workload(&db, &short, &machine, &pairs, 1);
        assert_eq!((stats.delivered, stats.dropped), (1, 2));
        assert_eq!(
            run_logical_workload(&db, &short, &machine, &pairs, 2),
            stats
        );
    }

    #[test]
    fn batched_workload_matches_sequential() {
        let db = DeBruijn2::new(6);
        let n = db.node_count();
        let mut machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        machine.inject_fault(5);
        machine.inject_fault(40);
        let placement = Embedding::identity(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let pairs = workload::permutation_pairs(n, &mut rng);
        let sequential = run_logical_workload(&db, &placement, &machine, &pairs, 1);
        for threads in [1usize, 2, 4, 7] {
            let threaded = run_logical_workload(&db, &placement, &machine, &pairs, threads);
            assert_eq!(threaded, sequential, "threads={threads}");
        }
    }

    #[test]
    fn batched_workload_handles_degenerate_inputs() {
        let db = DeBruijn2::new(3);
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let placement = Embedding::identity(db.node_count());
        let empty = run_logical_workload(&db, &placement, &machine, &[], 4);
        assert_eq!(empty.delivered + empty.dropped, 0);
        let single = run_logical_workload(&db, &placement, &machine, &[(0, 5)], 16);
        assert_eq!(single.delivered, 1);
    }

    #[test]
    fn out_of_range_endpoints_are_errors_not_panics() {
        let db = DeBruijn2::new(3);
        let n = db.node_count();
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let placement = Embedding::identity(n);
        let mut path = Vec::new();
        // Oblivious kernel: source and target out of range, in both orders.
        for (s, t) in [(n, 0), (0, n + 3)] {
            let bad = s.max(t);
            assert_eq!(
                route_logical_debruijn_into(&db, &placement, &machine, s, t, &mut path),
                Err(SimError::EndpointOutOfRange {
                    node: bad,
                    limit: n
                })
            );
        }
        // Adaptive kernel.
        let mut scratch = RouteScratch::new();
        assert_eq!(
            route_adaptive_into(&machine, n, 0, &mut scratch),
            Err(SimError::EndpointOutOfRange { node: n, limit: n })
        );
        assert_eq!(
            route_adaptive_into(&machine, 0, n + 1, &mut scratch),
            Err(SimError::EndpointOutOfRange {
                node: n + 1,
                limit: n
            })
        );
    }

    #[test]
    fn out_of_range_pairs_count_as_dropped_in_every_trust_tier() {
        // The same malformed pair must degrade into one dropped packet on a
        // healthy machine (a sound placement), a faulty machine and a
        // link-deficient machine (unsound ones) — never a panic.
        let db = DeBruijn2::new(3);
        let n = db.node_count();
        let placement = Embedding::identity(n);
        let pairs = vec![(0, 5), (n + 7, 1), (2, n), (3, 3)];
        let healthy = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut faulty = healthy.clone();
        faulty.inject_fault(6);
        let sparse = PhysicalMachine::new(ftdb_graph::generators::cycle(n), PortModel::MultiPort);
        for (machine, sound) in [(&healthy, true), (&faulty, false), (&sparse, false)] {
            let mut route = ImplicitRoute::default();
            assert!(route.capture(&db, &placement, machine));
            assert_eq!(route.sound(), sound);
            let stats = run_logical_workload(&db, &placement, machine, &pairs, 1);
            assert_eq!(stats.delivered + stats.dropped, pairs.len() as u64);
            assert!(stats.dropped >= 2, "both malformed pairs must be dropped");
            let threaded = run_logical_workload(&db, &placement, machine, &pairs, 2);
            assert_eq!(threaded, stats);
        }
    }

    #[test]
    fn worst_case_hops_is_the_diameter() {
        // On a healthy B(2,h) the longest oblivious route has h hops, the
        // de Bruijn diameter.
        let db = DeBruijn2::new(5);
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let placement = Embedding::identity(db.node_count());
        let mut path = Vec::new();
        let worst = (0..32)
            .flat_map(|s| (0..32).map(move |t| (s, t)))
            .map(|(s, t)| route_logical_debruijn_into(&db, &placement, &machine, s, t, &mut path))
            .map(|hops| hops.expect("healthy machine must deliver"))
            .max();
        assert_eq!(worst, Some(5));
        assert_eq!(ftdb_graph::traversal::diameter(db.graph()), Some(5));
    }
}
