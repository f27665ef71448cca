//! Verifies the allocation-free guarantees of the routing and verification
//! kernels with a counting global allocator: after a warm-up pass that sizes
//! the scratch buffers, routing thousands of packets must not touch the
//! allocator at all. Graph construction makes a fixed number of
//! allocations at any size, and a cloned graph shares its CSR.

use ftdb_core::FaultSet;
use ftdb_graph::Embedding;
use ftdb_sim::congestion::ShardedSim;
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::routing::{
    route_adaptive_into, route_logical_debruijn_into, run_logical_workload, RouteScratch,
};
use ftdb_sim::workload;
use ftdb_topology::DeBruijn2;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps the system allocator and counts every allocation/reallocation,
/// and the bytes each one asks for.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The fewest allocations, and the fewest bytes, that `region` asks for
/// over five runs (its result is dropped outside the count). A stray
/// allocation from the test harness' own threads does not repeat.
fn fewest_allocations<T>(mut region: impl FnMut() -> T) -> (u64, u64) {
    let (mut calls, mut bytes) = (u64::MAX, u64::MAX);
    for _ in 0..5 {
        let (calls0, bytes0) = (allocations(), BYTES.load(Ordering::Relaxed));
        let out = region();
        calls = calls.min(allocations() - calls0);
        bytes = bytes.min(BYTES.load(Ordering::Relaxed) - bytes0);
        drop(out);
    }
    (calls, bytes)
}

/// The allocation counter is process-global, so the counting tests must not
/// interleave: each takes this lock for its measured region.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial_guard() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `region` up to five times and asserts that at least one run performs
/// zero allocations. A genuine per-packet allocation fires thousands of
/// times in every run; a stray allocation from the test harness' own
/// threads does not repeat, so retrying eliminates that flake without
/// weakening the guarantee.
fn assert_eventually_alloc_free(what: &str, mut region: impl FnMut()) {
    let mut best = u64::MAX;
    for _ in 0..5 {
        let before = allocations();
        region();
        let delta = allocations() - before;
        best = best.min(delta);
        if best == 0 {
            return;
        }
    }
    panic!("{what} allocated on the hot path ({best} allocations at best)");
}

/// Asserts that `run` allocates nothing once warm, counting `run` alone:
/// before each of up to five attempts the engine is cleared and `reload`
/// loads it again, outside the counted region.
fn assert_reloaded_runs_alloc_free(
    what: &str,
    sim: &mut ShardedSim,
    reload: impl Fn(&mut ShardedSim),
    mut run: impl FnMut(&mut ShardedSim),
) {
    let mut best = u64::MAX;
    for _ in 0..5 {
        sim.clear_workload();
        reload(sim);
        let before = allocations();
        run(sim);
        best = best.min(allocations() - before);
        if best == 0 {
            return;
        }
    }
    panic!("{what} allocated on the hot path ({best} allocations at best)");
}

#[test]
fn oblivious_routing_kernel_is_allocation_free_after_warmup() {
    let _guard = serial_guard();
    let db = DeBruijn2::new(8);
    let n = db.node_count();
    let mut machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
    machine.inject_fault(7); // exercise the drop path too
    let placement = Embedding::identity(n);
    let mut rng = ftdb_tests::seeded_rng(2024);
    let pairs = workload::permutation_pairs(n, &mut rng);

    let mut path = Vec::new();
    // Warm-up: grows the path buffer to its steady-state capacity.
    for &(s, t) in &pairs {
        let _ = route_logical_debruijn_into(&db, &placement, &machine, s, t, &mut path);
    }
    let mut delivered = 0u64;
    assert_eventually_alloc_free("oblivious routing kernel", || {
        for &(s, t) in &pairs {
            if route_logical_debruijn_into(&db, &placement, &machine, s, t, &mut path).is_ok() {
                delivered += 1;
            }
        }
    });
    assert!(delivered > 0);
}

#[test]
fn adaptive_routing_kernel_is_allocation_free_after_warmup() {
    let _guard = serial_guard();
    let db = DeBruijn2::new(7);
    let n = db.node_count();
    let mut machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
    machine.inject_fault(3);
    let mut rng = ftdb_tests::seeded_rng(7);
    let pairs = workload::uniform_pairs(n, 128, &mut rng);

    let mut scratch = RouteScratch::new();
    for &(s, t) in &pairs {
        let _ = route_adaptive_into(&machine, s, t, &mut scratch);
    }
    let mut delivered = 0u64;
    assert_eventually_alloc_free("adaptive routing kernel", || {
        for &(s, t) in &pairs {
            if route_adaptive_into(&machine, s, t, &mut scratch).is_ok() {
                delivered += 1;
            }
        }
    });
    assert!(delivered > 0);
}

#[test]
fn workload_driver_allocations_do_not_scale_with_packet_count() {
    let _guard = serial_guard();
    // The sequential driver owns one scratch buffer: routing 4x the packets
    // must cost the same (constant) number of allocations, not 4x.
    let db = DeBruijn2::new(8);
    let n = db.node_count();
    let mut machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
    machine.inject_fault(11);
    let placement = Embedding::identity(n);
    let mut rng = ftdb_tests::seeded_rng(99);
    let small = workload::uniform_pairs(n, 256, &mut rng);
    let large: Vec<_> = small
        .iter()
        .cycle()
        .take(small.len() * 4)
        .copied()
        .collect();

    let _ = run_logical_workload(&db, &placement, &machine, &small, 1); // warm caches
    let mut scaled = false;
    for _ in 0..5 {
        let before_small = allocations();
        let _ = run_logical_workload(&db, &placement, &machine, &small, 1);
        let cost_small = allocations() - before_small;
        let before_large = allocations();
        let _ = run_logical_workload(&db, &placement, &machine, &large, 1);
        let cost_large = allocations() - before_large;
        if cost_small == cost_large {
            scaled = true;
            break;
        }
    }
    assert!(
        scaled,
        "per-packet allocation detected: driver cost scales with packet count"
    );
}

#[test]
fn exhaustive_verifier_hot_loop_is_allocation_light() {
    let _guard = serial_guard();
    // The verifier allocates its scratch (kernel buffers, edge masks,
    // enumerator) once per call — the per-fault-set loop itself must not
    // allocate. Checking 4x the fault sets (k=2 vs the same run repeated)
    // must not multiply the allocation count.
    let ft = ftdb_core::FtDeBruijn2::new(5, 2);
    let target = ft.target().graph();
    let host = ft.graph();
    let _ = ftdb_core::verify::verify_exhaustive(target, host, 2, 1);
    let mut ok = false;
    for _ in 0..5 {
        let before_a = allocations();
        let a = ftdb_core::verify::verify_exhaustive(target, host, 1, 1); // 34 sets
        let cost_a = allocations() - before_a;
        let before_b = allocations();
        let b = ftdb_core::verify::verify_exhaustive(target, host, 2, 1); // 561 sets
        let cost_b = allocations() - before_b;
        assert!(a.is_tolerant() && b.is_tolerant());
        // 16x the fault sets; the fixed overhead may differ slightly but
        // not proportionally.
        if cost_b < cost_a + 16 {
            ok = true;
            break;
        }
    }
    assert!(ok, "verifier hot loop allocates per fault set");
}

#[test]
fn online_reconfiguration_allocates_only_the_returned_map() {
    let _guard = serial_guard();
    // The first call certifies the construction for its budget k, whatever
    // its own fault count. After it, a reconfiguration with k faults
    // allocates its map and nothing else: the certified map is returned
    // without `Embedding::verify`'s scratch. A clone carries the verdict.
    let ft = ftdb_core::FtDeBruijn2::new(10, 4);
    let n = ft.node_count();
    assert!(ft.reconfigure_verified(&FaultSet::empty(n)).is_ok());
    let clone = ft.clone();
    let mut rng = ftdb_tests::seeded_rng(2024);
    let sets: Vec<FaultSet> = (0..64)
        .map(|_| FaultSet::random(n, 4, &mut rng).expect("k within node count"))
        .collect();
    for construction in [&ft, &clone] {
        let mut best = u64::MAX;
        for _ in 0..5 {
            let before = allocations();
            for faults in &sets {
                assert!(construction.reconfigure_verified(faults).is_ok());
            }
            best = best.min(allocations() - before);
        }
        assert_eq!(
            best,
            sets.len() as u64,
            "reconfigure_verified should allocate only its map"
        );
    }
}

#[test]
fn congestion_cycle_loop_is_allocation_free_after_warmup() {
    let _guard = serial_guard();
    // The engine allocates while loading the workload; the stepped cycle
    // loop of a reloaded engine (what a sweep worker runs between
    // `clear_workload` calls) must never touch the allocator.
    use ftdb_sim::congestion::{CongestionConfig, CongestionSim};
    let db = DeBruijn2::new(7);
    let n = db.node_count();
    let machine = PhysicalMachine::new(db.graph().clone(), PortModel::SinglePort);
    let mut sim = CongestionSim::new(machine, CongestionConfig::default());
    let placement = Embedding::identity(n);
    let mut rng = ftdb_tests::seeded_rng(512);
    let pairs = workload::uniform_pairs(n, 4 * n, &mut rng);
    let load = |sim: &mut ShardedSim| sim.load_oblivious(&db, &placement, &pairs);
    load(&mut sim);
    // Warm-up run sizes any lazily-grown state.
    while !sim.step().is_idle() {}
    let warm = sim.counts();
    assert!(warm.1 > 0, "warm-up must deliver packets");
    let mut delivered = 0;
    assert_reloaded_runs_alloc_free("congestion cycle loop", &mut sim, load, |sim| {
        while !sim.step().is_idle() {}
        delivered = sim.counts().1;
    });
    assert_eq!(delivered, warm.1);
}

#[test]
fn fault_set_scratch_api_exists_for_callers() {
    let _guard = serial_guard();
    // healthy_iter is the non-allocating accessor the satellites asked for:
    // iterating it must not allocate.
    let faults = FaultSet::from_nodes(1024, [5, 600, 1001]);
    let mut count = 0;
    let mut sum = 0usize;
    assert_eventually_alloc_free("FaultSet::healthy_iter", || {
        count = faults.healthy_iter().count();
        sum = faults.healthy_iter().sum();
    });
    assert_eq!(count, 1021);
    assert!(sum > 0);
}

#[test]
fn implicit_route_state_is_o1_per_packet_not_oh() {
    let _guard = serial_guard();
    // The million-node acceptance bound: per-packet route state must be O(1)
    // for oblivious packets — no materialized path array. Loading the SAME
    // packet count at h = 8 and h = 14 must cost identical route state (a
    // packed entry plus a two-word shift register per packet).
    use ftdb_sim::congestion::{CongestionConfig, CongestionSim};
    let packets = 512;
    let single_bytes = |h: usize| {
        let db = DeBruijn2::new(h);
        let n = db.node_count();
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut sim = CongestionSim::new(machine, CongestionConfig::default());
        let mut rng = ftdb_tests::seeded_rng(77);
        let pairs = workload::uniform_pairs(n, packets, &mut rng);
        sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
        sim.route_state_bytes()
    };
    assert_eq!(
        single_bytes(8),
        single_bytes(14),
        "implicit route state must not scale with h"
    );
    // The sharded engine carries the same O(1)-per-packet representation in
    // every shard core: equally h-independent.
    let sharded_bytes = |h: usize| {
        let db = DeBruijn2::new(h);
        let n = db.node_count();
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut sim = ShardedSim::new(machine, CongestionConfig::default(), 4, 1);
        let mut rng = ftdb_tests::seeded_rng(77);
        let pairs = workload::uniform_pairs(n, packets, &mut rng);
        sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
        sim.route_state_bytes()
    };
    assert_eq!(
        sharded_bytes(8),
        sharded_bytes(14),
        "sharded implicit route state must not scale with h"
    );
}

#[test]
fn credit_flow_cycle_loop_is_allocation_free_after_warmup() {
    let _guard = serial_guard();
    // The bounded-buffer engine adds credit counters, a pending-return set
    // and an injection queue to the cycle loop; all of them are sized at
    // construction/load, so rerunning a full open-loop run (inject ->
    // credit-gated movement -> drain) on a reloaded engine must not
    // allocate.
    use ftdb_sim::congestion::{CongestionConfig, CongestionSim, FlowControl};
    use ftdb_sim::workload::{open_loop_injections, InjectionProcess, OpenLoopSpec};
    let db = DeBruijn2::new(6);
    let n = db.node_count();
    let spec = OpenLoopSpec {
        offered_load: 0.15,
        process: InjectionProcess::Bernoulli,
        warmup_cycles: 60,
        measure_cycles: 120,
        drain_cycles: 200,
        seed: 99,
    };
    let injections = open_loop_injections(n, &spec);
    let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
    let mut sim = CongestionSim::new(
        machine,
        CongestionConfig {
            flow_control: FlowControl::CreditBased { buffer_depth: 4 },
            ..CongestionConfig::default()
        },
    );
    let placement = Embedding::identity(n);
    let load = |sim: &mut ShardedSim| sim.load_oblivious_timed(&db, &placement, &injections);
    load(&mut sim);
    // Warm-up run sizes any lazily-grown state.
    sim.run_until(spec.horizon());
    let warm = sim.counts();
    assert!(warm.1 > 0, "warm-up must deliver packets");
    let mut delivered = 0;
    assert_reloaded_runs_alloc_free("credit-flow cycle loop", &mut sim, load, |sim| {
        sim.run_until(spec.horizon());
        delivered = sim.counts().1;
    });
    assert_eq!(delivered, warm.1);
    sim.check_credit_conservation()
        .expect("credit conservation after the measured runs");
}

#[test]
fn one_part_fan_out_allocates_nothing() {
    let _guard = serial_guard();
    // With one part the fan-out is a plain call: it never enters a thread
    // scope (an empty `std::thread::scope` allocates on every call), and a
    // unit result needs no buffer, so the call the sharded engine makes
    // twice a cycle at one worker is free. Slices, mutable slices and
    // ranges alike, at 0 and 1 workers, and at 8 workers over one item.
    use ftdb_core::parallel::fan_out;
    let mut cells = vec![0u64; 1_000];
    let items: Vec<u64> = (0..1_000).collect();
    let seen = AtomicU64::new(0);
    assert_eventually_alloc_free("one-part fan_out", || {
        for workers in [0, 1] {
            fan_out(&mut cells[..], workers, |part| {
                part.iter_mut().for_each(|c| *c += 1);
            });
            fan_out(&items[..], workers, |part| {
                seen.fetch_add(part.iter().sum(), Ordering::Relaxed);
            });
            fan_out(0..1_000, workers, |range| {
                seen.fetch_add(range.len() as u64, Ordering::Relaxed);
            });
        }
        fan_out(&mut cells[..1], 8, |part| part[0] += 1);
    });
    assert!(cells[0] > cells[1] && cells[1] > 0);
    assert!(seen.load(Ordering::Relaxed) > 0);
}

#[test]
fn sharded_serial_cycle_loop_is_allocation_free_after_warmup() {
    let _guard = serial_guard();
    // The serial barrier hands each core's per-destination buffers (flits,
    // re-routed path words, credits) straight to the receiving core and
    // empties them in place, so once one run has grown them a second run of
    // the same load allocates nothing. Credit flow ships credits across
    // shards; node kills under `RerouteAdaptive` ship re-routed paths.
    use ftdb_sim::congestion::{CongestionConfig, FaultResponse, FlowControl};
    let db = DeBruijn2::new(8);
    let n = db.node_count();
    let placement = Embedding::identity(n);
    let mut rng = ftdb_tests::seeded_rng(808);
    let pairs = workload::permutation_pairs(n, &mut rng);
    let credit = CongestionConfig {
        flow_control: FlowControl::CreditBased { buffer_depth: 2 },
        ..CongestionConfig::default()
    };
    let reroute = CongestionConfig {
        flow_control: FlowControl::Infinite,
        fault_response: FaultResponse::RerouteAdaptive,
        ..CongestionConfig::default()
    };
    for (config, kills) in [(credit, &[][..]), (reroute, &[3usize, 77, 140, 201][..])] {
        for shards in [2usize, 4] {
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
            let mut sim = ShardedSim::new(machine, config, shards, 1);
            let load = |sim: &mut ShardedSim| {
                sim.load_oblivious(&db, &placement, &pairs);
                for &node in kills {
                    sim.schedule_fault(2, node).unwrap();
                }
            };
            load(&mut sim);
            let warm = sim.run();
            assert!(warm.delivered > 0, "warm-up must deliver packets");
            let mut delivered = 0;
            let what = format!("sharded serial cycle loop ({config:?}, shards={shards})");
            assert_reloaded_runs_alloc_free(&what, &mut sim, load, |sim| {
                delivered = sim.run().delivered;
            });
            assert_eq!(delivered, warm.delivered, "shards={shards}");
        }
    }
}

#[test]
fn graph_construction_allocations_do_not_scale_with_size() {
    let _guard = serial_guard();
    // The builder's flat edge list, the graph's shared arrays and its name:
    // 64x the nodes, the same allocations.
    let (small, _) = fewest_allocations(|| DeBruijn2::new(8));
    let (large, _) = fewest_allocations(|| DeBruijn2::new(14));
    assert_eq!(
        small, large,
        "B(2,8) made {small} allocations, B(2,14) {large}"
    );
}

#[test]
fn clones_and_machines_share_the_csr() {
    let _guard = serial_guard();
    let db = DeBruijn2::new(12);
    let g = db.graph();
    assert_eventually_alloc_free("Graph::clone", || {
        std::hint::black_box(g.clone());
    });
    let clone = g.clone();
    assert!(std::ptr::eq(clone.csr().0, g.csr().0));
    assert!(std::ptr::eq(clone.csr().1, g.csr().1));
    // A machine allocates its healthy fault bitset, one bit per node, and
    // nothing for the CSR (20 bytes per node here).
    let (_, bytes) = fewest_allocations(|| PhysicalMachine::new(g.clone(), PortModel::MultiPort));
    let fault_bitset = g.node_count().div_ceil(64) * 8;
    assert!(
        bytes <= fault_bitset as u64,
        "PhysicalMachine::new allocated {bytes} bytes; its fault bitset takes {fault_bitset}"
    );
    let machine = PhysicalMachine::new(g.clone(), PortModel::MultiPort);
    assert!(std::ptr::eq(machine.graph().csr().1, g.csr().1));
}
