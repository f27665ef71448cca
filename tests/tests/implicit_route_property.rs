//! Property suite for the implicit O(1) next-hop generators.
//!
//! The sharded million-node engine never materializes oblivious routes: it
//! recomputes each hop from two words of shift-register state
//! (`ftdb_sim::congestion::implicit_route`). These properties pin the
//! generators to the materialized loaders hop for hop — on healthy machines
//! and on reconfigured fault-tolerant machines (where the embedding is a
//! non-identity placement) — at random `(h, src, dst)` well beyond the
//! exhaustive small-`h` unit tests.

use ftdb_core::{FaultSet, FtDeBruijn2};
use ftdb_graph::Embedding;
use ftdb_sim::congestion::implicit_route::{apply_place, hops_left, next_hop, rem_init};
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::routing::route_logical_debruijn_into;
use ftdb_topology::DeBruijn2;
use proptest::prelude::*;

/// Walks the de Bruijn shift register from logical `s` to logical `t` under
/// `place`, returning the physical node sequence (self-steps and placement
/// collapses skipped — the loader's path representation).
fn implicit_physical_path(place: &[u32], h: u32, s: u32, t: u32) -> Vec<u32> {
    let mask = (1u32 << h) - 1;
    let start = apply_place(place, s);
    let mut out = vec![start];
    let (mut phys, mut pos, mut rem) = (start, s, rem_init(h, t));
    while let Some((p, np, nr, key)) = next_hop(place, mask, phys, pos, rem) {
        // The key names the shift that left `phys`: from a label placed on
        // `phys` to the new position (the successor-slot table's index).
        assert_eq!(key & mask, np, "key {key} does not end at {np}");
        assert_eq!(
            apply_place(place, key >> 1),
            phys,
            "key {key} starts off {phys}"
        );
        out.push(p);
        phys = p;
        pos = np;
        rem = nr;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Healthy B(2,h): the generator reproduces the materialized logical
    /// route (identity placement) for random endpoints up to h = 16.
    #[test]
    fn implicit_matches_materialized_on_healthy_b2h(
        h in 2u32..17,
        s in 0u32..u32::MAX,
        t in 0u32..u32::MAX,
    ) {
        let n = 1u32 << h;
        let (s, t) = (s % n, t % n);
        let db = DeBruijn2::new(h as usize);
        let mut want = Vec::new();
        db.route_into(s as usize, t as usize, &mut want);
        let want: Vec<u32> = want.iter().map(|&x| x as u32).collect();
        let got = implicit_physical_path(&[], h, s, t);
        prop_assert_eq!(&got, &want, "h={} s={} t={}", h, s, t);
        prop_assert_eq!(
            hops_left(&[], n - 1, s, s, rem_init(h, t)) as usize,
            want.len() - 1
        );
    }

    /// Reconfigured B^k(2,h): after random faults and Theorem 1
    /// reconfiguration, the generator — fed the placement map — reproduces
    /// the physical path the materialized loader builds through the
    /// surviving machine.
    #[test]
    fn implicit_matches_materialized_on_reconfigured_b2h(
        h in 3usize..9,
        k in 1usize..4,
        seed in 0u64..10_000,
        raw_s in 0u32..u32::MAX,
        raw_t in 0u32..u32::MAX,
    ) {
        let ft = FtDeBruijn2::new(h, k);
        let db = ft.target().clone();
        let n = db.node_count() as u32;
        let (s, t) = (raw_s % n, raw_t % n);
        let mut rng = ftdb_tests::seeded_rng(seed);
        let faults = FaultSet::random(ft.node_count(), k, &mut rng).expect("k within node count");
        let phi = ft.reconfigure_verified(&faults).expect("Theorem 1");
        let machine =
            PhysicalMachine::with_faults(ft.graph().clone(), faults, PortModel::MultiPort);
        let mut want = Vec::new();
        route_logical_debruijn_into(&db, &phi, &machine, s as usize, t as usize, &mut want)
            .expect("reconfigured machine hosts every logical route");
        let want: Vec<u32> = want.iter().map(|&x| x as u32).collect();
        let place: Vec<u32> = phi.as_slice().iter().map(|&x| x as u32).collect();
        let got = implicit_physical_path(&place, h as u32, s, t);
        prop_assert_eq!(&got, &want, "h={} k={} s={} t={}", h, k, s, t);
    }

    /// Identity-placement walks agree with the explicitly-elided placement
    /// the engine uses for healthy machines (empty slice == identity map).
    #[test]
    fn elided_placement_is_the_identity_placement(
        h in 2u32..11,
        raw_s in 0u32..u32::MAX,
        raw_t in 0u32..u32::MAX,
    ) {
        let n = 1u32 << h;
        let (s, t) = (raw_s % n, raw_t % n);
        let ident = Embedding::identity(n as usize);
        let place: Vec<u32> = ident.as_slice().iter().map(|&x| x as u32).collect();
        prop_assert_eq!(
            implicit_physical_path(&place, h, s, t),
            implicit_physical_path(&[], h, s, t)
        );
    }
}

/// The route state behind the walks above is the loader's actual packet
/// state: a spot check that `ShardedSim` delivers a random reconfigured-size
/// workload with every latency equal to the implicit hop count when the
/// network is uncontended (one packet at a time).
#[test]
fn implicit_hop_counts_are_the_uncontended_latencies() {
    use ftdb_sim::{CongestionConfig, ShardedSim};
    let h = 7u32;
    let db = DeBruijn2::new(h as usize);
    let n = db.node_count();
    let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
    let mut rng = ftdb_tests::seeded_rng(42);
    let pairs: Vec<(usize, usize)> = (0..64)
        .map(|_| {
            use rand::RngExt;
            (rng.random_range(0..n), rng.random_range(0..n))
        })
        .collect();
    // One packet in flight at a time: inject each after the previous has
    // certainly drained (h cycles apart is enough headroom at 2h spacing).
    let injections: Vec<(u32, usize, usize)> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(s, t))| ((i as u32) * 2 * h, s, t))
        .collect();
    let mut sim = ShardedSim::new(machine, CongestionConfig::default(), 4, 1);
    sim.load_oblivious_timed(&db, &Embedding::identity(n), &injections);
    sim.run_to_quiescence();
    for (id, &(s, t)) in pairs.iter().enumerate() {
        let hops = hops_left(&[], (1 << h) - 1, s as u32, s as u32, rem_init(h, t as u32));
        let (inject_at, delivered_at, dropped_at) = sim.packet_outcome(id);
        assert_eq!(dropped_at, None, "packet {id} dropped");
        assert_eq!(inject_at, (id as u32) * 2 * h);
        // A packet makes its first hop in the cycle it is injected, so an
        // uncontended h-hop route delivers at `inject + hops - 1` (zero-hop
        // packets resolve at injection).
        assert_eq!(
            delivered_at,
            Some(inject_at + hops.saturating_sub(1)),
            "packet {id} ({s}->{t}): latency must equal the implicit hop count"
        );
    }
}
