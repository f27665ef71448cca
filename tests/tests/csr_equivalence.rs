//! Property tests asserting the CSR `Graph` is identical to the seed
//! `Vec<Vec<NodeId>>` adjacency representation: the same `csr()` arrays,
//! bit for bit, for every constructor family and for random edge lists,
//! the same observables (neighbour order, `has_edge`, `edge_slot`,
//! `degree`, BFS distances), and the same `GraphError` for every invalid
//! `Graph::from_adjacency` input.

use ftdb_core::bus::BusArchitecture;
use ftdb_core::lowerbound::{offset_graph, shaved_offset_candidates};
use ftdb_core::{FtDeBruijn2, FtDeBruijnM, FtShuffleExchange, NaturalFtShuffleExchange};
use ftdb_graph::builder::graph_from_edges;
use ftdb_graph::graph::GraphError;
use ftdb_graph::{generators, ops, traversal, BitSet, Graph, GraphBuilder, NodeId};
use ftdb_topology::hypercube::Hypercube;
use ftdb_topology::{DeBruijn2, DeBruijnM, ShuffleExchange};
use proptest::prelude::*;
use rand::RngExt;
use std::collections::VecDeque;

/// The seed representation: plain sorted, de-duplicated adjacency lists.
/// This mirrors the pre-CSR `Graph` internals exactly.
struct ReferenceGraph {
    adjacency: Vec<Vec<NodeId>>,
}

impl ReferenceGraph {
    fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut adjacency = vec![Vec::new(); n];
        for &(u, v) in edges {
            if u == v {
                continue; // self-loops elided, as in GraphBuilder
            }
            adjacency[u].push(v);
            adjacency[v].push(u);
        }
        for list in &mut adjacency {
            list.sort_unstable();
            list.dedup();
        }
        ReferenceGraph { adjacency }
    }

    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adjacency[v]
    }

    /// The seed's CSR packing of the sorted lists.
    fn csr(&self) -> (Vec<u32>, Vec<u32>) {
        let mut offsets = vec![0u32];
        let mut neighbors = Vec::new();
        for list in &self.adjacency {
            neighbors.extend(list.iter().map(|&u| u as u32));
            offsets.push(neighbors.len() as u32);
        }
        (offsets, neighbors)
    }

    fn degree(&self, v: NodeId) -> usize {
        self.adjacency[v].len()
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u < self.adjacency.len()
            && v < self.adjacency.len()
            && self.adjacency[u].binary_search(&v).is_ok()
    }

    fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Textbook BFS on the reference lists.
    fn bfs_distances(&self, source: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.adjacency.len()];
        let mut queue = VecDeque::new();
        dist[source] = Some(0);
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].unwrap();
            for &v in &self.adjacency[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }
}

/// Checks the CSR arrays and every observable of the CSR graph against the
/// reference model.
fn assert_observationally_equal(csr: &Graph, reference: &ReferenceGraph) {
    let n = csr.node_count();
    assert_eq!(n, reference.adjacency.len());
    let (offsets, neighbors) = reference.csr();
    assert_eq!(csr.csr(), (&offsets[..], &neighbors[..]));
    assert_eq!(csr.edge_count(), reference.edge_count());
    for v in 0..n {
        assert_eq!(csr.degree(v), reference.degree(v), "degree of {v}");
        let csr_neighbors: Vec<NodeId> = csr.neighbor_ids(v).collect();
        assert_eq!(csr_neighbors, reference.neighbors(v), "neighbours of {v}");
    }
    // has_edge over all pairs (plus a few out-of-range probes).
    for u in 0..n {
        for v in 0..n {
            assert_eq!(
                csr.has_edge(u, v),
                reference.has_edge(u, v),
                "has_edge({u},{v})"
            );
        }
    }
    assert!(!csr.has_edge(n, 0));
    assert!(!csr.has_edge(0, n + 7));
    // BFS distances from a spread of sources.
    for source in (0..n).step_by((n / 8).max(1)) {
        assert_eq!(
            traversal::bfs_distances(csr, source),
            reference.bfs_distances(source),
            "BFS from {source}"
        );
    }
    csr.check_invariants().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random multigraph input (see `messy_edges`): the builder,
    /// `graph_from_edges` and `Graph::from_adjacency` fill the seed's CSR,
    /// and the graph agrees with the seed representation on everything
    /// observable.
    #[test]
    fn csr_matches_reference_on_random_graphs(n in 0usize..49, density in 0usize..4, seed in 0u64..10_000) {
        let edges = messy_edges(n, density, seed);
        let mut builder = GraphBuilder::new(n);
        for &(u, v) in &edges {
            builder.add_edge(u, v);
        }
        let csr = builder.build();
        let reference = ReferenceGraph::from_edges(n, &edges);
        assert_observationally_equal(&csr, &reference);
        assert_eq!(graph_from_edges(n, &edges).csr(), csr.csr());
        let raw = Graph::from_adjacency(raw_adjacency(n, &edges), String::new()).unwrap();
        assert_eq!(raw.csr(), csr.csr());
        // The random rows stay short (the linear-scan branch); a complete
        // graph on the same nodes has rows past 32 (the binary search).
        assert_edge_slot_matches_row_scan(&csr);
        assert_edge_slot_matches_row_scan(&generators::complete(n));
    }
}

/// `edge_slot(u, v)` agrees with a plain scan of row `u` for every pair,
/// out-of-range endpoints included (no slot).
fn assert_edge_slot_matches_row_scan(graph: &Graph) {
    let n = graph.node_count();
    let (offsets, neighbors) = graph.csr();
    for u in 0..n + 2 {
        for v in 0..n + 2 {
            let scan = if u < n && v < n {
                (offsets[u] as usize..offsets[u + 1] as usize).find(|&s| neighbors[s] as usize == v)
            } else {
                None
            };
            assert_eq!(graph.edge_slot(u, v), scan, "edge_slot({u},{v})");
        }
    }
}

#[test]
fn csr_matches_reference_on_debruijn_up_to_h10() {
    for h in 1..=10 {
        let db = DeBruijn2::new(h);
        let n = db.node_count();
        // Independent edge generation straight from the digit definition:
        // shift left (append 0/1) and shift right (prepend 0/1).
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for x in 0..n {
            edges.push((x, (x << 1) & (n - 1)));
            edges.push((x, ((x << 1) | 1) & (n - 1)));
            edges.push((x, x >> 1));
            edges.push((x, (x >> 1) | (1 << (h - 1))));
        }
        let reference = ReferenceGraph::from_edges(n, &edges);
        assert_observationally_equal(db.graph(), &reference);
        assert_observationally_equal(DeBruijn2::by_digit_definition(h).graph(), &reference);
    }
}

#[test]
fn csr_matches_reference_on_shuffle_exchange_up_to_h10() {
    for h in 1..=10 {
        let se = ShuffleExchange::new(h);
        let n = se.node_count();
        // Independent edge generation from the exchange/shuffle arithmetic.
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for x in 0..n {
            edges.push((x, se.exchange(x)));
            edges.push((x, se.shuffle(x)));
        }
        let reference = ReferenceGraph::from_edges(n, &edges);
        assert_observationally_equal(se.graph(), &reference);
    }
}

/// Asserts that `g`'s CSR arrays are exactly the seed packing of `edges`.
fn assert_csr_is_reference(g: &Graph, edges: &[(NodeId, NodeId)]) {
    let (offsets, neighbors) = ReferenceGraph::from_edges(g.node_count(), edges).csr();
    assert_eq!(g.csr(), (&offsets[..], &neighbors[..]), "{}", g.name());
}

/// `(x, (m·x + r) mod n)` for every node `x` and offset `r`: the paper's
/// arithmetic edge set of `B(m,h)`, `B^k(m,h)` and the offset graphs.
fn offset_edges(n: usize, m: usize, offsets: &[i64]) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::new();
    for x in 0..n {
        for &r in offsets {
            edges.push((x, (m as i64 * x as i64 + r).rem_euclid(n as i64) as usize));
        }
    }
    edges
}

/// The offsets `lo..=hi`.
fn span(lo: i64, hi: i64) -> Vec<i64> {
    (lo..=hi).collect()
}

#[test]
fn csr_arrays_match_reference_for_every_debruijn_family() {
    for h in 1..=9 {
        let n = 1usize << h;
        for k in 0..=3 {
            let host = FtDeBruijn2::new(h, k);
            let blocks = offset_edges(n + k, 2, &span(-(k as i64), k as i64 + 1));
            assert_csr_is_reference(host.graph(), &blocks);
            // The bus implementation loses no connectivity: B^k(2,h) again.
            assert_csr_is_reference(&BusArchitecture::from_ft(&host).implied_graph(), &blocks);
        }
    }
    for m in 2usize..=4 {
        for h in 1..=4 {
            let n = m.pow(h as u32);
            let edges = offset_edges(n, m, &span(0, m as i64 - 1));
            assert_csr_is_reference(DeBruijnM::new(m, h).graph(), &edges);
            assert_csr_is_reference(DeBruijnM::by_digit_definition(m, h).graph(), &edges);
            for k in 0..=2 {
                let (lo, hi) = ((m as i64 - 1) * k as i64, (m as i64 - 1) * (k as i64 + 1));
                let blocks = offset_edges(n + k, m, &span(-lo, hi));
                assert_csr_is_reference(FtDeBruijnM::new(m, h, k).graph(), &blocks);
            }
        }
    }
    // The lower-bound exploration's offset graphs: B^k(2,h) with one
    // offset shaved off.
    for k in 1..=3 {
        for offsets in shaved_offset_candidates(k) {
            let n = (1 << 4) + k;
            assert_csr_is_reference(&offset_graph(n, &offsets), &offset_edges(n, 2, &offsets));
        }
    }
}

#[test]
fn csr_arrays_match_reference_for_shuffle_exchange_families() {
    for h in 1..=9 {
        let n = 1usize << h;
        for k in 0..=3 {
            let blocks = offset_edges(n + k, 2, &span(-(k as i64), k as i64 + 1));
            if (3..=5).contains(&h) {
                // Hosted on B^k(2,h) through the SE ⊆ DB containment (whose
                // search is what limits h here).
                let host = FtShuffleExchange::new(h, k).expect("SE ⊆ DB embedding for h >= 3");
                assert_csr_is_reference(host.graph(), &blocks);
            }
            // Natural labeling: the same blocks plus widened exchanges.
            let mut natural = blocks;
            for x in 0..n + k {
                natural.extend((1..=k + 1).filter(|d| x + d < n + k).map(|d| (x, x + d)));
            }
            assert_csr_is_reference(NaturalFtShuffleExchange::new(h, k).graph(), &natural);
        }
    }
}

#[test]
fn csr_arrays_match_reference_for_hypercubes_and_generators() {
    for d in 1..=8 {
        let n = 1usize << d;
        let edges: Vec<_> = (0..n)
            .flat_map(|x| (0..d).map(move |b| (x, x ^ (1 << b))))
            .collect();
        assert_csr_is_reference(Hypercube::new(d).graph(), &edges);
        assert_csr_is_reference(&generators::hypercube(d as u32), &edges);
    }
    for n in 0..=12 {
        let path: Vec<_> = (1..n).map(|v| (v - 1, v)).collect();
        assert_csr_is_reference(&generators::path(n), &path);
        let mut cycle = path.clone();
        if n >= 3 {
            cycle.push((n - 1, 0));
        }
        assert_csr_is_reference(&generators::cycle(n), &cycle);
        let pairs: Vec<_> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        assert_csr_is_reference(&generators::complete(n), &pairs);
        let star: Vec<_> = (1..n).map(|leaf| (0, leaf)).collect();
        assert_csr_is_reference(&generators::star(n), &star);
        let grid: Vec<_> = (0..n * 3)
            .flat_map(|v| [(v, v + 1), (v, v + 3)])
            .filter(|&(v, w)| w < n * 3 && (w == v + 3 || w % 3 != 0))
            .collect();
        assert_csr_is_reference(&generators::grid(n, 3), &grid);
        // G(n, p) draws one coin per pair in (u, v) order.
        let mut rng = ftdb_tests::seeded_rng(n as u64);
        let gnp = generators::random_gnp(n, 0.3, &mut rng);
        let mut rng = ftdb_tests::seeded_rng(n as u64);
        let coins: Vec<_> = pairs
            .iter()
            .copied()
            .filter(|_| rng.random::<f64>() < 0.3)
            .collect();
        assert_csr_is_reference(&gnp, &coins);
        assert_csr_is_reference(&Graph::empty(n), &[]);
    }
}

#[test]
fn csr_arrays_match_reference_for_graph_operations() {
    let host = FtDeBruijn2::new(5, 2);
    let g = host.graph();
    let n = g.node_count();
    let edges: Vec<_> = g.edges().collect();
    // Induced subgraph and node removal: survivors renumbered in order.
    let kept: Vec<NodeId> = (0..n).filter(|v| v % 3 != 1).collect();
    let keep = kept.iter().fold(BitSet::new(n), |mut set, &v| {
        set.insert(v);
        set
    });
    let renumbered: Vec<_> = edges
        .iter()
        .filter_map(|&(u, v)| Some((kept.binary_search(&u).ok()?, kept.binary_search(&v).ok()?)))
        .collect();
    assert_csr_is_reference(&ops::induced_subgraph(g, &keep).graph, &renumbered);
    let removed = (0..n)
        .filter(|v| v % 3 == 1)
        .fold(BitSet::new(n), |mut set, v| {
            set.insert(v);
            set
        });
    assert_csr_is_reference(&ops::remove_nodes(g, &removed).graph, &renumbered);
    // Relabelling by x -> 7x + 3 (mod 34), a permutation.
    let perm: Vec<NodeId> = (0..n).map(|v| (7 * v + 3) % n).collect();
    let relabelled: Vec<_> = edges.iter().map(|&(u, v)| (perm[u], perm[v])).collect();
    let shuffled = ops::relabel(g, &perm);
    assert_csr_is_reference(&shuffled, &relabelled);
    // Union: overlapping edges arrive twice.
    let both: Vec<_> = edges.iter().chain(&relabelled).copied().collect();
    assert_csr_is_reference(&ops::union(g, &shuffled), &both);
    // Edges inside a node set, without renumbering.
    let inside: Vec<_> = edges
        .iter()
        .copied()
        .filter(|&(u, v)| keep.contains(u) && keep.contains(v))
        .collect();
    assert_csr_is_reference(&ops::restrict_edges(g, &keep), &inside);
}

/// A random edge list over `n` nodes with everything a builder must
/// absorb: endpoints drawn from a prefix of the nodes (the rest stay
/// isolated), then a third of the edges repeated in the reverse
/// orientation, a sixth repeated as is, and a few self-loops.
fn messy_edges(n: usize, density: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    if n == 0 {
        return Vec::new();
    }
    let mut rng = ftdb_tests::seeded_rng(seed);
    let used = rng.random_range(1..=n);
    let mut edges: Vec<_> = (0..used * (density + 1))
        .map(|_| (rng.random_range(0..used), rng.random_range(0..used)))
        .collect();
    let len = edges.len();
    for i in 0..len / 3 {
        let (u, v) = edges[rng.random_range(0..len)];
        edges.push((v, u));
        if i % 2 == 0 {
            edges.push((u, v));
        }
    }
    for _ in 0..3 {
        let x = rng.random_range(0..n);
        edges.push((x, x));
    }
    edges
}

/// Both arcs of every non-loop edge, duplicates kept, rows unsorted: raw
/// input for `Graph::from_adjacency`.
fn raw_adjacency(n: usize, edges: &[(NodeId, NodeId)]) -> Vec<Vec<NodeId>> {
    let mut adjacency = vec![Vec::new(); n];
    for &(u, v) in edges {
        if u != v {
            adjacency[u].push(v);
            adjacency[v].push(u);
        }
    }
    adjacency
}

/// The seed's validation of raw adjacency, in its order: each row in turn
/// is sorted and de-duplicated, then checked for an out-of-range
/// neighbour (reporting its largest) and then for itself; symmetry is
/// checked only once every row passed, arc by arc in row order.
fn reference_validation(mut adjacency: Vec<Vec<NodeId>>) -> Result<(), GraphError> {
    let n = adjacency.len();
    for (v, list) in adjacency.iter_mut().enumerate() {
        list.sort_unstable();
        list.dedup();
        if let Some(&last) = list.last().filter(|&&last| last >= n) {
            return Err(GraphError::OutOfRange {
                node: v,
                neighbor: last,
            });
        }
        if list.contains(&v) {
            return Err(GraphError::SelfLoop { node: v });
        }
    }
    for (v, list) in adjacency.iter().enumerate() {
        if let Some(&u) = list.iter().find(|&&u| !adjacency[u].contains(&v)) {
            return Err(GraphError::Asymmetric { u: v, v: u });
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Corrupted adjacency (self-loops, out-of-range ids, unmirrored arcs)
    /// is rejected with the seed's error, or accepted where the seed
    /// accepted it.
    #[test]
    fn from_adjacency_errors_match_the_seed_on_corrupted_lists(n in 1usize..13, corruptions in 0usize..4, seed in 0u64..10_000) {
        let mut rng = ftdb_tests::seeded_rng(seed);
        let mut adjacency = raw_adjacency(n, &messy_edges(n, 1, seed));
        for _ in 0..corruptions {
            let row = rng.random_range(0..n);
            let bad = match rng.random_range(0..3) {
                0 => row,
                1 => n + rng.random_range(0..4usize),
                _ => rng.random_range(0..n),
            };
            adjacency[row].push(bad);
        }
        let got = Graph::from_adjacency(adjacency.clone(), String::new());
        match reference_validation(adjacency) {
            Err(expected) => assert_eq!(got, Err(expected)),
            Ok(()) => assert!(got.is_ok()),
        }
    }
}

#[test]
fn from_adjacency_errors_follow_the_seed_order() {
    use GraphError::{Asymmetric, OutOfRange, SelfLoop};
    let cases: Vec<(Vec<Vec<NodeId>>, GraphError)> = vec![
        // One row both out of range and self-looped: range wins.
        (
            vec![vec![], vec![1, 7], vec![]],
            OutOfRange {
                node: 1,
                neighbor: 7,
            },
        ),
        // Out of range reports the row's largest neighbour.
        (
            vec![vec![9, 5, 1], vec![0], vec![]],
            OutOfRange {
                node: 0,
                neighbor: 9,
            },
        ),
        // The first bad row wins, whatever either error is.
        (vec![vec![0], vec![], vec![8]], SelfLoop { node: 0 }),
        (
            vec![vec![], vec![8], vec![2]],
            OutOfRange {
                node: 1,
                neighbor: 8,
            },
        ),
        // Every row passes range and self-loop checks before symmetry.
        (vec![vec![1], vec![], vec![2]], SelfLoop { node: 2 }),
        (
            vec![vec![1], vec![], vec![3]],
            OutOfRange {
                node: 2,
                neighbor: 3,
            },
        ),
        // Symmetry: the first arc, in sorted row order, without a mirror.
        (
            vec![vec![2, 1, 2], vec![], vec![0]],
            Asymmetric { u: 0, v: 1 },
        ),
        (vec![vec![1], vec![0, 2], vec![]], Asymmetric { u: 1, v: 2 }),
    ];
    for (adjacency, expected) in cases {
        assert_eq!(
            reference_validation(adjacency.clone()),
            Err(expected.clone())
        );
        let got = Graph::from_adjacency(adjacency.clone(), String::new());
        assert_eq!(got, Err(expected), "{adjacency:?}");
    }
}
