//! Breadth/depth-first traversal, connectivity and distance computations.
//!
//! The hot path is [`Searcher`], a reusable scratch object holding the
//! distance, stamp and queue buffers the searches need. A kernel that runs
//! many searches (adaptive routing, mid-run re-routing, diameter sweeps, the
//! verifier's reachability checks) creates one `Searcher` and reuses it —
//! after the first search no allocation happens, and the visited marks are
//! invalidated in O(1) per search with a round counter instead of a clear.
//!
//! A point-to-point search ([`Searcher::shortest_path_avoiding_into`] and
//! its two narrower forms) returns one specific shortest path: the
//! *lexicographically smallest* node sequence among the shortest paths of
//! the surviving directed graph. That is the parent path a forward BFS
//! returns when it scans every sorted CSR row in order. Such a BFS dequeues
//! each level in lexicographic order of the nodes' parent paths, and it
//! gives each node as parent the first dequeued node with an open arc to
//! it, which is the end of the smallest shortest path to that node. The
//! search meets that contract bidirectionally: it grows two balls of radius
//! about `D/2`, around the source and around the target, instead of one of
//! radius `D`. It then walks from the source, taking at each step the
//! lowest-id open neighbour that stays on a shortest path.
//!
//! The free functions ([`bfs_distances`], [`shortest_path`], …) are
//! convenience wrappers that allocate a fresh `Searcher` per call; they keep
//! the simple API for tests and one-off computations.

use crate::bitset::BitSet;
use crate::graph::{Graph, NodeId};

/// Reusable search scratch: preallocated distance, stamp and queue buffers
/// for the forward side (a BFS, or the source half of a path search) and
/// the backward side (the target half of a path search).
///
/// All searches share the buffers; a round counter invalidates previous
/// results without clearing, so a search costs `O(reached + edges scanned)`
/// with zero heap allocation once the buffers have grown to the graph size.
///
/// A path search returns the lexicographically smallest shortest path (see
/// the module docs), so its result does not depend on how the two sides
/// split the work, and it equals the path of the forward BFS it replaced.
#[derive(Clone, Debug, Default)]
pub struct Searcher {
    /// Distance from the source of each node with `mark[v] == round`.
    dist: Vec<u32>,
    /// Forward round stamps.
    mark: Vec<u32>,
    /// Distance to the target of each node with `back_mark[v] == round`.
    back_dist: Vec<u32>,
    /// Backward round stamps.
    back_mark: Vec<u32>,
    /// Forward nodes in BFS order; each level is a contiguous run.
    queue: Vec<u32>,
    /// Backward nodes in BFS order; each level is a contiguous run.
    back_queue: Vec<u32>,
    round: u32,
    reached: usize,
    max_dist: u32,
    sum_dist: u64,
}

impl Searcher {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Searcher::default()
    }

    /// Creates a scratch with buffers sized for graphs of `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Searcher::new();
        s.ensure(n);
        s
    }

    fn ensure(&mut self, n: usize) {
        if self.mark.len() < n {
            self.dist.resize(n, 0);
            self.mark.resize(n, 0);
            self.back_dist.resize(n, 0);
            self.back_mark.resize(n, 0);
        }
    }

    /// Starts a new search round: bumps the round stamp (resetting every
    /// stamp array only on the rare wrap-around) and clears the per-search
    /// statistics.
    fn begin(&mut self, n: usize) {
        self.ensure(n);
        if self.round == u32::MAX {
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.back_mark.iter_mut().for_each(|m| *m = 0);
            self.round = 0;
        }
        self.round += 1;
        self.queue.clear();
        self.back_queue.clear();
        self.reached = 0;
        self.max_dist = 0;
        self.sum_dist = 0;
    }

    fn visit(&mut self, v: usize, d: u32) {
        self.mark[v] = self.round;
        self.dist[v] = d;
        self.queue.push(v as u32);
        self.reached += 1;
        self.max_dist = self.max_dist.max(d);
        self.sum_dist += d as u64;
    }

    fn back_visit(&mut self, v: usize, d: u32) {
        self.back_mark[v] = self.round;
        self.back_dist[v] = d;
        self.back_queue.push(v as u32);
        self.reached += 1;
    }

    /// Runs a full BFS from `source`, filling the distance table.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn bfs(&mut self, g: &Graph, source: NodeId) {
        self.bfs_filtered(g, source, |_| true);
    }

    /// Runs a full BFS from `source` restricted to nodes satisfying `allow`
    /// (the source itself is visited regardless — callers that need to
    /// exclude it check it first, as the routing layer does for faults).
    pub fn bfs_filtered<F: Fn(NodeId) -> bool>(&mut self, g: &Graph, source: NodeId, allow: F) {
        assert!(source < g.node_count(), "source out of range");
        self.begin(g.node_count());
        self.visit(source, 0);
        let mut head = 0usize;
        while head < self.queue.len() {
            let u = self.queue[head] as usize;
            head += 1;
            let du = self.dist[u];
            for &v in g.neighbors(u) {
                let vi = v as usize;
                if self.mark[vi] != self.round && allow(vi) {
                    self.visit(vi, du + 1);
                }
            }
        }
    }

    /// Writes the lexicographically smallest shortest path from `source` to
    /// `target` (source and target inclusive) into `out` — the path a
    /// forward BFS that stops at `target` would return.
    ///
    /// Returns `true` and fills `out` if a path exists; returns `false` and
    /// leaves `out` empty otherwise. `out` is cleared first and reused — no
    /// allocation once its capacity covers the path length.
    pub fn shortest_path_into(
        &mut self,
        g: &Graph,
        source: NodeId,
        target: NodeId,
        out: &mut Vec<NodeId>,
    ) -> bool {
        self.shortest_path_filtered_into(g, source, target, |_| true, out)
    }

    /// [`Searcher::shortest_path_into`] restricted to nodes satisfying
    /// `allow`. The search fails immediately if the source or target is
    /// disallowed.
    pub fn shortest_path_filtered_into<F: Fn(NodeId) -> bool>(
        &mut self,
        g: &Graph,
        source: NodeId,
        target: NodeId,
        allow: F,
        out: &mut Vec<NodeId>,
    ) -> bool {
        self.shortest_path_avoiding_into(g, source, target, allow, |_| true, out)
    }

    /// [`Searcher::shortest_path_filtered_into`] with an additional filter on
    /// directed CSR edge slots: the hop `u → v` stored at index `s` of the
    /// CSR adjacency array is taken only when `allow_slot(s)` holds, so a
    /// search can route around individual dead directed links rather than
    /// whole nodes. When `allow_slot` admits every slot the returned path is
    /// identical to the node-only variant's.
    ///
    /// The search has four steps:
    /// 1. Expand whole levels from the source over open arcs and from the
    ///    target over open reverse arcs, always on the side with the smaller
    ///    frontier. The reverse arc `u → v` is open when `allow(u)` and
    ///    `allow_slot` of the slot `u → v` hold; that slot is found by binary
    ///    search in `u`'s sorted row.
    /// 2. Stop at the first level where the two sides meet. The distance is
    ///    then `D = r_f + r_b`, and every node of the meeting layer (forward
    ///    level `r_f`) lies at distance `r_b` from the target. A backward
    ///    level is finished before stopping, so each of those nodes carries
    ///    that distance.
    /// 3. Mark the forward nodes that reach the meeting layer along forward
    ///    levels: exactly the ones on a shortest path, each with its exact
    ///    distance to the target.
    /// 4. Walk from the source, taking at each step the lowest-id open
    ///    neighbour whose distance to the target is one less. Every node of
    ///    every shortest path is marked, so this greedy choice builds the
    ///    lexicographically smallest one.
    pub fn shortest_path_avoiding_into<F, E>(
        &mut self,
        g: &Graph,
        source: NodeId,
        target: NodeId,
        allow: F,
        allow_slot: E,
        out: &mut Vec<NodeId>,
    ) -> bool
    where
        F: Fn(NodeId) -> bool,
        E: Fn(usize) -> bool,
    {
        assert!(
            source < g.node_count() && target < g.node_count(),
            "path endpoints out of range"
        );
        out.clear();
        if !allow(source) || !allow(target) {
            return false;
        }
        if source == target {
            out.push(source);
            return true;
        }
        self.begin(g.node_count());
        self.visit(source, 0);
        self.back_visit(target, 0);
        // Steps 1-2. The deepest levels are `queue[f_lo..]` at radius `rf`
        // and `back_queue[b_lo..]` at radius `rb`.
        let (mut f_lo, mut rf) = (0usize, 0u32);
        let (mut b_lo, mut rb) = (0usize, 0u32);
        loop {
            let (f_hi, b_hi) = (self.queue.len(), self.back_queue.len());
            if f_lo == f_hi || b_lo == b_hi {
                // One side exhausted its component without meeting the other.
                return false;
            }
            let met = if f_hi - f_lo <= b_hi - b_lo {
                rf += 1;
                let met = self.expand_forward(g, &allow, &allow_slot, f_lo..f_hi, rf);
                f_lo = f_hi;
                met
            } else {
                rb += 1;
                let met = self.expand_backward(g, &allow, &allow_slot, b_lo..b_hi, rb);
                b_lo = b_hi;
                met
            };
            if met {
                break;
            }
        }
        let (offsets, neighbors) = g.csr();
        let d = rf + rb;
        // Step 3, deepest level first: `queue[1..f_lo]` holds the forward
        // levels strictly between the source and the meeting layer.
        for i in (1..f_lo).rev() {
            let u = self.queue[i] as usize;
            let want = d - self.dist[u] - 1;
            let row = offsets[u] as usize..offsets[u + 1] as usize;
            let on_path = row
                .clone()
                .zip(&neighbors[row])
                .any(|(s, &w)| self.to_target(w as usize) == Some(want) && allow_slot(s));
            if on_path {
                self.back_mark[u] = self.round;
                self.back_dist[u] = want + 1;
            }
        }
        // Step 4: rows are sorted, so the first match is the lowest id.
        out.push(source);
        let mut cur = source;
        for left in (0..d).rev() {
            let row = offsets[cur] as usize..offsets[cur + 1] as usize;
            let next = row
                .clone()
                .zip(&neighbors[row])
                .find(|&(s, &w)| self.to_target(w as usize) == Some(left) && allow_slot(s));
            let Some((_, &w)) = next else { break };
            cur = w as usize;
            out.push(cur);
        }
        debug_assert_eq!(cur, target, "every marked node has a marked successor");
        true
    }

    /// The distance to the target the last path search recorded for `v`.
    fn to_target(&self, v: usize) -> Option<u32> {
        (self.back_mark[v] == self.round).then_some(self.back_dist[v])
    }

    /// Expands the forward level `queue[level]` to distance `d` over open
    /// arcs. Returns `true` at the first new node that the backward side
    /// has marked, leaving the level unfinished: steps 3 and 4 read only
    /// the forward levels below the meeting layer.
    fn expand_forward<F, E>(
        &mut self,
        g: &Graph,
        allow: &F,
        allow_slot: &E,
        level: std::ops::Range<usize>,
        d: u32,
    ) -> bool
    where
        F: Fn(NodeId) -> bool,
        E: Fn(usize) -> bool,
    {
        let (offsets, neighbors) = g.csr();
        let round = self.round;
        for i in level {
            let u = self.queue[i] as usize;
            let row = offsets[u] as usize..offsets[u + 1] as usize;
            for (s, &v) in row.clone().zip(&neighbors[row]) {
                let v = v as usize;
                if self.mark[v] != round && allow(v) && allow_slot(s) {
                    self.visit(v, d);
                    if self.back_mark[v] == round {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Expands the backward level `back_queue[level]` to distance `d` over
    /// open reverse arcs, finishing the level even once the sides meet, so
    /// that every node of the meeting layer carries its distance to the
    /// target. Returns whether a new node carries a forward mark.
    fn expand_backward<F, E>(
        &mut self,
        g: &Graph,
        allow: &F,
        allow_slot: &E,
        level: std::ops::Range<usize>,
        d: u32,
    ) -> bool
    where
        F: Fn(NodeId) -> bool,
        E: Fn(usize) -> bool,
    {
        let (offsets, neighbors) = g.csr();
        let round = self.round;
        let mut met = false;
        for i in level {
            let v = self.back_queue[i];
            let v_row = offsets[v as usize] as usize..offsets[v as usize + 1] as usize;
            for &u in &neighbors[v_row] {
                let u = u as usize;
                if self.back_mark[u] == round || !allow(u) {
                    continue;
                }
                // The adjacency is symmetric, so `v` is in `u`'s row.
                let row = offsets[u] as usize..offsets[u + 1] as usize;
                let Ok(k) = neighbors[row.clone()].binary_search(&v) else {
                    continue;
                };
                if allow_slot(row.start + k) {
                    self.back_visit(u, d);
                    met |= self.mark[u] == round;
                }
            }
        }
        met
    }

    /// The distance of `v` from the source of the last [`Searcher::bfs`] or
    /// [`Searcher::bfs_filtered`], if reached. Not meaningful after a path
    /// search, which stops early.
    pub fn distance(&self, v: NodeId) -> Option<usize> {
        (self.mark[v] == self.round).then_some(self.dist[v] as usize)
    }

    /// Number of nodes marked by the last search. After a BFS these are the
    /// nodes reached, source included. After a path search they are the
    /// nodes marked by the forward and the backward side together (a node
    /// both sides marked counts twice), the measure of its work.
    pub fn reached(&self) -> usize {
        self.reached
    }

    /// Maximum distance reached by the last BFS (the source eccentricity
    /// when the search reached the whole graph). Valid after
    /// [`Searcher::bfs`] and [`Searcher::bfs_filtered`] only.
    pub fn max_distance(&self) -> usize {
        self.max_dist as usize
    }

    /// Sum of the distances of all nodes reached by the last BFS. Valid
    /// after [`Searcher::bfs`] and [`Searcher::bfs_filtered`] only.
    pub fn sum_distances(&self) -> u64 {
        self.sum_dist
    }
}

/// Breadth-first search from `source`.
///
/// Returns a vector `dist` where `dist[v]` is the hop distance from `source`
/// to `v`, or `None` if `v` is unreachable. Allocates the result and a fresh
/// [`Searcher`]; hot loops should hold their own `Searcher` instead.
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<Option<usize>> {
    let mut s = Searcher::new();
    s.bfs(g, source);
    g.nodes().map(|v| s.distance(v)).collect()
}

/// Returns a shortest path from `source` to `target` (inclusive of both) as a
/// list of node ids, or `None` if no path exists.
pub fn shortest_path(g: &Graph, source: NodeId, target: NodeId) -> Option<Vec<NodeId>> {
    let mut s = Searcher::new();
    let mut path = Vec::new();
    s.shortest_path_into(g, source, target, &mut path)
        .then_some(path)
}

/// Depth-first preorder starting from `source`, restricted to the connected
/// component of `source`.
pub fn dfs_preorder(g: &Graph, source: NodeId) -> Vec<NodeId> {
    assert!(source < g.node_count());
    let mut visited = BitSet::new(g.node_count());
    let mut order = Vec::new();
    let mut stack = vec![source];
    while let Some(u) = stack.pop() {
        if !visited.insert(u) {
            continue;
        }
        order.push(u);
        // Push in reverse so lower-numbered neighbours are visited first.
        for &v in g.neighbors(u).iter().rev() {
            if !visited.contains(v as NodeId) {
                stack.push(v as NodeId);
            }
        }
    }
    order
}

/// Computes the connected components of `g`.
///
/// Returns `(component_of, count)` where `component_of[v]` is the component
/// index of node `v` and `count` is the number of components.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.node_count();
    let mut comp = vec![usize::MAX; n];
    let mut queue: Vec<u32> = Vec::new();
    let mut count = 0;
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        queue.clear();
        comp[start] = count;
        queue.push(start as u32);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            for &v in g.neighbors(u) {
                if comp[v as usize] == usize::MAX {
                    comp[v as usize] = count;
                    queue.push(v);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

/// Returns `true` if the graph is connected (the empty graph and the
/// single-node graph count as connected).
pub fn is_connected(g: &Graph) -> bool {
    g.node_count() <= 1 || connected_components(g).1 == 1
}

/// The eccentricity of `v`: the maximum distance from `v` to any reachable
/// node. Returns `None` if some node is unreachable from `v`.
pub fn eccentricity(g: &Graph, v: NodeId) -> Option<usize> {
    let mut s = Searcher::new();
    s.bfs(g, v);
    (s.reached() == g.node_count()).then(|| s.max_distance())
}

/// The diameter of the graph (maximum eccentricity), or `None` if the graph
/// is disconnected or empty.
///
/// Runs a BFS from every node through one shared [`Searcher`]:
/// `O(V · (V + E))` time, `O(V)` scratch allocated once.
pub fn diameter(g: &Graph) -> Option<usize> {
    if g.node_count() == 0 {
        return None;
    }
    let mut s = Searcher::with_capacity(g.node_count());
    let mut diam = 0;
    for v in g.nodes() {
        s.bfs(g, v);
        if s.reached() != g.node_count() {
            return None;
        }
        diam = diam.max(s.max_distance());
    }
    Some(diam)
}

/// The average shortest-path distance over all ordered pairs of distinct
/// nodes, or `None` if the graph is disconnected or has fewer than 2 nodes.
pub fn average_distance(g: &Graph) -> Option<f64> {
    let n = g.node_count();
    if n < 2 {
        return None;
    }
    let mut s = Searcher::with_capacity(n);
    let mut total = 0u64;
    for v in g.nodes() {
        s.bfs(g, v);
        if s.reached() != n {
            return None;
        }
        total += s.sum_distances();
    }
    Some(total as f64 / (n * (n - 1)) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The forward BFS the bidirectional search replaced, kept as its
    /// reference: it scans sorted rows in queue order, stops once `target`
    /// is reached and returns the parent path.
    fn reference_path(
        g: &Graph,
        source: NodeId,
        target: NodeId,
        allow: impl Fn(NodeId) -> bool,
        allow_slot: impl Fn(usize) -> bool,
    ) -> Option<Vec<NodeId>> {
        if !allow(source) || !allow(target) {
            return None;
        }
        if source == target {
            return Some(vec![source]);
        }
        let (offsets, neighbors) = g.csr();
        let mut parent = vec![u32::MAX; g.node_count()];
        parent[source] = source as u32;
        let mut queue = vec![source];
        let mut head = 0;
        'search: while head < queue.len() {
            let u = queue[head];
            head += 1;
            let row = offsets[u] as usize..offsets[u + 1] as usize;
            for (s, &v) in row.clone().zip(&neighbors[row]) {
                let v = v as usize;
                if parent[v] == u32::MAX && allow(v) && allow_slot(s) {
                    parent[v] = u as u32;
                    queue.push(v);
                    if v == target {
                        break 'search;
                    }
                }
            }
        }
        if parent[target] == u32::MAX {
            return None;
        }
        let mut path = vec![target];
        while path[path.len() - 1] != source {
            path.push(parent[path[path.len() - 1]] as usize);
        }
        path.reverse();
        Some(path)
    }

    /// The undirected binary de Bruijn graph B(2,h): `x` is adjacent to
    /// `2x` and `2x + 1` modulo `2^h`, self-loops elided.
    fn de_bruijn(h: u32) -> Graph {
        let n = 1usize << h;
        let mut b = crate::GraphBuilder::new(n);
        b.add_edges((0..n).flat_map(|x| [(x, 2 * x % n), (x, (2 * x + 1) % n)]));
        b.build()
    }

    /// One graph of family `kind` (B(2,h), path, cycle, complete,
    /// hypercube, grid, G(n,p)) at scale `size` in `1..=10`.
    fn family(kind: usize, size: usize, rng: &mut StdRng) -> Graph {
        match kind {
            0 => de_bruijn(size as u32),
            1 => generators::path(3 * size),
            2 => generators::cycle(3 * size + 2),
            3 => generators::complete(size + 1),
            4 => generators::hypercube(size.min(8) as u32),
            5 => generators::grid(size, size + 3),
            _ => {
                let p = 0.05 + 0.3 * rng.random::<f64>();
                generators::random_gnp(6 * size, p, rng)
            }
        }
    }

    /// Asserts that every path search of `s` agrees with the reference on
    /// `g` for the node filter `alive` and the slot filter `open`.
    fn assert_matches_reference(
        s: &mut Searcher,
        g: &Graph,
        alive: &[bool],
        open: &[bool],
        (a, b): (NodeId, NodeId),
    ) {
        let check = |what: &str, found: bool, out: &[NodeId], want: Option<Vec<NodeId>>| {
            let want_found = want.is_some();
            let want = want.unwrap_or_default();
            assert_eq!(
                (found, out),
                (want_found, &want[..]),
                "{} {a}->{b}: {what}",
                g.name()
            );
        };
        let mut out = Vec::new();
        let found = s.shortest_path_avoiding_into(g, a, b, |v| alive[v], |sl| open[sl], &mut out);
        let want = reference_path(g, a, b, |v| alive[v], |sl| open[sl]);
        check("both filters", found, &out, want);
        let found = s.shortest_path_filtered_into(g, a, b, |v| alive[v], &mut out);
        let want = reference_path(g, a, b, |v| alive[v], |_| true);
        check("node filter", found, &out, want);
        let found = s.shortest_path_into(g, a, b, &mut out);
        let want = reference_path(g, a, b, |_| true, |_| true);
        check("no filter", found, &out, want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn bidirectional_search_returns_the_bfs_path(
            kind in 0usize..7,
            size in 1usize..11,
            seed in 0u64..1_000_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = family(kind, size, &mut rng);
            let n = g.node_count();
            prop_assume!(n > 0);
            let keep = [1.0, 0.95, 0.8, 0.6];
            let node_keep = keep[rng.random_range(0..keep.len())];
            let slot_keep = keep[rng.random_range(0..keep.len())];
            let alive: Vec<bool> = (0..n).map(|_| rng.random::<f64>() < node_keep).collect();
            let open: Vec<bool> =
                g.csr().1.iter().map(|_| rng.random::<f64>() < slot_keep).collect();
            let mut s = Searcher::new();
            for _ in 0..24 {
                let pair = (rng.random_range(0..n), rng.random_range(0..n));
                assert_matches_reference(&mut s, &g, &alive, &open, pair);
            }
        }
    }

    #[test]
    fn round_counter_wrap_leaks_no_stale_stamp() {
        // Small stamps left behind in every stamp array by early rounds come
        // back into range once the counter wraps; the wrap must clear them.
        let g = de_bruijn(6);
        let n = g.node_count();
        let mut rng = StdRng::seed_from_u64(6);
        let mut s = Searcher::new();
        let all = vec![true; g.csr().1.len()];
        for _ in 0..8 {
            let pair = (rng.random_range(0..n), rng.random_range(0..n));
            assert_matches_reference(&mut s, &g, &vec![true; n], &all, pair);
        }
        s.round = u32::MAX - 5;
        let alive: Vec<bool> = (0..n).map(|v| v % 7 != 3).collect();
        let open: Vec<bool> = (0..all.len()).map(|sl| sl % 5 != 1).collect();
        for _ in 0..40 {
            let pair = (rng.random_range(0..n), rng.random_range(0..n));
            assert_matches_reference(&mut s, &g, &alive, &open, pair);
        }
        assert!(s.round < 200, "the counter wrapped");
        s.bfs_filtered(&g, 0, |v| alive[v]);
        let reference = {
            let mut fresh = Searcher::new();
            fresh.bfs_filtered(&g, 0, |v| alive[v]);
            fresh
        };
        for v in 0..n {
            assert_eq!(s.distance(v), reference.distance(v), "node {v}");
        }
        assert_eq!(s.reached(), reference.reached());
    }

    #[test]
    fn path_search_counts_the_marks_of_both_sides() {
        // C8 from 0 to 4, expanding the smaller frontier (forward on ties):
        // forward {0}, {1, 7}, backward {4}, {3, 5}, forward {2, 6}, then
        // forward again reaches 3, which the backward side already marked.
        // That is six forward and three backward marks, node 3 in both.
        let c = generators::cycle(8);
        let mut s = Searcher::new();
        let mut out = Vec::new();
        assert!(s.shortest_path_into(&c, 0, 4, &mut out));
        assert_eq!(out, vec![0, 1, 2, 3, 4], "the lexicographically smallest");
        assert_eq!(s.reached(), 9);
    }

    #[test]
    fn bfs_on_path() {
        let p = generators::path(5);
        let dist = bfs_distances(&p, 0);
        assert_eq!(dist, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn shortest_path_on_cycle() {
        let c = generators::cycle(6);
        let path = shortest_path(&c, 0, 3).unwrap();
        assert_eq!(path.len(), 4); // distance 3
        assert_eq!(path[0], 0);
        assert_eq!(path[3], 3);
        assert_eq!(shortest_path(&c, 2, 2).unwrap(), vec![2]);
    }

    #[test]
    fn shortest_path_disconnected_is_none() {
        let g = crate::builder::graph_from_edges(4, &[(0, 1), (2, 3)]);
        assert!(shortest_path(&g, 0, 3).is_none());
    }

    #[test]
    fn searcher_is_reusable_across_graphs_and_rounds() {
        let p = generators::path(5);
        let c = generators::cycle(8);
        let mut s = Searcher::new();
        s.bfs(&p, 0);
        assert_eq!(s.distance(4), Some(4));
        assert_eq!(s.reached(), 5);
        s.bfs(&c, 0);
        assert_eq!(s.distance(4), Some(4));
        assert_eq!(s.max_distance(), 4);
        assert_eq!(s.reached(), 8);
        // Stale results from the previous round are invalidated.
        s.bfs(&p, 4);
        assert_eq!(s.distance(0), Some(4));
        assert_eq!(s.sum_distances(), (1 + 2 + 3 + 4) as u64);
    }

    #[test]
    fn searcher_filtered_search_respects_the_filter() {
        // Path 0-1-2-3-4 with node 2 disallowed: 0 and 4 are separated.
        let p = generators::path(5);
        let mut s = Searcher::new();
        let mut out = Vec::new();
        assert!(!s.shortest_path_filtered_into(&p, 0, 4, |v| v != 2, &mut out));
        assert!(out.is_empty());
        assert!(s.shortest_path_filtered_into(&p, 0, 1, |v| v != 2, &mut out));
        assert_eq!(out, vec![0, 1]);
        s.bfs_filtered(&p, 0, |v| v != 2);
        assert_eq!(s.reached(), 2);
        assert_eq!(s.distance(3), None);
    }

    #[test]
    fn slot_filtered_search_avoids_dead_directed_links() {
        // Cycle 0-1-2-3-4-5: killing the directed slot 0→1 forces the long
        // way around, while 1→0 stays usable (directed semantics).
        let c = generators::cycle(6);
        let dead = c.edge_slot(0, 1).unwrap();
        let mut s = Searcher::new();
        let mut out = Vec::new();
        assert!(s.shortest_path_avoiding_into(&c, 0, 2, |_| true, |sl| sl != dead, &mut out));
        assert_eq!(out, vec![0, 5, 4, 3, 2], "must route the long way around");
        assert!(s.shortest_path_avoiding_into(&c, 2, 0, |_| true, |sl| sl != dead, &mut out));
        assert_eq!(out, vec![2, 1, 0], "reverse direction is unaffected");
        // All slots allowed reproduces the node-only variant exactly.
        let mut reference = Vec::new();
        assert!(s.shortest_path_filtered_into(&c, 0, 3, |v| v != 1, &mut reference));
        assert!(s.shortest_path_avoiding_into(&c, 0, 3, |v| v != 1, |_| true, &mut out));
        assert_eq!(out, reference);
    }

    #[test]
    fn searcher_path_buffer_is_reused() {
        let c = generators::cycle(6);
        let mut s = Searcher::new();
        let mut out = Vec::with_capacity(8);
        assert!(s.shortest_path_into(&c, 0, 3, &mut out));
        let cap = out.capacity();
        assert!(s.shortest_path_into(&c, 1, 4, &mut out));
        assert_eq!(
            out.capacity(),
            cap,
            "buffer must be reused, not reallocated"
        );
        assert_eq!(out.len(), 4); // distance 3 either way around the cycle
        assert_eq!((out[0], out[3]), (1, 4));
    }

    #[test]
    fn dfs_visits_component() {
        let g = crate::builder::graph_from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let order = dfs_preorder(&g, 0);
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn components_and_connectivity() {
        let g = crate::builder::graph_from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[2]);
        assert_ne!(comp[0], comp[3]);
        assert!(!is_connected(&g));
        assert!(is_connected(&generators::cycle(7)));
        assert!(is_connected(&crate::Graph::empty(1)));
        assert!(is_connected(&crate::Graph::empty(0)));
    }

    #[test]
    fn diameter_of_cycle_and_complete() {
        assert_eq!(diameter(&generators::cycle(8)), Some(4));
        assert_eq!(diameter(&generators::complete(5)), Some(1));
        assert_eq!(diameter(&generators::path(4)), Some(3));
        let disconnected = crate::builder::graph_from_edges(3, &[(0, 1)]);
        assert_eq!(diameter(&disconnected), None);
    }

    #[test]
    fn eccentricity_matches_diameter_endpoint() {
        let p = generators::path(5);
        assert_eq!(eccentricity(&p, 0), Some(4));
        assert_eq!(eccentricity(&p, 2), Some(2));
    }

    #[test]
    fn average_distance_complete_graph_is_one() {
        let k = generators::complete(6);
        let avg = average_distance(&k).unwrap();
        assert!((avg - 1.0).abs() < 1e-12);
        assert!(average_distance(&crate::Graph::empty(1)).is_none());
    }
}
