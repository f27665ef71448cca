//! `(k, G)`-tolerance verification.
//!
//! The paper proves Theorems 1 and 2 analytically; this module checks them
//! *mechanically* on concrete instances, in two modes:
//!
//! * **Certified** — [`certify`] decides tolerance for every fault set at
//!   once, at any size, from each target edge's candidate host pairs.
//! * **Exhaustive** — enumerate every fault set of size `k` (there are
//!   `C(N+k, k)` of them) and check that the rank-based reconfiguration is a
//!   valid embedding for each. It counts the failing sets, and it is the
//!   oracle the certificate is tested against. The enumeration is cut into
//!   contiguous blocks, one per worker ([`crate::parallel::fan_out`]).
//!
//! Both rest on the displacement bound of the paper's proof. The rank map
//! sends target node `x` to `φ(x) = x + δ(x)`. For sorted faults
//! `f_0 < … < f_{k−1}`, `δ(x)` is the number of thresholds `f_i − i` that
//! are `≤ x`, so `δ` is non-decreasing with `0 ≤ δ(x) ≤ k` (Lemma 1), and
//! every such `δ` is some fault set's. The image of a target edge `(a, b)`,
//! `a < b`, is therefore one of the host pairs `(a + i, b + j)` with
//! `0 ≤ i ≤ j ≤ k`, and each of them is the image under some fault set.
//!
//! The exhaustive mode runs one allocation-free kernel. One mask of
//! `(k+1)²` bits per target edge, with bit `i·(k+1) + j` set when the host
//! has the edge `(a + i, b + j)`, answers every edge test of every fault set
//! exactly. The masks are built once per call, so the check does not depend
//! on the host's size.
//!
//! Each worker keeps `δ`, a per-edge "bad" flag and the number of bad
//! edges. It primes them with one full check at the first fault set of its
//! block. From there the in-place revolving-door enumerator
//! (`RevolvingDoor` in `fault.rs`) swaps one fault per step, which moves
//! at most two thresholds (by two nodes in total on average). A step
//! therefore recomputes `δ` only between each old and new threshold, and
//! re-tests only the edges incident to those nodes. A fault set passes
//! exactly when no edge is bad. Failures are collected per worker and merged
//! after the join — no `Mutex` in the hot loop. Reconfiguring, then
//! verifying the embedding, one fault set at a time stays the independent
//! reference that the kernel is tested against.
//!
//! The same machinery accepts an *arbitrary* candidate host graph, which is
//! how the experiments show that a plain de Bruijn graph with a spare node
//! bolted on is **not** `(k, G)`-tolerant — i.e. that the widened edge
//! blocks of the paper's construction are actually needed.

use crate::fault::{Combinations, FaultSet, RevolvingDoor};
use crate::parallel::fan_out;
use ftdb_graph::{Graph, NodeId};
use std::ops::Range;

/// Outcome of a tolerance verification run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ToleranceReport {
    /// Number of fault sets checked.
    pub checked: u64,
    /// Fault sets for which the rank-based reconfiguration failed
    /// (capped at [`ToleranceReport::MAX_RECORDED`] examples).
    pub failures: Vec<Vec<usize>>,
    /// Total number of failing fault sets (even beyond the recorded cap).
    pub failure_count: u64,
}

impl ToleranceReport {
    /// Maximum number of failing fault sets recorded verbatim.
    pub const MAX_RECORDED: usize = 16;

    /// `true` if at least one fault set was checked and every checked set
    /// admitted a valid reconfiguration. A run that checked none — more
    /// faults than the host has nodes, so no fault set exists — is not
    /// tolerant: such a host has fewer than `N + k` nodes and no room for
    /// the target, as [`certify`] says too.
    pub fn is_tolerant(&self) -> bool {
        self.checked > 0 && self.failure_count == 0
    }
}

/// Why [`certify`] refused a host: a fault set on which the rank map is not
/// an embedding, and the hole it falls into.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// The target edge `(a, b)`, `a < b`, whose image the host lacks, or
    /// `None` when the host has fewer than `N + k` nodes.
    pub edge: Option<(NodeId, NodeId)>,
    /// The displacements `(i, j)`, `0 ≤ i ≤ j ≤ k`, of `a` and `b`: the host
    /// has no edge `(a + i, b + j)`. `(0, 0)` when `edge` is `None`.
    pub shift: (usize, usize),
    /// At most `k` faults: nodes `0..i`, `a + i + 1..=a + j` and the top
    /// `k − j` host nodes, so the rank map moves `a` by `i` and `b` by `j`.
    pub faults: FaultSet,
}

/// Decides at once whether `host` is `(k, target)`-tolerant under the rank
/// map, for every fault set of at most `k` nodes, without enumerating them.
///
/// It passes when the host has at least `N + k` nodes and every target
/// edge `(a, b)` has all of its host pairs `(a + i, b + j)`,
/// `0 ≤ i ≤ j ≤ k`: the sorted row of each `a + i` holds `b + i..=b + k`.
/// That is `O(E·k)` row reads and no allocation. `Ok` holds exactly when
/// [`verify_exhaustive`] passes at `k` faults, and then it passes at every
/// count below. An `Err`'s witness is a fault set on which the rank map is
/// not an embedding.
pub fn certify(target: &Graph, host: &Graph, k: usize) -> Result<(), Witness> {
    let n = host.node_count();
    let refuse = |edge: Option<(NodeId, NodeId)>, (i, j): (usize, usize)| {
        let a = edge.map_or(0, |(a, _)| a);
        let nodes = (0..i).chain(a + i + 1..=a + j);
        let faults = FaultSet::from_nodes(n, nodes.chain(n.saturating_sub(k - j)..n));
        Err(Witness {
            edge,
            shift: (i, j),
            faults,
        })
    };
    if n < target.node_count().saturating_add(k) {
        return refuse(None, (0, 0));
    }
    for (a, b) in target.edges() {
        for i in 0..=k {
            let row = host.neighbors(a + i);
            let row = &row[row.partition_point(|&v| (v as usize) < b + i)..];
            // The run b + i, b + i + 1, … at the start of `row`.
            let run = row.iter().zip(b + i..=b + k);
            let held = run.take_while(|&(&v, w)| v as usize == w).count();
            if i + held <= k {
                return refuse(Some((a, b)), (i, i + held));
            }
        }
    }
    Ok(())
}

/// The displacement masks of a target's edges in a host, for fault sets of
/// at most `k` faults, with the target's edge incidence lists. Built once
/// per verification call and shared read-only by every worker.
struct EdgeMasks {
    /// Target edges `(a, b)` with `a < b`, in [`Graph::edges`] order.
    edges: Vec<(u32, u32)>,
    /// The ids of the edges incident to target node `x` are
    /// `incident[offsets[x]..offsets[x + 1]]`.
    offsets: Vec<usize>,
    incident: Vec<u32>,
    /// `k + 1`, the number of displacements a node can have.
    side: usize,
    /// One flat bitset for every `k`: edge `e`'s mask is the `(k+1)²` bits
    /// from bit `e·(k+1)²` on.
    bits: Vec<u64>,
    /// Whether the host has room for the target after `k` faults. When it
    /// has not, every fault set fails and no mask is built.
    fits: bool,
}

impl EdgeMasks {
    fn new(target: &Graph, host: &Graph, k: usize) -> Self {
        let nodes = target.node_count();
        let edges: Vec<(u32, u32)> = target.edges().map(|(a, b)| (a as u32, b as u32)).collect();
        // Incidence lists by counting sort: each node's edge ids ascend.
        let mut offsets = vec![0; nodes + 1];
        for &(a, b) in &edges {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        let mut total = 0;
        for offset in &mut offsets {
            total += *offset;
            *offset = total;
        }
        let mut incident = vec![0; total];
        let mut next = offsets.clone();
        for (&(a, b), e) in edges.iter().zip(0..) {
            for x in [a as usize, b as usize] {
                incident[next[x]] = e;
                next[x] += 1;
            }
        }
        let side = k.saturating_add(1);
        let fits = host
            .node_count()
            .checked_sub(nodes)
            .is_some_and(|spare| spare >= k);
        let mut bits = Vec::new();
        if fits {
            let area = side * side;
            bits = vec![0u64; (edges.len() * area).div_ceil(64)];
            for (e, &(a, b)) in edges.iter().enumerate() {
                let (a, b) = (a as usize, b as usize);
                // Bit (i, j) is set when b + j is in the sorted row of
                // a + i: one walk over that row's entries in b..=b + k.
                for i in 0..side.min(host.node_count() - a) {
                    let row = host.neighbors(a + i);
                    let from = row.partition_point(|&v| (v as usize) < b);
                    for &v in row[from..].iter().take_while(|&&v| v as usize <= b + k) {
                        let bit = e * area + i * side + (v as usize - b);
                        bits[bit / 64] |= 1 << (bit % 64);
                    }
                }
            }
        }
        EdgeMasks {
            edges,
            offsets,
            incident,
            side,
            bits,
            fits,
        }
    }

    /// The ids of the target edges incident to node `x`.
    fn incident(&self, x: usize) -> &[u32] {
        &self.incident[self.offsets[x]..self.offsets[x + 1]]
    }

    /// Whether edge `e` keeps a host edge when its endpoints move by the
    /// displacements in `delta`.
    fn holds(&self, e: usize, delta: &[usize]) -> bool {
        let (a, b) = self.edges[e];
        self.moved_holds(e, delta[a as usize], delta[b as usize])
    }

    /// Whether edge `e` = `(a, b)` keeps a host edge when `a` moves by `i`
    /// and `b` by `j`, both in `0..=k`: bit `(i, j)` of its mask.
    // analyzer: alloc-free
    fn moved_holds(&self, e: usize, i: usize, j: usize) -> bool {
        let bit = (e * self.side + i) * self.side + j;
        self.bits[bit / 64] >> (bit % 64) & 1 == 1
    }
}

/// One worker's incremental state over the shared [`EdgeMasks`]: `δ` under
/// the last fault set checked, its thresholds, and the edges it breaks.
struct VerifyKernel<'a> {
    masks: &'a EdgeMasks,
    /// `delta[x]` = `δ(x)`, the displacement of target node `x`.
    delta: Vec<usize>,
    /// The thresholds `f_i − i` of the last fault set, non-decreasing.
    thresholds: Vec<usize>,
    /// `bad[e]`: the images of edge `e` are not adjacent in the host.
    bad: Vec<bool>,
    /// The number of `true` entries of `bad`.
    bad_count: usize,
}

impl<'a> VerifyKernel<'a> {
    fn new(masks: &'a EdgeMasks) -> Self {
        VerifyKernel {
            masks,
            delta: vec![0; masks.offsets.len() - 1],
            thresholds: Vec::new(),
            bad: vec![false; masks.edges.len()],
            bad_count: 0,
        }
    }

    /// Full check of a sorted fault set, equivalent to reconfiguring and
    /// verifying the embedding: computes `δ` and every edge's flag from
    /// scratch.
    fn prime(&mut self, faults: &[usize]) -> bool {
        if !self.masks.fits {
            return false;
        }
        self.thresholds.clear();
        self.thresholds
            .extend(faults.iter().enumerate().map(|(i, &f)| f - i));
        for (x, d) in self.delta.iter_mut().enumerate() {
            *d = self.thresholds.partition_point(|&t| t <= x);
        }
        self.bad_count = 0;
        for (e, bad) in self.bad.iter_mut().enumerate() {
            *bad = !self.masks.holds(e, &self.delta);
            self.bad_count += usize::from(*bad);
        }
        self.bad_count == 0
    }

    /// Checks a sorted fault set of the same size as the last one checked,
    /// moving `δ` only where the thresholds moved and re-testing only the
    /// edges incident to those nodes. Exact for any such pair of sets; cheap
    /// for consecutive sets of the revolving-door order.
    fn step(&mut self, faults: &[usize]) -> bool {
        if !self.masks.fits {
            return false;
        }
        let nodes = self.delta.len();
        // δ(x) counts the thresholds ≤ x: lowering one raises δ between
        // its new and old value, raising one lowers δ there.
        for (i, (&f, &old)) in faults.iter().zip(&self.thresholds).enumerate() {
            let new = f - i;
            let moved = &mut self.delta[between(old, new, nodes)];
            if new < old {
                moved.iter_mut().for_each(|d| *d += 1);
            } else {
                moved.iter_mut().for_each(|d| *d -= 1);
            }
        }
        for (i, (&f, old)) in faults.iter().zip(&mut self.thresholds).enumerate() {
            let new = f - i;
            for x in between(*old, new, nodes) {
                for &e in self.masks.incident(x) {
                    let e = e as usize;
                    let bad = !self.masks.holds(e, &self.delta);
                    let was = std::mem::replace(&mut self.bad[e], bad);
                    self.bad_count = self.bad_count + usize::from(bad) - usize::from(was);
                }
            }
            *old = new;
        }
        self.bad_count == 0
    }
}

/// The target nodes whose `δ` changes when a threshold moves from `old` to
/// `new`: those in `[min, max)`, clipped to the `nodes` target nodes.
fn between(old: usize, new: usize, nodes: usize) -> Range<usize> {
    old.min(new).min(nodes)..old.max(new).min(nodes)
}

/// What one worker found in its block: sets checked, sets failed, and its
/// first failing sets in enumeration order.
type BlockResult = (u64, u64, Vec<Vec<usize>>);

/// Checks the fault sets `block` of the revolving-door order of the
/// `k`-subsets of `0..n`: the enumerator is advanced unchecked to the
/// block's start, the kernel primed there and stepped to the block's end.
fn check_block(masks: &EdgeMasks, n: usize, k: usize, block: Range<usize>) -> BlockResult {
    let mut kernel = VerifyKernel::new(masks);
    let mut enumerator = RevolvingDoor::new(n, k);
    for _ in 0..block.start {
        if enumerator.next_set().is_none() {
            break;
        }
    }
    let mut checked = 0u64;
    let mut failure_count = 0u64;
    let mut failures = Vec::new();
    for index in block.clone() {
        let Some(combo) = enumerator.next_set() else {
            break;
        };
        let passed = if index == block.start {
            kernel.prime(combo)
        } else {
            kernel.step(combo)
        };
        checked += 1;
        if !passed {
            failure_count += 1;
            if failures.len() < ToleranceReport::MAX_RECORDED {
                failures.push(combo.to_vec());
            }
        }
    }
    (checked, failure_count, failures)
}

/// Exhaustively verifies that `host` is `(k, target)`-tolerant *under the
/// rank-based reconfiguration*, checking all `C(|host|, k)` fault sets.
///
/// `threads` sets the number of contiguous blocks the enumeration is cut
/// into, one worker each (1 checks on the calling thread). The report is
/// identical for any thread count: the recorded failures are the first
/// [`ToleranceReport::MAX_RECORDED`] failing sets in enumeration order,
/// sorted.
pub fn verify_exhaustive(
    target: &Graph,
    host: &Graph,
    k: usize,
    threads: usize,
) -> ToleranceReport {
    let n = host.node_count();
    let masks = EdgeMasks::new(target, host, k);
    // A count past `usize::MAX` saturates: no enumeration that long ends.
    let total = usize::try_from(Combinations::total(n, k)).unwrap_or(usize::MAX);

    // Each worker checks one contiguous block with its own kernel and
    // enumerator, and collects its failures locally; the hot loop takes no
    // lock. Known scaling bound: a worker reaches its block by advancing its
    // enumerator unchecked from the start, so the enumeration before each
    // block end is replicated (about (threads + 1) / 2 · C(n, k) advance
    // steps in all). An advance costs a few nanoseconds against a step's
    // tens, which caps parallel speedup only on wide machines; unranking the
    // revolving-door order would remove it if they demand it.
    let results = fan_out(0..total, threads, |block| check_block(&masks, n, k, block));

    // The blocks are contiguous and come back in order, so the concatenated
    // failures are in global enumeration order: keep the first
    // MAX_RECORDED, then sort them for stable presentation.
    let mut checked = 0u64;
    let mut failure_count = 0u64;
    let mut failures: Vec<Vec<usize>> = Vec::new();
    for (c, f, fails) in results {
        checked += c;
        failure_count += f;
        failures.extend(fails);
    }
    failures.truncate(ToleranceReport::MAX_RECORDED);
    failures.sort();
    ToleranceReport {
        checked,
        failures,
        failure_count,
    }
}

/// Exhaustively verifies tolerance for *all* fault-set sizes `0..=k`
/// (the definition quantifies over exactly `|V(G')| − N` missing nodes, but
/// tolerating every smaller fault count follows and is what a real system
/// needs). Returns one report per fault count.
pub fn verify_up_to(
    target: &Graph,
    host: &Graph,
    k: usize,
    threads: usize,
) -> Vec<ToleranceReport> {
    (0..=k)
        .map(|faults| verify_exhaustive(target, host, faults, threads))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ft_debruijn::FtDeBruijn2;
    use crate::ft_debruijn_m::FtDeBruijnM;
    use crate::ft_shuffle::NaturalFtShuffleExchange;
    use crate::reconfig::{reconfigure, RankReconfig};
    use ftdb_graph::GraphBuilder;
    use ftdb_topology::{DeBruijn2, DeBruijnM};
    use proptest::prelude::*;
    use rand::{RngExt, SeedableRng};

    /// The independent reference for one fault set: does the rank-based
    /// reconfiguration of `target` into `host` avoid the faults and
    /// preserve every edge?
    fn check_fault_set(target: &Graph, host: &Graph, faults: &FaultSet) -> bool {
        if host.node_count() < target.node_count() + faults.len() {
            return false;
        }
        let phi = reconfigure(target.node_count(), faults);
        phi.verify(target, host).is_ok()
    }

    /// A host of `nodes` nodes carrying `edges`.
    fn graph_of(nodes: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Graph {
        let mut b = GraphBuilder::new(nodes);
        b.add_edges(edges);
        b.build()
    }

    /// Tolerant hosts with their targets and fault counts: `B^k(2,h)` for
    /// `h` in 3..=5 and `k` in 1..=3, one base-3 and one natural
    /// shuffle-exchange host, and `B^8(2,2)`, where a mask of 81 bits spans
    /// two words.
    fn tolerant_hosts() -> Vec<(String, Graph, Graph, usize)> {
        let mut hosts = Vec::new();
        for (h, k) in (3..=5)
            .flat_map(|h| (1..=3).map(move |k| (h, k)))
            .chain([(2, 8)])
        {
            let ft = FtDeBruijn2::new(h, k);
            let name = format!("B^{k}(2,{h})");
            hosts.push((name, ft.target().graph().clone(), ft.graph().clone(), k));
        }
        let base_m = FtDeBruijnM::new(3, 3, 2);
        hosts.push((
            "B^2(3,3)".into(),
            base_m.target().graph().clone(),
            base_m.graph().clone(),
            2,
        ));
        let se = NaturalFtShuffleExchange::new(4, 2);
        hosts.push((
            "SE^2(4)".into(),
            se.target().graph().clone(),
            se.graph().clone(),
            2,
        ));
        hosts
    }

    /// Hosts on which the rank map fails for some fault set, each with its
    /// target and fault count: plain de Bruijn graphs with isolated spares,
    /// a host too small for the target, and tolerant hosts with edges
    /// removed (one of them at k = 8, where a mask spans two words).
    fn non_tolerant_hosts() -> Vec<(String, Graph, Graph, usize)> {
        let mut hosts = Vec::new();
        for (h, spares) in [(3, 1), (4, 2)] {
            let target = DeBruijn2::new(h).graph().clone();
            let host = graph_of(target.node_count() + spares, target.edges());
            hosts.push((
                format!("B(2,{h}) plus {spares} spares"),
                target,
                host,
                spares,
            ));
        }
        let small = FtDeBruijn2::new(3, 1);
        hosts.push((
            "B(2,3) in B^1(2,3) at k = 2, too small".into(),
            small.target().graph().clone(),
            small.graph().clone(),
            2,
        ));
        let ft = FtDeBruijn2::new(4, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let m = ft.graph().edge_count();
        let removed: Vec<usize> = (0..3).map(|_| rng.random_range(0..m)).collect();
        let host = graph_of(
            ft.node_count(),
            ft.graph()
                .edges()
                .enumerate()
                .filter(|(e, _)| !removed.contains(e))
                .map(|(_, edge)| edge),
        );
        hosts.push((
            "B^2(2,4) minus random edges".into(),
            ft.target().graph().clone(),
            host,
            2,
        ));
        let wide = FtDeBruijn2::new(2, 8);
        let host = graph_of(
            wide.node_count(),
            wide.graph().edges().filter(|&edge| edge != (0, 1)),
        );
        hosts.push((
            "B^8(2,2) minus one edge".into(),
            wide.target().graph().clone(),
            host,
            8,
        ));
        hosts
    }

    /// The plain reference: every fault set in revolving-door order through
    /// `check_fault_set`, failures tagged by their enumeration index. One
    /// kernel is stepped through the same order alongside, and each of its
    /// verdicts must equal the reference's. The online
    /// `reconfigure_verified`, certified or not, must return exactly what
    /// `Embedding::verify` does.
    fn stepped_reference(target: &Graph, host: &Graph, k: usize) -> ToleranceReport {
        let n = host.node_count();
        let masks = EdgeMasks::new(target, host, k);
        let mut kernel = VerifyKernel::new(&masks);
        let online = RankReconfig::default();
        let mut enumerator = RevolvingDoor::new(n, k);
        let mut tagged = Vec::new();
        let mut checked = 0u64;
        while let Some(combo) = enumerator.next_set() {
            let faults = FaultSet::from_nodes(n, combo.iter().copied());
            let passed = check_fault_set(target, host, &faults);
            let fast = if checked == 0 {
                kernel.prime(combo)
            } else {
                kernel.step(combo)
            };
            assert_eq!(
                fast, passed,
                "kernel disagrees on {combo:?} for {host:?}, k = {k}"
            );
            // Too small a host has no rank map; `check_fault_set` fails it.
            if masks.fits {
                let phi = reconfigure(target.node_count(), &faults);
                let verified = phi.verify(target, host).map(|()| phi);
                assert_eq!(
                    online.reconfigure_verified(target, host, k, &faults),
                    verified
                );
            }
            if !passed {
                tagged.push((checked, combo.to_vec()));
            }
            checked += 1;
        }
        let failure_count = tagged.len() as u64;
        tagged.sort();
        tagged.truncate(ToleranceReport::MAX_RECORDED);
        let mut failures: Vec<Vec<usize>> = tagged.into_iter().map(|(_, f)| f).collect();
        failures.sort();
        ToleranceReport {
            checked,
            failures,
            failure_count,
        }
    }

    /// Checks a refusal of `certify`: at most `k` faults over the host's
    /// nodes that fail `check_fault_set`, and, where the host has room, a
    /// target edge whose rank map under those faults lands on the hole.
    fn assert_witness_fails(name: &str, target: &Graph, host: &Graph, k: usize, witness: &Witness) {
        let faults = &witness.faults;
        assert!(faults.len() <= k, "{name}: {witness:?}");
        assert_eq!(faults.universe(), host.node_count(), "{name}");
        assert!(
            !check_fault_set(target, host, faults),
            "{name}: {witness:?}"
        );
        let (i, j) = witness.shift;
        match witness.edge {
            None => {
                assert!(host.node_count() < target.node_count() + k, "{name}");
                assert_eq!((i, j), (0, 0), "{name}");
            }
            Some((a, b)) => {
                assert!(a < b && target.has_edge(a, b), "{name}: {witness:?}");
                assert!(
                    i <= j && j <= k && !host.has_edge(a + i, b + j),
                    "{name}: {witness:?}"
                );
                let phi = reconfigure(target.node_count(), faults);
                assert_eq!((phi.apply(a), phi.apply(b)), (a + i, b + j), "{name}");
            }
        }
    }

    /// Asserts that `certify` passes exactly when the enumeration of every
    /// `k`-fault set does, and that each refusal's witness fails. Returns
    /// the verdict.
    fn certificate_matches_enumeration(name: &str, target: &Graph, host: &Graph, k: usize) -> bool {
        let certified = certify(target, host, k);
        let tolerant = verify_exhaustive(target, host, k, 2).is_tolerant();
        assert_eq!(
            certified.is_ok(),
            tolerant,
            "{name} at k = {k}: {certified:?}"
        );
        if let Err(witness) = &certified {
            assert_witness_fails(name, target, host, k, witness);
        }
        tolerant
    }

    #[test]
    fn certificate_agrees_with_the_enumeration() {
        // Every host of both lists at every fault count up to 4. A tolerant
        // host has no room past its own budget; a smaller count is a
        // sub-triangle of its own.
        let mut verdicts = [0; 2];
        for (name, target, host, _) in tolerant_hosts().into_iter().chain(non_tolerant_hosts()) {
            for k in 0..=4 {
                let tolerant = certificate_matches_enumeration(&name, &target, &host, k);
                verdicts[usize::from(tolerant)] += 1;
            }
        }
        assert!(verdicts.iter().all(|&count| count > 10), "{verdicts:?}");
    }

    #[test]
    fn certifies_every_construction_past_enumeration() {
        // C(4100, 4), about 1.2·10^13 fault sets, for the base-2 and
        // shuffle-exchange hosts.
        let b2 = FtDeBruijn2::new(12, 4);
        assert_eq!(certify(b2.target().graph(), b2.graph(), 4), Ok(()));
        let b3 = FtDeBruijnM::new(3, 6, 2);
        assert_eq!(certify(b3.target().graph(), b3.graph(), 2), Ok(()));
        let se = NaturalFtShuffleExchange::new(12, 4);
        assert_eq!(certify(se.target().graph(), se.graph(), 4), Ok(()));
        // Without the host edge (1, 2), edge (0, 1) moved by (1, 1) fails.
        let target = b2.target().graph();
        let host = graph_of(b2.node_count(), b2.graph().edges().filter(|&e| e != (1, 2)));
        let witness = certify(target, &host, 4).unwrap_err();
        assert_eq!((witness.edge, witness.shift), (Some((0, 1)), (1, 1)));
        assert_witness_fails("B^4(2,12) minus (1, 2)", target, &host, 4, &witness);
    }

    #[test]
    #[ignore = "release only: builds B^8(2,20), about 10^43 fault sets"]
    fn certifies_b8_2_20() {
        let ft = FtDeBruijn2::new(20, 8);
        assert_eq!(certify(ft.target().graph(), ft.graph(), 8), Ok(()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `B^k(2,h)` with random edges dropped and added: the certificate
        /// equals the enumeration at every fault count up to `k`.
        #[test]
        fn certificate_agrees_on_perturbed_hosts(h in 3usize..6, k in 0usize..4, dropped in 0usize..4, added in 0usize..4, seed in 0u64..1_000_000) {
            let ft = FtDeBruijn2::new(h, k);
            let n = ft.node_count();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = ft.graph().edge_count();
            let drop: Vec<usize> = (0..dropped).map(|_| rng.random_range(0..m)).collect();
            let add: Vec<(usize, usize)> = (0..added)
                .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
                .collect();
            let kept = ft.graph().edges().enumerate().filter(|(e, _)| !drop.contains(e));
            let host = graph_of(n, kept.map(|(_, edge)| edge).chain(add));
            let name = format!("B^{k}(2,{h}), seed {seed}");
            for faults in 0..=k {
                certificate_matches_enumeration(&name, ft.target().graph(), &host, faults);
            }
        }
    }

    #[test]
    fn ft_graph_passes_exhaustive_check_k1() {
        let ft = FtDeBruijn2::new(3, 1);
        let report = verify_exhaustive(ft.target().graph(), ft.graph(), 1, 2);
        assert_eq!(report.checked, 9); // C(9,1)
        assert!(report.is_tolerant(), "failures: {:?}", report.failures);
    }

    #[test]
    fn ft_graph_passes_exhaustive_check_k2() {
        let ft = FtDeBruijn2::new(3, 2);
        let report = verify_exhaustive(ft.target().graph(), ft.graph(), 2, 4);
        assert_eq!(report.checked, 45); // C(10,2)
        assert!(report.is_tolerant());
    }

    #[test]
    fn base_m_ft_graph_passes_exhaustive_check() {
        let ft = FtDeBruijnM::new(3, 3, 1);
        let report = verify_exhaustive(ft.target().graph(), ft.graph(), 1, 4);
        assert_eq!(report.checked, 28); // C(28,1)
        assert!(report.is_tolerant());
    }

    #[test]
    fn plain_debruijn_with_a_spare_is_not_tolerant() {
        // Take B_{2,3} and add one isolated spare node: the rank-based
        // reconfiguration must fail for some single fault, demonstrating that
        // the widened edge blocks of B^1_{2,3} are necessary.
        let target = DeBruijn2::new(3);
        let mut builder = ftdb_graph::GraphBuilder::new(9);
        builder.add_edges(target.graph().edges());
        let host = builder.build();
        let report = verify_exhaustive(target.graph(), &host, 1, 2);
        assert!(!report.is_tolerant());
        assert!(report.failure_count > 0);
        assert!(!report.failures.is_empty());
    }

    #[test]
    fn kernel_agrees_with_check_fault_set() {
        // The incremental kernel and the reference path must classify every
        // fault set identically, stepped through the whole revolving-door
        // order, on tolerant hosts and on hosts that fail.
        for (name, target, host, k) in tolerant_hosts() {
            assert!(stepped_reference(&target, &host, k).is_tolerant(), "{name}");
        }
        // Where sets fail, the report must equal the reference's at any
        // thread count: blocks of uneven size, and empty ones when there
        // are more threads than fault sets.
        for (name, target, host, k) in non_tolerant_hosts() {
            let reference = stepped_reference(&target, &host, k);
            assert!(
                !reference.is_tolerant(),
                "{name} should fail some fault set"
            );
            let more_than_sets = reference.checked as usize + 2;
            for threads in [1, 2, 3, 7, more_than_sets] {
                let report = verify_exhaustive(&target, &host, k, threads);
                assert_eq!(report, reference, "{name} at {threads} threads");
            }
        }
    }

    #[test]
    fn mask_bits_match_has_edge() {
        // Bit (i, j) of edge (a, b), read through `moved_holds`, is the
        // host edge (a + i, b + j), on every host of the two lists.
        for (name, target, host, k) in tolerant_hosts().into_iter().chain(non_tolerant_hosts()) {
            let masks = EdgeMasks::new(&target, &host, k);
            if !masks.fits {
                assert!(masks.bits.is_empty(), "{name}");
                continue;
            }
            for (e, (a, b)) in target.edges().enumerate() {
                for i in 0..=k {
                    for j in 0..=k {
                        assert_eq!(
                            masks.moved_holds(e, i, j),
                            host.has_edge(a + i, b + j),
                            "{name}: edge ({a}, {b}) at ({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn verify_up_to_covers_every_fault_count() {
        let ft = FtDeBruijn2::new(3, 2);
        let reports = verify_up_to(ft.target().graph(), ft.graph(), 2, 2);
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(ToleranceReport::is_tolerant));
        assert_eq!(reports[0].checked, 1);
        assert_eq!(reports[1].checked, 10);
        assert_eq!(reports[2].checked, 45);
    }

    #[test]
    fn single_thread_and_multi_thread_results_match() {
        let ft = FtDeBruijn2::new(3, 2);
        let a = verify_exhaustive(ft.target().graph(), ft.graph(), 2, 1);
        let b = verify_exhaustive(ft.target().graph(), ft.graph(), 2, 8);
        assert_eq!(a.checked, b.checked);
        assert_eq!(a.failure_count, b.failure_count);
        assert_eq!(a.failures, b.failures);
    }

    #[test]
    fn recorded_failures_are_thread_count_independent() {
        // A non-tolerant instance with more than MAX_RECORDED failures: the
        // recorded subset must still be identical across thread counts.
        let target = DeBruijn2::new(4);
        let mut b = ftdb_graph::GraphBuilder::new(18);
        b.add_edges(target.graph().edges());
        let host = b.build();
        let one = verify_exhaustive(target.graph(), &host, 2, 1);
        let many = verify_exhaustive(target.graph(), &host, 2, 5);
        assert!(!one.is_tolerant());
        assert_eq!(one.failure_count, many.failure_count);
        assert_eq!(one.failures, many.failures);
        assert_eq!(one.failures.len(), ToleranceReport::MAX_RECORDED);
    }

    #[test]
    fn a_host_without_room_is_never_tolerant() {
        // B(2,3)'s 8-node target on a 5-node host: no fault count leaves
        // room, including k = 6, where no 6-set of 5 nodes exists and the
        // enumeration checks nothing.
        let target = DeBruijn2::new(3);
        let host = graph_of(5, (0..5).flat_map(|a| (a + 1..5).map(move |b| (a, b))));
        for k in 0..=7 {
            let report = verify_exhaustive(target.graph(), &host, k, 1);
            assert!(!report.is_tolerant(), "k={k}: {report:?}");
            assert!(certify(target.graph(), &host, k).is_err(), "k={k}");
            assert!(!check_fault_set(
                target.graph(),
                &host,
                &FaultSet::from_nodes(5, 0..k.min(5))
            ));
        }
        let reports = verify_up_to(target.graph(), &host, 6, 1);
        assert_eq!(reports.last().map(|r| r.checked), Some(0));
        assert!(reports.iter().all(|r| !r.is_tolerant()));
    }

    #[test]
    fn degenerate_smaller_de_bruijn_host_fails() {
        // A host that is simply too small can never be tolerant.
        let target = DeBruijnM::new(2, 3);
        let host = DeBruijn2::new(3);
        let report = verify_exhaustive(target.graph(), host.graph(), 1, 1);
        assert!(!report.is_tolerant());
    }
}
