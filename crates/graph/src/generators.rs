//! Generic graph generators used in tests, baselines and comparisons.

use crate::builder::GraphBuilder;
use crate::graph::Graph;

/// The path graph on `n` nodes: edges `{i, i+1}` for `i = 0..n-1`.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n).name(format!("P{n}"));
    for i in 1..n {
        b.add_edge(i - 1, i);
    }
    b.build()
}

/// The cycle graph on `n` nodes (`n >= 3`); for `n < 3` it degenerates to a
/// path.
pub fn cycle(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n).name(format!("C{n}"));
    for i in 1..n {
        b.add_edge(i - 1, i);
    }
    if n >= 3 {
        b.add_edge(n - 1, 0);
    }
    b.build()
}

/// The complete graph on `n` nodes.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n).name(format!("K{n}"));
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// The `d`-dimensional hypercube `Q_d` with `2^d` nodes; nodes are adjacent
/// iff their binary labels differ in exactly one bit.
///
/// The hypercube is the reference topology the paper's introduction compares
/// against: the constant-degree networks (de Bruijn and shuffle-exchange)
/// emulate it with constant slowdown.
pub fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n).name(format!("Q{d}"));
    for x in 0..n {
        for bit in 0..d {
            let y = x ^ (1usize << bit);
            if x < y {
                b.add_edge(x, y);
            }
        }
    }
    b.build()
}

/// The `rows × cols` 2-D mesh (grid) graph.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let mut b = GraphBuilder::new(n).name(format!("M{rows}x{cols}"));
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                b.add_edge(v, v + 1);
            }
            if r + 1 < rows {
                b.add_edge(v, v + cols);
            }
        }
    }
    b.build()
}

/// The star graph `K_{1,n-1}` with node 0 as the centre.
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n).name(format!("S{n}"));
    for leaf in 1..n {
        b.add_edge(0, leaf);
    }
    b.build()
}

/// An Erdős–Rényi style random graph `G(n, p)` built from the provided RNG.
pub fn random_gnp<R: rand::RngExt>(n: usize, p: f64, rng: &mut R) -> Graph {
    let mut b = GraphBuilder::new(n).name(format!("G({n},{p})"));
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random::<f64>() < p {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;

    #[test]
    fn path_and_cycle_counts() {
        assert_eq!(path(5).edge_count(), 4);
        assert_eq!(cycle(5).edge_count(), 5);
        assert_eq!(cycle(2).edge_count(), 1);
        assert_eq!(cycle(0).edge_count(), 0);
    }

    #[test]
    fn complete_graph_counts() {
        let k6 = complete(6);
        assert_eq!(k6.edge_count(), 15);
        assert_eq!(k6.max_degree(), 5);
    }

    #[test]
    fn hypercube_structure() {
        let q4 = hypercube(4);
        assert_eq!(q4.node_count(), 16);
        assert_eq!(q4.edge_count(), 32); // d * 2^(d-1)
        assert!(q4.nodes().all(|v| q4.degree(v) == 4));
        assert_eq!(traversal::diameter(&q4), Some(4));
        q4.check_invariants().unwrap();
    }

    #[test]
    fn grid_structure() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 4 * 2); // horizontal + vertical
        assert!(traversal::is_connected(&g));
        assert_eq!(traversal::diameter(&g), Some(2 + 3));
    }

    #[test]
    fn star_structure() {
        let s = star(7);
        assert_eq!(s.degree(0), 6);
        assert!(s.nodes().skip(1).all(|v| s.degree(v) == 1));
    }

    #[test]
    fn random_graph_edge_probability_extremes() {
        let mut rng = rand::rng();
        let empty = random_gnp(10, 0.0, &mut rng);
        assert_eq!(empty.edge_count(), 0);
        let full = random_gnp(10, 1.0, &mut rng);
        assert_eq!(full.edge_count(), 45);
    }
}
