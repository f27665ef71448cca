//! # ftdb-graph
//!
//! Graph substrate for the fault-tolerant de Bruijn / shuffle-exchange
//! network library.
//!
//! This crate provides the small, self-contained graph toolkit that the rest
//! of the workspace is built on:
//!
//! * [`Graph`] — a compact undirected simple graph with sorted CSR
//!   adjacency in one shared allocation (clones are O(1)) and O(log d) edge
//!   queries.
//! * [`GraphBuilder`] — construction from a flat edge list with
//!   de-duplication and self-loop elision (the paper's constructions are
//!   phrased with self-loops that "should be ignored").
//! * [`Embedding`] — injective node maps between graphs together with
//!   edge-preservation verification, the formal object at the heart of the
//!   paper's `(k, G)`-tolerance definition.
//! * [`search`] — a backtracking subgraph-embedding search used to compute
//!   the shuffle-exchange ⊆ de Bruijn embedding that the paper imports as an
//!   external result.
//! * traversal (BFS/DFS/components/diameter), generators, degree/regularity
//!   properties, and DOT/ASCII rendering used to regenerate the paper's
//!   figures.
//!
//! Everything is implemented from scratch on `std` (plus `rand` for the
//! randomised helpers) so the workspace has no external graph dependency.
//!
//! ## Quick example
//!
//! ```
//! use ftdb_graph::GraphBuilder;
//!
//! let mut builder = GraphBuilder::new(4);
//! builder.add_edges([(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)]); // self-loop elided
//! let graph = builder.build();
//! assert_eq!(graph.node_count(), 4);
//! assert_eq!(graph.edge_count(), 4);
//! assert!(graph.has_edge(2, 1) && !graph.has_edge(0, 2));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bitset;
pub mod builder;
pub mod embedding;
pub mod generators;
pub mod graph;
pub mod ops;
pub mod properties;
pub mod render;
pub mod search;
pub mod traversal;

pub use bitset::BitSet;
pub use builder::GraphBuilder;
pub use embedding::Embedding;
pub use graph::{Graph, GraphError, NodeId};
pub use traversal::Searcher;
