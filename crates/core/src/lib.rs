//! # ftdb-core
//!
//! The primary contribution of Bruck, Cypher and Ho, *"Fault-Tolerant
//! de Bruijn and Shuffle-Exchange Networks"* (ICPP 1992 / IEEE TPDS 1994):
//! minimal-spare fault-tolerant versions of the de Bruijn and
//! shuffle-exchange interconnection networks.
//!
//! Given a target graph `G` with `N` nodes and a fault budget `k`, the
//! constructions in this crate produce a graph `G'` with exactly `N + k`
//! nodes that is **(k, G)-tolerant**: for *any* set of at most `k` node
//! faults, the surviving nodes of `G'` still contain `G` as a subgraph, and
//! the reconfiguration that exhibits that subgraph is a simple rank-based
//! relabelling.
//!
//! | Construction | Type | Nodes | Degree |
//! |--------------|------|-------|--------|
//! | [`FtDeBruijn2`] | `B^k_{2,h}` | `2^h + k` | ≤ `4k + 4` |
//! | [`FtDeBruijnM`] | `B^k_{m,h}` | `m^h + k` | ≤ `4(m-1)k + 2m` |
//! | [`FtShuffleExchange`] | via SE ⊆ DB | `2^h + k` | ≤ `4k + 4` |
//! | [`NaturalFtShuffleExchange`] | natural labeling | `2^h + k` | ≈ `6k + 4` |
//! | [`BusArchitecture`] | Section V buses | `2^h + k` | `2k + 3` buses |
//!
//! The crate also contains the reconfiguration algorithm ([`reconfig`]),
//! fault modelling ([`fault`]), exhaustive/randomised `(k, G)`-tolerance
//! verification ([`verify`]), the Samatham–Pradhan baseline used in the
//! paper's comparison ([`baseline`]), executable versions of the paper's
//! technical lemmas ([`lemmas`]), and the workspace's one thread fan-out
//! ([`parallel`]), which the verifier and the simulation drivers share.
//!
//! ## Quick example
//!
//! ```
//! use ftdb_core::{FtDeBruijn2, FaultSet, reconfigure};
//! use ftdb_topology::DeBruijn2;
//!
//! // Target: the 16-node de Bruijn graph B(2,4). Tolerate k = 2 faults.
//! let ft = FtDeBruijn2::new(4, 2);
//! assert_eq!(ft.node_count(), 18);
//! assert_eq!(ft.degree_bound(), 4 * 2 + 4); // Corollary 1
//! assert!(ft.graph().max_degree() <= ft.degree_bound());
//!
//! // Any two nodes may fail…
//! let faults = FaultSet::from_nodes(ft.node_count(), [3, 11]);
//! // …and the rank-based reconfiguration still finds a healthy B(2,4).
//! let phi = reconfigure(ft.target().graph().node_count(), &faults);
//! phi.verify(ft.target().graph(), ft.graph()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baseline;
pub mod bus;
pub mod fault;
pub mod ft_debruijn;
pub mod ft_debruijn_m;
pub mod ft_shuffle;
pub mod lemmas;
pub mod linkfault;
pub mod lowerbound;
pub mod parallel;
pub mod reconfig;
pub mod verify;

pub use bus::BusArchitecture;
pub use fault::{FaultError, FaultSet};
pub use ft_debruijn::FtDeBruijn2;
pub use ft_debruijn_m::FtDeBruijnM;
pub use ft_shuffle::{FtShuffleExchange, NaturalFtShuffleExchange};
pub use linkfault::LinkFaultSet;
pub use reconfig::reconfigure;
