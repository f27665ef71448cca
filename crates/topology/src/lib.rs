//! # ftdb-topology
//!
//! The interconnection-network topologies studied by Bruck, Cypher and Ho in
//! *"Fault-Tolerant de Bruijn and Shuffle-Exchange Networks"*:
//!
//! * [`debruijn`] — the base-2 de Bruijn graph `B_{2,h}` (Section III of the
//!   paper), under both its digit-string definition and the arithmetic
//!   definition via the function `X(z, m, r, s) = (z·m + r) mod s`.
//! * [`debruijn_m`] — the base-m generalisation `B_{m,h}` (Section IV).
//! * [`shuffle_exchange`] — the point-to-point shuffle-exchange network
//!   `SE_h` (shuffle, unshuffle and exchange edges).
//! * [`hypercube`] — the reference topology of the paper's introduction,
//!   which the constant-degree networks emulate.
//! * [`labels`] — digit/label utilities shared by all of the above: base-m
//!   digit vectors, the `Rank` function and the `X` function from the
//!   paper's Section II.
//! * [`se_embedding`] — a constructive embedding of `SE_h` into `B_{2,h}`,
//!   the external result the paper's fault-tolerant shuffle-exchange
//!   construction relies on.
//!
//! ## Quick example
//!
//! ```
//! use ftdb_topology::{DeBruijn2, ShuffleExchange};
//!
//! // B(2,4) and SE_4 share their 2^4 nodes; SE is the sparser network.
//! let db = DeBruijn2::new(4);
//! let se = ShuffleExchange::new(4);
//! assert_eq!(db.node_count(), 16);
//! assert_eq!(se.node_count(), db.node_count());
//! assert!(se.graph().edge_count() < db.graph().edge_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod debruijn;
pub mod debruijn_m;
pub mod hypercube;
pub mod labels;
pub mod se_embedding;
pub mod shuffle_exchange;

pub use debruijn::DeBruijn2;
pub use debruijn_m::DeBruijnM;
pub use labels::{rank, x_fn};
pub use shuffle_exchange::ShuffleExchange;
