//! # ftdb-analyzer
//!
//! A self-contained, dependency-free static-analysis gate for this
//! workspace: it makes "no panics, no allocations, no nondeterminism in
//! the cycle loop" a *build-time* property instead of a test-time hope.
//!
//! The repo's headline claims — byte-identical `CongestionReport`s across
//! engines, shard counts, thread counts, and healthy-vs-reconfigured runs
//! — previously rested on dynamic checks only (the differential property
//! suite and the counting allocator). This crate adds the static mirror:
//!
//! | Rule family | Scope | Catches |
//! |---|---|---|
//! | panic-freedom | hot-path modules ([`Policy::panic_files`](policy::Policy)) | `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`, integer-literal indexing |
//! | transitive panic-freedom | everything *reachable* from a hot-path module over the call graph ([`callgraph`], [`interproc`]) | the same panic family in helpers one or more calls away, with the offending call chain in the diagnostic |
//! | allocation discipline | functions annotated `// analyzer: alloc-free` | `Vec::new`/`vec!`/`push`/`collect`/`to_vec`/`clone`/`format!`/`Box::new`/..., calls into non-`alloc-free` functions, recursion inside the alloc-free subgraph |
//! | determinism | `crates/sim`, `crates/analysis` sources | `HashMap`/`HashSet`, `Instant`/`SystemTime`, `thread_rng`, float `==` |
//! | sharded concurrency | `congestion/shard.rs` + `boundary.rs` + the fan-out behind them, `core/src/parallel.rs` ([`concurrency`]) | `Mutex`/`RwLock`/`Relaxed`, `std::thread::spawn` |
//! | differential coverage | `CongestionReport` ↔ its equivalence suites | a report field some equivalence suite never compares |
//!
//! Violations carry `file:line` diagnostics (interprocedural ones also a
//! call chain). Proven-invariant sites are annotated inline —
//! `// analyzer: allow(<rule>) -- <justification>` — and the allowlist is
//! self-policing: an allow that suppresses nothing is an error
//! (`stale-allow`), and one that suppresses more than one finding is too
//! (`overloaded-allow`), so suppressions stay one-per-violation and
//! auditable (`ftdb-analyzer allows`). Call edges vetted by hand use
//! `// analyzer: trusted-call -- <why>`.
//!
//! The scanner is source-level: a small lexer ([`lexer`]) masks comments
//! and string/char literals before token matching, and the call graph
//! ([`callgraph`]) is name-resolved *over-approximately* — unresolvable
//! calls become explicit opaque edges rather than silent gaps — so the
//! rules are sound-for-a-gate on rustfmt-formatted code without needing
//! `syn` (no registry access in this environment). `#[cfg(test)]` items
//! are exempt — the gate protects shipped hot paths, not the assertions
//! about them.
//!
//! Run it locally with `cargo run -p ftdb-analyzer -- check`; CI runs the
//! same command (with `--format github`) as the blocking `lint-gate` job.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analyze;
pub mod audit;
pub mod callgraph;
pub mod concurrency;
pub mod interproc;
pub mod lexer;
pub mod policy;
pub mod rules;

pub use analyze::{analyze_source, Finding};
pub use policy::{check, run, Analysis, Policy};
pub use rules::{RuleId, RuleSet};

use std::io;
use std::path::Path;

/// Runs the committed workspace policy ([`Policy::workspace`]) over the
/// tree rooted at `root`, returning all findings sorted by path and line.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    check(root, &Policy::workspace())
}
