// Seeded mini-workspace for CLI exit-code tests: a hot-path file with a
// panic and determinism violations, plus a report struct whose
// differential suite is absent entirely.

use std::collections::HashSet;

/// The report struct the committed audit looks for.
pub struct CongestionReport {
    /// Total simulated cycles.
    pub cycles: u64,
}

pub fn step(q: &[u64]) -> u64 {
    let head = q.last().unwrap();
    let _ = HashSet::<u64>::new();
    *head
}

/// Hot entry whose helper lives outside the hot set: seeds the
/// transitive panic rule in `metrics.rs`.
pub fn report(q: &[u64]) -> u64 {
    crate::metrics::summarize(q)
}

// analyzer: alloc-free
pub fn hot_helper(x: u64) -> u64 {
    widen(x)
}

pub fn widen(x: u64) -> u64 {
    x.wrapping_add(1)
}

// analyzer: alloc-free
pub fn ping(n: u64) -> u64 {
    if n == 0 { 0 } else { pong(n - 1) }
}

// analyzer: alloc-free
pub fn pong(n: u64) -> u64 {
    ping(n)
}

pub struct Sim;

impl Sim {
    // analyzer: alloc-free
    pub fn advance(&self, x: u64) -> u64 {
        // rustfmt's continuation layout: the receiver sits on the line
        // above, and the call still leaves the alloc-free subgraph.
        let slot = self
            .slot_of(x);
        slot
    }

    pub fn slot_of(&self, x: u64) -> u64 {
        x
    }
}
