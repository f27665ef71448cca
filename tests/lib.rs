//! Shared helpers for the cross-crate integration suites in `tests/`.
//!
//! The actual test files live in the `tests/` subdirectory of this package
//! (`cross_crate_properties`, `end_to_end_debruijn`,
//! `end_to_end_shuffle_exchange`, `paper_claims`,
//! `reconfiguration_edge_cases`); this crate root only hosts utilities they
//! share, and [`model`], the reference model of the congestion engine's
//! cycle rules that the engine suites compare against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic RNG for integration tests: every suite derives its
/// randomness from an explicit seed so failures reproduce exactly.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use rand::Rng;

    #[test]
    fn seeded_rng_is_reproducible() {
        let mut a = super::seeded_rng(99);
        let mut b = super::seeded_rng(99);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
