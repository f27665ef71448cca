//! Shared helpers for the cross-crate integration suites in `tests/`.
//!
//! The actual test files live in the `tests/` subdirectory of this package
//! (`cross_crate_properties`, `end_to_end_debruijn`,
//! `end_to_end_shuffle_exchange`, `paper_claims`,
//! `reconfiguration_edge_cases`); this crate root only hosts utilities they
//! share, and [`model`], the reference model of the congestion engine's
//! cycle rules that the engine suites compare against. The golden outputs
//! under `golden/` are checked by the packages that own the binaries
//! (`crates/bench/tests/`, `examples/tests/`) through
//! [`assert_stdout_matches_golden`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::process::Command;

/// A deterministic RNG for integration tests: every suite derives its
/// randomness from an explicit seed so failures reproduce exactly.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Runs the binary `exe` with `args` and asserts that it exits 0 and that
/// its stdout equals the committed golden file `tests/golden/<golden>` byte
/// for byte. A mismatch names the golden file and prints the first line
/// that differs. Regenerate a golden with the same command only in a change
/// that alters that output on purpose.
pub fn assert_stdout_matches_golden(exe: &str, args: &[&str], golden: &str) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} {args:?} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8_lossy(&out.stdout);
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(golden);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if actual == want {
        return;
    }
    let (mut a, mut w) = (actual.split('\n'), want.split('\n'));
    for line in 1.. {
        let (got, expected) = (a.next(), w.next());
        if got != expected {
            panic!(
                "{exe} {args:?} does not match {}: line {line} differs\n  golden: {expected:?}\n  actual: {got:?}",
                path.display()
            );
        }
    }
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
