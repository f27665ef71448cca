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
//! [`assert_stdout_matches_golden`], and their runs under different thread
//! and shard counts against each other through [`assert_runs_match`].

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

/// Runs the binary `exe` with `args`, asserts that it exits 0, and returns
/// its stdout.
fn stdout_of(exe: &str, args: &[&str]) -> String {
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
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The first line (1-based) where `a` and `b` differ, with each side's
/// text there (`None` past its end), or `None` when they are equal.
fn first_difference<'a>(
    a: &'a str,
    b: &'a str,
) -> Option<(usize, Option<&'a str>, Option<&'a str>)> {
    if a == b {
        return None;
    }
    let (mut a, mut b) = (a.split('\n'), b.split('\n'));
    (1..).find_map(|line| {
        let (x, y) = (a.next(), b.next());
        (x != y).then_some((line, x, y))
    })
}

/// Runs the binary `exe` with `args` and asserts that it exits 0 and that
/// its stdout equals the committed golden file `tests/golden/<golden>` byte
/// for byte. A mismatch names the golden file and prints the first line
/// that differs. Regenerate a golden with the same command only in a change
/// that alters that output on purpose.
pub fn assert_stdout_matches_golden(exe: &str, args: &[&str], golden: &str) {
    let actual = stdout_of(exe, args);
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(golden);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if let Some((line, expected, got)) = first_difference(&want, &actual) {
        panic!(
            "{exe} {args:?} does not match {}: line {line} differs\n  golden: {expected:?}\n  actual: {got:?}",
            path.display()
        );
    }
}

/// Runs the binary `exe` once per argument list in `runs` and asserts that
/// every run exits 0 and prints what the first one prints, byte for byte.
/// A mismatch names both argument lists and prints the first line that
/// differs.
pub fn assert_runs_match(exe: &str, runs: &[&[&str]]) {
    let Some((first, rest)) = runs.split_first() else {
        return;
    };
    let want = stdout_of(exe, first);
    for args in rest {
        let got = stdout_of(exe, args);
        if let Some((line, expected, actual)) = first_difference(&want, &got) {
            panic!(
                "{exe} {args:?} differs from {first:?}: line {line} differs\n  {first:?}: {expected:?}\n  {args:?}: {actual:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::Rng;

    #[test]
    fn first_difference_names_the_first_differing_line() {
        use super::first_difference;
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        assert_eq!(
            first_difference("a\nb\nc\n", "a\nx\nc\n"),
            Some((2, Some("b"), Some("x")))
        );
        // A run that stops early differs at its missing line.
        assert_eq!(first_difference("a\nb", "a"), Some((2, Some("b"), None)));
    }

    #[test]
    fn seeded_rng_is_reproducible() {
        let mut a = super::seeded_rng(99);
        let mut b = super::seeded_rng(99);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
