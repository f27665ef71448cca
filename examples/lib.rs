//! Shared helpers for the runnable examples.
//!
//! The example binaries live directly in this directory and are declared as
//! explicit `[[bin]]` targets in `Cargo.toml`; run any of them with
//! `cargo run -p ftdb-examples --bin <name>` where `<name>` is one of
//! `quickstart`, `fault_recovery`, `routing_under_faults`,
//! `network_comparison`, `bus_architecture`, `congestion_recovery` or
//! `load_sweep`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::ops::RangeInclusive;
use std::str::FromStr;

/// Renders the underlined title banner each example binary prints first.
pub fn section(title: &str) -> String {
    format!("{title}\n{}", "-".repeat(title.len()))
}

/// Positional argument `index` (0-based, after the program name) parsed as
/// `T`, or `default` when it is absent. A malformed argument is a usage
/// error, never a silent run at the default: the example prints the
/// argument, why it does not parse and `usage` (such as
/// `"load_sweep [h] [threads]"`) to stderr, and exits with status 2.
pub fn arg_or<T>(index: usize, default: T, usage: &str) -> T
where
    T: FromStr,
    T::Err: Display,
{
    let Some(raw) = std::env::args().nth(index + 1) else {
        return default;
    };
    raw.parse().unwrap_or_else(|err| {
        eprintln!("bad argument {raw:?}: {err}");
        eprintln!("usage: {usage}");
        std::process::exit(2)
    })
}

/// The largest `h` an example accepts: `B(2,24)`, with 16.8M nodes, is the
/// largest graph the repository builds (the `sim-million-smoke` point of
/// `experiments`).
pub const MAX_H: usize = 24;

/// [`arg_or`], with the parsed value checked against `range` before
/// anything is built. A value outside it is a usage error too, never a
/// panic deep in the library: the example prints the value, the range and
/// `usage` to stderr, and exits with status 2.
pub fn arg_in<T>(index: usize, default: T, range: RangeInclusive<T>, usage: &str) -> T
where
    T: FromStr + PartialOrd + Display,
    T::Err: Display,
{
    let value = arg_or(index, default, usage);
    if !range.contains(&value) {
        let (lo, hi) = range.into_inner();
        eprintln!("argument {value} is out of range {lo}..={hi}");
        eprintln!("usage: {usage}");
        std::process::exit(2)
    }
    value
}

#[cfg(test)]
mod tests {
    #[test]
    fn section_underlines_to_title_width() {
        let s = super::section("abc");
        let mut lines = s.lines();
        assert_eq!(lines.next(), Some("abc"));
        assert_eq!(lines.next(), Some("---"));
    }
}
