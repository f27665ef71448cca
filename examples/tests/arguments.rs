//! A malformed or out-of-range positional argument is a usage error: the
//! example exits with status 2 and prints its usage line, instead of
//! running silently at the argument's default or panicking in the library.

use std::process::Command;

/// Runs `exe` with `args` and checks that it is a usage error: exit status
/// 2, the usage line on stderr and nothing on stdout.
fn assert_usage_error(exe: &str, args: &[&str], usage: &str) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {usage}")),
        "{exe} {args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{exe} {args:?} ran anyway");
}

#[test]
fn malformed_arguments_are_usage_errors() {
    for (exe, args, usage) in [
        (
            env!("CARGO_BIN_EXE_congestion_recovery"),
            &["abc"][..],
            "congestion_recovery [h] [k] [fault_cycle]",
        ),
        (
            env!("CARGO_BIN_EXE_congestion_recovery"),
            &["5", "2", "-1"],
            "congestion_recovery [h] [k] [fault_cycle]",
        ),
        (
            env!("CARGO_BIN_EXE_load_sweep"),
            &["eight"],
            "load_sweep [h] [threads]",
        ),
        (
            env!("CARGO_BIN_EXE_load_sweep"),
            &["7", "0"],
            "load_sweep [h] [threads]",
        ),
        (
            env!("CARGO_BIN_EXE_network_comparison"),
            &["4", "two"],
            "network_comparison [h] [k]",
        ),
        (
            env!("CARGO_BIN_EXE_routing_under_faults"),
            &["7.5"],
            "routing_under_faults [h] [k]",
        ),
    ] {
        assert_usage_error(exe, args, usage);
    }
}

#[test]
fn out_of_range_arguments_are_usage_errors() {
    // Each parses, and each made the library panic before it was checked:
    // h = 0 has no de Bruijn graph, and B(2,1) has two processors, not
    // the three faults the second call asks for.
    for (exe, args, usage) in [
        (
            env!("CARGO_BIN_EXE_congestion_recovery"),
            &["0"][..],
            "congestion_recovery [h] [k] [fault_cycle]",
        ),
        (
            env!("CARGO_BIN_EXE_routing_under_faults"),
            &["1"],
            "routing_under_faults [h] [k]",
        ),
        (
            env!("CARGO_BIN_EXE_network_comparison"),
            &["0"],
            "network_comparison [h] [k]",
        ),
        (
            env!("CARGO_BIN_EXE_load_sweep"),
            &["0"],
            "load_sweep [h] [threads]",
        ),
    ] {
        assert_usage_error(exe, args, usage);
    }
}
