//! Each example's stdout must match its committed output under
//! `tests/golden/examples/`, so a drift in any example fails `cargo test`:
//! the seven examples at their default arguments, the recovery run on
//! `B^2(2,5)` (`congestion_recovery 5 2 2`), and the credit-depth sweeps on
//! B(2,7) past saturation (`load_sweep 7`), where one gate often gets two
//! credit returns in one cycle.

use ftdb_tests::assert_stdout_matches_golden;

#[test]
fn quickstart_matches_its_golden() {
    assert_stdout_matches_golden(
        env!("CARGO_BIN_EXE_quickstart"),
        &[],
        "examples/quickstart.txt",
    );
}

#[test]
fn fault_recovery_matches_its_golden() {
    // Includes the stalled all-reduce and the first SimError it prints.
    assert_stdout_matches_golden(
        env!("CARGO_BIN_EXE_fault_recovery"),
        &[],
        "examples/fault_recovery.txt",
    );
}

#[test]
fn routing_under_faults_matches_its_golden() {
    assert_stdout_matches_golden(
        env!("CARGO_BIN_EXE_routing_under_faults"),
        &[],
        "examples/routing_under_faults.txt",
    );
}

#[test]
fn network_comparison_matches_its_golden() {
    assert_stdout_matches_golden(
        env!("CARGO_BIN_EXE_network_comparison"),
        &[],
        "examples/network_comparison.txt",
    );
}

#[test]
fn bus_architecture_matches_its_golden() {
    assert_stdout_matches_golden(
        env!("CARGO_BIN_EXE_bus_architecture"),
        &[],
        "examples/bus_architecture.txt",
    );
}

#[test]
fn congestion_recovery_matches_its_goldens() {
    let exe = env!("CARGO_BIN_EXE_congestion_recovery");
    assert_stdout_matches_golden(exe, &[], "examples/congestion_recovery.txt");
    assert_stdout_matches_golden(
        exe,
        &["5", "2", "2"],
        "examples/congestion_recovery_5_2_2.txt",
    );
}

#[test]
fn load_sweep_matches_its_goldens() {
    let exe = env!("CARGO_BIN_EXE_load_sweep");
    assert_stdout_matches_golden(exe, &[], "examples/load_sweep.txt");
    assert_stdout_matches_golden(exe, &["7"], "examples/load_sweep_7.txt");
}
