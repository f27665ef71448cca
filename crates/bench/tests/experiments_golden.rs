//! `experiments --threads 1 all` must print every figure, table and canned
//! sweep exactly as committed in `tests/golden/experiments_all.txt`, so an
//! output that drifts between commits fails `cargo test`.

#[test]
fn experiments_all_matches_its_golden() {
    ftdb_tests::assert_stdout_matches_golden(
        env!("CARGO_BIN_EXE_experiments"),
        &["--threads", "1", "all"],
        "experiments_all.txt",
    );
}
