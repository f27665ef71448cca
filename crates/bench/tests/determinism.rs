//! The cross-configuration contracts of `experiments`: each experiment
//! below must print the same tables, byte for byte, on a second run with
//! the same seed and at every thread count, shard count and worker split
//! it is run with here. The one-thread `sim-reliability` grid must also
//! match its committed golden. One test per contract; a failure prints
//! the first line where two runs differ.

use ftdb_tests::{assert_runs_match, assert_stdout_matches_golden};

const EXE: &str = env!("CARGO_BIN_EXE_experiments");

/// Runs of `experiment` with each flag list in `configs` (placed before
/// the experiment name) must all print the same tables.
fn assert_configs_match(configs: &[&[&str]], experiment: &[&str]) {
    let runs: Vec<Vec<&str>> = configs
        .iter()
        .map(|flags| [*flags, experiment].concat())
        .collect();
    let runs: Vec<&[&str]> = runs.iter().map(Vec::as_slice).collect();
    assert_runs_match(EXE, &runs);
}

/// The cycle engine, the injection schedules and the sweep drivers are
/// all seeded: two runs of one experiment agree.
#[test]
fn determinism_smoke() {
    assert_configs_match(&[&[], &[]], &["sim-congestion"]);
}

/// The sweep harness fans independent (load, fault set, seed) points over
/// workers that each reuse one engine, and merges them in load order.
#[test]
fn parallel_sweep_determinism() {
    assert_configs_match(
        &[&["--threads", "1"], &["--threads", "4"]],
        &["sim-loadsweep"],
    );
}

/// The exhaustive verifier gives each worker one contiguous block of the
/// fault-set enumeration and merges the blocks in order; three workers
/// make the blocks uneven.
#[test]
fn tolerance_determinism() {
    assert_configs_match(
        &[
            &["--threads", "1"],
            &["--threads", "3"],
            &["--threads", "4"],
        ],
        &["tolerance", "ablation"],
    );
}

/// One congested run split over shard cores, at one worker and at one
/// worker per shard, and with three shards on two workers (unequal
/// groups).
#[test]
fn shard_determinism() {
    assert_configs_match(
        &[
            &["--shards", "1"],
            &["--shards", "2"],
            &["--shards", "4"],
            &["--shards", "4", "--threads", "4"],
            &["--shards", "3", "--threads", "2"],
        ],
        &["sim-sharded"],
    );
}

/// Per-VC credits, VC labels and wormhole trains cross the shard
/// barriers: at each VC count the grid is the same at every shard count
/// and worker split.
#[test]
fn vc_sweep_determinism() {
    for vcs in ["1", "2", "4"] {
        assert_configs_match(
            &[
                &["--vcs", vcs, "--shards", "1"],
                &["--vcs", vcs, "--shards", "2"],
                &["--vcs", vcs, "--shards", "4"],
                &["--vcs", vcs, "--shards", "4", "--threads", "4"],
                &["--vcs", vcs, "--shards", "4", "--threads", "2"],
            ],
            &["sim-vc"],
        );
    }
}

/// Node, link and burst kills fired mid-run on B(2,8..10): the trial
/// fan-out at one and four workers must both match the committed golden,
/// and the shard counts must agree with each other. With one worker, one
/// engine serves every run of a sweep, the longest reuse chain; the shard
/// runs re-route after node and link kills across shard boundaries.
#[test]
fn reliability_determinism() {
    for threads in ["1", "4"] {
        assert_stdout_matches_golden(
            EXE,
            &[
                "--trials",
                "12",
                "--p-grid",
                "0.0,0.01,0.05",
                "--threads",
                threads,
                "sim-reliability",
            ],
            "sim_reliability.txt",
        );
    }
    assert_configs_match(
        &[
            &["--shards", "1"],
            &["--shards", "2"],
            &["--shards", "4", "--threads", "4"],
            &["--shards", "4", "--threads", "1"],
        ],
        &["--trials", "8", "--p-grid", "0.0,0.02", "sim-reliability"],
    );
}
