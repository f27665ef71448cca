//! The experiment driver: regenerates every figure and table of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ftdb-bench --bin experiments -- [--threads N] [--shards N] [--vcs N] [experiment...]
//! ```
//!
//! where each `experiment` is one of `fig1 fig2 fig3 fig4 fig5 table1 table2
//! table3 corollaries tolerance sim sim-bus sim-congestion sim-loadsweep
//! sim-sharded sim-vc sim-reliability sim-million sim-million-smoke ablation
//! all` (default: `all`; the `sim-million*` scale runs and the
//! Monte-Carlo `sim-reliability` sweep are excluded from `all`).
//! Output is plain text on stdout, and it is where the measured numbers
//! come from: run the experiment to read them.
//!
//! `--threads N` sizes the worker pool of the sweep-style experiments and
//! the sharded engine's per-cycle shard workers (`min(N, shards)` of them;
//! default: the machine's available parallelism). `--shards N` sizes the
//! graph partition of the sharded-engine experiments (`sim-sharded`,
//! `sim-vc`, `sim-million*`, `sim-reliability`; default 4), and `--vcs N`
//! the virtual-channel count of `sim-vc` (default 2). `sim-reliability`
//! additionally takes `--trials N` (seeded Monte-Carlo trials per grid
//! point, default 100), `--p-grid p1,p2,...` (fault probabilities, default
//! `0.001,0.005,0.01,0.02,0.05`) and `--fault-model node|link|burst|all`
//! (default `all`). Every experiment is seeded and the parallel drivers
//! merge in deterministic order, so the output is byte-identical for any
//! `N` — CI diffs `--threads 4` against `--threads 1`, `tolerance
//! ablation` at `--threads 1/3/4` (three workers cut the exhaustive
//! verification into uneven blocks), `--shards 1/2/4` against each other,
//! the `sim-vc` grid at each `--vcs 1/2/4` across `--shards 1/2/4`, and the
//! `sim-reliability` curves across both knobs, to enforce exactly that.

use ftdb_analysis::ablation::{
    offset_ablation, reconfig_ablation, render_offset_ablation, render_reconfig_ablation,
};
use ftdb_analysis::comparison::{
    base2_table, base_m_table, render_comparison, render_shuffle_exchange, shuffle_exchange_table,
};
use ftdb_analysis::corollaries::{
    render_corollaries, render_tolerance, sweep_base2, sweep_base_m, sweep_bus, tolerance_sweep,
};
use ftdb_analysis::figures;
use ftdb_analysis::reliability::{
    reliability_sweep, render_reliability, FaultModel, ReliabilitySpec,
};
use ftdb_analysis::sim_experiments::{
    render_sim1, render_sim5, sim1_ascend_slowdown, sim1_routing_table, sim2_bus_table,
    sim3_congestion_table, sim4_recovery_table, sim5_tables, sim6_sharded_sweep, sim6_tables,
    sim7_vc_tables, ShardedSweepSpec,
};

fn print_figure(fig: &figures::Figure) {
    println!("===== {} : {} =====", fig.id, fig.caption);
    println!("{}", fig.text);
    if let Some(dot) = &fig.dot {
        println!("--- DOT ---");
        println!("{dot}");
    }
}

/// `sim-reliability` knobs gathered from the command line.
struct ReliabilityArgs {
    trials: usize,
    p_grid: Vec<f64>,
    models: Vec<FaultModel>,
}

impl Default for ReliabilityArgs {
    fn default() -> Self {
        ReliabilityArgs {
            trials: 100,
            p_grid: vec![0.001, 0.005, 0.01, 0.02, 0.05],
            models: FaultModel::ALL.to_vec(),
        }
    }
}

fn run(name: &str, threads: usize, shards: usize, vcs: u32, rel: &ReliabilityArgs) -> bool {
    match name {
        "fig1" => print_figure(&figures::figure1()),
        "fig2" => print_figure(&figures::figure2()),
        "fig3" => {
            // The paper draws one specific single-fault example; print the
            // canonical one (fault at node 5) plus a second for contrast.
            print_figure(&figures::figure3(5));
            print_figure(&figures::figure3(0));
        }
        "fig4" => print_figure(&figures::figure4()),
        "fig5" => print_figure(&figures::figure5(4)),
        "table1" => {
            let rows = base2_table(&[3, 4, 5, 6, 8, 10], &[1, 2, 3, 4, 8], 1 << 14);
            println!(
                "{}",
                render_comparison("TAB1: base-2 de Bruijn, ours vs Samatham-Pradhan", &rows)
                    .render()
            );
        }
        "table2" => {
            let rows = base_m_table(&[(3, 3), (4, 3), (8, 2), (16, 2)], &[1, 2, 4], 1 << 14);
            println!(
                "{}",
                render_comparison("TAB2: base-m de Bruijn, ours vs Samatham-Pradhan", &rows)
                    .render()
            );
        }
        "table3" => {
            let rows = shuffle_exchange_table(
                &[
                    (3, 1),
                    (4, 1),
                    (4, 2),
                    (5, 1),
                    (5, 2),
                    (5, 3),
                    (6, 1),
                    (7, 2),
                ],
                6,
            );
            println!("{}", render_shuffle_exchange(&rows).render());
        }
        "corollaries" => {
            let c12 = sweep_base2(&[3, 4, 5, 6, 7], &[0, 1, 2, 3, 4, 6]);
            println!(
                "{}",
                render_corollaries("COR1-2: base-2 degree bounds (4k+4; k=1: 8)", &c12).render()
            );
            let c34 = sweep_base_m(
                &[(3, 3), (3, 4), (4, 3), (5, 2), (6, 2), (8, 2)],
                &[1, 2, 3],
            );
            println!(
                "{}",
                render_corollaries("COR3-4: base-m degree bounds (4(m-1)k+2m; k=1: 6m-4)", &c34)
                    .render()
            );
            let bus = sweep_bus(&[3, 4, 5, 6], &[0, 1, 2, 3]);
            println!(
                "{}",
                render_corollaries("Section V: bus-degree bound (2k+3)", &bus).render()
            );
        }
        "tolerance" => {
            let rows = tolerance_sweep(
                &[
                    (2, 3, 1),
                    (2, 3, 2),
                    (2, 3, 3),
                    (2, 4, 1),
                    (2, 4, 2),
                    (2, 5, 1),
                    (2, 5, 2),
                    (3, 3, 1),
                    (3, 3, 2),
                    (4, 2, 2),
                    (2, 8, 2),
                    (3, 4, 2),
                ],
                200_000,
                threads,
            );
            println!("{}", render_tolerance(&rows).render());
        }
        "sim" => {
            for (h, k) in [(4, 1), (5, 2), (6, 3)] {
                let rows = sim1_ascend_slowdown(h, k, 5);
                println!("{}", render_sim1(h, k, &rows).render());
            }
            println!("{}", sim1_routing_table(6, 2, 0xF7DB).render());
        }
        "sim-bus" => {
            println!("{}", sim2_bus_table().render());
        }
        "sim-congestion" => {
            for h in [5usize, 7] {
                println!("{}", sim3_congestion_table(h, 0xF7DB).render());
            }
            println!("{}", sim4_recovery_table(6, 3, 2, 0xF7DB).render());
        }
        "sim-loadsweep" => {
            let loads = [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9];
            for table in sim5_tables(7, &loads, 0xF7DB, threads) {
                println!("{}", table.render());
            }
        }
        "sim-sharded" => {
            // The CI shard-determinism job diffs this output across
            // `--shards 1,2,4`: it must be byte-identical for any partition.
            for table in sim6_tables(7, 0xF7DB, shards, threads) {
                println!("{}", table.render());
            }
        }
        "sim-vc" => {
            // The CI VC-determinism step runs this for `--vcs 1/2/4`,
            // diffing each VC count across `--shards 1/2/4`: byte-identical
            // for any partition, like every other sharded output.
            for table in sim7_vc_tables(6, 0xF7DB, vcs, shards, threads) {
                println!("{}", table.render());
            }
        }
        "sim-reliability" => {
            // The Monte-Carlo reliability sweep: delivery-probability and
            // expected-slowdown curves with Wilson 95% CIs for node, link
            // and burst faults on B(2,8)..B(2,10). The CI
            // reliability-determinism job diffs this output across
            // `--threads 1/4` and `--shards 1/2/4`: byte-identical always.
            for h in [8usize, 9, 10] {
                let mut spec = ReliabilitySpec::canonical(h);
                spec.trials = rel.trials;
                spec.p_grid = rel.p_grid.clone();
                spec.threads = threads;
                spec.shards = shards;
                for &model in &rel.models {
                    let curve = reliability_sweep(&spec, model);
                    println!("{}", render_reliability(&curve).render());
                }
            }
        }
        "sim-million" => {
            // The headline scale runs: an open-loop sweep on B(2,20)
            // (1,048,576 nodes) and a single-point B(2,24) (16.7M nodes)
            // smoke. Loads sit below the ~2/(h-1) de Bruijn saturation
            // ceiling so the runs drain rather than collapse. Not part of
            // `all` — minutes of wall clock, gigabytes of packet state.
            let windows = ShardedSweepSpec {
                warmup_cycles: 8,
                measure_cycles: 16,
                drain_cycles: 600,
                seed: 0xF7DB,
            };
            let points = sim6_sharded_sweep(20, &[0.01, 0.03, 0.05], &windows, shards, threads);
            println!(
                "{}",
                render_sim5(
                    "SIM6-million: healthy B(2,20), sharded engine, credit depth 4".to_string(),
                    &points,
                )
                .render()
            );
        }
        "sim-million-smoke" => {
            let windows = ShardedSweepSpec {
                warmup_cycles: 4,
                measure_cycles: 8,
                drain_cycles: 400,
                seed: 0xF7DB,
            };
            let points = sim6_sharded_sweep(24, &[0.01], &windows, shards, threads);
            println!(
                "{}",
                render_sim5(
                    "SIM6-smoke: healthy B(2,24), sharded engine, credit depth 4".to_string(),
                    &points,
                )
                .render()
            );
        }
        "ablation" => {
            let abl1 = offset_ablation(&[(3, 1), (3, 2), (4, 1), (4, 2)], 50_000_000);
            println!("{}", render_offset_ablation(&abl1).render());
            let abl2 = reconfig_ablation(
                &[(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)],
                50_000_000,
                threads,
            );
            println!("{}", render_reconfig_ablation(&abl2).render());
        }
        "all" => {
            for e in [
                "fig1",
                "fig2",
                "fig3",
                "fig4",
                "fig5",
                "table1",
                "table2",
                "table3",
                "corollaries",
                "tolerance",
                "sim",
                "sim-bus",
                "sim-congestion",
                "sim-loadsweep",
                "sim-sharded",
                "sim-vc",
                "ablation",
            ] {
                run(e, threads, shards, vcs, rel);
            }
        }
        other => {
            eprintln!("unknown experiment: {other}");
            return false;
        }
    }
    true
}

const USAGE: &str = "usage: experiments [--threads N] [--shards N] [--vcs N] [--trials N] [--p-grid p1,p2,...] [--fault-model node|link|burst|all] [fig1|fig2|fig3|fig4|fig5|table1|table2|table3|corollaries|tolerance|sim|sim-bus|sim-congestion|sim-loadsweep|sim-sharded|sim-vc|sim-reliability|sim-million|sim-million-smoke|ablation|all]...";

/// Prints the offending argument and the usage line, then exits with the
/// usage-error status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("experiments: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Parses the value of a positive-integer flag (`--threads`, `--shards`,
/// `--vcs`, `--trials`). A missing value, a non-number, zero and a number
/// that `T` cannot hold are errors. Returns the value or a message naming
/// `flag` for the caller's usage-error path.
fn parse_positive<T>(flag: &str, value: Option<&String>) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    match value.and_then(|v| v.parse::<T>().ok()) {
        Some(v) if v >= T::from(1) => Ok(v),
        _ => Err(format!(
            "{flag} requires a positive integer that fits in {}",
            std::any::type_name::<T>()
        )),
    }
}

/// The value of a positive-integer flag, or a usage error.
fn positive<T>(flag: &str, value: Option<&String>) -> T
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    parse_positive(flag, value).unwrap_or_else(|msg| usage_error(&msg))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut shards = 4usize;
    let mut vcs = 2u32;
    let mut rel = ReliabilityArgs::default();
    let mut names: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => threads = positive(arg, it.next()),
            "--shards" => shards = positive(arg, it.next()),
            "--vcs" => vcs = positive(arg, it.next()),
            "--trials" => rel.trials = positive(arg, it.next()),
            "--p-grid" => match it.next().map(|v| {
                v.split(',')
                    .map(|p| p.trim().parse::<f64>())
                    .collect::<Result<Vec<f64>, _>>()
            }) {
                Some(Ok(grid))
                    if !grid.is_empty() && grid.iter().all(|p| (0.0..=1.0).contains(p)) =>
                {
                    rel.p_grid = grid;
                }
                _ => usage_error("--p-grid requires comma-separated probabilities in [0, 1]"),
            },
            "--fault-model" => match it.next().map(String::as_str) {
                Some("all") => rel.models = FaultModel::ALL.to_vec(),
                m => match m.and_then(FaultModel::parse) {
                    Some(model) => rel.models = vec![model],
                    None => usage_error("--fault-model must be node, link, burst or all"),
                },
            },
            _ => names.push(arg.clone()),
        }
    }
    let mut ok = true;
    if names.is_empty() {
        ok &= run("all", threads, shards, vcs, &rel);
    } else {
        for a in &names {
            ok &= run(a, threads, shards, vcs, &rel);
        }
    }
    if !ok {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_flags_reject_zero_non_numbers_and_overflow() {
        let vcs = |v: &str| parse_positive::<u32>("--vcs", Some(&v.to_string()));
        assert_eq!(vcs("4"), Ok(4));
        assert_eq!(vcs("4294967295"), Ok(u32::MAX));
        let rejected = "--vcs requires a positive integer that fits in u32";
        for bad in ["0", "four", "-1", "4294967296", "4294967297"] {
            assert_eq!(vcs(bad), Err(rejected.to_string()), "{bad}");
        }
        assert!(parse_positive::<usize>("--trials", None).is_err());
    }
}
