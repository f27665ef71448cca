//! Network comparison: regenerate the paper's "ours vs. Samatham–Pradhan"
//! argument for parameters of your choice, plus the two fault-tolerant
//! shuffle-exchange variants.
//!
//! Run with (defaults shown):
//! ```text
//! cargo run -p ftdb-examples --bin network_comparison -- 4 2
//! ```
//! where the arguments are `h` and `k` for the base-2 target `B(2,h)`.

use ftdb_analysis::comparison::{
    base2_table, render_comparison, render_shuffle_exchange, shuffle_exchange_table,
};
use ftdb_core::baseline::SpBaseline;
use ftdb_examples::{arg_in, MAX_H};

fn main() {
    const USAGE: &str = "network_comparison [h] [k]";
    let h: usize = arg_in(0, 4, 1..=MAX_H, USAGE);
    let k: usize = arg_in(1, 2, 0..=1 << h, USAGE);
    println!(
        "{}\n",
        ftdb_examples::section("Degree cost of fault tolerance: paper bounds vs measured")
    );

    println!("Comparing fault-tolerant constructions for B(2,{h}) tolerating {k} faults\n");

    let sp = SpBaseline::new(2, h, k);
    println!("target nodes             : {}", sp.target_nodes());
    println!(
        "ours (Bruck-Cypher-Ho)   : {} nodes, degree <= {}",
        sp.target_nodes() + k as u128,
        4 * k + 4
    );
    println!(
        "Samatham-Pradhan baseline: {} nodes, degree {} (a {}x node overhead)",
        sp.nodes(),
        sp.quoted_degree(),
        sp.redundancy_ratio().round()
    );

    println!("\nFull sweep around the chosen parameters:\n");
    let rows = base2_table(
        &[h.saturating_sub(1).max(3), h, h + 2],
        &[1, k, k + 2],
        1 << 14,
    );
    println!("{}", render_comparison("base-2 comparison", &rows).render());

    let se_rows = shuffle_exchange_table(&[(h, 1), (h, k)], 6);
    println!("{}", render_shuffle_exchange(&se_rows).render());
}
