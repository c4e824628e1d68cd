//! The paper's motivating scenario: a datacenter operator wondering
//! whether upgrading the cluster interconnect is worth it for MapReduce.
//!
//! ```text
//! cargo run --release --example network_comparison
//! ```
//!
//! Runs MR-AVG at several shuffle sizes over every interconnect the
//! paper evaluates — 1 GigE, 10 GigE, IPoIB QDR, IPoIB FDR, and native
//! RDMA (MRoIB) — and prints the job-time table plus the percentage
//! improvement each upgrade buys.

use hadoop_mr_microbench::mrbench::{
    BenchConfig, Interconnect, MicroBenchmark, ShuffleEngineKind, Sweep, SweepOptions,
};
use hadoop_mr_microbench::simcore::units::ByteSize;

fn main() {
    let sizes: Vec<ByteSize> = [4u64, 8, 16].map(ByteSize::from_gib).to_vec();
    let networks = [
        Interconnect::GigE1,
        Interconnect::GigE10,
        Interconnect::IpoibQdr,
        Interconnect::IpoibFdr,
        Interconnect::RdmaFdr,
    ];

    let make = |shuffle, ic| {
        let mut c = BenchConfig::cluster_a_default(MicroBenchmark::Avg, ic, shuffle);
        if ic == Interconnect::RdmaFdr {
            // Native IB needs the RDMA-enhanced shuffle engine.
            c.shuffle_engine = ShuffleEngineKind::Rdma;
        }
        c
    };
    let sweep = Sweep::run_grid_with(&sizes, &networks, make, &SweepOptions::default())
        .expect("valid configs");

    print!(
        "{}",
        sweep.table("MR-AVG job execution time, 16 maps / 8 reduces on 4 slaves")
    );
    println!();

    println!("upgrade payoff vs 1GigE:");
    for &size in &sizes {
        print!("  {:>10}:", size.to_string());
        for &ic in &networks[1..] {
            let gain = sweep
                .improvement_pct(size, Interconnect::GigE1, ic)
                .unwrap();
            print!("  {} {gain:+.1}%", ic.label());
        }
        println!();
    }
    println!();
    println!(
        "Reading: socket-based upgrades help until the job is compute-bound; \
         the RDMA engine keeps paying off because it also removes protocol CPU \
         and overlaps the merge (paper Sect. 6)."
    );
}
