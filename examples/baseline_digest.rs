//! Prints an exact digest (nanosecond job time + full counters) for a
//! grid of representative configurations. Used to verify that engine
//! changes keep clean-path runs bit-identical: the expected output is
//! committed next to this file as `baseline_digest.golden`, and CI diffs
//! against it.
//!
//! ```text
//! cargo run --release -q --example baseline_digest | diff examples/baseline_digest.golden -
//! ```

use hadoop_mr_microbench::mrbench::{
    run, BenchConfig, EngineKind, Interconnect, MicroBenchmark, ShuffleEngineKind,
};
use hadoop_mr_microbench::simcore::units::ByteSize;

fn main() {
    let benches = [
        MicroBenchmark::Avg,
        MicroBenchmark::Rand,
        MicroBenchmark::Skew,
    ];
    let networks = [
        Interconnect::GigE1,
        Interconnect::IpoibQdr,
        Interconnect::RdmaFdr,
    ];
    for bench in benches {
        for ic in networks {
            for yarn in [false, true] {
                let mut c = BenchConfig::cluster_a_default(bench, ic, ByteSize::from_mib(512));
                c.num_maps = 8;
                c.num_reduces = 4;
                c.slaves = 2;
                if yarn {
                    c.engine = EngineKind::Yarn;
                }
                if ic == Interconnect::RdmaFdr {
                    c.shuffle_engine = ShuffleEngineKind::Rdma;
                }
                let r = run(&c).expect("valid config");
                println!(
                    "{bench:?}/{ic:?}/{:?} job_ns={} map_end={} shuffle_end={} {:?}",
                    c.engine,
                    r.result.job_time.as_nanos(),
                    r.result.map_phase_end.as_nanos(),
                    r.result.shuffle_end.as_nanos(),
                    r.result.counters
                );
            }
        }
    }
}
