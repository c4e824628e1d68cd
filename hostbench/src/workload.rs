//! The three workloads, each a pure function of (workload, seed).
//!
//! A pass is a workload's full job list. Pass `p` of a run started with
//! `--seed n` uses the ring seed `(n + p) mod RING`; the ring seed picks
//! the simulator seed of every job in the pass. All cells of one pass
//! share that seed, as the cells of a real figure sweep do, so a cache
//! inside the program can reuse work within a pass (the same MR-RAND
//! counts across the three networks) but never from one pass to the
//! next. Golden outputs exist for every ring seed (see `golden`).

use mapreduce::multijob::{ArrivalProcess, MultiJobSpec, TenantSpec};
use mrbench::{BenchConfig, Interconnect, MicroBenchmark};
use simcore::units::ByteSize;
use simnet::Topology;

/// Number of distinct ring seeds; also the most passes one run makes.
pub const RING: u64 = 64;

/// The simulator seed of ring seed 0: the figure binaries' default.
const BASE_SEED: u64 = 0x5EED_2014;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Cluster A figure grid (Figs. 2/6) through `Sweep::run_grid_with`.
    PaperGrid,
    /// One wide MR-AVG job, flat and racked, through `mrbench::run`.
    WideAvg,
    /// A multi-tenant Poisson job stream through `multijob::run`.
    MultijobRack,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::WideAvg,
        Workload::MultijobRack,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::WideAvg => "wide-avg",
            Workload::MultijobRack => "multijob-rack",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One panel of a figure grid: a benchmark over sizes × networks.
#[derive(Clone, Debug)]
pub struct GridPanel {
    /// The micro-benchmark every cell runs.
    pub benchmark: MicroBenchmark,
    /// Row labels (shuffle sizes).
    pub sizes: Vec<ByteSize>,
    /// Column labels (interconnects).
    pub interconnects: Vec<Interconnect>,
    /// Simulator seed shared by every cell.
    pub seed: u64,
}

impl GridPanel {
    /// The config of one cell, as a figure binary builds it.
    pub fn cell(&self, shuffle: ByteSize, ic: Interconnect) -> BenchConfig {
        BenchConfig {
            seed: self.seed,
            ..BenchConfig::cluster_a_default(self.benchmark, ic, shuffle)
        }
    }

    /// Every cell config in the row-major order of the sweep.
    pub fn cells(&self) -> Vec<BenchConfig> {
        self.sizes
            .iter()
            .flat_map(|&s| self.interconnects.iter().map(move |&ic| self.cell(s, ic)))
            .collect()
    }
}

/// The job list of one pass.
#[derive(Clone, Debug)]
pub enum Plan {
    /// Figure-grid panels, each run as one sweep.
    Grid(Vec<GridPanel>),
    /// Independent single jobs.
    Runs(Vec<BenchConfig>),
    /// One multi-job stream.
    Multi(Box<MultiJobSpec>),
}

impl Plan {
    /// Every single-job config of the plan, in run order.
    pub fn configs(&self) -> Vec<BenchConfig> {
        match self {
            Plan::Grid(panels) => panels.iter().flat_map(GridPanel::cells).collect(),
            Plan::Runs(configs) => configs.clone(),
            Plan::Multi(_) => Vec::new(),
        }
    }

    /// Jobs attempted by one pass: one per DES job, one per stream job.
    pub fn jobs(&self) -> u64 {
        match self {
            Plan::Multi(spec) => spec.n_jobs as u64,
            _ => self.configs().len() as u64,
        }
    }
}

/// Ring seed of pass `pass` of a run started with `--seed seed`.
pub fn ring_seed(seed: u64, pass: u64) -> u64 {
    seed.wrapping_add(pass) % RING
}

/// The job list of `workload` at ring seed `ring`.
pub fn plan(workload: Workload, ring: u64) -> Plan {
    assert!(ring < RING, "ring seed {ring} out of range");
    let seed = BASE_SEED + ring;
    match workload {
        Workload::PaperGrid => Plan::Grid(
            [
                MicroBenchmark::Avg,
                MicroBenchmark::Rand,
                MicroBenchmark::Skew,
            ]
            .into_iter()
            .map(|benchmark| GridPanel {
                benchmark,
                sizes: vec![ByteSize::from_gib(8), ByteSize::from_gib(16)],
                interconnects: vec![
                    Interconnect::GigE1,
                    Interconnect::GigE10,
                    Interconnect::IpoibQdr,
                ],
                seed,
            })
            .collect(),
        ),
        Workload::WideAvg => {
            let flat = BenchConfig {
                slaves: 32,
                num_maps: 256,
                num_reduces: 128,
                seed,
                ..BenchConfig::cluster_a_default(
                    MicroBenchmark::Avg,
                    Interconnect::GigE10,
                    ByteSize::from_gib(32),
                )
            };
            let racked = BenchConfig {
                racks: 4,
                oversubscription: 4.0,
                ..flat.clone()
            };
            Plan::Runs(vec![flat, racked])
        }
        Workload::MultijobRack => Plan::Multi(Box::new(MultiJobSpec {
            topology: multijob_topology(),
            tenants: (0..3)
                .map(|t| TenantSpec {
                    name: format!("tenant-{t}"),
                    weight: f64::from(t + 1),
                })
                .collect(),
            n_jobs: 400,
            arrivals: ArrivalProcess::Poisson { mean_gap_s: 0.5 },
            slots_per_node: 2,
            maps_per_job: 32,
            reduces_per_job: 16,
            shuffle_bytes_per_job: ByteSize::from_mib(128),
            map_service_s: 1.0,
            reduce_service_s: 0.5,
            seed,
        })),
    }
}

/// The multijob-rack fabric: 256 IPoIB-QDR nodes in 16 racks at 4:1.
pub fn multijob_topology() -> Topology {
    Topology::single_switch(256, Interconnect::IpoibQdr).with_racks(16, 4.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::engine::Engine;
    use mapreduce::job::PartitionerFactory;
    use mapreduce::partition::Partitioner;
    use mrbench::ShuffleVolume;
    use std::sync::{Arc, Mutex};

    fn describe(plan: &Plan) -> String {
        let configs: Vec<String> = plan
            .configs()
            .iter()
            .map(|c| c.to_json().to_compact())
            .collect();
        match plan {
            Plan::Multi(spec) => format!("{spec:?}"),
            _ => configs.join("\n"),
        }
    }

    #[test]
    fn plan_is_a_pure_function_of_workload_and_seed() {
        for w in Workload::ALL {
            for ring in [0, 1, RING - 1] {
                assert_eq!(describe(&plan(w, ring)), describe(&plan(w, ring)));
            }
            assert_ne!(describe(&plan(w, 0)), describe(&plan(w, 1)));
        }
    }

    #[test]
    fn workload_shapes_match_their_definition() {
        assert_eq!(plan(Workload::PaperGrid, 0).jobs(), 18);
        let wide = plan(Workload::WideAvg, 0).configs();
        assert_eq!(wide.len(), 2);
        assert_eq!(
            wide[0].job_spec().conf.num_maps * wide[0].num_reduces,
            32_768
        );
        assert!(wide[1].topology().n_nodes() == 32 && wide[1].racks == 4);
        assert_eq!(plan(Workload::MultijobRack, 0).jobs(), 400);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn ring_seed_wraps() {
        assert_eq!(ring_seed(0, 0), 0);
        assert_eq!(ring_seed(RING - 1, 1), 0);
        assert_eq!(ring_seed(u64::MAX, 1), 0);
    }

    /// Records the per-map counts the engine's partitioners produce.
    struct Recording {
        inner: Box<dyn PartitionerFactory>,
        counts: Arc<Mutex<Vec<Vec<u64>>>>,
    }

    struct RecordingPartitioner {
        inner: Box<dyn Partitioner>,
        counts: Arc<Mutex<Vec<Vec<u64>>>>,
    }

    impl PartitionerFactory for Recording {
        fn create(&self, map_index: u32, seed: u64) -> Box<dyn Partitioner> {
            Box::new(RecordingPartitioner {
                inner: self.inner.create(map_index, seed),
                counts: Arc::clone(&self.counts),
            })
        }
        fn name(&self) -> &str {
            self.inner.name()
        }
    }

    impl Partitioner for RecordingPartitioner {
        fn partition(&mut self, key: &[u8], ordinal: u64, n_reducers: u32) -> u32 {
            self.inner.partition(key, ordinal, n_reducers)
        }
        fn assign_counts(
            &mut self,
            n_records: u64,
            n_reducers: u32,
            key_of: &mut dyn FnMut(u64, &mut Vec<u8>),
        ) -> Vec<u64> {
            let counts = self.inner.assign_counts(n_records, n_reducers, key_of);
            self.counts.lock().unwrap().push(counts.clone());
            counts
        }
    }

    /// Per-map counts of the pass's first MR-RAND cell, shrunk to a few
    /// thousand records per map so the test stays fast.
    fn rand_counts(ring: u64) -> Vec<Vec<u64>> {
        let Plan::Grid(panels) = plan(Workload::PaperGrid, ring) else {
            panic!("paper-grid is a grid");
        };
        let panel = panels
            .iter()
            .find(|p| p.benchmark == MicroBenchmark::Rand)
            .expect("paper-grid has an MR-RAND panel");
        let mut config = panel.cells().remove(0);
        config.volume = ShuffleVolume::PairsPerMap(4_000);
        let counts = Arc::new(Mutex::new(Vec::new()));
        let factory = Recording {
            inner: config.factory(),
            counts: Arc::clone(&counts),
        };
        let result = Engine::with_topology(
            config.job_spec(),
            &factory,
            config.node_spec(),
            config.topology(),
        )
        .run();
        assert!(result.succeeded());
        let mut counts = counts.lock().unwrap().clone();
        counts.sort();
        counts
    }

    #[test]
    fn consecutive_pass_seeds_change_rand_counts() {
        let a = rand_counts(ring_seed(7, 0));
        let b = rand_counts(ring_seed(7, 1));
        assert_eq!(a.len(), 16);
        assert_eq!(a, rand_counts(ring_seed(7, 0)));
        assert_ne!(a, b);
    }
}
