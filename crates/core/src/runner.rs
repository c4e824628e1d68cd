//! Runs a [`BenchConfig`] through the backend it selects.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::backend::expected_reduce_fractions;
use crate::bench::MicroBenchmark;
use crate::config::{BackendKind, BenchConfig};
use crate::error::Error;
use crate::report::BenchReport;
use mapreduce::analytic::{evaluate, AnalyticJob};
use mapreduce::engine::Engine;
use mapreduce::job::PartitionerFactory;
use mapreduce::partition::Partitioner;

/// Run one micro-benchmark to completion on the backend named by
/// [`BenchConfig::backend`] — the discrete-event simulator by default,
/// or the closed-form analytic model (see [`crate::backend`]). Either
/// backend validates the config first, so bad input is always an
/// [`Error::Config`] (CLI exit code 3).
pub fn run(config: &BenchConfig) -> Result<BenchReport, Error> {
    run_with(config, None)
}

/// [`run`], reading per-map partition counts through `memo` when given.
pub(crate) fn run_with(
    config: &BenchConfig,
    memo: Option<&CountsMemo>,
) -> Result<BenchReport, Error> {
    config.validate().map_err(Error::Config)?;
    let result = match config.backend {
        BackendKind::Des => run_des(config, memo),
        BackendKind::Analytic => run_analytic(config)?,
    };
    Ok(BenchReport {
        config: config.clone(),
        result,
    })
}

/// The discrete-event simulator.
fn run_des(config: &BenchConfig, memo: Option<&CountsMemo>) -> mapreduce::JobResult {
    let spec = config.job_spec();
    let mut factory = config.factory();
    if let Some(memo) = memo {
        factory = Box::new(MemoFactory {
            inner: factory,
            partitioner: partitioner_id(config),
            memo: memo.clone(),
        });
    }
    let mut engine = Engine::with_topology(
        spec,
        factory.as_ref(),
        config.node_spec(),
        config.topology(),
    );
    if config.trace {
        engine.enable_tracing();
    }
    engine.run()
}

/// Which partitioner a config runs: its benchmark, plus the exponent
/// for MR-ZIPF (the only one that reads it).
type PartitionerId = (&'static str, u64);

fn partitioner_id(config: &BenchConfig) -> PartitionerId {
    let exponent = match config.benchmark {
        MicroBenchmark::Zipf => config.zipf_exponent.to_bits(),
        _ => 0,
    };
    (config.benchmark.label(), exponent)
}

/// Everything one map's counts depend on: the partitioner, the
/// `(map_index, seed)` it was created with, and the `(n_records,
/// n_reducers)` of its `assign_counts` call. The network never enters.
type CountsKey = (PartitionerId, u32, u64, u64, u32);

/// Per-map partition counts shared by the cells of one sweep. The
/// counts are a pure function of their [`CountsKey`], so whichever cell
/// computes an entry first, every reader gets the same value.
pub(crate) type CountsMemo = Arc<Mutex<BTreeMap<CountsKey, Vec<u64>>>>;

/// Wraps a config's partitioner factory so each map's counts are read
/// through a [`CountsMemo`].
struct MemoFactory {
    inner: Box<dyn PartitionerFactory>,
    partitioner: PartitionerId,
    memo: CountsMemo,
}

impl PartitionerFactory for MemoFactory {
    fn create(&self, map_index: u32, seed: u64) -> Box<dyn Partitioner> {
        Box::new(MemoPartitioner {
            inner: self.inner.create(map_index, seed),
            created: (self.partitioner, map_index, seed),
            memo: Arc::clone(&self.memo),
        })
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

struct MemoPartitioner {
    inner: Box<dyn Partitioner>,
    created: (PartitionerId, u32, u64),
    memo: CountsMemo,
}

impl Partitioner for MemoPartitioner {
    fn partition(&mut self, key: &[u8], ordinal: u64, n_reducers: u32) -> u32 {
        self.inner.partition(key, ordinal, n_reducers)
    }

    fn assign_counts(
        &mut self,
        n_records: u64,
        n_reducers: u32,
        key_of: &mut dyn FnMut(u64, &mut Vec<u8>),
    ) -> Vec<u64> {
        let (partitioner, map_index, seed) = self.created;
        let key = (partitioner, map_index, seed, n_records, n_reducers);
        if let Some(counts) = self.memo.lock().unwrap().get(&key) {
            return counts.clone();
        }
        // Computed outside the lock: two cells may race to fill one
        // entry, but they compute the same value.
        let counts = self.inner.assign_counts(n_records, n_reducers, key_of);
        self.memo.lock().unwrap().insert(key, counts.clone());
        counts
    }
}

/// The closed-form cost model.
fn run_analytic(config: &BenchConfig) -> Result<mapreduce::JobResult, Error> {
    // The model has no notion of failures or speculative attempts;
    // silently returning fault-free numbers for a fault-injection
    // config would be a lie, so refuse instead.
    if !config.faults.is_empty() {
        return Err(Error::Config(
            "the analytic backend cannot model fault injection; use --backend des".into(),
        ));
    }
    if config.speculative {
        return Err(Error::Config(
            "the analytic backend cannot model speculative execution; use --backend des".into(),
        ));
    }
    let spec = config.job_spec();
    let node = config.node_spec();
    let topology = config.topology();
    evaluate(&AnalyticJob {
        spec: &spec,
        node: &node,
        topology: &topology,
        reduce_fractions: expected_reduce_fractions(config),
        monitor_interval_s: config.monitor_interval_s,
        trace: config.trace,
    })
    .map_err(Error::Config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::MicroBenchmark;
    use crate::config::ShuffleVolume;
    use simcore::units::ByteSize;
    use simnet::Interconnect;

    fn small(bench: MicroBenchmark, ic: Interconnect) -> BenchConfig {
        let mut c = BenchConfig::cluster_a_default(bench, ic, ByteSize::from_mib(256));
        c.slaves = 2;
        c.num_maps = 4;
        c.num_reduces = 4;
        c
    }

    #[test]
    fn all_three_benchmarks_run() {
        for bench in MicroBenchmark::ALL {
            let report = run(&small(bench, Interconnect::GigE1)).unwrap();
            assert_eq!(report.result.counters.maps_completed, 4);
            assert_eq!(report.result.counters.reduces_completed, 4);
            assert!(report.job_time_secs() > 0.0);
        }
    }

    #[test]
    fn skew_is_slower_than_avg() {
        let avg = run(&small(MicroBenchmark::Avg, Interconnect::GigE1)).unwrap();
        let skew = run(&small(MicroBenchmark::Skew, Interconnect::GigE1)).unwrap();
        // At this toy scale fixed overheads dominate; the paper's ~2x
        // factor emerges at multi-gigabyte sizes (checked by the fig2
        // bench and the integration tests).
        assert!(
            skew.job_time_secs() > avg.job_time_secs() * 1.1,
            "skew {} vs avg {}",
            skew.job_time_secs(),
            avg.job_time_secs()
        );
    }

    #[test]
    fn deterministic() {
        let a = run(&small(MicroBenchmark::Rand, Interconnect::IpoibQdr)).unwrap();
        let b = run(&small(MicroBenchmark::Rand, Interconnect::IpoibQdr)).unwrap();
        assert_eq!(a.result.job_time, b.result.job_time);
        assert_eq!(a.result.counters, b.result.counters);
    }

    #[test]
    fn traced_config_yields_phases_that_reconcile() {
        let mut c = small(MicroBenchmark::Avg, Interconnect::GigE1);
        c.trace = true;
        let r = run(&c).unwrap();
        let b = r.phases().expect("breakdown present when traced");
        assert!(b.reconciles(0.01), "{b:?}");
        assert!((b.total_s - r.job_time_secs()).abs() < 1e-9);
        assert!(r.result.trace.is_some());
        // The report prints the extra phase section.
        let text = r.to_string();
        assert!(text.contains("phase breakdown"), "{text}");
        assert!(text.contains("shuffle"), "{text}");
        // Tracing never perturbs the simulation itself.
        let mut plain = c.clone();
        plain.trace = false;
        let p = run(&plain).unwrap();
        assert_eq!(p.result.job_time, r.result.job_time);
        assert_eq!(p.result.counters, r.result.counters);
        assert!(p.phases().is_none());
    }

    #[test]
    fn analytic_refuses_what_it_cannot_model() {
        let mut c = small(MicroBenchmark::Avg, Interconnect::GigE1);
        c.backend = BackendKind::Analytic;
        assert!(run(&c).is_ok());
        let mut faulty = c.clone();
        faulty.faults.map_failure_prob = 0.1;
        let err = run(&faulty);
        assert!(matches!(err, Err(Error::Config(_))), "{err:?}");
        let mut spec = c;
        spec.speculative = true;
        assert!(matches!(run(&spec), Err(Error::Config(_))));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut c = small(MicroBenchmark::Avg, Interconnect::GigE1);
        c.slaves = 0;
        assert!(run(&c).is_err());
    }

    #[test]
    fn injected_faults_recover_and_conserve_records() {
        let mut c = small(MicroBenchmark::Avg, Interconnect::GigE10);
        c.volume = ShuffleVolume::PairsPerMap(10_000);
        c.faults.map_failure_prob = 0.2;
        c.faults.reduce_failure_prob = 0.2;
        let r = run(&c).unwrap();
        assert!(r.result.succeeded());
        assert!(r.result.counters.failed_task_attempts > 0);
        // Retried work never double-counts logical records.
        assert_eq!(r.result.counters.map_output_records, 40_000);
        assert_eq!(r.result.counters.reduce_input_records, 40_000);
    }

    #[test]
    fn event_budget_truncates_gracefully_with_diagnostics() {
        let mut c = small(MicroBenchmark::Avg, Interconnect::GigE1);
        c.max_events = Some(50);
        let r = run(&c).unwrap();
        assert!(!r.result.succeeded());
        assert_eq!(
            r.result.outcome,
            mapreduce::faults::JobOutcome::BudgetExceeded
        );
        let diag = r
            .result
            .budget
            .as_ref()
            .expect("breach carries diagnostics");
        assert!(diag.breach.contains("event budget"), "{}", diag.breach);
        assert_eq!(diag.events, 50);
        assert_eq!(diag.maps_total, 4);
        assert_eq!(diag.reduces_total, 4);
        assert!(diag.maps_done <= 4 && diag.reduces_done <= 4);
        // The one-line summary is what binaries print before exit 6.
        let s = diag.summary();
        assert!(!s.contains('\n') && s.contains("maps"), "{s}");
        // Truncation is deterministic: same budget, same cut point.
        let again = run(&c).unwrap();
        assert_eq!(again.result.job_time, r.result.job_time);
        assert_eq!(again.result.budget.as_ref().unwrap().at, diag.at);
    }

    #[test]
    fn sim_time_budget_truncates_and_round_trips() {
        let mut c = small(MicroBenchmark::Avg, Interconnect::GigE1);
        let clean = run(&c).unwrap();
        c.max_sim_secs = Some(clean.job_time_secs() / 2.0);
        let r = run(&c).unwrap();
        assert_eq!(
            r.result.outcome,
            mapreduce::faults::JobOutcome::BudgetExceeded
        );
        let diag = r.result.budget.as_ref().unwrap();
        assert!(
            diag.breach.contains("simulated-time budget"),
            "{}",
            diag.breach
        );
        // A truncated report is still a valid artifact: the budget
        // diagnostics and outcome survive the canonical JSON round trip.
        let text = r.to_json().to_pretty();
        let back =
            crate::report::BenchReport::from_json(&simcore::json::Json::parse(&text).unwrap())
                .unwrap();
        assert_eq!(back.to_json().to_pretty(), text);
        assert_eq!(
            back.result.outcome,
            mapreduce::faults::JobOutcome::BudgetExceeded
        );
        assert_eq!(back.result.budget.as_ref().unwrap().events, diag.events);
        // An unlimited run is untouched.
        assert!(clean.result.succeeded());
        assert!(clean.result.budget.is_none());
    }

    #[test]
    fn oversubscribed_racks_slow_the_shuffle() {
        // Satellite regression for the once-dead topology path: the same
        // job over a 2-rack, heavily oversubscribed fabric must be
        // strictly slower than the flat crossbar, because the all-to-all
        // shuffle is dominated by cross-rack traffic.
        let mut flat = small(MicroBenchmark::Avg, Interconnect::GigE1);
        flat.slaves = 4;
        flat.num_maps = 8;
        flat.num_reduces = 8;
        let mut racked = flat.clone();
        racked.racks = 2;
        racked.oversubscription = 8.0;
        let f = run(&flat).unwrap();
        let r = run(&racked).unwrap();
        assert!(
            r.job_time_secs() > f.job_time_secs(),
            "racked {} vs flat {}",
            r.job_time_secs(),
            f.job_time_secs()
        );
    }

    #[test]
    fn fabric_cap_slows_the_shuffle() {
        let mut flat = small(MicroBenchmark::Avg, Interconnect::GigE10);
        flat.slaves = 4;
        let mut capped = flat.clone();
        // Well under 4 x 10GigE of aggregate demand.
        capped.fabric_cap_mb_s = Some(200.0);
        let f = run(&flat).unwrap();
        let c = run(&capped).unwrap();
        assert!(
            c.job_time_secs() > f.job_time_secs(),
            "capped {} vs flat {}",
            c.job_time_secs(),
            f.job_time_secs()
        );
    }

    #[test]
    fn factor_one_racks_are_bit_identical_to_flat() {
        // Non-blocking racks add no solver resources, so grouping alone
        // must not perturb a single bit of the simulation — for every
        // benchmark and interconnect the figures use.
        for bench in MicroBenchmark::ALL {
            for ic in [Interconnect::GigE1, Interconnect::IpoibQdr] {
                let flat = small(bench, ic);
                let mut racked = flat.clone();
                racked.racks = 2;
                racked.oversubscription = 1.0;
                let f = run(&flat).unwrap();
                let r = run(&racked).unwrap();
                assert_eq!(f.result.job_time, r.result.job_time, "{bench} {ic:?}");
                assert_eq!(f.result.counters, r.result.counters, "{bench} {ic:?}");
            }
        }
    }

    #[test]
    fn monitor_interval_is_config_driven() {
        let base = small(MicroBenchmark::Avg, Interconnect::GigE1);
        let coarse = run(&base).unwrap();

        // A 10x finer interval yields strictly more samples of both
        // monitors without changing the simulation outcome.
        let mut fine = base.clone();
        fine.monitor_interval_s = 0.1;
        let f = run(&fine).unwrap();
        assert_eq!(f.result.job_time, coarse.result.job_time);
        assert!(
            f.result.cpu_series[0].len() > coarse.result.cpu_series[0].len(),
            "fine {} vs coarse {}",
            f.result.cpu_series[0].len(),
            coarse.result.cpu_series[0].len()
        );
        assert!(f.result.net_rx_series[0].len() > coarse.result.net_rx_series[0].len());

        // An interval longer than the whole job still records the final
        // partial window: the end-of-run flush is what makes short jobs
        // observable at all.
        let mut huge = base;
        huge.monitor_interval_s = 1e6;
        let h = run(&huge).unwrap();
        assert_eq!(h.result.job_time, coarse.result.job_time);
        assert!(!h.result.cpu_series[0].is_empty());
        assert!(!h.result.net_rx_series[0].is_empty());
        // The flush stamps the window at the point the engine drained,
        // which never exceeds the reported job time.
        let last = h.result.cpu_series[0].samples().last().unwrap();
        assert!(last.time > simcore::time::SimTime::ZERO);
        assert!(last.time <= simcore::time::SimTime::ZERO + h.result.job_time);
    }

    #[test]
    fn record_conservation_across_benchmarks() {
        for bench in MicroBenchmark::ALL {
            let mut c = small(bench, Interconnect::GigE10);
            c.volume = ShuffleVolume::PairsPerMap(10_000);
            let r = run(&c).unwrap();
            assert_eq!(r.result.counters.map_output_records, 40_000, "{bench}");
            assert_eq!(r.result.counters.reduce_input_records, 40_000, "{bench}");
        }
    }
}
