//! Job configuration.
//!
//! [`JobConf`] mirrors the `mapred-site.xml` / `JobConf` knobs that matter
//! to the stand-alone benchmark: task counts, sort-buffer geometry, shuffle
//! parallelism, slow-start, and the slot/container shape of the cluster.
//! Defaults follow Apache Hadoop 1.2.1 with the adjustments the paper's
//! experiments imply (e.g. enough map slots for a single wave of 16 maps
//! on 4 slaves).

use simcore::units::ByteSize;

use crate::faults::FaultPlan;

/// Which MapReduce runtime schedules the job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// Hadoop 1.x: JobTracker + TaskTracker slots.
    MRv1,
    /// Hadoop 2.x NextGen (YARN): ResourceManager + ApplicationMaster
    /// containers.
    Yarn,
}

impl EngineKind {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::MRv1 => "MRv1 (Hadoop 1.x)",
            EngineKind::Yarn => "YARN (Hadoop 2.x)",
        }
    }
}

/// How the reduce-side copies map output: the stock socket-based fetcher
/// or the RDMA-enhanced engine of the paper's Sect. 6 case study (MRoIB).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShuffleEngineKind {
    /// Stock Hadoop HTTP-over-TCP fetchers.
    Tcp,
    /// RDMA-based shuffle (MRoIB): zero-copy transfers, pre-registered
    /// buffers, and an overlapped merge pipeline.
    Rdma,
}

/// MapReduce job configuration (the simulator's `mapred-site.xml`).
#[derive(Clone, Debug)]
pub struct JobConf {
    /// Number of map tasks (`mapred.map.tasks`).
    pub num_maps: u32,
    /// Number of reduce tasks (`mapred.reduce.tasks`).
    pub num_reduces: u32,
    /// Map-side sort buffer (`io.sort.mb`).
    pub io_sort_mb: ByteSize,
    /// Spill threshold fraction of the sort buffer
    /// (`io.sort.spill.percent`).
    pub io_sort_spill_percent: f64,
    /// Maximum streams merged at once (`io.sort.factor`).
    pub io_sort_factor: u32,
    /// Concurrent fetches per reducer
    /// (`mapred.reduce.parallel.copies`).
    pub shuffle_parallel_copies: u32,
    /// Fraction of maps that must finish before reducers may be launched
    /// (`mapred.reduce.slowstart.completed.maps`).
    pub reduce_slowstart: f64,
    /// Reduce-side in-memory shuffle buffer: data beyond this spills to
    /// disk (derived from `mapred.job.shuffle.input.buffer.percent` of the
    /// reduce JVM heap).
    pub shuffle_buffer: ByteSize,
    /// Map slots per TaskTracker (MRv1 only).
    pub map_slots_per_node: u32,
    /// Reduce slots per TaskTracker (MRv1 only).
    pub reduce_slots_per_node: u32,
    /// Container memory for YARN tasks
    /// (`mapreduce.map.memory.mb` / `reduce.memory.mb`).
    pub container_memory: ByteSize,
    /// Which runtime schedules tasks.
    pub engine: EngineKind,
    /// Which shuffle data path the reducers use.
    pub shuffle_engine: ShuffleEngineKind,
    /// Master seed for all deterministic randomness in the job.
    pub seed: u64,
    /// What goes wrong during the run (see [`FaultPlan`]). The default
    /// empty plan injects nothing.
    pub faults: FaultPlan,
    /// Attempts per task before the job is killed
    /// (`mapred.{map,reduce}.max.attempts`).
    pub max_attempts: u32,
    /// Launch backup attempts for straggling tasks
    /// (`mapred.{map,reduce}.tasks.speculative.execution`).
    pub speculative: bool,
    /// A running task is a speculation candidate once its elapsed time
    /// exceeds this multiple of the mean completed-task duration.
    pub speculative_slowdown: f64,
    /// Shuffle fetch tries per map segment before the reduce attempt
    /// gives up and fails (`mapreduce.reduce.shuffle.maxfetchfailures`).
    pub fetch_max_retries: u32,
    /// Base delay for the fetcher's exponential backoff, in seconds.
    pub fetch_retry_base_s: f64,
    /// A node is blacklisted after this many failed task attempts
    /// (`mapred.max.tracker.failures`).
    pub node_blacklist_threshold: u32,
    /// Watchdog: abort the run with [`crate::faults::JobOutcome::BudgetExceeded`]
    /// after this many dispatched events. `None` is unlimited.
    pub max_events: Option<u64>,
    /// Watchdog: abort once simulated time passes this horizon, in
    /// seconds. `None` is unlimited.
    pub max_sim_time_s: Option<f64>,
    /// Sampling interval for the per-node network/CPU throughput
    /// monitors, in seconds. The Fig. 7(b)-style 1 Hz default matches
    /// stock `sar`/`dstat` sampling; sub-second `--quick` jobs need a
    /// finer interval to produce a usable time series.
    pub monitor_interval_s: f64,
}

impl Default for JobConf {
    fn default() -> Self {
        JobConf {
            num_maps: 2,
            num_reduces: 1,
            io_sort_mb: ByteSize::from_mib(100),
            io_sort_spill_percent: 0.80,
            io_sort_factor: 10,
            shuffle_parallel_copies: 5,
            reduce_slowstart: 0.05,
            // 0.70 x 1 GB reduce JVM heap.
            shuffle_buffer: ByteSize::from_mib(716),
            // Hadoop 1.x defaults: mapred.tasktracker.{map,reduce}.tasks.maximum = 2.
            map_slots_per_node: 2,
            reduce_slots_per_node: 2,
            container_memory: ByteSize::from_mib(1024),
            engine: EngineKind::MRv1,
            shuffle_engine: ShuffleEngineKind::Tcp,
            // Any constant works; 2014 nods to the paper's venue year.
            seed: 0x5EED_2014,
            faults: FaultPlan::none(),
            // Hadoop 1.x defaults: mapred.map.max.attempts = 4,
            // speculative execution on in stock Hadoop but off here so the
            // clean path stays byte-stable unless explicitly requested.
            max_attempts: 4,
            speculative: false,
            speculative_slowdown: 1.5,
            fetch_max_retries: 10,
            fetch_retry_base_s: 1.0,
            node_blacklist_threshold: 3,
            max_events: None,
            max_sim_time_s: None,
            monitor_interval_s: 1.0,
        }
    }
}

impl JobConf {
    /// Conf with the given task counts and defaults elsewhere.
    #[cfg(test)]
    pub fn with_tasks(num_maps: u32, num_reduces: u32) -> Self {
        JobConf {
            num_maps,
            num_reduces,
            ..JobConf::default()
        }
    }

    /// The spill threshold in bytes.
    pub fn spill_threshold(&self) -> ByteSize {
        ByteSize::from_bytes(
            (self.io_sort_mb.as_bytes() as f64 * self.io_sort_spill_percent) as u64,
        )
    }

    /// Sanity-check the configuration, returning a description of the
    /// first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_maps == 0 {
            return Err("num_maps must be at least 1".into());
        }
        if self.num_reduces == 0 {
            return Err("num_reduces must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.io_sort_spill_percent) {
            return Err("io.sort.spill.percent must be in [0,1]".into());
        }
        if self.io_sort_spill_percent < 0.1 {
            return Err("io.sort.spill.percent below 0.1 would thrash".into());
        }
        if self.io_sort_factor < 2 {
            return Err("io.sort.factor must be at least 2".into());
        }
        if self.shuffle_parallel_copies == 0 {
            return Err("mapred.reduce.parallel.copies must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.reduce_slowstart) {
            return Err("reduce slowstart must be in [0,1]".into());
        }
        if self.map_slots_per_node == 0 || self.reduce_slots_per_node == 0 {
            return Err("slot counts must be at least 1".into());
        }
        if self.io_sort_mb.is_zero() {
            return Err("io.sort.mb must be positive".into());
        }
        if self.max_attempts == 0 {
            return Err("max_attempts must be at least 1".into());
        }
        if self.speculative_slowdown <= 1.0 {
            return Err("speculative_slowdown must exceed 1.0".into());
        }
        if self.fetch_max_retries == 0 {
            return Err("fetch_max_retries must be at least 1".into());
        }
        if !(self.fetch_retry_base_s.is_finite() && self.fetch_retry_base_s > 0.0) {
            return Err("fetch_retry_base_s must be positive".into());
        }
        if self.node_blacklist_threshold == 0 {
            return Err("node_blacklist_threshold must be at least 1".into());
        }
        if self.max_events == Some(0) {
            return Err("max_events must be at least 1 when set".into());
        }
        if let Some(horizon) = self.max_sim_time_s {
            if !(horizon.is_finite() && horizon > 0.0) {
                return Err(format!("max_sim_time_s must be positive, got {horizon}"));
            }
        }
        if !(self.monitor_interval_s.is_finite() && self.monitor_interval_s > 0.0) {
            return Err(format!(
                "monitor_interval_s must be positive, got {}",
                self.monitor_interval_s
            ));
        }
        self.faults.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_hadoopish() {
        let c = JobConf::default();
        c.validate().unwrap();
        assert_eq!(c.io_sort_mb, ByteSize::from_mib(100));
        assert_eq!(c.shuffle_parallel_copies, 5);
        assert!((c.reduce_slowstart - 0.05).abs() < 1e-12);
        assert_eq!(c.engine, EngineKind::MRv1);
        assert_eq!(c.shuffle_engine, ShuffleEngineKind::Tcp);
    }

    #[test]
    fn spill_threshold_is_fraction_of_buffer() {
        let c = JobConf::default();
        let expect = (100.0 * 1024.0 * 1024.0 * 0.8) as u64;
        assert_eq!(c.spill_threshold().as_bytes(), expect);
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = JobConf::with_tasks(0, 1);
        assert!(c.validate().is_err());
        c.num_maps = 1;
        c.num_reduces = 0;
        assert!(c.validate().is_err());
        c.num_reduces = 1;
        c.io_sort_factor = 1;
        assert!(c.validate().is_err());
        c.io_sort_factor = 10;
        c.reduce_slowstart = 1.5;
        assert!(c.validate().is_err());
        c.reduce_slowstart = 0.05;
        c.validate().unwrap();
    }

    #[test]
    fn engine_labels() {
        assert!(EngineKind::MRv1.label().contains("1.x"));
        assert!(EngineKind::Yarn.label().contains("YARN"));
    }
}
