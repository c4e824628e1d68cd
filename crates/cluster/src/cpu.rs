//! Processor-sharing CPU simulation.
//!
//! Each node has `cores` cores. Every runnable job (a map task generating
//! records, a reducer merging, protocol processing on behalf of the
//! kernel…) is single-threaded and owns at most one core; when more jobs
//! are runnable than cores exist, the OS scheduler time-slices them
//! fairly. The fluid limit of that policy is processor sharing:
//!
//! ```text
//! rate(job) = speed * min(1, cores / runnable_jobs)   [core-seconds/sec]
//! ```
//!
//! Work amounts are expressed in *core-seconds at the Westmere baseline*;
//! a node's `speed` factor scales execution.

use std::collections::BTreeMap;

use simcore::stats::RateIntegrator;
use simcore::time::{SimDuration, SimTime};

#[derive(Clone, Debug)]
struct Job {
    node: usize,
    remaining: f64,
    // simlint: allow(unit-suffix, core-seconds per second, a dimensionless PS share, not bytes/s)
    rate: f64,
    tag: u64,
}

/// Per-node processor-sharing CPU simulator.
#[derive(Debug)]
pub struct CpuSim {
    cores: Vec<u32>,
    speed: Vec<f64>,
    jobs: BTreeMap<u64, Job>,
    runnable_per_node: Vec<usize>,
    next_id: u64,
    clock: SimTime,
    busy: Vec<RateIntegrator>,
}

impl CpuSim {
    /// A CPU simulator for nodes with the given core counts and speed
    /// factors.
    pub fn new(cores: Vec<u32>, speed: Vec<f64>) -> Self {
        assert_eq!(cores.len(), speed.len());
        assert!(cores.iter().all(|&c| c > 0), "nodes need at least one core");
        let n = cores.len();
        CpuSim {
            cores,
            speed,
            jobs: BTreeMap::new(),
            runnable_per_node: vec![0; n],
            next_id: 0,
            clock: SimTime::ZERO,
            busy: (0..n).map(|_| RateIntegrator::new(SimTime::ZERO)).collect(),
        }
    }

    /// Homogeneous helper.
    pub fn homogeneous(n_nodes: usize, cores: u32, speed: f64) -> Self {
        CpuSim::new(vec![cores; n_nodes], vec![speed; n_nodes])
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.cores.len()
    }

    /// Current clock.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Queue `work` core-seconds (baseline-normalized) on `node`.
    pub fn submit(&mut self, now: SimTime, node: usize, work: f64, tag: u64) {
        assert!(node < self.cores.len(), "unknown node {node}");
        assert!(work >= 0.0 && work.is_finite(), "work must be non-negative");
        self.integrate_to(now);
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            Job {
                node,
                remaining: work,
                rate: 0.0,
                tag,
            },
        );
        self.runnable_per_node[node] += 1;
        self.recompute(now);
    }

    /// The earliest job completion, if any work is queued.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        for j in self.jobs.values() {
            let t = if j.remaining <= completion_eps(j.rate) {
                self.clock
            } else if j.rate <= 0.0 {
                continue;
            } else {
                self.clock
                    + SimDuration::from_secs_f64(j.remaining / j.rate)
                    + SimDuration::from_nanos(1)
            };
            best = Some(best.map_or(t, |b| b.min(t)));
        }
        best
    }

    /// Advance to `now`, returning the tags of finished jobs in
    /// deterministic submission order.
    pub fn advance_to(&mut self, now: SimTime) -> Vec<u64> {
        self.integrate_to(now);
        // BTreeMap iteration is job-id ordered, so `done` is sorted by
        // construction.
        let done: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.remaining <= completion_eps(j.rate))
            .map(|(&id, _)| id)
            .collect();
        let mut out = Vec::with_capacity(done.len());
        for id in done {
            let j = self.jobs.remove(&id).expect("job exists");
            self.runnable_per_node[j.node] -= 1;
            out.push(j.tag);
        }
        if !out.is_empty() {
            self.recompute(now);
        }
        out
    }

    /// Instantaneous utilization of `node` in percent (0..=100).
    #[cfg(test)]
    pub fn utilization_pct(&self, node: usize) -> f64 {
        let busy = (self.runnable_per_node[node] as f64).min(self.cores[node] as f64);
        busy / self.cores[node] as f64 * 100.0
    }

    /// Core-seconds consumed on `node` since the last drain.
    pub fn drain_busy_core_seconds(&mut self, node: usize, now: SimTime) -> f64 {
        self.busy[node].drain(now)
    }

    /// Number of runnable jobs on `node`.
    pub fn runnable(&self, node: usize) -> usize {
        self.runnable_per_node[node]
    }

    /// Core count of `node`.
    pub fn cores(&self, node: usize) -> u32 {
        self.cores[node]
    }

    fn integrate_to(&mut self, now: SimTime) {
        assert!(now >= self.clock, "cpu clock cannot run backwards");
        let dt = now.since(self.clock).as_secs_f64();
        if dt > 0.0 {
            for j in self.jobs.values_mut() {
                j.remaining = (j.remaining - j.rate * dt).max(0.0);
            }
        }
        for b in &mut self.busy {
            b.advance(now);
        }
        self.clock = now;
    }

    fn recompute(&mut self, now: SimTime) {
        let n = self.cores.len();
        let mut share = vec![0.0f64; n];
        for (node, slot) in share.iter_mut().enumerate() {
            let runnable = self.runnable_per_node[node];
            if runnable > 0 {
                *slot = self.speed[node] * (self.cores[node] as f64 / runnable as f64).min(1.0);
            }
        }
        for j in self.jobs.values_mut() {
            j.rate = share[j.node];
        }
        for node in 0..n {
            let busy_cores = (self.runnable_per_node[node] as f64).min(self.cores[node] as f64);
            self.busy[node].set_rate(now, busy_cores);
        }
    }
}

// simlint: allow(unit-suffix, rate is in core-seconds per second, matching Job::rate)
fn completion_eps(rate: f64) -> f64 {
    (rate * 2e-9).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_runs_at_full_speed() {
        let mut cpu = CpuSim::homogeneous(1, 8, 1.0);
        cpu.submit(SimTime::ZERO, 0, 3.0, 42);
        let t = cpu.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-6);
        let done = cpu.advance_to(t);
        assert_eq!(done, vec![42]);
    }

    #[test]
    fn speed_factor_scales_execution() {
        let mut cpu = CpuSim::homogeneous(1, 8, 2.0);
        cpu.submit(SimTime::ZERO, 0, 3.0, 0);
        let t = cpu.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn oversubscription_time_slices() {
        // 4 cores, 8 identical jobs of 1 core-second each: every job runs
        // at rate 0.5, all complete at t=2.
        let mut cpu = CpuSim::homogeneous(1, 4, 1.0);
        for i in 0..8 {
            cpu.submit(SimTime::ZERO, 0, 1.0, i);
        }
        assert_eq!(cpu.utilization_pct(0), 100.0);
        let t = cpu.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-6);
        let done = cpu.advance_to(t);
        assert_eq!(done.len(), 8);
        assert_eq!(cpu.utilization_pct(0), 0.0);
    }

    #[test]
    fn undersubscribed_node_not_fully_utilized() {
        let mut cpu = CpuSim::homogeneous(1, 8, 1.0);
        cpu.submit(SimTime::ZERO, 0, 10.0, 0);
        cpu.submit(SimTime::ZERO, 0, 10.0, 1);
        assert_eq!(cpu.utilization_pct(0), 25.0);
        assert_eq!(cpu.runnable(0), 2);
    }

    #[test]
    fn completion_frees_capacity_and_speeds_up_rest() {
        // 1 core, two jobs: 1 cs and 3 cs. PS: both at 0.5; first done at
        // t=2 (its 1 cs), second has 2 cs left, now at rate 1 -> done t=4.
        let mut cpu = CpuSim::homogeneous(1, 1, 1.0);
        cpu.submit(SimTime::ZERO, 0, 1.0, 0);
        cpu.submit(SimTime::ZERO, 0, 3.0, 1);
        let t1 = cpu.next_event_time().unwrap();
        assert!((t1.as_secs_f64() - 2.0).abs() < 1e-6);
        let d1 = cpu.advance_to(t1);
        assert_eq!(d1, vec![0]);
        let t2 = cpu.next_event_time().unwrap();
        assert!((t2.as_secs_f64() - 4.0).abs() < 1e-6, "{t2:?}");
        let d2 = cpu.advance_to(t2);
        assert_eq!(d2, vec![1]);
        assert!(cpu.next_event_time().is_none());
    }

    #[test]
    fn zero_work_completes_immediately() {
        let mut cpu = CpuSim::homogeneous(1, 1, 1.0);
        cpu.submit(SimTime::from_secs(5), 0, 0.0, 9);
        let t = cpu.next_event_time().unwrap();
        assert_eq!(t, SimTime::from_secs(5));
        assert_eq!(cpu.advance_to(t).len(), 1);
    }

    #[test]
    fn busy_core_seconds_accounting() {
        let mut cpu = CpuSim::homogeneous(1, 4, 1.0);
        for i in 0..2 {
            cpu.submit(SimTime::ZERO, 0, 5.0, i);
        }
        let t = SimTime::from_secs(3);
        cpu.advance_to(t);
        let cs = cpu.drain_busy_core_seconds(0, t);
        assert!((cs - 6.0).abs() < 1e-9, "2 busy cores x 3s = 6, got {cs}");
    }

    #[test]
    fn nodes_are_independent() {
        let mut cpu = CpuSim::homogeneous(2, 1, 1.0);
        cpu.submit(SimTime::ZERO, 0, 2.0, 0);
        cpu.submit(SimTime::ZERO, 1, 2.0, 1);
        // No sharing across nodes: both complete at t=2.
        let t = cpu.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-6);
        assert_eq!(cpu.advance_to(t).len(), 2);
    }

    #[test]
    fn simultaneous_completions_report_in_job_id_order() {
        // Regression for the jobs-map migration to BTreeMap: identical
        // jobs all finish at the same instant and must come back in
        // submission (job-id) order — a HashMap scan iterated them in
        // RandomState bucket order and relied on a post-hoc sort.
        let run = || {
            let mut cpu = CpuSim::homogeneous(4, 2, 1.0);
            for &(node, tag) in &[(3usize, 9u64), (0, 4), (2, 7), (1, 1), (0, 0)] {
                cpu.submit(SimTime::ZERO, node, 1.0, tag);
            }
            let t = cpu.next_event_time().unwrap();
            cpu.advance_to(t)
        };
        let a = run();
        assert_eq!(a, run());
        // Submission order, not node order.
        assert_eq!(a, vec![9, 4, 7, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn submit_to_unknown_node_panics() {
        let mut cpu = CpuSim::homogeneous(1, 1, 1.0);
        cpu.submit(SimTime::ZERO, 5, 1.0, 0);
    }
}
