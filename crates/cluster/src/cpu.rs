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
//!
//! # Hot-path layout
//!
//! The engine advances this model on every step, so the per-step cost is
//! one pass over the jobs plus O(nodes):
//!
//! * Jobs live in dense lanes (`job_node`, `job_rem`, `job_tag`) in
//!   submission order. [`CpuSim::advance_to`] integrates, retires and
//!   compacts them in one pass, so finished tags come out in submission
//!   order by construction.
//! * The rate is stored per node, not per job: it depends only on the
//!   node's runnable count, so a submit or completion recomputes that one
//!   node. Skipping an unchanged node is exact — its busy integrator was
//!   already advanced to the same instant, so the skipped `set_rate`
//!   would have added only `rate × 0.0`.
//! * Each node keeps the smallest `remaining` among its jobs, refreshed
//!   by the same pass. All jobs on a node share one rate, and the
//!   completion test, the division by a positive rate and the nanosecond
//!   conversion are all monotone in `remaining`, so
//!   [`CpuSim::next_event_time`] takes the minimum over nodes and
//!   converts once — the same instant a per-job scan finds.
//!
//! A `#[cfg(test)]` reference (the per-job `BTreeMap` model this layout
//! replaced) is bit-compared against it by a seeded random test.

use simcore::stats::RateIntegrator;
use simcore::time::{SimDuration, SimTime};

/// Per-node processor-sharing CPU simulator.
#[derive(Debug)]
pub struct CpuSim {
    cores: Vec<u32>,
    speed: Vec<f64>,
    runnable_per_node: Vec<usize>,
    /// Processor-sharing rate of every job on the node, in core-seconds
    /// per second (0 while the node is idle).
    share: Vec<f64>,
    /// Smallest `job_rem` among the node's jobs (infinite while idle).
    min_rem: Vec<f64>,
    busy: Vec<RateIntegrator>,
    // Job lanes, parallel and in submission order.
    job_node: Vec<usize>,
    job_rem: Vec<f64>,
    job_tag: Vec<u64>,
    clock: SimTime,
    /// Nodes whose runnable count changed during the current
    /// [`CpuSim::advance_to`] (may repeat a node).
    changed_nodes: Vec<usize>,
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
            runnable_per_node: vec![0; n],
            share: vec![0.0; n],
            min_rem: vec![f64::INFINITY; n],
            busy: (0..n).map(|_| RateIntegrator::new(SimTime::ZERO)).collect(),
            job_node: Vec::new(),
            job_rem: Vec::new(),
            job_tag: Vec::new(),
            clock: SimTime::ZERO,
            changed_nodes: Vec::new(),
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

    /// Queue `work` core-seconds (baseline-normalized) on `node`.
    pub fn submit(&mut self, now: SimTime, node: usize, work: f64, tag: u64) {
        assert!(node < self.cores.len(), "unknown node {node}");
        assert!(work >= 0.0 && work.is_finite(), "work must be non-negative");
        // At the current instant nothing moves, so there is nothing to
        // settle: the engine submits at the instant it just advanced to.
        if now != self.clock {
            self.integrate_to(now, None);
        }
        self.job_node.push(node);
        self.job_rem.push(work);
        self.job_tag.push(tag);
        if work < self.min_rem[node] {
            self.min_rem[node] = work;
        }
        self.runnable_per_node[node] += 1;
        self.recompute(node, now);
    }

    /// The earliest job completion, if any work is queued.
    pub fn next_event_time(&self) -> Option<SimTime> {
        // Minimum quotient over nodes, converted once: the conversion is
        // monotone, so min-then-round equals a per-job round-then-min.
        let mut best_q: Option<f64> = None;
        for node in 0..self.cores.len() {
            if self.runnable_per_node[node] == 0 {
                continue;
            }
            let share = self.share[node];
            let rem = self.min_rem[node];
            if rem <= completion_eps(share) {
                return Some(self.clock);
            }
            if share <= 0.0 {
                continue;
            }
            let q = rem / share;
            best_q = Some(best_q.map_or(q, |b| b.min(q)));
        }
        best_q.map(|q| self.clock + SimDuration::from_secs_f64(q) + SimDuration::from_nanos(1))
    }

    /// Advance to `now`, returning the tags of finished jobs in
    /// deterministic submission order.
    pub fn advance_to(&mut self, now: SimTime) -> Vec<u64> {
        let mut out = Vec::new();
        self.integrate_to(now, Some(&mut out));
        for i in 0..self.changed_nodes.len() {
            self.recompute(self.changed_nodes[i], now);
        }
        self.changed_nodes.clear();
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
    #[cfg(test)]
    pub fn runnable(&self, node: usize) -> usize {
        self.runnable_per_node[node]
    }

    /// Core count of `node`.
    pub fn cores(&self, node: usize) -> u32 {
        self.cores[node]
    }

    /// The one pass over the jobs: move every job's remaining work to
    /// `now` and rebuild the per-node minimum. With `done`, jobs at (or
    /// below) the completion threshold are also retired into it — the
    /// lanes are compacted in place, keeping submission order — and
    /// their nodes queued in `changed_nodes`.
    fn integrate_to(&mut self, now: SimTime, mut done: Option<&mut Vec<u64>>) {
        assert!(now >= self.clock, "cpu clock cannot run backwards");
        let dt = now.since(self.clock).as_secs_f64();
        self.min_rem.fill(f64::INFINITY);
        let mut kept = 0;
        for i in 0..self.job_rem.len() {
            let node = self.job_node[i];
            let share = self.share[node];
            let mut rem = self.job_rem[i];
            if dt > 0.0 {
                rem = (rem - share * dt).max(0.0);
            }
            if let Some(out) = done.as_deref_mut() {
                if rem <= completion_eps(share) {
                    out.push(self.job_tag[i]);
                    self.runnable_per_node[node] -= 1;
                    self.changed_nodes.push(node);
                    continue;
                }
            }
            if kept != i {
                self.job_node[kept] = self.job_node[i];
                self.job_tag[kept] = self.job_tag[i];
            }
            self.job_rem[kept] = rem;
            kept += 1;
            if rem < self.min_rem[node] {
                self.min_rem[node] = rem;
            }
        }
        self.job_node.truncate(kept);
        self.job_rem.truncate(kept);
        self.job_tag.truncate(kept);
        for b in &mut self.busy {
            b.advance(now);
        }
        self.clock = now;
    }

    /// Refresh `node`'s share and busy-core rate after its runnable count
    /// changed. Other nodes keep both: their inputs did not move.
    fn recompute(&mut self, node: usize, now: SimTime) {
        let runnable = self.runnable_per_node[node];
        let cores = self.cores[node] as f64;
        self.share[node] = if runnable > 0 {
            self.speed[node] * (cores / runnable as f64).min(1.0)
        } else {
            0.0
        };
        self.busy[node].set_rate(now, (runnable as f64).min(cores));
    }
}

// simlint: allow(unit-suffix, rate is in core-seconds per second, a node's processor-sharing share)
fn completion_eps(rate: f64) -> f64 {
    (rate * 2e-9).max(1e-12)
}

/// The per-job model the dense layout replaced, kept as the bit-identity
/// oracle: a `BTreeMap` of jobs each carrying its own rate, with every
/// node's rate rewritten on each submit or completion.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use simcore::stats::RateIntegrator;
    use simcore::time::{SimDuration, SimTime};

    use super::completion_eps;

    #[derive(Clone, Debug)]
    struct Job {
        node: usize,
        remaining: f64,
        // simlint: allow(unit-suffix, core-seconds per second, a dimensionless PS share, not bytes/s)
        rate: f64,
        tag: u64,
    }

    #[derive(Debug)]
    pub(super) struct ReferenceCpu {
        cores: Vec<u32>,
        speed: Vec<f64>,
        jobs: BTreeMap<u64, Job>,
        runnable_per_node: Vec<usize>,
        next_id: u64,
        clock: SimTime,
        busy: Vec<RateIntegrator>,
    }

    impl ReferenceCpu {
        pub(super) fn new(cores: Vec<u32>, speed: Vec<f64>) -> Self {
            let n = cores.len();
            ReferenceCpu {
                cores,
                speed,
                jobs: BTreeMap::new(),
                runnable_per_node: vec![0; n],
                next_id: 0,
                clock: SimTime::ZERO,
                busy: (0..n).map(|_| RateIntegrator::new(SimTime::ZERO)).collect(),
            }
        }

        pub(super) fn submit(&mut self, now: SimTime, node: usize, work: f64, tag: u64) {
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

        pub(super) fn next_event_time(&self) -> Option<SimTime> {
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

        pub(super) fn advance_to(&mut self, now: SimTime) -> Vec<u64> {
            self.integrate_to(now);
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

        pub(super) fn drain_busy_core_seconds(&mut self, node: usize, now: SimTime) -> f64 {
            self.busy[node].drain(now)
        }

        fn integrate_to(&mut self, now: SimTime) {
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

    /// Seeded random workload driven through both models in lockstep:
    /// heterogeneous nodes (two of them identical, for cross-node ties),
    /// zero-work jobs, bursts of equal jobs, submits at a later instant
    /// without an advance, partial advances, monitor drains and runs to
    /// idle (which keep the queues short, so a node often holds one or
    /// two jobs). After every operation the next event, the finished tags
    /// and the drained busy core-seconds must match the reference bit for
    /// bit.
    #[test]
    fn dense_model_matches_reference_bit_for_bit() {
        use reference::ReferenceCpu;
        use simcore::rng::SplitMix64;

        fn advance(cpu: &mut CpuSim, oracle: &mut ReferenceCpu, now: SimTime) -> usize {
            let done = cpu.advance_to(now);
            assert_eq!(done, oracle.advance_to(now), "tags at {now:?}");
            done.len()
        }
        fn work(rng: &mut SplitMix64) -> f64 {
            match rng.next_below(8) {
                0 => 0.0,
                1 => 0.25,
                _ => rng.next_f64() * 3.0,
            }
        }

        let cores = vec![2u32, 1, 4, 2, 8];
        let speed = vec![1.0, 0.75, 1.3, 1.0, 2.0];
        let n = cores.len();
        for seed in 0..6u64 {
            let mut rng = SplitMix64::new(0xc9_0000 + seed);
            let mut cpu = CpuSim::new(cores.clone(), speed.clone());
            let mut oracle = ReferenceCpu::new(cores.clone(), speed.clone());
            let mut now = SimTime::ZERO;
            let mut tag = 0u64;
            let mut finished = 0usize;
            for step in 0..1_000 {
                match rng.next_below(10) {
                    // Submit at the current instant.
                    0 | 1 => {
                        let node = rng.next_below(n as u64) as usize;
                        let w = work(&mut rng);
                        cpu.submit(now, node, w, tag);
                        oracle.submit(now, node, w, tag);
                        tag += 1;
                    }
                    // A burst of equal jobs over several nodes: same-instant
                    // completions within and across nodes.
                    2 => {
                        let w = work(&mut rng);
                        for node in [0, 3, 0, 4] {
                            cpu.submit(now, node, w, tag);
                            oracle.submit(now, node, w, tag);
                            tag += 1;
                        }
                    }
                    // Submit at a later instant without advancing first,
                    // sometimes 1 ns before the next event.
                    3 => {
                        let later = now + SimDuration::from_nanos(1 + rng.next_below(400_000_000));
                        now = match oracle.next_event_time() {
                            Some(t) if rng.next_below(2) == 0 => {
                                now.max(t - SimDuration::from_nanos(1))
                            }
                            Some(t) => later.min(t),
                            None => later,
                        };
                        let node = rng.next_below(n as u64) as usize;
                        let w = work(&mut rng);
                        cpu.submit(now, node, w, tag);
                        oracle.submit(now, node, w, tag);
                        tag += 1;
                    }
                    // Advance partway to the next event, often to 1 ns
                    // before it, where a job is within the completion
                    // tolerance but not yet at zero.
                    4 => {
                        if let Some(t) = oracle.next_event_time() {
                            let span = t.since(now).as_nanos();
                            let by = match rng.next_below(2) {
                                0 => span.saturating_sub(1),
                                _ => rng.next_below(span + 1),
                            };
                            now += SimDuration::from_nanos(by);
                        }
                        finished += advance(&mut cpu, &mut oracle, now);
                    }
                    // A monitor tick: drain every node.
                    5 => {
                        for node in 0..n {
                            let a = cpu.drain_busy_core_seconds(node, now);
                            let b = oracle.drain_busy_core_seconds(node, now);
                            assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} step {step}");
                        }
                    }
                    // Run to idle, checking every event on the way.
                    6 => {
                        while let Some(t) = oracle.next_event_time() {
                            assert_eq!(cpu.next_event_time(), Some(t), "seed {seed} step {step}");
                            now = t;
                            finished += advance(&mut cpu, &mut oracle, now);
                        }
                    }
                    // Advance to the next event.
                    _ => {
                        if let Some(t) = oracle.next_event_time() {
                            now = t;
                        }
                        finished += advance(&mut cpu, &mut oracle, now);
                    }
                }
                assert_eq!(
                    cpu.next_event_time(),
                    oracle.next_event_time(),
                    "seed {seed} step {step}"
                );
                let node = rng.next_below(n as u64) as usize;
                let a = cpu.drain_busy_core_seconds(node, now);
                let b = oracle.drain_busy_core_seconds(node, now);
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} step {step}");
            }
            while let Some(t) = oracle.next_event_time() {
                assert_eq!(cpu.next_event_time(), Some(t), "seed {seed} drain");
                finished += advance(&mut cpu, &mut oracle, t);
            }
            assert!(cpu.next_event_time().is_none());
            assert_eq!(finished as u64, tag, "every job finished once");
        }
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn submit_to_unknown_node_panics() {
        let mut cpu = CpuSim::homogeneous(1, 1, 1.0);
        cpu.submit(SimTime::ZERO, 5, 1.0, 0);
    }
}
