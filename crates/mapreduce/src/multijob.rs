//! Multi-job streams over a shared cluster network.
//!
//! The single-job [`Engine`](crate::engine::Engine) reproduces the paper's
//! micro-benchmarks in isolation; this module drives a *stream* of jobs —
//! a seeded Poisson (or trace-driven) arrival process, multiple tenants
//! competing for task slots under Hadoop Fair-scheduler semantics, and a
//! shared rack-aware [`Network`] carrying every job's shuffle at once —
//! and reports per-tenant job-time percentiles.
//!
//! # Model
//!
//! Each job runs three phases: `maps_per_job` map tasks (fixed CPU
//! service time with a seeded ±10% jitter), an all-to-all shuffle of
//! `maps × reduces` flows over the shared network, and `reduces_per_job`
//! reduce tasks. Tasks occupy one slot each from a global pool of
//! `n_nodes × slots_per_node`; the arbiter always grants the next free
//! slot to the tenant with the smallest `running_slots / weight` ratio
//! (deterministic tie-break on tenant index), which is the Fair
//! scheduler's instantaneous-deficit rule. Task *placement* is a
//! deterministic stride over the nodes, so at rack-aware topologies most
//! shuffle traffic crosses rack uplinks, exactly as an unconstrained
//! Hadoop placement would.
//!
//! Everything is seeded through [`SeedFactory`] streams, so a spec runs
//! bit-identically every time — the determinism contract the rest of the
//! repo enforces.

use std::collections::VecDeque;

use simcore::event::EventQueue;
use simcore::jobj;
use simcore::json::Json;
use simcore::rng::SeedFactory;
use simcore::time::{SimDuration, SimTime};
use simcore::units::ByteSize;
use simnet::{Network, NodeId, Topology};

/// How jobs enter the system.
#[derive(Clone, Debug)]
pub enum ArrivalProcess {
    /// Exponential inter-arrival times with the given mean, drawn from
    /// the spec's seed (stream `"arrivals"`).
    Poisson {
        /// Mean inter-arrival gap in seconds.
        mean_gap_s: f64,
    },
    /// Explicit arrival offsets in seconds from the start of the run.
    /// Jobs beyond the trace reuse its last gap.
    Trace(Vec<f64>),
}

/// One tenant in the fair-share arbiter.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name (artifact key).
    pub name: String,
    /// Fair-scheduler weight; slots are granted to minimize
    /// `running / weight`.
    pub weight: f64,
}

/// A multi-job workload over a shared topology.
#[derive(Clone, Debug)]
pub struct MultiJobSpec {
    /// Cluster fabric shared by every concurrent shuffle.
    pub topology: Topology,
    /// Competing tenants; jobs are assigned round-robin in arrival order.
    pub tenants: Vec<TenantSpec>,
    /// Total jobs across all tenants.
    pub n_jobs: usize,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Task slots per node (shared map/reduce pool).
    pub slots_per_node: usize,
    /// Map tasks per job.
    pub maps_per_job: usize,
    /// Reduce tasks per job.
    pub reduces_per_job: usize,
    /// Total shuffle payload per job, split evenly over `maps × reduces`
    /// flows.
    pub shuffle_bytes_per_job: ByteSize,
    /// Mean map service time in seconds (±10% seeded jitter).
    pub map_service_s: f64,
    /// Mean reduce service time in seconds (±10% seeded jitter).
    pub reduce_service_s: f64,
    /// Master seed for arrivals and service-time jitter.
    pub seed: u64,
}

impl MultiJobSpec {
    /// Reject structurally invalid workloads with a readable message.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants.is_empty() {
            return Err("multijob: need at least one tenant".into());
        }
        for t in &self.tenants {
            if !(t.weight.is_finite() && t.weight > 0.0) {
                return Err(format!(
                    "multijob: tenant {} weight must be finite and positive, got {}",
                    t.name, t.weight
                ));
            }
        }
        if self.n_jobs == 0 {
            return Err("multijob: need at least one job".into());
        }
        if self.slots_per_node == 0 {
            return Err("multijob: need at least one slot per node".into());
        }
        if self.maps_per_job == 0 || self.reduces_per_job == 0 {
            return Err("multijob: jobs need at least one map and one reduce".into());
        }
        for s in [self.map_service_s, self.reduce_service_s] {
            if !(s.is_finite() && s > 0.0) {
                return Err("multijob: service times must be finite and positive".into());
            }
        }
        match &self.arrivals {
            ArrivalProcess::Poisson { mean_gap_s } => {
                if !(mean_gap_s.is_finite() && *mean_gap_s >= 0.0) {
                    return Err("multijob: Poisson mean gap must be finite and >= 0".into());
                }
            }
            ArrivalProcess::Trace(offsets) => {
                if offsets.is_empty() {
                    return Err("multijob: arrival trace is empty".into());
                }
                let mut prev = 0.0;
                for &o in offsets {
                    if !(o.is_finite() && o >= prev) {
                        return Err(
                            "multijob: arrival trace must be finite and non-decreasing".into()
                        );
                    }
                    prev = o;
                }
            }
        }
        Ok(())
    }
}

/// Per-tenant percentile summary, the payload of the
/// `mrbench-multijob-v1` artifact's `tenants` array.
///
/// **Empty-sample rule:** a tenant that completed zero jobs has no job
/// times, so its percentiles are *undefined* — reported as `NaN` here
/// and `null` in the JSON (the suite's standing NaN convention), never
/// as a numeric placeholder a plot could mistake for a measured time.
/// Consumers must gate on `jobs > 0` before reading the percentiles.
/// With exactly one job, nearest-rank makes p50 = p95 = p99 = that
/// job's time.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Jobs this tenant completed. `0` means the percentiles below are
    /// `NaN` (see the empty-sample rule above).
    pub jobs: usize,
    /// Median job time (arrival to last reduce), seconds.
    pub p50_s: f64,
    /// 95th-percentile job time, seconds.
    pub p95_s: f64,
    /// 99th-percentile job time, seconds.
    pub p99_s: f64,
}

impl TenantReport {
    /// Canonical JSON object for the artifact.
    pub fn to_json(&self) -> Json {
        jobj! {
            "tenant": self.tenant.clone(),
            "jobs": self.jobs as u64,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
        }
    }
}

/// Outcome of a multi-job run.
#[derive(Clone, Debug)]
pub struct MultiJobResult {
    /// Per-tenant percentile reports, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Completion time of the last job, seconds.
    pub makespan_s: f64,
    /// Total jobs completed (always `spec.n_jobs`).
    pub jobs_completed: usize,
    /// Total bytes moved through the shared network.
    pub shuffled_bytes: u64,
}

impl MultiJobResult {
    /// The result portion of the `mrbench-multijob-v1` document.
    pub fn to_json(&self) -> Json {
        jobj! {
            "makespan_s": self.makespan_s,
            "jobs_completed": self.jobs_completed as u64,
            "shuffled_bytes": self.shuffled_bytes,
            "tenants": Json::Arr(self.tenants.iter().map(TenantReport::to_json).collect()),
        }
    }
}

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Map,
    Shuffle,
    Reduce,
    Done,
}

struct JobState {
    tenant: usize,
    arrival: SimTime,
    phase: Phase,
    /// Tasks of the current phase not yet completed.
    outstanding: usize,
    /// In-flight shuffle flows.
    pending_flows: usize,
    /// Pre-drawn service times, consumed in task order so the schedule
    /// order never shifts the rng stream.
    map_times: Vec<f64>,
    reduce_times: Vec<f64>,
    next_map: usize,
    next_reduce: usize,
}

/// Same-instant events fire in scheduling order ([`EventQueue`]'s FIFO
/// tie-break): every arrival is scheduled up front, so an arrival always
/// precedes a task completion at the same instant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Event {
    Arrive { job: usize },
    TaskDone { job: usize, tenant: usize },
}

/// Map task `m` of job `j` runs here. The stride spreads a job's tasks
/// across the whole cluster (and therefore across racks).
fn map_node(job: usize, m: usize, n: usize) -> usize {
    (job.wrapping_mul(97).wrapping_add(m.wrapping_mul(17))) % n
}

/// Reduce task `r` of job `j` runs here.
fn reduce_node(job: usize, r: usize, n: usize) -> usize {
    (job.wrapping_mul(97)
        .wrapping_add(5)
        .wrapping_add(r.wrapping_mul(53)))
        % n
}

/// Run a multi-job workload to completion.
///
/// Panics only on internal invariant violations; call
/// [`MultiJobSpec::validate`] first for user-facing errors.
pub fn run(spec: &MultiJobSpec) -> MultiJobResult {
    spec.validate().expect("invalid MultiJobSpec");
    let n_nodes = spec.topology.n_nodes();
    let n_tenants = spec.tenants.len();
    let seeds = SeedFactory::new(spec.seed);

    // Pre-draw everything random up front: arrivals and per-task service
    // jitter. The event loop itself is then purely deterministic.
    let mut arrivals_rng = seeds.stream("multijob.arrivals");
    let mut service_rng = seeds.stream("multijob.service");
    let jitter = |rng: &mut simcore::rng::Xoshiro256pp, base: f64| -> f64 {
        base * (0.9 + 0.2 * rng.next_f64())
    };

    let mut arrival_times = Vec::with_capacity(spec.n_jobs);
    match &spec.arrivals {
        ArrivalProcess::Poisson { mean_gap_s } => {
            let mut t = 0.0;
            for _ in 0..spec.n_jobs {
                arrival_times.push(t);
                // Inverse-CDF draw; 1 - u keeps ln's argument in (0, 1].
                let u = arrivals_rng.next_f64();
                t += -mean_gap_s * (1.0 - u).ln();
            }
        }
        ArrivalProcess::Trace(offsets) => {
            let last_gap = if offsets.len() >= 2 {
                offsets[offsets.len() - 1] - offsets[offsets.len() - 2]
            } else {
                0.0
            };
            let mut t = 0.0;
            for j in 0..spec.n_jobs {
                t = match offsets.get(j) {
                    Some(&o) => o,
                    None => t + last_gap,
                };
                arrival_times.push(t);
            }
        }
    }

    let mut jobs: Vec<JobState> = (0..spec.n_jobs)
        .map(|j| JobState {
            tenant: j % n_tenants,
            arrival: SimTime::ZERO + SimDuration::from_secs_f64(arrival_times[j]),
            phase: Phase::Map,
            outstanding: 0,
            pending_flows: 0,
            map_times: (0..spec.maps_per_job)
                .map(|_| jitter(&mut service_rng, spec.map_service_s))
                .collect(),
            reduce_times: (0..spec.reduces_per_job)
                .map(|_| jitter(&mut service_rng, spec.reduce_service_s))
                .collect(),
            next_map: 0,
            next_reduce: 0,
        })
        .collect();

    let mut net = Network::new(spec.topology.clone());
    let total_slots = n_nodes * spec.slots_per_node;
    let mut free_slots = total_slots;
    let mut running: Vec<usize> = vec![0; n_tenants];
    // Per-tenant FIFO of runnable job indices; a job appears once per
    // queued task of its current phase.
    let mut runnable: Vec<VecDeque<usize>> = vec![VecDeque::new(); n_tenants];

    let mut events = EventQueue::with_capacity(spec.n_jobs * 2);
    for (j, job) in jobs.iter().enumerate() {
        events.schedule(job.arrival, Event::Arrive { job: j });
    }

    let per_flow = ByteSize::from_bytes(
        (spec.shuffle_bytes_per_job.as_bytes() / (spec.maps_per_job * spec.reduces_per_job) as u64)
            .max(1),
    );
    let mut job_times: Vec<Vec<f64>> = vec![Vec::new(); n_tenants];
    let mut completed = 0usize;
    let mut makespan = SimTime::ZERO;
    let mut flow_buf: Vec<u64> = Vec::new();

    // Grant free slots to queued tasks, Fair-scheduler style: always the
    // tenant with the smallest running/weight deficit, ties to the lower
    // tenant index. Within a tenant, jobs drain FIFO.
    let grant = |now: SimTime,
                 free_slots: &mut usize,
                 running: &mut Vec<usize>,
                 runnable: &mut Vec<VecDeque<usize>>,
                 jobs: &mut Vec<JobState>,
                 events: &mut EventQueue<Event>| {
        while *free_slots > 0 {
            let mut best: Option<usize> = None;
            for t in 0..n_tenants {
                if runnable[t].is_empty() {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => {
                        let share_t = running[t] as f64 / spec.tenants[t].weight;
                        let share_b = running[b] as f64 / spec.tenants[b].weight;
                        share_t < share_b
                    }
                };
                if better {
                    best = Some(t);
                }
            }
            let Some(t) = best else { break };
            let j = runnable[t].pop_front().expect("non-empty queue");
            let job = &mut jobs[j];
            let service = match job.phase {
                Phase::Map => {
                    let s = job.map_times[job.next_map];
                    job.next_map += 1;
                    s
                }
                Phase::Reduce => {
                    let s = job.reduce_times[job.next_reduce];
                    job.next_reduce += 1;
                    s
                }
                phase => unreachable!("runnable task in phase {phase:?}"),
            };
            *free_slots -= 1;
            running[t] += 1;
            events.schedule(
                now + SimDuration::from_secs_f64(service),
                Event::TaskDone { job: j, tenant: t },
            );
        }
    };

    while completed < spec.n_jobs {
        let t_ev = events.peek_time();
        let t_net = net.next_event_time();
        // At equal instants the network settles first, so a shuffle that
        // finishes exactly when a task ends can enqueue its reduces
        // before the freed slot is granted.
        let net_first = match (t_net, t_ev) {
            (Some(n), Some(e)) => n <= e,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if net_first {
            let t = t_net.expect("checked above");
            flow_buf.clear();
            net.advance_to_into(t, &mut flow_buf);
            let mut any_phase_change = false;
            for &tag in &flow_buf {
                let j = tag as usize;
                let job = &mut jobs[j];
                debug_assert_eq!(job.phase, Phase::Shuffle);
                job.pending_flows -= 1;
                if job.pending_flows == 0 {
                    job.phase = Phase::Reduce;
                    job.outstanding = spec.reduces_per_job;
                    for _ in 0..spec.reduces_per_job {
                        runnable[job.tenant].push_back(j);
                    }
                    any_phase_change = true;
                }
            }
            if any_phase_change {
                grant(
                    t,
                    &mut free_slots,
                    &mut running,
                    &mut runnable,
                    &mut jobs,
                    &mut events,
                );
            }
            continue;
        }
        let Some((now, ev)) = events.pop() else {
            panic!(
                "multijob deadlock: {completed}/{} jobs done, no events, no flows",
                spec.n_jobs
            )
        };
        match ev {
            Event::Arrive { job: j } => {
                let job = &mut jobs[j];
                job.outstanding = spec.maps_per_job;
                for _ in 0..spec.maps_per_job {
                    runnable[job.tenant].push_back(j);
                }
            }
            Event::TaskDone { job: j, tenant } => {
                free_slots += 1;
                running[tenant] -= 1;
                let job = &mut jobs[j];
                job.outstanding -= 1;
                if job.outstanding == 0 {
                    match job.phase {
                        Phase::Map => {
                            // Map phase done: launch the all-to-all
                            // shuffle on the shared fabric.
                            job.phase = Phase::Shuffle;
                            job.pending_flows = spec.maps_per_job * spec.reduces_per_job;
                            for m in 0..spec.maps_per_job {
                                let src = NodeId(map_node(j, m, n_nodes));
                                for r in 0..spec.reduces_per_job {
                                    let dst = NodeId(reduce_node(j, r, n_nodes));
                                    net.start_flow(now, src, dst, per_flow, j as u64);
                                }
                            }
                        }
                        Phase::Reduce => {
                            job.phase = Phase::Done;
                            completed += 1;
                            makespan = makespan.max(now);
                            job_times[job.tenant].push(now.since(job.arrival).as_secs_f64());
                        }
                        phase => unreachable!("task completion in phase {phase:?}"),
                    }
                }
            }
        }
        grant(
            now,
            &mut free_slots,
            &mut running,
            &mut runnable,
            &mut jobs,
            &mut events,
        );
    }

    let tenants = spec
        .tenants
        .iter()
        .enumerate()
        .map(|(t, ts)| {
            let mut times = std::mem::take(&mut job_times[t]);
            times.sort_by(f64::total_cmp);
            if times.is_empty() {
                // No sample, no percentiles: NaN renders as JSON null,
                // so a zero-job tenant can never masquerade as one with
                // instantaneous jobs (see the TenantReport docs).
                TenantReport {
                    tenant: ts.name.clone(),
                    jobs: 0,
                    p50_s: f64::NAN,
                    p95_s: f64::NAN,
                    p99_s: f64::NAN,
                }
            } else {
                TenantReport {
                    tenant: ts.name.clone(),
                    jobs: times.len(),
                    p50_s: percentile(&times, 0.50),
                    p95_s: percentile(&times, 0.95),
                    p99_s: percentile(&times, 0.99),
                }
            }
        })
        .collect();

    MultiJobResult {
        tenants,
        makespan_s: makespan.since(SimTime::ZERO).as_secs_f64(),
        jobs_completed: completed,
        shuffled_bytes: net.delivered_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Interconnect;

    fn spec(topology: Topology) -> MultiJobSpec {
        MultiJobSpec {
            topology,
            tenants: vec![
                TenantSpec {
                    name: "alpha".into(),
                    weight: 1.0,
                },
                TenantSpec {
                    name: "beta".into(),
                    weight: 1.0,
                },
            ],
            n_jobs: 12,
            arrivals: ArrivalProcess::Poisson { mean_gap_s: 2.0 },
            slots_per_node: 2,
            maps_per_job: 4,
            reduces_per_job: 2,
            shuffle_bytes_per_job: ByteSize::from_mib(64),
            map_service_s: 1.0,
            reduce_service_s: 0.5,
            seed: 42,
        }
    }

    fn flat8() -> Topology {
        Topology::single_switch(8, Interconnect::GigE1)
    }

    #[test]
    fn completes_every_job_and_reports_all_tenants() {
        let r = run(&spec(flat8()));
        assert_eq!(r.jobs_completed, 12);
        assert_eq!(r.tenants.len(), 2);
        assert_eq!(r.tenants[0].jobs + r.tenants[1].jobs, 12);
        for t in &r.tenants {
            assert!(
                t.p50_s > 0.0 && t.p50_s <= t.p95_s && t.p95_s <= t.p99_s,
                "{t:?}"
            );
        }
        assert!(r.makespan_s > 0.0);
        assert_eq!(
            r.shuffled_bytes,
            12 * (ByteSize::from_mib(64).as_bytes() / 8) * 8
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let s = spec(flat8());
        let a = run(&s);
        let b = run(&s);
        assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.p50_s.to_bits(), y.p50_s.to_bits());
            assert_eq!(x.p95_s.to_bits(), y.p95_s.to_bits());
            assert_eq!(x.p99_s.to_bits(), y.p99_s.to_bits());
        }
    }

    #[test]
    fn seed_changes_the_outcome() {
        let s = spec(flat8());
        let mut s2 = s.clone();
        s2.seed = 43;
        let a = run(&s);
        let b = run(&s2);
        assert_ne!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
    }

    #[test]
    fn oversubscription_stretches_the_stream() {
        let mut s = spec(flat8());
        // Saturate: everything arrives at once.
        s.arrivals = ArrivalProcess::Trace(vec![0.0]);
        s.shuffle_bytes_per_job = ByteSize::from_mib(256);
        let flat = run(&s);
        let mut racked = s.clone();
        racked.topology = flat8().with_racks(2, 8.0);
        let r = run(&racked);
        assert!(
            r.makespan_s > flat.makespan_s,
            "racked {} vs flat {}",
            r.makespan_s,
            flat.makespan_s
        );
    }

    #[test]
    fn heavier_tenant_gets_better_percentiles_under_contention() {
        let mut s = spec(flat8());
        s.tenants[1].weight = 8.0;
        // Saturated backlog so the arbiter, not the arrival process,
        // decides who waits.
        s.arrivals = ArrivalProcess::Trace(vec![0.0]);
        s.n_jobs = 24;
        s.slots_per_node = 1;
        let r = run(&s);
        assert!(
            r.tenants[1].p95_s < r.tenants[0].p95_s,
            "beta(w=8) {:?} vs alpha(w=1) {:?}",
            r.tenants[1],
            r.tenants[0]
        );
    }

    #[test]
    fn trace_arrivals_are_respected() {
        let mut s = spec(flat8());
        s.n_jobs = 3;
        s.arrivals = ArrivalProcess::Trace(vec![0.0, 5.0, 10.0]);
        let r = run(&s);
        assert_eq!(r.jobs_completed, 3);
        // The last job cannot finish before it arrives.
        assert!(r.makespan_s > 10.0);
    }

    #[test]
    fn zero_job_tenant_reports_nan_percentiles_not_garbage() {
        // One job, two tenants: round-robin assignment starves beta.
        let mut s = spec(flat8());
        s.n_jobs = 1;
        let r = run(&s);
        assert_eq!(r.jobs_completed, 1);
        let beta = &r.tenants[1];
        assert_eq!(beta.jobs, 0);
        assert!(
            beta.p50_s.is_nan() && beta.p95_s.is_nan() && beta.p99_s.is_nan(),
            "empty sample must have undefined percentiles: {beta:?}"
        );
        // The serialized JSON keeps all five keys — downstream schema
        // checks key the exact set — with the percentiles written as
        // null (the writer's non-finite rule), never 0.0.
        let j = Json::parse(&beta.to_json().to_compact()).unwrap();
        assert_eq!(j.field_u64("jobs").unwrap(), 0);
        for key in ["p50_s", "p95_s", "p99_s"] {
            assert!(
                matches!(j.req(key).unwrap(), Json::Null),
                "{key} must be null for a zero-job tenant"
            );
            assert!(j.field_f64_or_nan(key).unwrap().is_nan());
        }
    }

    #[test]
    fn one_job_tenant_collapses_all_percentiles_onto_its_time() {
        // Two jobs over two tenants: each tenant completes exactly one.
        let mut s = spec(flat8());
        s.n_jobs = 2;
        let r = run(&s);
        for t in &r.tenants {
            assert_eq!(t.jobs, 1, "{t:?}");
            assert!(t.p50_s > 0.0);
            assert_eq!(t.p50_s.to_bits(), t.p95_s.to_bits(), "{t:?}");
            assert_eq!(t.p95_s.to_bits(), t.p99_s.to_bits(), "{t:?}");
        }
    }

    #[test]
    fn same_instant_ties_keep_their_exact_output() {
        // Repeated trace offsets and 1 ns map tasks make arrivals and task
        // completions collide at t = 0 and t = 1 ns, on two slots, so the
        // output depends on the (time, FIFO) tie-break. The expected
        // string pins that order bit for bit.
        let mut s = spec(Topology::single_switch(2, Interconnect::GigE1));
        s.tenants[1].weight = 2.0;
        s.n_jobs = 6;
        s.arrivals = ArrivalProcess::Trace(vec![0.0, 0.0, 0.0, 1e-9, 1e-9, 1e-9]);
        s.slots_per_node = 1;
        s.maps_per_job = 2;
        s.reduces_per_job = 2;
        s.shuffle_bytes_per_job = ByteSize::from_kib(64);
        s.map_service_s = 1e-9;
        s.reduce_service_s = 0.5;
        s.seed = 7;
        assert_eq!(
            run(&s).to_json().to_compact(),
            "{\"makespan_s\":3.010643599,\"jobs_completed\":6,\"shuffled_bytes\":393216,\
             \"tenants\":[{\"tenant\":\"alpha\",\"jobs\":3,\"p50_s\":1.474787281,\
             \"p95_s\":2.467272404,\"p99_s\":2.467272404},{\"tenant\":\"beta\",\"jobs\":3,\
             \"p50_s\":2.522707694,\"p95_s\":3.010643598,\"p99_s\":3.010643598}]}"
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.50), 2.0);
        assert_eq!(percentile(&v, 0.95), 4.0);
        assert_eq!(percentile(&v, 0.25), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn rejects_bad_specs() {
        let mut s = spec(flat8());
        s.tenants.clear();
        assert!(s.validate().is_err());
        let mut s = spec(flat8());
        s.tenants[0].weight = 0.0;
        assert!(s.validate().is_err());
        let mut s = spec(flat8());
        s.n_jobs = 0;
        assert!(s.validate().is_err());
        let mut s = spec(flat8());
        s.arrivals = ArrivalProcess::Trace(vec![1.0, 0.5]);
        assert!(s.validate().is_err());
        let mut s = spec(flat8());
        s.map_service_s = f64::NAN;
        assert!(s.validate().is_err());
    }

    #[test]
    fn tenant_report_json_shape() {
        let t = TenantReport {
            tenant: "alpha".into(),
            jobs: 5,
            p50_s: 1.5,
            p95_s: 2.5,
            p99_s: 3.5,
        };
        let j = t.to_json();
        assert_eq!(j.field_str("tenant").unwrap(), "alpha");
        assert_eq!(j.field_u64("jobs").unwrap(), 5);
        assert_eq!(j.field_f64("p95_s").unwrap(), 2.5);
    }
}
