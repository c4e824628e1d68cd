//! perfbench — continuous performance tracking for the simulator core.
//!
//! Every PR runs this binary and commits/uploads the resulting
//! `BENCH_<n>.json`, so the repository carries a wall-clock performance
//! trajectory alongside the (simulated-time) figure artifacts. The
//! workloads cover the hot paths the figure reproductions exercise
//! thousands of times:
//!
//! * the discrete-event queue under schedule/cancel/pop churn,
//! * the max-min fairshare solver at 10 / 100 / 1k / 10k flows,
//! * an end-to-end all-to-all shuffle on the flow-level network
//!   (the paper's shuffle phase, at cluster scale), and
//! * one full figure-style MapReduce job through the engine.
//!
//! Reported numbers are wall-clock measurements of *deterministic*
//! workloads: simulated results never vary, only how fast the host
//! executes them. See DESIGN.md §12 for the schema.
//!
//! ```text
//! cargo run --release -p mrbench-bench --bin perfbench -- [--quick] [--out PATH]
//! ```

// Wall-clock time is the entire point of this binary: it measures real
// execution speed of deterministic workloads, not simulated time.
#![allow(clippy::disallowed_methods)]

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use mrbench::{atomic_write, run, BenchConfig, Error, MicroBenchmark};
use simcore::event::EventQueue;
use simcore::jobj;
use simcore::json::Json;
use simcore::time::SimTime;
use simcore::units::ByteSize;
use simnet::fairshare::{max_min_rates, FairshareSolver, FlowSpec};
use simnet::{Interconnect, Network, NodeId, Topology};

/// PR number stamped into the default artifact name (`BENCH_8.json`).
const PR: u32 = 8;

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn real_main() -> Result<(), Error> {
    let mut quick = false;
    let mut out = format!("BENCH_{PR}.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = args
                    .next()
                    .filter(|v| !v.starts_with('-'))
                    .ok_or_else(|| Error::usage("--out needs a path"))?;
            }
            "--help" | "-h" => {
                println!(
                    "perfbench [--quick] [--out PATH]\n\
                     Measures simulator hot-path throughput and writes a\n\
                     mrbench-perf-v1 JSON artifact (default BENCH_{PR}.json)."
                );
                return Ok(());
            }
            other => return Err(Error::usage(format!("unknown flag {other}"))),
        }
    }

    let mut workloads = Vec::new();

    workloads.push(bench_event_queue(quick));
    for &flows in &[10usize, 100, 1_000, 10_000] {
        workloads.push(bench_fairshare(flows, quick));
    }
    // The headline number: a 10k-flow all-to-all shuffle (100 nodes,
    // every node streams to every other), the pattern of Figs. 2-8's
    // shuffle phase at provisioning scale. Quick mode shrinks it so CI
    // still exercises the same code path.
    let a2a_nodes = if quick { 32 } else { 100 };
    workloads.push(bench_all_to_all(a2a_nodes, quick));
    // Provisioning scale with the rack layer engaged: 1k nodes in 40
    // racks at 4:1 oversubscription, so every solve pays the uplink
    // resources too. Runs even in quick mode — CI's perf-smoke is the
    // regression gate for the rack-aware hot path.
    workloads.push(bench_rack_shuffle(1_000, 40, 4.0, quick));
    workloads.push(bench_figure_job(quick));

    let doc = jobj! {
        "schema": "mrbench-perf-v1",
        "pr": u64::from(PR),
        "quick": quick,
        "workloads": Json::Arr(workloads),
        "peak_rss_bytes": peak_rss_bytes().map_or(Json::Null, |b| Json::Int(b as i128)),
    };
    atomic_write(std::path::Path::new(&out), &doc.to_pretty())?;
    println!("wrote {out}");
    Ok(())
}

/// One measured workload row. `sim_events` is the deterministic event
/// count the workload dispatches; `events_per_sec = sim_events / wall_s`.
fn row(name: &str, sim_events: u64, wall_s: f64, extra: Vec<(String, Json)>) -> Json {
    let mut obj = vec![
        ("name".to_string(), Json::Str(name.to_string())),
        ("sim_events".to_string(), Json::Int(i128::from(sim_events))),
        ("wall_s".to_string(), Json::Num(wall_s)),
        (
            "events_per_sec".to_string(),
            Json::Num(sim_events as f64 / wall_s.max(1e-12)),
        ),
    ];
    obj.extend(extra);
    Json::Obj(obj)
}

/// Event-queue churn: schedule bursts, cancel half, pop everything.
/// Exercises the slab, the lazy-deletion pop path, and compaction.
fn bench_event_queue(quick: bool) -> Json {
    let rounds: u64 = if quick { 50 } else { 500 };
    let per_round: u64 = 2_000;
    let mut q = EventQueue::with_capacity(per_round as usize * 2);
    let start = Instant::now();
    let mut ops: u64 = 0;
    for r in 0..rounds {
        let mut ids = Vec::with_capacity(per_round as usize);
        for i in 0..per_round {
            // Deterministic scattered times; no wall clock, no OS entropy.
            let t = (i * 2_654_435_761 + r * 40_503) % 1_000_000;
            ids.push(q.schedule(SimTime::from_nanos(r * 1_000_000 + t), i));
        }
        for id in ids.iter().step_by(2) {
            q.cancel(*id);
        }
        while let Some((t, v)) = q.pop() {
            black_box((t, v));
        }
        ops += per_round * 2 + per_round / 2;
    }
    row(
        "event_queue/churn",
        ops,
        start.elapsed().as_secs_f64(),
        vec![("rounds".into(), Json::Int(i128::from(rounds)))],
    )
}

/// Fairshare at a given flow count: one batch solve plus an
/// arrival/departure cycle on the incremental solver.
fn bench_fairshare(flows: usize, quick: bool) -> Json {
    let nodes = (flows / 4).clamp(4, 128);
    let specs: Vec<FlowSpec> = (0..flows)
        .map(|i| {
            let src = i % nodes;
            let dst = (i * 7 + 1) % nodes;
            FlowSpec {
                src,
                dst: if dst == src { (dst + 1) % nodes } else { dst },
            }
        })
        .collect();
    let caps = vec![950e6; nodes];

    let batch_iters: u64 = match flows {
        f if f <= 100 => 2_000,
        f if f <= 1_000 => 200,
        _ => {
            if quick {
                2
            } else {
                10
            }
        }
    };
    let start = Instant::now();
    for _ in 0..batch_iters {
        black_box(max_min_rates(black_box(&specs), &caps, &caps, None));
    }
    let batch_s = start.elapsed().as_secs_f64() / batch_iters as f64;

    // Incremental: load the flows once, then time churn (remove + re-add
    // one flow, re-solving after each step) — the per-event cost the
    // network engine actually pays.
    let mut solver = FairshareSolver::new(&caps, &caps, None);
    let keys: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| solver.add_flow(*s, i as u64))
        .collect();
    solver.solve();
    let churn_iters: u64 = if quick { 200 } else { 2_000 };
    let start = Instant::now();
    for i in 0..churn_iters {
        let k = keys[(i as usize * 13) % keys.len()];
        let spec = solver.spec(k);
        solver.remove_flow(k);
        solver.solve();
        // The slab reuses the freed slot (LIFO free list), so the
        // re-added flow lands back on the same slot and the original
        // key list stays valid across iterations.
        let k2 = solver.add_flow(spec, u64::MAX);
        solver.solve();
        black_box(solver.rate(k2));
    }
    let incr_s = start.elapsed().as_secs_f64() / (churn_iters * 2) as f64;

    row(
        &format!("fairshare/{flows}_flows"),
        batch_iters + churn_iters * 2,
        batch_s * batch_iters as f64 + incr_s * (churn_iters * 2) as f64,
        vec![
            ("flows".into(), Json::Int(flows as i128)),
            ("nodes".into(), Json::Int(nodes as i128)),
            ("batch_solve_s".into(), Json::Num(batch_s)),
            ("incremental_solve_s".into(), Json::Num(incr_s)),
        ],
    )
}

/// End-to-end all-to-all shuffle on the flow-level network: n nodes,
/// n*(n-1) concurrent flows, run to idle. The dominant workload of every
/// shuffle-heavy figure, at cluster scale.
fn bench_all_to_all(nodes: usize, _quick: bool) -> Json {
    let flows = nodes * (nodes - 1);
    let mut net = Network::new(Topology::single_switch(nodes, Interconnect::IpoibQdr));
    let start = Instant::now();
    let mut tag = 0u64;
    for s in 0..nodes {
        for d in 0..nodes {
            if s != d {
                // Staggered sizes so completions spread over time and
                // every completion pays a rate recompute — a symmetric
                // shuffle would collapse into one simultaneous finish.
                let kib = 1024 + ((s * 131 + d * 17) % 97) as u64 * 64;
                net.start_flow(
                    SimTime::ZERO,
                    NodeId(s),
                    NodeId(d),
                    ByteSize::from_bytes(kib * 1024),
                    tag,
                );
                tag += 1;
            }
        }
    }
    let mut steps: u64 = 0;
    let mut completions: u64 = 0;
    let mut done = Vec::new();
    while let Some(t) = net.next_event_time() {
        done.clear();
        net.advance_to_into(t, &mut done);
        completions += done.len() as u64;
        steps += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(completions as usize, flows, "all flows must complete");
    // Every start_flow, activation batch, and completion batch is a
    // simulated event the engine would dispatch.
    let sim_events = flows as u64 + steps + completions;
    row(
        &format!("network/all_to_all_{flows}_flows"),
        sim_events,
        wall,
        vec![
            ("nodes".into(), Json::Int(nodes as i128)),
            ("flows".into(), Json::Int(flows as i128)),
            ("steps".into(), Json::Int(i128::from(steps))),
        ],
    )
}

/// Rack-aware shuffle at provisioning scale: every node streams to a
/// handful of strided peers (mostly cross-rack), through per-rack uplinks
/// at the given oversubscription factor. This is the hot path the
/// rack-aware topologies add on top of the flat crossbar.
fn bench_rack_shuffle(nodes: usize, racks: usize, factor: f64, quick: bool) -> Json {
    let peers = if quick { 8 } else { 16 };
    let mut net = Network::new(
        Topology::single_switch(nodes, Interconnect::IpoibQdr).with_racks(racks, factor),
    );
    let start = Instant::now();
    let mut tag = 0u64;
    for s in 0..nodes {
        for k in 1..=peers {
            // A large prime stride lands most peers in other racks.
            let d = (s + k * 101) % nodes;
            if d == s {
                continue;
            }
            let kib = 256 + ((s * 131 + d * 17) % 97) as u64 * 16;
            net.start_flow(
                SimTime::ZERO,
                NodeId(s),
                NodeId(d),
                ByteSize::from_bytes(kib * 1024),
                tag,
            );
            tag += 1;
        }
    }
    let flows = tag;
    let mut steps: u64 = 0;
    let mut completions: u64 = 0;
    let mut done = Vec::new();
    while let Some(t) = net.next_event_time() {
        done.clear();
        net.advance_to_into(t, &mut done);
        completions += done.len() as u64;
        steps += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(completions, flows, "all flows must complete");
    let sim_events = flows + steps + completions;
    row(
        &format!("network/rack_shuffle_{nodes}n_{racks}r"),
        sim_events,
        wall,
        vec![
            ("nodes".into(), Json::Int(nodes as i128)),
            ("racks".into(), Json::Int(racks as i128)),
            ("oversubscription".into(), Json::Num(factor)),
            ("flows".into(), Json::Int(flows as i128)),
            ("steps".into(), Json::Int(i128::from(steps))),
        ],
    )
}

/// One figure-style MapReduce job through the full engine (Fig. 2's
/// anchor shape, shrunk), timed wall-clock.
fn bench_figure_job(quick: bool) -> Json {
    let mut config = BenchConfig::cluster_a_default(
        MicroBenchmark::Avg,
        Interconnect::IpoibQdr,
        ByteSize::from_mib(if quick { 64 } else { 512 }),
    );
    config.slaves = 4;
    config.num_maps = 8;
    config.num_reduces = 8;
    let iters: u64 = if quick { 2 } else { 5 };
    let start = Instant::now();
    let mut job_s = 0.0;
    for _ in 0..iters {
        job_s = run(&config).expect("valid config").job_time_secs();
    }
    let wall = start.elapsed().as_secs_f64();
    row(
        "engine/fig2_style_job",
        iters,
        wall,
        vec![
            ("iters".into(), Json::Int(i128::from(iters))),
            ("sim_job_s".into(), Json::Num(job_s)),
        ],
    )
}

/// Peak resident set size from `/proc/self/status` (`VmHWM`), if the
/// platform exposes it.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}
