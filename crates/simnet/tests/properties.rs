//! Property-style tests for the network simulator, run over seeded case
//! grids (the workspace carries no external test dependencies).

use simcore::rng::SplitMix64;
use simcore::time::SimTime;
use simcore::units::ByteSize;
use simnet::fairshare::{FairshareSolver, FlowSpec};
use simnet::{Interconnect, Network, NodeId, Topology};

/// Max-min rates for `flows` (in order) from the production solver, with
/// `caps` as both the egress and the ingress capacities.
fn solve_rates(flows: &[FlowSpec], caps: &[f64], fabric: Option<f64>) -> Vec<f64> {
    let mut solver = FairshareSolver::new(caps, caps, fabric);
    let keys: Vec<_> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| solver.add_flow(*f, i as u64))
        .collect();
    solver.solve();
    keys.iter().map(|&k| solver.rate(k)).collect()
}

/// Draw between 1 and 23 random (src, dst) flows over `n_nodes`, src != dst.
fn gen_flows(rng: &mut SplitMix64, n_nodes: usize) -> Vec<FlowSpec> {
    let n = 1 + rng.next_below(23) as usize;
    (0..n)
        .filter_map(|_| {
            let s = rng.next_below(n_nodes as u64) as usize;
            let d = rng.next_below(n_nodes as u64) as usize;
            (s != d).then_some(FlowSpec { src: s, dst: d })
        })
        .collect()
}

/// Fair-share rates never violate any resource capacity.
#[test]
fn fairshare_feasible() {
    let mut rng = SplitMix64::new(0xFA17);
    for _ in 0..128 {
        let flows = gen_flows(&mut rng, 6);
        let caps: Vec<f64> = (0..6).map(|_| 1.0 + rng.next_f64() * 1999.0).collect();
        let rates = solve_rates(&flows, &caps, None);
        let mut eg = [0.0; 6];
        let mut ing = [0.0; 6];
        for (f, r) in flows.iter().zip(&rates) {
            assert!(*r >= 0.0);
            eg[f.src] += r;
            ing[f.dst] += r;
        }
        for i in 0..6 {
            assert!(eg[i] <= caps[i] * (1.0 + 1e-9) + 1e-9);
            assert!(ing[i] <= caps[i] * (1.0 + 1e-9) + 1e-9);
        }
    }
}

/// Every flow is bottlenecked at some saturated resource
/// (work conservation / Pareto efficiency of max-min).
#[test]
fn fairshare_work_conserving() {
    let mut rng = SplitMix64::new(0xC025);
    for _ in 0..128 {
        let flows = gen_flows(&mut rng, 5);
        let caps = vec![100.0; 5];
        let rates = solve_rates(&flows, &caps, None);
        let mut eg = [0.0; 5];
        let mut ing = [0.0; 5];
        for (f, r) in flows.iter().zip(&rates) {
            eg[f.src] += r;
            ing[f.dst] += r;
        }
        for (f, r) in flows.iter().zip(&rates) {
            let saturated = eg[f.src] >= 100.0 - 1e-6 || ing[f.dst] >= 100.0 - 1e-6;
            assert!(saturated, "flow {f:?} rate {r} unbottlenecked");
        }
    }
}

/// Fabric cap bounds the aggregate allocation.
#[test]
fn fairshare_fabric_cap() {
    let mut rng = SplitMix64::new(0xFAB);
    for _ in 0..128 {
        let flows = gen_flows(&mut rng, 4);
        let cap = 1.0 + rng.next_f64() * 499.0;
        let caps = vec![1000.0; 4];
        let rates = solve_rates(&flows, &caps, Some(cap));
        let total: f64 = rates.iter().sum();
        assert!(
            total <= cap * (1.0 + 1e-9) + 1e-9,
            "total {total} cap {cap}"
        );
    }
}

/// The network delivers every byte it accepts, for any flow pattern
/// (including loopback src == dst flows).
#[test]
fn network_delivers_everything() {
    let mut rng = SplitMix64::new(0xDE11);
    for _ in 0..64 {
        let n = 1 + rng.next_below(15) as usize;
        let mut net = Network::new(Topology::single_switch(4, Interconnect::GigE10));
        let mut expected = 0u64;
        for i in 0..n {
            let s = rng.next_below(4) as usize;
            let d = rng.next_below(4) as usize;
            let bytes = ByteSize::from_mib(1 + rng.next_below(63));
            expected += bytes.as_bytes();
            net.start_flow(
                SimTime::from_nanos(i as u64),
                NodeId(s),
                NodeId(d),
                bytes,
                i as u64,
            );
        }
        let done = net.run_to_idle();
        assert_eq!(done.len(), n);
        assert_eq!(net.delivered_bytes(), expected);
        assert_eq!(net.active_flows(), 0);
    }
}

/// Run an all-to-all shuffle (every node sends 8 MiB to every other
/// node) over `topology` and return the idle time.
fn all_to_all_finish(topology: Topology) -> SimTime {
    let n = topology.n_nodes();
    let mut net = Network::new(topology);
    let mut tag = 0u64;
    for s in 0..n {
        for d in 0..n {
            if s != d {
                net.start_flow(
                    SimTime::ZERO,
                    NodeId(s),
                    NodeId(d),
                    ByteSize::from_mib(8),
                    tag,
                );
                tag += 1;
            }
        }
    }
    net.run_to_idle();
    net.now()
}

/// An oversubscribed rack fabric makes a cross-rack all-to-all shuffle
/// strictly slower than the non-blocking crossbar (the regression for
/// the formerly dead oversubscription path).
#[test]
fn oversubscribed_all_to_all_is_strictly_slower() {
    let flat = all_to_all_finish(Topology::single_switch(8, Interconnect::GigE1));
    let racked =
        all_to_all_finish(Topology::single_switch(8, Interconnect::GigE1).with_racks(2, 4.0));
    assert!(
        racked > flat,
        "oversubscribed {racked:?} must be strictly slower than flat {flat:?}"
    );
}

/// Oversubscription factor 1 is non-blocking by definition: the rack
/// layer must add no solver resources and reproduce the flat crossbar
/// bit-for-bit, flow by flow.
#[test]
fn factor_one_racks_bit_identical_to_flat() {
    let run = |topology: Topology| {
        let mut net = Network::new(topology);
        let mut tag = 0u64;
        for s in 0..8usize {
            for d in 0..8usize {
                if s != d {
                    net.start_flow(
                        SimTime::ZERO,
                        NodeId(s),
                        NodeId(d),
                        ByteSize::from_mib(1 + ((s * 7 + d) % 5) as u64),
                        tag,
                    );
                    tag += 1;
                }
            }
        }
        // Step event by event, recording (completion time, tag) pairs —
        // a full bit-level trace of the run.
        let mut events: Vec<(u64, u64)> = Vec::new();
        let mut out = Vec::new();
        while let Some(t) = net.next_event_time() {
            out.clear();
            net.advance_to_into(t, &mut out);
            for &tag in &out {
                events.push((t.as_nanos(), tag));
            }
        }
        events
    };
    let flat = run(Topology::single_switch(8, Interconnect::IpoibQdr));
    let racked = run(Topology::single_switch(8, Interconnect::IpoibQdr).with_racks(4, 1.0));
    assert_eq!(flat, racked);
}

/// Rack-constrained runs still deliver every byte.
#[test]
fn rack_network_delivers_everything() {
    let mut rng = SplitMix64::new(0x0ACC);
    for _ in 0..32 {
        let n = 1 + rng.next_below(15) as usize;
        let mut net =
            Network::new(Topology::single_switch(6, Interconnect::GigE10).with_racks(3, 8.0));
        let mut expected = 0u64;
        for i in 0..n {
            let s = rng.next_below(6) as usize;
            let d = rng.next_below(6) as usize;
            let bytes = ByteSize::from_mib(1 + rng.next_below(31));
            expected += bytes.as_bytes();
            net.start_flow(
                SimTime::from_nanos(i as u64),
                NodeId(s),
                NodeId(d),
                bytes,
                i as u64,
            );
        }
        let done = net.run_to_idle();
        assert_eq!(done.len(), n);
        assert_eq!(net.delivered_bytes(), expected);
        assert_eq!(net.active_flows(), 0);
    }
}

/// More load on the same fabric never finishes sooner (monotonicity).
#[test]
fn network_monotone_in_load() {
    let run = |n_flows: u64| {
        let mut net = Network::new(Topology::single_switch(2, Interconnect::GigE1));
        for i in 0..n_flows {
            net.start_flow(
                SimTime::ZERO,
                NodeId(0),
                NodeId(1),
                ByteSize::from_mib(32),
                i,
            );
        }
        net.run_to_idle();
        net.now()
    };
    let base = run(1);
    for extra in 1..8u64 {
        assert!(run(1 + extra) >= base);
    }
}
