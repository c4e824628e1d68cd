//! Property-style tests for the CPU and disk simulators, run over seeded
//! case grids (the workspace carries no external test dependencies).

use cluster::{CpuSim, DiskSim, DiskSpec, IoKind};
use simcore::rng::SplitMix64;
use simcore::time::SimTime;
use simcore::units::{ByteSize, Rate};

fn drain_cpu(cpu: &mut CpuSim) -> (usize, SimTime) {
    let mut n = 0;
    let mut last = SimTime::ZERO;
    while let Some(t) = cpu.next_event_time() {
        let done = cpu.advance_to(t);
        n += done.len();
        last = t;
    }
    (n, last)
}

fn gen_work(rng: &mut SplitMix64, max_jobs: u64) -> Vec<f64> {
    let n = 1 + rng.next_below(max_jobs) as usize;
    (0..n).map(|_| 0.01 + rng.next_f64() * 4.99).collect()
}

/// Every submitted CPU job eventually completes, and total busy time
/// equals total work (no work lost or invented).
#[test]
fn cpu_conserves_work() {
    let mut rng = SplitMix64::new(0xC9);
    for _ in 0..64 {
        let work = gen_work(&mut rng, 19);
        let cores = 1 + rng.next_below(15) as u32;
        let mut cpu = CpuSim::homogeneous(1, cores, 1.0);
        let total: f64 = work.iter().sum();
        for (i, w) in work.iter().enumerate() {
            cpu.submit(SimTime::ZERO, 0, *w, i as u64);
        }
        let (n, last) = drain_cpu(&mut cpu);
        assert_eq!(n, work.len());
        let busy = cpu.drain_busy_core_seconds(0, last);
        assert!(
            (busy - total).abs() < 1e-3 * total.max(1.0),
            "busy {busy} vs total {total}"
        );
    }
}

/// Makespan is bounded below by max(total/cores, longest job) and
/// above by a small slack over the PS optimum.
#[test]
fn cpu_makespan_bounds() {
    let mut rng = SplitMix64::new(0x3A4E);
    for _ in 0..64 {
        let work = gen_work(&mut rng, 19);
        let cores = 1 + rng.next_below(7) as u32;
        let mut cpu = CpuSim::homogeneous(1, cores, 1.0);
        let total: f64 = work.iter().sum();
        let longest = work.iter().cloned().fold(0.0, f64::max);
        for (i, w) in work.iter().enumerate() {
            cpu.submit(SimTime::ZERO, 0, *w, i as u64);
        }
        let (_, last) = drain_cpu(&mut cpu);
        let makespan = last.as_secs_f64();
        let lower = (total / cores as f64).max(longest);
        assert!(
            makespan >= lower - 1e-6,
            "makespan {makespan} < lower {lower}"
        );
        // PS never does worse than fully serial execution.
        assert!(
            makespan <= total + 1e-6,
            "makespan {makespan} > serial {total}"
        );
    }
}

/// Disk completions preserve FIFO order per node with one disk.
#[test]
fn disk_fifo_order() {
    let mut rng = SplitMix64::new(0xD15C);
    for _ in 0..64 {
        let n = 1 + rng.next_below(19) as usize;
        let mut d = DiskSim::homogeneous(1, 1, DiskSpec::hdd());
        for i in 0..n {
            let s = 1 + rng.next_below(63);
            d.submit(
                SimTime::ZERO,
                0,
                ByteSize::from_mib(s),
                IoKind::Write,
                i as u64,
            );
        }
        let mut seen = Vec::new();
        while let Some(t) = d.next_event_time() {
            seen.extend(d.advance_to(t));
        }
        let expect: Vec<u64> = (0..n as u64).collect();
        assert_eq!(seen, expect);
    }
}

/// Total disk service time equals the sum of per-request services.
#[test]
fn disk_busy_time_additive() {
    let mut rng = SplitMix64::new(0xADD);
    for _ in 0..64 {
        let n = 1 + rng.next_below(11) as usize;
        let bw = 50.0 + rng.next_f64() * 250.0;
        let spec = DiskSpec {
            read_bw: Rate::from_mb_per_sec(bw),
            write_bw: Rate::from_mb_per_sec(bw),
            seek_ms: 5.0,
        };
        let mut d = DiskSim::homogeneous(1, 1, spec);
        let mut expect = 0.0;
        for i in 0..n {
            let bytes = ByteSize::from_mib(1 + rng.next_below(63));
            expect += 5e-3 + bytes.as_bytes() as f64 / (bw * 1e6);
            d.submit(SimTime::ZERO, 0, bytes, IoKind::Write, i as u64);
        }
        let mut last = SimTime::ZERO;
        while let Some(t) = d.next_event_time() {
            d.advance_to(t);
            last = t;
        }
        assert!(
            (last.as_secs_f64() - expect).abs() < 1e-6 * expect.max(1.0),
            "makespan {} vs expected {expect}",
            last.as_secs_f64()
        );
    }
}
