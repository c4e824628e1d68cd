//! Property-style tests for the simulation kernel invariants.
//!
//! The workspace carries no external dependencies, so instead of proptest
//! these run each invariant over many deterministically generated cases
//! drawn from the crate's own RNGs.

use simcore::{ByteSize, EventQueue, JavaRandom, Rate, SimDuration, SimTime, SplitMix64};

/// Events always pop in non-decreasing time order, with FIFO tie-break.
#[test]
fn event_queue_total_order() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xE4E47 + case);
        let n = 1 + rng.next_below(200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.next_below(1_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                assert!(t >= lt);
                if t == lt {
                    assert!(idx > lidx, "FIFO tie-break violated");
                }
            }
            last = Some((t, idx));
        }
    }
}

/// java.util.Random nextInt(bound) stays in range for any positive bound.
#[test]
fn java_random_bound_always_in_range() {
    let mut rng = SplitMix64::new(0x7A7A);
    for _ in 0..64 {
        let seed = rng.next_u64() as i64;
        let bound = 1 + (rng.next_below(i32::MAX as u64 - 1)) as i32;
        let draws = 1 + rng.next_below(50);
        let mut r = JavaRandom::new(seed);
        for _ in 0..draws {
            let v = r.next_int_bound(bound);
            assert!((0..bound).contains(&v));
        }
    }
}

/// JavaRandom is a pure function of its seed.
#[test]
fn java_random_deterministic() {
    let mut rng = SplitMix64::new(0xDE7E12);
    for _ in 0..64 {
        let seed = rng.next_u64() as i64;
        let mut a = JavaRandom::new(seed);
        let mut b = JavaRandom::new(seed);
        for _ in 0..16 {
            assert_eq!(a.next_int(), b.next_int());
        }
    }
}

/// Transfer-time and bytes-over are inverse within rounding error.
#[test]
fn rate_time_inverse() {
    let mut rng = SplitMix64::new(0x1A7E);
    for _ in 0..256 {
        let bytes = 1 + rng.next_below(1_000_000_000);
        let mbps = 1.0 + rng.next_f64() * 9_999.0;
        let r = Rate::from_mb_per_sec(mbps);
        let t = r.time_for(ByteSize::from_bytes(bytes));
        let back = r.bytes_over(t).as_bytes() as f64;
        // Nanosecond quantization bounds the error by rate * 1ns + 1 byte.
        let tolerance = r.as_bytes_per_sec() * 1e-9 + 1.0;
        assert!(
            (back - bytes as f64).abs() <= tolerance,
            "bytes={bytes} back={back} tol={tolerance}"
        );
    }
}

/// SimTime arithmetic is consistent: (t + d) - t == d.
#[test]
fn time_add_sub_roundtrip() {
    let mut rng = SplitMix64::new(0x71AE);
    for _ in 0..256 {
        let t0 = SimTime::from_nanos(rng.next_below(u64::MAX / 4));
        let dur = SimDuration::from_nanos(rng.next_below(u64::MAX / 4));
        assert_eq!((t0 + dur) - t0, dur);
        assert_eq!((t0 + dur).since(t0), dur);
    }
}

/// SplitMix64 bounded draws are in range and deterministic.
#[test]
fn splitmix_bounded() {
    let mut rng = SplitMix64::new(0x5B117);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let bound = 1 + rng.next_below(1_000_000);
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for _ in 0..8 {
            let va = a.next_below(bound);
            assert!(va < bound);
            assert_eq!(va, b.next_below(bound));
        }
    }
}
