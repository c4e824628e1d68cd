//! The suite's three custom partitioners (paper Sect. 4.2).
//!
//! Each micro-benchmark is defined by how its partitioner spreads the
//! intermediate key/value pairs over the reducers:
//!
//! * **MR-AVG** — round-robin: every reducer receives the same number of
//!   records (±1).
//! * **MR-RAND** — `new Random().nextInt(numReducers)` per record. The
//!   paper notes that Java's LCG with this limited range makes runs
//!   reproducible; the bit-exact [`JavaRandom`] port preserves that.
//! * **MR-SKEW** — a fixed skew: 50 % of the pairs to reducer 0, 25 % to
//!   reducer 1, 12.5 % to reducer 2, and the remaining 12.5 % spread
//!   randomly. The pattern is the same on every run, so comparisons
//!   across networks stay fair.
//!
//! No partitioner here reads keys, so each overrides
//! [`Partitioner::assign_counts`] with a bulk path that builds none.
//! MR-RAND, MR-SKEW and MR-ZIPF still take every per-record draw from
//! `java.util.Random`, in order: their bulk paths produce the same
//! counts as the per-record [`Partitioner::partition`] loop and leave
//! the generator where that loop would.

use mapreduce::job::PartitionerFactory;
use mapreduce::partition::Partitioner;
use simcore::rng::{JavaDraws, JavaRandom};

/// MR-AVG: uniform round-robin distribution.
#[derive(Clone, Copy, Debug, Default)]
pub struct AvgPartitioner;

impl Partitioner for AvgPartitioner {
    fn partition(&mut self, _key: &[u8], ordinal: u64, n_reducers: u32) -> u32 {
        (ordinal % u64::from(n_reducers)) as u32
    }

    fn assign_counts(
        &mut self,
        n_records: u64,
        n_reducers: u32,
        _key_of: &mut dyn FnMut(u64, &mut Vec<u8>),
    ) -> Vec<u64> {
        // Exact closed form of the round-robin loop.
        let n = u64::from(n_reducers);
        let base = n_records / n;
        let rem = n_records % n;
        (0..n).map(|r| base + u64::from(r < rem)).collect()
    }
}

/// MR-RAND: pseudo-random reducer choice via `java.util.Random`.
#[derive(Clone, Debug)]
pub struct RandPartitioner {
    rng: JavaRandom,
}

impl RandPartitioner {
    /// One instance per map task, seeded deterministically.
    pub fn new(seed: i64) -> Self {
        RandPartitioner {
            rng: JavaRandom::new(seed),
        }
    }
}

impl Partitioner for RandPartitioner {
    fn partition(&mut self, _key: &[u8], _ordinal: u64, n_reducers: u32) -> u32 {
        self.rng.next_int_bound(n_reducers as i32) as u32
    }

    fn assign_counts(
        &mut self,
        n_records: u64,
        n_reducers: u32,
        _key_of: &mut dyn FnMut(u64, &mut Vec<u8>),
    ) -> Vec<u64> {
        let mut counts = vec![0u64; n_reducers as usize];
        let mut draws = JavaDraws::new(&mut self.rng);
        if n_reducers.is_power_of_two() {
            // One draw per record, and nextInt(2^b) is the draw's top b
            // bits: the raw states index the histogram directly.
            let shift = 48 - n_reducers.trailing_zeros();
            draws.for_each_state(n_records, |state| {
                counts[(state >> shift) as usize] += 1;
            });
        } else {
            for _ in 0..n_records {
                counts[draws.next_int_bound(n_reducers as i32) as usize] += 1;
            }
        }
        counts
    }
}

/// MR-SKEW: 50 % / 25 % / 12.5 % to the first three reducers, rest random.
#[derive(Clone, Debug)]
pub struct SkewPartitioner {
    rng: JavaRandom,
}

impl SkewPartitioner {
    /// One instance per map task, seeded deterministically.
    pub fn new(seed: i64) -> Self {
        SkewPartitioner {
            rng: JavaRandom::new(seed),
        }
    }
}

impl Partitioner for SkewPartitioner {
    fn partition(&mut self, _key: &[u8], _ordinal: u64, n_reducers: u32) -> u32 {
        let last = n_reducers - 1;
        let u = self.rng.next_double();
        if u < 0.50 {
            0
        } else if u < 0.75 {
            1u32.min(last)
        } else if u < 0.875 {
            2u32.min(last)
        } else {
            self.rng.next_int_bound(n_reducers as i32) as u32
        }
    }

    fn assign_counts(
        &mut self,
        n_records: u64,
        n_reducers: u32,
        _key_of: &mut dyn FnMut(u64, &mut Vec<u8>),
    ) -> Vec<u64> {
        // u = (hi26 * 2^27 + lo27) * 2^-53 is exact in f64, so the
        // thresholds 0.5 / 0.75 / 0.875 test only the first draw's top
        // three bits: t < 4, t < 6 and t < 7. The second draw is taken
        // but cannot move u across any of them. A table replaces the
        // branch chain; t == 7 is the random tail.
        const TAIL: u32 = u32::MAX;
        let last = n_reducers - 1;
        let (one, two) = (1u32.min(last), 2u32.min(last));
        let head = [0, 0, 0, 0, one, one, two, TAIL];
        let mut counts = vec![0u64; n_reducers as usize];
        let mut draws = JavaDraws::new(&mut self.rng);
        for _ in 0..n_records {
            let t = (draws.next_state() >> 45) as usize;
            draws.next_state();
            let r = match head[t] {
                TAIL => draws.next_int_bound(n_reducers as i32) as u32,
                r => r,
            };
            counts[r as usize] += 1;
        }
        counts
    }
}

/// Factory for [`AvgPartitioner`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AvgFactory;

impl PartitionerFactory for AvgFactory {
    fn create(&self, _map_index: u32, _seed: u64) -> Box<dyn Partitioner> {
        Box::new(AvgPartitioner)
    }
    fn name(&self) -> &str {
        "MR-AVG"
    }
}

/// Factory for [`RandPartitioner`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RandFactory;

impl PartitionerFactory for RandFactory {
    fn create(&self, _map_index: u32, seed: u64) -> Box<dyn Partitioner> {
        Box::new(RandPartitioner::new(seed as i64))
    }
    fn name(&self) -> &str {
        "MR-RAND"
    }
}

/// Factory for [`SkewPartitioner`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SkewFactory;

impl PartitionerFactory for SkewFactory {
    fn create(&self, _map_index: u32, seed: u64) -> Box<dyn Partitioner> {
        Box::new(SkewPartitioner::new(seed as i64))
    }
    fn name(&self) -> &str {
        "MR-SKEW"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_keys(_: u64, _: &mut Vec<u8>) {}

    #[test]
    fn avg_is_perfectly_balanced() {
        let mut p = AvgPartitioner;
        let counts = p.assign_counts(1003, 8, &mut no_keys);
        assert_eq!(counts.iter().sum::<u64>(), 1003);
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "{counts:?}");
        // Matches the per-record loop exactly.
        let mut q = AvgPartitioner;
        let mut loop_counts = vec![0u64; 8];
        for i in 0..1003 {
            loop_counts[q.partition(&[], i, 8) as usize] += 1;
        }
        assert_eq!(counts, loop_counts);
    }

    #[test]
    fn rand_is_statistically_balanced_and_reproducible() {
        let mut p = RandPartitioner::new(42);
        let counts = p.assign_counts(80_000, 8, &mut no_keys);
        assert_eq!(counts.iter().sum::<u64>(), 80_000);
        for c in &counts {
            let dev = (*c as f64 - 10_000.0).abs() / 10_000.0;
            assert!(dev < 0.05, "{counts:?}");
        }
        // Same seed, same mapping — the paper's reproducibility property.
        let mut p2 = RandPartitioner::new(42);
        assert_eq!(p2.assign_counts(80_000, 8, &mut no_keys), counts);
        // Different seed, different mapping.
        let mut p3 = RandPartitioner::new(43);
        assert_ne!(p3.assign_counts(80_000, 8, &mut no_keys), counts);
    }

    #[test]
    fn skew_matches_paper_fractions() {
        let n = 400_000u64;
        let mut p = SkewPartitioner::new(7);
        let counts = p.assign_counts(n, 8, &mut no_keys);
        assert_eq!(counts.iter().sum::<u64>(), n);
        let frac = |i: usize| counts[i] as f64 / n as f64;
        // r0: 50% + 12.5%/8 ≈ 51.6%; r1: 25% + 1.6%; r2: 12.5% + 1.6%.
        assert!((frac(0) - 0.5156).abs() < 0.01, "{counts:?}");
        assert!((frac(1) - 0.2656).abs() < 0.01, "{counts:?}");
        assert!((frac(2) - 0.1406).abs() < 0.01, "{counts:?}");
        for r in 3..8 {
            assert!((frac(r) - 0.0156).abs() < 0.005, "{counts:?}");
        }
    }

    #[test]
    fn skew_with_few_reducers_stays_in_range() {
        for n_red in [1u32, 2, 3] {
            let mut p = SkewPartitioner::new(1);
            let counts = p.assign_counts(10_000, n_red, &mut no_keys);
            assert_eq!(counts.len(), n_red as usize);
            assert_eq!(counts.iter().sum::<u64>(), 10_000);
        }
    }

    #[test]
    fn skew_partition_loop_equals_assign_counts() {
        // SkewPartitioner's bulk path must consume the RNG exactly as the
        // per-record loop does, across many buffer refills and for every
        // reducer count, including the clamped n < 3 cases.
        for n_red in [1u32, 2, 3, 8] {
            let mut a = SkewPartitioner::new(11);
            let mut loop_counts = vec![0u64; n_red as usize];
            for i in 0..50_000u64 {
                loop_counts[a.partition(&[], i, n_red) as usize] += 1;
            }
            let mut b = SkewPartitioner::new(11);
            assert_eq!(
                b.assign_counts(50_000, n_red, &mut no_keys),
                loop_counts,
                "n_reducers = {n_red}"
            );
        }
    }

    #[test]
    fn skew_random_tail_is_uniform_across_all_reducers() {
        // The last 12.5 % bucket draws nextInt(n) over ALL reducers, so a
        // reducer past rank 2 sees exactly the tail share: 12.5 % / n.
        let n = 400_000u64;
        let mut p = SkewPartitioner::new(9);
        let counts = p.assign_counts(n, 4, &mut no_keys);
        let frac3 = counts[3] as f64 / n as f64;
        assert!((frac3 - 0.031_25).abs() < 0.005, "{counts:?}");
    }

    #[test]
    fn skew_two_reducers_fold_onto_paper_fractions() {
        // With two reducers the 25 % and 12.5 % buckets both clamp onto
        // reducer 1 and the random tail splits evenly:
        // r0 = 50 % + 6.25 % = 56.25 %, r1 = 25 % + 12.5 % + 6.25 %.
        let n = 200_000u64;
        let mut p = SkewPartitioner::new(5);
        let counts = p.assign_counts(n, 2, &mut no_keys);
        assert_eq!(counts.iter().sum::<u64>(), n);
        let frac = |i: usize| counts[i] as f64 / n as f64;
        assert!((frac(0) - 0.5625).abs() < 0.01, "{counts:?}");
        assert!((frac(1) - 0.4375).abs() < 0.01, "{counts:?}");
    }

    #[test]
    fn skew_three_reducers_match_paper_fractions() {
        // The smallest grid the paper's MR-SKEW definition fully fits:
        // r0 = 50 % + 12.5 %/3, r1 = 25 % + 12.5 %/3, r2 = 12.5 % + 12.5 %/3.
        let n = 300_000u64;
        let mut p = SkewPartitioner::new(13);
        let counts = p.assign_counts(n, 3, &mut no_keys);
        let frac = |i: usize| counts[i] as f64 / n as f64;
        assert!((frac(0) - (0.50 + 0.125 / 3.0)).abs() < 0.01, "{counts:?}");
        assert!((frac(1) - (0.25 + 0.125 / 3.0)).abs() < 0.01, "{counts:?}");
        assert!((frac(2) - (0.125 + 0.125 / 3.0)).abs() < 0.01, "{counts:?}");
    }

    #[test]
    fn skew_single_reducer_takes_everything() {
        let mut p = SkewPartitioner::new(5);
        assert_eq!(p.assign_counts(10_000, 1, &mut no_keys), vec![10_000]);
    }

    #[test]
    fn factories_have_paper_names() {
        assert_eq!(AvgFactory.name(), "MR-AVG");
        assert_eq!(RandFactory.name(), "MR-RAND");
        assert_eq!(SkewFactory.name(), "MR-SKEW");
    }

    #[test]
    fn skew_heavier_than_avg_for_reducer_zero() {
        let mut avg = AvgPartitioner;
        let mut skew = SkewPartitioner::new(3);
        let a = avg.assign_counts(100_000, 8, &mut no_keys);
        let s = skew.assign_counts(100_000, 8, &mut no_keys);
        assert!(s[0] > a[0] * 3, "skew r0 {} vs avg r0 {}", s[0], a[0]);
    }
}

/// MR-ZIPF (extension): keys follow a Zipf distribution over the unique
/// keys, producing the graded, realistic skew the paper's future-work
/// section calls for ("so that users can gain a more concrete
/// understanding of real-world workloads", Sect. 7). Exponent `s = 0`
/// degenerates to uniform; `s = 1` is classic Zipf; larger `s` is
/// heavier-headed.
#[derive(Clone, Debug)]
pub struct ZipfPartitioner {
    rng: JavaRandom,
    exponent: f64,
    /// Cached CDF for the reducer count seen so far.
    cdf: Vec<f64>,
}

impl ZipfPartitioner {
    /// One instance per map task.
    pub fn new(seed: i64, exponent: f64) -> Self {
        assert!(
            exponent >= 0.0 && exponent.is_finite(),
            "exponent must be >= 0"
        );
        ZipfPartitioner {
            rng: JavaRandom::new(seed),
            exponent,
            cdf: Vec::new(),
        }
    }

    fn ensure_cdf(&mut self, n: u32) {
        if self.cdf.len() == n as usize {
            return;
        }
        let mut weights: Vec<f64> = (1..=n)
            .map(|rank| 1.0 / (f64::from(rank)).powf(self.exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        self.cdf = weights;
    }
}

impl Partitioner for ZipfPartitioner {
    fn partition(&mut self, _key: &[u8], _ordinal: u64, n_reducers: u32) -> u32 {
        self.ensure_cdf(n_reducers);
        let u = self.rng.next_double();
        // First CDF entry >= u; the CDF ends at 1.0 so this always hits.
        self.cdf
            .partition_point(|&c| c < u)
            .min(n_reducers as usize - 1) as u32
    }

    fn assign_counts(
        &mut self,
        n_records: u64,
        n_reducers: u32,
        _key_of: &mut dyn FnMut(u64, &mut Vec<u8>),
    ) -> Vec<u64> {
        self.ensure_cdf(n_reducers);
        let last = n_reducers as usize - 1;
        let mut counts = vec![0u64; n_reducers as usize];
        let mut draws = JavaDraws::new(&mut self.rng);
        for _ in 0..n_records {
            let u = draws.next_double();
            counts[self.cdf.partition_point(|&c| c < u).min(last)] += 1;
        }
        counts
    }
}

/// Factory for [`ZipfPartitioner`].
#[derive(Clone, Copy, Debug)]
pub struct ZipfFactory {
    /// Zipf exponent `s`.
    pub exponent: f64,
}

impl ZipfFactory {
    /// A factory drawing keys with exponent `s`.
    pub fn new(exponent: f64) -> Self {
        ZipfFactory { exponent }
    }
}

impl PartitionerFactory for ZipfFactory {
    fn create(&self, _map_index: u32, seed: u64) -> Box<dyn Partitioner> {
        Box::new(ZipfPartitioner::new(seed as i64, self.exponent))
    }
    fn name(&self) -> &str {
        "MR-ZIPF"
    }
}

#[cfg(test)]
mod zipf_tests {
    use super::*;

    fn no_keys(_: u64, _: &mut Vec<u8>) {}

    #[test]
    fn zero_exponent_is_uniform() {
        let mut p = ZipfPartitioner::new(1, 0.0);
        let counts = p.assign_counts(80_000, 8, &mut no_keys);
        for c in &counts {
            let dev = (*c as f64 - 10_000.0).abs() / 10_000.0;
            assert!(dev < 0.05, "{counts:?}");
        }
    }

    #[test]
    fn classic_zipf_head_dominates() {
        let mut p = ZipfPartitioner::new(1, 1.0);
        let n = 200_000u64;
        let counts = p.assign_counts(n, 8, &mut no_keys);
        assert_eq!(counts.iter().sum::<u64>(), n);
        // H(8) ~ 2.718; rank-1 share ~ 1/2.718 ~ 36.8%.
        let frac0 = counts[0] as f64 / n as f64;
        assert!((0.34..0.40).contains(&frac0), "frac0 {frac0}");
        // Monotone decreasing by rank.
        for w in counts.windows(2) {
            assert!(w[0] >= w[1], "{counts:?}");
        }
    }

    #[test]
    fn higher_exponent_is_more_skewed() {
        let head_share = |s: f64| {
            let mut p = ZipfPartitioner::new(3, s);
            let counts = p.assign_counts(100_000, 8, &mut no_keys);
            counts[0] as f64 / 100_000.0
        };
        assert!(head_share(1.5) > head_share(1.0));
        assert!(head_share(1.0) > head_share(0.5));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ZipfPartitioner::new(9, 1.0).assign_counts(10_000, 4, &mut no_keys);
        let b = ZipfPartitioner::new(9, 1.0).assign_counts(10_000, 4, &mut no_keys);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn rejects_negative_exponent() {
        let _ = ZipfPartitioner::new(0, -1.0);
    }
}
