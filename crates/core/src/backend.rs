//! The two evaluation backends, selected by [`BenchConfig::backend`]:
//!
//! * **DES** — the discrete-event simulator
//!   ([`mapreduce::engine`]). Per-event fidelity: fault injection,
//!   speculation, fetch backpressure, page-cache dynamics. The default,
//!   and the ground truth the other backend is validated against.
//! * **Analytic** — the closed-form cost model
//!   ([`mapreduce::analytic`]). O(maps + reduces) arithmetic per job;
//!   use it to scout large sweeps, then confirm the interesting cells
//!   with the DES. It refuses configs whose features it cannot model
//!   (fault plans, speculative execution) rather than silently ignoring
//!   them.
//!
//! Both run behind the same entry point — [`crate::runner::run`]
//! matches on [`BenchConfig::backend`] — so reports, stores, and
//! sweeps are backend-agnostic. A config's digest covers the `backend`
//! field, which keeps analytic and DES results under distinct cache keys
//! (see the digest contract in [`crate::store`]). This module holds the
//! analytic backend's closed-form partition fractions.

use crate::bench::MicroBenchmark;
use crate::config::BenchConfig;

/// Expected fraction of intermediate records each reducer receives under
/// `config`'s benchmark — the closed-form counterpart of actually running
/// the partitioner over every record:
///
/// * **MR-AVG** partitions round-robin per map, so reducer `r` gets
///   exactly `floor(P/R) + (r < P mod R)` of each map's `P` records.
/// * **MR-RAND** draws `nextInt(R)` per record: uniform in expectation.
/// * **MR-SKEW** routes 50 % to reducer 0, 25 % to 1, 12.5 % to 2
///   (clamped to the last reducer when `R < 3`), and spreads the
///   remaining 12.5 % uniformly (paper Sect. 4.2).
/// * **MR-ZIPF** weights reducer `r` by `1 / (r + 1)^s`, normalized.
pub fn expected_reduce_fractions(config: &BenchConfig) -> Vec<f64> {
    let r = (config.num_reduces as usize).max(1);
    match config.benchmark {
        MicroBenchmark::Avg => {
            let pairs = config.job_spec().pairs_per_map.max(1);
            let base = pairs / r as u64;
            let rem = (pairs % r as u64) as usize;
            (0..r)
                .map(|i| (base + u64::from(i < rem)) as f64 / pairs as f64)
                .collect()
        }
        MicroBenchmark::Rand => vec![1.0 / r as f64; r],
        MicroBenchmark::Skew => {
            let mut frac = vec![0.0f64; r];
            let last = r - 1;
            frac[0] += 0.50;
            frac[1.min(last)] += 0.25;
            frac[2.min(last)] += 0.125;
            let tail = 0.125 / r as f64;
            for f in &mut frac {
                *f += tail;
            }
            frac
        }
        MicroBenchmark::Zipf => {
            let s = config.zipf_exponent;
            let weights: Vec<f64> = (0..r).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
            let sum: f64 = weights.iter().sum();
            weights.into_iter().map(|w| w / sum).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::units::ByteSize;
    use simnet::Interconnect;

    fn config(bench: MicroBenchmark, reduces: u32) -> BenchConfig {
        let mut c =
            BenchConfig::cluster_a_default(bench, Interconnect::GigE1, ByteSize::from_mib(256));
        c.slaves = 2;
        c.num_maps = 4;
        c.num_reduces = reduces;
        c
    }

    fn assert_normalized(frac: &[f64]) {
        let sum: f64 = frac.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum} of {frac:?}");
        assert!(frac.iter().all(|f| *f >= 0.0 && f.is_finite()));
    }

    #[test]
    fn fractions_match_each_distribution() {
        for bench in MicroBenchmark::EXTENDED {
            for reduces in [1, 2, 3, 8] {
                assert_normalized(&expected_reduce_fractions(&config(bench, reduces)));
            }
        }
        let avg = expected_reduce_fractions(&config(MicroBenchmark::Avg, 8));
        let spread = avg.iter().fold(0.0f64, |m, f| m.max((f - 1.0 / 8.0).abs()));
        assert!(spread < 0.01, "{avg:?}");

        let skew = expected_reduce_fractions(&config(MicroBenchmark::Skew, 8));
        let t = 0.125 / 8.0;
        assert!((skew[0] - (0.50 + t)).abs() < 1e-12);
        assert!((skew[1] - (0.25 + t)).abs() < 1e-12);
        assert!((skew[2] - (0.125 + t)).abs() < 1e-12);
        assert!((skew[7] - t).abs() < 1e-12);

        // R=2 clamps the 12.5% bucket onto reducer 1 (paper Sect. 4.2).
        let skew2 = expected_reduce_fractions(&config(MicroBenchmark::Skew, 2));
        assert!((skew2[0] - 0.5625).abs() < 1e-12, "{skew2:?}");
        assert!((skew2[1] - 0.4375).abs() < 1e-12, "{skew2:?}");

        let zipf = expected_reduce_fractions(&config(MicroBenchmark::Zipf, 4));
        assert!(zipf[0] > zipf[1] && zipf[1] > zipf[2] && zipf[2] > zipf[3]);
    }
}
