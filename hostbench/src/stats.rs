//! Medians and the reference normalization.

use crate::refkernel::REF_UNIT_S;

/// Median of `values` (mean of the middle two for an even count).
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Express `raw_s` host seconds in reference-host seconds, given that
/// `kernel_units` units of the reference kernel took `kernel_s` host
/// seconds next to it: a host running at half the reference speed reads
/// the same as the reference host.
pub fn normalize(raw_s: f64, kernel_s: f64, kernel_units: u64) -> f64 {
    assert!(
        kernel_units > 0 && kernel_s > 0.0,
        "no reference kernel time"
    );
    raw_s / (kernel_s / kernel_units as f64) * REF_UNIT_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn normalization_cancels_host_speed() {
        // On the reference host a unit takes REF_UNIT_S: times pass
        // through.
        let t = normalize(2.0, 10.0 * REF_UNIT_S, 10);
        assert!((t - 2.0).abs() < 1e-12);
        // A host twice as slow takes twice as long for both.
        let slow = normalize(4.0, 20.0 * REF_UNIT_S, 10);
        assert!((slow - 2.0).abs() < 1e-12);
    }
}
