//! Interleaved timing against the reference kernel.
//!
//! A measured block is cut into segments (one per job, or one per chunk
//! of set-up work) with a slice of the reference kernel between every
//! two segments and at both ends. Each segment is normalized by the mean
//! of the two slices around it, so a slow stretch of the host slows the
//! segment and its neighbouring slices alike and cancels out.

use std::hint::black_box;
use std::time::Instant;

use crate::host::now;
use crate::refkernel::{Mix, RefKernel};
use crate::stats::normalize;

/// Host and reference-host time of one measured block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Host seconds, kernel slices excluded.
    pub raw_s: f64,
    /// Reference-host seconds.
    pub host_s: f64,
    /// Mean host seconds per kernel unit over the block's slices.
    pub kernel_unit_s: f64,
}

/// Normalize `segments`, where segment `i` ran between kernel slices `i`
/// and `i + 1` of `units` units each.
pub fn interleaved(segments: &[f64], slices: &[f64], units: u32) -> Timing {
    assert_eq!(
        slices.len(),
        segments.len() + 1,
        "a slice on both sides of every segment"
    );
    let units = u64::from(units);
    let host_s = segments
        .iter()
        .zip(slices.windows(2))
        .map(|(&seg, around)| normalize(seg, (around[0] + around[1]) / 2.0, units))
        .sum();
    Timing {
        raw_s: segments.iter().sum(),
        host_s,
        kernel_unit_s: slices.iter().sum::<f64>() / (slices.len() as u64 * units) as f64,
    }
}

/// Runs kernel slices between segments of measured work.
#[derive(Debug)]
pub struct Meter {
    kernel: RefKernel,
    mix: Mix,
    slice_units: u32,
    last: Instant,
    segments: Vec<f64>,
    slices: Vec<f64>,
}

impl Meter {
    /// A meter whose slices are `slice_units` units of `mix` long.
    pub fn new(mix: Mix, slice_units: u32) -> Self {
        let mut kernel = RefKernel::new();
        // Fault the table in before any slice counts.
        black_box(kernel.run(mix, slice_units));
        Meter {
            kernel,
            mix,
            slice_units,
            last: now(),
            segments: Vec::new(),
            slices: Vec::new(),
        }
    }

    /// One timed slice. An untimed unit first refills the caches the
    /// measured work evicted, so the slice measures the host's speed
    /// rather than what ran before it.
    fn slice(&mut self) {
        black_box(self.kernel.run(self.mix, 1));
        let t = now();
        black_box(self.kernel.run(self.mix, self.slice_units));
        self.slices.push(t.elapsed().as_secs_f64());
        self.last = now();
    }

    /// Begin a block with its leading slice.
    pub fn start(&mut self) {
        self.segments.clear();
        self.slices.clear();
        self.slice();
    }

    /// End the current segment and run the slice after it.
    pub fn mark(&mut self) {
        self.segments.push(self.last.elapsed().as_secs_f64());
        self.slice();
    }

    /// End the block's last segment and return the block's timing.
    pub fn finish(&mut self) -> Timing {
        self.mark();
        interleaved(&self.segments, &self.slices, self.slice_units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refkernel::REF_UNIT_S;

    #[test]
    fn each_segment_is_normalized_by_its_neighbouring_slices() {
        // Two segments of 1 s. The host runs at reference speed around
        // the first and at half speed around the second.
        let unit = REF_UNIT_S;
        let slices = [10.0 * unit, 10.0 * unit, 30.0 * unit];
        let t = interleaved(&[1.0, 1.0], &slices, 10);
        assert!((t.raw_s - 2.0).abs() < 1e-12);
        assert!((t.host_s - (1.0 + 0.5)).abs() < 1e-12);
        assert!((t.kernel_unit_s - 50.0 * unit / 30.0).abs() < 1e-15);
    }

    #[test]
    fn meter_records_one_segment_per_mark() {
        let mut m = Meter::new(Mix::Alloc, 1);
        m.start();
        m.mark();
        let t = m.finish();
        assert_eq!(m.segments.len(), 2);
        assert_eq!(m.slices.len(), 3);
        assert!(t.raw_s >= 0.0 && t.host_s >= 0.0 && t.kernel_unit_s > 0.0);
    }
}
