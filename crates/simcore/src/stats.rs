//! Time-series sampling and rate integration.
//!
//! The micro-benchmark suite reports more than a single job time: it prints
//! resource-utilization series (paper Fig. 7). These containers are
//! deliberately allocation-light so they can be updated from hot simulator
//! paths.

use crate::json::Json;
use crate::time::{SimDuration, SimTime};

/// One `(time, value)` sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// When the sample was taken.
    pub time: SimTime,
    /// The observed value.
    pub value: f64,
}

/// An append-only time series, e.g. per-second CPU % on a node.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    samples: Vec<Sample>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        TimeSeries {
            samples: Vec::new(),
        }
    }

    /// Append a sample; time must be non-decreasing.
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Some(last) = self.samples.last() {
            debug_assert!(time >= last.time, "time series must be monotonic");
        }
        self.samples.push(Sample { time, value });
    }

    /// All samples in order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Largest sampled value.
    pub fn peak(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|s| s.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Mean of sampled values.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().map(|s| s.value).sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Serialize as an array of `[time_ns, value]` pairs.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.samples
                .iter()
                .map(|s| Json::Arr(vec![Json::from(s.time.as_nanos()), Json::from(s.value)]))
                .collect(),
        )
    }

    /// Rebuild from the [`TimeSeries::to_json`] encoding.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let items = json.as_arr().ok_or("time series must be an array")?;
        let mut ts = TimeSeries::new();
        for item in items {
            let pair = item.as_arr().ok_or("time series sample must be a pair")?;
            if pair.len() != 2 {
                return Err("time series sample must be a [time_ns, value] pair".into());
            }
            let time = pair[0].as_u64().ok_or("sample time must be a u64")?;
            let value = pair[1].as_f64().ok_or("sample value must be a number")?;
            ts.push(SimTime::from_nanos(time), value);
        }
        Ok(ts)
    }
}

/// Integrates a piecewise-constant rate over simulated time; used to turn
/// "bytes per second right now" into "bytes moved this sampling interval".
#[derive(Clone, Debug)]
pub struct RateIntegrator {
    last_time: SimTime,
    // simlint: allow(unit-suffix, unit-generic integrator; callers integrate bytes/s or cores)
    rate: f64,
    accumulated: f64,
}

impl RateIntegrator {
    /// Start integrating at `start` with rate 0.
    pub fn new(start: SimTime) -> Self {
        RateIntegrator {
            last_time: start,
            rate: 0.0,
            accumulated: 0.0,
        }
    }

    /// Change the instantaneous rate at time `now` (integrating the old
    /// rate up to `now` first).
    // simlint: allow(unit-suffix, unit-generic integrator; callers integrate bytes/s or cores)
    pub fn set_rate(&mut self, now: SimTime, rate: f64) {
        self.advance(now);
        self.rate = rate;
    }

    /// Integrate up to `now` without changing the rate.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_time);
        let dt = now.since(self.last_time).as_secs_f64();
        self.accumulated += self.rate * dt;
        self.last_time = now;
    }

    /// Current instantaneous rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Take (and reset) everything integrated so far.
    pub fn drain(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        std::mem::take(&mut self.accumulated)
    }

    /// Peek at the integral without resetting.
    pub fn total(&self) -> f64 {
        self.accumulated
    }
}

/// `dstat`-style fixed-interval sampling of one per-node quantity: CPU %
/// from a CPU model's busy core-seconds, or MB/s from a network's
/// received bytes (paper Fig. 7).
///
/// The caller supplies the drain as a closure `sample(node, at, dt)`: it
/// takes the quantity accrued on `node` up to `at` and returns the sampled
/// value over a window of `dt` seconds.
#[derive(Debug)]
pub struct IntervalSampler {
    interval: SimDuration,
    next_sample: SimTime,
    series: Vec<TimeSeries>,
}

impl IntervalSampler {
    /// Sample `n_nodes` nodes every `interval`, first at `interval`.
    pub fn new(n_nodes: usize, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        IntervalSampler {
            interval,
            next_sample: SimTime::ZERO + interval,
            series: (0..n_nodes).map(|_| TimeSeries::new()).collect(),
        }
    }

    /// When the next sample is due.
    pub fn next_sample_time(&self) -> SimTime {
        self.next_sample
    }

    /// Take every whole-interval sample due at or before `now`. The
    /// sampled model must already be advanced to `now`.
    pub fn maybe_sample(
        &mut self,
        now: SimTime,
        mut sample: impl FnMut(usize, SimTime, f64) -> f64,
    ) {
        while self.next_sample <= now {
            let at = self.next_sample;
            let dt = self.interval.as_secs_f64();
            for (node, series) in self.series.iter_mut().enumerate() {
                series.push(at, sample(node, at, dt));
            }
            self.next_sample += self.interval;
        }
    }

    /// Emit the final, possibly partial, sampling window ending at `end`.
    ///
    /// `maybe_sample` only fires on whole-interval boundaries, so whatever
    /// accrued between the last tick and `end` would otherwise be dropped
    /// from the series. The tail sample covers the partial window and is
    /// stamped at `end`. Idempotent: a second flush at the same instant,
    /// or a flush landing exactly on a tick, adds nothing.
    pub fn flush(&mut self, end: SimTime, mut sample: impl FnMut(usize, SimTime, f64) -> f64) {
        self.maybe_sample(end, &mut sample);
        let window_start = self.next_sample - self.interval;
        if end <= window_start {
            return;
        }
        let dt = end.since(window_start).as_secs_f64();
        for (node, series) in self.series.iter_mut().enumerate() {
            series.push(end, sample(node, end, dt));
        }
        // The flushed window is consumed; the next whole interval starts
        // at `end`.
        self.next_sample = end + self.interval;
    }

    /// The sampled series for `node`.
    pub fn series(&self, node: usize) -> &TimeSeries {
        &self.series[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn time_series() {
        let mut ts = TimeSeries::new();
        assert!(ts.is_empty());
        ts.push(SimTime::from_secs(1), 10.0);
        ts.push(SimTime::from_secs(2), 30.0);
        ts.push(SimTime::from_secs(3), 20.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.peak(), Some(30.0));
        assert_eq!(ts.mean(), Some(20.0));
        assert_eq!(ts.samples()[1].value, 30.0);
    }

    #[test]
    fn time_series_json_round_trip() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_nanos(1_500_000_000), 111.8251);
        ts.push(SimTime::from_secs(2), 0.0);
        ts.push(SimTime::from_nanos(u64::MAX), 1.0 / 3.0);
        let text = ts.to_json().to_compact();
        let back = TimeSeries::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.samples(), ts.samples());
        assert!(TimeSeries::from_json(&Json::parse("[[1]]").unwrap()).is_err());
        assert!(TimeSeries::from_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn rate_integrator() {
        let mut ri = RateIntegrator::new(SimTime::ZERO);
        ri.set_rate(SimTime::ZERO, 100.0);
        ri.set_rate(SimTime::from_secs(2), 50.0);
        let total = ri.drain(SimTime::from_secs(4));
        assert!((total - 300.0).abs() < 1e-9);
        // Drained: restarts from zero.
        assert_eq!(ri.total(), 0.0);
        ri.advance(SimTime::from_secs(6));
        assert!((ri.total() - 100.0).abs() < 1e-9);
        assert_eq!(ri.rate(), 50.0);
    }

    /// Take every whole-interval sample up to `until`, reporting what
    /// `src` accrued as a per-second rate (like the network's MB/s).
    fn run_ticks(sampler: &mut IntervalSampler, src: &mut RateIntegrator, until: SimTime) {
        while sampler.next_sample_time() <= until {
            let at = sampler.next_sample_time();
            sampler.maybe_sample(at, |_, at, dt| src.drain(at) / dt);
        }
    }

    /// Sum of `value * window` over the series: the quantity it reports.
    fn integrated(series: &TimeSeries) -> f64 {
        let mut prev = SimTime::ZERO;
        let mut total = 0.0;
        for s in series.samples() {
            total += s.value * s.time.since(prev).as_secs_f64();
            prev = s.time;
        }
        total
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn sampler_rejects_zero_interval() {
        let _ = IntervalSampler::new(1, SimDuration::ZERO);
    }

    #[test]
    fn sampler_averages_over_each_interval() {
        // Two of four cores busy for 2 s, then idle.
        let mut busy = RateIntegrator::new(SimTime::ZERO);
        busy.set_rate(SimTime::ZERO, 2.0);
        let mut mon = IntervalSampler::new(1, SimDuration::from_secs(1));
        for _ in 0..4 {
            let at = mon.next_sample_time();
            mon.maybe_sample(at, |_, at, dt| busy.drain(at) / dt / 4.0 * 100.0);
            if at == SimTime::from_secs(2) {
                busy.set_rate(at, 0.0);
            }
        }
        let values: Vec<f64> = mon.series(0).samples().iter().map(|s| s.value).collect();
        assert_eq!(values, vec![50.0, 50.0, 0.0, 0.0]);
    }

    #[test]
    fn flush_captures_final_partial_interval() {
        // 100 units/s until t = 2.5 s: the last half second lands in a
        // partial window.
        let mut src = RateIntegrator::new(SimTime::ZERO);
        src.set_rate(SimTime::ZERO, 100.0);
        let end = SimTime::from_nanos(2_500_000_000);
        let mut mon = IntervalSampler::new(1, SimDuration::from_secs(1));
        run_ticks(&mut mon, &mut src, end);
        src.set_rate(end, 0.0);
        let before = integrated(mon.series(0));
        assert_eq!(mon.series(0).len(), 2);
        mon.flush(end, |_, at, dt| src.drain(at) / dt);
        let s = mon.series(0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.samples()[2].time, end);
        // The tail window reports the same rate over its half second.
        for sample in s.samples() {
            assert!((sample.value - 100.0).abs() < 1e-9, "{sample:?}");
        }
        // Without the flush the tail was dropped; with it the series
        // integrates back to everything accrued.
        assert!((before - 200.0).abs() < 1e-9, "{before}");
        assert!((integrated(s) - 250.0).abs() < 1e-9);
        // A second flush at the same instant adds nothing.
        mon.flush(end, |_, at, dt| src.drain(at) / dt);
        assert_eq!(mon.series(0).len(), 3);
    }

    #[test]
    fn flush_on_tick_boundary_adds_no_sample() {
        let mut src = RateIntegrator::new(SimTime::ZERO);
        let mut mon = IntervalSampler::new(2, SimDuration::from_secs(1));
        run_ticks(&mut mon, &mut src, SimTime::from_secs(2));
        mon.flush(SimTime::from_secs(2), |_, at, dt| src.drain(at) / dt);
        // Whole intervals at 1 s and 2 s only; no extra tail sample.
        assert_eq!(mon.series(0).len(), 2);
        assert_eq!(mon.series(1).len(), 2);
    }
}
