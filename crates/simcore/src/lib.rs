//! # simcore — discrete-event simulation kernel
//!
//! The foundation of the `hadoop-mr-microbench` simulator stack:
//!
//! * [`time`] — nanosecond-resolution simulated clock types.
//! * [`event`] — a deterministic event queue with FIFO tie-breaking.
//! * [`rng`] — reproducible random streams, including a bit-exact port of
//!   `java.util.Random` (the paper's MR-RAND partitioner depends on its
//!   semantics).
//! * [`units`] — byte sizes and data rates with Hadoop's unit conventions.
//! * [`stats`] — time series, rate integration and fixed-interval
//!   sampling for resource-utilization reporting.
//! * [`json`] — a dependency-free JSON value model backing the
//!   machine-readable benchmark artifacts.
//! * [`order`] — total ordering for floats (`f64::total_cmp` wrappers),
//!   the vetted alternative to `partial_cmp` sort keys.
//! * [`trace`] — a phase-span recorder for timeline observability:
//!   Chrome trace-event export and per-phase time breakdowns.
//!
//! Everything in this crate is deterministic: no wall-clock, no OS entropy,
//! no thread scheduling effects. A simulation driven from these primitives
//! is a pure function of its configuration and master seed.

pub mod event;
pub mod json;
pub mod order;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod units;

pub use event::EventQueue;
pub use json::Json;
pub use order::{total_sort, TotalF64};
pub use rng::{JavaRandom, SeedFactory, SplitMix64, Xoshiro256pp};
pub use stats::{IntervalSampler, RateIntegrator, Sample, TimeSeries};
pub use time::{SimDuration, SimTime};
pub use trace::{Mark, PhaseAgg, PhaseBreakdown, Span, Trace};
pub use units::{ByteSize, Rate, GIB, KIB, MIB};
