//! hostbench — host-time benchmark of the simulator.
//!
//! Three workloads run through the entry points users reach
//! (`Sweep::run_grid_with`, `mrbench::run`, `multijob::run`). Every time
//! is divided by a reference kernel timed next to it and reported in
//! reference-host seconds; every pass's simulated outputs are checked
//! against golden values. See README.md in this directory.

pub mod golden;
pub mod host;
pub mod meter;
pub mod refkernel;
pub mod run;
pub mod stats;
pub mod tracer;
pub mod workload;
