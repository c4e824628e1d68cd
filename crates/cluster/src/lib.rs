//! # cluster — machine models for the paper's two testbeds
//!
//! Simulates the compute side of a Hadoop slave node: a processor-sharing
//! CPU ([`cpu::CpuSim`]) and FIFO local disks ([`disk::DiskSim`]).
//! [`cluster::Cluster`] bundles them, with presets for the paper's
//! Cluster A (Intel Westmere) and Cluster B (TACC Stampede).

pub mod cluster;
pub mod cpu;
pub mod disk;
pub mod node;

pub use cluster::{Cluster, ClusterPreset};
pub use cpu::CpuSim;
pub use disk::{DiskSim, IoKind};
pub use node::{DiskSpec, NodeSpec};
