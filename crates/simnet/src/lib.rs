//! # simnet — flow-level network simulator for single-switch clusters
//!
//! Models the five interconnect/protocol combinations the paper evaluates
//! (1 GigE, 10 GigE, IPoIB QDR, IPoIB FDR, RDMA FDR) as flow-level
//! bandwidth sharing with protocol-specific NIC ceilings, latencies, and
//! host-CPU costs.
//!
//! * [`protocol`] — per-interconnect models, calibrated against the
//!   paper's own Fig. 7(b) throughput observations.
//! * [`topology`] — cluster fabric: single-switch crossbar or rack-aware
//!   with oversubscribed top-of-rack uplinks.
//! * [`fairshare`] — max-min fair allocation (progressive filling).
//! * [`network`] — the event-driven flow engine, with per-node receive
//!   accounting for throughput sampling (Fig. 7(b)).

pub mod fairshare;
pub mod network;
pub mod protocol;
pub mod topology;

pub use fairshare::{FairshareSolver, FlowKey, FlowSpec, RackCaps};
pub use network::Network;
pub use protocol::{Interconnect, ProtocolModel};
pub use topology::{NodeId, Topology};
