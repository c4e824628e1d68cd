//! Cluster assembly: a set of identical nodes plus their simulators.

use crate::cpu::CpuSim;
use crate::disk::DiskSim;
use crate::node::NodeSpec;

/// Which of the paper's two testbeds a cluster models.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClusterPreset {
    /// Cluster A: the 9-node Intel Westmere cluster (Sect. 5.1(1)).
    ClusterA,
    /// Cluster B: TACC Stampede (Sect. 5.1(2)).
    ClusterB,
}

impl ClusterPreset {
    /// The node hardware for this preset.
    pub fn node_spec(self) -> NodeSpec {
        match self {
            ClusterPreset::ClusterA => NodeSpec::westmere(),
            ClusterPreset::ClusterB => NodeSpec::stampede(),
        }
    }
}

/// A homogeneous cluster of slave nodes with CPU and disk simulators.
///
/// Node indices are *slave* indices: the master (JobTracker /
/// ResourceManager) is modelled as control-plane latency, not a simulated
/// machine, because the paper's benchmarks never bottleneck on it.
#[derive(Debug)]
pub struct Cluster {
    spec: NodeSpec,
    n_slaves: usize,
    /// Processor-sharing CPU model for every slave.
    pub cpu: CpuSim,
    /// FIFO disk queues for every slave.
    pub disk: DiskSim,
}

impl Cluster {
    /// Build `n_slaves` nodes of the given spec.
    pub fn new(spec: NodeSpec, n_slaves: usize) -> Self {
        assert!(n_slaves > 0, "cluster needs at least one slave");
        let cpu = CpuSim::homogeneous(n_slaves, spec.cores, spec.speed);
        let mut disk = DiskSim::new(vec![spec.disks.clone(); n_slaves]);
        disk.enable_page_cache(spec.memory);
        Cluster {
            spec,
            n_slaves,
            cpu,
            disk,
        }
    }

    /// Build from a paper preset.
    pub fn preset(preset: ClusterPreset, n_slaves: usize) -> Self {
        Cluster::new(preset.node_spec(), n_slaves)
    }

    /// Number of slave nodes.
    pub fn n_slaves(&self) -> usize {
        self.n_slaves
    }

    /// The node hardware description.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_cluster_a() {
        let c = Cluster::preset(ClusterPreset::ClusterA, 4);
        assert_eq!(c.n_slaves(), 4);
        assert_eq!(c.cpu.n_nodes(), 4);
        assert_eq!(c.disk.n_nodes(), 4);
        assert_eq!(c.spec().cores, 8);
    }

    #[test]
    fn preset_cluster_b() {
        let c = Cluster::preset(ClusterPreset::ClusterB, 16);
        assert_eq!(c.n_slaves(), 16);
        assert_eq!(c.spec().cores, 16);
    }

    #[test]
    #[should_panic(expected = "at least one slave")]
    fn empty_cluster_rejected() {
        let _ = Cluster::preset(ClusterPreset::ClusterA, 0);
    }
}
