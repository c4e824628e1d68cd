//! Task scheduling: MRv1 slots and YARN containers.
//!
//! The paper evaluates the same micro-benchmarks on Hadoop 1.x (fixed map
//! and reduce slots per TaskTracker, assigned by the JobTracker on
//! heartbeats) and on Hadoop 2.x / YARN (a per-node container pool sized
//! by memory and cores, negotiated by the ApplicationMaster). Both
//! policies live here behind one deterministic scheduler type.

use std::collections::VecDeque;

use cluster::NodeSpec;
use simcore::time::SimDuration;

use crate::conf::{EngineKind, JobConf};

/// A task launch decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Launch {
    /// True to launch a map, false a reduce.
    pub is_map: bool,
    /// Task index within its kind.
    pub index: u32,
    /// Slave node to run on.
    pub node: usize,
}

/// Deterministic slot/container scheduler.
#[derive(Debug)]
pub struct Scheduler {
    kind: EngineKind,
    n_nodes: usize,
    /// MRv1: map slots per node. YARN: unused.
    map_cap: u32,
    /// MRv1: reduce slots per node. YARN: unused.
    reduce_cap: u32,
    /// YARN: total containers per node.
    pool_cap: Vec<u32>,
    map_running: Vec<u32>,
    reduce_running: Vec<u32>,
    pending_maps: VecDeque<u32>,
    pending_reduces: VecDeque<u32>,
    maps_total: u32,
    maps_done: u32,
    slowstart: f64,
    rr: usize,
    /// Crashed nodes: never schedule again, slots gone.
    dead: Vec<bool>,
    /// Blacklisted nodes: healthy but excluded from new assignments.
    blacklisted: Vec<bool>,
}

impl Scheduler {
    /// Build a scheduler for `conf` over `n_nodes` slaves of `spec`.
    pub fn new(conf: &JobConf, n_nodes: usize, spec: &NodeSpec) -> Self {
        let mut pool_cap = vec![yarn_pool(conf, spec); n_nodes];
        if conf.engine == EngineKind::Yarn {
            // The MRAppMaster occupies one container on the first node.
            pool_cap[0] = pool_cap[0].saturating_sub(1).max(1);
        }
        Scheduler {
            kind: conf.engine,
            n_nodes,
            map_cap: conf.map_slots_per_node,
            reduce_cap: conf.reduce_slots_per_node,
            pool_cap,
            map_running: vec![0; n_nodes],
            reduce_running: vec![0; n_nodes],
            pending_maps: (0..conf.num_maps).collect(),
            pending_reduces: (0..conf.num_reduces).collect(),
            maps_total: conf.num_maps,
            maps_done: 0,
            slowstart: conf.reduce_slowstart,
            rr: 0,
            dead: vec![false; n_nodes],
            blacklisted: vec![false; n_nodes],
        }
    }

    /// Heartbeat interval for this engine: MRv1 TaskTrackers beat fast on
    /// small clusters; the YARN AM-RM allocate cycle is a full second.
    pub fn heartbeat(&self) -> SimDuration {
        match self.kind {
            EngineKind::MRv1 => SimDuration::from_millis(300),
            EngineKind::Yarn => SimDuration::from_secs(1),
        }
    }

    /// Record a finished task, freeing its slot/container.
    pub fn on_task_done(&mut self, is_map: bool, node: usize) {
        if self.dead[node] {
            return;
        }
        if is_map {
            self.map_running[node] -= 1;
            self.maps_done += 1;
        } else {
            self.reduce_running[node] -= 1;
        }
    }

    /// Free the slot of an attempt that did not complete (failed or was
    /// killed) without counting a task completion.
    pub fn release_slot(&mut self, is_map: bool, node: usize) {
        if self.dead[node] {
            return;
        }
        if is_map {
            self.map_running[node] -= 1;
        } else {
            self.reduce_running[node] -= 1;
        }
    }

    /// A previously completed map's output was lost (node crash); its
    /// completion no longer counts toward reduce slow-start.
    pub fn map_result_lost(&mut self) {
        self.maps_done -= 1;
    }

    /// Take a node out of service permanently. All of its slots vanish;
    /// the engine kills the attempts that were running there.
    pub fn mark_dead(&mut self, node: usize) {
        self.dead[node] = true;
        self.map_running[node] = 0;
        self.reduce_running[node] = 0;
    }

    /// Has `node` crashed?
    pub fn is_dead(&self, node: usize) -> bool {
        self.dead[node]
    }

    /// Exclude `node` from future assignments after repeated task
    /// failures. Refuses (returning `false`) when it is the last node
    /// still accepting work, so the job cannot deadlock.
    pub fn blacklist(&mut self, node: usize) -> bool {
        if self.dead[node] || self.blacklisted[node] {
            return false;
        }
        if self.schedulable_nodes() <= 1 {
            return false;
        }
        self.blacklisted[node] = true;
        true
    }

    /// Is `node` blacklisted?
    #[cfg(test)]
    pub fn is_blacklisted(&self, node: usize) -> bool {
        self.blacklisted[node]
    }

    /// Nodes that have not crashed.
    pub fn healthy_nodes(&self) -> usize {
        self.dead.iter().filter(|d| !**d).count()
    }

    /// Nodes still accepting new work (alive and not blacklisted).
    pub fn schedulable_nodes(&self) -> usize {
        (0..self.n_nodes)
            .filter(|&n| !self.dead[n] && !self.blacklisted[n])
            .count()
    }

    /// Claim a slot for a speculative backup attempt, preferring any node
    /// other than `avoid` (where the original attempt is running).
    /// Returns the chosen node, or `None` when no capacity exists.
    pub fn reserve_for_backup(&mut self, is_map: bool, avoid: usize) -> Option<usize> {
        let mut fallback = None;
        for off in 0..self.n_nodes {
            let node = (self.rr + off) % self.n_nodes;
            let free = if is_map {
                self.free_for_map(node)
            } else {
                self.free_for_reduce(node)
            };
            if !free {
                continue;
            }
            if node == avoid {
                fallback.get_or_insert(node);
                continue;
            }
            self.rr = (node + 1) % self.n_nodes;
            self.bump_running(is_map, node);
            return Some(node);
        }
        let node = fallback?;
        self.rr = (node + 1) % self.n_nodes;
        self.bump_running(is_map, node);
        Some(node)
    }

    fn bump_running(&mut self, is_map: bool, node: usize) {
        if is_map {
            self.map_running[node] += 1;
        } else {
            self.reduce_running[node] += 1;
        }
    }

    /// Reducers may launch once the completed-maps fraction reaches
    /// slow-start.
    fn reduces_allowed(&self) -> bool {
        let need = (self.slowstart * f64::from(self.maps_total)).ceil() as u32;
        self.maps_done >= need
    }

    fn free_for_map(&self, node: usize) -> bool {
        if self.dead[node] || self.blacklisted[node] {
            return false;
        }
        match self.kind {
            EngineKind::MRv1 => self.map_running[node] < self.map_cap,
            EngineKind::Yarn => {
                self.map_running[node] + self.reduce_running[node] < self.pool_cap[node]
            }
        }
    }

    fn free_for_reduce(&self, node: usize) -> bool {
        if self.dead[node] || self.blacklisted[node] {
            return false;
        }
        match self.kind {
            EngineKind::MRv1 => self.reduce_running[node] < self.reduce_cap,
            EngineKind::Yarn => {
                let used = self.map_running[node] + self.reduce_running[node];
                if used >= self.pool_cap[node] {
                    return false;
                }
                // While maps are still waiting, the AM holds back reducers
                // to at most half the pool so maps cannot starve.
                if !self.pending_maps.is_empty() {
                    self.reduce_running[node] < self.pool_cap[node] / 2
                } else {
                    true
                }
            }
        }
    }

    /// Make all launch decisions possible right now.
    pub fn tick(&mut self) -> Vec<Launch> {
        let mut launches = Vec::new();
        // Maps first, spread round-robin.
        self.assign(true, &mut launches);
        if self.reduces_allowed() {
            self.assign(false, &mut launches);
        }
        launches
    }

    fn assign(&mut self, is_map: bool, launches: &mut Vec<Launch>) {
        loop {
            let pending = if is_map {
                &self.pending_maps
            } else {
                &self.pending_reduces
            };
            if pending.is_empty() {
                return;
            }
            // Find a node with a free slot, starting from the round-robin
            // cursor so tasks spread evenly.
            let mut found = None;
            for off in 0..self.n_nodes {
                let node = (self.rr + off) % self.n_nodes;
                let free = if is_map {
                    self.free_for_map(node)
                } else {
                    self.free_for_reduce(node)
                };
                if free {
                    found = Some(node);
                    break;
                }
            }
            let Some(node) = found else { return };
            self.rr = (node + 1) % self.n_nodes;
            let index = if is_map {
                self.map_running[node] += 1;
                self.pending_maps.pop_front().expect("pending map")
            } else {
                self.reduce_running[node] += 1;
                self.pending_reduces.pop_front().expect("pending reduce")
            };
            launches.push(Launch {
                is_map,
                index,
                node,
            });
        }
    }

    /// Put a task back in the launch queue after a failed attempt (the
    /// JobTracker / AM re-schedules failed tasks on the next heartbeat).
    pub fn requeue(&mut self, is_map: bool, index: u32) {
        if is_map {
            self.pending_maps.push_back(index);
        } else {
            self.pending_reduces.push_back(index);
        }
    }

    /// Remaining unlaunched maps.
    pub fn pending_maps(&self) -> usize {
        self.pending_maps.len()
    }

    /// Remaining unlaunched reduces.
    pub fn pending_reduces(&self) -> usize {
        self.pending_reduces.len()
    }
}

/// YARN containers per node: bounded by cores and by memory.
fn yarn_pool(conf: &JobConf, spec: &NodeSpec) -> u32 {
    let by_mem = spec.memory.as_bytes() / conf.container_memory.as_bytes().max(1);
    (by_mem as u32).min(spec.cores).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::NodeSpec;

    fn conf(maps: u32, reduces: u32, engine: EngineKind) -> JobConf {
        JobConf {
            num_maps: maps,
            num_reduces: reduces,
            engine,
            ..JobConf::default()
        }
    }

    #[test]
    fn mrv1_single_wave_fills_slots() {
        // 16 maps, 4 nodes x 4 slots: all launch in one tick.
        let mut c = conf(16, 8, EngineKind::MRv1);
        c.map_slots_per_node = 4;
        let mut s = Scheduler::new(&c, 4, &NodeSpec::westmere());
        let launches = s.tick();
        let maps: Vec<_> = launches.iter().filter(|l| l.is_map).collect();
        assert_eq!(maps.len(), 16);
        // Even spread: 4 per node.
        for node in 0..4 {
            assert_eq!(maps.iter().filter(|l| l.node == node).count(), 4);
        }
        // Slow-start holds all reducers back (no map finished yet).
        assert!(launches.iter().all(|l| l.is_map));
        assert_eq!(s.pending_reduces(), 8);
    }

    #[test]
    fn mrv1_two_waves_when_slots_short() {
        let mut c = conf(16, 1, EngineKind::MRv1);
        c.map_slots_per_node = 2;
        let mut s = Scheduler::new(&c, 4, &NodeSpec::westmere());
        assert_eq!(s.tick().len(), 8);
        assert_eq!(s.pending_maps(), 8);
        // Nothing new until slots free up.
        assert!(s.tick().is_empty());
        s.on_task_done(true, 0);
        let wave2 = s.tick();
        // One freed map slot refills; the lone reducer also clears
        // slow-start (1 of 16 maps done >= ceil(0.05*16) = 1).
        let maps2: Vec<_> = wave2.iter().filter(|l| l.is_map).collect();
        assert_eq!(maps2.len(), 1);
        assert_eq!(maps2[0].node, 0);
    }

    #[test]
    fn reducers_wait_for_slowstart() {
        let c = conf(20, 4, EngineKind::MRv1);
        let mut s = Scheduler::new(&c, 4, &NodeSpec::westmere());
        let first = s.tick();
        assert_eq!(first.iter().filter(|l| !l.is_map).count(), 0);
        // ceil(0.05 * 20) = 1 map must complete.
        s.on_task_done(true, 0);
        let second = s.tick();
        let reduces = second.iter().filter(|l| !l.is_map).count();
        assert_eq!(reduces, 4);
    }

    #[test]
    fn yarn_pool_respects_memory_and_cores() {
        let c = conf(1, 1, EngineKind::Yarn);
        // Westmere: 24 GiB / 1 GiB containers = 24, capped by 8 cores.
        assert_eq!(yarn_pool(&c, &NodeSpec::westmere()), 8);
        let mut c2 = c.clone();
        c2.container_memory = simcore::units::ByteSize::from_gib(16);
        // 24/16 = 1 container by memory.
        assert_eq!(yarn_pool(&c2, &NodeSpec::westmere()), 1);
    }

    #[test]
    fn yarn_reducers_leave_headroom_for_maps() {
        let c = conf(64, 16, EngineKind::Yarn);
        let mut s = Scheduler::new(&c, 8, &NodeSpec::westmere());
        let w1 = s.tick();
        // Pool is 8 per node (7 on node 0 for the AM) -> 63 maps launch.
        assert_eq!(w1.iter().filter(|l| l.is_map).count(), 63);
        s.on_task_done(true, 1);
        s.on_task_done(true, 1);
        s.on_task_done(true, 1);
        s.on_task_done(true, 1);
        let w2 = s.tick();
        // 4 slots freed: with 60 maps done? No: 4 done of 64, slowstart
        // ceil(0.05*64)=4 -> reducers now allowed, but maps still pending
        // get priority and refill all four slots.
        assert_eq!(w2.iter().filter(|l| l.is_map).count(), 1);
        assert!(w2.iter().filter(|l| !l.is_map).count() <= 4);
    }

    #[test]
    fn dead_nodes_never_receive_work() {
        let c = conf(8, 2, EngineKind::MRv1);
        let mut s = Scheduler::new(&c, 2, &NodeSpec::westmere());
        s.mark_dead(0);
        assert_eq!(s.healthy_nodes(), 1);
        let launches = s.tick();
        assert!(!launches.is_empty());
        assert!(launches.iter().all(|l| l.node == 1));
    }

    #[test]
    fn blacklist_spares_the_last_schedulable_node() {
        let c = conf(4, 1, EngineKind::MRv1);
        let mut s = Scheduler::new(&c, 3, &NodeSpec::westmere());
        assert!(s.blacklist(0));
        assert!(s.blacklist(1));
        // Node 2 is the last one accepting work.
        assert!(!s.blacklist(2));
        assert!(!s.is_blacklisted(2));
        assert!(s.tick().iter().all(|l| l.node == 2));
    }

    #[test]
    fn backup_reservation_avoids_the_original_node() {
        let mut c = conf(2, 1, EngineKind::MRv1);
        c.map_slots_per_node = 2;
        let mut s = Scheduler::new(&c, 2, &NodeSpec::westmere());
        let launches = s.tick();
        assert_eq!(launches.len(), 2);
        let node = s.reserve_for_backup(true, 0).expect("capacity exists");
        assert_eq!(node, 1);
        // Node 1 is now full; only the avoided node has room left.
        let fallback = s.reserve_for_backup(true, 0).expect("falls back");
        assert_eq!(fallback, 0);
        assert!(s.reserve_for_backup(true, 0).is_none());
    }

    #[test]
    fn all_tasks_eventually_launch() {
        let c = conf(40, 10, EngineKind::MRv1);
        let mut s = Scheduler::new(&c, 4, &NodeSpec::westmere());
        let mut done_maps = 0;
        let mut done_reduces = 0;
        let mut guard = 0;
        while done_maps < 40 || done_reduces < 10 {
            for l in s.tick() {
                // Complete tasks instantly for this test.
                s.on_task_done(l.is_map, l.node);
                if l.is_map {
                    done_maps += 1;
                } else {
                    done_reduces += 1;
                }
            }
            guard += 1;
            assert!(guard < 100, "scheduler stalled");
        }
    }
}
