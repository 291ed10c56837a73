//! Main-memory (DRAM) timing model.
//!
//! Off-chip memory is reached through memory controllers placed at the
//! corners of the mesh.  The model is deliberately simple: a fixed access
//! latency plus a bandwidth-driven queueing term per controller.  The paper's
//! benchmarks are mostly on-chip once the SPMs or caches are warm, so a
//! first-order DRAM model is sufficient to preserve the reported trends.

use serde::{Deserialize, Serialize};
use simkernel::{Cycle, NodeId};

use crate::addr::LineAddr;

/// Configuration of the DRAM / memory-controller model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Fixed access latency (row activation + column access + transfer).
    pub access_latency: Cycle,
    /// Number of memory controllers (placed at mesh corners).
    pub controllers: usize,
    /// Lines each controller can serve per 1000 cycles before queueing grows.
    pub lines_per_kcycle: u64,
    /// Additional queueing latency applied per outstanding line above the
    /// bandwidth limit.
    pub queue_penalty: Cycle,
}

impl DramConfig {
    /// A 200-cycle (100 ns at 2 GHz) main memory with four controllers.
    pub fn isca2015() -> Self {
        DramConfig {
            access_latency: Cycle::new(200),
            controllers: 4,
            lines_per_kcycle: 250,
            queue_penalty: Cycle::new(8),
        }
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::isca2015()
    }
}

/// The DRAM model: maps lines to controllers and returns access latencies.
///
/// # Example
///
/// ```
/// use mem::{DramConfig, DramModel, LineAddr};
///
/// let mut dram = DramModel::new(DramConfig::isca2015(), 64);
/// let lat = dram.access(LineAddr::new(42));
/// assert!(lat.as_u64() >= 200);
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    controller_nodes: Vec<NodeId>,
    accesses_per_controller: Vec<u64>,
    reads: u64,
    writes: u64,
}

impl DramModel {
    /// Creates the model for a mesh with `mesh_nodes` tiles.
    ///
    /// Controllers are attached to the first `controllers` corner-ish nodes
    /// (node 0, the last node, and the ends of the first row/column for the
    /// default four controllers).
    ///
    /// # Panics
    ///
    /// Panics if `controllers` is zero.
    pub fn new(config: DramConfig, mesh_nodes: usize) -> Self {
        assert!(
            config.controllers > 0,
            "need at least one memory controller"
        );
        let n = mesh_nodes.max(1);
        let side = (n as f64).sqrt().round().max(1.0) as usize;
        let candidates = [
            0,
            side.saturating_sub(1),
            n.saturating_sub(side),
            n.saturating_sub(1),
            n / 2,
            side / 2,
        ];
        let mut controller_nodes: Vec<NodeId> = Vec::new();
        for &c in candidates.iter() {
            let node = NodeId::new(c.min(n - 1));
            if !controller_nodes.contains(&node) {
                controller_nodes.push(node);
            }
            if controller_nodes.len() == config.controllers {
                break;
            }
        }
        while controller_nodes.len() < config.controllers {
            let node = NodeId::new(controller_nodes.len() % n);
            controller_nodes.push(node);
        }
        DramModel {
            accesses_per_controller: vec![0; config.controllers],
            controller_nodes,
            config,
            reads: 0,
            writes: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The controller (by index) that owns a line, via address interleaving.
    pub fn controller_for(&self, line: LineAddr) -> usize {
        (line.number() % self.config.controllers as u64) as usize
    }

    /// The mesh node a controller is attached to.
    pub fn controller_node(&self, controller: usize) -> NodeId {
        self.controller_nodes[controller % self.controller_nodes.len()]
    }

    /// The mesh node serving a given line.
    pub fn node_for(&self, line: LineAddr) -> NodeId {
        self.controller_node(self.controller_for(line))
    }

    /// Performs a read access and returns its latency.
    pub fn access(&mut self, line: LineAddr) -> Cycle {
        self.reads += 1;
        self.access_inner(line)
    }

    /// Performs a write access (write-back or DMA put) and returns its latency.
    pub fn write(&mut self, line: LineAddr) -> Cycle {
        self.writes += 1;
        self.access_inner(line)
    }

    fn access_inner(&mut self, line: LineAddr) -> Cycle {
        let ctrl = self.controller_for(line);
        self.accesses_per_controller[ctrl] += 1;
        // Simple load-proportional queueing term: every `lines_per_kcycle`
        // accesses on the same controller add one `queue_penalty`.
        let backlog = self.accesses_per_controller[ctrl] / self.config.lines_per_kcycle.max(1);
        let queue = Cycle::new((backlog % 8) * self.config.queue_penalty.as_u64());
        self.config.access_latency + queue
    }

    /// Total number of read accesses.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total number of write accesses.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_at_least_base() {
        let mut d = DramModel::new(DramConfig::isca2015(), 64);
        assert!(d.access(LineAddr::new(0)) >= Cycle::new(200));
        assert!(d.write(LineAddr::new(1)) >= Cycle::new(200));
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 1);
    }

    #[test]
    fn lines_interleave_across_controllers() {
        let d = DramModel::new(DramConfig::isca2015(), 64);
        let mut seen = [false; 4];
        for i in 0..16 {
            seen[d.controller_for(LineAddr::new(i))] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn controller_nodes_are_distinct_on_a_big_mesh() {
        let d = DramModel::new(DramConfig::isca2015(), 64);
        let nodes: Vec<_> = (0..4).map(|c| d.controller_node(c)).collect();
        let mut dedup = nodes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), nodes.len());
        // node_for agrees with controller_for
        let line = LineAddr::new(5);
        assert_eq!(d.node_for(line), d.controller_node(d.controller_for(line)));
    }

    #[test]
    fn tiny_mesh_still_works() {
        let d = DramModel::new(DramConfig::isca2015(), 1);
        assert_eq!(d.controller_node(0), NodeId::new(0));
        assert_eq!(d.node_for(LineAddr::new(3)), NodeId::new(0));
    }

    #[test]
    fn queueing_grows_with_load() {
        let mut d = DramModel::new(
            DramConfig {
                lines_per_kcycle: 10,
                ..DramConfig::isca2015()
            },
            64,
        );
        let first = d.access(LineAddr::new(0));
        let mut last = first;
        for _ in 0..30 {
            last = d.access(LineAddr::new(0));
        }
        assert!(last >= first);
    }

    #[test]
    #[should_panic]
    fn zero_controllers_panics() {
        let _ = DramModel::new(
            DramConfig {
                controllers: 0,
                ..DramConfig::isca2015()
            },
            64,
        );
    }
}
