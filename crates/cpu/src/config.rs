//! Core timing-model configuration (Table 1).

use serde::{Deserialize, Serialize};
use simkernel::Cycle;

/// Parameters of the out-of-order core timing model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Instructions issued (and retired) per cycle.
    pub issue_width: u64,
    /// Front-end pipeline depth, paid on branch mispredictions and flushes.
    pub pipeline_depth: u64,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Load-queue entries.
    pub lq_entries: usize,
    /// Store-queue entries.
    pub sq_entries: usize,
    /// Fraction of instructions that are branches.
    pub branch_fraction: f64,
    /// Fraction of branches that are mispredicted.
    pub branch_misprediction_rate: f64,
    /// Memory latency (in cycles) the out-of-order window can hide per access.
    pub hide_window: Cycle,
    /// Maximum number of overlapping long-latency misses (memory-level
    /// parallelism; the one bound that stands for the LQ and the L1 MSHRs,
    /// which the memory hierarchy does not model).
    pub mlp_width: usize,
    /// Average instruction size in bytes (for instruction-fetch generation).
    pub instruction_bytes: u64,
    /// Fraction of an instruction-cache miss latency that stalls the front
    /// end (the rest is hidden by the fetch/decode queues).
    pub ifetch_stall_fraction: f64,
}

impl CoreConfig {
    /// The paper's core: 6-wide out-of-order, 13-cycle pipeline, 160-entry
    /// ROB, 48/32-entry LQ/SQ.
    pub fn isca2015() -> Self {
        CoreConfig {
            issue_width: 6,
            pipeline_depth: 13,
            rob_entries: 160,
            lq_entries: 48,
            sq_entries: 32,
            branch_fraction: 0.12,
            branch_misprediction_rate: 0.03,
            hide_window: Cycle::new(28),
            mlp_width: 7,
            instruction_bytes: 4,
            ifetch_stall_fraction: 0.5,
        }
    }

    /// Cycles needed to execute `insts` non-memory instructions, including
    /// the expected branch misprediction penalty.
    pub fn compute_cycles(&self, insts: u64) -> Cycle {
        let issue = insts.div_ceil(self.issue_width.max(1));
        let mispredictions = insts as f64 * self.branch_fraction * self.branch_misprediction_rate;
        let penalty = (mispredictions * self.pipeline_depth as f64).round() as u64;
        Cycle::new(issue + penalty)
    }

    /// Cycles lost when the pipeline is flushed (ordering violation, §3.4).
    pub fn flush_penalty(&self) -> Cycle {
        Cycle::new(self.pipeline_depth + self.rob_entries as u64 / self.issue_width.max(1))
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::isca2015()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let c = CoreConfig::isca2015();
        assert_eq!(c.issue_width, 6);
        assert_eq!(c.pipeline_depth, 13);
        assert_eq!(c.rob_entries, 160);
        assert_eq!(c.lq_entries, 48);
        assert_eq!(c.sq_entries, 32);
    }

    #[test]
    fn compute_cycles_scale_with_width() {
        let c = CoreConfig::isca2015();
        assert_eq!(c.compute_cycles(6), Cycle::new(1));
        assert!(c.compute_cycles(600) >= Cycle::new(100));
        // Misprediction penalty makes large blocks slower than ideal.
        assert!(c.compute_cycles(6000) > Cycle::new(1000));
        assert_eq!(c.compute_cycles(0), Cycle::ZERO);
    }

    #[test]
    fn flush_penalty_reflects_pipeline_and_rob() {
        let c = CoreConfig::isca2015();
        assert_eq!(c.flush_penalty(), Cycle::new(13 + 160 / 6));
    }
}
