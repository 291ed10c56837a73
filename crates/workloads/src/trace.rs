//! The trace representation consumed by the core timing model.

use serde::{Deserialize, Serialize};

use mem::{Addr, AddressRange};

/// The three execution phases of a transformed loop (paper Figure 3/9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Phase {
    /// Mapping chunks of array sections to the SPM buffers (`MAP` calls,
    /// issuing `dma-get`/`dma-put`).
    Control,
    /// Waiting for the DMA transfers to finish (`dma-synch`).
    Sync,
    /// The computation over the currently mapped chunks (the original loop
    /// body).  The cache-based baseline spends all its time here.
    #[default]
    Work,
}

impl Phase {
    /// All phases in reporting order.
    pub const ALL: [Phase; 3] = [Phase::Control, Phase::Sync, Phase::Work];

    /// Label used in reports (matches the paper's Figure 9 legend).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Control => "Control",
            Phase::Sync => "Sync",
            Phase::Work => "Work",
        }
    }

    /// Stable index in [`Phase::ALL`].
    pub fn index(self) -> usize {
        match self {
            Phase::Control => 0,
            Phase::Sync => 1,
            Phase::Work => 2,
        }
    }
}

/// How the compiler classified a memory reference (§2.4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemRefClass {
    /// A strided access to a private array section staged in an SPM buffer.
    /// Emitted as a normal instruction whose base register points into the
    /// SPM; served by the local scratchpad with no TLB or tag lookup.
    SpmStrided {
        /// The SPM buffer holding the chunk being traversed.
        buffer: usize,
    },
    /// A random access the compiler proved not to alias with any SPM-mapped
    /// data; served by the cache hierarchy.
    Gm,
    /// A strided array access left in the cache hierarchy (cache-based
    /// baseline code generation); prefetch-friendly and independent.
    GmStrided,
    /// A potentially incoherent access: the compiler could not rule out
    /// aliasing, so a guarded instruction is emitted and the hardware decides
    /// at run time where to serve it.
    Guarded,
    /// A stack access (register spills, temporaries); always cached, very high
    /// locality.
    Stack,
}

impl MemRefClass {
    /// Returns `true` for accesses that are diverted through the coherence
    /// protocol in the hybrid system.
    pub fn is_guarded(self) -> bool {
        matches!(self, MemRefClass::Guarded)
    }

    /// Returns `true` for accesses served by an SPM in the hybrid system.
    pub fn is_spm(self) -> bool {
        matches!(self, MemRefClass::SpmStrided { .. })
    }
}

/// One operation of a core's execution trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceOp {
    /// Execute `insts` non-memory instructions.
    Compute {
        /// Number of instructions.
        insts: u64,
    },
    /// A data load.
    Load {
        /// The (global-memory) virtual address accessed.
        addr: Addr,
        /// The compiler's classification of the reference.
        class: MemRefClass,
        /// Identifies the static memory instruction (for the stride prefetcher).
        reference_id: u64,
    },
    /// A data store.
    Store {
        /// The (global-memory) virtual address accessed.
        addr: Addr,
        /// The compiler's classification of the reference.
        class: MemRefClass,
        /// Identifies the static memory instruction (for the stride prefetcher).
        reference_id: u64,
    },
    /// Runtime-library call dividing the SPM into equally-sized buffers.
    AllocateBuffers {
        /// Number of buffers (one per SPM-mapped reference).
        count: usize,
    },
    /// `dma-get`: map a chunk of global memory into an SPM buffer.
    DmaGet {
        /// Transfer tag used by the following `dma-synch`.
        tag: u32,
        /// Destination SPM buffer.
        buffer: usize,
        /// The chunk of global memory being staged.
        chunk: AddressRange,
    },
    /// `dma-put`: write an SPM buffer's chunk back to global memory.
    DmaPut {
        /// Transfer tag used by the following `dma-synch`.
        tag: u32,
        /// Source SPM buffer.
        buffer: usize,
        /// The chunk of global memory being written back.
        chunk: AddressRange,
    },
    /// `dma-synch`: wait for the listed transfer tags to complete.
    DmaSync {
        /// Tags to wait for.
        tags: Vec<u32>,
    },
    /// Switch the phase accounting (control / sync / work).
    SetPhase(Phase),
    /// End of the transformed loop: SPM mappings are dropped.
    LoopEnd,
}

impl TraceOp {
    /// Number of dynamic instructions this operation represents in the
    /// instruction count (memory operations count as one instruction;
    /// runtime-library calls carry their cost as explicit `Compute` ops).
    pub fn instruction_count(&self) -> u64 {
        match self {
            TraceOp::Compute { insts } => *insts,
            TraceOp::Load { .. } | TraceOp::Store { .. } => 1,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_and_indices() {
        assert_eq!(Phase::ALL.len(), 3);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Phase::Control.label(), "Control");
        assert_eq!(Phase::default(), Phase::Work);
    }

    #[test]
    fn class_predicates() {
        assert!(MemRefClass::Guarded.is_guarded());
        assert!(!MemRefClass::Gm.is_guarded());
        assert!(MemRefClass::SpmStrided { buffer: 0 }.is_spm());
        assert!(!MemRefClass::Stack.is_spm());
    }

    #[test]
    fn instruction_counting() {
        assert_eq!(TraceOp::Compute { insts: 10 }.instruction_count(), 10);
        let load = TraceOp::Load {
            addr: Addr::new(0x10),
            class: MemRefClass::Gm,
            reference_id: 1,
        };
        assert_eq!(load.instruction_count(), 1);
        assert_eq!(TraceOp::SetPhase(Phase::Work).instruction_count(), 0);
    }
}
