//! The result of executing a guarded (potentially incoherent) access, and
//! the global-memory access every backend falls back to.

use serde::{Deserialize, Serialize};
use simkernel::{CoreId, Cycle};

use mem::{AccessKind, Addr, MemorySystem, ServedBy};
use noc::MessageClass;

/// Reference id passed to the hierarchy's prefetcher for guarded accesses.
///
/// Guarded accesses are random by construction, so they never train a stride;
/// a fixed id keeps them from polluting the per-reference stride table.
const GUARDED_REFERENCE_ID: u64 = u64::MAX;

/// Serves a guarded access from the cache hierarchy (the access was not
/// diverted, or is the write-through of a store diverted to the local SPM).
/// Returns its latency and the level that provided the data.
pub(crate) fn gm_access(
    memsys: &mut MemorySystem,
    core: CoreId,
    addr: Addr,
    is_write: bool,
) -> (Cycle, ServedBy) {
    let (kind, class) = if is_write {
        (AccessKind::Store, MessageClass::Write)
    } else {
        (AccessKind::Load, MessageClass::Read)
    };
    let result = memsys.access(core, addr, kind, class, GUARDED_REFERENCE_ID);
    (result.latency, result.served_by)
}

/// Where a guarded access was ultimately served (Figure 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GuardedTarget {
    /// The data was not mapped to any SPM: the access was served by the
    /// normal cache hierarchy (cases *a* and *c*).
    GlobalMemory {
        /// Which level of the hierarchy provided the data.
        served_by: ServedBy,
    },
    /// The data was mapped to the local SPM (case *b*).
    LocalSpm {
        /// The SPM buffer holding the chunk.
        buffer: usize,
    },
    /// The data was mapped to a remote core's SPM (case *d*).
    RemoteSpm {
        /// The core whose SPM holds the chunk.
        owner: CoreId,
    },
}

/// Outcome of one guarded memory access.
///
/// A diverted access is modelled by its latency and its target alone: the
/// SPM virtual address of Figure 2 is not modelled, because no result reads
/// it.  The §3.4 ordering re-check uses the access's GM address, which is
/// also the address the LSQ recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardedOutcome {
    /// Latency of the access on the issuing core's critical path.
    pub latency: Cycle,
    /// Where the access was served.
    pub target: GuardedTarget,
    /// `true` when a store diverted to the local SPM also updated the
    /// global-memory copy through the cache hierarchy (the proposed
    /// protocol does, so a buffer that is never written back still leaves
    /// memory fresh; the ideal oracle does not).  The verification layer
    /// mirrors the data movement accordingly.
    pub gm_write_through: bool,
}

impl GuardedOutcome {
    /// Returns `true` if the access was diverted to an SPM (local or remote).
    pub fn diverted_to_spm(&self) -> bool {
        matches!(
            self.target,
            GuardedTarget::LocalSpm { .. } | GuardedTarget::RemoteSpm { .. }
        )
    }

    /// Returns `true` if the access was served by the cache hierarchy.
    pub fn served_by_global_memory(&self) -> bool {
        matches!(self.target, GuardedTarget::GlobalMemory { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_follow_target() {
        let gm = GuardedOutcome {
            latency: Cycle::new(2),
            target: GuardedTarget::GlobalMemory {
                served_by: ServedBy::L1,
            },
            gm_write_through: false,
        };
        assert!(gm.served_by_global_memory());
        assert!(!gm.diverted_to_spm());

        let local = GuardedOutcome {
            latency: Cycle::new(2),
            target: GuardedTarget::LocalSpm { buffer: 1 },
            gm_write_through: false,
        };
        assert!(local.diverted_to_spm());
        assert!(!local.served_by_global_memory());

        let remote = GuardedOutcome {
            latency: Cycle::new(40),
            target: GuardedTarget::RemoteSpm {
                owner: CoreId::new(9),
            },
            gm_write_through: false,
        };
        assert!(remote.diverted_to_spm());
    }
}
