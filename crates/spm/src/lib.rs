//! Scratchpad memories, DMA controllers and the SPM address-space mapping of
//! the hybrid memory system.
//!
//! Section 2.1 of the paper extends every core with a 32 KB scratchpad (SPM)
//! and a DMA controller (DMAC).  The pieces modelled here are:
//!
//! * [`SpmAddressMap`] — the reserved virtual/physical address ranges for the
//!   SPMs and the per-core registers used to range-check every memory
//!   instruction and bypass the MMU for SPM accesses (paper Figure 2);
//! * [`Scratchpad`] — the storage itself: fixed 2-cycle latency, divided by
//!   the runtime library into equally-sized buffers before each loop;
//! * [`Dmac`] — the DMA controller with its in-order command queue, issuing
//!   `dma-get` / `dma-put` bus requests that are integrated with the cache
//!   coherence protocol of the global memory (via
//!   [`mem::MemorySystem::dma_get_line`] / [`mem::MemorySystem::dma_put_line`]),
//!   plus `dma-synch` completion tracking.
//!
//! # Example
//!
//! ```
//! use spm::{Dmac, DmacConfig, Scratchpad, SpmAddressMap, SpmConfig};
//! use mem::{AddressRange, Addr, MemorySystem, MemorySystemConfig};
//! use simkernel::{CoreId, Cycle};
//!
//! let map = SpmAddressMap::new(4, SpmConfig::isca2015().size);
//! let mut memsys = MemorySystem::new(MemorySystemConfig::small(4));
//! let mut dmac = Dmac::new(CoreId::new(0), DmacConfig::isca2015());
//!
//! // Stage 1 KiB of global memory into the local SPM.
//! let range = AddressRange::new(Addr::new(0x10_0000), 1024);
//! dmac.dma_get(1, range, Cycle::ZERO, &mut memsys, None);
//! let done = dmac.dma_synch(&[1], Cycle::ZERO);
//! assert!(done > Cycle::ZERO);
//! let _ = (map, Scratchpad::new(SpmConfig::isca2015()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addrmap;
pub mod dmac;
pub mod scratchpad;

pub use addrmap::SpmAddressMap;
pub use dmac::{DmaTag, Dmac, DmacConfig};
pub use scratchpad::{BufferId, Scratchpad, SpmConfig};
