//! Scratchpad memories and DMA controllers of the hybrid memory system.
//!
//! Section 2.1 of the paper extends every core with a 32 KB scratchpad (SPM)
//! and a DMA controller (DMAC).  The pieces modelled here are:
//!
//! * [`Scratchpad`] — the storage itself: fixed 2-cycle latency, divided by
//!   the runtime library into equally-sized buffers before each loop;
//! * [`Dmac`] — the DMA controller with its in-order command queue, issuing
//!   `dma-get` / `dma-put` bus requests that are integrated with the cache
//!   coherence protocol of the global memory (via
//!   [`mem::MemorySystem::dma_get_line`] / [`mem::MemorySystem::dma_put_line`]),
//!   plus `dma-synch` completion tracking.
//!
//! The reserved SPM address window of the paper's Figure 2 is not modelled:
//! SPM data is keyed by its global-memory address, and a diverted access is
//! described by its latency and target alone, so no result reads an SPM
//! virtual address.
//!
//! # Example
//!
//! ```
//! use spm::{Dmac, DmacConfig, Scratchpad, SpmConfig};
//! use mem::{AddressRange, Addr, MemorySystem, MemorySystemConfig};
//! use simkernel::{CoreId, Cycle};
//!
//! let mut memsys = MemorySystem::new(MemorySystemConfig::small(4));
//! let mut dmac = Dmac::new(CoreId::new(0), DmacConfig::isca2015());
//!
//! // Stage 1 KiB of global memory into the local SPM.
//! let range = AddressRange::new(Addr::new(0x10_0000), 1024);
//! dmac.dma_get(1, range, Cycle::ZERO, &mut memsys, None);
//! let done = dmac.dma_synch(&[1], Cycle::ZERO);
//! assert!(done > Cycle::ZERO);
//!
//! // The owning core reads the staged data at the SPM's fixed latency.
//! let mut spm = Scratchpad::new(SpmConfig::isca2015());
//! assert_eq!(spm.read_local(), Cycle::new(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dmac;
pub mod scratchpad;

pub use dmac::{DmaTag, Dmac, DmacConfig};
pub use scratchpad::{BufferId, Scratchpad, SpmConfig};
