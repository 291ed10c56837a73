//! Cache hierarchy and global-memory model.
//!
//! The paper's baseline memory system (Table 1) is a 64-core tiled design:
//! per-core 32 KB L1 instruction and data caches (the data cache has a stride
//! prefetcher), a shared NUCA L2 of 256 KB per tile, a MOESI directory
//! protocol, and main memory reached through memory controllers at the mesh
//! corners.  This crate implements that hierarchy as a functional-plus-timing
//! model:
//!
//! * cache tag arrays are maintained exactly (set-associative arrays with
//!   tree-pseudoLRU replacement, one [`CacheBank`] per cache level holding
//!   every core's or tile's array), so hit/miss/conflict behaviour —
//!   including the prefetcher-induced conflict misses the paper observes —
//!   is real;
//! * every access returns its latency and injects the NoC packets the
//!   corresponding directory-protocol transaction would send, so network
//!   traffic and energy can be accounted per message class;
//! * DMA transfers issued by the scratchpad DMACs are integrated with the
//!   cache coherence protocol exactly as described in §2.1 of the paper: a
//!   `dma-get` snoops the caches and reads the freshest copy, a `dma-put`
//!   writes memory and invalidates the whole hierarchy.
//!
//! The entry point is [`MemorySystem`]; everything else is a building block
//! that is also exercised directly by unit and property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod cache;
pub mod directory;
pub mod dram;
pub mod hierarchy;
pub mod moesi;
pub mod plru;
pub mod prefetcher;
pub mod values;

pub use addr::{Addr, AddressRange, LineAddr, LINE_BYTES};
pub use cache::{CacheBank, CacheConfig, EvictedLine};
pub use directory::{MappingDirectory, MappingEntry};
pub use dram::{DramConfig, DramModel};
pub use hierarchy::{AccessKind, MemAccessResult, MemorySystem, MemorySystemConfig, ServedBy};
pub use moesi::{DirectoryEntry, MoesiState};
pub use prefetcher::{PrefetcherConfig, StridePrefetcher};
pub use values::{word_addr, word_index, LineValues, ValueStore, WORDS_PER_LINE};
