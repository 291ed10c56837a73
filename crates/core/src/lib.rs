//! The ISCA 2015 coherence protocol for transparent management of scratchpad
//! memories — the paper's primary contribution.
//!
//! The hybrid memory system keeps two storages that hardware does not keep
//! coherent: the per-core scratchpads (SPMs) and the cache hierarchy over
//! global memory (GM).  The compiler stages strided, private array sections
//! through the SPMs but cannot always prove that a random access does not
//! alias with data currently mapped to some SPM.  For those *potentially
//! incoherent* accesses it emits **guarded** memory instructions; the
//! hardware described in this crate diverts each guarded access to whichever
//! memory holds the valid copy of the data:
//!
//! * [`SpmDir`] — a per-core CAM with one entry per SPM buffer, tracking the
//!   GM base address of every chunk currently mapped to that core's SPM;
//! * [`Filter`] — a small per-core CAM of GM base addresses recently checked
//!   and known **not** to be mapped to any SPM, so the common case adds no
//!   latency to guarded accesses;
//! * [`FilterDir`] — an extension of the cache directory tracking which cores
//!   cache which addresses in their filters, used both to refill filters
//!   (with a broadcast SPMDir probe when the address is unknown) and to
//!   invalidate them when a DMA transfer maps new data to an SPM;
//! * [`SpmCoherenceProtocol`] — the protocol engine tying the structures
//!   together: the guarded-access walk of Figure 5 (cases a–d), the filter
//!   invalidation/update flows of Figure 6, and the address-mask registers
//!   derived from the runtime's buffer size;
//! * [`IdealCoherence`] — the zero-cost oracle used by the paper's §5.3
//!   overhead study as the comparison point;
//! * [`DirectoryCoherence`] — the plain MOESI-directory baseline (no SPM
//!   filters, every guarded access asks the L2-home mapping directory),
//!   which turns the paper's "cheaper than a conventional directory" claim
//!   into a measurable ablation;
//! * [`AddressMasks`] — the Base/Offset mask configuration registers.
//!
//! Every protocol engine implements [`CoherenceBackend`], so the core timing
//! model and the system driver are generic over them.
//!
//! # Example
//!
//! ```
//! use spm_coherence::{CoherenceBackend, ProtocolConfig, SpmCoherenceProtocol};
//! use mem::{Addr, AddressRange, MemorySystem, MemorySystemConfig};
//! use spm::{Scratchpad, SpmConfig};
//! use simkernel::{ByteSize, CoreId};
//!
//! let mut memsys = MemorySystem::new(MemorySystemConfig::small(4));
//! let mut spms: Vec<Scratchpad> = (0..4).map(|_| Scratchpad::new(SpmConfig::small())).collect();
//! let mut protocol = SpmCoherenceProtocol::new(ProtocolConfig::isca2015(4));
//! protocol.configure_buffer_size(ByteSize::kib(4));
//!
//! // Core 1 maps a chunk of global memory into buffer 0 of its SPM.
//! let chunk = AddressRange::new(Addr::new(0x10_0000), 4096);
//! protocol.on_map(CoreId::new(1), 0, chunk, &mut memsys);
//!
//! // A guarded access from core 0 to that chunk is diverted to core 1's SPM.
//! let outcome = protocol.guarded_access(CoreId::new(0), Addr::new(0x10_0040), false,
//!                                       &mut memsys, &mut spms);
//! assert!(outcome.diverted_to_spm());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod directory;
pub mod filter;
pub mod filterdir;
pub mod ideal;
pub mod masks;
pub mod outcome;
pub mod protocol;
pub mod spmdir;
pub mod stats;

pub use directory::DirectoryCoherence;
pub use filter::Filter;
pub use filterdir::FilterDir;
pub use ideal::IdealCoherence;
pub use masks::AddressMasks;
pub use outcome::{GuardedOutcome, GuardedTarget};
pub use protocol::{CoherenceBackend, ProtocolConfig, ProtocolFault, SpmCoherenceProtocol};
pub use spmdir::SpmDir;
pub use stats::ProtocolStats;
