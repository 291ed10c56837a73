//! # spm-manycore
//!
//! Reproduction of *"Coherence Protocol for Transparent Management of
//! Scratchpad Memories in Shared Memory Manycore Architectures"*
//! (Alvarez et al., ISCA 2015).
//!
//! This crate is a façade over the workspace: it re-exports the public API of
//! every sub-crate so examples, integration tests and downstream users can
//! depend on a single package.
//!
//! * [`simkernel`] — discrete-event kernel, cycles, statistics, RNG.
//! * [`noc`] — 8×8 mesh network-on-chip model with per-class traffic accounting.
//! * [`mem`] — MOESI cache hierarchy: L1s, shared NUCA L2, directory, DRAM.
//! * [`spm`] — scratchpad memories and DMA controllers.
//! * [`coherence`] — the paper's contribution: SPMDir, Filter, FilterDir and
//!   the guarded-access diversion protocol (crate `spm-coherence`).
//! * [`cpu`] — trace-driven out-of-order core timing model.
//! * [`energy`] — McPAT-like per-component energy and area model.
//! * [`workloads`] — NAS-like synthetic workloads, compiler classification and
//!   runtime-library tiling model.
//! * [`system`] — full 64-core system assembly, the experiment drivers
//!   that regenerate every table and figure of the paper, and the typed
//!   parameter sweeps of `system::sweep`.
//! * [`campaign`] — the simulator-agnostic executor and content-addressed
//!   result cache every sweep and report binary runs through.
//!
//! # Quick start
//!
//! ```
//! use spm_manycore::system::{Machine, MachineKind, SystemConfig};
//! use spm_manycore::workloads::nas::NasBenchmark;
//!
//! // A small configuration keeps the doctest fast; `SystemConfig::isca2015()`
//! // is the full 64-core machine from Table 1.
//! let config = SystemConfig::small(8);
//! let workload = NasBenchmark::Cg.spec_scaled(1.0 / 64.0);
//!
//! let hybrid = Machine::new(MachineKind::HybridProposed, config.clone()).run(&workload);
//! let cache = Machine::new(MachineKind::CacheOnly, config).run(&workload);
//! assert!(hybrid.execution_time.as_u64() > 0);
//! assert!(cache.execution_time.as_u64() > 0);
//! ```

#![forbid(unsafe_code)]

pub use campaign;
pub use cpu;
pub use energy;
pub use mem;
pub use noc;
pub use oracle;
pub use simkernel;
pub use spm;
pub use spm_coherence as coherence;
pub use system;
pub use workloads;
