//! Full-system assembly and the experiment drivers that regenerate every
//! table and figure of the paper's evaluation.
//!
//! The crate glues the substrates together into a [`Machine`]:
//!
//! * a cache hierarchy and NoC ([`mem`], [`noc`]),
//! * per-core scratchpads and DMA controllers ([`spm`]),
//! * the proposed coherence protocol or the ideal-coherence oracle
//!   ([`spm_coherence`]),
//! * per-core out-of-order timing models ([`cpu`]),
//! * the McPAT-like energy model ([`energy`]),
//! * and the NAS-like workload generators ([`workloads`]).
//!
//! Three machine kinds are supported, matching the systems compared in the
//! paper: the cache-based baseline (§5.4, with the L1 D-cache enlarged to
//! 64 KB for fairness), the hybrid memory system with ideal coherence (the
//! §5.3 comparison point) and the hybrid memory system with the proposed
//! coherence protocol.
//!
//! [`experiments::ExperimentSuite`] holds the runs of a sweep of the six
//! benchmarks on the three machines and derives the paper's Figures 7–11;
//! [`experiments::ablations`] adds the design-choice sweeps described in
//! `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod aggregate;
pub mod cli;
pub mod config;
pub(crate) mod engine;
pub mod experiments;
pub mod machine;
pub mod report;
pub mod resultio;
mod spec;
pub mod sweep;
pub mod verify;

pub use cli::{write_export, CliOptions, Report};
pub use config::{CoherenceProtocol, ExecutionEngine, MachineKind, SystemConfig};
pub use experiments::ExperimentSuite;
pub use machine::{EngineAudit, KernelAudit, Machine, RunResult, TraceCapture};
pub use report::TableBuilder;
pub use resultio::run_result_codec;
pub use verify::{verification_config, MemoryImage, VerifyOutcome};
