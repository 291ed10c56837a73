//! Trace-driven out-of-order core timing model.
//!
//! The paper's evaluation uses gem5's detailed out-of-order x86 model
//! (Table 1: 6-wide issue, 13-stage pipeline, 160-entry ROB, 48/32-entry
//! load/store queues).  This crate provides the cycle-approximate equivalent
//! used by the reproduction:
//!
//! * non-memory instructions retire at the issue width, with a branch
//!   misprediction penalty proportional to the mispredicted-branch rate;
//! * memory accesses are issued to the memory hierarchy by the system driver,
//!   which feeds the returned latencies into [`CoreTimingModel`]; short
//!   accesses (cache/SPM hits) are absorbed by the pipeline while long misses
//!   are overlapped up to a configurable memory-level-parallelism width, the
//!   rest stalling the core — this reproduces both the prefetcher-limited
//!   behaviour of the cache-based baseline and the stall-free SPM accesses of
//!   the hybrid system;
//! * instruction fetches are generated from the executed instruction count
//!   and the kernel's code footprint (the transformed code plus the runtime
//!   library is larger, which is how the paper's extra instruction-fetch
//!   traffic appears);
//! * a small [`LoadStoreQueue`] model re-checks ordering when the coherence
//!   protocol diverts a guarded access to a new SPM virtual address (§3.4 of
//!   the paper) and charges a pipeline flush when a violation is detected;
//! * time is accounted per execution phase (control / synchronization / work)
//!   so Figure 9 can be regenerated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod core_model;
pub mod lsq;

pub use config::CoreConfig;
pub use core_model::{CoreTimingModel, PhaseBreakdown};
pub use lsq::LoadStoreQueue;
