//! NAS-like synthetic workloads, the compiler access-classification model and
//! the runtime-library tiling model.
//!
//! The paper evaluates six memory-intensive NAS benchmarks (CG, EP, FT, IS,
//! MG and SP) whose code was manually transformed for the hybrid memory
//! system, using GCC's alias-analysis report to decide which random accesses
//! must be emitted as guarded instructions (Table 2).  Running the real
//! benchmarks requires the authors' compiler toolchain and weeks of simulated
//! time, so this crate provides synthetic workload models that reproduce the
//! *characteristics the evaluation depends on*:
//!
//! * the number of kernels, strided (SPM) references and potentially
//!   incoherent (guarded) references per benchmark, and the sizes of the data
//!   sets each class touches (Table 2 — regenerated by [`characterize()`]);
//! * the per-iteration mix of strided, random-guarded, random-unaliased and
//!   stack accesses, plus the compute instructions between them;
//! * the code transformation of Figure 3: for the hybrid system the loop is
//!   tiled into control / synchronization / work phases with one SPM buffer
//!   per strided reference, `dma-get`/`dma-put` transfers and guarded
//!   instructions for the potentially incoherent references; for the
//!   cache-based baseline the original untiled loop is produced.
//!
//! The output is a stream of [`trace::TraceOp`]s per core, consumed by the
//! `cpu` timing model under the direction of the `system` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod characterize;
pub mod compiler;
pub mod litmus;
pub mod nas;
pub mod program;
pub mod spec;
pub mod trace;

pub use characterize::{characterize, CharacterizationRow};
pub use compiler::{compile, CompiledBenchmark, CompiledKernel, ExecMode, MachineParams};
pub use litmus::{random_program, FuzzParams, LitmusCase, ProgramBuilder, RawKernel};
pub use nas::NasBenchmark;
pub use program::{OpCursor, Segment};
pub use spec::{ArrayRef, BenchmarkSpec, GuardedRef, KernelSpec};
pub use trace::{MemRefClass, Phase, TraceOp};

// The campaign executor shards (benchmark spec, machine config) points
// across worker threads, which requires the workload types to be `Send` +
// `Sync` (they are plain owned data — no `Rc`, no interior mutability).
// Pinned at compile time so a refactor cannot silently serialise every
// sweep again.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BenchmarkSpec>();
    assert_send_sync::<KernelSpec>();
    assert_send_sync::<ArrayRef>();
    assert_send_sync::<GuardedRef>();
    assert_send_sync::<NasBenchmark>();
    assert_send_sync::<CompiledBenchmark>();
    assert_send_sync::<TraceOp>();
};
