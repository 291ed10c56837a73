//! A custom workload built from scratch with the public API: a sparse
//! matrix-vector product (SpMV) whose gather into the dense vector cannot be
//! disambiguated by the compiler — exactly the motivating example of the
//! paper's Figure 3 (`a`, `b` strided; `ptr` potentially incoherent).
//!
//! The example shows how a downstream user describes their own kernel
//! (instead of the bundled NAS-like models), how the compiler model
//! classifies its references for the hybrid memory system, and how the same
//! workload behaves when the guarded reference is provably unaliased.
//!
//! ```text
//! cargo run --release --example spmv_gather
//! ```

use simkernel::ByteSize;
use spm_manycore::system::{Machine, MachineKind, SystemConfig};
use spm_manycore::workloads::{
    compile, ArrayRef, BenchmarkSpec, ExecMode, GuardedRef, KernelSpec, MachineParams,
};

/// Bytes of the streamed row arrays (`values`), sized so the example runs
/// in seconds even unoptimised.
const ROWS: ByteSize = ByteSize::kib(512);
/// Bytes of the gathered dense vector `x`.
const VECTOR: ByteSize = ByteSize::kib(64);

fn spmv(rows_bytes: ByteSize, vector_bytes: ByteSize, gather_unaliased: bool) -> BenchmarkSpec {
    let gather = if gather_unaliased {
        GuardedRef::guarded("x[col[j]]", vector_bytes, 1.0)
            .with_locality(0.8, 0.1)
            .unaliased()
    } else {
        GuardedRef::guarded("x[col[j]]", vector_bytes, 1.0).with_locality(0.8, 0.1)
    };
    BenchmarkSpec {
        name: "SpMV".into(),
        input: "synthetic".into(),
        kernels: vec![KernelSpec {
            name: "spmv_row_loop".into(),
            spm_refs: vec![
                ArrayRef::read("values[j]", rows_bytes, 8),
                ArrayRef::read("col[j]", rows_bytes / 2, 4),
                ArrayRef::written("y[i]", rows_bytes / 8, 8),
            ],
            random_refs: vec![gather],
            stack_accesses_per_iteration: 0.5,
            compute_insts_per_iteration: 10,
            outer_repeats: 2,
            code_footprint: ByteSize::kib(12),
        }],
    }
}

fn main() {
    let cores = 16;
    let config = SystemConfig::with_cores(cores);
    let spec = spmv(ROWS, VECTOR, false);

    // Show what the compiler does with the kernel in both modes.
    let machine_params = MachineParams {
        cores,
        spm_size: config.spm.size,
    };
    let hybrid_code = compile(&spec, ExecMode::Hybrid, &machine_params);
    let kernel = &hybrid_code.kernels[0];
    println!(
        "compiler classification for `{}` (hybrid mode):",
        kernel.name
    );
    for r in &kernel.spm_refs {
        println!(
            "  {:<12} -> SPM buffer {} ({} per buffer), {}",
            r.name,
            r.buffer,
            kernel.buffer_size,
            if r.written {
                "written back with dma-put"
            } else {
                "read-only"
            }
        );
    }
    for r in &kernel.random_refs {
        println!(
            "  {:<12} -> {}",
            r.name,
            if r.guarded {
                "GUARDED memory instruction (may alias an SPM chunk)"
            } else {
                "plain GM access"
            }
        );
    }
    println!();

    // Run it on the three machines.
    for kind in MachineKind::ALL {
        let result = Machine::new(kind, config.clone()).run(&spec);
        println!(
            "{:<28} {:>12} cycles   {:>9} packets   guarded accesses: {}",
            kind.label(),
            result.execution_time.as_u64(),
            result.total_packets(),
            result.protocol.guarded_accesses(),
        );
    }

    // What if the programmer annotates the gather as restrict / the alias
    // analysis succeeds?  The access becomes a plain GM access and the
    // protocol has nothing to do.
    let annotated = spmv(ROWS, VECTOR, true);
    let result = Machine::new(MachineKind::HybridProposed, config).run(&annotated);
    println!(
        "\nwith the gather proven unaliased: {:>12} cycles, guarded accesses: {}",
        result.execution_time.as_u64(),
        result.protocol.guarded_accesses(),
    );
}
