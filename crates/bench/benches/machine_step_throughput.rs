//! Throughput of the per-op interpreter under the cycle-interleaved
//! min-clock scheduler: whole-machine runs of one workload, so the cost
//! includes the event-queue traffic and the per-op yield checks.

use bench::{bench_config, BENCH_SCALE};
use criterion::{criterion_group, criterion_main, Criterion};
use system::{Machine, MachineKind};
use workloads::nas::NasBenchmark;

fn bench_machine_step_throughput(c: &mut Criterion) {
    let benchmark = NasBenchmark::Cg;
    let spec = benchmark.spec_scaled(benchmark.recommended_scale() * BENCH_SCALE);
    let mut group = c.benchmark_group("machine_step_throughput");
    group.sample_size(10);
    let machine = Machine::new(MachineKind::HybridProposed, bench_config());
    let result = machine.run(&spec);
    println!(
        "{}: {} instructions in {} cycles",
        benchmark.name(),
        result.instructions,
        result.execution_time.as_u64(),
    );
    group.bench_function(format!("{}/interleaved", benchmark.name()), |b| {
        b.iter(|| std::hint::black_box(machine.run(&spec)))
    });
    group.finish();
}

criterion_group!(benches, bench_machine_step_throughput);
criterion_main!(benches);
