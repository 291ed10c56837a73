//! Shared helpers for the benchmark harness.
//!
//! Every bench target regenerates one table or figure of the paper's
//! evaluation on a reduced machine (fewer cores, scaled-down data sets) so
//! that `cargo bench` completes in minutes; the `system` crate's report
//! binaries (`cargo run --release -p system --bin fig9 …`) produce the
//! full-scale numbers recorded in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use system::{MachineKind, SystemConfig};
use workloads::nas::NasBenchmark;

/// The machine used by the criterion benches: 16 cores with the Table 1
/// per-core parameters.
pub fn bench_config() -> SystemConfig {
    SystemConfig::with_cores(16)
}

/// The extra data-set scale multiplier used by the criterion benches.
pub const BENCH_SCALE: f64 = 0.125;

/// The benchmark subset used where running all six would be too slow.
pub fn bench_benchmarks() -> Vec<NasBenchmark> {
    vec![NasBenchmark::Cg, NasBenchmark::Is, NasBenchmark::Ep]
}

/// All three machine kinds, re-exported for the bench targets.
pub fn machine_kinds() -> [MachineKind; 3] {
    MachineKind::ALL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_configuration_is_reduced() {
        assert_eq!(bench_config().cores, 16);
        const { assert!(BENCH_SCALE < 1.0) };
        assert_eq!(bench_benchmarks().len(), 3);
        assert_eq!(machine_kinds().len(), 3);
    }
}
