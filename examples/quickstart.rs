//! Quickstart: run one NAS-like benchmark on the three machines the paper
//! compares and print the headline numbers.
//!
//! ```text
//! cargo run --release --example quickstart [BENCH] [CORES] [SCALE]
//! ```
//!
//! `BENCH` defaults to `CG`, `CORES` to 16 (use 64 for the paper's machine)
//! and `SCALE` multiplies the benchmark's recommended data-set scale.

use spm_manycore::system::cli::{check_scale, parse_or_exit, Args, CliError};
use spm_manycore::system::{Machine, MachineKind, SystemConfig};
use spm_manycore::workloads::nas::NasBenchmark;
use spm_manycore::workloads::Phase;

const USAGE: &str = "usage: quickstart [BENCH: CG|EP|FT|IS|MG|SP] [CORES] [SCALE]\n";

fn parse(args: impl IntoIterator<Item = String>) -> Result<(NasBenchmark, usize, f64), CliError> {
    let mut args = Args::new(args);
    let names = NasBenchmark::ALL.map(NasBenchmark::name);
    let bench = args.positional_id("BENCH", NasBenchmark::Cg, NasBenchmark::from_name, &names)?;
    let cores = args.positional("CORES", 16)?;
    let scale = args.positional("SCALE", 1.0)?;
    args.finish()?;
    if cores == 0 {
        return Err("CORES: must be at least 1".to_owned().into());
    }
    check_scale("SCALE", scale)?;
    Ok((bench, cores, scale))
}

fn main() {
    let (bench, cores, scale) = parse_or_exit("quickstart", USAGE, std::env::args().skip(1), parse);

    let config = SystemConfig::with_cores(cores);
    let spec = bench.spec_scaled(bench.recommended_scale() * scale);

    println!("{}", config.table1());
    println!(
        "Running {} ({}) on {} cores...\n",
        bench.name(),
        spec.input,
        cores
    );

    let mut results = Vec::new();
    for kind in MachineKind::ALL {
        let result = Machine::new(kind, config.clone()).run(&spec);
        println!(
            "{:<28} {:>12} cycles | work {:>5.1}% sync {:>5.1}% control {:>4.1}% | {:>9} packets | {:.4} mJ",
            kind.label(),
            result.execution_time.as_u64(),
            100.0 * result.phase_fraction(Phase::Work),
            100.0 * result.phase_fraction(Phase::Sync),
            100.0 * result.phase_fraction(Phase::Control),
            result.total_packets(),
            result.total_energy() * 1e3,
        );
        if let Some(hit_ratio) = result.filter_hit_ratio {
            println!("{:<28} filter hit ratio {:.1}%", "", hit_ratio * 100.0);
        }
        results.push((kind, result));
    }

    let cache = &results[0].1;
    let hybrid = &results[2].1;
    let ideal = &results[1].1;
    println!();
    println!(
        "hybrid vs cache-based : {:.3}x speedup, {:+.1}% NoC packets, {:+.1}% energy",
        cache.execution_time.as_f64() / hybrid.execution_time.as_f64(),
        100.0 * (hybrid.total_packets() as f64 / cache.total_packets() as f64 - 1.0),
        100.0 * (hybrid.total_energy() / cache.total_energy() - 1.0),
    );
    println!(
        "protocol vs ideal     : {:+.2}% execution time, {:+.2}% NoC packets, {:+.2}% energy",
        100.0 * (hybrid.execution_time.as_f64() / ideal.execution_time.as_f64() - 1.0),
        100.0 * (hybrid.total_packets() as f64 / ideal.total_packets() as f64 - 1.0),
        100.0 * (hybrid.total_energy() / ideal.total_energy() - 1.0),
    );
}
