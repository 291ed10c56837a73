//! Design-space exploration: how large does the filter have to be?
//!
//! The paper fixes the filter at 48 fully-associative entries and reports hit
//! ratios above 92 % (Figure 8).  This example sweeps the filter size on IS —
//! the benchmark with the largest guarded data set and the lowest hit ratio —
//! and also sweeps the scratchpad size to show the control/sync/work
//! trade-off of the tiling (both sweeps are the ablations described in
//! DESIGN.md).
//!
//! ```text
//! cargo run --release --example filter_sizing [CORES] [SCALE]
//! ```

use spm_manycore::system::cli::{check_scale, parse_or_exit, Args, CliError};
use spm_manycore::system::experiments::ablations;
use spm_manycore::system::sweep::{RunContext, RunDescriptor};
use spm_manycore::system::MachineKind;
use spm_manycore::workloads::nas::NasBenchmark;

const USAGE: &str = "usage: filter_sizing [CORES] [SCALE]\n";

fn parse(args: impl IntoIterator<Item = String>) -> Result<(usize, f64), CliError> {
    let mut args = Args::new(args);
    let cores = args.positional("CORES", 16)?;
    let scale = args.positional("SCALE", 0.25)?;
    args.finish()?;
    if cores == 0 {
        return Err("CORES: must be at least 1".to_owned().into());
    }
    check_scale("SCALE", scale)?;
    Ok((cores, scale))
}

fn main() -> Result<(), String> {
    let (cores, scale) = parse_or_exit("filter_sizing", USAGE, std::env::args().skip(1), parse);
    // Each sweep varies one axis of a base point on the Table 1 machine.
    let base = |benchmark, scale| RunDescriptor {
        scale_multiplier: scale,
        ..RunDescriptor::new(benchmark, MachineKind::HybridProposed, cores)
    };
    // All sweep points run through the campaign executor on every available
    // core (see the `campaign` example for caching on top of this).
    let ctx = RunContext::default();

    println!(
        "machine: {} cores, data-set scale multiplier {scale}, {} workers\n",
        cores,
        ctx.executor.jobs()
    );

    let filter_points = ablations::filter_size_sweep(
        &ctx,
        &base(NasBenchmark::Is, scale),
        &[4, 8, 16, 32, 48, 96],
    )?;
    println!("{}", ablations::filter_size_table(&filter_points));

    let spm_points =
        ablations::spm_size_sweep(&ctx, &base(NasBenchmark::Cg, scale), &[8, 16, 32, 64])?;
    println!("{}", ablations::spm_size_table(&spm_points));

    let intensity_points = ablations::guarded_intensity_sweep(
        &ctx,
        &base(NasBenchmark::Cg, scale * 0.5),
        &[0.0, 0.5, 1.0, 2.0, 4.0, 8.0],
    )?;
    println!("{}", ablations::guarded_intensity_table(&intensity_points));
    Ok(())
}
