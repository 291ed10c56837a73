//! Prints fig9 of the ISCA'15 evaluation.
//!
//! Usage: `cargo run --release --bin fig9 -- [--cores N] [--scale F] [--benchmarks CG,IS] [--json]`

fn main() {
    let options = system::CliOptions::parse_or_exit(std::env::args().skip(1));
    print!(
        "{}",
        system::cli::run_report(system::Report::Fig9, &options)
    );
}
