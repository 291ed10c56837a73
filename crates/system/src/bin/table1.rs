//! Prints table1 of the ISCA'15 evaluation.
//!
//! Usage: `cargo run --release --bin table1 -- [--cores N] [--scale F] [--benchmarks CG,IS] [--json]`

fn main() {
    let options = system::CliOptions::parse_or_exit(std::env::args().skip(1));
    print!(
        "{}",
        system::cli::run_report(system::Report::Table1, &options)
    );
}
