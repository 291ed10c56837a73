//! Prints ablations of the ISCA'15 evaluation.
//!
//! Usage: `cargo run --release --bin ablations -- [--cores N] [--scale F] [--benchmarks CG,IS] [--json]`

fn main() {
    system::cli::report_main("ablations", system::Report::Ablations);
}
