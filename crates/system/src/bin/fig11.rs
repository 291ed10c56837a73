//! Prints fig11 of the ISCA'15 evaluation.
//!
//! Usage: `cargo run --release --bin fig11 -- [--cores N] [--scale F] [--benchmarks CG,IS] [--json]`

fn main() {
    system::cli::report_main("fig11", system::Report::Fig11);
}
