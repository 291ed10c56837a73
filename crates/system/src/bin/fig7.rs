//! Prints fig7 of the ISCA'15 evaluation.
//!
//! Usage: `cargo run --release --bin fig7 -- [--cores N] [--scale F] [--benchmarks CG,IS] [--json]`

fn main() {
    system::cli::report_main("fig7", system::Report::Fig7);
}
