//! Prints fig10 of the ISCA'15 evaluation.
//!
//! Usage: `cargo run --release --bin fig10 -- [--cores N] [--scale F] [--benchmarks CG,IS] [--json]`

fn main() {
    system::cli::report_main("fig10", system::Report::Fig10);
}
