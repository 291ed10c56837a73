//! Prints fig8 of the ISCA'15 evaluation.
//!
//! Usage: `cargo run --release --bin fig8 -- [--cores N] [--scale F] [--benchmarks CG,IS] [--json]`

fn main() {
    system::cli::report_main("fig8", system::Report::Fig8);
}
