//! Prints fig9 of the ISCA'15 evaluation.
//!
//! Usage: `cargo run --release --bin fig9 -- [--cores N] [--scale F] [--benchmarks CG,IS] [--json]`

fn main() {
    system::cli::report_main("fig9", system::Report::Fig9);
}
