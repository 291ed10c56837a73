//! Prints table1 of the ISCA'15 evaluation.
//!
//! Usage: `cargo run --release --bin table1 -- [--cores N] [--scale F] [--benchmarks CG,IS] [--json]`

fn main() {
    system::cli::report_main("table1", system::Report::Table1);
}
