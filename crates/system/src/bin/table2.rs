//! Prints table2 of the ISCA'15 evaluation.
//!
//! Usage: `cargo run --release --bin table2 -- [--cores N] [--scale F] [--benchmarks CG,IS] [--json]`

fn main() {
    system::cli::report_main("table2", system::Report::Table2);
}
