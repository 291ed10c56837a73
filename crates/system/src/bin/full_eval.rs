//! Prints full eval of the ISCA'15 evaluation.
//!
//! Usage: `cargo run --release --bin full_eval -- [--cores N] [--scale F] [--benchmarks CG,IS] [--json]`

fn main() {
    system::cli::report_main("full_eval", system::Report::Full);
}
