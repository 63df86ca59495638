//! Shared harness for the RKV'95 reproduction experiments (E1–E16).
//!
//! The `repro` binary prints one experiment's paper-style table or series
//! (`repro e2`) or all of them (`repro all`); this library holds
//! everything they share — dataset construction, tree building, query
//! measurement, and table formatting.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p nnq-bench --release --bin repro -- all
//! ```
//!
//! Set `NNQ_SCALE` (e.g. `NNQ_SCALE=0.1`) to shrink dataset sizes for a
//! quick smoke run; reported trends are the same, absolute numbers move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod harness;
pub mod table;

/// Global size multiplier from the `NNQ_SCALE` environment variable
/// (default 1.0, clamped to `[0.01, 10]`).
pub fn scale() -> f64 {
    std::env::var("NNQ_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.01, 10.0)
}

/// Applies [`scale`] to a nominal dataset size, keeping at least 256 items.
pub fn scaled(n: usize) -> usize {
    ((n as f64 * scale()) as usize).max(256)
}
