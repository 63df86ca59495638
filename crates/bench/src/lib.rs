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
//! Set `NNQ_SCALE` in `[0.01, 10]` (e.g. `NNQ_SCALE=0.1`) to shrink
//! dataset sizes for a quick smoke run; reported trends are the same,
//! absolute numbers move. `repro` refuses any other value with exit 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod harness;
pub mod table;

/// A dataset-size multiplier, checked to lie in `[0.01, 10]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale(f64);

impl Scale {
    /// The paper-size datasets.
    pub const FULL: Scale = Scale(1.0);

    /// Parses a multiplier, refusing anything that is not a number in
    /// `[0.01, 10]`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.parse::<f64>() {
            Ok(x) if (0.01..=10.0).contains(&x) => Ok(Scale(x)),
            _ => Err(format!("must be a number in [0.01, 10], got {s:?}")),
        }
    }

    /// Reads `NNQ_SCALE`, [`Scale::FULL`] when it is unset.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("NNQ_SCALE") {
            Err(std::env::VarError::NotPresent) => Ok(Scale::FULL),
            Ok(s) => Self::parse(&s).map_err(|e| format!("NNQ_SCALE {e}")),
            Err(e) => Err(format!("NNQ_SCALE: {e}")),
        }
    }

    /// Applies the multiplier to a nominal dataset size, keeping at least
    /// 256 items.
    pub fn of(self, n: usize) -> usize {
        ((n as f64 * self.0) as usize).max(256)
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_accepts_only_numbers_in_range() {
        for bad in ["abc", "nan", "NaN", "inf", "", "0", "0.001", "20", "-1"] {
            assert!(Scale::parse(bad).is_err(), "{bad:?} accepted");
        }
        assert_eq!(Scale::parse("0.01"), Ok(Scale(0.01)));
        assert_eq!(Scale::parse("10"), Ok(Scale(10.0)));
        assert_eq!(Scale::parse("0.1").map(|s| s.of(100_000)), Ok(10_000));
        assert_eq!(Scale::FULL.of(100), 256);
    }
}
