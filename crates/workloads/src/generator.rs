//! Synthetic input descriptors and evolving-input sequences.
//!
//! §IV-B studies workloads "that process ever growing data sets"; this
//! module generates the input descriptions driving those experiments:
//! a record-level view of an input ([`InputSpec`]) and geometric
//! growth sequences ([`evolving_inputs`]).

use serde::{Deserialize, Serialize};

use crate::scale::DataScale;

/// A record-level description of a synthetic input dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InputSpec {
    /// Number of records.
    pub records: u64,
    /// Average record size in bytes.
    pub bytes_per_record: u32,
    /// Key skew in `[0, 1]` (0 = uniform keys, 1 = heavy Zipf).
    pub skew: f64,
}

impl InputSpec {
    /// Creates an input description.
    ///
    /// # Panics
    ///
    /// Panics when `records == 0` or `bytes_per_record == 0`.
    pub fn new(records: u64, bytes_per_record: u32, skew: f64) -> Self {
        assert!(records > 0, "need at least one record");
        assert!(bytes_per_record > 0, "records must have a size");
        InputSpec {
            records,
            bytes_per_record,
            skew: skew.clamp(0.0, 1.0),
        }
    }

    /// Total volume in MB.
    fn total_mb(&self) -> f64 {
        self.records as f64 * f64::from(self.bytes_per_record) / (1024.0 * 1024.0)
    }

    /// The [`DataScale`] this input corresponds to.
    pub fn scale(&self) -> DataScale {
        DataScale::Custom(self.total_mb())
    }

    /// The same dataset grown by `factor` (more records, same schema).
    #[must_use]
    pub fn grown(&self, factor: f64) -> InputSpec {
        InputSpec {
            records: ((self.records as f64) * factor.max(0.0)).max(1.0) as u64,
            ..*self
        }
    }
}

/// A geometric sequence of `n` input scales starting at `start_mb`,
/// multiplying by `factor` each step — the generalized DS1→DS2→DS3.
pub fn evolving_inputs(start_mb: f64, factor: f64, n: usize) -> Vec<DataScale> {
    assert!(start_mb > 0.0 && factor > 0.0, "growth must be positive");
    (0..n)
        .map(|i| DataScale::Custom(start_mb * factor.powi(i as i32)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_arithmetic() {
        let spec = InputSpec::new(1_048_576, 1024, 0.2);
        assert!((spec.total_mb() - 1024.0).abs() < 1e-9);
        assert!((spec.scale().input_mb() - 1024.0).abs() < 1e-9);
    }

    #[test]
    fn growth_multiplies_records() {
        let spec = InputSpec::new(1000, 100, 0.0);
        let grown = spec.grown(4.0);
        assert_eq!(grown.records, 4000);
        assert_eq!(grown.bytes_per_record, 100);
    }

    #[test]
    fn skew_is_clamped() {
        assert_eq!(InputSpec::new(1, 1, 7.0).skew, 1.0);
        assert_eq!(InputSpec::new(1, 1, -1.0).skew, 0.0);
    }

    #[test]
    fn evolving_sequence_is_geometric() {
        let seq = evolving_inputs(1024.0, 4.0, 3);
        assert_eq!(seq.len(), 3);
        assert!((seq[1].input_mb() / seq[0].input_mb() - 4.0).abs() < 1e-9);
        assert!((seq[2].input_mb() / seq[1].input_mb() - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn zero_records_panics() {
        let _ = InputSpec::new(0, 1, 0.0);
    }
}
