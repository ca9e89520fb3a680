//! Compression accounting used by the experiment harness.

use serde::{Deserialize, Serialize};

/// Input/output byte counts for one or more compression operations.
///
/// # Examples
///
/// ```
/// use qgpu_compress::CompressionStats;
///
/// let mut s = CompressionStats::new(1000, 250);
/// assert_eq!(s.ratio(), 4.0);
/// s.merge(&CompressionStats::new(1000, 750));
/// assert_eq!(s.ratio(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CompressionStats {
    in_bytes: u64,
    out_bytes: u64,
    operations: u64,
}

impl CompressionStats {
    /// Stats for a single operation.
    pub fn new(in_bytes: usize, out_bytes: usize) -> Self {
        CompressionStats {
            in_bytes: in_bytes as u64,
            out_bytes: out_bytes as u64,
            operations: 1,
        }
    }

    /// An empty accumulator.
    pub fn empty() -> Self {
        CompressionStats::default()
    }

    /// Total uncompressed bytes.
    pub fn in_bytes(&self) -> u64 {
        self.in_bytes
    }

    /// Total compressed bytes.
    pub fn out_bytes(&self) -> u64 {
        self.out_bytes
    }

    /// Number of compression operations accumulated.
    pub fn operations(&self) -> u64 {
        self.operations
    }

    /// Compression ratio `in / out` (1.0 when nothing was compressed).
    pub fn ratio(&self) -> f64 {
        if self.out_bytes == 0 {
            1.0
        } else {
            self.in_bytes as f64 / self.out_bytes as f64
        }
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &CompressionStats) {
        self.in_bytes += other.in_bytes;
        self.out_bytes += other.out_bytes;
        self.operations += other.operations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ratio_is_one() {
        assert_eq!(CompressionStats::empty().ratio(), 1.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut s = CompressionStats::empty();
        s.merge(&CompressionStats::new(100, 50));
        s.merge(&CompressionStats::new(200, 100));
        assert_eq!(s.in_bytes(), 300);
        assert_eq!(s.out_bytes(), 150);
        assert_eq!(s.operations(), 2);
        assert_eq!(s.ratio(), 2.0);
    }

    #[test]
    fn expansion_saves_nothing() {
        let s = CompressionStats::new(100, 150);
        assert!(s.ratio() < 1.0);
    }
}
