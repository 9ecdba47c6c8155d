//! Configuration for building and optimizing a Flood index.

/// Tunables for Flood's layout optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloodConfig {
    /// Upper bound on the total number of grid cells (the cell lookup table
    /// has one entry per cell, so this caps index memory).
    pub max_cells: usize,
    /// Number of data rows sampled for cost estimation during optimization.
    pub sample_size: usize,
    /// Maximum number of gradient-descent iterations.
    pub max_iters: usize,
}

impl Default for FloodConfig {
    fn default() -> Self {
        Self {
            max_cells: 1 << 20,
            sample_size: 2_000,
            max_iters: 30,
        }
    }
}

impl FloodConfig {
    /// A small configuration for unit tests: few samples, few iterations.
    pub fn fast() -> Self {
        Self {
            max_cells: 1 << 14,
            sample_size: 500,
            max_iters: 10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = FloodConfig::default();
        assert!(c.max_cells > 0);
        assert!(c.sample_size > 0);
        assert!(c.max_iters > 0);
        assert!(FloodConfig::fast().sample_size <= c.sample_size);
    }
}
