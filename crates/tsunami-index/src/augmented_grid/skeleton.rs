//! Skeletons: the per-dimension partitioning strategies of an Augmented Grid
//! (§5.2).
//!
//! Each dimension uses one of three strategies:
//!
//! 1. **Independent** — partitioned uniformly in `CDF(X)` (what Flood does
//!    for every dimension).
//! 2. **Mapped** — removed from the grid; query filters over it are
//!    transformed into filters over a *target* dimension through a
//!    functional mapping (§5.2.1).
//! 3. **Conditional** — partitioned uniformly in `CDF(X | base)` using one
//!    CDF per partition of a *base* dimension (§5.2.2).
//!
//! Restrictions (from the paper, §5.2.1–§5.2.2): a target dimension cannot
//! itself be mapped; a base dimension cannot be mapped or dependent (so a
//! base is always an Independent dimension). At least one dimension must
//! remain in the grid.

use std::fmt;

/// Partitioning strategy of one dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DimStrategy {
    /// Partition independently, uniformly in the dimension's own CDF.
    Independent,
    /// Remove from the grid; rewrite filters onto `target` via a functional
    /// mapping.
    Mapped {
        /// The dimension filters are rewritten onto.
        target: usize,
    },
    /// Partition uniformly in the CDF conditioned on `base`'s partition.
    Conditional {
        /// The base dimension whose partition selects the conditional CDF.
        base: usize,
    },
}

impl DimStrategy {
    /// Whether this strategy keeps the dimension in the grid.
    pub fn is_grid_dim(&self) -> bool {
        !matches!(self, DimStrategy::Mapped { .. })
    }
}

/// A full assignment of strategies to dimensions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Skeleton {
    strategies: Vec<DimStrategy>,
}

impl Skeleton {
    /// The all-Independent skeleton (equivalent to Flood's grid).
    pub fn all_independent(num_dims: usize) -> Self {
        Self {
            strategies: vec![DimStrategy::Independent; num_dims],
        }
    }

    /// Creates a skeleton from explicit strategies. Returns `None` if the
    /// assignment violates the validity rules.
    pub fn new(strategies: Vec<DimStrategy>) -> Option<Self> {
        let s = Self { strategies };
        if s.is_valid() {
            Some(s)
        } else {
            None
        }
    }

    /// Creates a skeleton without validity checking (used internally by the
    /// optimizer before validation).
    pub fn new_unchecked(strategies: Vec<DimStrategy>) -> Self {
        Self { strategies }
    }

    /// Number of dimensions.
    pub fn num_dims(&self) -> usize {
        self.strategies.len()
    }

    /// The strategy of a dimension.
    pub fn strategy(&self, dim: usize) -> DimStrategy {
        self.strategies[dim]
    }

    /// All strategies.
    pub fn strategies(&self) -> &[DimStrategy] {
        &self.strategies
    }

    /// Replaces one dimension's strategy, returning a new skeleton (not
    /// validated).
    pub fn with_strategy(&self, dim: usize, strategy: DimStrategy) -> Self {
        let mut s = self.strategies.clone();
        s[dim] = strategy;
        Self { strategies: s }
    }

    /// The dimensions that participate in the grid, in ascending order.
    pub fn grid_dims(&self) -> Vec<usize> {
        (0..self.num_dims())
            .filter(|&d| self.strategies[d].is_grid_dim())
            .collect()
    }

    /// Number of mapped dimensions (functional mappings).
    pub fn num_mapped(&self) -> usize {
        self.strategies
            .iter()
            .filter(|s| matches!(s, DimStrategy::Mapped { .. }))
            .count()
    }

    /// Number of conditionally-partitioned dimensions (conditional CDFs).
    pub fn num_conditional(&self) -> usize {
        self.strategies
            .iter()
            .filter(|s| matches!(s, DimStrategy::Conditional { .. }))
            .count()
    }

    /// Checks the paper's validity restrictions.
    pub fn is_valid(&self) -> bool {
        let d = self.num_dims();
        if d == 0 {
            return false;
        }
        let mut has_grid_dim = false;
        for (dim, s) in self.strategies.iter().enumerate() {
            match *s {
                DimStrategy::Independent => has_grid_dim = true,
                DimStrategy::Mapped { target } => {
                    if target >= d || target == dim {
                        return false;
                    }
                    // A target dimension cannot itself be a mapped dimension.
                    if matches!(self.strategies[target], DimStrategy::Mapped { .. }) {
                        return false;
                    }
                }
                DimStrategy::Conditional { base } => {
                    has_grid_dim = true;
                    if base >= d || base == dim {
                        return false;
                    }
                    // A base dimension cannot be mapped or dependent, so it
                    // must be Independent.
                    if !matches!(self.strategies[base], DimStrategy::Independent) {
                        return false;
                    }
                }
            }
        }
        has_grid_dim
    }

    /// All valid skeletons reachable by changing the strategy of exactly one
    /// dimension ("one hop away", Table 2). Used by AGD's local search.
    pub fn neighbors(&self) -> Vec<Skeleton> {
        let d = self.num_dims();
        let mut out = Vec::new();
        for dim in 0..d {
            let mut candidates: Vec<DimStrategy> = vec![DimStrategy::Independent];
            for other in 0..d {
                if other != dim {
                    candidates.push(DimStrategy::Mapped { target: other });
                    candidates.push(DimStrategy::Conditional { base: other });
                }
            }
            for cand in candidates {
                if cand == self.strategies[dim] {
                    continue;
                }
                let s = self.with_strategy(dim, cand);
                if s.is_valid() {
                    out.push(s);
                }
            }
        }
        out
    }
}

impl fmt::Display for Skeleton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .strategies
            .iter()
            .enumerate()
            .map(|(d, s)| match s {
                DimStrategy::Independent => format!("d{d}"),
                DimStrategy::Mapped { target } => format!("d{d}->d{target}"),
                DimStrategy::Conditional { base } => format!("d{d}|d{base}"),
            })
            .collect();
        write!(f, "[{}]", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_independent_is_valid() {
        let s = Skeleton::all_independent(4);
        assert!(s.is_valid());
        assert_eq!(s.grid_dims(), vec![0, 1, 2, 3]);
        assert_eq!(s.num_mapped(), 0);
        assert_eq!(s.num_conditional(), 0);
    }

    #[test]
    fn paper_example_skeleton_is_valid() {
        // [X, Y|X, Z] over dims X=0, Y=1, Z=2 (Table 2's example).
        let s = Skeleton::new(vec![
            DimStrategy::Independent,
            DimStrategy::Conditional { base: 0 },
            DimStrategy::Independent,
        ])
        .unwrap();
        assert!(s.is_valid());
        assert_eq!(s.grid_dims(), vec![0, 1, 2]);
        assert_eq!(s.num_conditional(), 1);
        assert_eq!(s.to_string(), "[d0, d1|d0, d2]");
    }

    #[test]
    fn mapping_to_a_mapped_dimension_is_invalid() {
        // Y -> X where X is itself mapped: invalid (target cannot be mapped).
        let s = Skeleton::new(vec![
            DimStrategy::Mapped { target: 2 },
            DimStrategy::Mapped { target: 0 },
            DimStrategy::Independent,
        ]);
        assert!(s.is_none());
    }

    #[test]
    fn conditional_base_must_be_independent() {
        // Base is mapped: invalid ([X->Z, Y|X, Z] from the paper's "not
        // allowed" example).
        let s = Skeleton::new(vec![
            DimStrategy::Mapped { target: 2 },
            DimStrategy::Conditional { base: 0 },
            DimStrategy::Independent,
        ]);
        assert!(s.is_none());
        // Base is itself dependent: also invalid.
        let s = Skeleton::new(vec![
            DimStrategy::Conditional { base: 2 },
            DimStrategy::Conditional { base: 0 },
            DimStrategy::Independent,
        ]);
        assert!(s.is_none());
    }

    #[test]
    fn at_least_one_grid_dimension_is_required() {
        let s = Skeleton::new(vec![
            DimStrategy::Mapped { target: 1 },
            DimStrategy::Mapped { target: 0 },
        ]);
        assert!(s.is_none());
        assert!(Skeleton::new(vec![]).is_none());
    }

    #[test]
    fn self_references_are_invalid() {
        assert!(Skeleton::new(vec![DimStrategy::Mapped { target: 0 }]).is_none());
        assert!(Skeleton::new(vec![
            DimStrategy::Conditional { base: 0 },
            DimStrategy::Independent
        ])
        .is_none());
    }

    #[test]
    fn neighbors_are_all_valid_and_one_hop_away() {
        let s = Skeleton::new(vec![
            DimStrategy::Independent,
            DimStrategy::Conditional { base: 0 },
            DimStrategy::Independent,
        ])
        .unwrap();
        let neighbors = s.neighbors();
        assert!(!neighbors.is_empty());
        for n in &neighbors {
            assert!(n.is_valid());
            let diff = (0..3).filter(|&d| n.strategy(d) != s.strategy(d)).count();
            assert_eq!(diff, 1, "neighbor {n} differs from {s} in {diff} dims");
        }
        // The all-independent skeleton is among the neighbors.
        assert!(neighbors.contains(&Skeleton::all_independent(3)));
    }

    #[test]
    fn neighbors_of_example_match_table2_count_spirit() {
        // Table 2 lists 6 one-hop skeletons for [X, Y|X, Z]; our neighbor set
        // is a superset restricted by validity (it also includes e.g. turning
        // Y independent), so it must contain at least those 6.
        let s = Skeleton::new(vec![
            DimStrategy::Independent,
            DimStrategy::Conditional { base: 0 },
            DimStrategy::Independent,
        ])
        .unwrap();
        assert!(s.neighbors().len() >= 6);
    }
}
