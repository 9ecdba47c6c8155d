//! Flood: the original in-memory learned multi-dimensional index (Nathan et
//! al., SIGMOD 2020), reproduced here as Tsunami's primary baseline (§2.2).
//!
//! Flood models the CDF of every dimension, divides each dimension `i` into
//! `p_i` equal-mass partitions, and lays the data out in the grid formed by
//! the Cartesian product of those partitions. Query processing finds the
//! intersecting partitions per dimension with the CDF models, takes the
//! Cartesian product to obtain intersecting cells, looks up their physical
//! ranges in a cell table, and scans.
//!
//! Per the paper's evaluation setup (§6.1), this implementation uses
//! Tsunami's analytic cost model for layout optimization and performs
//! refinement with plain scans rather than per-cell models.
//!
//! A Flood grid is Tsunami's Augmented Grid with every dimension partitioned
//! independently, and it is shared in code: [`FloodIndex`] lays its data
//! out and plans its queries through an all-independent
//! [`AugmentedGrid`](crate::AugmentedGrid), and its layout search runs the
//! Augmented Grid optimizer's initialization and descent on that skeleton,
//! scored by Flood's own sample-based cost estimator.

mod config;
mod estimator;
mod index;
mod optimizer;

pub use config::FloodConfig;
pub use index::FloodIndex;

/// The seed of the data sample a layout is optimized over: fixed, so a
/// build is a function of its inputs.
const SEED: u64 = 0xF100D;
