//! CDF models and correlation-capturing models for the grids.
//!
//! Flood partitions every dimension uniformly in its CDF (§2.2); Tsunami's
//! Augmented Grid additionally uses two correlation-aware techniques (§5.2):
//!
//! * [`FunctionalMapping`] — a linear regression with error bounds that maps
//!   a filter range on a *mapped* dimension into a range on a *target*
//!   dimension, letting the mapped dimension be dropped from the grid
//!   entirely (§5.2.1).
//! * [`ConditionalCdf`] — per-base-partition CDFs of a *dependent* dimension,
//!   i.e. `CDF(Y | X)`, producing staggered partition boundaries and
//!   equally-sized cells under generic correlations (§5.2.2).
//!
//! The choice of single-dimension CDF model is orthogonal in the paper (RMI,
//! histogram or linear regression); every grid here partitions with the
//! equi-depth [`HistogramCdf`].

pub mod conditional;
pub mod hist_cdf;
pub mod mapping;

pub use conditional::ConditionalCdf;
pub use hist_cdf::HistogramCdf;
pub use mapping::FunctionalMapping;
