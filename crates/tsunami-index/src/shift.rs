//! Workload-shift detection (§8, "Data and Workload Shift").
//!
//! Tsunami adapts to a new workload by re-optimizing, but the paper leaves
//! open *when* to trigger that re-optimization. Following the paper's
//! suggestion, this module detects three signals by comparing a reference
//! workload (the one the index was optimized for) against a window of
//! recently observed queries:
//!
//! 1. an existing query type disappears,
//! 2. a new query type appears,
//! 3. the relative frequencies of query types change substantially.
//!
//! Query types are matched by their filtered-dimension set and average
//! per-dimension selectivity (the same embedding used for clustering in
//! §4.3.1).
//!
//! The monitor holds no observations itself: the engine's
//! `Table::record_query` log is the one sliding window, and
//! `Database::auto_reoptimize` hands it to [`WorkloadMonitor::observe`]. A
//! positive [`ShiftReport::reoptimize`] is what triggers a rebuild for the
//! observed workload.

use crate::config::TsunamiConfig;
use crate::query_types::{cluster_query_types, QueryType, DBSCAN_EPS, DRIFT_THRESHOLD};
use crate::SEED;
use tsunami_core::{Dataset, Workload};

/// A fingerprint of one query type: which dimensions it filters, its average
/// selectivity embedding, and its share of the workload.
#[derive(Debug, Clone, PartialEq)]
struct TypeSignature {
    /// Dimensions filtered by every query of the type.
    filtered_dims: Vec<usize>,
    /// Mean per-dimension selectivity over the filtered dimensions.
    mean_selectivity: Vec<f64>,
    /// Fraction of the workload belonging to this type.
    frequency: f64,
}

/// The outcome of comparing an observed workload against the reference.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftReport {
    /// Types present in the reference but absent from the observation.
    pub disappeared_types: usize,
    /// Types present in the observation but absent from the reference.
    pub new_types: usize,
    /// Total absolute change in type frequency (0 = identical mix, 2 = fully
    /// disjoint mixes).
    pub frequency_drift: f64,
    /// Whether re-optimization is recommended: a type disappeared or
    /// appeared, or the drift passed [`DRIFT_THRESHOLD`].
    pub reoptimize: bool,
}

/// Detects workload shift by fingerprinting query types. Two types are the
/// same when their embeddings lie within the clustering eps
/// ([`DBSCAN_EPS`]).
#[derive(Debug, Clone)]
pub struct WorkloadMonitor {
    reference: Vec<TypeSignature>,
}

impl WorkloadMonitor {
    /// Creates a monitor from the workload the index was optimized for.
    pub fn new(data: &Dataset, reference: &Workload, config: &TsunamiConfig) -> Self {
        Self {
            reference: signatures(data, reference, config),
        }
    }

    /// Compares an observed workload window against the reference.
    pub fn observe(
        &self,
        data: &Dataset,
        observed: &Workload,
        config: &TsunamiConfig,
    ) -> ShiftReport {
        let obs = signatures(data, observed, config);
        let mut matched_obs = vec![false; obs.len()];
        let mut disappeared = 0usize;
        let mut drift = 0.0f64;

        for r in &self.reference {
            match obs
                .iter()
                .enumerate()
                .filter(|(i, o)| !matched_obs[*i] && same_type(r, o))
                .min_by(|(_, a), (_, b)| {
                    distance(r, a)
                        .partial_cmp(&distance(r, b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                }) {
                Some((i, o)) => {
                    matched_obs[i] = true;
                    drift += (r.frequency - o.frequency).abs();
                }
                None => {
                    disappeared += 1;
                    drift += r.frequency;
                }
            }
        }
        let new_types = matched_obs.iter().filter(|&&m| !m).count();
        drift += obs
            .iter()
            .enumerate()
            .filter(|(i, _)| !matched_obs[*i])
            .map(|(_, o)| o.frequency)
            .sum::<f64>();

        let reoptimize = disappeared > 0 || new_types > 0 || drift > DRIFT_THRESHOLD;
        ShiftReport {
            disappeared_types: disappeared,
            new_types,
            frequency_drift: drift,
            reoptimize,
        }
    }
}

fn signatures(data: &Dataset, workload: &Workload, config: &TsunamiConfig) -> Vec<TypeSignature> {
    let types: Vec<QueryType> = cluster_query_types(data, workload, config.optimizer_sample_size);
    let total: usize = types.iter().map(|t| t.queries.len()).sum();
    // One shared sample: the seed is fixed, so per-type sampling would
    // produce the identical rows anyway.
    let sample = tsunami_core::sample::sample_dataset(data, config.optimizer_sample_size, SEED);
    types
        .iter()
        .map(|t| {
            let mean_selectivity: Vec<f64> = t
                .filtered_dims
                .iter()
                .map(|&d| {
                    t.queries
                        .iter()
                        .map(|q| q.dim_selectivity(&sample, d))
                        .sum::<f64>()
                        / t.queries.len().max(1) as f64
                })
                .collect();
            TypeSignature {
                filtered_dims: t.filtered_dims.clone(),
                mean_selectivity,
                frequency: t.queries.len() as f64 / total.max(1) as f64,
            }
        })
        .collect()
}

fn same_type(a: &TypeSignature, b: &TypeSignature) -> bool {
    a.filtered_dims == b.filtered_dims && distance(a, b) <= DBSCAN_EPS
}

fn distance(a: &TypeSignature, b: &TypeSignature) -> f64 {
    if a.mean_selectivity.len() != b.mean_selectivity.len() {
        return f64::INFINITY;
    }
    a.mean_selectivity
        .iter()
        .zip(&b.mean_selectivity)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::{Predicate, Query};

    fn data() -> Dataset {
        Dataset::from_columns(vec![
            (0..5_000u64).collect(),
            (0..5_000u64).map(|v| (v * 31) % 5_000).collect(),
        ])
        .unwrap()
    }

    fn workload_a(offset: u64) -> Workload {
        Workload::new(
            (0..30u64)
                .map(|i| {
                    Query::count(vec![Predicate::range(
                        0,
                        offset + i * 10,
                        offset + i * 10 + 100,
                    )
                    .unwrap()])
                    .unwrap()
                })
                .collect(),
        )
    }

    fn workload_b() -> Workload {
        Workload::new(
            (0..30u64)
                .map(|i| {
                    Query::count(vec![Predicate::range(1, i * 50, i * 50 + 2_000).unwrap()])
                        .unwrap()
                })
                .collect(),
        )
    }

    #[test]
    fn identical_workload_needs_no_reoptimization() {
        let ds = data();
        let cfg = TsunamiConfig::fast();
        let monitor = WorkloadMonitor::new(&ds, &workload_a(0), &cfg);
        let report = monitor.observe(&ds, &workload_a(5), &cfg);
        assert_eq!(report.disappeared_types, 0);
        assert_eq!(report.new_types, 0);
        assert!(report.frequency_drift < 0.2, "{report:?}");
        assert!(!report.reoptimize);
    }

    #[test]
    fn replaced_workload_triggers_reoptimization() {
        let ds = data();
        let cfg = TsunamiConfig::fast();
        let monitor = WorkloadMonitor::new(&ds, &workload_a(0), &cfg);
        let report = monitor.observe(&ds, &workload_b(), &cfg);
        assert!(report.new_types > 0 || report.disappeared_types > 0);
        assert!(report.reoptimize, "{report:?}");
    }

    #[test]
    fn mixed_workload_reports_partial_drift() {
        let ds = data();
        let cfg = TsunamiConfig::fast();
        let monitor = WorkloadMonitor::new(&ds, &workload_a(0), &cfg);
        let mut mixed = workload_a(0);
        mixed.extend(&workload_b());
        let report = monitor.observe(&ds, &mixed, &cfg);
        // The original type is still present, a new one appeared.
        assert_eq!(report.disappeared_types, 0);
        assert!(report.new_types >= 1);
        assert!(report.reoptimize);
    }

    /// `n` copies of one fixed dim-0 query and `m` copies of one fixed dim-1
    /// query: repeating identical queries keeps the clustering deterministic,
    /// so drift depends only on the mixing fractions.
    fn mixed(n: usize, m: usize) -> Workload {
        let a = Query::count(vec![Predicate::range(0, 100, 200).unwrap()]).unwrap();
        let b = Query::count(vec![Predicate::range(1, 300, 2_300).unwrap()]).unwrap();
        let mut qs = vec![a; n];
        qs.extend(std::iter::repeat_n(b, m));
        Workload::new(qs)
    }

    #[test]
    fn mixing_in_a_disjoint_workload_never_decreases_drift() {
        let ds = data();
        let cfg = TsunamiConfig::fast();
        let monitor = WorkloadMonitor::new(&ds, &mixed(40, 0), &cfg);
        let mut last = -1.0f64;
        for k in 0..=40usize {
            let report = monitor.observe(&ds, &mixed(40 - k, k), &cfg);
            assert!(
                report.frequency_drift >= last - 1e-9,
                "drift decreased from {last} to {} at k={k}",
                report.frequency_drift
            );
            // With fully deterministic types the drift is exactly 2k/40:
            // k/40 of mass left the reference type and arrived in a new one.
            if k < 40 {
                assert!(
                    (report.frequency_drift - 2.0 * k as f64 / 40.0).abs() < 1e-9,
                    "k={k}: {report:?}"
                );
            }
            last = report.frequency_drift;
        }
        // The fully replaced workload is maximally drifted.
        let full = monitor.observe(&ds, &mixed(0, 40), &cfg);
        assert!((full.frequency_drift - 2.0).abs() < 1e-9, "{full:?}");
    }

    #[test]
    fn disappeared_and_new_type_counts_are_symmetric() {
        let ds = data();
        let cfg = TsunamiConfig::fast();
        let monitor_a = WorkloadMonitor::new(&ds, &workload_a(0), &cfg);
        let monitor_b = WorkloadMonitor::new(&ds, &workload_b(), &cfg);
        let a_to_b = monitor_a.observe(&ds, &workload_b(), &cfg);
        let b_to_a = monitor_b.observe(&ds, &workload_a(0), &cfg);
        // Types that disappear going A -> B are exactly the types that are
        // new going B -> A, and vice versa.
        assert_eq!(a_to_b.disappeared_types, b_to_a.new_types);
        assert_eq!(a_to_b.new_types, b_to_a.disappeared_types);
        assert!((a_to_b.frequency_drift - b_to_a.frequency_drift).abs() < 1e-9);
    }
}
