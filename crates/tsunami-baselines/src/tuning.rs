//! Page-size tuning for the non-learned baselines.
//!
//! The paper tunes the page size of each traditional index to achieve its
//! best performance on each dataset/workload (§6.3: "we tuned the page size
//! to achieve best performance"), so the learned-vs-non-learned comparison is
//! against *optimally tuned* baselines. This module reproduces that tuning by
//! building the index at several page sizes and measuring the actual average
//! query latency over the sample workload.

use std::time::Instant;

use tsunami_core::{Dataset, MultiDimIndex, Workload};

/// The default grid of candidate page sizes.
pub const DEFAULT_PAGE_SIZES: &[usize] = &[64, 256, 1024, 4096, 16384];

/// Result of tuning: the winning index, its page size and the measured
/// average query latency (seconds) for every candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningResult<I> {
    /// The index built at the winning page size.
    pub index: I,
    /// The page size with the lowest measured average query latency.
    pub best_page_size: usize,
    /// `(page_size, average_query_seconds)` for every candidate tried.
    pub measurements: Vec<(usize, f64)>,
}

/// Tunes the page size of an index family by building it at each candidate
/// page size and measuring average query latency on the workload.
///
/// `build` constructs the index for a given page size. The winning build is
/// handed back as [`TuningResult::index`], so the caller never builds it a
/// second time; while the candidates are tried, the best so far and the
/// one being measured are both held.
pub fn tune_page_size<I, F>(
    data: &Dataset,
    workload: &Workload,
    candidates: &[usize],
    mut build: F,
) -> TuningResult<I>
where
    I: MultiDimIndex,
    F: FnMut(&Dataset, &Workload, usize) -> I,
{
    assert!(
        !candidates.is_empty(),
        "need at least one candidate page size"
    );
    let mut measurements = Vec::with_capacity(candidates.len());
    let mut best: Option<(I, usize, f64)> = None;
    for &page_size in candidates {
        let index = build(data, workload, page_size);
        let avg = measure_average_latency(&index, workload);
        measurements.push((page_size, avg));
        if best.as_ref().is_none_or(|&(_, _, best_avg)| avg < best_avg) {
            best = Some((index, page_size, avg));
        }
    }
    let (index, best_page_size, _) = best.expect("at least one candidate");
    TuningResult {
        index,
        best_page_size,
        measurements,
    }
}

/// Measures the average per-query latency (seconds) of an index over a
/// workload.
fn measure_average_latency<I: MultiDimIndex>(index: &I, workload: &Workload) -> f64 {
    if workload.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    for q in workload.queries() {
        std::hint::black_box(index.execute(q));
    }
    start.elapsed().as_secs_f64() / workload.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kdtree::KdTree;
    use crate::octree::HyperOctree;
    use crate::zorder::ZOrderIndex;
    use tsunami_core::sample::SplitMix;
    use tsunami_core::{Predicate, Query};

    fn data(n: usize) -> Dataset {
        let mut rng = SplitMix::new(61);
        Dataset::from_columns(vec![
            (0..n).map(|_| rng.next_below(10_000)).collect(),
            (0..n).map(|_| rng.next_below(10_000)).collect(),
        ])
        .unwrap()
    }

    fn workload() -> Workload {
        let mut rng = SplitMix::new(62);
        Workload::new(
            (0..10)
                .map(|_| {
                    let lo = rng.next_below(9_000);
                    Query::count(vec![Predicate::range(0, lo, lo + 500).unwrap()]).unwrap()
                })
                .collect(),
        )
    }

    #[test]
    fn tuning_tries_every_candidate_and_picks_a_winner() {
        let ds = data(3_000);
        let w = workload();
        let result = tune_page_size(&ds, &w, &[64, 512, 2048], |d, wl, ps| {
            KdTree::build(d, wl, ps)
        });
        assert_eq!(result.measurements.len(), 3);
        assert!([64, 512, 2048].contains(&result.best_page_size));
        let best_measure = result
            .measurements
            .iter()
            .find(|(p, _)| *p == result.best_page_size)
            .unwrap()
            .1;
        assert!(result.measurements.iter().all(|&(_, m)| m >= best_measure));
    }

    /// The tuned index must be the build at the winning page size: the
    /// same plan for every query and the same size.
    fn assert_keeps_the_winner<I, F>(build: F)
    where
        I: MultiDimIndex,
        F: Fn(&Dataset, &Workload, usize) -> I,
    {
        let ds = data(3_000);
        let w = workload();
        let tuned = tune_page_size(&ds, &w, &[64, 512, 2048], &build);
        let rebuilt = build(&ds, &w, tuned.best_page_size);
        assert_eq!(tuned.index.size_bytes(), rebuilt.size_bytes());
        let wide = Query::count(vec![Predicate::range(1, 100, 6_000).unwrap()]).unwrap();
        for q in w.queries().iter().chain([&wide]) {
            assert_eq!(tuned.index.plan(q), rebuilt.plan(q), "{q:?}");
        }
    }

    #[test]
    fn tuning_keeps_the_winning_build() {
        assert_keeps_the_winner(KdTree::build);
        assert_keeps_the_winner(ZOrderIndex::build);
        assert_keeps_the_winner(HyperOctree::build);
    }

    #[test]
    fn latency_measurement_is_positive_for_real_work() {
        let ds = data(2_000);
        let w = workload();
        let tree = KdTree::build(&ds, &w, 256);
        assert!(measure_average_latency(&tree, &w) > 0.0);
        assert_eq!(measure_average_latency(&tree, &Workload::default()), 0.0);
    }
}
