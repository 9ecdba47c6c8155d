//! The query model: conjunctions of range predicates feeding an aggregation.
//!
//! Tsunami accelerates queries of the form (§2):
//!
//! ```sql
//! SELECT SUM(R.X) FROM MyTable WHERE (a <= R.Y <= b) AND (c <= R.Z <= d)
//! ```
//!
//! A [`Query`] is a set of per-dimension inclusive range [`Predicate`]s plus an
//! [`Aggregation`]. Equality filters are ranges with `lo == hi`.

use std::fmt;

use crate::dataset::{Dataset, Point, Value};
use crate::error::{Result, TsunamiError};

/// An inclusive range filter over a single dimension: `lo <= value <= hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Predicate {
    /// Dimension the filter applies to.
    pub dim: usize,
    /// Inclusive lower bound.
    pub lo: Value,
    /// Inclusive upper bound.
    pub hi: Value,
}

impl Predicate {
    /// Creates a range predicate, validating `lo <= hi`.
    pub fn range(dim: usize, lo: Value, hi: Value) -> Result<Self> {
        if lo > hi {
            return Err(TsunamiError::InvalidPredicate { dim, lo, hi });
        }
        Ok(Self { dim, lo, hi })
    }

    /// Creates an equality predicate (`value == v`).
    pub fn eq(dim: usize, v: Value) -> Self {
        Self { dim, lo: v, hi: v }
    }

    /// Whether a value satisfies this predicate.
    ///
    /// Branchless on purpose: the two compares are folded with a
    /// non-short-circuiting `&`, so this compiles to straight-line compare
    /// arithmetic the vectorized kernels can lift into SIMD lanes. This sits
    /// in the innermost loop of every non-exact scan.
    #[inline(always)]
    pub fn matches(&self, v: Value) -> bool {
        (self.lo <= v) & (v <= self.hi)
    }

    /// The width of the filter range (inclusive), saturating at `u64::MAX`.
    pub fn width(&self) -> u64 {
        (self.hi - self.lo).saturating_add(1)
    }
}

/// The aggregation a query performs over matching records.
///
/// All indexes pay the same aggregation cost, so the paper evaluates with
/// `COUNT`; the other aggregations are provided for API completeness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// `COUNT(*)`.
    Count,
    /// `SUM(column)` over the given dimension.
    Sum(usize),
    /// `MIN(column)` over the given dimension.
    Min(usize),
    /// `MAX(column)` over the given dimension.
    Max(usize),
    /// `AVG(column)` over the given dimension.
    Avg(usize),
}

impl Aggregation {
    /// The dimension whose values the aggregation needs, if any.
    pub fn input_dim(&self) -> Option<usize> {
        match self {
            Aggregation::Count => None,
            Aggregation::Sum(d)
            | Aggregation::Min(d)
            | Aggregation::Max(d)
            | Aggregation::Avg(d) => Some(*d),
        }
    }
}

/// The result of executing a query's aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggResult {
    /// Result of a `COUNT`.
    Count(u64),
    /// Result of a `SUM` (wide accumulator to avoid overflow).
    Sum(u128),
    /// Result of a `MIN`; `None` when no record matched.
    Min(Option<Value>),
    /// Result of a `MAX`; `None` when no record matched.
    Max(Option<Value>),
    /// Result of an `AVG`; `None` when no record matched.
    Avg(Option<f64>),
}

impl AggResult {
    /// The `COUNT` value, or `None` for other variants.
    pub fn as_count(&self) -> Option<u64> {
        match self {
            AggResult::Count(c) => Some(*c),
            _ => None,
        }
    }

    /// The `SUM` value, or `None` for other variants.
    pub fn as_sum(&self) -> Option<u128> {
        match self {
            AggResult::Sum(s) => Some(*s),
            _ => None,
        }
    }

    /// The `MIN` value, or `None` for other variants. The inner `Option` is
    /// `None` when no record matched the query.
    pub fn as_min(&self) -> Option<Option<Value>> {
        match self {
            AggResult::Min(m) => Some(*m),
            _ => None,
        }
    }

    /// The `MAX` value, or `None` for other variants. The inner `Option` is
    /// `None` when no record matched the query.
    pub fn as_max(&self) -> Option<Option<Value>> {
        match self {
            AggResult::Max(m) => Some(*m),
            _ => None,
        }
    }

    /// The `AVG` value, or `None` for other variants. The inner `Option` is
    /// `None` when no record matched the query.
    pub fn as_avg(&self) -> Option<Option<f64>> {
        match self {
            AggResult::Avg(a) => Some(*a),
            _ => None,
        }
    }
}

impl fmt::Display for AggResult {
    /// Renders the result as `KIND=value`, with `NULL` for aggregations over
    /// zero matching records (e.g. `COUNT=42`, `MIN=NULL`, `AVG=3.5`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggResult::Count(c) => write!(f, "COUNT={c}"),
            AggResult::Sum(s) => write!(f, "SUM={s}"),
            AggResult::Min(Some(v)) => write!(f, "MIN={v}"),
            AggResult::Min(None) => write!(f, "MIN=NULL"),
            AggResult::Max(Some(v)) => write!(f, "MAX={v}"),
            AggResult::Max(None) => write!(f, "MAX=NULL"),
            AggResult::Avg(Some(a)) => write!(f, "AVG={a}"),
            AggResult::Avg(None) => write!(f, "AVG=NULL"),
        }
    }
}

/// Incremental accumulator used by scan loops to compute an [`AggResult`].
#[derive(Debug, Clone)]
pub struct AggAccumulator {
    agg: Aggregation,
    count: u64,
    sum: u128,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggAccumulator {
    /// Creates a fresh accumulator for the given aggregation.
    pub fn new(agg: Aggregation) -> Self {
        Self {
            agg,
            count: 0,
            sum: 0,
            min: None,
            max: None,
        }
    }

    /// Adds a matching record. `agg_value` is the value of the aggregation's
    /// input dimension for this record (ignored for `COUNT`).
    #[inline]
    pub fn add(&mut self, agg_value: Value) {
        self.count += 1;
        match self.agg {
            Aggregation::Count => {}
            Aggregation::Sum(_) | Aggregation::Avg(_) => self.sum += agg_value as u128,
            Aggregation::Min(_) => {
                self.min = Some(self.min.map_or(agg_value, |m| m.min(agg_value)));
            }
            Aggregation::Max(_) => {
                self.max = Some(self.max.map_or(agg_value, |m| m.max(agg_value)));
            }
        }
    }

    /// Adds `n` matching records whose aggregation inputs sum to `sum`.
    /// Used by exact-range scans that can aggregate without visiting rows.
    #[inline]
    pub fn add_bulk(&mut self, n: u64, sum: u128) {
        self.count += n;
        match self.agg {
            Aggregation::Sum(_) | Aggregation::Avg(_) => self.sum += sum,
            _ => {}
        }
    }

    /// Adds a whole pre-aggregated block of `n` matching records: their sum
    /// (for `SUM`/`AVG`) and their extreme values (for `MIN`/`MAX`). Used by
    /// the vectorized kernels, which reduce each block before touching the
    /// accumulator. A zero-row block is a no-op.
    #[inline]
    pub fn add_block(&mut self, n: u64, sum: u128, min: Option<Value>, max: Option<Value>) {
        if n == 0 {
            return;
        }
        self.count += n;
        match self.agg {
            Aggregation::Count => {}
            Aggregation::Sum(_) | Aggregation::Avg(_) => self.sum += sum,
            Aggregation::Min(_) => {
                self.min = match (self.min, min) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            Aggregation::Max(_) => {
                self.max = match (self.max, max) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
            }
        }
    }

    /// Merges another accumulator (for the same aggregation) into this one.
    pub fn merge(&mut self, other: &AggAccumulator) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Number of records accumulated so far.
    pub fn matched(&self) -> u64 {
        self.count
    }

    /// The running `(MIN, MAX)` so far; each is `Some` only under its own
    /// aggregation, once a record was folded.
    pub(crate) fn extremes(&self) -> (Option<Value>, Option<Value>) {
        (self.min, self.max)
    }

    /// Finalizes the accumulator into a result.
    pub fn finish(&self) -> AggResult {
        match self.agg {
            Aggregation::Count => AggResult::Count(self.count),
            Aggregation::Sum(_) => AggResult::Sum(self.sum),
            Aggregation::Min(_) => AggResult::Min(self.min),
            Aggregation::Max(_) => AggResult::Max(self.max),
            Aggregation::Avg(_) => AggResult::Avg(if self.count == 0 {
                None
            } else {
                Some(self.sum as f64 / self.count as f64)
            }),
        }
    }
}

/// A conjunctive range query with an aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    predicates: Vec<Predicate>,
    aggregation: Aggregation,
}

impl Query {
    /// Creates a query from predicates and an aggregation.
    ///
    /// Predicates are normalized: at most one predicate per dimension is kept
    /// (multiple predicates on one dimension are intersected) and they are
    /// sorted by dimension.
    pub fn new(predicates: Vec<Predicate>, aggregation: Aggregation) -> Result<Self> {
        let mut by_dim: Vec<Predicate> = Vec::with_capacity(predicates.len());
        for p in predicates {
            if p.lo > p.hi {
                return Err(TsunamiError::InvalidPredicate {
                    dim: p.dim,
                    lo: p.lo,
                    hi: p.hi,
                });
            }
            match by_dim.iter_mut().find(|q| q.dim == p.dim) {
                Some(existing) => {
                    existing.lo = existing.lo.max(p.lo);
                    existing.hi = existing.hi.min(p.hi);
                    if existing.lo > existing.hi {
                        return Err(TsunamiError::InvalidPredicate {
                            dim: p.dim,
                            lo: existing.lo,
                            hi: existing.hi,
                        });
                    }
                }
                None => by_dim.push(p),
            }
        }
        by_dim.sort_by_key(|p| p.dim);
        Ok(Self {
            predicates: by_dim,
            aggregation,
        })
    }

    /// Creates a `COUNT(*)` query from predicates.
    pub fn count(predicates: Vec<Predicate>) -> Result<Self> {
        Self::new(predicates, Aggregation::Count)
    }

    /// The query's predicates, sorted by dimension.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// The query's aggregation.
    pub fn aggregation(&self) -> Aggregation {
        self.aggregation
    }

    /// Validates that every predicate dimension and the aggregation's input
    /// dimension fall inside a `num_dims`-dimensional dataset.
    ///
    /// `Query` itself is dataset-agnostic (it can be built before any table
    /// exists), so this is the boundary check engine paths run before
    /// executing: it turns the out-of-bounds cases that scan paths would
    /// otherwise silently treat as non-matching (see [`Query::matches_point`])
    /// or panic on (aggregation input column lookups) into
    /// [`TsunamiError::DimensionOutOfBounds`].
    pub fn validate_dims(&self, num_dims: usize) -> Result<()> {
        for p in &self.predicates {
            if p.dim >= num_dims {
                return Err(TsunamiError::DimensionOutOfBounds {
                    dim: p.dim,
                    num_dims,
                });
            }
        }
        if let Some(dim) = self.aggregation.input_dim() {
            if dim >= num_dims {
                return Err(TsunamiError::DimensionOutOfBounds { dim, num_dims });
            }
        }
        Ok(())
    }

    /// The predicate on a particular dimension, if the query filters it.
    pub fn predicate_on(&self, dim: usize) -> Option<&Predicate> {
        self.predicates.iter().find(|p| p.dim == dim)
    }

    /// The set of dimensions this query filters, in ascending order.
    pub fn filtered_dims(&self) -> Vec<usize> {
        self.predicates.iter().map(|p| p.dim).collect()
    }

    /// Number of filtered dimensions.
    pub fn num_filtered_dims(&self) -> usize {
        self.predicates.len()
    }

    /// Whether a point satisfies every predicate.
    ///
    /// A predicate on a dimension the point does not have never matches.
    /// Callers that want such queries rejected instead of silently returning
    /// empty results should run [`Query::validate_dims`] first (the engine
    /// facade does this for every query it prepares).
    #[inline]
    pub fn matches_point(&self, point: &[Value]) -> bool {
        self.predicates
            .iter()
            .all(|p| p.dim < point.len() && p.matches(point[p.dim]))
    }

    /// Fraction of dataset rows matching this query, computed exactly by a
    /// full scan. Useful in tests and for reporting workload selectivities.
    pub fn exact_selectivity(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut matched = 0usize;
        for r in 0..data.len() {
            if self
                .predicates
                .iter()
                .all(|p| p.matches(data.get(r, p.dim)))
            {
                matched += 1;
            }
        }
        matched as f64 / data.len() as f64
    }

    /// Per-dimension selectivity of the query's predicate over a dataset,
    /// i.e. the fraction of rows whose value in `dim` satisfies the filter.
    /// Returns 1.0 for unfiltered dimensions. This is the embedding used for
    /// query-type clustering (§4.3.1).
    pub fn dim_selectivity(&self, data: &Dataset, dim: usize) -> f64 {
        match self.predicate_on(dim) {
            None => 1.0,
            Some(p) => {
                if data.is_empty() {
                    return 1.0;
                }
                let col = data.column(dim);
                let matched = col.iter().filter(|&&v| p.matches(v)).count();
                matched as f64 / col.len() as f64
            }
        }
    }

    /// Reference full-scan execution of the query over a dataset. This is the
    /// correctness oracle all indexes are tested against.
    pub fn execute_full_scan(&self, data: &Dataset) -> AggResult {
        let mut acc = AggAccumulator::new(self.aggregation);
        let agg_dim = self.aggregation.input_dim().unwrap_or(0);
        for r in 0..data.len() {
            if self
                .predicates
                .iter()
                .all(|p| p.matches(data.get(r, p.dim)))
            {
                acc.add(data.get(r, agg_dim));
            }
        }
        acc.finish()
    }

    /// A point contained in the query rectangle's lower corner, with
    /// unfiltered dimensions set to 0. Useful for Z-order range computation.
    pub fn lower_corner(&self, num_dims: usize) -> Point {
        let mut p = vec![Value::MIN; num_dims];
        for pred in &self.predicates {
            if pred.dim < num_dims {
                p[pred.dim] = pred.lo;
            }
        }
        p
    }

    /// A point containing the query rectangle's upper corner, with unfiltered
    /// dimensions set to `u64::MAX`.
    pub fn upper_corner(&self, num_dims: usize) -> Point {
        let mut p = vec![Value::MAX; num_dims];
        for pred in &self.predicates {
            if pred.dim < num_dims {
                p[pred.dim] = pred.hi;
            }
        }
        p
    }
}

/// A set of queries, typically a sampled workload used for optimization or a
/// benchmark run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Workload {
    queries: Vec<Query>,
}

impl Workload {
    /// Creates a workload from a list of queries.
    pub fn new(queries: Vec<Query>) -> Self {
        Self { queries }
    }

    /// The queries in this workload.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the workload has no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Adds a query.
    pub fn push(&mut self, q: Query) {
        self.queries.push(q);
    }

    /// Appends all queries from another workload.
    pub fn extend(&mut self, other: &Workload) {
        self.queries.extend(other.queries.iter().cloned());
    }

    /// Average exact selectivity of the workload over a dataset.
    pub fn average_selectivity(&self, data: &Dataset) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries
            .iter()
            .map(|q| q.exact_selectivity(data))
            .sum::<f64>()
            / self.queries.len() as f64
    }

    /// Splits the workload into the groups of queries that filter exactly the
    /// same set of dimensions. This is the first stage of query-type
    /// clustering (§4.3.1).
    pub fn group_by_filtered_dims(&self) -> Vec<Vec<Query>> {
        let mut groups: Vec<(Vec<usize>, Vec<Query>)> = Vec::new();
        for q in &self.queries {
            let dims = q.filtered_dims();
            match groups.iter_mut().find(|(d, _)| *d == dims) {
                Some((_, qs)) => qs.push(q.clone()),
                None => groups.push((dims, vec![q.clone()])),
            }
        }
        groups.into_iter().map(|(_, qs)| qs).collect()
    }
}

impl FromIterator<Query> for Workload {
    fn from_iter<T: IntoIterator<Item = Query>>(iter: T) -> Self {
        Workload::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        // dim0: 0..10, dim1: 0,10,20,...,90
        Dataset::from_columns(vec![
            (0..10u64).collect(),
            (0..10u64).map(|v| v * 10).collect(),
        ])
        .unwrap()
    }

    #[test]
    fn predicate_matching_and_width() {
        let p = Predicate::range(0, 3, 7).unwrap();
        assert!(p.matches(3) && p.matches(7) && p.matches(5));
        assert!(!p.matches(2) && !p.matches(8));
        assert_eq!(p.width(), 5);
        assert_eq!(Predicate::eq(1, 4).width(), 1);
        assert!(Predicate::range(0, 7, 3).is_err());
    }

    #[test]
    fn query_normalizes_predicates() {
        let q = Query::count(vec![
            Predicate::range(1, 0, 50).unwrap(),
            Predicate::range(0, 2, 8).unwrap(),
            Predicate::range(1, 20, 90).unwrap(),
        ])
        .unwrap();
        assert_eq!(q.filtered_dims(), vec![0, 1]);
        let p1 = q.predicate_on(1).unwrap();
        assert_eq!((p1.lo, p1.hi), (20, 50));
        // Conflicting predicates on a dimension are rejected.
        assert!(Query::count(vec![
            Predicate::range(0, 0, 2).unwrap(),
            Predicate::range(0, 5, 9).unwrap(),
        ])
        .is_err());
    }

    #[test]
    fn full_scan_count_and_selectivity() {
        let ds = data();
        let q = Query::count(vec![Predicate::range(0, 2, 5).unwrap()]).unwrap();
        assert_eq!(q.execute_full_scan(&ds), AggResult::Count(4));
        assert!((q.exact_selectivity(&ds) - 0.4).abs() < 1e-9);
        assert!((q.dim_selectivity(&ds, 0) - 0.4).abs() < 1e-9);
        assert_eq!(q.dim_selectivity(&ds, 1), 1.0);
    }

    #[test]
    fn full_scan_aggregations() {
        let ds = data();
        let preds = vec![Predicate::range(0, 2, 5).unwrap()];
        let sum = Query::new(preds.clone(), Aggregation::Sum(1)).unwrap();
        assert_eq!(
            sum.execute_full_scan(&ds),
            AggResult::Sum(20 + 30 + 40 + 50)
        );
        let min = Query::new(preds.clone(), Aggregation::Min(1)).unwrap();
        assert_eq!(min.execute_full_scan(&ds), AggResult::Min(Some(20)));
        let max = Query::new(preds.clone(), Aggregation::Max(1)).unwrap();
        assert_eq!(max.execute_full_scan(&ds), AggResult::Max(Some(50)));
        let avg = Query::new(preds, Aggregation::Avg(1)).unwrap();
        assert_eq!(avg.execute_full_scan(&ds), AggResult::Avg(Some(35.0)));
    }

    #[test]
    fn empty_match_aggregations() {
        let ds = data();
        let preds = vec![Predicate::range(0, 100, 200).unwrap()];
        let min = Query::new(preds.clone(), Aggregation::Min(1)).unwrap();
        assert_eq!(min.execute_full_scan(&ds), AggResult::Min(None));
        let avg = Query::new(preds, Aggregation::Avg(1)).unwrap();
        assert_eq!(avg.execute_full_scan(&ds), AggResult::Avg(None));
    }

    #[test]
    fn accumulator_merge_matches_sequential() {
        let mut a = AggAccumulator::new(Aggregation::Sum(0));
        let mut b = AggAccumulator::new(Aggregation::Sum(0));
        let mut whole = AggAccumulator::new(Aggregation::Sum(0));
        for v in 0..100u64 {
            whole.add(v);
            if v < 50 {
                a.add(v);
            } else {
                b.add(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.finish(), whole.finish());
        assert_eq!(a.matched(), 100);
    }

    #[test]
    fn accumulator_bulk_add() {
        let mut acc = AggAccumulator::new(Aggregation::Count);
        acc.add_bulk(10, 0);
        acc.add(0);
        assert_eq!(acc.finish(), AggResult::Count(11));

        let mut acc = AggAccumulator::new(Aggregation::Sum(0));
        acc.add_bulk(3, 60);
        assert_eq!(acc.finish(), AggResult::Sum(60));
    }

    #[test]
    fn corners_cover_query_rectangle() {
        let q = Query::count(vec![Predicate::range(1, 5, 9).unwrap()]).unwrap();
        assert_eq!(q.lower_corner(3), vec![0, 5, 0]);
        assert_eq!(q.upper_corner(3), vec![u64::MAX, 9, u64::MAX]);
    }

    #[test]
    fn workload_grouping_by_filtered_dims() {
        let q1 = Query::count(vec![Predicate::eq(0, 1)]).unwrap();
        let q2 = Query::count(vec![Predicate::eq(0, 5)]).unwrap();
        let q3 = Query::count(vec![Predicate::eq(1, 5)]).unwrap();
        let w = Workload::new(vec![q1, q2, q3]);
        let groups = w.group_by_filtered_dims();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), 3);
    }

    #[test]
    fn workload_average_selectivity() {
        let ds = data();
        let w = Workload::new(vec![
            Query::count(vec![Predicate::range(0, 0, 4).unwrap()]).unwrap(),
            Query::count(vec![Predicate::range(0, 0, 9).unwrap()]).unwrap(),
        ]);
        assert!((w.average_selectivity(&ds) - 0.75).abs() < 1e-9);
        assert!(Workload::default().is_empty());
    }

    #[test]
    fn agg_result_non_panicking_accessors() {
        assert_eq!(AggResult::Count(7).as_count(), Some(7));
        assert_eq!(AggResult::Sum(9).as_count(), None);
        assert_eq!(AggResult::Sum(9).as_sum(), Some(9));
        assert_eq!(AggResult::Count(7).as_sum(), None);
        assert_eq!(AggResult::Min(Some(3)).as_min(), Some(Some(3)));
        assert_eq!(AggResult::Min(None).as_min(), Some(None));
        assert_eq!(AggResult::Count(7).as_min(), None);
        assert_eq!(AggResult::Max(Some(5)).as_max(), Some(Some(5)));
        assert_eq!(AggResult::Count(7).as_max(), None);
        assert_eq!(AggResult::Avg(Some(1.5)).as_avg(), Some(Some(1.5)));
        assert_eq!(AggResult::Sum(9).as_avg(), None);
    }

    #[test]
    fn agg_result_display() {
        assert_eq!(AggResult::Count(42).to_string(), "COUNT=42");
        assert_eq!(AggResult::Sum(123).to_string(), "SUM=123");
        assert_eq!(AggResult::Min(Some(17)).to_string(), "MIN=17");
        assert_eq!(AggResult::Min(None).to_string(), "MIN=NULL");
        assert_eq!(AggResult::Max(Some(9)).to_string(), "MAX=9");
        assert_eq!(AggResult::Avg(Some(3.5)).to_string(), "AVG=3.5");
        assert_eq!(AggResult::Avg(None).to_string(), "AVG=NULL");
    }

    #[test]
    fn validate_dims_catches_out_of_bounds_references() {
        let q = Query::count(vec![Predicate::range(0, 2, 5).unwrap()]).unwrap();
        assert!(q.validate_dims(1).is_ok());

        let q = Query::count(vec![Predicate::range(3, 2, 5).unwrap()]).unwrap();
        assert_eq!(
            q.validate_dims(2),
            Err(TsunamiError::DimensionOutOfBounds {
                dim: 3,
                num_dims: 2
            })
        );

        let q = Query::new(vec![], Aggregation::Sum(5)).unwrap();
        assert_eq!(
            q.validate_dims(4),
            Err(TsunamiError::DimensionOutOfBounds {
                dim: 5,
                num_dims: 4
            })
        );
        assert!(q.validate_dims(6).is_ok());
    }
}
