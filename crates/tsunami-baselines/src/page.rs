//! What the paged baselines (Z-order, hyperoctree, k-d tree) share: a page's
//! bounding box, and testing it against a query.

use tsunami_core::{Dataset, Query, Value};

/// Per-dimension `(min, max)` of the given rows of `data`; `(0, 0)` on every
/// dimension when there are none.
pub(crate) fn bounding_box(data: &Dataset, rows: &[usize]) -> Vec<(Value, Value)> {
    (0..data.num_dims())
        .map(|dim| {
            let values = rows.iter().map(|&r| data.get(r, dim));
            let bounds = values.fold(None, |bounds, v| match bounds {
                None => Some((v, v)),
                Some((lo, hi)) => Some((v.min(lo), v.max(hi))),
            });
            bounds.unwrap_or((0, 0))
        })
        .collect()
}

/// Tests a page's bounding box against a query: `None` when the box misses
/// it, else whether the box lies inside it, making the page exact. An
/// inexact page clears `guaranteed` on every dimension whose predicate its
/// box sticks out of.
pub(crate) fn test_page(
    bbox: &[(Value, Value)],
    query: &Query,
    guaranteed: &mut [bool],
) -> Option<bool> {
    let mut contained = true;
    for p in query.predicates() {
        let (lo, hi) = bbox[p.dim];
        if hi < p.lo || lo > p.hi {
            return None;
        }
        if lo < p.lo || hi > p.hi {
            contained = false;
        }
    }
    if !contained {
        for p in query.predicates() {
            let (lo, hi) = bbox[p.dim];
            guaranteed[p.dim] &= p.lo <= lo && hi <= p.hi;
        }
    }
    Some(contained)
}
