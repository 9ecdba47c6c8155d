//! "`plan()` is cheap by construction", held as a count: the heap
//! allocations one `TsunamiIndex::plan` call makes.
//!
//! Planning hands regions to a callback and cells straight into the plan, out
//! of one scratch per call, so what a call allocates is the scratch (twice),
//! the residual predicates (once) and the growth of the plan's own `ranges`
//! and `partials` vectors — nothing per region reached and nothing per grid
//! planned. Before, every region reached cost a `Vec` push in the descent and
//! every grid six `Vec`s: over the benchmark's 2,000 `olap_selective` queries
//! (100k rows) a plan allocated 83 times on average and 208 at most.
//!
//! Its own test binary: the counting allocator is process-wide. The counter is
//! per thread, so the harness's own threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tsunami_core::{MultiDimIndex, Query};
use tsunami_index::{TsunamiConfig, TsunamiIndex};
use tsunami_workloads::tpch;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialized thread-local `Cell` without a destructor, so touching it
// neither allocates nor runs after thread-local teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) this thread makes while running `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocations a `Vec` makes while it is pushed to `len` elements: the first
/// push takes four slots, every later one doubles them.
fn growth(len: usize) -> usize {
    match len {
        0 => 0,
        _ => 1 + len.div_ceil(4).next_power_of_two().trailing_zeros() as usize,
    }
}

/// The most a `plan()` call may allocate beyond the growth of its plan's
/// `ranges` and `partials`: the cell scratch's two vectors, one doubling of
/// its cell list, and the residual predicates.
const FIXED_ALLOCATIONS: usize = 4;

/// The most a `plan()` call may allocate, all told: the above, five doublings
/// of `ranges` (to 64) and three of `partials` (to 16). Measured here: 6 to 9.
const MAX_ALLOCATIONS: usize = 12;

struct Probe {
    query: Query,
    regions: usize,
    allocations: usize,
    growth: usize,
}

#[test]
fn plan_allocations_do_not_follow_the_regions_or_grids_a_query_reaches() {
    let base = tpch::generate(40_000, 61);
    let index =
        TsunamiIndex::build(&base, &tpch::workload(&base, 8, 62), &TsunamiConfig::fast()).unwrap();
    let tree = index.grid_tree();

    let mut probes: Vec<Probe> = Vec::new();
    for query in tpch::workload(&base, 200, 63).queries() {
        let (mut regions, mut gridded) = (0, 0);
        tree.for_each_region(query, |rid, _| {
            regions += 1;
            gridded += usize::from(index.region_grid(rid).is_some());
        });
        if regions < 50 || gridded < 4 {
            continue;
        }
        // The first plan folds the cube entries of the regions it covers.
        index.plan(query);
        let (plan, allocations) = allocations_in(|| index.plan(query));
        probes.push(Probe {
            query: query.clone(),
            regions,
            allocations,
            growth: growth(plan.num_ranges()) + growth(plan.partials().len()),
        });
    }
    assert!(probes.len() >= 20, "only {} probes qualify", probes.len());

    for p in &probes {
        assert!(
            p.allocations <= MAX_ALLOCATIONS && p.allocations <= FIXED_ALLOCATIONS + p.growth,
            "{} allocations ({} are growth of the plan) over {} regions: {:?}",
            p.allocations,
            p.growth,
            p.regions,
            p.query
        );
    }
    // From the probe reaching the fewest regions to the one reaching the
    // most, a plan allocates no more than its own vectors doubled (and the
    // scratch's cell list once).
    let fewest = probes.iter().min_by_key(|p| p.regions).unwrap();
    let most = probes.iter().max_by_key(|p| p.regions).unwrap();
    assert!(most.regions >= 2 * fewest.regions);
    assert!(
        most.allocations.abs_diff(fewest.allocations) <= most.growth.abs_diff(fewest.growth) + 1,
        "{} regions: {} allocations; {} regions: {}",
        fewest.regions,
        fewest.allocations,
        most.regions,
        most.allocations
    );
}
