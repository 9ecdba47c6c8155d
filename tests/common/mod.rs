//! Shared by the differential suites.

use tsunami_core::MultiDimIndex;
use tsunami_index::TsunamiIndex;

/// Asserts that a Tsunami index still has Augmented Grids to plan through
/// (any other index family passes). Regions under the layout granularity
/// floor are plain region scans, and a fixture made only of those would
/// silently stop exercising the grid planner — grow the fixture instead.
pub fn assert_grids_if_tsunami(index: &dyn MultiDimIndex, label: &str) {
    let tsunami = index
        .as_any()
        .and_then(|any| any.downcast_ref::<TsunamiIndex>());
    if let Some(tsunami) = tsunami {
        let stats = tsunami.stats();
        assert!(
            stats.total_grid_cells > 0,
            "{label}: no region earned a grid: {stats:?}"
        );
    }
}
