//! The paper's Fig 12 ablations, as settings of the index's own knobs: the
//! Augmented-Grid-only ablation is `max_tree_depth: 0` — one region over the
//! whole space, laid out for every clustered sample query.
//!
//! This file used to pin a bug as a "documented quirk": the ablation was a
//! mode that built its one region with no queries, so the region got no grid
//! and every query scanned the whole table (12,000 of 12,000 rows here). Fig
//! 12a's Augmented-Grid-only bar and every "actual" cell of Fig 12b timed a
//! full scan. Both tests below fail on that code.

use tsunami_core::{TsunamiError, Workload};
use tsunami_index::{OptimizerKind, TsunamiConfig, TsunamiIndex};
use tsunami_suite::{Database, IndexSpec, Table};
use tsunami_workloads::perfmon;

const ROWS: usize = 12_000;

/// A table per config over the same skewed Perfmon fixture.
fn perfmon_tables(configs: &[(&str, TsunamiConfig)]) -> Result<(Database, Workload), TsunamiError> {
    let data = perfmon::generate(ROWS, 11);
    let workload = perfmon::workload(&data, 10, 12);
    let mut db = Database::new();
    for (name, config) in configs {
        let spec = IndexSpec::Tsunami(config.clone());
        db.create_table(name, &perfmon::COLUMNS, data.clone(), &workload, &spec)?;
    }
    Ok((db, workload))
}

fn avg_scanned(table: &Table, workload: &Workload) -> Result<f64, TsunamiError> {
    let mut total = 0usize;
    for q in workload.queries() {
        total += table.execute_with_stats(q)?.1.points;
    }
    Ok(total as f64 / workload.len().max(1) as f64)
}

fn gridded_regions(table: &Table) -> usize {
    let index = table.index().as_any().and_then(|a| a.downcast_ref());
    let index: &TsunamiIndex = index.expect("a Tsunami table");
    index.stats().gridded_regions
}

fn one_region(config: TsunamiConfig) -> TsunamiConfig {
    TsunamiConfig {
        max_tree_depth: 0,
        ..config
    }
}

/// Fig 12a: the Augmented Grid alone is a grid — it scans well under the
/// table — and the Grid Tree still earns its place on skewed Perfmon.
#[test]
fn augmented_grid_only_grids_the_whole_space_on_skewed_perfmon() -> Result<(), TsunamiError> {
    let full = TsunamiConfig::fast();
    let (db, workload) = perfmon_tables(&[("ag_only", one_region(full.clone())), ("full", full)])?;
    let ag_only = db.table("ag_only")?;

    assert!(
        gridded_regions(&ag_only) >= 1,
        "no grid over the one region"
    );
    let ag_scanned = avg_scanned(&ag_only, &workload)?;
    assert!(
        ag_scanned < 0.5 * ROWS as f64,
        "AugmentedGrid-only scans {ag_scanned:.0} of {ROWS} points per query"
    );
    let full_scanned = avg_scanned(&db.table("full")?, &workload)?;
    assert!(
        full_scanned < ag_scanned,
        "full Tsunami ({full_scanned:.0} points/query) no longer beats the \
         AugmentedGrid-only ablation ({ag_scanned:.0}) on skewed Perfmon"
    );
    Ok(())
}

/// Fig 12b: each Augmented-Grid optimizer's "actual" cell measures the grid
/// it chose, not a full scan.
#[test]
fn every_fig12b_optimizer_grids_the_whole_space() -> Result<(), TsunamiError> {
    let kinds = [
        ("AGD", OptimizerKind::Adaptive),
        ("GD", OptimizerKind::GradientOnly),
        ("AGD-NI", OptimizerKind::AdaptiveNaiveInit),
        ("BlackBox", OptimizerKind::BlackBox),
    ];
    let configs =
        kinds.map(|(name, kind)| (name, one_region(TsunamiConfig::fast().with_optimizer(kind))));
    let (db, workload) = perfmon_tables(&configs)?;
    for (name, _) in kinds {
        let table = db.table(name)?;
        assert!(
            gridded_regions(&table) >= 1,
            "{name}: no grid over the one region"
        );
        let scanned = avg_scanned(&table, &workload)?;
        assert!(
            scanned < ROWS as f64,
            "{name}: scans {scanned:.0} of {ROWS} points per query"
        );
    }
    Ok(())
}
