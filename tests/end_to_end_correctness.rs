//! Cross-crate integration tests, driven through the `tsunami-engine`
//! facade: every index family in the workspace, registered as a database
//! table, must return exactly the same results as the full-scan oracle on
//! every generated dataset/workload bundle.

use tsunami_core::{TsunamiError, Workload};
use tsunami_index::FloodConfig;
use tsunami_index::TsunamiConfig;
use tsunami_suite::{Database, IndexSpec};
use tsunami_workloads::DatasetBundle;

fn small_bundles() -> Vec<DatasetBundle> {
    DatasetBundle::standard(4_000, 4, 1234)
}

fn database_for(bundle: &DatasetBundle) -> Database {
    let mut db = Database::new();
    for spec in IndexSpec::all_fast() {
        db.create_table(
            spec.label(),
            &bundle.columns,
            bundle.data.clone(),
            &bundle.workload,
            &spec,
        )
        .expect("table builds");
    }
    db
}

#[test]
fn every_index_agrees_with_the_oracle_on_every_bundle() {
    for bundle in small_bundles() {
        let db = database_for(&bundle);
        assert_eq!(db.num_tables(), 7);
        for q in bundle.workload.queries() {
            let expected = q.execute_full_scan(&bundle.data);
            for table in db.tables() {
                assert_eq!(
                    table.execute(q).unwrap(),
                    expected,
                    "{} disagrees with the oracle on {} for {q:?}",
                    table.name(),
                    bundle.name
                );
            }
        }
    }
}

#[test]
fn learned_indexes_scan_fewer_points_than_full_scan() {
    for bundle in small_bundles() {
        let db = database_for(&bundle);
        let avg_scanned = |name: &str| -> f64 {
            let table = db.table(name).unwrap();
            let prepared = table.prepare_workload(&bundle.workload).unwrap();
            let total: usize = prepared
                .iter()
                .map(|q| q.execute_with_stats().1.points)
                .sum();
            total as f64 / prepared.len() as f64
        };
        let t = avg_scanned("Tsunami");
        let f = avg_scanned("Flood");
        let full = bundle.data.len() as f64;
        assert!(
            t < full,
            "{}: Tsunami scans everything ({t} of {full})",
            bundle.name
        );
        assert!(
            f < full,
            "{}: Flood scans everything ({f} of {full})",
            bundle.name
        );
    }
}

#[test]
fn index_sizes_exclude_data_and_stay_below_data_size() {
    // The learned index structures (cell tables, CDF models, tree nodes)
    // must stay well below the size of the data they index. The fast test
    // config still allocates thousands of cells, so we check at a scale where
    // the data is comfortably larger than those fixed layout overheads; at
    // benchmark scale the gap is orders of magnitude (Fig 8).
    let bundle = DatasetBundle::standard(16_000, 4, 1234).remove(0);
    let data_bytes = bundle.data.len() * bundle.data.num_dims() * 8;

    let mut db = Database::new();
    for spec in [
        IndexSpec::Tsunami(TsunamiConfig::fast()),
        IndexSpec::Flood(FloodConfig::fast()),
    ] {
        db.create_table(
            spec.label(),
            &bundle.columns,
            bundle.data.clone(),
            &bundle.workload,
            &spec,
        )
        .unwrap();
    }
    for table in db.tables() {
        assert!(
            table.index().size_bytes() < data_bytes,
            "{} index ({}) should be smaller than the data ({data_bytes})",
            table.name(),
            table.index().size_bytes()
        );
    }
}

#[test]
fn indexes_handle_queries_outside_the_trained_workload() {
    let bundle = &small_bundles()[1]; // Taxi-like, 9 dims.
    let mut db = Database::new();
    let table = db
        .create_table(
            "taxi",
            &bundle.columns,
            bundle.data.clone(),
            &bundle.workload,
            &IndexSpec::Tsunami(TsunamiConfig::fast()),
        )
        .unwrap();

    // Queries with filter shapes never seen during optimization, built
    // through the fluent API against real column names.
    let unseen = vec![
        table.query().range("trip_distance", 0, 100_000).unwrap(),
        table
            .query()
            .range("pickup_time", 0, 1_000_000)
            .unwrap()
            .range("dropoff_zone", 5, 200)
            .unwrap(),
        table.query().eq("passenger_count", 4).unwrap(),
        table.query(),
    ];
    for builder in unseen {
        let q = builder.prepare().unwrap();
        assert_eq!(q.execute(), q.execute_oracle(), "{q:?}");
    }
}

#[test]
fn empty_workload_build_still_answers_queries() {
    let bundle = &small_bundles()[2];
    let mut db = Database::new();
    let table = db
        .create_table(
            "t",
            &bundle.columns,
            bundle.data.clone(),
            &Workload::default(),
            &IndexSpec::Tsunami(TsunamiConfig::fast()),
        )
        .unwrap();
    for q in bundle.workload.queries().iter().take(5) {
        assert_eq!(table.execute(q).unwrap(), q.execute_full_scan(&bundle.data));
    }
}

#[test]
fn facade_rejects_malformed_queries_at_the_boundary() {
    let bundle = &small_bundles()[0];
    let mut db = Database::new();
    let table = db
        .create_table(
            "lineitem",
            &bundle.columns,
            bundle.data.clone(),
            &Workload::default(),
            &IndexSpec::FullScan,
        )
        .unwrap();

    assert!(matches!(
        table.query().range("no_such_column", 0, 1).err(),
        Some(TsunamiError::UnknownColumn(_))
    ));
    assert!(matches!(
        table.query().sum(99usize).err(),
        Some(TsunamiError::DimensionOutOfBounds { dim: 99, .. })
    ));
    assert!(matches!(
        table.query().range(0usize, 10, 2).err(),
        Some(TsunamiError::InvalidPredicate { .. })
    ));
    assert!(matches!(
        db.table("no_such_table").err(),
        Some(TsunamiError::UnknownTable(_))
    ));
}
