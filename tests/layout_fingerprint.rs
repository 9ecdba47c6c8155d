//! Every learned layout, pinned: the four standard datasets at 20k rows,
//! each built by the experiment harness's Tsunami configuration, its two
//! Fig 12a ablations and the harness's Flood. A change that claims "no
//! layout change" leaves this table unedited; one that moves a layout on
//! purpose edits the row it moved and says why.
//!
//! Pinned per (dataset, config): the index's shape (for Tsunami the
//! `TsunamiStats` counts, for Flood its cell count), the mean models per
//! region, `size_bytes`, the workload's total ranges and points, and an
//! FNV-1a digest of every query's `(ranges, points)` in workload order. A
//! mismatch prints the row as it now reads and, when the scans moved, each
//! query's counters, to diff against the same output of the parent build.

use tsunami_core::{CostModel, Dataset, MultiDimIndex, Workload};
use tsunami_index::{FloodConfig, FloodIndex, OptimizerKind, TsunamiConfig, TsunamiIndex};
use tsunami_workloads::DatasetBundle;

/// One pinned build.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    /// Tsunami: tree nodes, depth, leaf regions, gridded regions, min /
    /// median / max points per region, grid cells. Flood: its cell count.
    shape: Vec<usize>,
    /// Tsunami's mean functional mappings and conditional CDFs per indexed
    /// region; `(0.0, 0.0)` for Flood.
    models: (f64, f64),
    size_bytes: usize,
    ranges: usize,
    points: usize,
    digest: u64,
}

/// `(dataset, config, shape, models, size_bytes, (ranges, points), digest)`.
type Pin = (
    &'static str,
    &'static str,
    &'static [usize],
    (f64, f64),
    usize,
    (usize, usize),
    u64,
);

/// Recorded at the parent of the change that added this test.
#[rustfmt::skip]
const PINNED: &[Pin] = &[
    ("TPC-H", "Tsunami", &[103, 2, 99, 8, 0, 0, 4723, 50], (1.875, 3.75), 21708, (641, 525374), 0xc743639394e3026d),
    ("TPC-H", "AugmentedGrid-only", &[1, 0, 1, 1, 20000, 20000, 20000, 72], (2.0, 3.0), 1252, (1248, 453673), 0x45d4578ee69efe08),
    ("TPC-H", "GridTree-only", &[103, 2, 99, 8, 0, 0, 4723, 50], (0.0, 0.0), 21180, (519, 698930), 0x6ac59d562d02f512),
    ("TPC-H", "Flood", &[26208], (0.0, 0.0), 212760, (535, 443980), 0x19f18b743031f996),
    ("Taxi", "Tsunami", &[540, 2, 511, 15, 0, 4, 2522, 46], (1.7333333333333334, 2.2), 107040, (4475, 753148), 0x80d228a96dfe1a50),
    ("Taxi", "AugmentedGrid-only", &[1, 0, 1, 1, 20000, 20000, 20000, 72], (2.0, 3.0), 1276, (694, 789216), 0x603a08d16cbd8015),
    ("Taxi", "GridTree-only", &[540, 2, 511, 15, 0, 4, 2522, 48], (0.0, 0.0), 106488, (4495, 891186), 0x80bf4a31cc3c1ee6),
    ("Taxi", "Flood", &[15048], (0.0, 0.0), 122256, (1027, 804017), 0x40f175b1174cdd15),
    ("Perfmon", "Tsunami", &[356, 2, 323, 4, 0, 29, 1277, 12], (0.25, 1.25), 54872, (2270, 533013), 0xcd31cc1acfd55667),
    ("Perfmon", "AugmentedGrid-only", &[1, 0, 1, 1, 20000, 20000, 20000, 72], (1.0, 3.0), 1212, (708, 524280), 0x881e938e282187e4),
    ("Perfmon", "GridTree-only", &[356, 2, 323, 4, 0, 29, 1277, 12], (0.0, 0.0), 54832, (2270, 532973), 0xa15a122be555bd18),
    ("Perfmon", "Flood", &[22050], (0.0, 0.0), 178288, (1613, 261889), 0x99627f54aef15f89),
    ("Stocks", "Tsunami", &[303, 2, 288, 8, 0, 3, 4606, 41], (1.5, 2.0), 50908, (899, 225394), 0x1644220027d5f6e6),
    ("Stocks", "AugmentedGrid-only", &[1, 0, 1, 1, 20000, 20000, 20000, 72], (3.0, 2.0), 1292, (783, 396601), 0xcc5d44ae2abea8a0),
    ("Stocks", "GridTree-only", &[303, 2, 288, 8, 0, 3, 4606, 42], (0.0, 0.0), 50524, (847, 296785), 0x3689d25e51324602),
    ("Stocks", "Flood", &[828], (0.0, 0.0), 6984, (1400, 340529), 0xa91b025818c8b479),
];

/// The harness's Tsunami configuration (`HarnessConfig::tsunami_config`)
/// at `max_tree_depth: 2`: at the harness's depth of 5 these 20k rows grid
/// no region at all, so nothing learned would be pinned.
fn tsunami_config() -> TsunamiConfig {
    TsunamiConfig {
        optimizer_sample_size: 800,
        optimizer_max_iters: 6,
        max_cells_per_grid: 1 << 13,
        max_tree_depth: 2,
        ..TsunamiConfig::default()
    }
}

/// A pinned configuration: a Tsunami or a Flood build.
enum Config {
    Tsunami(TsunamiConfig),
    Flood(FloodConfig),
}

/// The configurations pinned, by the names the rows above use: the
/// harness's Tsunami, its Fig 12a ablations and the harness's Flood
/// (`HarnessConfig::flood_config`).
fn configs() -> Vec<(&'static str, Config)> {
    let tsunami = tsunami_config();
    vec![
        ("Tsunami", Config::Tsunami(tsunami.clone())),
        (
            "AugmentedGrid-only",
            Config::Tsunami(TsunamiConfig {
                max_tree_depth: 0,
                ..tsunami.clone()
            }),
        ),
        (
            "GridTree-only",
            Config::Tsunami(tsunami.with_optimizer(OptimizerKind::Independent)),
        ),
        (
            "Flood",
            Config::Flood(FloodConfig {
                max_cells: 1 << 15,
                sample_size: 1_500,
                max_iters: 12,
            }),
        ),
    ]
}

/// Builds `config` over `data`, returning the index with its shape and
/// model counts.
fn build(
    config: &Config,
    data: &Dataset,
    workload: &Workload,
) -> (Box<dyn MultiDimIndex>, Vec<usize>, (f64, f64)) {
    let cost = CostModel::default();
    match config {
        Config::Tsunami(c) => {
            let index = TsunamiIndex::build_with_cost(data, workload, &cost, c).unwrap();
            let s = index.stats();
            assert_eq!(s.delta_rows, 0, "a fresh build holds no delta");
            let shape = vec![
                s.num_grid_tree_nodes,
                s.grid_tree_depth,
                s.num_leaf_regions,
                s.gridded_regions,
                s.min_points_per_region,
                s.median_points_per_region,
                s.max_points_per_region,
                s.total_grid_cells,
            ];
            let models = (s.avg_fms_per_region, s.avg_ccdfs_per_region);
            (Box::new(index), shape, models)
        }
        Config::Flood(c) => {
            let index = FloodIndex::build(data, workload, &cost, c);
            let shape = vec![index.num_cells()];
            (Box::new(index), shape, (0.0, 0.0))
        }
    }
}

/// Each workload query's `(ranges, points)`, in workload order.
fn per_query(index: &dyn MultiDimIndex, workload: &Workload) -> Vec<(usize, usize)> {
    workload
        .queries()
        .iter()
        .map(|q| {
            let (_, counters) = index.execute_with_stats(q);
            (counters.ranges, counters.points)
        })
        .collect()
}

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn fingerprint(
    index: &dyn MultiDimIndex,
    shape: Vec<usize>,
    models: (f64, f64),
    scans: &[(usize, usize)],
) -> Fingerprint {
    Fingerprint {
        shape,
        models,
        size_bytes: index.size_bytes(),
        ranges: scans.iter().map(|s| s.0).sum(),
        points: scans.iter().map(|s| s.1).sum(),
        digest: fnv1a(scans.iter().flat_map(|&(r, p)| [r as u64, p as u64])),
    }
}

/// Builds one (dataset, config) pair and compares it with its pinned row;
/// `None` when they agree, else the report to print.
fn check(bundle: &DatasetBundle, config: &str, spec: &Config) -> Option<String> {
    let (index, shape, models) = build(spec, &bundle.data, &bundle.workload);
    let scans = per_query(index.as_ref(), &bundle.workload);
    let got = fingerprint(index.as_ref(), shape, models, &scans);
    let pinned = PINNED
        .iter()
        .find(|p| p.0 == bundle.name && p.1 == config)
        .map(|p| Fingerprint {
            shape: p.2.to_vec(),
            models: p.3,
            size_bytes: p.4,
            ranges: p.5 .0,
            points: p.5 .1,
            digest: p.6,
        });
    if pinned.as_ref() == Some(&got) {
        return None;
    }
    let mut report = format!(
        "{} / {config} reads:\n    (\"{}\", \"{config}\", &{:?}, {:?}, {}, ({}, {}), {:#018x}),\n",
        bundle.name,
        bundle.name,
        got.shape,
        got.models,
        got.size_bytes,
        got.ranges,
        got.points,
        got.digest
    );
    if pinned.is_some_and(|p| p.digest != got.digest) {
        report.push_str("  per query (index: ranges, points):\n");
        for (i, (q, (r, p))) in bundle.workload.queries().iter().zip(&scans).enumerate() {
            report.push_str(&format!("    {i}: {r}, {p}  {q:?}\n"));
        }
    }
    Some(report)
}

#[test]
fn every_learned_layout_is_pinned() {
    let bundles = DatasetBundle::standard(20_000, 25, 42);
    let configs = configs();
    assert_eq!(PINNED.len(), bundles.len() * configs.len());
    // One thread per dataset: the builds are independent, and the layouts
    // are the same at any interleaving.
    let reports: Vec<String> = std::thread::scope(|scope| {
        let threads: Vec<_> = bundles
            .iter()
            .map(|bundle| {
                let configs = &configs;
                scope.spawn(move || {
                    (configs.iter())
                        .filter_map(|(config, spec)| check(bundle, config, spec))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect()
    });
    for report in &reports {
        eprint!("{report}");
    }
    assert!(reports.is_empty(), "{} layouts moved", reports.len());
}
