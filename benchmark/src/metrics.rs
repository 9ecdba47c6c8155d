//! The benchmark's vocabulary: the four workloads and every metric name, with
//! unit, direction and (for end-to-end metrics) regression bound.
//! `BENCHMARK.json` at the repo root is generated from these tables
//! (`run.sh --describe`) and a unit test keeps the two identical.
//!
//! Every run reports every metric of its mode: a `--trace 0` run all of
//! [`END_TO_END`], a `--trace 1` run all of [`PER_LAYER`]. A per-layer metric
//! whose layer a workload does not exercise reads 0 there.

use std::collections::BTreeMap;

use crate::consts::RUN_SECONDS;
use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// A workload: its name, the one-line reason it exists, and whether the
/// driver gates on it (is it listed in `BENCHMARK.json`).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub gated: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "olap_selective",
        why: "The paper's workload: ~1% selective range aggregations on one Tsunami table, one closed-loop client; tsunami-index planning does ~90% of the work and the scan almost none.",
        gated: true,
    },
    Workload {
        name: "scan_wide",
        why: "25% range scans with two residual predicates over a 1M-row SingleDim table, through the Scheduler; exec kernels, pool and block encoding do ~98% of the work, planning none.",
        gated: true,
    },
    Workload {
        name: "ingest_mixed",
        why: "80% reads, 15% insert_batch, 5% delete plus one checkpoint on a durable Tsunami Database (fsync per mutation), then crash-copy recovery; loads index ingest/delete, store re-encode and the WAL.",
        gated: true,
    },
    // Runnable and reported like the others, but not in `BENCHMARK.json`: its
    // latencies are chains of cross-vCPU thread wake-ups, which on the shared
    // sandbox swing 2x from run to run whatever the engine does (README,
    // "Why served_mixed is not gated").
    Workload {
        name: "served_mixed",
        why: "Open-loop 95% query / 5% insert over the wire to a 2-shard server at three fixed rates, latency from due time; loads codec, connection threads, scheduler queueing, scatter-gather and the write lock.",
        gated: false,
    },
];

/// An end-to-end metric: what a user of the system sees. `bound` is the share
/// of the parent's median by which it may worsen before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload produces every one of these, none of them ever 0.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "index_bytes_per_row",
        unit: "B/row",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "resident_bytes_per_user_byte",
        unit: "B/B",
        better: Lower,
        bound: 0.10,
    },
];

/// Per-layer metrics `(name, unit, better)`; they carry no bound.
pub const PER_LAYER: [(&str, &str, Better); 72] = [
    // tsunami-index
    ("index.plan_us", "us", Lower),
    ("index.plan_p99_us", "us", Lower),
    ("index.plan_ranges", "count", Lower),
    ("index.plan_partials", "count", Higher),
    ("index.rows_visited_per_match", "ratio", Lower),
    ("index.cube_prefolded_frac", "frac", Higher),
    ("index.build_sort_s", "s", Lower),
    ("index.build_optimize_s", "s", Lower),
    ("index.size_bytes", "B", Lower),
    ("index.regions", "count", Lower),
    ("index.cells", "count", Lower),
    ("index.ingest_us", "us", Lower),
    ("index.delete_us", "us", Lower),
    ("index.ingest_regions_reoptimized", "count", Lower),
    ("index.ingest_rebuilds", "count", Lower),
    ("index.delete_regions_compacted", "count", Lower),
    // tsunami-core::exec
    ("exec.scan_us", "us", Lower),
    ("exec.ns_per_row_visited", "ns", Lower),
    ("exec.roofline_frac", "frac", Higher),
    ("exec.pool_speedup", "ratio", Higher),
    // tsunami-store
    ("store.encoded_bytes_per_row", "B/row", Lower),
    ("store.blocks_plain", "count", Lower),
    ("store.blocks_for", "count", Higher),
    ("store.blocks_dict", "count", Higher),
    ("store.encode_s", "s", Lower),
    ("store.permute_s", "s", Lower),
    ("store.wal_append_us", "us", Lower),
    ("store.wal_commit_us", "us", Lower),
    ("store.wal_bytes", "B", Lower),
    ("store.wal_commits", "count", Lower),
    ("store.wal_replay_s", "s", Lower),
    // tsunami-engine
    ("engine.execute_overhead_us", "us", Lower),
    ("engine.insert_us", "us", Lower),
    ("engine.dataset_clone_us", "us", Lower),
    ("engine.delete_us", "us", Lower),
    ("engine.checkpoint_s", "s", Lower),
    ("engine.open_s", "s", Lower),
    ("engine.scheduler_overhead_us", "us", Lower),
    ("engine.sharded_fanout_us", "us", Lower),
    // tsunami-server
    ("server.ping_rtt_us", "us", Lower),
    ("server.codec_us", "us", Lower),
    ("server.query_rtt_overhead_us", "us", Lower),
    ("server.read_p95_us", "us", Lower),
    ("server.insert_p95_us", "us", Lower),
    ("server.p95_us_at_r", "us", Lower),
    ("server.p95_us_at_4r", "us", Lower),
    ("server.achieved_over_target", "ratio", Higher),
    ("server.gen_lateness_p99_us", "us", Lower),
    ("server.errors", "count", Lower),
    ("server.queries", "count", Higher),
    ("server.rows_inserted", "count", Higher),
    // The paper's comparison lines, same measured stream.
    ("flood.query_p50_us", "us", Lower),
    ("flood.index_bytes_per_row", "B/row", Lower),
    ("fullscan.query_p50_us", "us", Lower),
    // The benchmark itself.
    ("workloads.generate_s", "s", Lower),
    ("bench.verify_s", "s", Lower),
    ("bench.traced_query_p50_us", "us", Lower),
    ("bench.trace_overhead_frac", "frac", Lower),
    ("bench.unattributed_us", "us", Lower),
    ("bench.unattributed_frac", "frac", Lower),
    ("bench.insert_unattributed_us", "us", Lower),
    ("bench.insert_unattributed_frac", "frac", Lower),
    // What a user sees on one workload only, measured with tracing off. The
    // runner's contract gates only metrics every workload produces, so these
    // ride with the per-layer report (see README, "What the driver gates").
    ("query_p95_us", "us", Lower),
    ("insert_p50_us", "us", Lower),
    ("insert_p95_us", "us", Lower),
    ("insert_rows_per_s", "1/s", Higher),
    ("recovery_s", "s", Lower),
    ("wal_bytes_per_user_byte", "B/B", Lower),
    ("served_p50_us", "us", Lower),
    ("served_p95_us", "us", Lower),
    ("served_max_rate_ok", "1/s", Higher),
    ("failed_ops_frac", "frac", Lower),
];

/// Metric values gathered by a run, by name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in measured phases.
    pub attempted: u64,
    /// Operations that errored, were refused, or answered wrongly.
    pub failed: u64,
    /// Post-run checks (recovery, oracle replay, trace self-check) passed.
    pub checks_ok: bool,
    pub values: Values,
    /// Human-readable notes for the report file (sample counts, policies).
    pub notes: Vec<(String, Json)>,
}

impl Outcome {
    /// Nothing attempted yet, no check failed yet.
    pub fn new() -> Self {
        Self {
            checks_ok: true,
            ..Self::default()
        }
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks_ok
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The runner's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the metrics being every name of the run's mode. An end-to-end
/// metric a workload failed to produce is a benchmark bug and an error; a
/// per-layer metric it did not touch reads 0.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<Json, String> {
    let mut metrics = Vec::new();
    if traced {
        for (name, unit, _) in PER_LAYER {
            metrics.push((name, metric(outcome.values.get(name).unwrap_or(0.0), unit)));
        }
    } else {
        for m in &END_TO_END {
            let value = outcome
                .values
                .get(m.name)
                .ok_or_else(|| format!("end-to-end metric {} was not measured", m.name))?;
            if !(value.is_finite() && value > 0.0) {
                return Err(format!("end-to-end metric {} reads {value}", m.name));
            }
            metrics.push((m.name, metric(value, m.unit)));
        }
    }
    Ok(Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]))
}

/// `BENCHMARK.json`, from the tables above.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", Json::str(*name)),
                            ("unit", Json::str(*unit)),
                            ("better", Json::str(better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        let gated = WORKLOADS.iter().filter(|w| w.gated).count();
        assert!((2..=8).contains(&gated));
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for (name, unit, _) in PER_LAYER {
            assert!(name_ok(name) && unit_ok(unit), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn result_line_is_well_formed_and_complete() {
        let mut outcome = Outcome {
            attempted: 10,
            checks_ok: true,
            ..Outcome::default()
        };
        for (i, m) in END_TO_END.iter().enumerate() {
            outcome.values.set(m.name, 1.25 + i as f64);
        }
        outcome.values.set("index.plan_us", 98.3);
        for traced in [false, true] {
            let line = result_line(&outcome, traced).unwrap().to_line();
            let doc = Json::parse(&line).unwrap();
            let keys: Vec<&str> = doc
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            let metrics = doc.get("metrics").unwrap().as_object().unwrap();
            let expect = if traced {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(metrics.len(), expect);
            for (name, m) in metrics {
                assert!(name_ok(name), "{name}");
                assert!(m.get("value").unwrap().as_f64().is_some(), "{name}");
                assert!(unit_ok(m.get("unit").unwrap().as_str().unwrap()), "{name}");
            }
        }
        let traced = result_line(&outcome, true).unwrap();
        let plan = traced.get("metrics").unwrap().get("index.plan_us").unwrap();
        assert_eq!(plan.get("value").unwrap().as_f64(), Some(98.3));
        // Untouched layers read 0; a missing or zero end-to-end metric is an error.
        let scan = traced.get("metrics").unwrap().get("exec.scan_us").unwrap();
        assert_eq!(scan.get("value").unwrap().as_f64(), Some(0.0));
        outcome.values.set("query_p50_us", 0.0);
        assert!(result_line(&outcome, false).is_err());
        assert!(result_line(&Outcome::default(), false).is_err());
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut outcome = Outcome {
            attempted: 5,
            failed: 1,
            checks_ok: true,
            ..Outcome::default()
        };
        assert!(!outcome.correct());
        outcome.failed = 0;
        outcome.checks_ok = false;
        assert!(!outcome.correct());
    }

    #[test]
    fn benchmark_json_on_disk_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(Json::parse(&text).unwrap(), benchmark_json());
    }
}
