//! `repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [EXPERIMENT] [--rows N] [--queries-per-type N] [--seed N]
//! ```
//!
//! `EXPERIMENT` is one of `table3`, `table4`, `fig7`, `fig7par`,
//! `fig7sched`, `fig7net`, `fig8`, `fig9a`, `fig9b`, `fig10`, `fig11a`,
//! `fig11b`, `fig12a`, `fig12b`, `fig12kern`, `figmv`, `walbench`,
//! `check-bench`, or `all` (default). Run in release mode:
//! `cargo run --release -p tsunami-bench --bin repro -- fig7`.
//!
//! `fig12kern` additionally writes machine-readable `BENCH_scan.json`
//! (median ns/row per selectivity × predicate count × kernel tier; path
//! overridable via the `BENCH_SCAN_JSON` env var), `fig9b` writes
//! `BENCH_ingest.json` (ingest-vs-rebuild across batch sizes; override via
//! `BENCH_INGEST_JSON`), and `fig7par` writes `BENCH_pool.json`
//! (serial vs pooled executor latency per dataset × index,
//! with the pool's worker count and the executor's morsel size; override via
//! `BENCH_POOL_JSON`), and `fig7net` writes `BENCH_net.json` (open-loop
//! QPS sweep over the sharded wire-protocol server: achieved QPS and
//! p50/p95/p99 latency per target; override via `BENCH_NET_JSON`, tune with
//! `TSUNAMI_SHARDS`, `TSUNAMI_NET_QPS`, `TSUNAMI_NET_DURATION_MS`,
//! `TSUNAMI_NET_CONNS`), and `figmv` writes `BENCH_matview.json`
//! (materialized-aggregate covered-query latency, matview on vs off, per
//! coverage × aggregation; override via `BENCH_MATVIEW_JSON`), and
//! `walbench` writes `BENCH_wal.json`
//! (`Database::open` replay time vs WAL length before/after a checkpoint,
//! plus scan latency under tombstoned and compacted deletes; override via
//! `BENCH_WAL_JSON`) so performance is tracked across PRs.
//!
//! The pool's worker count is `TSUNAMI_POOL_THREADS` (default
//! `available_parallelism`); `TSUNAMI_ENCODE=off` disables block encoding.
//!
//! `check-bench` is the CI regression gate: it re-runs the `fig12kern` and
//! `figmv` smokes and exits non-zero if any median regressed past
//! `max(2.5x, +slack)` of the checked-in baselines under `bench-baselines/`
//! (`BENCH_scan.json` overridable via `BENCH_BASELINE_JSON`). Fresh
//! `BENCH_pool.json` / `BENCH_ingest.json` files from earlier `fig7par` /
//! `fig9b` steps are gated against their committed baselines when present.

use tsunami_bench::experiments;
use tsunami_bench::HarnessConfig;

/// What the command line asked for.
enum Command {
    Help,
    Run(String, HarnessConfig),
}

/// Parses the arguments after the program name. A flag with a missing or
/// unparseable value is an error, never a silent fall-back to the default —
/// a typo must not look like a slow default-sized run.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut experiment = "all".to_string();
    let mut config = HarnessConfig::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rows" => config.rows = number(arg, args.next())?,
            "--queries-per-type" | "--qpt" => config.queries_per_type = number(arg, args.next())?,
            "--seed" => config.seed = number(arg, args.next())?,
            "--help" | "-h" => return Ok(Command::Help),
            other => experiment = other.to_string(),
        }
    }
    Ok(Command::Run(experiment, config))
}

fn number<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: '{value}' is not a non-negative integer"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (experiment, config) = match parse_args(&args) {
        Ok(Command::Run(experiment, config)) => (experiment, config),
        Ok(Command::Help) => {
            print_usage();
            return;
        }
        Err(problem) => {
            eprintln!("{problem}");
            print_usage();
            std::process::exit(2);
        }
    };

    eprintln!(
        "# repro: experiment={experiment} rows={} queries/type={} seed={}",
        config.rows, config.queries_per_type, config.seed
    );

    if experiment == "all" {
        experiments::all(&config);
        return;
    }
    if experiment == "check-bench" {
        match experiments::check_bench(&config) {
            Ok(summary) => println!("{summary}"),
            Err(report) => {
                eprintln!("{report}");
                std::process::exit(1);
            }
        }
        return;
    }
    match experiments::experiments()
        .into_iter()
        .find(|(name, _)| *name == experiment)
    {
        Some((_, f)) => {
            f(&config);
        }
        None => {
            eprintln!("unknown experiment: {experiment}");
            print_usage();
            std::process::exit(1);
        }
    }
}

fn print_usage() {
    eprintln!("usage: repro [EXPERIMENT] [--rows N] [--queries-per-type N] [--seed N]");
    eprintln!("experiments: all, table3, table4, fig7, fig7par, fig7sched, fig7net, fig8, fig9a, fig9b, fig10, fig11a, fig11b, fig12a, fig12b, fig12kern, figmv, walbench, check-bench");
    eprintln!("fig12kern also writes BENCH_scan.json (override path with BENCH_SCAN_JSON); fig9b writes BENCH_ingest.json (BENCH_INGEST_JSON); fig7par writes BENCH_pool.json (BENCH_POOL_JSON); fig7net writes BENCH_net.json (BENCH_NET_JSON); figmv writes BENCH_matview.json (BENCH_MATVIEW_JSON); walbench writes BENCH_wal.json (BENCH_WAL_JSON)");
    eprintln!("fig7net tuning: TSUNAMI_SHARDS, TSUNAMI_NET_QPS (comma-separated sweep), TSUNAMI_NET_DURATION_MS, TSUNAMI_NET_CONNS");
    eprintln!(
        "engine knobs: TSUNAMI_POOL_THREADS (pool workers), TSUNAMI_ENCODE=off (no block encoding)"
    );
    eprintln!("check-bench re-runs fig12kern + figmv and fails on >2.5x median regressions vs bench-baselines/ (BENCH_scan.json path via BENCH_BASELINE_JSON); fresh BENCH_pool.json/BENCH_ingest.json are gated too when present");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_strictly() {
        match parse(&["fig7", "--rows", "8000", "--qpt", "4", "--seed", "7"]) {
            Ok(Command::Run(experiment, config)) => {
                assert_eq!(experiment, "fig7");
                assert_eq!(
                    (config.rows, config.queries_per_type, config.seed),
                    (8_000, 4, 7)
                );
            }
            _ => panic!("well-formed arguments must parse"),
        }
        assert!(matches!(parse(&[]), Ok(Command::Run(e, _)) if e == "all"));
        assert!(matches!(
            parse(&["--rows", "8000", "-h"]),
            Ok(Command::Help)
        ));
        // Unparseable and missing values are errors, not defaults.
        for bad in [
            &["--rows", "8k"][..],
            &["--rows"],
            &["--seed", "-1"],
            &["fig7", "--queries-per-type", "four"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
