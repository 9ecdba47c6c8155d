//! `repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [EXPERIMENT] [--rows N] [--queries-per-type N] [--seed N] [--out DIR]
//! ```
//!
//! `EXPERIMENT` is one of `table3`, `table4`, `fig7`, `fig7par`, `fig8`,
//! `fig9a`, `fig9b`, `fig10`, `fig11a`, `fig11b`, `fig12a`, `fig12b`,
//! `fig12kern`, `figmv`, `check-bench`, or `all` (default). Run in release mode:
//! `cargo run --release -p tsunami-bench --bin repro -- fig7`.
//!
//! Four experiments also write a machine-readable file into `--out DIR`
//! (default `.`, created if missing) so performance is tracked across PRs:
//! `fig12kern` writes `BENCH_scan.json` (median ns/row per selectivity ×
//! predicate count × encoding × kernel tier), `figmv` `BENCH_matview.json`
//! (materialized-aggregate covered-query latency, cube on vs off, per
//! coverage × aggregation), `fig7par` `BENCH_pool.json` (serial vs pooled
//! executor latency per dataset × index, with the pool's worker count and
//! the executor's morsel size) and `fig9b` `BENCH_ingest.json`
//! (ingest-vs-rebuild across batch sizes, and the small-batch stream).
//!
//! `check-bench` is the CI regression gate over those four files: it runs
//! `fig12kern` and `figmv` and exits non-zero if any median regressed past
//! `max(2.5x, +slack)` of the checked-in file of the same name under
//! `bench-baselines/` (so run it from the repository root). A
//! `BENCH_pool.json` / `BENCH_ingest.json` that an earlier `fig7par` /
//! `fig9b` step left in `--out` is gated the same way when present. A file
//! whose header names another experiment or another `rows` than its baseline
//! fails the gate: run at the baseline's size. `--out bench-baselines` is how
//! an experiment refreshes its baseline, and `check-bench` refuses it.
//!
//! Served, durable and ingest traffic are measured end to end and per layer
//! by `benchmark/run.sh` (`served_mixed`, `ingest_mixed`), not here.
//!
//! The library reads one environment variable of its own:
//! `TSUNAMI_POOL_THREADS` (the pool's worker count, default
//! `available_parallelism`).

use tsunami_bench::experiments;
use tsunami_bench::HarnessConfig;

/// What the command line asked for.
enum Command {
    Help,
    Run(String, HarnessConfig),
}

/// Parses the arguments after the program name. A flag with a missing or
/// unparseable value, a flag this program does not have, and a second
/// experiment name are errors, never a silent fall-back to the default — a
/// typo must not look like a slow default-sized run.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut experiment: Option<&str> = None;
    let mut config = HarnessConfig::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rows" => config.rows = number(arg, args.next())?,
            "--queries-per-type" | "--qpt" => config.queries_per_type = number(arg, args.next())?,
            "--seed" => config.seed = number(arg, args.next())?,
            "--out" => config.out = value(arg, args.next())?.into(),
            "--help" | "-h" => return Ok(Command::Help),
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            name => {
                if let Some(first) = experiment {
                    return Err(format!("two experiments named: '{first}' and '{name}'"));
                }
                experiment = Some(name);
            }
        }
    }
    Ok(Command::Run(
        experiment.unwrap_or("all").to_string(),
        config,
    ))
}

fn value<'a>(flag: &str, value: Option<&'a String>) -> Result<&'a String, String> {
    value.ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(flag: &str, given: Option<&String>) -> Result<T, String> {
    let given = value(flag, given)?;
    given
        .parse()
        .map_err(|_| format!("{flag}: '{given}' is not a non-negative integer"))
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

    // Before the minutes of measuring, not after: an `--out` that cannot
    // hold the run's BENCH file is a usage error like any other.
    if let Err(e) = std::fs::create_dir_all(&config.out) {
        eprintln!("--out {}: {e}", config.out.display());
        print_usage();
        std::process::exit(2);
    }

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
    eprintln!("usage: repro [EXPERIMENT] [--rows N] [--queries-per-type N] [--seed N] [--out DIR]");
    eprintln!("experiments: all, table3, table4, fig7, fig7par, fig8, fig9a, fig9b, fig10, fig11a, fig11b, fig12a, fig12b, fig12kern, figmv, check-bench");
    eprintln!("--out DIR (default ., created if missing): where fig12kern writes BENCH_scan.json, figmv BENCH_matview.json, fig7par BENCH_pool.json and fig9b BENCH_ingest.json");
    eprintln!("check-bench: runs fig12kern + figmv and fails on >2.5x median regressions against bench-baselines/, gates a BENCH_pool.json / BENCH_ingest.json already in --out too, and refuses a file whose experiment or rows differ from its baseline's");
    eprintln!(
        "served, durable and ingest traffic: bash benchmark/run.sh (served_mixed, ingest_mixed)"
    );
    eprintln!("library knob: TSUNAMI_POOL_THREADS (pool workers)");
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
        match parse(&["--out", "fresh", "check-bench"]) {
            Ok(Command::Run(experiment, config)) => {
                assert_eq!(experiment, "check-bench");
                assert_eq!(config.out.to_str(), Some("fresh"));
            }
            _ => panic!("well-formed arguments must parse"),
        }
        // Unparseable and missing values, flags that do not exist and a
        // second experiment are errors, not defaults.
        for bad in [
            &["--rows", "8k"][..],
            &["--rows"],
            &["--seed", "-1"],
            &["fig7", "--queries-per-type", "four"],
            &["--row", "8000", "fig7"],
            &["fig7", "-x"],
            &["fig7", "fig8"],
            &["fig7", "--out"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
