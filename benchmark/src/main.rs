//! The repo's end-to-end benchmark. `benchmark/run.sh` builds and runs this;
//! see `benchmark/README.md` for what each workload and metric is for.
//!
//! ```text
//! run.sh [--workload NAME] [--seed S] [--seconds N] [--trace [0|1]]
//! run.sh --agree [N] [--seed S] [--seconds N]
//! run.sh --describe
//! ```
//!
//! Every run checks each answer against an oracle and ends its standard
//! output with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
//! Everything else (progress, notes, the per-run report) goes to standard
//! error and `benchmark/out/`.

mod agree;
mod common;
mod consts;
mod gen;
mod ingest;
mod json;
mod metrics;
mod olap;
mod scan;
mod served;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::Args;
use json::Json;
use metrics::{Outcome, WORKLOADS};

/// What the command line asked for.
struct Cli {
    workload: Option<String>,
    args: Args,
    agree: Option<usize>,
    describe: bool,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        args: Args {
            seed: 42,
            seconds: consts::RUN_SECONDS as f64,
            trace: false,
            out: PathBuf::from("benchmark/out"),
        },
        agree: None,
        describe: false,
    };
    let mut it = argv.iter().peekable();
    // A flag's value, when the next word is not another flag.
    fn optional<'a>(it: &mut std::iter::Peekable<std::slice::Iter<'a, String>>) -> Option<&'a str> {
        let next = it.peek().filter(|v| !v.starts_with("--"))?.as_str();
        it.next();
        Some(next)
    }
    while let Some(flag) = it.next() {
        let mut required = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = required("--workload")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload '{name}'"));
                }
                cli.workload = Some(name.to_string());
            }
            "--seed" => {
                cli.args.seed = required("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                cli.args.seconds = required("--seconds")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds needs a number in (0, 600]")?;
            }
            "--out" => cli.args.out = PathBuf::from(required("--out")?),
            "--trace" => {
                cli.args.trace = match optional(&mut it) {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--agree" => {
                cli.agree = Some(match optional(&mut it) {
                    None => 5,
                    Some(n) => n
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 2)
                        .ok_or("--agree needs a count of at least 2")?,
                })
            }
            "--describe" => cli.describe = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

fn run_workload(name: &str, args: &Args) -> tsunami_core::Result<Outcome> {
    match name {
        olap::NAME => olap::run(args),
        scan::NAME => scan::run(args),
        ingest::NAME => ingest::run(args),
        served::NAME => served::run(args),
        other => unreachable!("workload '{other}' passed validation"),
    }
}

/// Runs one workload, writes its report file, prints its metrics to standard
/// error and its result line to standard output. Returns whether it passed.
fn run_and_report(name: &str, args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    eprintln!(
        "# {name}: seed {} seconds {} trace {} nproc {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        common::nproc()
    );
    let mut outcome = run_workload(name, args).map_err(|e| format!("{name}: {e}"))?;
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.values.set("failed_ops_frac", failed_frac);

    let line = metrics::result_line(&outcome, args.trace)?;
    for (metric, value) in outcome.values.iter() {
        eprintln!("{name} {metric} = {value}");
    }
    let report = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Num(common::nproc() as f64)),
        (
            "commit",
            Json::str(std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        ("data_seed", Json::Num(consts::DATA_SEED as f64)),
        ("notes", Json::Obj(outcome.notes.clone())),
        (
            "values",
            Json::obj(outcome.values.iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        ("result", line.clone()),
    ]);
    let report_path = args
        .out
        .join(format!("report-{name}-trace{}.json", u8::from(args.trace)));
    std::fs::write(&report_path, report.to_line() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", report_path.display()))?;
    println!("{}", line.to_line());
    if !outcome.correct() {
        eprintln!(
            "# {name}: FAILED — {} of {} operations failed, post-run checks {}",
            outcome.failed,
            outcome.attempted,
            if outcome.checks_ok {
                "passed"
            } else {
                "failed"
            }
        );
    }
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.describe {
        println!("{}", metrics::benchmark_json().to_line());
        return ExitCode::SUCCESS;
    }
    if let Some(runs) = cli.agree {
        return match agree::run(runs, &cli.args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let names: Vec<&str> = match &cli.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut all_ok = true;
    for name in names {
        match run_and_report(name, &cli.args) {
            Ok(ok) => all_ok &= ok,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(words: &[&str]) -> Result<Cli, String> {
        parse_cli(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_runner_contract_arguments() {
        let c = cli(&[
            "--workload",
            "scan_wide",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("scan_wide"));
        assert_eq!(c.args.seed, 7);
        assert_eq!(c.args.seconds, 3.0);
        assert!(c.args.trace);
        assert!(!cli(&["--trace", "0"]).unwrap().args.trace);
        // `--trace` alone, also followed by another flag, means on.
        assert!(cli(&["--trace"]).unwrap().args.trace);
        assert!(cli(&["--trace", "--seed", "9"]).unwrap().args.trace);
        let d = cli(&[]).unwrap();
        assert_eq!(d.args.seed, 42);
        assert_eq!(d.args.seconds, consts::RUN_SECONDS as f64);
        assert!(d.workload.is_none() && !d.args.trace && d.agree.is_none());
    }

    #[test]
    fn agree_takes_an_optional_count() {
        assert_eq!(cli(&["--agree"]).unwrap().agree, Some(5));
        assert_eq!(cli(&["--agree", "3"]).unwrap().agree, Some(3));
        assert_eq!(cli(&["--agree", "--seed", "9"]).unwrap().agree, Some(5));
        assert!(cli(&["--agree", "1"]).is_err());
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--workload"]).is_err());
        assert!(cli(&["--seed", "x"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seconds", "nan"]).is_err());
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }

    #[test]
    fn op_counts_scale_with_seconds() {
        let mut args = cli(&[]).unwrap().args;
        assert_eq!(args.scaled(6_000), 60_000);
        args.seconds = 2.5;
        assert_eq!(args.scaled(6_000), 15_000);
        args.seconds = 0.00001;
        assert_eq!(args.scaled(8), 1);
    }
}
