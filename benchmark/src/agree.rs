//! `run.sh --agree [N]`: does the benchmark agree with itself?
//!
//! Two sets of `N` untraced runs of this same build, the gated workloads
//! alternating inside each round so drift in the machine hits them alike.
//! Run `i` of either set uses seed `S + i`, so a set's quartiles hold both
//! run-to-run noise and seed-to-seed spread — the acceptance rule of the
//! driver: per workload and end-to-end metric, the distance between the
//! first and third quartile (Python's `statistics.quantiles(n=4)`) as a
//! share of the median must stay within the metric's bound (`setup_s`
//! excepted), and the second set's median must be within the bound of the
//! first's. Either failing fails the command.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::common::Args;
use crate::json::Json;
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::quartiles;

/// Metric values keyed by name, as a run's result line carries them.
fn metric_values(line: &Json) -> Option<BTreeMap<String, f64>> {
    line.get("metrics")?
        .as_object()?
        .iter()
        .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

/// One child run of one workload; returns its end-to-end metric values.
fn child_run(workload: &str, seed: u64, args: &Args) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let fail = |why: &str| {
        format!(
            "{workload} seed {seed}: {why}\n{}",
            String::from_utf8_lossy(&output.stderr)
        )
    };
    if !output.status.success() {
        return Err(fail("the run failed"));
    }
    let doc = Json::parse(line).map_err(|e| fail(&format!("bad result line: {e}")))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(fail("the run was not correct"));
    }
    metric_values(&doc).ok_or_else(|| fail("result line without metrics"))
}

/// The workloads the driver gates on: the ones `--agree` must hold still.
fn gated() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().filter(|w| w.gated).map(|w| w.name)
}

/// `[q1, median, q3]` and the spread `(q3 - q1) / median`.
fn summary(values: &[f64]) -> ([f64; 3], f64) {
    let q = quartiles(values).expect("--agree runs at least two per set");
    (q, (q[2] - q[0]) / q[1])
}

pub fn run(runs: usize, args: &Args) -> Result<bool, String> {
    // samples[set][(workload, metric)] = one value per run.
    let mut samples: [BTreeMap<(&str, String), Vec<f64>>; 2] = Default::default();
    for (set, bucket) in samples.iter_mut().enumerate() {
        for round in 0..runs {
            for workload in gated() {
                let seed = args.seed + round as u64;
                eprintln!(
                    "# set {} run {}/{runs}: {workload} seed {seed}",
                    set + 1,
                    round + 1
                );
                for (metric, value) in child_run(workload, seed, args)? {
                    bucket.entry((workload, metric)).or_default().push(value);
                }
            }
        }
    }

    let mut ok = true;
    println!(
        "{:<15} {:<30} {:>12} {:>24} {:>12} {:>24} {:>8} {:>8} {:>6}",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "spread",
        "B vs A",
        "bound"
    );
    for workload in gated() {
        for m in &END_TO_END {
            let key = (workload, m.name.to_string());
            let (a, b) = match (samples[0].get(&key), samples[1].get(&key)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(format!("{workload} never reported {}", m.name)),
            };
            let ((qa, spread_a), (qb, spread_b)) = (summary(a), summary(b));
            let spread = spread_a.max(spread_b);
            let apart = (qb[1] - qa[1]).abs() / qa[1];
            let spread_ok = m.name == "setup_s" || spread <= m.bound;
            let medians_ok = apart <= m.bound;
            ok &= spread_ok && medians_ok;
            println!(
                "{:<15} {:<30} {:>12.4} {:>24} {:>12.4} {:>24} {:>7.2}% {:>7.2}% {:>5.0}%{}{}",
                workload,
                format!("{} ({})", m.name, m.unit),
                qa[1],
                format!("[{:.4}, {:.4}]", qa[0], qa[2]),
                qb[1],
                format!("[{:.4}, {:.4}]", qb[0], qb[2]),
                spread * 100.0,
                apart * 100.0,
                m.bound * 100.0,
                if spread_ok { "" } else { "  SPREAD" },
                if medians_ok { "" } else { "  MEDIANS" },
            );
        }
    }
    println!(
        "{}",
        if ok {
            "agree: every spread and every pair of medians is within its bound"
        } else {
            "agree: FAILED (see the marked rows)"
        }
    );
    Ok(ok)
}
