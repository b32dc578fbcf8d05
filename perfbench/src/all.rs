//! The one-command mode (every workload, each run in a fresh child
//! process so set-up time and peak memory are per workload) and
//! `bench compare`.

use crate::spec::{END_TO_END, WORKLOADS};
use crate::spine::stats::{compare as compare_runs, median, Verdict};
use crate::Cli;
use mura_obs::json::Json;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Runs one workload in a child process; echoes its report and returns
/// the parsed result line (with `workload` and `trace` added).
fn run_child(cli: &Cli, workload: &str, trace: bool, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot resolve own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &cli.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cli.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, result) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    let parsed = Json::parse(result).map_err(|e| {
        format!("{workload} (exit {:?}) printed no result line: {e}", output.status.code())
    })?;
    let Json::Obj(mut fields) = parsed else {
        return Err(format!("{workload}: result line is not an object"));
    };
    fields.insert(0, ("workload".into(), Json::Str(workload.into())));
    fields.insert(1, ("trace".into(), Json::Bool(trace)));
    Ok(Json::Obj(fields))
}

/// Every workload untraced (`--repeat` times) and once traced; writes all
/// result lines to one JSON file. Non-zero when any answer was wrong.
pub fn run_all(cli: &Cli) -> i32 {
    let seconds = cli.default_seconds();
    let mut runs = Vec::new();
    let mut bad = false;
    for (workload, why) in WORKLOADS {
        println!("== {workload}: {why}");
        let traced = std::iter::repeat_n(false, cli.repeat.max(1)).chain([true]);
        for trace in traced {
            match run_child(cli, workload, trace, seconds) {
                Ok(run) => {
                    bad |= run.get("correct") != Some(&Json::Bool(true));
                    runs.push(run);
                }
                Err(e) => {
                    eprintln!("bench: {e}");
                    bad = true;
                }
            }
        }
    }
    let doc = Json::Obj(vec![
        ("seed".into(), Json::Num(cli.seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("quick".into(), Json::Bool(cli.quick)),
        ("runs".into(), Json::Arr(runs)),
    ]);
    let path = cli.out.clone().unwrap_or_else(|| crate::out_dir().join("results.json"));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, format!("{doc}\n")));
    match written {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => {
            eprintln!("bench: write {}: {e}", path.display());
            bad = true;
        }
    }
    i32::from(bad)
}

/// Untraced values per `(workload, metric)` in a results file.
fn load(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc.get("runs").and_then(Json::as_array).ok_or(format!("{path}: no runs"))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs.iter().filter(|r| r.get("trace") == Some(&Json::Bool(false))) {
        let workload = run.get("workload").and_then(Json::as_str).ok_or("run without workload")?;
        let metrics = run.get("metrics").and_then(Json::as_object).ok_or("run without metrics")?;
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).ok_or("metric without value")?;
            out.entry((workload.to_string(), name.clone())).or_default().push(value);
        }
    }
    Ok(out)
}

/// `bench compare A.json B.json`: for every workload × end-to-end metric,
/// how much worse B's median is than A's against the metric's bound.
/// Non-zero when anything regressed or could not be resolved.
pub fn compare(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: bench compare <baseline.json> <candidate.json>");
        return 2;
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench: {e}");
            return 2;
        }
    };
    let mut bad = false;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "worse", "bound"
    );
    for (workload, _) in WORKLOADS {
        for m in END_TO_END {
            let key = (workload.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{workload:<14} {:<16} missing on one side", m.name);
                bad = true;
                continue;
            };
            let (worse, verdict) = compare_runs(va, vb, m.lower_is_better, m.bound);
            bad |= verdict != Verdict::Ok;
            println!(
                "{workload:<14} {:<16} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%  {}",
                m.name,
                median(va),
                median(vb),
                worse * 100.0,
                m.bound * 100.0,
                verdict.name()
            );
        }
    }
    i32::from(bad)
}
