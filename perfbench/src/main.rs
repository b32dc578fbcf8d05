//! `bench` — the repository benchmark (see `perfbench/BENCHMARK.md`).
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//!     one workload; the last stdout line is the result as one JSON object
//! bench [--seed <n>] [--seconds <s>] [--quick] [--repeat <k>] [--out <file>]
//!     every workload, `k` times untraced then once traced, each run in a
//!     fresh child process; writes all results to one JSON file
//! bench compare <a.json> <b.json>
//!     per workload × metric: relative difference against the bound
//! bench speed [seconds]
//!     readings of the speed meter (`spine::cal`) and their quartiles
//! ```

mod all;
mod classes;
mod serve;
mod spec;
mod spine;

use spec::{Metric, Outcome, RunArgs, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

/// Set in the environment of spawned worker processes: the executable
/// then serves the `mura-worker` protocol instead of benchmarking.
pub const WORKER_ROLE_ENV: &str = "PERFBENCH_WORKER_ROLE";

/// Where traces, results and durable state go: inside the benchmark's own
/// directory, ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the span file of a traced run.
pub fn write_trace(workload: &str, rec: &spine::span::Recorder) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, rec.to_chrome_trace())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn serve_worker() -> ! {
    use std::io::Write;
    mura_dist::worker::exit_on_stdin_eof();
    let result = mura_dist::worker::run_worker(|port| {
        let mut out = std::io::stdout();
        // The coordinator blocks on this line to learn the port.
        writeln!(out, "PORT {port}").expect("announce port");
        out.flush().expect("flush port announcement");
    });
    if let Err(e) = result {
        eprintln!("perfbench worker: {e}");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Parsed command line.
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub quick: bool,
    /// Untraced runs per workload in the all-workloads mode.
    pub repeat: usize,
    pub out: Option<PathBuf>,
}

impl Cli {
    /// `--seconds`, or `run_seconds` of `BENCHMARK.json` (1 s when quick).
    pub fn default_seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick { 1.0 } else { 20.0 })
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--quick" => cli.quick = true,
            "--repeat" => cli.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "classes_sim" => classes::run(args, false),
        "classes_proc" => classes::run(args, true),
        "serve_read" => serve::run_read(args),
        "serve_mixed" => serve::run_mixed(args),
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            Err(format!("unknown workload {other}; known: {}", names.join(", ")))
        }
    }
}

/// Formats a measured value with all its digits (never rounded to a
/// shorter decimal), as the result line requires.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(declared: &[Metric], out: &Outcome) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|m| {
            let value = json_number(out.get(m.name));
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn run_one(cli: &Cli, workload: String) -> i32 {
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.default_seconds(),
        trace: cli.trace,
        quick: cli.quick,
    };
    let mut out = match run_workload(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("bench: {}: {e}", args.workload);
            return 2;
        }
    };
    let declared: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        let (attempted, failed) = (out.attempted as f64, out.failed as f64);
        out.set("bench.attempted_ops", attempted);
        out.set("bench.failed_ops", failed);
    }
    for (name, _) in &out.metrics {
        assert!(declared.iter().any(|m| m.name == *name), "{name} is not a declared metric");
    }
    println!("workload {} seed {} trace {}", args.workload, args.seed, u8::from(args.trace));
    for m in declared {
        println!("  {:<34} {:>16.4} {}", m.name, out.get(m.name), m.unit);
    }
    println!("  attempted_ops {}  failed_ops {}", out.attempted, out.failed);
    for note in &out.notes {
        println!("  note: {note}");
    }
    println!("{}", result_json(declared, &out));
    i32::from(out.failed != 0)
}

fn main() {
    if std::env::var_os(WORKER_ROLE_ENV).is_some() {
        serve_worker();
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        all::compare(&args[1..])
    } else if args.first().map(String::as_str) == Some("speed") {
        spine::cal::report(args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10.0));
        0
    } else {
        match parse_cli(&args) {
            Err(e) => {
                eprintln!("bench: {e}");
                2
            }
            Ok(mut cli) => match cli.workload.take() {
                Some(w) => run_one(&cli, w),
                None => all::run_all(&cli),
            },
        }
    };
    std::process::exit(code);
}
