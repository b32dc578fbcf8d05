//! Coordinator-crash chaos: kill the serving process at seeded points in
//! the durability pipeline (mid-WAL-append, post-append/pre-apply,
//! mid-snapshot), restart against the same data directory, and require the
//! recovered session to be indistinguishable from an uninterrupted
//! same-seed run — same per-version `DeltaSummary` lines, same final
//! version and answer.
//!
//! The driver is the `mura-crashd` binary (see `src/bin/mura-crashd.rs`):
//! its mutation schedule is a pure function of the seed, so a crashed run
//! and its recovery compose into exactly the reference timeline.

mod common;

use common::ensure_worker_bin;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Crash sites × hit counts chosen to land in distinct rounds of the
/// 6-round schedule (hit 1 of `snapshot_mid` would be the bootstrap
/// snapshot at version 0 — also legal, but hit 2 exercises the more
/// interesting periodic snapshot mid-stream).
const CRASH_POINTS: [&str; 3] = ["wal_append_mid:4", "wal_append_done:2", "snapshot_mid:2"];

fn seed() -> u64 {
    std::env::var("MURA_CRASH_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(5)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mura-crash-{}-{}-{tag}", std::process::id(), seed()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_crashd(dir: &Path, plan: &str, cluster: &str, crash: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mura-crashd"));
    cmd.args(["--data-dir", dir.to_str().unwrap(), "--plan", plan, "--cluster", cluster]);
    cmd.args(["--seed", &seed().to_string(), "--rounds", "6"]);
    if cluster == "proc" {
        cmd.args(["--worker-bin", ensure_worker_bin().to_str().unwrap()]);
    }
    match crash {
        Some(point) => cmd.env("MURA_CRASH_POINT", point),
        None => cmd.env_remove("MURA_CRASH_POINT"),
    };
    cmd.output().expect("spawn mura-crashd")
}

/// Parsed machine-readable crashd output.
#[derive(Debug, Default)]
struct Transcript {
    /// `RECOVERED v=…` — version the process started serving from.
    recovered_version: u64,
    /// WAL records replayed at startup.
    replayed: u64,
    /// `DELTA v=…` / `LOAD v=…` lines keyed by version.
    steps: BTreeMap<u64, String>,
    /// The `FINAL …` line, if the run got that far.
    final_line: Option<String>,
    /// The `PROBE …` line of a run that recovered something.
    probe: Option<String>,
}

fn parse(stdout: &[u8]) -> Transcript {
    let text = String::from_utf8_lossy(stdout);
    let mut t = Transcript::default();
    let field = |line: &str, key: &str| -> u64 {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key))
            .unwrap_or_else(|| panic!("missing {key} in {line:?}"))
            .parse()
            .unwrap_or_else(|_| panic!("bad {key} in {line:?}"))
    };
    for line in text.lines() {
        if line.starts_with("RECOVERED ") {
            t.recovered_version = field(line, "v=");
            t.replayed = field(line, "replayed=");
        } else if line.starts_with("DELTA ") || line.starts_with("LOAD ") {
            t.steps.insert(field(line, "v="), line.to_string());
        } else if line.starts_with("FINAL ") {
            t.final_line = Some(line.to_string());
        } else if line.starts_with("PROBE ") {
            t.probe = Some(line.to_string());
        }
    }
    t
}

/// Runs the reference (uninterrupted), the crashed run, and the recovery,
/// then checks the recovery composes with the crash into exactly the
/// reference timeline. Returns whether the recovery restored a template:
/// its first request names a constant no run has seen, of a shape every
/// step asks about, and must then be planned by binding, not by a search.
fn check_crash_point(plan: &str, cluster: &str, point: &str) -> bool {
    let ref_dir = scratch_dir(&format!("ref-{plan}-{cluster}"));
    let reference = parse(&{
        let out = run_crashd(&ref_dir, plan, cluster, None);
        assert!(out.status.success(), "reference run failed: {out:?}");
        out.stdout
    });
    let ref_final = reference.final_line.clone().expect("reference FINAL line");

    let dir = scratch_dir(&format!("{plan}-{cluster}-{}", point.replace(':', "-")));
    let crashed = run_crashd(&dir, plan, cluster, Some(point));
    let crashed_t = parse(&crashed.stdout);
    if crashed.status.success() {
        // The crash point never fired (site not reached for this plan):
        // the run must then simply equal the reference.
        assert_eq!(crashed_t.final_line.as_deref(), Some(ref_final.as_str()), "{plan} {point}");
        return false;
    }

    // Every acked mutation in the crashed run matches the reference.
    for (v, line) in &crashed_t.steps {
        assert_eq!(
            Some(line),
            reference.steps.get(v),
            "crashed run diverged from reference before the crash \
             (plan {plan}, {point}, version {v})"
        );
    }
    let acked = crashed_t.steps.keys().max().copied().unwrap_or(0);

    let recovery = run_crashd(&dir, plan, cluster, None);
    assert!(recovery.status.success(), "recovery failed ({plan} {point}): {recovery:?}");
    let rec = parse(&recovery.stdout);

    // Acked mutations must survive; at most the one in-flight, un-acked
    // mutation may additionally have become durable.
    assert!(
        rec.recovered_version >= acked,
        "recovery lost an acked mutation: acked v={acked}, recovered \
         v={} (plan {plan}, {point})",
        rec.recovered_version
    );
    assert!(
        rec.recovered_version <= acked + 1,
        "recovery invented a mutation: acked v={acked}, recovered v={} \
         (plan {plan}, {point})",
        rec.recovered_version
    );

    // The recovered continuation replays the reference timeline exactly:
    // same steps for every remaining version, same final answer.
    let expected: BTreeMap<u64, String> = reference
        .steps
        .iter()
        .filter(|(v, _)| **v > rec.recovered_version)
        .map(|(v, l)| (*v, l.clone()))
        .collect();
    assert_eq!(rec.steps, expected, "post-recovery summaries (plan {plan}, {point})");
    assert_eq!(
        rec.final_line.as_deref(),
        Some(ref_final.as_str()),
        "final answer after recovery (plan {plan}, {point})"
    );

    let probe = rec.probe.expect("a recovery probes its templates");
    let persisted = probe.contains("persisted=true");
    let planned =
        if persisted { "template_hits=1 searches=0" } else { "template_hits=0 searches=1" };
    assert!(probe.ends_with(planned), "{probe} (plan {plan}, {point})");

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
    persisted
}

/// Every crash site of the matrix; at least one of them comes back from a
/// periodic snapshot, which holds the plans of the steps before it.
fn check_matrix(plan: &str) {
    let restored: Vec<bool> =
        CRASH_POINTS.iter().map(|point| check_crash_point(plan, "sim", point)).collect();
    assert!(restored.contains(&true), "{plan}: no crash site restored a template: {restored:?}");
}

#[test]
fn crash_recovery_matrix_gld() {
    check_matrix("gld");
}

#[test]
fn crash_recovery_matrix_plw() {
    check_matrix("plw");
}

/// The durable tier composes with the real multi-process cluster backend:
/// crash the *coordinator* mid-append while workers are live subprocesses,
/// then recover against the same directory.
#[test]
fn crash_recovery_over_process_cluster() {
    check_crash_point("auto", "proc", "wal_append_done:2");
}
