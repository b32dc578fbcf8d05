//! Crash-recovery chaos driver for the durable serving tier.
//!
//! `mura-crashd` runs a *deterministic* serving session against a durable
//! data directory: a seeded random graph, a fixed schedule of delta
//! batches (plus one mid-stream reload), a warm query before every
//! mutation — the closure, and what one node reaches, a different node at
//! every step. The whole schedule is a pure function of the seed — never of
//! server state — so two invocations over the same directory compose: a
//! run that crashes partway (via `MURA_CRASH_POINT`, see
//! `mura_durable::crash`) is continued by the next invocation, which
//! recovers the directory and picks the schedule up from the recovered
//! version.
//!
//! The harness (`tests/crash_recovery.rs`) compares the machine-parseable
//! stdout lines of a crashed+recovered pair against an uninterrupted
//! reference run of the same seed:
//!
//! ```text
//! RECOVERED v=<version> replayed=<wal records> snapshots=<written>
//! PROBE persisted=<bool> template_hits=<n> searches=<n>
//! DELTA v=<version> ins=<n> del=<n>
//! LOAD v=<version>
//! FINAL v=<version> epoch=<epoch> rows=<count> hash=<fxhash>
//! ```
//!
//! `PROBE` follows a recovery: what a node no step asks about reaches — a
//! constant nobody has seen, of a shape the steps before the crash did
//! ask. `persisted` is what `.explain` says of it (a restored snapshot held
//! a text of the shape, costed under the restored generation); the two
//! counts are how the request itself was planned.
//!
//! A `DELTA` line is printed only after `apply_delta` returned — i.e.
//! after the batch was durably logged — so every printed version is a
//! promise recovery must keep.

use std::path::PathBuf;

use mura_core::fxhash::FxHasher;
use mura_core::{Database, Relation, Value};
use mura_datagen::{erdos_renyi, SplitMix64};
use mura_dist::exec::{ExecConfig, FixpointPlan};
use mura_dist::QueryEngine;
use mura_serve::{ClusterMode, DeltaBatch, ServeConfig, Server};
use std::hash::{Hash, Hasher};

const TC: &str = "?x, ?y <- ?x edge+ ?y";
const NODES: u64 = 40;

/// What `node` reaches: one shape, a text per node.
fn reached_from(node: u64) -> String {
    format!("?x <- {node} edge+ ?x")
}

/// One version-consuming step of the deterministic schedule.
enum Step {
    /// Insert/delete batch against `edge`.
    Delta { ins: Vec<(u64, u64)>, del: Vec<(u64, u64)> },
    /// Same-shape reload of `edge` from the mirror (exercises the WAL's
    /// full-database record kind).
    Load,
}

struct Args {
    data_dir: PathBuf,
    seed: u64,
    rounds: u64,
    plan: FixpointPlan,
    cluster: ClusterMode,
    worker_bin: Option<PathBuf>,
    snapshot_every: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        data_dir: PathBuf::new(),
        seed: 1,
        rounds: 6,
        plan: FixpointPlan::Auto,
        cluster: ClusterMode::InProcess,
        worker_bin: None,
        snapshot_every: 2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--data-dir" => args.data_dir = PathBuf::from(val()),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| die("bad --seed")),
            "--rounds" => args.rounds = val().parse().unwrap_or_else(|_| die("bad --rounds")),
            "--snapshot-every" => {
                args.snapshot_every = val().parse().unwrap_or_else(|_| die("bad --snapshot-every"))
            }
            "--plan" => {
                args.plan = match val().as_str() {
                    "gld" => FixpointPlan::ForceGld,
                    "plw" => FixpointPlan::ForcePlw,
                    "auto" => FixpointPlan::Auto,
                    other => die(&format!("unknown --plan {other}")),
                }
            }
            "--cluster" => {
                args.cluster = match val().as_str() {
                    "sim" => ClusterMode::InProcess,
                    "proc" => ClusterMode::Processes { workers: 2 },
                    other => die(&format!("unknown --cluster {other}")),
                }
            }
            "--worker-bin" => args.worker_bin = Some(PathBuf::from(val())),
            other => die(&format!("unknown flag {other}")),
        }
    }
    if args.data_dir.as_os_str().is_empty() {
        die("--data-dir is required");
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("mura-crashd: {msg}");
    std::process::exit(2);
}

/// The full mutation schedule for a seed: the initial edge set and one
/// step per version 1..=rounds+1 (the extra step is the mid-stream
/// reload). Pure in the seed so interrupted and reference runs agree.
fn schedule(seed: u64, rounds: u64) -> (Vec<(u64, u64)>, Vec<Step>) {
    let g = erdos_renyi(NODES, 0.05, seed);
    let mut edges: Vec<(u64, u64)> = g.edges.iter().map(|&(s, _, d)| (s, d)).collect();
    edges.sort_unstable();
    edges.dedup();
    let initial = edges.clone();

    let mut rng = SplitMix64::seed_from_u64(seed.wrapping_mul(0x9e37_79b9) | 1);
    let mut steps = Vec::new();
    let mut mirror = edges;
    for round in 0..rounds {
        let (n_ins, n_del) = if round % 4 == 3 { (1, 5) } else { (3, 1) };
        let mut ins: Vec<(u64, u64)> = Vec::new();
        while ins.len() < n_ins {
            let e = (rng.gen_range(0..NODES), rng.gen_range(0..NODES));
            if !mirror.contains(&e) && !ins.contains(&e) {
                ins.push(e);
            }
        }
        let mut del: Vec<(u64, u64)> = Vec::new();
        for _ in 0..n_del {
            if let Some(&e) = rng.choose(&mirror) {
                if !del.contains(&e) {
                    del.push(e);
                }
            }
        }
        mirror.retain(|e| !del.contains(e));
        mirror.extend(ins.iter().copied());
        mirror.sort_unstable();
        mirror.dedup();
        steps.push(Step::Delta { ins, del });
        if round + 1 == rounds / 2 {
            steps.push(Step::Load);
        }
    }
    (initial, steps)
}

fn db_from_edges(edges: &[(u64, u64)]) -> Database {
    let mut db = Database::new();
    let src = db.intern("src");
    let dst = db.intern("dst");
    db.insert_relation("edge", Relation::from_pairs(src, dst, edges.iter().copied()));
    db
}

fn apply_to_mirror(mirror: &mut Vec<(u64, u64)>, step: &Step) {
    if let Step::Delta { ins, del } = step {
        mirror.retain(|e| !del.contains(e));
        mirror.extend(ins.iter().copied());
        mirror.sort_unstable();
        mirror.dedup();
    }
}

fn main() {
    let args = parse_args();
    let (initial, steps) = schedule(args.seed, args.rounds);

    let exec = ExecConfig { plan: args.plan, ..Default::default() };
    let config = ServeConfig {
        cluster: args.cluster,
        worker_bin: args.worker_bin.clone(),
        data_dir: Some(args.data_dir.clone()),
        snapshot_every: args.snapshot_every,
        ..Default::default()
    };
    let server = Server::recover(QueryEngine::with_config(db_from_edges(&initial), exec), config)
        .unwrap_or_else(|e| die(&format!("recover: {e}")));
    let client = server.client();

    let recovered = server.version();
    let stats = server.stats();
    println!(
        "RECOVERED v={recovered} replayed={} snapshots={}",
        stats.recovery_replayed_batches, stats.snapshots_written
    );

    if recovered > 0 {
        let probe = reached_from(NODES - 1);
        let explained = server.explain(&probe).unwrap_or_else(|e| die(&format!("explain: {e}")));
        client.query(&probe).unwrap_or_else(|e| die(&format!("probe query: {e}")));
        let st = server.stats();
        println!(
            "PROBE persisted={} template_hits={} searches={}",
            explained.contains("template     hit"),
            st.plan_template_hits,
            st.plan_misses
        );
    }

    // Fast-forward the mirror over steps a previous process made durable.
    let mut mirror = initial;
    for step in steps.iter().take(recovered as usize) {
        apply_to_mirror(&mut mirror, step);
    }

    for (i, step) in steps.iter().enumerate().skip(recovered as usize) {
        // Read the view at the current version: this is what brings it
        // forward over the step before, or recomputes it after a restart.
        for text in [TC.to_string(), reached_from(i as u64)] {
            client.query(&text).unwrap_or_else(|e| die(&format!("warm query: {e}")));
        }
        if std::env::var_os("MURA_CRASHD_DEBUG").is_some() {
            let st = server.stats();
            eprintln!(
                "DBG step={i} v={} gen={} fixpoints={} plan_miss={} plan_hit={} template_hit={} res_hit={} res_miss={}",
                server.version(),
                st.feedback_generation,
                st.feedback_fixpoints,
                st.plan_misses,
                st.plan_hits,
                st.plan_template_hits,
                st.result_hits,
                st.result_misses,
            );
        }
        match step {
            Step::Delta { ins, del } => {
                let batch = server.with_db(|db| {
                    let rel = db.dict().lookup("edge").expect("edge relation");
                    let mut b = DeltaBatch::new();
                    for &(x, y) in ins {
                        let row = vec![Value::node(x), Value::node(y)].into_boxed_slice();
                        b.push_insert(db, rel, row).expect("push insert");
                    }
                    for &(x, y) in del {
                        let row = vec![Value::node(x), Value::node(y)].into_boxed_slice();
                        b.push_delete(db, rel, row).expect("push delete");
                    }
                    b
                });
                let s = server
                    .apply_delta(batch)
                    .unwrap_or_else(|e| die(&format!("apply_delta step {i}: {e}")));
                println!("DELTA v={} ins={} del={}", s.version, s.inserted, s.deleted);
            }
            Step::Load => {
                apply_to_mirror(&mut mirror, step);
                let edges = mirror.clone();
                server
                    .try_load(move |db| {
                        let src = db.intern("src");
                        let dst = db.intern("dst");
                        db.insert_relation(
                            "edge",
                            Relation::from_pairs(src, dst, edges.iter().copied()),
                        );
                    })
                    .unwrap_or_else(|e| die(&format!("load step {i}: {e}")));
                println!("LOAD v={}", server.version());
                continue;
            }
        }
        apply_to_mirror(&mut mirror, step);
    }

    let out = client.query(TC).unwrap_or_else(|e| die(&format!("final query: {e}")));
    let rows = out.relation.sorted_rows();
    let mut h = FxHasher::default();
    rows.hash(&mut h);
    println!(
        "FINAL v={} epoch={} rows={} hash={:016x}",
        server.version(),
        server.epoch(),
        rows.len(),
        h.finish()
    );
    server.shutdown();
}
