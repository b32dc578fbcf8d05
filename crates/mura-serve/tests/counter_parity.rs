//! Every declared counter is rendered and asserted.
//!
//! One test, its own binary (the kernel set is process-wide: a neighbour
//! test would move it). It drives servers through a script — queries, cache
//! hits, mutations and the reads that catch up, a restart, overload,
//! injected faults, a two-worker process cluster — and holds three things
//! to the rows
//! [`Server::counter_rows`] gives, which is the declarations themselves:
//!
//! * `.stats` and `.metrics` show every declared field: a line per family,
//!   `# HELP` / `# TYPE` once per family, a sample per field, equal to the
//!   row's value;
//! * every field moved somewhere in the script, or is a gauge at rest, or
//!   is named in [`ASSERTED_ELSEWHERE`] with the test that asserts it;
//! * every `mura_*` name README.md and DESIGN.md mention is on the page.

mod common;

use common::ensure_worker_bin;
use mura_core::{kernel_stats, Database, Relation, Term, Value};
use mura_dist::exec::{ExecConfig, FixpointPlan, ResourceLimits};
use mura_dist::localfix::{local_fixpoint_prepared, prepare, Budget, Prepared};
use mura_dist::{FaultConfig, LocalEngine, QueryEngine, RecoveryPolicy};
use mura_ivm::DeltaBatch;
use mura_obs::counters::{families, stats_title, Kind};
use mura_obs::prometheus::sample;
use mura_serve::{ClusterMode, ServeConfig, Server};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;

/// Two relations: a path `e` whose closure takes several supersteps, and a
/// second path `f` that mutations of `e` leave alone.
fn db() -> Database {
    let mut db = Database::new();
    let src = db.intern("src");
    let dst = db.intern("dst");
    db.insert_relation("e", Relation::from_pairs(src, dst, (0..12).map(|i| (i, i + 1))));
    db.insert_relation("f", Relation::from_pairs(src, dst, (20..26).map(|i| (i, i + 1))));
    db
}

/// A directed cycle: n² closure rows, slow under `P_gld`.
fn cycle_engine(n: u64) -> QueryEngine {
    let mut db = Database::new();
    let src = db.intern("src");
    let dst = db.intern("dst");
    db.insert_relation("e", Relation::from_pairs(src, dst, (0..n).map(|i| (i, (i + 1) % n))));
    QueryEngine::with_config(db, ExecConfig { plan: FixpointPlan::ForceGld, ..Default::default() })
}

const TC_E: &str = "?x, ?y <- ?x e+ ?y";
const TC_F: &str = "?x, ?y <- ?x f+ ?y";

fn edges(db: &Database, rel: &str, insert: &[(u64, u64)], delete: &[(u64, u64)]) -> DeltaBatch {
    let mut batch = DeltaBatch::new();
    let row = |&(a, b): &(u64, u64)| vec![Value::node(a), Value::node(b)].into_boxed_slice();
    let rel = db.dict().lookup(rel).expect("relation");
    insert.iter().for_each(|e| batch.push_insert(db, rel, row(e)).unwrap());
    delete.iter().for_each(|e| batch.push_delete(db, rel, row(e)).unwrap());
    batch
}

/// The series (`family{labels}`) seen above zero on some server.
#[derive(Default)]
struct Moved(BTreeSet<String>);

impl Moved {
    fn note(&mut self, server: &Server) {
        for (field, value) in server.counter_rows() {
            if value > 0 && !field.family.is_empty() {
                self.0.insert(field.series());
            }
        }
    }
}

/// `.stats` and `.metrics` of a quiet server against its rows.
fn renderings_match_the_declaration(server: &Server) {
    let rows = server.counter_rows();
    let page = server.metrics();
    let text = server.client().stats_text();
    for run in families(&rows) {
        let head = run[0].0;
        let family = head.family;
        for line in [
            format!("# HELP {family} {}", head.help),
            format!("# TYPE {family} {}", head.kind.name()),
        ] {
            assert_eq!(page.lines().filter(|l| **l == line).count(), 1, "{line:?} once:\n{page}");
        }
        let title = stats_title(family);
        assert!(text.lines().any(|l| l.starts_with(&format!("{title} "))), "{title}:\n{text}");
        for (field, value) in run {
            let shown = sample(&page, &field.series());
            assert!(shown.is_some(), "no sample {}:\n{page}", field.series());
            if field.kind == Kind::Counter {
                assert_eq!(shown, Some(*value as f64), "{}", field.series());
            }
        }
    }
    // Every sample line is "name[{labels}] value".
    for line in page.lines().filter(|l| !l.starts_with('#')) {
        let (name, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "bad sample line: {line}");
    }
}

/// A μ-RA loop with a foldable subtree and an antijoin against a constant,
/// run in this process: UCRPQ has neither, and the kernel set is
/// process-wide, so this moves what every server here exposes.
fn antijoin_kernel() {
    let mut db = Database::new();
    let (src, dst, m, x) = (db.intern("src"), db.intern("dst"), db.intern("m"), db.intern("X"));
    let e = Relation::from_pairs(src, dst, (0..12).map(|i| (i, i + 1)));
    let blocked = Relation::from_pairs(src, dst, [(0, 5)]);
    let step = Term::var(x)
        .rename(dst, m)
        .join(Term::cst(e.clone()).rename(src, m))
        .antiproject(m)
        .antijoin(Term::cst(blocked));
    let prepared: Vec<Prepared<Relation>> = vec![prepare(&step, x, e.schema()).unwrap()];
    let closure = local_fixpoint_prepared(&e, &prepared, &Budget::new(None, None)).unwrap();
    // (0,5) is blocked, and with it the only way to (0,6) … (0,12).
    assert_eq!(closure.len(), 12 * 13 / 2 - 8);
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mura-parity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What node 0 reaches: the planner pushes the constant into the fixpoint,
/// whose seed is then the edges out of node 0.
const FROM_0: &str = "?x <- 0 e+ ?x";

/// Queries, cache hits and evictions, a failed query, mutations and the
/// reads that bring one view forward, find another untouched and a third
/// out of the batch's reach, then a restart that replays the log.
fn serve_mutate_restart(moved: &mut Moved) {
    let dir = scratch_dir("durable");
    let config = ServeConfig {
        data_dir: Some(dir.clone()),
        result_cache: 3,
        plan_cache: 3,
        ..Default::default()
    };
    let server = Server::try_start(QueryEngine::new(db()), config.clone()).unwrap();
    let client = server.client();
    let reads = std::cell::Cell::new(0);
    let read = |text: &str| {
        reads.set(reads.get() + 1);
        client.query(text).unwrap()
    };
    // How one read moved (maintained, unaffected, fallbacks, hits, misses).
    let fate_of = |text: &str| {
        let b = server.stats();
        read(text);
        let a = server.stats();
        (
            a.ivm_maintained - b.ivm_maintained,
            a.ivm_unaffected - b.ivm_unaffected,
            a.ivm_fallbacks - b.ivm_fallbacks,
            a.result_hits - b.result_hits,
            a.result_misses - b.result_misses,
        )
    };
    for _ in 0..3 {
        for text in [TC_E, TC_F, FROM_0] {
            read(text);
        }
    }
    let mutate = |insert: &[(u64, u64)], delete: &[(u64, u64)]| {
        let batch = server.with_db(|db| edges(db, "e", insert, delete));
        let before = server.stats();
        let summary = server.apply_delta(batch).unwrap();
        assert_eq!((summary.inserted, summary.deleted), (insert.len() as u64, delete.len() as u64));
        let after = server.stats();
        assert_eq!(after.version, before.version + 1);
        // A mutation touches no view.
        assert_eq!(
            after.ivm_maintained + after.ivm_unaffected + after.ivm_fallbacks,
            before.ivm_maintained + before.ivm_unaffected + before.ivm_fallbacks
        );
    };
    mutate(&[(100, 101)], &[]);
    assert_eq!(fate_of(TC_E), (1, 0, 0, 1, 0), "maintained by the read, which is a hit");
    assert_eq!(fate_of(TC_E), (0, 0, 0, 1, 0), "current now");
    assert_eq!(fate_of(TC_F), (0, 1, 0, 1, 0), "f+ does not read e");
    // (100, 101) is out of node 0's reach: every branch of the fixpoint has
    // an empty delta, and the view is revalidated without an execution.
    let kernel = kernel_stats().snapshot();
    assert_eq!(fate_of(FROM_0), (0, 1, 0, 1, 0));
    let ran = kernel_stats().snapshot().since(&kernel);
    assert_eq!((ran.index_builds, ran.join_probes), (0, 0), "nothing executed");
    // An edge out of node 0 to a node with no way on grows the seed and
    // leaves the recursive frontier empty: not unaffected.
    mutate(&[(0, 200)], &[]);
    assert_eq!(fate_of(FROM_0), (1, 0, 0, 1, 0));
    mutate(&[], &[(3, 4)]);
    let before = server.stats().ivm_rederived_rows;
    assert_eq!(fate_of(TC_E), (1, 0, 0, 1, 0), "over two batches at once");
    assert!(server.stats().ivm_rederived_rows > before);
    assert!(client.query_with_deadline(TC_E, Duration::ZERO).unwrap_err().is_deadline());
    // Three more nodes of `FROM_0`'s shape. The catch-ups above moved the
    // observations, so the first searches the shape again — for node 0 —
    // and the other two bind what it found; what the three runs measure is
    // not the planner's to read.
    let before = server.stats();
    for evicting in ["?x <- 1 e+ ?x", "?x <- 2 e+ ?x", "?x <- 3 e+ ?x"] {
        read(evicting);
    }
    // Every read is a hit (the entry was current, or was caught up) or a
    // miss; the one that had no time left never got as far as asking. And
    // every read was planned exactly one way: from the text memo or through
    // a template (both hits), or by a search.
    let stats = server.stats();
    assert_eq!(stats.result_hits + stats.result_misses, reads.get(), "{stats:?}");
    assert_eq!(stats.plan_hits + stats.plan_misses, reads.get(), "{stats:?}");
    assert_eq!(
        (stats.plan_template_hits, stats.plan_misses, stats.feedback_generation),
        (before.plan_template_hits + 2, before.plan_misses + 1, before.feedback_generation),
        "{stats:?}"
    );
    assert!(stats.plan_template_hits <= stats.plan_hits);
    assert!(stats.ivm_maintained + stats.ivm_unaffected <= stats.result_hits);
    moved.note(&server);
    renderings_match_the_declaration(&server);
    let text = client.stats_text();
    assert!(text.contains("query_wall_seconds               p50 "), "{text}");
    server.shutdown();

    let server = Server::try_start(QueryEngine::new(db()), config).unwrap();
    moved.note(&server);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Views the maintenance planner gives up on, one per reason a served
/// UCRPQ query can meet: a fixpoint under a fixpoint, a frontier dearer
/// than recomputing, a catch-up run that blows the row budget (whose error
/// is that read's answer).
fn maintenance_fallbacks(moved: &mut Moved) {
    let limits = ResourceLimits { max_rows: Some(2000), max_bytes: None, timeout: None };
    let star: Vec<(u64, u64)> = (100..160).map(|k| (26, k)).collect();
    let chain: Vec<(u64, u64)> = (26..120).map(|i| (i, i + 1)).collect();
    for (query, limits, rel, inserted) in [
        ("?x, ?y <- ?x (e+/f)+ ?y", ResourceLimits::default(), "e", vec![(100, 101)]),
        (TC_F, ResourceLimits::default(), "f", star),
        (TC_F, limits, "f", chain),
    ] {
        let server =
            Server::start(QueryEngine::new(db()), ServeConfig { limits, ..Default::default() });
        for _ in 0..3 {
            server.client().query(query).unwrap();
        }
        let batch = server.with_db(|db| edges(db, rel, &inserted, &[]));
        server.apply_delta(batch).unwrap();
        let read = server.client().query(query);
        let stats = server.stats();
        assert_eq!((stats.ivm_fallbacks, stats.result_misses), (1, 2), "{query}: {stats:?}");
        assert_eq!(read.is_err(), limits.max_rows.is_some(), "{query}");
        moved.note(&server);
        server.shutdown();
    }
}

/// A full queue rejects, a zero watermark sheds, a blown byte budget opens
/// the breaker.
fn overload(moved: &mut Moved) {
    let server = Server::start(
        cycle_engine(1200),
        ServeConfig { workers: 1, queue_depth: 1, result_cache: 0, ..Default::default() },
    );
    let client = server.client();
    let mut pending = Vec::new();
    loop {
        match client.submit(TC_E, None) {
            Ok(p) => pending.push(p),
            Err(e) => {
                assert!(e.is_busy(), "{e}");
                break;
            }
        }
    }
    pending.iter().for_each(|p| p.cancel());
    pending.into_iter().for_each(|p| drop(p.wait()));
    moved.note(&server);
    server.shutdown();

    let server = Server::start(
        cycle_engine(40),
        ServeConfig { memory_watermark_bytes: Some(0), breaker_threshold: 0, ..Default::default() },
    );
    assert!(server.client().query(TC_E).unwrap_err().is_overloaded());
    moved.note(&server);
    server.shutdown();

    let limits = ResourceLimits { max_rows: None, max_bytes: Some(32 << 10), timeout: None };
    let server = Server::start(
        cycle_engine(200),
        ServeConfig { limits, breaker_threshold: 1, ..Default::default() },
    );
    assert!(server.client().query(TC_E).is_err());
    moved.note(&server);
    server.shutdown();
}

/// Every fixpoint plan under the chaos profile, under memory pressure and
/// under faults that outlast the task retries, checkpointing as it goes.
fn injected_faults(moved: &mut Moved) {
    // Injected panics are caught and retried; keep their backtraces out of
    // the test output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info.payload().downcast_ref::<String>();
        if !injected.is_some_and(|m| m.starts_with("injected worker panic")) {
            default_hook(info);
        }
    }));
    let pressure = FaultConfig { seed: 7, memory_pressure_prob: 0.2, ..Default::default() };
    let hard =
        FaultConfig { seed: 7, panic_prob: 0.15, failures_per_site: 4, ..Default::default() };
    // A restore replays iterations when checkpoints are a step apart; the
    // faults that outlast the retries need one at every step to get through.
    // `P_plw` runs both of its worker loops: the closure kernel (SetRDD),
    // whose few supersteps a restore seldom replays, and the semi-naive
    // chains (the sorted engine), whose every iteration is one.
    let loops = [
        (FixpointPlan::ForceGld, LocalEngine::SetRdd),
        (FixpointPlan::ForcePlw, LocalEngine::SetRdd),
        (FixpointPlan::ForcePlw, LocalEngine::Sorted),
    ];
    for (fault, checkpoint_every) in [(FaultConfig::chaos(7), 2), (pressure, 2), (hard, 1)] {
        for (plan, local_engine) in loops {
            let config = ExecConfig {
                plan,
                local_engine,
                fault,
                recovery: RecoveryPolicy { max_restores: 64, ..Default::default() },
                checkpoint_every,
                ..Default::default()
            };
            let server =
                Server::start(QueryEngine::with_config(db(), config), ServeConfig::default());
            server.client().query(TC_E).unwrap();
            moved.note(&server);
            server.shutdown();
        }
    }
}

const ROWS_BCAST: &str = "mura_comm_rows_broadcast_total";

/// A profiled `P_gld` closure over two worker processes: bytes on sockets,
/// and the workers' own frame counts next to the coordinator's.
fn two_worker_processes(moved: &mut Moved) {
    let config = ExecConfig { plan: FixpointPlan::ForceGld, ..Default::default() };
    let server = Server::try_start(
        QueryEngine::with_config(db(), config),
        ServeConfig {
            cluster: ClusterMode::Processes { workers: 2 },
            worker_bin: Some(ensure_worker_bin()),
            ..Default::default()
        },
    )
    .unwrap();
    let out = server.client().profile(TC_E).unwrap();
    assert!(out.trace().is_some());
    let page = server.metrics();
    let read = |series: &str| sample(&page, series).unwrap_or_else(|| panic!("{series}:\n{page}"));
    // Every exchange is one relay to and one take from each of the two
    // workers, and the coordinator's shuffle count says how many exchanges
    // there were: the workers' own count of the data plane stays within it
    // (it trails by what they handled since their last flush).
    let exchanges = read("mura_comm_shuffles_total");
    assert!(exchanges > 0.0);
    for op in ["relay", "take"] {
        let frames = read(&format!("mura_worker_frames_total{{op=\"{op}\"}}"));
        assert!(0.0 < frames && frames <= 2.0 * exchanges, "{op}: {frames} of {exchanges}");
    }
    // The workers keep the replicas they were sent: profiled again, the
    // query is sent none, and every row it broadcasts is spared on both.
    let (bcasts, broadcast) = (read("mura_worker_frames_total{op=\"bcast\"}"), read(ROWS_BCAST));
    assert!(read("mura_worker_replicas_held{unit=\"bytes\"}") > 0.0);
    server.client().profile(TC_E).unwrap();
    let page = server.metrics();
    let read = |series: &str| sample(&page, series).unwrap_or_else(|| panic!("{series}:\n{page}"));
    assert_eq!(read("mura_worker_frames_total{op=\"bcast\"}"), bcasts);
    let spared = read("mura_cluster_rows_resident_total");
    assert!(spared > 0.0 && spared == 2.0 * (read(ROWS_BCAST) - broadcast), "{spared}");
    moved.note(&server);
    renderings_match_the_declaration(&server);
    server.shutdown();

    // The same fleet size under process-mode chaos: kills, severed and
    // slowed connections, corrupted frames, and the repairs they force.
    let fault = FaultConfig {
        seed: 7,
        panic_prob: 0.4,
        drop_prob: 0.4,
        straggler_prob: 0.2,
        corrupt_frame_prob: 0.4,
        straggler_delay_ms: 1,
        ..Default::default()
    };
    let config = ExecConfig {
        plan: FixpointPlan::ForceGld,
        fault,
        checkpoint_every: 2,
        ..Default::default()
    };
    let server = Server::try_start(
        QueryEngine::with_config(db(), config),
        ServeConfig {
            cluster: ClusterMode::Processes { workers: 2 },
            worker_bin: Some(ensure_worker_bin()),
            ..Default::default()
        },
    )
    .unwrap();
    server.client().query(TC_E).unwrap();
    moved.note(&server);
    server.shutdown();
}

/// Point-in-time values that rest at zero on a quiet server.
const GAUGES: &[&str] = &[
    "mura_breaker_state{state=\"half_open\"}",
    "mura_mem_current_bytes",
    "mura_drain_phase",
    "mura_snapshot_age_seconds",
    "mura_db_epoch",
];

/// Counters the script cannot be made to move, each with the test that
/// asserts it.
const ASSERTED_ELSEWHERE: &[(&str, &str)] = &[
    // No UCRPQ text translates to an antijoin, and a served view always
    // carries its totals: the planner's reasons are asserted where it
    // decides them.
    (
        "mura_ivm_fallback_total{reason=\"non-monotone\"}",
        "mura-ivm tests::changed_under_antijoin_rhs_falls_back",
    ),
    ("mura_ivm_fallback_total{reason=\"cache-cold\"}", "mura-ivm tests::cold_cache_falls_back"),
    // Whether the heartbeat or an exchange meets a dead worker first is a
    // race under chaos; the heartbeat alone is driven there.
    (
        "mura_supervisor_events_total{kind=\"liveness_miss\"}",
        "mura-dist proc_cluster::the_heartbeat_alone_notices_and_replaces_a_dead_worker",
    ),
    // 8192 spans between two flushes.
    (
        "mura_trace_dropped_spans_total",
        "mura-dist worker::tests::the_span_ring_is_bounded_and_counts_what_it_evicts",
    ),
    // 64 MiB of replicas on one worker.
    (
        "mura_worker_replica_evictions_total",
        "mura-dist proc_cluster::replicas_past_the_cap_are_evicted_and_the_record_matches_the_worker",
    ),
];

#[test]
fn every_declared_counter_is_rendered_and_moves() {
    let mut moved = Moved::default();
    antijoin_kernel();
    serve_mutate_restart(&mut moved);
    maintenance_fallbacks(&mut moved);
    overload(&mut moved);
    injected_faults(&mut moved);
    two_worker_processes(&mut moved);

    let server = Server::start(QueryEngine::new(db()), ServeConfig::default());
    let rows = server.counter_rows();
    let page = server.metrics();
    server.shutdown();

    let mut unmoved = Vec::new();
    for (field, _) in rows.iter().filter(|(f, _)| !f.family.is_empty()) {
        let series = field.series();
        let gauge = GAUGES.contains(&series.as_str());
        assert!(!gauge || field.kind == Kind::Gauge, "{series} is listed as a gauge");
        let elsewhere = ASSERTED_ELSEWHERE.iter().any(|(s, _)| *s == series);
        if !moved.0.contains(&series) && !gauge && !elsewhere {
            unmoved.push(series);
        }
    }
    assert!(unmoved.is_empty(), "declared, never moved, not excused: {unmoved:#?}");

    // The documents name only what the page serves. A `mura_*` word is a
    // metric family unless it is a crate (`mura_core::…`) or the stem of
    // a pattern (`mura_query_{wall,queue}_seconds`).
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for word in text.split(|c: char| !(c.is_ascii_lowercase() || c == '_')) {
            let is_crate = || root.join("crates").join(word.replace('_', "-")).is_dir();
            if word.starts_with("mura_") && !word.ends_with('_') && !is_crate() {
                assert!(
                    page.contains(&format!("# TYPE {word} ")),
                    "{doc} names {word}, which the page does not serve"
                );
            }
        }
    }
}
