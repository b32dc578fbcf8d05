//! Acceptance tests for the observability surface: `.profile` timelines and
//! the `.metrics` / `.profile` verbs over TCP. What `.stats` and `.metrics`
//! contain is held to the counter declarations by `counter_parity.rs`.

use mura_core::{Database, Relation};
use mura_dist::exec::{ExecConfig, FixpointPlan};
use mura_dist::QueryEngine;
use mura_obs::prometheus::sample;
use mura_serve::{protocol, serve_tcp, ServeConfig, Server};
use std::io::{BufReader, Write};
use std::net::TcpStream;

/// A 12-node path graph: its transitive closure needs several semi-naive
/// supersteps, so a profile shows a real timeline.
fn path_db() -> Database {
    let mut db = Database::new();
    let src = db.intern("src");
    let dst = db.intern("dst");
    db.insert_relation("e", Relation::from_pairs(src, dst, (0..12).map(|i| (i, i + 1))));
    db
}

const TC: &str = "?x, ?y <- ?x e+ ?y";

#[test]
fn profile_returns_superstep_timeline() {
    let config = ExecConfig { plan: FixpointPlan::ForceGld, ..Default::default() };
    let server = Server::start(QueryEngine::with_config(path_db(), config), ServeConfig::default());
    let client = server.client();

    let out = client.profile(TC).unwrap();
    let trace = out.trace().expect("profiled query carries a trace");
    let steps: Vec<_> = trace.supersteps().collect();
    assert!(steps.len() >= 3, "expected several supersteps, got {}", steps.len());
    // Under P_gld every productive superstep shuffles rows.
    for s in steps.iter().filter(|s| s.delta_rows > 0) {
        assert!(s.rows_shuffled > 0, "superstep {} shows no shuffled rows: {s:?}", s.iteration);
    }
    // The rendered timeline has a header plus one row per event.
    let table = trace.render_timeline();
    assert_eq!(table.lines().count(), 1 + trace.events.len(), "{table}");
    server.shutdown();
}

#[test]
fn profile_bypasses_result_cache_and_plain_queries_stay_untraced() {
    let server = Server::start(QueryEngine::new(path_db()), ServeConfig::default());
    let client = server.client();

    // One untraced run warms the result cache: what it observed makes the
    // next run plan again, and that lands on the same plan, so on its view.
    let plain = client.query(TC).unwrap();
    assert!(plain.trace().is_none(), "plain queries must not pay for tracing");
    let warm = server.stats();

    // The profile must execute fresh (a cached answer has no trace)...
    let profiled = client.profile(TC).unwrap();
    assert!(profiled.trace().is_some());
    assert_eq!(profiled.relation.sorted_rows(), plain.relation.sorted_rows());
    let mid = server.stats();
    assert_eq!(mid.result_hits, warm.result_hits, "profile must bypass the result cache");
    assert_eq!(mid.result_misses, warm.result_misses, "profile counts neither hit nor miss");

    // ...and must not poison the cache with a traced entry.
    let after = client.query(TC).unwrap();
    assert!(after.trace().is_none(), "cache must never serve traced outputs");
    let stats = server.stats();
    assert_eq!(stats.result_hits, mid.result_hits + 1, "post-profile plain query hits: {stats:?}");
    assert_eq!(stats.result_misses, mid.result_misses, "{stats:?}");
    server.shutdown();
}

/// 500 texts no two alike — every one misses the text memo — leave in the
/// dictionary their one query variable: what a search mints is numbers, and
/// a plan's binders are too (before PR 15 over 100,000 names after this
/// run, before PR 19 a few per plan). They are 40 shapes over 13 nodes
/// each, so the cold stream is mostly template bindings: a shape is
/// searched for its first node, once more after that node's run was
/// observed, and again only when another shape's first run measured a
/// fixpoint nobody had (before PR 24: 500 searches, 276 bumps).
#[test]
fn dictionary_stays_small_over_five_hundred_distinct_misses() {
    let server = Server::start(QueryEngine::new(path_db()), ServeConfig::default());
    let client = server.client();
    let before = server.stats().dictionary_symbols;
    assert_eq!(before, 3, "src, dst, e");
    let mut texts = Vec::new();
    for steps in 1..=10 {
        let chain = "e/".repeat(steps - 1);
        for path in [format!("{chain}e+"), format!("e+/{chain}e")] {
            for node in 0..13 {
                texts.push(format!("?x <- {node} {path} ?x"));
                texts.push(format!("?x <- ?x {path} {node}"));
            }
        }
    }
    texts.truncate(500);
    for text in &texts {
        client.query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    }
    let stats = server.stats();
    assert_eq!(stats.plan_hits + stats.plan_misses, 500, "{stats:?}");
    assert_eq!(stats.plan_template_hits, stats.plan_hits, "no text came twice: {stats:?}");
    assert!(stats.plan_misses <= 100, "40 shapes, {} searches", stats.plan_misses);
    assert!(stats.feedback_generation <= 40, "{} bumps", stats.feedback_generation);
    assert!(stats.dictionary_symbols < 100, "{} symbols after 500 plans", stats.dictionary_symbols);
    assert_eq!(
        sample(&server.metrics(), "mura_dictionary_symbols"),
        Some(stats.dictionary_symbols as f64)
    );
    server.shutdown();
}

#[test]
fn tcp_metrics_and_profile_commands() {
    let server = Server::start(QueryEngine::new(path_db()), ServeConfig::default());
    let handle = serve_tcp(&server, "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let write = |line: &str| {
        let mut s = stream.try_clone().unwrap();
        s.write_all(format!("{line}\n").as_bytes()).unwrap();
    };

    write(&format!(".profile {TC}"));
    let (status, body) = protocol::read_response(&mut reader).unwrap();
    assert!(status.starts_with("OK profile "), "{status}");
    // Header row plus at least fixpoint-start, setup, one superstep, end.
    assert!(body.len() >= 5, "timeline too short: {body:?}");
    assert!(body[0].contains("event"), "missing header: {}", body[0]);
    assert!(body.iter().any(|l| l.contains("superstep")), "{body:?}");

    write(".metrics");
    let (status, body) = protocol::read_response(&mut reader).unwrap();
    assert_eq!(status, "OK metrics");
    assert!(body.iter().any(|l| l.starts_with("mura_queries_total{")), "{body:?}");

    write(".profile");
    let (status, _) = protocol::read_response(&mut reader).unwrap();
    assert!(status.starts_with("ERR usage"), "{status}");

    write(".quit");
    let _ = protocol::read_response(&mut reader).unwrap();
    handle.stop();
    server.shutdown();
}
