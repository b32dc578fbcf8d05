//! Plan templates: a query shape is searched once, a text that differs
//! from an earlier one in its constants only binds what that search found,
//! and only runs of the text the template was searched for feed the
//! planner. The graph and the constants are drawn from `MURA_IVM_SEED`
//! (CI runs 7 / 11 / 42).

use mura_core::{eval, Database, Relation, Value};
use mura_datagen::{erdos_renyi, with_random_labels, SplitMix64};
use mura_dist::QueryEngine;
use mura_serve::{DeltaBatch, ServeConfig, ServeStats, Server};
use mura_ucrpq::{parse_ucrpq, to_mura};

const NODES: u64 = 60;

fn seed() -> u64 {
    std::env::var("MURA_IVM_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(11)
}

/// A random graph over labels `a1`, `a2`, and five distinct nodes of it.
fn seeded() -> (Database, [u64; 5]) {
    let mut rng = SplitMix64::seed_from_u64(seed());
    let db = with_random_labels(&erdos_renyi(NODES, 0.05, seed()), 2, &mut rng).to_database();
    let mut nodes: Vec<u64> = Vec::new();
    while nodes.len() < 5 {
        let node = rng.gen_range(0..NODES);
        if !nodes.contains(&node) {
            nodes.push(node);
        }
    }
    (db, nodes.try_into().expect("five nodes"))
}

/// Two shapes with a constant each: the filter ends up inside one closure,
/// and between two.
fn shapes(node: u64) -> [String; 2] {
    [format!("?x <- ?x a1+ {node}"), format!("?y <- {node} a1+/a2+ ?y")]
}

fn centralized(db: &Database, text: &str) -> Vec<Box<[Value]>> {
    let mut db = db.clone();
    let raw = to_mura(&parse_ucrpq(text).expect("parse"), &mut db).expect("translate");
    eval(&raw, &db).expect("centralized eval").sorted_rows()
}

/// How the request between two readings was planned.
#[derive(Debug, PartialEq, Eq)]
enum Planned {
    TextHit,
    TemplateHit,
    Search,
}

fn planned(before: &ServeStats, after: &ServeStats) -> Planned {
    let hits = after.plan_hits - before.plan_hits;
    let bound = after.plan_template_hits - before.plan_template_hits;
    match (hits, bound, after.plan_misses - before.plan_misses) {
        (1, 0, 0) => Planned::TextHit,
        (1, 1, 0) => Planned::TemplateHit,
        (0, 0, 1) => Planned::Search,
        other => panic!("one request, planned {other:?} ways"),
    }
}

/// Runs `text` and says how it was planned.
fn ask(server: &Server, text: &str) -> Planned {
    let before = server.stats();
    server.client().query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    planned(&before, &server.stats())
}

/// Runs `text` until the memo answers for it: its shape is then costed
/// under everything its runs had to tell.
fn settle(server: &Server, text: &str) {
    while ask(server, text) != Planned::TextHit {}
}

/// The loop `feedback.rs` pins for a text without constants, on the text a
/// template is searched for — and none of it on the other texts of the
/// shape: they bind, their answers are the centralized ones, and what
/// their runs measure moves nothing.
#[test]
fn a_new_constant_binds_the_template_and_only_the_representative_feeds_the_planner() {
    let (db, [first, others @ ..]) = seeded();
    let mut direct = QueryEngine::new(db.clone());
    for shape in 0..2 {
        let server = Server::start(QueryEngine::new(db.clone()), ServeConfig::default());
        let text = &shapes(first)[shape];
        assert_eq!(ask(&server, text), Planned::Search);
        let s1 = server.stats();
        assert!(s1.feedback_fixpoints >= 1 && s1.feedback_generation > 0, "{text}: {s1:?}");
        assert_eq!(ask(&server, text), Planned::Search, "{text}: again, under what it observed");
        settle(&server, text);

        for node in others {
            let text = &shapes(node)[shape];
            let before = server.stats();
            let out = server.client().query(text).unwrap();
            let after = server.stats();
            assert_eq!(planned(&before, &after), Planned::TemplateHit, "{text}");
            assert_eq!(out.relation.sorted_rows(), centralized(&db, text), "{text}");
            let ran = direct.run_ucrpq(text).unwrap();
            assert_eq!(out.relation.sorted_rows(), ran.relation.sorted_rows(), "{text}");
            assert_eq!(
                (after.feedback_generation, after.feedback_fixpoints, after.dictionary_symbols),
                (before.feedback_generation, before.feedback_fixpoints, before.dictionary_symbols),
                "{text}: a bound run is not the planner's to read"
            );
            assert_eq!(ask(&server, text), Planned::TextHit, "{text}: the memo has it now");
        }
        server.shutdown();
    }
}

/// A closure that grows past what a confirmation tolerates is re-measured
/// by the read that brings the representative's view forward; the shape is
/// then searched once more, by whichever of its texts asks first, and the
/// other binds what that search found.
#[test]
fn a_material_move_searches_the_shape_once_more() {
    let mut db = Database::new();
    let (src, dst) = (db.intern("src"), db.intern("dst"));
    db.insert_relation("edge", Relation::from_pairs(src, dst, (0..20).map(|i| (i, i + 1))));
    let server = Server::start(QueryEngine::new(db), ServeConfig::default());
    let reached_from = |node: u64| format!("?x <- {node} edge+ ?x");
    let (first, second) = (reached_from(0), reached_from(1));
    settle(&server, &first);
    assert_eq!(ask(&server, &second), Planned::TemplateHit);

    // Twenty more links: node 0 reaches 40 nodes where it reached 20.
    let batch = server.with_db(|db| {
        let rel = db.dict().lookup("edge").expect("the relation");
        let mut batch = DeltaBatch::new();
        for i in 20..40 {
            let row = vec![Value::node(i), Value::node(i + 1)].into_boxed_slice();
            batch.push_insert(db, rel, row).unwrap();
        }
        batch
    });
    server.apply_delta(batch).unwrap();
    let before = server.stats();
    assert_eq!(ask(&server, &first), Planned::TextHit, "nothing had moved when it was planned");
    let moved = server.stats();
    assert_eq!(moved.ivm_maintained, before.ivm_maintained + 1);
    assert!(moved.feedback_generation > before.feedback_generation, "re-measured: {moved:?}");

    assert_eq!(ask(&server, &second), Planned::Search, "for node 0, whose binding the shape keeps");
    assert_eq!(ask(&server, &first), Planned::TemplateHit, "costed a moment ago");
    let settled = server.stats();
    assert_eq!(settled.feedback_generation, moved.feedback_generation, "{settled:?}");
    assert_eq!(settled.result_misses, before.result_misses, "the same plans, their views");
    let out = server.client().query(&second).unwrap();
    assert_eq!(out.relation.len(), 39, "what node 1 reaches on a 40-edge chain");
    server.shutdown();
}

#[test]
fn a_reshaping_load_drops_templates_and_a_refresh_keeps_them() {
    let (db, nodes) = seeded();
    let server = Server::start(QueryEngine::new(db), ServeConfig::default());
    let text = |i: usize| shapes(nodes[i])[0].clone();
    settle(&server, &text(0));

    // The same relations again: the measured world is gone, the plans and
    // what they were searched for are not.
    server.load(|db| {
        let a1 = db.relation_by_name("a1").expect("a1").clone();
        db.insert_relation("a1", a1);
    });
    assert_eq!(server.epoch(), 0);
    assert_eq!(ask(&server, &text(1)), Planned::TemplateHit);

    server.load(|db| {
        let (src, dst) = (db.intern("src"), db.intern("dst"));
        db.insert_relation("a3", Relation::from_pairs(src, dst, [(1, 2)]));
    });
    assert_eq!(server.epoch(), 1);
    assert_eq!(ask(&server, &text(2)), Planned::Search, "interned against another catalog");
    server.shutdown();
}

#[test]
fn explain_populates_neither_cache() {
    let (mut db, nodes) = seeded();
    db.bind_constant("Home", Value::node(nodes[0]));
    let server = Server::start(QueryEngine::new(db), ServeConfig::default());
    let [home, other] = [0, 1].map(|i| shapes(nodes[i])[1].clone());

    let cold = server.explain(&home).unwrap();
    assert!(cold.contains("template     miss"), "{cold}");
    let stats = server.stats();
    assert_eq!((stats.plan_hits, stats.plan_misses), (0, 0), "{stats:?}");
    assert_eq!(ask(&server, &home), Planned::Search, "the explain filed no template");

    settle(&server, &home);
    let generation = server.stats().feedback_generation;
    let warm = server.explain(&other).unwrap();
    let line = format!("template     hit (searched for Home, generation {generation})");
    assert!(warm.contains(&line), "{warm}");
    assert_eq!(ask(&server, &other), Planned::TemplateHit, "the explain filed no text");
    server.shutdown();
}
