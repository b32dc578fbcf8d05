//! Adaptive-replanning acceptance: observed fixpoint cardinalities feed
//! back into the planner, cached plans are invalidated exactly when the
//! measured world changes (a fixpoint measured for the first time or
//! materially away from what was filed; a reload), and `.explain` surfaces
//! the planner's decision procedure.

use mura_core::{Database, Relation};
use mura_datagen::{yago_like, YagoConfig};
use mura_dist::QueryEngine;
use mura_serve::{Answer, DeltaBatch, ServeConfig, Server};
use std::sync::Arc;

const TC: &str = "?x, ?y <- ?x edge+ ?y";

fn db_from_edges(edges: &[(u64, u64)]) -> Database {
    let mut db = Database::new();
    let src = db.intern("src");
    let dst = db.intern("dst");
    db.insert_relation("edge", Relation::from_pairs(src, dst, edges.iter().copied()));
    db
}

fn chain(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|i| (i, i + 1)).collect()
}

fn insert_batch(server: &Server, edges: &[(u64, u64)]) -> DeltaBatch {
    batch(server, edges, true)
}

fn batch(server: &Server, edges: &[(u64, u64)], insert: bool) -> DeltaBatch {
    server.with_db(|db| {
        let rel = db.dict().lookup("edge").expect("a relation of the database");
        let mut b = DeltaBatch::new();
        for &(x, y) in edges {
            let row = vec![mura_core::Value::node(x), mura_core::Value::node(y)].into_boxed_slice();
            if insert { b.push_insert(db, rel, row) } else { b.push_delete(db, rel, row) }.unwrap();
        }
        b
    })
}

/// Warms `query` to plan-cache convergence: run #1 records the first
/// observations (generation bump), run #2 replans under them, run #3 hits.
fn warm(server: &Server, query: &str) {
    let client = server.client();
    for _ in 0..3 {
        client.query(query).expect("warm query");
    }
}

#[test]
fn first_observation_forces_one_replan_then_stabilizes() {
    let server = Server::start(QueryEngine::new(db_from_edges(&chain(20))), ServeConfig::default());
    let client = server.client();
    assert_eq!(server.stats().feedback_fixpoints, 0, "no observations before any execution");

    client.query(TC).unwrap();
    let s1 = server.stats();
    assert!(s1.feedback_fixpoints >= 1, "execution must record fixpoint totals: {s1:?}");
    assert!(s1.feedback_generation > 0, "first observation bumps the generation");

    // The plan cached before the observation is generation-stale: one
    // replan, re-observing within tolerance (no further bump)…
    client.query(TC).unwrap();
    let s2 = server.stats();
    assert_eq!(s2.plan_misses, 2, "second run must re-optimize under observed costs");
    assert_eq!(s2.feedback_generation, s1.feedback_generation, "re-observation is stable");

    // …and the loop has converged.
    client.query(TC).unwrap();
    assert_eq!(server.stats().plan_hits, 1, "third run hits the generation-current plan");
    server.shutdown();
}

/// A re-plan that lands on the plan it had is that plan: the run after the
/// first observation plans again and is answered from the first run's view,
/// and so is the run after a read whose catch-up moved the observation —
/// from the view that read brought forward.
#[test]
fn replan_onto_the_same_plan_is_answered_from_its_view() {
    let server = Server::start(QueryEngine::new(db_from_edges(&chain(20))), ServeConfig::default());
    let client = server.client();
    let first = client.query(TC).unwrap();
    let s1 = server.stats();
    assert_eq!((s1.plan_misses, s1.result_misses, s1.result_hits), (1, 1, 0));
    assert!(s1.feedback_generation > 0, "the run's observations bump the generation");

    let second = client.query(TC).unwrap();
    let s2 = server.stats();
    assert_eq!(s2.plan_misses, 2, "planned again under the observation");
    assert_eq!((s2.result_hits, s2.result_misses), (1, 1), "and not executed again: {s2:?}");
    assert_eq!(mura_core::term_key(&second.plan), mura_core::term_key(&first.plan));

    // Ten more links take the closure from 210 rows to 465. The mutation
    // measures nothing; the next read brings the view forward — maintained,
    // not dropped — and that run's totals move the observation.
    let fresh: Vec<(u64, u64)> = (20..30).map(|i| (i, i + 1)).collect();
    server.apply_delta(insert_batch(&server, &fresh)).expect("apply_delta");
    assert_eq!(server.stats().feedback_generation, s2.feedback_generation);
    let third = client.query(TC).unwrap();
    let s3 = server.stats();
    assert_eq!((s3.ivm_maintained, s3.ivm_fallbacks), (1, 0), "{s3:?}");
    assert_eq!(s3.plan_misses, s2.plan_misses, "nothing had moved when it was planned");
    assert_eq!((s3.result_hits, s3.result_misses), (2, 1), "the view answered: {s3:?}");
    assert_eq!(third.relation.len(), 30 * 31 / 2, "the closure of a 30-edge chain");
    assert!(s3.feedback_generation > s2.feedback_generation);
    let fourth = client.query(TC).unwrap();
    let s4 = server.stats();
    assert_eq!(s4.plan_misses, s3.plan_misses + 1, "the moved observation forces a re-plan");
    assert_eq!((s4.result_hits, s4.result_misses), (3, 1), "onto the same plan, its view: {s4:?}");
    assert!(Arc::ptr_eq(&third, &fourth));
    server.shutdown();
}

/// `supersede` is for the re-plan that feedback steered onto a *different*
/// plan, and fires for no other: along each text's way to a stable plan, a
/// re-plan whose rendering equals the one before it is a result hit — the
/// very answer — and one whose rendering differs executes and leaves the
/// old plan's view dropped: nothing but this test still holds its answer.
/// The same holds for the second text of a shape, whose re-plans are mostly
/// not searches: it binds whatever the first text's search left in their
/// template, and its old view goes exactly when that is a different plan.
#[test]
fn supersede_drops_a_view_only_when_the_plan_changed() {
    let db = yago_like(YagoConfig { people: 2_000, seed: 0xa60 }).to_database();
    let server = Server::start(QueryEngine::new(db), ServeConfig::default());
    let client = server.client();
    let (mut same, mut changed, mut bound_changed) = (0, 0, 0);
    let shapes: [&[&str]; 2] = [
        &[
            "?x <- ?x livesIn/isLocatedIn+/dealsWith+ United_States",
            "?x <- ?x livesIn/isLocatedIn+/dealsWith+ Japan",
        ],
        &["?a, ?b, ?c <- ?a (isLocatedIn|isConnectedTo)+ ?b, ?a wasBornIn ?c"],
    ];
    for texts in shapes {
        let mut previous: Vec<Option<(String, Arc<Answer>)>> = vec![None; texts.len()];
        let mut settled = false;
        while !settled {
            settled = true;
            for (text, previous) in texts.iter().zip(&mut previous) {
                let before = server.stats();
                let out = client.query(text).unwrap();
                let after = server.stats();
                let bound = after.plan_template_hits != before.plan_template_hits;
                if after.plan_misses == before.plan_misses && !bound {
                    continue;
                }
                settled = false;
                let planned = server.with_db(|db| out.plan.display(db.dict()).to_string());
                match &previous {
                    Some((rendering, answer)) if *rendering == planned => {
                        same += 1;
                        assert_eq!(after.result_hits, before.result_hits + 1, "{text}: same plan");
                        assert!(Arc::ptr_eq(answer, &out), "{text}: its view");
                    }
                    other => {
                        assert_eq!(
                            after.result_misses,
                            before.result_misses + 1,
                            "{text}: new plan"
                        );
                        if let Some((_, answer)) = other {
                            changed += 1;
                            bound_changed += u32::from(bound);
                            assert_eq!(Arc::strong_count(answer), 1, "{text}: one view per text");
                        }
                    }
                }
                *previous = Some((planned, out));
            }
        }
    }
    assert!(same >= 1 && changed >= 2, "both kinds of re-plan: {same} same, {changed} changed");
    assert!(bound_changed >= 1, "no text was bound onto a plan another text's search changed");
    server.shutdown();
}

/// A material delta on a cached view is re-measured by the run that brings
/// the view forward, which moves the generation; the read after that
/// re-plans and is answered from the maintained view.
#[test]
fn material_delta_is_remeasured_and_replans_onto_the_maintained_view() {
    let server = Server::start(QueryEngine::new(db_from_edges(&chain(20))), ServeConfig::default());
    let client = server.client();
    warm(&server, TC);
    let before = server.stats();
    assert!(before.feedback_fixpoints >= 1);

    // Twenty more links: the closure goes from 210 rows to 820, nowhere
    // near the 25% a confirmation tolerates.
    let fresh: Vec<(u64, u64)> = (20..40).map(|i| (i, i + 1)).collect();
    server.apply_delta(insert_batch(&server, &fresh)).expect("apply_delta");
    let written = server.stats();
    assert_eq!(written.feedback_generation, before.feedback_generation, "nothing ran yet");
    assert_eq!(written.ivm_maintained + written.ivm_unaffected + written.ivm_fallbacks, 0);

    let out = client.query(TC).unwrap();
    let after = server.stats();
    assert_eq!((after.ivm_maintained, after.ivm_fallbacks), (1, 0), "{after:?}");
    assert_eq!(out.relation.len(), 40 * 41 / 2, "the closure of a 40-edge chain");
    assert_eq!(after.feedback_fixpoints, before.feedback_fixpoints, "moved, not dropped");
    assert!(
        after.feedback_generation > before.feedback_generation,
        "the maintenance run's totals must bump the generation"
    );

    let again = client.query(TC).unwrap();
    let s = server.stats();
    assert_eq!(s.plan_misses, before.plan_misses + 1, "stale generation: re-planned");
    assert_eq!(
        (s.result_hits, s.result_misses),
        (before.result_hits + 2, before.result_misses),
        "both reads answered from the maintained view: {s:?}"
    );
    assert!(Arc::ptr_eq(&out, &again));
    assert_eq!(s.feedback_generation, after.feedback_generation, "nothing new was measured");
    server.shutdown();
}

#[test]
fn small_delta_keeps_observations_and_cached_plan() {
    let server =
        Server::start(QueryEngine::new(db_from_edges(&chain(200))), ServeConfig::default());
    let client = server.client();
    warm(&server, TC);
    let before = server.stats();

    // One row on a ~201-row relation moves the closure by one row in 20,100.
    server.apply_delta(insert_batch(&server, &[(900, 901)])).expect("apply_delta");
    let after = server.stats();
    assert_eq!(after.feedback_fixpoints, before.feedback_fixpoints, "observation survives");
    assert_eq!(after.feedback_generation, before.feedback_generation, "no invalidation");

    client.query(TC).unwrap();
    let read = server.stats();
    assert_eq!(read.ivm_maintained, before.ivm_maintained + 1, "brought forward by the read");
    assert_eq!(read.feedback_generation, before.feedback_generation, "confirmed, not moved");
    assert_eq!(read.plan_misses, before.plan_misses, "plan cache must survive an immaterial delta");
    server.shutdown();
}

/// Rows that come and go do not add up to staleness: an observation is as
/// fresh as the catch-up run that last confirmed it, however many rows
/// have changed since it was first filed.
#[test]
fn churn_that_moves_nothing_keeps_the_plan_and_the_view() {
    let server =
        Server::start(QueryEngine::new(db_from_edges(&chain(200))), ServeConfig::default());
    let client = server.client();
    warm(&server, TC);
    let before = server.stats();
    for round in 0..40u64 {
        let delta = batch(&server, &[(900, 901)], round % 2 == 0);
        server.apply_delta(delta).expect("apply_delta");
        let out = client.query(TC).unwrap();
        assert_eq!(out.relation.len() as u64, 200 * 201 / 2 + (round + 1) % 2, "round {round}");
        let s = server.stats();
        assert_eq!((s.ivm_maintained, s.ivm_fallbacks), (round + 1, 0), "round {round}: {s:?}");
        assert_eq!(
            (s.feedback_generation, s.plan_misses, s.result_misses),
            (before.feedback_generation, before.plan_misses, before.result_misses),
            "round {round}: {s:?}"
        );
        assert_eq!(
            (s.plan_hits, s.result_hits),
            (before.plan_hits + round + 1, before.result_hits + round + 1),
            "round {round}: a plan hit and a result hit"
        );
    }
    server.shutdown();
}

#[test]
fn loads_drop_stale_feedback() {
    let server = Server::start(QueryEngine::new(db_from_edges(&chain(20))), ServeConfig::default());
    warm(&server, TC);
    assert!(server.stats().feedback_fixpoints >= 1);

    // Same-shape refresh: the measured world is gone, observations with it.
    server.load(|db| {
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation("edge", Relation::from_pairs(src, dst, (0..50).map(|i| (i, i + 1))));
    });
    assert_eq!(server.stats().feedback_fixpoints, 0, "refresh must drop observations");

    warm(&server, TC);
    assert!(server.stats().feedback_fixpoints >= 1);

    // Shape-changing load: same story, plus the epoch bump.
    server.load(|db| {
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation("brand_new", Relation::from_pairs(src, dst, [(1, 1)]));
    });
    assert_eq!(server.stats().feedback_fixpoints, 0, "shape change must drop observations");
    server.shutdown();
}

#[test]
fn explain_reports_planner_decisions() {
    let server = Server::start(QueryEngine::new(db_from_edges(&chain(20))), ServeConfig::default());
    let client = server.client();

    // Cold: no observations yet — costing is static.
    let cold = server.explain(TC).expect("explain");
    assert!(cold.contains("memoized enumeration"), "{cold}");
    assert!(cold.contains("candidates"), "{cold}");
    assert!(cold.contains("group ["), "per-group best costs: {cold}");
    assert!(cold.contains("static statistics"), "{cold}");
    assert!(cold.contains("plan:"), "{cold}");

    // Explain must not execute or admit anything.
    let s = server.stats();
    assert_eq!(s.completed, 0);
    assert_eq!(s.plan_misses, 0, "explain must not touch the plan cache");

    // Warm: the same query now costs its fixpoints from measured totals.
    client.query(TC).unwrap();
    let hot = client.explain(TC).expect("explain via client");
    assert!(hot.contains("observed cardinalities"), "{hot}");
    server.shutdown();
}
