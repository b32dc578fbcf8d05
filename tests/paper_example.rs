//! The paper's running example (Fig. 2 / Example 1–2), end to end.

use dist_mu_ra::prelude::*;
use mura_core::Term;

/// Fig. 2: a root-edge relation S and the full edge relation E.
fn paper_db() -> Database {
    let mut db = Database::new();
    let src = db.intern("src");
    let dst = db.intern("dst");
    db.insert_relation(
        "E",
        Relation::from_pairs(
            src,
            dst,
            [(1, 2), (1, 4), (10, 11), (10, 13), (2, 3), (4, 5), (11, 5), (13, 12), (3, 6), (5, 6)],
        ),
    );
    db.insert_relation("S", Relation::from_pairs(src, dst, [(1, 2), (1, 4), (10, 11), (10, 13)]));
    db
}

/// Example 1: paths of length 2 starting from root edges.
#[test]
fn example1_length_two_paths() {
    let mut db = paper_db();
    let src = db.intern("src");
    let dst = db.intern("dst");
    let c = db.intern("c");
    let s = db.dict().lookup("S").unwrap();
    let e = db.dict().lookup("E").unwrap();
    let term = Term::var(s).rename(dst, c).join(Term::var(e).rename(src, c)).antiproject(c);
    let result = mura_core::eval(&term, &db).unwrap();
    let expected = Relation::from_pairs(src, dst, [(1, 3), (1, 5), (10, 5), (10, 12)]);
    assert_eq!(result.sorted_rows(), expected.sorted_rows());
}

/// Example 2: the fixpoint reaches exactly the paper's X₃ after the
/// documented number of steps, on every execution route.
#[test]
fn example2_fixpoint_all_routes() {
    let db = paper_db();
    let src = db.dict().lookup("src").unwrap();
    let dst = db.dict().lookup("dst").unwrap();
    let expected = Relation::from_pairs(
        src,
        dst,
        [(1, 2), (1, 4), (10, 11), (10, 13), (1, 3), (1, 5), (10, 5), (10, 12), (1, 6), (10, 6)],
    );

    // Build μ(X = S ∪ π̃_m(ρ_dst→m(X) ⋈ ρ_src→m(E))).
    let mut db2 = db.clone();
    let m = db2.intern("m");
    let x = db2.intern("X");
    let s = db2.dict().lookup("S").unwrap();
    let e = db2.dict().lookup("E").unwrap();
    let term = Term::var(s)
        .union(Term::var(x).rename(dst, m).join(Term::var(e).rename(src, m)).antiproject(m))
        .fix(x);

    // Centralized (semi-naive and naive).
    let central = mura_core::eval(&term, &db2).unwrap();
    assert_eq!(central.sorted_rows(), expected.sorted_rows());
    let naive = mura_core::eval::eval_naive_fixpoints(&term, &db2).unwrap();
    assert_eq!(naive.sorted_rows(), expected.sorted_rows());

    // Distributed (all plans and both local engines).
    use mura_dist::exec::FixpointPlan;
    use mura_dist::LocalEngine;
    for plan in [FixpointPlan::Auto, FixpointPlan::ForceGld, FixpointPlan::ForcePlw] {
        for engine in [LocalEngine::SetRdd, LocalEngine::Sorted] {
            let config = ExecConfig { plan, local_engine: engine, ..Default::default() };
            let mut qe = QueryEngine::with_config(db2.clone(), config);
            let out = qe.run_term(&term).unwrap();
            assert_eq!(out.relation.sorted_rows(), expected.sorted_rows(), "{plan:?}/{engine:?}");
        }
    }
}

/// The stable-column partitioning claim (§IV-A2): splitting S by `src`
/// yields disjoint local fixpoints — worker results never overlap.
#[test]
fn stable_partitioning_gives_disjoint_local_fixpoints() {
    let db = paper_db();
    let src = db.dict().lookup("src").unwrap();
    let dst = db.dict().lookup("dst").unwrap();
    let s = db.dict().lookup("S").unwrap();
    let e = db.dict().lookup("E").unwrap();
    let s_rel = db.relation(s).unwrap();
    // Partition S by src = {1} vs {10} (the paper's two workers).
    let part = |keep: i64| {
        let pos = s_rel.schema().position(src).unwrap();
        s_rel.filter(|row| row[pos] == Value::int(keep))
    };
    let mut results = Vec::new();
    for part_rel in [part(1), part(10)] {
        let mut db_i = db.clone();
        let m = db_i.intern("m");
        let x = db_i.intern("X");
        let term = Term::cst(part_rel)
            .union(Term::var(x).rename(dst, m).join(Term::var(e).rename(src, m)).antiproject(m))
            .fix(x);
        results.push(mura_core::eval(&term, &db_i).unwrap());
    }
    // Disjoint…
    for row in results[0].iter() {
        assert!(!results[1].contains(row), "local fixpoints overlap on {row:?}");
    }
    // …and their union is the global fixpoint (Proposition 3).
    let union = results[0].union(&results[1]);
    assert_eq!(union.len(), 10);
}

/// The UCRPQ route over the same graph: `?x, ?y <- ?x S/E* ?y`-style
/// navigation expressed with labels.
#[test]
fn ucrpq_route_on_paper_graph() {
    let db = paper_db();
    let mut qe = QueryEngine::new(db);
    // S/E* == S ∪ S/E+ — expressed with + and alternation.
    let out = qe.run_ucrpq("?x, ?y <- ?x S ?y ; ?x, ?y <- ?x S/E+ ?y").unwrap();
    assert_eq!(out.relation.len(), 10);
}
