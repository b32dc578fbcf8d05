//! Worker-count invariance: answers must not depend on the number of
//! partitions, for either fixpoint plan, including the stable-column
//! repartitioning path of `P_plw`.

use dist_mu_ra::prelude::*;
use mura_dist::exec::FixpointPlan;

fn db() -> Database {
    let mut rng = mura_datagen::SplitMix64::seed_from_u64(8);
    let g = erdos_renyi(150, 0.015, 23);
    let lg = mura_datagen::with_random_labels(&g, 2, &mut rng);
    let mut db = lg.to_database();
    db.bind_constant("C", Value::node(4));
    db
}

#[test]
fn answers_invariant_under_worker_count() {
    let base = db();
    let queries = [
        "?x, ?y <- ?x a1+ ?y",
        "?x <- ?x a1+ C",
        "?x, ?y <- ?x a1+/a2+ ?y",
        "?x, ?z <- ?x a1 ?y, ?y a2+ ?z",
    ];
    for q in queries {
        let mut reference: Option<Vec<_>> = None;
        for workers in [1usize, 2, 3, 5, 8] {
            for plan in [FixpointPlan::Auto, FixpointPlan::ForceGld, FixpointPlan::ForcePlw] {
                let config = ExecConfig { workers, plan, ..Default::default() };
                let mut qe = QueryEngine::with_config(base.clone(), config);
                let rows = qe
                    .run_ucrpq(q)
                    .unwrap_or_else(|e| panic!("{q} @ {workers} workers / {plan:?}: {e}"))
                    .relation
                    .sorted_rows();
                match &reference {
                    None => reference = Some(rows),
                    Some(r) => {
                        assert_eq!(&rows, r, "{q} diverged at {workers} workers / {plan:?}")
                    }
                }
            }
        }
    }
}

#[test]
fn single_worker_plw_equals_centralized() {
    let base = db();
    let config = ExecConfig { workers: 1, plan: FixpointPlan::ForcePlw, ..Default::default() };
    let mut qe = QueryEngine::with_config(base.clone(), config);
    let out = qe.run_ucrpq("?x, ?y <- ?x a1+ ?y").unwrap();
    // Single-worker P_plw moves no rows between partitions at all.
    assert_eq!(out.comm.rows_shuffled, 0, "{:?}", out.comm);

    let mut refdb = base.clone();
    let parsed = parse_ucrpq("?x, ?y <- ?x a1+ ?y").unwrap();
    let term = mura_ucrpq::to_mura(&parsed, &mut refdb).unwrap();
    let expected = mura_core::eval(&term, &refdb).unwrap();
    assert_eq!(out.relation.sorted_rows(), expected.sorted_rows());
}
