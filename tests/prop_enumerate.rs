//! Randomized soundness of the plan-space enumerator: **every** candidate
//! the memo admits — not just the extracted winner — must be semantically
//! equivalent to the original term. Random graphs × random UCRPQ shapes,
//! checked against centralized evaluation, and executed distributed under
//! all three fixpoint plans (Auto, `P_gld`, `P_plw`).

mod common;

use common::{build_db, build_query, rand_endpoint, rand_graph, rand_path};
use dist_mu_ra::prelude::*;
use mura_datagen::SplitMix64;
use mura_dist::exec::FixpointPlan;
use mura_rewrite::Rewriter;
use mura_ucrpq::to_mura;
use std::time::Duration;

/// Every memo candidate evaluates (centralized) to the reference answer.
#[test]
fn every_candidate_matches_centralized_reference() {
    const CASES: u64 = 40;
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0xe9b0_51de ^ case);
        let edges = rand_graph(&mut rng);
        let path = rand_path(&mut rng, 3);
        let left = rand_endpoint(&mut rng, "x");
        let right = rand_endpoint(&mut rng, "y");

        let db = build_db(&edges);
        let q = build_query(&path, left, right);
        let mut ref_db = db.clone();
        let Ok(term) = to_mura(&q, &mut ref_db) else { continue };
        let expected = mura_core::eval(&term, &ref_db).expect("centralized eval").sorted_rows();

        let rw = Rewriter::new(&mut ref_db);
        let cands = rw.candidates(&term, &mut ref_db).expect("enumeration");
        assert!(!cands.is_empty(), "case {case}: empty candidate set for {q}");
        for (i, cand) in cands.iter().enumerate() {
            let got = mura_core::eval(cand, &ref_db)
                .unwrap_or_else(|e| panic!("case {case} candidate {i} failed to eval: {e}\n{q}"));
            assert_eq!(
                got.sorted_rows(),
                expected,
                "case {case} candidate {i} diverged on {q}\ncandidate: {}",
                cand.display(ref_db.dict())
            );
        }
    }
}

/// Every memo candidate, executed *distributed* under each of the three
/// fixpoint plans, matches the centralized reference.
#[test]
fn every_candidate_matches_on_all_fixpoint_plans() {
    const CASES: u64 = 12;
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0xd15c_0f1e ^ case);
        let edges = rand_graph(&mut rng);
        let path = rand_path(&mut rng, 2);
        let left = rand_endpoint(&mut rng, "x");
        let right = rand_endpoint(&mut rng, "y");

        let db = build_db(&edges);
        let q = build_query(&path, left, right);
        let mut ref_db = db.clone();
        let Ok(term) = to_mura(&q, &mut ref_db) else { continue };
        let expected = mura_core::eval(&term, &ref_db).expect("centralized eval").sorted_rows();

        let rw = Rewriter::new(&mut ref_db);
        let cands = rw.candidates(&term, &mut ref_db).expect("enumeration");
        for plan in [FixpointPlan::Auto, FixpointPlan::ForceGld, FixpointPlan::ForcePlw] {
            let config = ExecConfig { plan, ..Default::default() };
            // The engine shares `ref_db`'s dictionary: candidates reference
            // symbols (fresh recursion variables) interned during planning.
            let qe = QueryEngine::with_config(ref_db.clone(), config);
            for (i, cand) in cands.iter().enumerate() {
                let planned =
                    mura_dist::PlannedQuery { plan: cand.clone(), planning: Duration::ZERO };
                let out = qe.execute_plan(&planned).unwrap_or_else(|e| {
                    panic!("case {case} candidate {i} failed under {plan:?}: {e}\n{q}")
                });
                assert_eq!(
                    out.relation.sorted_rows(),
                    expected,
                    "case {case} candidate {i} diverged under {plan:?} on {q}"
                );
            }
        }
    }
}
