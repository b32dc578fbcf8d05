//! Property tests for the fixpoint kernels: on random Erdős–Rényi graphs,
//! the fused, accumulate-in-place kernels must produce exactly the same
//! fixpoint as the centralized evaluator, run directly on both local
//! engines and across all distributed plans. (Checkpoints and restored
//! supersteps under hard faults are the oracle's `faults` route at the
//! workspace root.)

use mura_core::{eval as eval_central, Database, Pred, Relation, Sym, Term, Value};
use mura_datagen::er::erdos_renyi;
use mura_dist::localfix::{local_fixpoint, Budget, LocalEngine};
use mura_dist::{DistEvaluator, ExecConfig, FixpointPlan};

const PLANS: [FixpointPlan; 3] =
    [FixpointPlan::Auto, FixpointPlan::ForceGld, FixpointPlan::ForcePlw];
const ENGINES: [LocalEngine; 2] = [LocalEngine::SetRdd, LocalEngine::Sorted];

/// Transitive-closure fixpoint term over the edge relation `e`.
fn tc_term(db: &mut Database, e: &Relation) -> (Term, mura_core::Sym) {
    let src = db.intern("src");
    let dst = db.intern("dst");
    let m = db.intern("m");
    let x = db.intern("X");
    let step = Term::var(x).rename(dst, m).join(Term::cst(e.clone()).rename(src, m)).antiproject(m);
    (Term::cst(e.clone()).union(step).fix(x), x)
}

fn er_edges(db: &mut Database, n: u64, p: f64, seed: u64) -> Relation {
    let src = db.intern("src");
    let dst = db.intern("dst");
    let g = erdos_renyi(n, p, seed);
    Relation::from_pairs(src, dst, g.plain_edges())
}

/// The fixpoint `local_fixpoint` computes from `seed` and the recursive
/// branches `recs`, as one term: `(seed ∪ rec₁ ∪ …).fix(x)`.
fn fixpoint_term(seed: &Relation, recs: &[Term], x: Sym) -> Term {
    recs.iter().fold(Term::cst(seed.clone()), |acc, r| acc.union(r.clone())).fix(x)
}

#[test]
fn indexed_kernels_match_centralized_on_random_graphs() {
    for seed in [1u64, 7, 42, 1234] {
        let mut db = Database::new();
        let e = er_edges(&mut db, 24, 0.09, seed);
        let (term, _) = tc_term(&mut db, &e);
        let expected = eval_central(&term, &db).unwrap();
        for plan in PLANS {
            for engine in ENGINES {
                let config = ExecConfig { plan, local_engine: engine, ..Default::default() };
                let mut ev = DistEvaluator::new(&db, config);
                let got = ev.eval_collect(&term).unwrap();
                assert_eq!(
                    got.sorted_rows(),
                    expected.sorted_rows(),
                    "seed {seed}: {plan:?}/{engine:?} diverged from centralized"
                );
            }
        }
    }
}

/// Recursive branches that compile to every shape of the fused step — a
/// filter and two joins in one chain, a constant on the left of the join,
/// an antijoin stage, a union under the chain (a pipeline breaker), two
/// branches accumulating into one delta — against centralized evaluation,
/// run by the local kernel on both engines and as whole fixpoints under
/// `P_gld` and `P_plw`.
#[test]
fn fused_chain_shapes_match_centralized() {
    for seed in [3u64, 11, 99] {
        let mut db = Database::new();
        let (src, dst) = (db.intern("src"), db.intern("dst"));
        let (m, k, x) = (db.intern("m"), db.intern("k"), db.intern("X"));
        let e = er_edges(&mut db, 20, 0.11, seed);
        let f = er_edges(&mut db, 20, 0.08, seed.wrapping_mul(17));
        let blocked = er_edges(&mut db, 20, 0.05, seed.wrapping_mul(31));
        let edges = |r: &Relation, from: Sym, to: Sym| Term::cst(r.clone()).rename(from, to);
        let hop = |t: Term| t.rename(dst, m).join(edges(&e, src, m)).antiproject(m);
        let shapes: Vec<(&str, Vec<Term>)> = vec![
            (
                "filter and two joins in one chain",
                vec![Term::var(x)
                    .filter(Pred::Neq(src, Value::node(seed % 20)))
                    .rename(dst, m)
                    .join(edges(&e, src, m).rename(dst, k))
                    .join(edges(&f, src, k))
                    .antiproject(m)
                    .antiproject(k)],
            ),
            (
                "constant on the left, extending at the source",
                vec![edges(&e, dst, m).join(Term::var(x).rename(src, m)).antiproject(m)],
            ),
            ("antijoin stage", vec![hop(Term::var(x)).antijoin(Term::cst(blocked.clone()))]),
            (
                "union under the chain",
                vec![hop(Term::var(x).union(Term::var(x).filter(Pred::Neq(dst, Value::node(1)))))],
            ),
            (
                "two branches",
                vec![
                    hop(Term::var(x)),
                    Term::var(x).rename(dst, m).join(edges(&f, src, m)).antiproject(m),
                ],
            ),
        ];
        for (shape, recs) in shapes {
            let term = fixpoint_term(&e, &recs, x);
            let expected = eval_central(&term, &db).unwrap();
            for engine in ENGINES {
                let budget = Budget::new(None, None);
                let got = local_fixpoint(&e, &recs, x, engine, &budget).unwrap();
                assert_eq!(
                    got.sorted_rows(),
                    expected.sorted_rows(),
                    "seed {seed}: {shape} under {engine:?} diverged from centralized"
                );
            }
            for plan in [FixpointPlan::ForceGld, FixpointPlan::ForcePlw] {
                let mut ev = DistEvaluator::new(&db, ExecConfig { plan, ..Default::default() });
                let got = ev.eval_collect(&term).unwrap();
                assert_eq!(
                    got.sorted_rows(),
                    expected.sorted_rows(),
                    "seed {seed}: {shape} under {plan:?} diverged from centralized"
                );
            }
        }
    }
}

#[test]
fn indexed_kernel_matches_centralized() {
    // The local loop (folding + cached indexes + fused chains) must be
    // row-for-row identical to centralized evaluation of the same fixpoint.
    for seed in [3u64, 11, 99] {
        let mut db = Database::new();
        let e = er_edges(&mut db, 20, 0.11, seed);
        let (term, x) = tc_term(&mut db, &e);
        let recs = match &term {
            Term::Fix(_, body) => match body.as_ref() {
                Term::Union(_, step) => vec![(**step).clone()],
                _ => unreachable!(),
            },
            _ => unreachable!(),
        };
        let expected = eval_central(&term, &db).unwrap();
        for engine in ENGINES {
            let budget = Budget::new(None, None);
            let got = local_fixpoint(&e, &recs, x, engine, &budget).unwrap();
            assert_eq!(
                got.sorted_rows(),
                expected.sorted_rows(),
                "seed {seed}: {engine:?} indexed kernel diverged from centralized"
            );
        }
    }
}

#[test]
fn antijoin_branch_matches_centralized() {
    // A branch with an antijoin against a constant exercises the cached
    // key-set path: extend TC but exclude pairs present in a blocklist.
    for seed in [5u64, 21] {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let m = db.intern("m");
        let x = db.intern("X");
        let e = er_edges(&mut db, 18, 0.12, seed);
        let blocked = er_edges(&mut db, 18, 0.05, seed.wrapping_mul(31));
        let step = Term::var(x)
            .rename(dst, m)
            .join(Term::cst(e.clone()).rename(src, m))
            .antiproject(m)
            .antijoin(Term::cst(blocked.clone()));
        let recs = vec![step];
        let expected = eval_central(&fixpoint_term(&e, &recs, x), &db).unwrap();
        for engine in ENGINES {
            let budget = Budget::new(None, None);
            let got = local_fixpoint(&e, &recs, x, engine, &budget).unwrap();
            assert_eq!(
                got.sorted_rows(),
                expected.sorted_rows(),
                "seed {seed}: {engine:?} antijoin kernel diverged from centralized"
            );
        }
        let _ = src;
    }
}
