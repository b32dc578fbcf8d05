//! Property tests for the fixpoint kernels: on random Erdős–Rényi graphs,
//! the fused, accumulate-in-place kernels must produce exactly the same
//! fixpoint as (a) the centralized evaluator and (b) the naive
//! re-evaluating reference kernel, across all distributed plans and both
//! local engines — with and without checkpoints, and when supersteps fail
//! and are restored.

use mura_core::{eval as eval_central, Database, Pred, Relation, Sym, Term, Value};
use mura_datagen::er::erdos_renyi;
use mura_dist::localfix::{local_fixpoint, local_fixpoint_reference, Budget, LocalEngine};
use mura_dist::{DistEvaluator, ExecConfig, FaultConfig, FixpointPlan, RecoveryPolicy};

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

/// The accumulator is updated in place, so a superstep that fails may leave
/// it half-absorbed. Whatever the driver then does — restore the last
/// copy-on-write checkpoint, restart from the seed — the answer must be the
/// fault-free one: over plan × engine × `checkpoint_every ∈ {0, 2}`, with
/// and without hard faults (an afflicted site fails four times, more than
/// the task retries cover, so it fails its superstep; few enough sites are
/// afflicted that a restart from the seed still gets through).
#[test]
fn in_place_kernels_survive_checkpoints_and_restored_supersteps() {
    let (mut restores, mut restarts) = (0, 0);
    for seed in [1u64, 7, 42, 1234] {
        let mut db = Database::new();
        let e = er_edges(&mut db, 24, 0.09, seed);
        let (term, _) = tc_term(&mut db, &e);
        let expected = eval_central(&term, &db).unwrap();
        for plan in PLANS {
            for engine in ENGINES {
                for checkpoint_every in [0u64, 2] {
                    for faulty in [false, true] {
                        let fault = if faulty {
                            FaultConfig {
                                seed: 5,
                                panic_prob: 0.06,
                                failures_per_site: 4,
                                ..Default::default()
                            }
                        } else {
                            FaultConfig::default()
                        };
                        let config = ExecConfig {
                            plan,
                            local_engine: engine,
                            checkpoint_every,
                            fault,
                            recovery: RecoveryPolicy { max_restores: 64, ..Default::default() },
                            ..Default::default()
                        };
                        let mut ev = DistEvaluator::new(&db, config);
                        let got = ev.eval_collect(&term).unwrap_or_else(|err| {
                            panic!("seed {seed}: {plan:?}/{engine:?} ckpt {checkpoint_every} faulty {faulty}: {err}")
                        });
                        assert_eq!(
                            got.sorted_rows(),
                            expected.sorted_rows(),
                            "seed {seed}: {plan:?}/{engine:?} ckpt {checkpoint_every} faulty {faulty} diverged"
                        );
                        let f = &ev.stats().fault;
                        assert!(faulty || f.injected() == 0, "fault-free run injected: {f}");
                        restores += f.checkpoint_restores;
                        restarts += f.full_restarts;
                    }
                }
            }
        }
    }
    assert!(restores > 0, "no run restored a superstep from a checkpoint");
    assert!(restarts > 0, "no run restarted a fixpoint from its seed");
}

/// Recursive branches that compile to every shape of the fused step — a
/// filter and two joins in one chain, a constant on the left of the join,
/// an antijoin stage, a union under the chain (a pipeline breaker), two
/// branches accumulating into one delta — against the reference kernel, and
/// as whole fixpoints against centralized evaluation under `P_gld`.
#[test]
fn fused_chain_shapes_match_reference_and_centralized() {
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
            for engine in ENGINES {
                let budget = Budget::new(None, None);
                let fast = local_fixpoint(&e, &recs, x, engine, &budget).unwrap();
                let slow = local_fixpoint_reference(&e, &recs, x, engine, &budget).unwrap();
                assert_eq!(
                    fast.sorted_rows(),
                    slow.sorted_rows(),
                    "seed {seed}: {shape} under {engine:?} diverged from the reference kernel"
                );
            }
            let body = recs.iter().fold(Term::cst(e.clone()), |acc, r| acc.union(r.clone()));
            let term = body.fix(x);
            let expected = eval_central(&term, &db).unwrap();
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
fn indexed_kernel_matches_reference_kernel() {
    // The optimized local loop (folding + cached indexes + borrow eval)
    // must be row-for-row identical to the naive re-evaluating loop.
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
        for engine in ENGINES {
            let budget = Budget::new(None, None);
            let fast = local_fixpoint(&e, &recs, x, engine, &budget).unwrap();
            let slow = local_fixpoint_reference(&e, &recs, x, engine, &budget).unwrap();
            assert_eq!(
                fast.sorted_rows(),
                slow.sorted_rows(),
                "seed {seed}: {engine:?} indexed kernel diverged from reference"
            );
        }
    }
}

#[test]
fn antijoin_branch_matches_reference() {
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
        for engine in [LocalEngine::SetRdd, LocalEngine::Sorted] {
            let budget = Budget::new(None, None);
            let fast = local_fixpoint(&e, &recs, x, engine, &budget).unwrap();
            let slow = local_fixpoint_reference(&e, &recs, x, engine, &budget).unwrap();
            assert_eq!(
                fast.sorted_rows(),
                slow.sorted_rows(),
                "seed {seed}: {engine:?} antijoin kernel diverged from reference"
            );
        }
        let _ = src;
    }
}
