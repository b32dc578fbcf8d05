//! The differential oracle: every route by which the system answers a
//! query gives what centralized evaluation of the raw μ-RA term gives —
//! Propositions 1–3 of the paper and the soundness of every rewrite. A
//! case is drawn from a seed and a size (`common`): a two-label graph, a
//! UCRPQ of one or two atoms, a second binding of its constants and a
//! mutation stream. One `#[test]` per route, so a failure names its route;
//! the failing case is drawn again at smaller sizes, and the smallest that
//! still fails is reported with its seed, sizes, edges and query. The
//! routes that took over a suite keep its file (`common` lists them).

mod common;

use common::{build_db, check, chosen, configs, constants, reference, Batch, Rows, Size, NAMED};
use common::{ENGINES, PLANS};
use dist_mu_ra::prelude::*;
use mura_core::{eval, eval_naive_fixpoints, shape_key, term_key};
use mura_datalog::{DatalogEngine, DatalogStyle};
use mura_dist::{FaultConfig, RecoveryPolicy};
use mura_pregel::{engine::intern_query_vars, PregelConfig, PregelEngine};
use mura_serve::protocol::{read_response, respond, Session};
use mura_serve::{DeltaBatch, SyncPolicy};

/// Semi-naive evaluation equals naive re-evaluation (Prop. 1).
#[test]
fn naive_fixpoints() {
    check("naive fixpoints", 64, Size::FULL, |case| {
        let mut db = build_db(&case.edges);
        let (raw, want) = reference(&case.query, &mut db);
        let naive = eval_naive_fixpoints(&raw, &db).expect("naive evaluation");
        assert_eq!(naive.sorted_rows(), want.sorted_rows());
    });
}

/// The chosen plan under hard faults, on the Erdős–Rényi cases. Kernels
/// accumulate in place, so a failed superstep may leave the accumulator
/// half-absorbed; whatever the driver then does — restore the last
/// checkpoint (`checkpoint_every` 2) or restart from the seed (0) — the
/// answer is the fault-free one. An afflicted site fails four times, more
/// than the task retries cover, and few enough are afflicted that a
/// restart still gets through.
#[test]
fn faults() {
    let (mut restores, mut restarts) = (0, 0);
    check("faults", 16, Size::FULL, |case| {
        if !case.er {
            return;
        }
        let (engine, planned, want) = chosen(case);
        for (plan, local_engine) in configs() {
            for (checkpoint_every, faulty) in [(0, false), (0, true), (2, false), (2, true)] {
                let fault = FaultConfig {
                    seed: 5,
                    panic_prob: 0.06,
                    failures_per_site: 4,
                    ..Default::default()
                };
                let config = ExecConfig {
                    plan,
                    local_engine,
                    checkpoint_every,
                    fault: if faulty { fault } else { FaultConfig::default() },
                    recovery: RecoveryPolicy { max_restores: 64, ..Default::default() },
                    ..Default::default()
                };
                let on =
                    format!("{plan:?}/{local_engine:?}, ckpt {checkpoint_every}, faulty {faulty}");
                let out = engine
                    .execute_plan_with(&planned, config)
                    .unwrap_or_else(|e| panic!("{on}: {e}"));
                assert_eq!(out.relation.sorted_rows(), want, "{on}");
                let f = &out.stats.fault;
                assert!(faulty || f.injected() == 0, "{on}: a fault-free run injected {f}");
                restores += f.checkpoint_restores;
                restarts += f.full_restarts;
            }
        }
    });
    assert!(restores > 0, "no run restored a superstep from a checkpoint");
    assert!(restarts > 0, "no run restarted a fixpoint from its seed");
}

/// A plan is searched once per shape: the plan searched for the case's
/// constants, rebound to the second binding, **is** the plan searched for
/// that (`==` and `term_key`), and `shape_key` is one exactly when the two
/// bindings have the same kinds, equal in the same places. A rewrite rule
/// that starts to read a constant's value fails here first; the property
/// it reads then belongs in the shape key. The 321 cases on random graphs
/// carry no, one or two constants, a third each; a same-shape pair counts
/// only if it has one, a plain pair rebinds nothing.
#[test]
fn template() {
    let (mut none, mut same, mut same_two, mut other) = (0, 0, 0, 0);
    check("template", 428, Size::SHALLOW, |case| {
        let mut engine = QueryEngine::new(build_db(&case.edges));
        let (plan0, (shape0, binding0), _) = search(&mut engine, &case.query);
        let (plan1, (shape1, binding1), want) = search(&mut engine, &case.rebound);
        let one_pattern = pattern(&case.query) == pattern(&case.rebound);
        assert_eq!(shape0 == shape1, one_pattern, "one shape iff one pattern of constants");
        if !one_pattern {
            other += 1;
            return;
        }
        match constants(&case.query).len() {
            0 => none += 1,
            n => {
                same += 1;
                same_two += usize::from(n == 2);
            }
        }
        let rebound = plan0.rebind(&binding0, &binding1);
        assert_eq!(rebound, plan1, "the rebound plan is not the one searched for");
        assert_eq!(term_key(&rebound), term_key(&plan1));
        for plan in [&rebound, &plan1] {
            assert_eq!(eval(plan, engine.db()).expect("evaluation").sorted_rows(), want);
        }
    });
    eprintln!("template: {same} same-shape ({same_two} two-constant), {other} other, {none} plain");
    assert!(same >= 150 && other >= 20, "{same} same-shape pairs, {other} other");
}

/// Plan, shape and binding of `q`, searched with no observations, and the
/// centralized answer.
fn search(engine: &mut QueryEngine, q: &Ucrpq) -> (Term, (u64, Vec<Value>), Rows) {
    let text = q.to_string();
    let (planned, shape) = engine
        .plan_ucrpq_with(&text, None, Rewriter::optimize_report, |raw, search| {
            Ok((search(&raw)?.0, shape_key(&raw)))
        })
        .unwrap_or_else(|e| panic!("{text}: {e}"));
    (planned.plan, shape, reference(q, engine.db_mut()).1.sorted_rows())
}

/// The kinds of `q`'s constants, and which of them are equal.
fn pattern(q: &Ucrpq) -> (Vec<bool>, Vec<bool>) {
    let c = constants(q);
    let equal = c.iter().flat_map(|a| c.iter().map(move |b| a == b)).collect();
    (c.iter().map(|c| NAMED.contains(c)).collect(), equal)
}

/// N-version check: the Datalog and Pregel baselines answer like the raw
/// term — the same rows where their head columns line up with the
/// query's, the same count otherwise. Neither reads named constants.
#[test]
fn baselines() {
    let mut compared = 0;
    check("baselines", 64, Size::FULL, |case| {
        if constants(&case.query).iter().any(|c| NAMED.contains(c)) {
            return;
        }
        let text = case.query.to_string();
        let mut db = build_db(&case.edges);
        let (_, want) = reference(&case.query, &mut db);
        let columns = |rel: &Relation, db: &Database| -> Vec<String> {
            rel.schema().columns().iter().map(|&c| db.dict().resolve(c).into_owned()).collect()
        };
        let agrees = |got: &Relation, got_db: &Database, who: &str| {
            if columns(got, got_db) == columns(&want, &db) {
                assert_eq!(got.sorted_rows(), want.sorted_rows(), "{who}");
            } else {
                assert_eq!(got.len(), want.len(), "{who}");
            }
        };
        let mut datalog = DatalogEngine::new(build_db(&case.edges), DatalogStyle::BigDatalog);
        agrees(&datalog.run_ucrpq(&text).expect("datalog").relation, datalog.db(), "datalog");
        let mut pregel_db = build_db(&case.edges);
        intern_query_vars(&case.query, &mut pregel_db);
        let pregel = PregelEngine::new(pregel_db, PregelConfig::default());
        agrees(&pregel.run(&case.query).expect("pregel").relation, pregel.db(), "pregel");
        compared += 1;
    });
    assert!(compared >= 48, "{compared} cases compared");
}

/// A server over the case, read through the interpreter a connection runs:
/// after each batch of the stream the reply — its view brought forward —
/// lists the rows of centralized evaluation and of a fresh engine over the
/// mutated graph, and a server recovered from the data directory replies
/// the same. Every read is made twice and replied to byte for byte alike,
/// so a reply filed with its answer is never one a mutation made stale.
/// Every plan × engine maintains at least one read rather than recomputing
/// it.
#[test]
fn served() {
    let mut maintained = [0; PLANS.len() * ENGINES.len()];
    check("served", 16, Size::SHALLOW, |case| {
        let text = case.query.to_string();
        for (i, (plan, local_engine)) in configs().enumerate() {
            let exec = ExecConfig { plan, local_engine, ..Default::default() };
            let engine = || QueryEngine::with_config(build_db(&case.edges), exec.clone());
            let name = format!("mura-oracle-{}-{:x}-{i}", std::process::id(), case.seed);
            let dir = std::env::temp_dir().join(name);
            let _ = std::fs::remove_dir_all(&dir);
            let config = ServeConfig {
                data_dir: Some(dir.clone()),
                wal_sync: SyncPolicy::Never,
                ..Default::default()
            };
            let server = Server::start(engine(), config.clone());
            let on = format!("{plan:?}/{local_engine:?}");
            let mut want = listed(&reference(&case.query, &mut build_db(&case.edges)).1);
            assert_eq!(read(&server, &text, &on), want, "{on}: warm read");
            for (k, batch) in case.stream.iter().enumerate() {
                server.apply_delta(server.with_db(|db| delta(db, batch))).expect("mutation");
                let on = format!("{on} after batch {k}");
                let mut db = build_db(&case.edges_after(k + 1));
                want = listed(&reference(&case.query, &mut db).1);
                let before = server.stats().ivm_maintained;
                assert_eq!(read(&server, &text, &on), want, "{on}: centralized");
                maintained[i] += server.stats().ivm_maintained - before;
                let fresh = QueryEngine::with_config(db, exec.clone()).run_ucrpq(&text);
                assert_eq!(listed(&fresh.expect("recompute").relation), want, "{on}: recompute");
            }
            server.shutdown();
            let recovered = Server::recover(engine(), config).expect("recovery");
            assert_eq!(read(&recovered, &text, &on), want, "{on}: recovered");
            recovered.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    });
    for ((plan, engine), n) in configs().zip(maintained) {
        assert!(n > 0, "{plan:?}/{engine:?}: no read was maintained rather than recomputed");
    }
}

/// The body of the reply to `text`, read twice through
/// [`respond`]: the second reply must be byte for byte the first.
fn read(server: &Server, text: &str, on: &str) -> Vec<String> {
    let session = &mut Session::default();
    let reply = respond(server, session, text);
    let again = respond(server, session, text);
    assert_eq!(reply.as_str(), again.as_str(), "{on}: a second read replied differently");
    let (status, body) = read_response(&mut reply.as_str().as_bytes()).expect("one whole reply");
    assert!(status.starts_with(&format!("OK {} rows", body.len())), "{on}: {status}");
    body
}

/// `rel`'s rows as a reply lists them: `(v, v, …)` each, in sorted order.
fn listed(rel: &Relation) -> Vec<String> {
    let row = |row: &[Value]| row.iter().map(Value::to_string).collect::<Vec<_>>().join(", ");
    rel.sorted_rows().iter().map(|r| format!("({})", row(r))).collect()
}

/// `batch` against the stored relations `a` and `b`.
fn delta(db: &Database, batch: &Batch) -> DeltaBatch {
    let mut delta = DeltaBatch::new();
    for (edges, insert) in [(&batch.insert, true), (&batch.delete, false)] {
        for &(s, d, is_a) in edges {
            let rel = db.dict().lookup(if is_a { "a" } else { "b" }).expect("a stored label");
            let row = vec![Value::node(s), Value::node(d)].into_boxed_slice();
            let pushed = if insert {
                delta.push_insert(db, rel, row)
            } else {
                delta.push_delete(db, rel, row)
            };
            pushed.expect("a row of the stored schema");
        }
    }
    delta
}
