//! Unified runner over all compared systems.
//!
//! Maps the paper's five systems (§V-C) to the workspace's engines:
//!
//! | paper                       | here |
//! |-----------------------------|------|
//! | Dist-μ-RA                   | full rewriter + auto plan (`P_plw` when stable) |
//! | Dist-μ-RA with `P_gld`      | full rewriter + forced global-loop plan |
//! | Dist-μ-RA `P_plw^pg`        | full rewriter + sorted local engine (Fig. 7) |
//! | BigDatalog                  | Datalog pipeline, magic-sets envelope, GPS decomposition |
//! | Myria                       | Datalog pipeline, no recursion-aware rewrites, global sync |
//! | GraphX                      | Pregel/NFA engine |
//! | Centralized μ-RA            | full rewriter + single-threaded evaluator |
//!
//! Failures are produced *honestly*: every engine runs under the same row
//! (or message) budget; an engine "fails" exactly when its intermediate
//! results exceed it, and "times out" when the deadline passes — the same
//! two outcomes the paper reports.

use mura_core::eval::{EvalOptions, Evaluator};
use mura_core::{Database, MuraError, Sym, Value};
use mura_datalog::ast::{DlAtom, DlTerm, Program, Rule};
use mura_datalog::{DatalogEngine, DatalogStyle};
use mura_dist::exec::{ExecConfig, FixpointPlan, ResourceLimits};
use mura_dist::{LocalEngine, QueryEngine};
use mura_pregel::{PregelConfig, PregelEngine};
use mura_rewrite::Rewriter;
use std::time::{Duration, Instant};

/// The compared systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemId {
    DistMuRA,
    DistMuRAGld,
    DistMuRAPlwSorted,
    BigDatalog,
    Myria,
    GraphX,
    Centralized,
}

impl SystemId {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            SystemId::DistMuRA => "Dist-muRA",
            SystemId::DistMuRAGld => "Dist-muRA(Pgld)",
            SystemId::DistMuRAPlwSorted => "Dist-muRA(Pplw-pg)",
            SystemId::BigDatalog => "BigDatalog",
            SystemId::Myria => "Myria",
            SystemId::GraphX => "GraphX",
            SystemId::Centralized => "muRA-central",
        }
    }

    /// The system set of the paper's Fig. 9 (Yago comparison).
    pub fn fig9_set() -> [SystemId; 5] {
        [
            SystemId::DistMuRA,
            SystemId::DistMuRAGld,
            SystemId::BigDatalog,
            SystemId::GraphX,
            SystemId::Centralized,
        ]
    }
}

/// A workload item: a UCRPQ or one of the paper's non-regular μ-RA terms
/// (§V-D c).
#[derive(Debug, Clone)]
pub enum Workload {
    Ucrpq(String),
    /// aⁿbⁿ over two edge labels.
    AnBn {
        a: String,
        b: String,
    },
    /// Same generation over a parent relation.
    SameGeneration {
        rel: String,
    },
    /// Reachability from a source node.
    Reach {
        rel: String,
        source: u64,
    },
}

impl Workload {
    pub fn ucrpq(q: &str) -> Workload {
        Workload::Ucrpq(q.to_string())
    }
}

/// Budgets shared by all systems in one experiment.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    pub timeout: Duration,
    pub max_rows: u64,
    pub workers: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { timeout: Duration::from_secs(30), max_rows: 50_000_000, workers: 4 }
    }
}

/// Outcome of one (system, workload) run.
#[derive(Debug, Clone)]
pub enum Outcome {
    Ok {
        millis: f64,
        rows: usize,
        /// Rows shuffled + broadcast (0 for centralized systems).
        comm_rows: u64,
    },
    Failed(String),
    Timeout,
    Unsupported,
}

impl Outcome {
    /// Milliseconds if the run succeeded.
    pub fn millis(&self) -> Option<f64> {
        match self {
            Outcome::Ok { millis, .. } => Some(*millis),
            _ => None,
        }
    }

    /// Result cardinality if the run succeeded.
    pub fn rows(&self) -> Option<usize> {
        match self {
            Outcome::Ok { rows, .. } => Some(*rows),
            _ => None,
        }
    }
}

fn classify_err(e: MuraError) -> Outcome {
    match e {
        MuraError::Timeout { .. } => Outcome::Timeout,
        MuraError::ResourceExhausted { .. } => Outcome::Failed("OOM".into()),
        other => Outcome::Failed(other.to_string()),
    }
}

/// Runs one workload on one system under the given budgets.
pub fn run_system(system: SystemId, db: &Database, w: &Workload, limits: Limits) -> Outcome {
    match system {
        SystemId::DistMuRA => run_dist(db, w, limits, FixpointPlan::Auto, LocalEngine::SetRdd),
        SystemId::DistMuRAGld => {
            run_dist(db, w, limits, FixpointPlan::ForceGld, LocalEngine::SetRdd)
        }
        SystemId::DistMuRAPlwSorted => {
            run_dist(db, w, limits, FixpointPlan::Auto, LocalEngine::Sorted)
        }
        SystemId::BigDatalog => run_datalog(db, w, limits, DatalogStyle::BigDatalog),
        SystemId::Myria => run_datalog(db, w, limits, DatalogStyle::Myria),
        SystemId::GraphX => run_graphx(db, w, limits),
        SystemId::Centralized => run_centralized(db, w, limits),
    }
}

fn exec_config(limits: Limits, plan: FixpointPlan, engine: LocalEngine) -> ExecConfig {
    ExecConfig {
        workers: limits.workers,
        plan,
        local_engine: engine,
        limits: ResourceLimits {
            max_rows: Some(limits.max_rows),
            max_bytes: None,
            timeout: Some(limits.timeout),
        },
        ..Default::default()
    }
}

fn run_dist(
    db: &Database,
    w: &Workload,
    limits: Limits,
    plan: FixpointPlan,
    engine: LocalEngine,
) -> Outcome {
    let config = exec_config(limits, plan, engine);
    let mut qe = QueryEngine::with_config(db.clone(), config);
    let result = match w {
        Workload::Ucrpq(q) => qe.run_ucrpq(q),
        Workload::AnBn { a, b } => {
            mura_ucrpq::suites::anbn_term(qe.db_mut(), a, b).and_then(|t| qe.run_term(&t))
        }
        Workload::SameGeneration { rel } => {
            mura_ucrpq::suites::same_generation_term(qe.db_mut(), rel).and_then(|t| qe.run_term(&t))
        }
        Workload::Reach { rel, source } => {
            mura_ucrpq::suites::reach_term(qe.db_mut(), rel, Value::node(*source))
                .and_then(|t| qe.run_term(&t))
        }
    };
    match result {
        Ok(out) => Outcome::Ok {
            millis: out.wall().as_secs_f64() * 1e3,
            rows: out.relation.len(),
            comm_rows: out.comm.rows_shuffled + out.comm.rows_broadcast,
        },
        Err(e) => classify_err(e),
    }
}

fn run_datalog(db: &Database, w: &Workload, limits: Limits, style: DatalogStyle) -> Outcome {
    let config = exec_config(
        limits,
        match style {
            DatalogStyle::BigDatalog => FixpointPlan::Auto,
            DatalogStyle::Myria => FixpointPlan::ForceGld,
        },
        LocalEngine::SetRdd,
    );
    let mut e = DatalogEngine::new(db.clone(), style).with_config(config);
    let result = match w {
        Workload::Ucrpq(q) => e.run_ucrpq(q),
        Workload::AnBn { a, b } => {
            let p = anbn_program(a, b);
            e.run_program_term(&p)
        }
        Workload::SameGeneration { rel } => {
            let p = same_generation_program(rel);
            e.run_program_term(&p)
        }
        Workload::Reach { rel, source } => {
            let p = reach_program(rel, *source);
            e.run_program_term(&p)
        }
    };
    match result {
        Ok(out) => Outcome::Ok {
            millis: out.wall().as_secs_f64() * 1e3,
            rows: out.relation.len(),
            comm_rows: out.comm.rows_shuffled + out.comm.rows_broadcast,
        },
        Err(e) => classify_err(e),
    }
}

fn run_graphx(db: &Database, w: &Workload, limits: Limits) -> Outcome {
    let Workload::Ucrpq(q) = w else {
        // aⁿbⁿ and same-generation are not regular path queries.
        return Outcome::Unsupported;
    };
    // Intern the ?var columns the Pregel engine resolves results against.
    let mut db = db.clone();
    let Ok(parsed) = mura_ucrpq::parse_ucrpq(q) else {
        return Outcome::Failed("parse error".into());
    };
    mura_pregel::engine::intern_query_vars(&parsed, &mut db);
    let config = PregelConfig {
        workers: limits.workers,
        // One message carries one (origin, state) pair — comparable to a
        // row in the relational engines.
        max_messages: Some(limits.max_rows),
        max_supersteps: 1_000_000,
        timeout: Some(limits.timeout),
    };
    let engine = PregelEngine::new(db, config);
    match engine.run(&parsed) {
        Ok(out) => Outcome::Ok {
            millis: out.wall.as_secs_f64() * 1e3,
            rows: out.relation.len(),
            comm_rows: out.stats.messages,
        },
        Err(e) => classify_err(e),
    }
}

fn run_centralized(db: &Database, w: &Workload, limits: Limits) -> Outcome {
    let mut db = db.clone();
    let start = Instant::now();
    let term = match w {
        Workload::Ucrpq(q) => {
            mura_ucrpq::parse_ucrpq(q).and_then(|p| mura_ucrpq::to_mura(&p, &mut db))
        }
        Workload::AnBn { a, b } => mura_ucrpq::suites::anbn_term(&mut db, a, b),
        Workload::SameGeneration { rel } => mura_ucrpq::suites::same_generation_term(&mut db, rel),
        Workload::Reach { rel, source } => {
            mura_ucrpq::suites::reach_term(&mut db, rel, Value::node(*source))
        }
    };
    let term = match term {
        Ok(t) => t,
        Err(e) => return classify_err(e),
    };
    // The centralized system uses the same logical optimizer (the paper's
    // centralized μ-RA on PostgreSQL shares the rewriter).
    let plan = match Rewriter::new(&mut db).optimize(&term, &mut db) {
        Ok(p) => p,
        Err(e) => return classify_err(e),
    };
    let opts = EvalOptions {
        semi_naive: true,
        max_rows: Some(limits.max_rows),
        timeout: Some(limits.timeout),
    };
    match Evaluator::new(&db, opts).eval(&plan) {
        Ok(rel) => Outcome::Ok {
            millis: start.elapsed().as_secs_f64() * 1e3,
            rows: rel.len(),
            comm_rows: 0,
        },
        Err(e) => classify_err(e),
    }
}

// ----------------------------------------------------- datalog specials

/// `anbn(X,Y) :- a(X,Z), b(Z,Y).  anbn(X,Y) :- a(X,P), anbn(P,Q), b(Q,Y).`
pub fn anbn_program(a: &str, b: &str) -> Program {
    Program {
        rules: vec![
            Rule {
                head: DlAtom::new("anbn", &["x", "y"]),
                body: vec![DlAtom::new(a, &["x", "z"]), DlAtom::new(b, &["z", "y"])],
            },
            Rule {
                head: DlAtom::new("anbn", &["x", "y"]),
                body: vec![
                    DlAtom::new(a, &["x", "p"]),
                    DlAtom::new("anbn", &["p", "q"]),
                    DlAtom::new(b, &["q", "y"]),
                ],
            },
        ],
        query: DlAtom::new("anbn", &["x", "y"]),
    }
}

/// Classic same-generation program.
pub fn same_generation_program(rel: &str) -> Program {
    Program {
        rules: vec![
            Rule {
                head: DlAtom::new("sg", &["x", "y"]),
                body: vec![DlAtom::new(rel, &["p", "x"]), DlAtom::new(rel, &["p", "y"])],
            },
            Rule {
                head: DlAtom::new("sg", &["x", "y"]),
                body: vec![
                    DlAtom::new(rel, &["p", "x"]),
                    DlAtom::new("sg", &["p", "q"]),
                    DlAtom::new(rel, &["q", "y"]),
                ],
            },
        ],
        query: DlAtom::new("sg", &["x", "y"]),
    }
}

/// Reachability from a constant source.
pub fn reach_program(rel: &str, source: u64) -> Program {
    let c = DlTerm::Cst(Value::node(source));
    Program {
        rules: vec![
            Rule {
                head: DlAtom::new("reach", &["y"]),
                body: vec![DlAtom {
                    pred: rel.to_string(),
                    args: vec![c.clone(), DlTerm::Var("y".into())],
                }],
            },
            Rule {
                head: DlAtom::new("reach", &["y"]),
                body: vec![DlAtom::new("reach", &["x"]), DlAtom::new(rel, &["x", "y"])],
            },
        ],
        query: DlAtom::new("reach", &["y"]),
    }
}

/// Interns a symbol by name (test/bench convenience).
pub fn sym(db: &mut Database, name: &str) -> Sym {
    db.intern(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{labeled_rnd_db, rnd_db, tree_db};

    #[test]
    fn all_systems_agree_on_a_small_tc() {
        let db = labeled_rnd_db(80, 0.03, 2, 7);
        let w = Workload::ucrpq("?x, ?y <- ?x a1+ ?y");
        let limits = Limits::default();
        let reference = run_system(SystemId::Centralized, &db, &w, limits);
        let expected = reference.rows().expect("centralized must succeed");
        for s in [
            SystemId::DistMuRA,
            SystemId::DistMuRAGld,
            SystemId::DistMuRAPlwSorted,
            SystemId::BigDatalog,
            SystemId::Myria,
            SystemId::GraphX,
        ] {
            let out = run_system(s, &db, &w, limits);
            assert_eq!(out.rows(), Some(expected), "{} diverged: {out:?}", s.name());
        }
    }

    #[test]
    fn specials_agree_across_relational_systems() {
        let db = tree_db(120, 3);
        let limits = Limits::default();
        for w in [
            Workload::SameGeneration { rel: "edge".into() },
            Workload::Reach { rel: "edge".into(), source: 0 },
        ] {
            let reference = run_system(SystemId::Centralized, &db, &w, limits);
            let expected = reference.rows().expect("centralized must succeed");
            for s in [SystemId::DistMuRA, SystemId::BigDatalog, SystemId::Myria] {
                let out = run_system(s, &db, &w, limits);
                assert_eq!(out.rows(), Some(expected), "{} on {w:?}: {out:?}", s.name());
            }
            // Not a regular path query.
            assert!(matches!(run_system(SystemId::GraphX, &db, &w, limits), Outcome::Unsupported));
        }
    }

    #[test]
    fn anbn_agrees() {
        let db = labeled_rnd_db(100, 0.03, 2, 9);
        let w = Workload::AnBn { a: "a1".into(), b: "a2".into() };
        let limits = Limits::default();
        let expected = run_system(SystemId::Centralized, &db, &w, limits).rows().unwrap();
        for s in [SystemId::DistMuRA, SystemId::BigDatalog] {
            let out = run_system(s, &db, &w, limits);
            assert_eq!(out.rows(), Some(expected), "{}", s.name());
        }
    }

    #[test]
    fn budget_produces_failed_outcome() {
        let db = rnd_db(300, 0.02, 5);
        let w = Workload::ucrpq("?x, ?y <- ?x edge+ ?y");
        let limits = Limits { max_rows: 50, ..Default::default() };
        let out = run_system(SystemId::DistMuRA, &db, &w, limits);
        assert!(matches!(out, Outcome::Failed(_)), "{out:?}");
    }
}
