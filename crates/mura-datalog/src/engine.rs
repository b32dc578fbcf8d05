//! The two Datalog baseline engines.
//!
//! Both run the same pipeline — UCRPQ → left-to-right Datalog program →
//! μ-RA term → distributed execution on the `mura-dist` substrate — but
//! with the capability envelopes the paper ascribes to each system (§VI):
//!
//! * **BigDatalog**: magic-sets-equivalent logical optimization
//!   (selections/projections pushed in the written direction only; no
//!   fixpoint merging, no reversal) and GPS-style decomposable physical
//!   plans — when the recursion preserves its partitioning argument (our
//!   stable column), the fixpoint runs as parallel local SetRDD loops,
//!   exactly the paper's `P_plw`-equivalent that Dist-μ-RA borrows back.
//! * **Myria**: incremental (semi-naive) evaluation, but no logical
//!   optimization of the recursive plan and no decomposable execution:
//!   every iteration synchronizes through the driver (`P_gld`-style).

use crate::compile::compile_program;
use crate::translate::ucrpq_to_program;
use mura_core::analysis::TypeEnv;
use mura_core::{Database, Result, Term};
use mura_dist::exec::{DistEvaluator, ExecConfig, FixpointPlan};
use mura_dist::QueryOutput;
use mura_rewrite::rules::{normalize_with, NormalizeOpts};
use mura_ucrpq::parse_ucrpq;
use std::time::Instant;

/// Which baseline system to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatalogStyle {
    /// BigDatalog (SIGMOD'16): Datalog on Spark with GPS decomposition.
    BigDatalog,
    /// Myria (VLDB'15): shared-nothing Datalog, synchronous iterations.
    Myria,
}

/// A distributed Datalog engine baseline.
pub struct DatalogEngine {
    db: Database,
    style: DatalogStyle,
    config: ExecConfig,
}

impl DatalogEngine {
    /// New engine over a database.
    pub fn new(db: Database, style: DatalogStyle) -> Self {
        let plan = match style {
            DatalogStyle::BigDatalog => FixpointPlan::Auto, // GPS decomposition
            DatalogStyle::Myria => FixpointPlan::ForceGld,
        };
        let config = ExecConfig { plan, ..Default::default() };
        DatalogEngine { db, style, config }
    }

    /// Overrides the execution configuration (keeps the style's plan
    /// policy unless explicitly changed by the caller).
    pub fn with_config(mut self, config: ExecConfig) -> Self {
        self.config = config;
        self
    }

    /// The database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable database access.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Runs a UCRPQ through the Datalog pipeline.
    pub fn run_ucrpq(&mut self, query: &str) -> Result<QueryOutput> {
        let q = parse_ucrpq(query)?;
        let program = ucrpq_to_program(&q, &self.db)?;
        self.run_program_term(&program)
    }

    /// Runs an explicit Datalog program.
    pub fn run_program_term(&mut self, program: &crate::ast::Program) -> Result<QueryOutput> {
        let start = Instant::now();
        let term = compile_program(program, &mut self.db)?;
        let plan = self.logical_optimize(&term);
        let planning = start.elapsed();
        let exec_start = Instant::now();
        let mut ev = DistEvaluator::new(&self.db, self.config.clone());
        let before = ev.cluster().metrics().snapshot();
        let relation = ev.eval_collect(&plan)?;
        let comm = ev.cluster().metrics().snapshot().since(&before);
        Ok(QueryOutput {
            relation,
            planning,
            execution: exec_start.elapsed(),
            stats: ev.stats().clone(),
            comm,
            plan,
        })
    }

    /// The style's logical optimization envelope.
    fn logical_optimize(&self, term: &Term) -> Term {
        let opts = match self.style {
            DatalogStyle::BigDatalog => NormalizeOpts::magic_sets(),
            DatalogStyle::Myria => NormalizeOpts::none_into_fix(),
        };
        let mut env = TypeEnv::from_db(&self.db);
        normalize_with(term, &mut env, &opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::{eval, Relation, Term, Value};
    use mura_datagen::SplitMix64;
    use mura_datagen::{erdos_renyi, with_random_labels};

    fn db() -> Database {
        let mut rng = SplitMix64::seed_from_u64(21);
        let g = erdos_renyi(150, 0.015, 9);
        let lg = with_random_labels(&g, 2, &mut rng);
        let mut db = lg.to_database();
        db.bind_constant("C", Value::node(5));
        db
    }

    fn reference(q: &str, db: &Database) -> Relation {
        let mut d = db.clone();
        let parsed = mura_ucrpq::parse_ucrpq(q).unwrap();
        let t = mura_ucrpq::to_mura(&parsed, &mut d).unwrap();
        eval(&t, &d).unwrap()
    }

    #[test]
    fn bigdatalog_answers_match() {
        let d = db();
        let mut e = DatalogEngine::new(d.clone(), DatalogStyle::BigDatalog);
        for q in
            ["?x, ?y <- ?x a1+ ?y", "?x <- ?x a1+ C", "?y <- C a1+ ?y", "?x, ?y <- ?x a1+/a2+ ?y"]
        {
            let out = e.run_ucrpq(q).unwrap();
            let expected = reference(q, &d);
            assert_eq!(out.relation.len(), expected.len(), "query {q}");
        }
    }

    #[test]
    fn myria_answers_match() {
        let d = db();
        let mut e = DatalogEngine::new(d.clone(), DatalogStyle::Myria);
        let q = "?x, ?y <- ?x a1+ ?y";
        let out = e.run_ucrpq(q).unwrap();
        assert_eq!(out.relation.len(), reference(q, &d).len());
    }

    #[test]
    fn bigdatalog_uses_decomposable_plan_on_tc() {
        let mut e = DatalogEngine::new(db(), DatalogStyle::BigDatalog);
        let out = e.run_ucrpq("?x, ?y <- ?x a1+ ?y").unwrap();
        assert!(out.stats.plw_fixpoints >= 1, "GPS decomposition expected");
    }

    #[test]
    fn myria_never_decomposes() {
        let mut e = DatalogEngine::new(db(), DatalogStyle::Myria);
        let out = e.run_ucrpq("?x, ?y <- ?x a1+ ?y").unwrap();
        assert_eq!(out.stats.plw_fixpoints, 0);
        assert!(out.stats.gld_fixpoints >= 1);
    }

    #[test]
    fn bigdatalog_pushes_left_constant_but_not_right() {
        let mut e = DatalogEngine::new(db(), DatalogStyle::BigDatalog);
        // Left constant: seed specialization (magic sets) — the plan's
        // fixpoint seed carries the filter, so no filter sits above a Fix.
        let out_left = e.run_ucrpq("?y <- C a1+ ?y").unwrap();
        fn filter_over_fix(t: &Term) -> bool {
            match t {
                Term::Filter(_, inner) => {
                    matches!(**inner, Term::Fix(_, _)) || filter_over_fix(inner)
                }
                _ => t.children().iter().any(|c| filter_over_fix(c)),
            }
        }
        assert!(!filter_over_fix(&out_left.plan), "left constant must be pushed");
        // Right constant: the closure is computed in full, the filter stays
        // outside (no fixpoint reversal in Datalog engines).
        let out_right = e.run_ucrpq("?x <- ?x a1+ C").unwrap();
        assert!(filter_over_fix(&out_right.plan), "right constant must NOT be pushed");
    }

    #[test]
    fn bigdatalog_never_merges_closures() {
        let mut e = DatalogEngine::new(db(), DatalogStyle::BigDatalog);
        let out = e.run_ucrpq("?x, ?y <- ?x a1+/a2+ ?y").unwrap();
        // Two separate fixpoints joined — no merged two-branch fixpoint.
        assert_eq!(out.plan.fixpoint_count(), 2);
    }
}
