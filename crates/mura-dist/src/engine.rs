//! The Dist-μ-RA query engine: the full pipeline of the paper's Fig. 3.
//!
//! `UCRPQ → Query2Mu → MuRewriter + CostEstimator → PhysicalPlanGenerator →
//! distributed execution`, returning both the answer relation and the
//! execution/communication statistics.

use crate::exec::{DistEvaluator, ExecConfig, ExecStats};
use crate::metrics::CommSnapshot;
use mura_core::{Database, Relation, Result, Term};
use mura_rewrite::{bracketed, EnumReport, ObservedCards, Rewriter};
use mura_ucrpq::{parse_ucrpq, to_mura};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of a query execution.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The answer relation.
    pub relation: Relation,
    /// Wall-clock time of parsing + rewriting (zero when the plan came from
    /// a cache).
    pub planning: Duration,
    /// Wall-clock time of distributed execution.
    pub execution: Duration,
    /// Execution counters.
    pub stats: ExecStats,
    /// Communication during this query.
    pub comm: CommSnapshot,
    /// The optimized logical plan that was executed.
    pub plan: Term,
}

impl QueryOutput {
    /// Total wall-clock time (planning + execution).
    pub fn wall(&self) -> Duration {
        self.planning + self.execution
    }

    /// The per-query trace, present when the execution ran with
    /// [`ExecConfig::trace`](crate::ExecConfig) above `Off`.
    pub fn trace(&self) -> Option<&mura_obs::QueryTrace> {
        self.stats.trace.as_ref()
    }

    /// A short health note when the query hit faults but still completed:
    /// `Some("recovered ...")` when recovery machinery ran (task retries,
    /// checkpoint restores or restarts), `Some("degraded ...")` when faults
    /// were injected but absorbed without recovery (drops retransmitted,
    /// duplicates deduplicated, stragglers waited out), `None` for a clean
    /// run. Serving layers append this to their success responses instead
    /// of failing the query.
    pub fn health_note(&self) -> Option<String> {
        let f = &self.stats.fault;
        if f.recovered() {
            Some(format!(
                "recovered retries={} restores={} restarts={}",
                f.task_retries, f.checkpoint_restores, f.full_restarts
            ))
        } else if f.injected() > 0 {
            Some(format!(
                "degraded drops={} dups={} stragglers={}",
                f.injected_drops, f.injected_duplicates, f.injected_stragglers
            ))
        } else {
            None
        }
    }

    /// Renders a physical-plan explanation: the operator tree with every
    /// fixpoint annotated by its stable columns and the plan the
    /// `PhysicalPlanGenerator` policy selects for it (§IV-B c).
    pub fn explain(&self, db: &Database) -> String {
        explain_plan(&self.plan, db)
    }
}

/// Renders the physical-plan explanation of an arbitrary plan (the
/// operator tree with fixpoints annotated by stable columns and selected
/// physical plan). Used by the server's `.explain`, which plans without
/// executing.
pub fn explain_plan(plan: &Term, db: &Database) -> String {
    let mut out = String::new();
    let mut env = mura_core::analysis::TypeEnv::from_db(db);
    explain_rec(plan, db, &mut env, 0, &mut out);
    out
}

fn explain_rec(
    t: &Term,
    db: &Database,
    env: &mut mura_core::analysis::TypeEnv,
    depth: usize,
    out: &mut String,
) {
    use std::fmt::Write;
    let pad = "  ".repeat(depth);
    match t {
        Term::Var(v) => {
            let _ = writeln!(out, "{pad}scan {}", db.dict().resolve(*v));
        }
        Term::Cst(r) => {
            let _ = writeln!(out, "{pad}const [{} rows]", r.len());
        }
        Term::Filter(ps, inner) => {
            let _ = writeln!(out, "{pad}filter ({} predicates)", ps.len());
            explain_rec(inner, db, env, depth + 1, out);
        }
        Term::Rename(a, b, inner) => {
            let _ =
                writeln!(out, "{pad}rename {} -> {}", db.dict().resolve(*a), db.dict().resolve(*b));
            explain_rec(inner, db, env, depth + 1, out);
        }
        Term::AntiProject(cs, inner) => {
            let cols: Vec<_> = cs.iter().map(|c| db.dict().resolve(*c)).collect();
            let _ = writeln!(out, "{pad}drop {}", cols.join(","));
            explain_rec(inner, db, env, depth + 1, out);
        }
        Term::Join(a, b) => {
            let _ = writeln!(out, "{pad}join");
            explain_rec(a, db, env, depth + 1, out);
            explain_rec(b, db, env, depth + 1, out);
        }
        Term::Antijoin(a, b) => {
            let _ = writeln!(out, "{pad}antijoin");
            explain_rec(a, db, env, depth + 1, out);
            explain_rec(b, db, env, depth + 1, out);
        }
        Term::Union(a, b) => {
            let _ = writeln!(out, "{pad}union");
            explain_rec(a, db, env, depth + 1, out);
            explain_rec(b, db, env, depth + 1, out);
        }
        Term::Fix(x, body) => {
            let note = match mura_core::analysis::stable_columns(*x, body, env) {
                Ok(stable) if !stable.is_empty() => {
                    let cols: Vec<_> = stable.iter().map(|c| db.dict().resolve(*c)).collect();
                    format!("stable: {} -> P_plw", cols.join(","))
                }
                Ok(_) => "no stable column -> P_gld".to_string(),
                Err(e) => format!("analysis failed: {e}"),
            };
            let _ = writeln!(out, "{pad}fixpoint μ({}) [{note}]", db.dict().resolve(*x));
            // Bind the recursion variable's schema while explaining the body.
            let schema = mura_core::analysis::infer_schema(t, env).ok();
            let prev = schema.map(|s| (env.bind(*x, s.clone()), s));
            explain_rec(body, db, env, depth + 1, out);
            if let Some((prev, _)) = prev {
                env.unbind(*x, prev);
            }
        }
    }
}

/// How [`QueryEngine::plan_ucrpq_with`] searches:
/// [`Rewriter::optimize_report`], or [`Rewriter::optimize_explained`] for
/// the per-group digest.
pub type SearchFn = fn(&Rewriter, &Term, &mut Database) -> Result<(Term, EnumReport)>;

/// The search as [`QueryEngine::plan_ucrpq_with`] hands it to its caller.
pub type Search<'a> = dyn FnMut(&Term) -> Result<(Term, Option<EnumReport>)> + 'a;

/// The end-to-end Dist-μ-RA engine over one database.
pub struct QueryEngine {
    db: Database,
    config: ExecConfig,
    /// Skip the logical rewriter (for ablation experiments).
    optimize: bool,
}

impl QueryEngine {
    /// Engine with default configuration (4 workers, auto plan selection).
    pub fn new(db: Database) -> Self {
        QueryEngine { db, config: ExecConfig::default(), optimize: true }
    }

    /// Engine with an explicit configuration.
    pub fn with_config(db: Database, config: ExecConfig) -> Self {
        QueryEngine { db, config, optimize: true }
    }

    /// Disables the logical rewriter (naive plans; ablation baseline).
    pub fn without_rewrites(mut self) -> Self {
        self.optimize = false;
        self
    }

    /// The database (e.g. to resolve result symbols).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable database access (load more relations / constants).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Current execution configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Parses, optimizes and executes a UCRPQ.
    pub fn run_ucrpq(&mut self, query: &str) -> Result<QueryOutput> {
        let planned = self.plan_ucrpq(query)?;
        self.execute_plan(&planned)
    }

    /// Optimizes and executes a μ-RA term.
    pub fn run_term(&mut self, term: &Term) -> Result<QueryOutput> {
        let planned = self.plan_term(term)?;
        self.execute_plan(&planned)
    }

    /// Parses and optimizes a UCRPQ without executing it. Planning needs
    /// `&mut self` (translation interns symbols into the database); the
    /// returned plan can then be executed any number of times through
    /// [`QueryEngine::execute_plan`], which only needs `&self`.
    pub fn plan_ucrpq(&mut self, query: &str) -> Result<PlannedQuery> {
        Ok(self.plan_ucrpq_report(query, None)?.0)
    }

    /// Parses and optimizes a UCRPQ, returning the plan together with the
    /// plan-space enumeration report (`None` when the rewriter is
    /// disabled). `observed` supplies measured fixpoint cardinalities from
    /// the server's feedback store; when present, fixpoints found there are
    /// costed from measurement instead of static statistics.
    pub fn plan_ucrpq_report(
        &mut self,
        query: &str,
        observed: Option<Arc<ObservedCards>>,
    ) -> Result<(PlannedQuery, Option<EnumReport>)> {
        self.plan_ucrpq_with(query, observed, Rewriter::optimize_report, |raw, search| search(&raw))
    }

    /// Translation and — if `choose` asks for it — search in one bracket:
    /// the numbers the frontend mints for the raw term are given back with
    /// the search's, and the plan numbers what it keeps of either. `choose`
    /// gets the raw term and `search` (`how` under `observed`; the identity
    /// with the rewriter disabled) and answers with the plan: what `search`
    /// finds for the raw term, for a re-instantiation of it, or a plan it
    /// kept from an earlier call, in which case nothing is searched and
    /// the dictionary is left as it was.
    pub fn plan_ucrpq_with<R>(
        &mut self,
        query: &str,
        observed: Option<Arc<ObservedCards>>,
        how: SearchFn,
        choose: impl FnOnce(Term, &mut Search<'_>) -> Result<(Term, R)>,
    ) -> Result<(PlannedQuery, R)> {
        let start = Instant::now();
        let q = parse_ucrpq(query)?;
        let optimize = self.optimize;
        let (plan, rest) = bracketed(&mut self.db, |db| {
            let raw = to_mura(&q, db)?;
            choose(raw, &mut |term| {
                if !optimize {
                    return Ok((term.clone(), None));
                }
                let mut rewriter = Rewriter::new(db);
                if let Some(observed) = &observed {
                    rewriter = rewriter.with_observations(Arc::clone(observed));
                }
                let (plan, report) = how(&rewriter, term, db)?;
                Ok((plan, Some(report)))
            })
        })?;
        Ok((PlannedQuery { plan, planning: start.elapsed() }, rest))
    }

    /// Optimizes a μ-RA term without executing it.
    pub fn plan_term(&mut self, term: &Term) -> Result<PlannedQuery> {
        let start = Instant::now();
        let plan = if self.optimize {
            let rewriter = Rewriter::new(&mut self.db);
            rewriter.optimize(term, &mut self.db)?
        } else {
            term.clone()
        };
        Ok(PlannedQuery { plan, planning: start.elapsed() })
    }

    /// Executes an already-planned query under the engine's configuration.
    /// Read-only on the engine, so a serving layer can run many executions
    /// concurrently against one shared engine.
    pub fn execute_plan(&self, planned: &PlannedQuery) -> Result<QueryOutput> {
        self.execute_plan_with(planned, self.config.clone())
    }

    /// Executes a planned query under per-query configuration overrides
    /// (resource limits, cancellation token, plan policy).
    pub fn execute_plan_with(
        &self,
        planned: &PlannedQuery,
        config: ExecConfig,
    ) -> Result<QueryOutput> {
        let start = Instant::now();
        let mut ev = DistEvaluator::new(&self.db, config);
        let before = ev.cluster().metrics().snapshot();
        let relation = ev.eval_collect(&planned.plan)?;
        let comm = ev.cluster().metrics().snapshot().since(&before);
        Ok(QueryOutput {
            relation,
            planning: planned.planning,
            execution: start.elapsed(),
            stats: ev.stats().clone(),
            comm,
            plan: planned.plan.clone(),
        })
    }
}

/// An optimized logical plan ready for (repeated) execution.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The optimized μ-RA term.
    pub plan: Term,
    /// How long parsing + rewriting took.
    pub planning: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::FixpointPlan;
    use mura_core::{eval, Value};
    use mura_datagen::SplitMix64;
    use mura_datagen::{erdos_renyi, with_random_labels};

    fn engine() -> QueryEngine {
        let mut rng = SplitMix64::seed_from_u64(3);
        let g = erdos_renyi(200, 0.012, 5);
        let lg = with_random_labels(&g, 2, &mut rng);
        let mut db = lg.to_database();
        db.bind_constant("C", Value::node(11));
        QueryEngine::new(db)
    }

    #[test]
    fn end_to_end_matches_centralized() {
        let mut e = engine();
        for q in [
            "?x, ?y <- ?x a1+ ?y",
            "?x <- ?x a1+ C",
            "?x <- C a1+ ?x",
            "?x, ?y <- ?x a1+/a2 ?y",
            "?x, ?y <- ?x a2/a1+ ?y",
            "?x, ?y <- ?x a1+/a2+ ?y",
        ] {
            let out = e.run_ucrpq(q).unwrap();
            // Reference: unoptimized centralized evaluation.
            let parsed = mura_ucrpq::parse_ucrpq(q).unwrap();
            let term = mura_ucrpq::to_mura(&parsed, e.db_mut()).unwrap();
            let expected = eval(&term, e.db()).unwrap();
            assert_eq!(out.relation.sorted_rows(), expected.sorted_rows(), "query {q} diverged");
        }
    }

    #[test]
    fn without_rewrites_same_answers() {
        let mut opt = engine();
        let mut naive = engine().without_rewrites();
        let q = "?x <- ?x a1+ C";
        let a = opt.run_ucrpq(q).unwrap();
        let b = naive.run_ucrpq(q).unwrap();
        assert_eq!(a.relation.sorted_rows(), b.relation.sorted_rows());
    }

    #[test]
    fn plan_override_is_respected() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let g = erdos_renyi(100, 0.02, 5);
        let lg = with_random_labels(&g, 2, &mut rng);
        let db = lg.to_database();
        let config = ExecConfig { plan: FixpointPlan::ForceGld, ..Default::default() };
        let mut e = QueryEngine::with_config(db, config);
        let out = e.run_ucrpq("?x, ?y <- ?x a1+ ?y").unwrap();
        assert!(out.stats.gld_fixpoints >= 1);
        assert_eq!(out.stats.plw_fixpoints, 0);
    }

    #[test]
    fn explain_annotates_fixpoints() {
        let mut e = engine();
        let out = e.run_ucrpq("?x, ?y <- ?x a1+ ?y").unwrap();
        let plan = out.explain(e.db());
        assert!(plan.contains("fixpoint"), "{plan}");
        assert!(plan.contains("P_plw"), "stable closure must pick P_plw:\n{plan}");
        let out2 = e.run_ucrpq("?x, ?y <- ?x a1+/a2+ ?y").unwrap();
        let plan2 = out2.explain(e.db());
        assert!(plan2.contains("P_gld"), "merged fixpoint has no stable column:\n{plan2}");
    }

    #[test]
    fn output_reports_comm_and_plan() {
        let mut e = engine();
        let out = e.run_ucrpq("?x, ?y <- ?x a1+ ?y").unwrap();
        assert!(out.stats.fixpoint_iterations >= 1);
        assert!(out.plan.fixpoint_count() >= 1);
        // Some data always moves (broadcasts or shuffles).
        assert!(out.comm.rows_broadcast + out.comm.rows_shuffled > 0);
    }
}
