//! Planning: the engine lock, the plan caches and the planner's feedback.
//!
//! Owns the [`QueryEngine`] behind its read/write lock — planning takes
//! the write side because UCRPQ translation interns symbols; executions
//! share the read side; the mutation path (deltas, loads, replay) is the
//! only other writer. What it hides: *a plan is searched once per query
//! shape* ([`shape_key`]: the text's constants keyed out) and every plan a
//! request runs is that [`Template`] bound to the request's constants; *it
//! is reusable while the catalog has the shape it was interned against and
//! the feedback store is at the generation it was costed under.* Callers
//! get a [`Planned`] and never see an epoch, a generation or a template.

use crate::cache::LruCache;
use crate::error::ServeResult;
use crate::lock;
use crate::server::Clocks;
use crate::telemetry::{ServeStats, Telemetry};
use crate::views::Views;
use mura_core::{rel_bytes, shape_key, term_key, Database, Term, Value};
use mura_dist::{explain_plan, PlannedQuery, QueryEngine, QueryOutput};
use mura_obs::histogram::fmt_us;
use mura_rewrite::cost::{CostModel, ObservedCards, Stats};
use mura_rewrite::{FeedbackState, FeedbackStore, Rewriter};
use std::fmt::Write;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// A plan together with what files it: its [`term_key`] and the epoch it
/// was interned at. [`Views`] and [`Admission`](crate::admission::Admission)
/// take this instead of loose `(key, epoch)` pairs.
pub(crate) struct Planned {
    pub(crate) query: PlannedQuery,
    pub(crate) key: u64,
    pub(crate) epoch: u64,
    /// The constants of this text are the ones its template was searched
    /// with: what a run of it measures is what the next search can read.
    representative: bool,
}

/// One entry of the text memo: the plan a text was bound to, its
/// [`term_key`] (hashed once, when the entry is filed), the epoch it was
/// interned at and the feedback-store generation its template was costed
/// under. A hit requires both to still be current — a new or materially
/// moved observation bumps the generation, forcing the next run through
/// its template again.
#[derive(Clone)]
struct CachedPlan {
    plan: Arc<Term>,
    key: u64,
    epoch: u64,
    feedback_gen: u64,
    representative: bool,
}

impl CachedPlan {
    fn new(plan: Term, epoch: u64, feedback_gen: u64, representative: bool) -> CachedPlan {
        CachedPlan {
            key: term_key(&plan),
            plan: Arc::new(plan),
            epoch,
            feedback_gen,
            representative,
        }
    }

    /// The entry as a request carries it, with what planning cost it.
    fn planned(&self, planning: Duration) -> Planned {
        let query = PlannedQuery { plan: Term::clone(&self.plan), planning };
        Planned { query, key: self.key, epoch: self.epoch, representative: self.representative }
    }
}

/// What one search found for a query shape: the plan, the binding it was
/// searched with — the *representative*, which stays while the template
/// does, so that a re-search re-costs the fixpoints the last one's runs
/// measured — and the generation it was costed under.
#[derive(Clone)]
struct Template {
    plan: Term,
    binding: Vec<Value>,
    feedback_gen: u64,
}

pub(crate) struct Planning {
    engine: RwLock<QueryEngine>,
    /// Text → bound plan: what a repeated text costs is this lookup.
    plans: Mutex<LruCache<String, CachedPlan>>,
    /// `(shape, epoch)` → template, behind the memo: a text it misses is
    /// translated, and searched only if its shape is new or stale.
    templates: Mutex<LruCache<(u64, u64), Template>>,
    /// Observed fixpoint cardinalities from completed executions, keyed by
    /// the planner's canonical term hash. Read by every search, so a shape
    /// is re-costed from measured reality; a load drops them.
    feedback: Mutex<FeedbackStore>,
    clocks: Arc<Clocks>,
    telemetry: Arc<Telemetry>,
}

impl Planning {
    pub(crate) fn new(
        engine: QueryEngine,
        capacity: usize,
        clocks: Arc<Clocks>,
        telemetry: Arc<Telemetry>,
    ) -> Planning {
        Planning {
            engine: RwLock::new(engine),
            plans: Mutex::new(LruCache::new(capacity)),
            templates: Mutex::new(LruCache::new(capacity)),
            feedback: Mutex::new(FeedbackStore::new()),
            clocks,
            telemetry,
        }
    }

    /// Shared access: executions (fresh or catching up), estimates, symbol
    /// lookups.
    /// Both clocks are frozen for as long as the guard lives. Poison is
    /// recovered: a worker that panicked mid-query must not take the
    /// server down.
    pub(crate) fn read_engine(&self) -> RwLockReadGuard<'_, QueryEngine> {
        self.engine.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Exclusive access, for the mutation path only (a delta downgrades it
    /// to shared for its snapshot); planning takes it inside this module.
    pub(crate) fn write_engine(&self) -> RwLockWriteGuard<'_, QueryEngine> {
        self.engine.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The key of the plan filed for this text at the current epoch and the
    /// plan itself, whatever its feedback generation: enough for the
    /// submit-side gates, which want a canonical key and — under a memory
    /// watermark — a byte estimate before anything is queued.
    pub(crate) fn peek(&self, query: &str) -> Option<(u64, Arc<Term>)> {
        let epoch = self.clocks.epoch();
        let cached = lock(&self.plans).get(query).filter(|c| c.epoch == epoch)?;
        Some((cached.key, cached.plan))
    }

    /// The plan for `query`. A text the memo holds is answered from it; any
    /// other is translated under the write lock, and its shape's template —
    /// searched now if the shape is new, or was costed under observations
    /// that have moved since — is bound to the text's constants. A replan
    /// that lands on the plan the text had is that plan, key and all, and
    /// finds its view; one that feedback steered onto a different plan
    /// tells `views`, whose entry under the old plan's key no lookup
    /// reaches anymore.
    pub(crate) fn plan(&self, query: &str, views: &Views) -> ServeResult<Planned> {
        let counters = &self.telemetry.counters;
        let epoch = self.clocks.epoch();
        let feedback_gen = lock(&self.feedback).generation();
        let cached = lock(&self.plans).get(query);
        if let Some(c) = cached.filter(|c| (c.epoch, c.feedback_gen) == (epoch, feedback_gen)) {
            counters.plan_hits.inc();
            return Ok(c.planned(Duration::ZERO));
        }
        let mut engine = self.write_engine();
        let start = Instant::now();
        // Re-read under the lock: loads move the epoch while holding it, so
        // this pins the epoch the plan is made against. The feedback
        // generation is re-read too, so the template is tagged with exactly
        // the observations it was costed under.
        let epoch = self.clocks.epoch();
        let (obs, feedback_gen) = self.observations();
        let superseded = lock(&self.plans).get(query).filter(|c| c.epoch == epoch).map(|c| c.key);
        let (found, (shape, binding, representative, searched)) =
            engine.plan_ucrpq_with(query, obs, Rewriter::optimize_report, |raw, search| {
                let (shape, binding) = shape_key(&raw);
                let template = lock(&self.templates).get(&(shape, epoch));
                match template {
                    Some(t) if t.feedback_gen == feedback_gen => {
                        Ok((t.plan, (shape, binding, t.binding, false)))
                    }
                    stale => {
                        let representative = stale.map_or_else(|| binding.clone(), |t| t.binding);
                        let (plan, _) = search(&raw.rebind(&binding, &representative))?;
                        Ok((plan, (shape, binding, representative, true)))
                    }
                }
            })?;
        if searched {
            counters.plan_misses.inc();
            let (plan, binding) = (found.plan.clone(), representative.clone());
            lock(&self.templates).insert((shape, epoch), Template { plan, binding, feedback_gen });
        } else {
            counters.plan_hits.inc();
            counters.plan_template_hits.inc();
        }
        let plan = found.plan.rebind(&representative, &binding);
        let entry = CachedPlan::new(plan, epoch, feedback_gen, representative == binding);
        let planned = entry.planned(start.elapsed());
        if let Some(old) = superseded.filter(|old| *old != planned.key) {
            views.supersede(old, epoch);
        }
        lock(&self.plans).insert(query.to_string(), entry);
        self.telemetry.planning.record(planned.query.planning);
        Ok(planned)
    }

    /// What the planner costs from — the measured cardinalities, if any —
    /// and the generation they are.
    fn observations(&self) -> (Option<Arc<ObservedCards>>, u64) {
        let feedback = lock(&self.feedback);
        let observed = feedback.observations();
        ((!observed.is_empty()).then_some(observed), feedback.generation())
    }

    /// Cost-model byte estimate for a plan: output cardinality × arity ×
    /// value size, from the statistics the planner reads — the exact
    /// counts the catalog keeps with each stored relation, so a mutated
    /// relation is priced as it is now. 0 when the model can't price the
    /// plan — the memory gate then falls back to the live gauge alone.
    pub(crate) fn estimated_bytes(plan: &Term, db: &Database) -> u64 {
        let Ok(card) = CostModel::new(&Stats::from_db(db)).card(plan) else {
            return 0;
        };
        // `as` saturates the f64 (NaN → 0), and `rel_bytes` saturates the
        // multiplication, so an astronomical join estimate clamps to
        // u64::MAX and is always shed instead of wrapping past the gate.
        rel_bytes(card.rows as u64, card.distinct.len().max(1))
    }

    /// [`estimated_bytes`](Planning::estimated_bytes) for the submit side,
    /// which must not wait: 0 while a planner or a mutation holds the
    /// engine.
    pub(crate) fn try_estimate(&self, plan: &Term) -> u64 {
        self.engine.try_read().map_or(0, |engine| Self::estimated_bytes(plan, engine.db()))
    }

    /// Folds the fixpoint cardinalities a run measured back into the
    /// planner: the next search (of any shape sharing a recursive subterm)
    /// re-costs from observed reality instead of static estimates. Only a
    /// run under its template's own binding is filed: a search hashes the
    /// fixpoints of the representative's candidates and no others, so what
    /// another binding measured — under the key of a fixpoint with *its*
    /// constant pushed in — is read by nothing, and filing it would bump
    /// the generation, and re-search every template, for each constant
    /// seen for the first time. Skipped too when a load moved the epoch
    /// between planning and the run — the totals were then measured against
    /// another catalog.
    pub(crate) fn observe(&self, planned: &Planned, out: &QueryOutput) {
        let Some(totals) = out.stats.fix_totals.as_ref().filter(|t| !t.is_empty()) else { return };
        if planned.representative && planned.epoch == self.clocks.epoch() {
            let measured = |fix: &Term| totals.get(&term_key(fix)).map(|r| r.len() as f64);
            lock(&self.feedback).record_plan(&planned.query.plan, &measured);
        }
    }

    /// A load replaced the data: everything the planner has measured is
    /// void. The generation stays, so a same-shape refresh keeps its cached
    /// plans until fresh observations arrive and bump it. `reshaped` also
    /// releases the plans and templates — interned against the old catalog,
    /// unreachable under the new epoch — without counting them as evictions.
    pub(crate) fn reloaded(&self, reshaped: bool) {
        lock(&self.feedback).clear();
        if reshaped {
            lock(&self.plans).clear();
            lock(&self.templates).clear();
        }
    }

    /// The plans (all of the current epoch, see [`reloaded`](Planning::reloaded))
    /// and the feedback store, in the form a snapshot persists. Plans ride
    /// along rather than being re-derived at recovery: the planner costs
    /// against live cardinalities, so a replan after restore could legally
    /// pick a different plan than the one a persisted view is keyed under,
    /// orphaning the view.
    pub(crate) fn export(&self) -> (Vec<(String, Term, u64)>, FeedbackState) {
        let mut plans: Vec<(String, Term, u64)> = lock(&self.plans)
            .entries()
            .into_iter()
            .map(|(query, cached)| (query, Term::clone(&cached.plan), cached.feedback_gen))
            .collect();
        // Stable bytes: equal server states must snapshot identically.
        plans.sort_by(|a, b| a.0.cmp(&b.0));
        (plans, lock(&self.feedback).export_state())
    }

    /// Installs what [`export`](Planning::export) persisted, at the
    /// current epoch. The templates are rebuilt from the texts: each is
    /// translated for its shape, and of a shape's texts the one costed
    /// under the latest generation — the first of them in the sorted order
    /// they come in — gives the template its plan and its binding.
    pub(crate) fn import(&self, mut plans: Vec<(String, Term, u64)>, feedback: FeedbackState) {
        *lock(&self.feedback) = FeedbackStore::import_state(feedback);
        let mut engine = self.write_engine();
        let epoch = self.clocks.epoch();
        plans.sort_by_key(|(_, _, feedback_gen)| std::cmp::Reverse(*feedback_gen));
        for (query, plan, feedback_gen) in plans {
            // No search: `choose` answers with the persisted plan. A text
            // the restored catalog cannot translate can never be asked.
            let shaped =
                engine.plan_ucrpq_with(&query, None, Rewriter::optimize_report, |raw, _| {
                    Ok((plan, shape_key(&raw)))
                });
            let Ok((PlannedQuery { plan, .. }, (shape, binding))) = shaped else { continue };
            let filed = lock(&self.templates).get(&(shape, epoch));
            let representative = match filed {
                Some(template) => template.binding == binding,
                None => {
                    let template = Template { plan: plan.clone(), binding, feedback_gen };
                    lock(&self.templates).insert((shape, epoch), template);
                    true
                }
            };
            let entry = CachedPlan::new(plan, epoch, feedback_gen, representative);
            lock(&self.plans).insert(query, entry);
        }
    }

    /// Fills in the gauges the planner keeps. One statement per lock:
    /// guard temporaries inside one expression would all live to its end —
    /// two on the same mutex self-deadlock, a cache lock held across the
    /// engine lock inverts the lock order.
    pub(crate) fn report(&self, stats: &mut ServeStats) {
        stats.plan_evictions = lock(&self.plans).evictions();
        stats.plan_evictions += lock(&self.templates).evictions();
        stats.dictionary_symbols = self.read_engine().db().dict().len() as u64;
        let feedback = lock(&self.feedback);
        stats.feedback_fixpoints = feedback.len() as u64;
        stats.feedback_generation = feedback.generation();
    }

    /// Plans a query without executing it and renders the planner's
    /// decision procedure: enumeration breadth, per-group best costs, the
    /// chosen plan and whether costing ran from observed cardinalities or
    /// static statistics — for the text as it stands, whatever binding its
    /// shape's template was searched with; the `template` line says whether
    /// a request for the text would have bound that template instead. Takes
    /// the engine write lock (UCRPQ translation interns symbols) but
    /// populates neither plan cache — an explain is a diagnostic, not an
    /// admission.
    pub(crate) fn explain(&self, query: &str) -> ServeResult<String> {
        let (obs, generation) = self.observations();
        let mut engine = self.write_engine();
        let (planned, (report, shape)) =
            engine.plan_ucrpq_with(query, obs, Rewriter::optimize_explained, |raw, search| {
                let (plan, report) = search(&raw)?;
                Ok((plan, (report, shape_key(&raw).0)))
            })?;
        let template = lock(&self.templates).get(&(shape, self.clocks.epoch()));
        let mut out = String::new();
        match report {
            Some(r) => {
                let budget = if r.budget_hit { ", budget hit" } else { "" };
                let _ = writeln!(out, "planner      memoized enumeration");
                let _ = writeln!(
                    out,
                    "candidates   {} terms in {} groups{budget}",
                    r.candidates, r.groups
                );
                let _ = writeln!(out, "pipeline     cost {:.0}", r.pipeline_cost);
                let _ = writeln!(
                    out,
                    "chosen       cost {:.0} ({})",
                    r.winner_cost,
                    if r.enumerated_won { "enumerated" } else { "greedy pipeline" }
                );
                let costing = if r.used_observed {
                    format!(
                        "observed cardinalities ({} fixpoints measured, feedback generation {})",
                        r.observed_fixpoints, generation
                    )
                } else {
                    "static statistics".to_string()
                };
                let _ = writeln!(out, "costing      {costing}");
                for g in &r.group_summaries {
                    let _ = writeln!(
                        out,
                        "  group [{:>12.0}] x{:<3} {}",
                        g.best_cost, g.members, g.label
                    );
                }
            }
            None => {
                let _ = writeln!(out, "planner      off (raw translation)");
            }
        }
        let db = engine.db();
        match template.filter(|t| t.feedback_gen == generation) {
            Some(t) => {
                // A constant by the first name the catalog binds to it.
                let named = |v: &Value| {
                    let names = db.constants().filter(|(_, bound)| bound == v);
                    let first = names.map(|(name, _)| db.dict().resolve(name)).min();
                    first.map_or_else(|| v.to_string(), |name| name.into_owned())
                };
                let searched = match t.binding.iter().map(named).collect::<Vec<_>>() {
                    names if names.is_empty() => "without constants".to_string(),
                    names => format!("for {}", names.join(", ")),
                };
                let _ = writeln!(
                    out,
                    "template     hit (searched {searched}, generation {generation})"
                );
            }
            None => {
                let _ = writeln!(out, "template     miss");
            }
        }
        let _ = writeln!(out, "planning     {}", fmt_us(planned.planning.as_micros() as u64));
        let _ =
            write!(out, "plan:\n{}", explain_plan(&planned.plan, db, engine.config().local_engine));
        Ok(out)
    }
}
