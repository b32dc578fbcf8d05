//! Planning: the engine lock, the plan cache and the planner's feedback.
//!
//! Owns the [`QueryEngine`] behind its read/write lock — planning takes
//! the write side because UCRPQ translation interns symbols; executions
//! share the read side; the mutation path (deltas, loads, replay) is the
//! only other writer. What it hides: *a plan is reusable while the catalog
//! has the shape it was interned against and the feedback store is at the
//! generation it was costed under.* Callers get a [`Planned`] and never
//! see an epoch or a generation.

use crate::cache::LruCache;
use crate::error::ServeResult;
use crate::lock;
use crate::server::Clocks;
use crate::telemetry::{ServeStats, Telemetry};
use crate::views::Views;
use mura_core::{rel_bytes, term_key, Database, Term};
use mura_dist::{explain_plan, PlannedQuery, QueryEngine, QueryOutput};
use mura_obs::histogram::fmt_us;
use mura_rewrite::cost::{CostModel, ObservedCards, Stats};
use mura_rewrite::{FeedbackState, FeedbackStore};
use std::fmt::Write;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// A plan together with what files it: its [`term_key`] and the epoch it
/// was interned at. [`Views`] and [`Admission`](crate::admission::Admission)
/// take this instead of loose `(key, epoch)` pairs.
pub(crate) struct Planned {
    pub(crate) query: PlannedQuery,
    pub(crate) key: u64,
    pub(crate) epoch: u64,
}

/// One plan-cache entry: the optimized plan, its [`term_key`] (hashed once,
/// when the entry is filed) and the feedback-store generation it was costed
/// under. A hit requires the generation to still be current — a new or
/// materially moved observation bumps it, forcing the next run to re-plan
/// from measured cardinalities.
#[derive(Clone)]
struct CachedPlan {
    plan: Term,
    key: u64,
    feedback_gen: u64,
}

impl CachedPlan {
    fn new(plan: Term, feedback_gen: u64) -> CachedPlan {
        CachedPlan { key: term_key(&plan), plan, feedback_gen }
    }

    /// The cached plan as a request carries it: nothing was planned.
    fn planned(self, epoch: u64) -> Planned {
        let query = PlannedQuery { plan: self.plan, planning: Duration::ZERO };
        Planned { query, key: self.key, epoch }
    }
}

pub(crate) struct Planning {
    engine: RwLock<QueryEngine>,
    plans: Mutex<LruCache<(String, u64), CachedPlan>>,
    /// Observed fixpoint cardinalities from completed executions, keyed by
    /// the planner's canonical term hash. Read on every plan-cache miss so
    /// repeated queries are re-costed from measured reality; a load drops
    /// them.
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

    /// The plan filed for this text at the current epoch, whatever its
    /// feedback generation: enough for the submit-side gates, which want a
    /// canonical key and a byte estimate before anything is queued.
    pub(crate) fn peek(&self, query: &str) -> Option<Planned> {
        let epoch = self.clocks.epoch();
        let cached = lock(&self.plans).get(&(query.to_string(), epoch))?;
        Some(cached.planned(epoch))
    }

    /// The plan for `query`: the cached one while it is reusable, a fresh
    /// one otherwise (interning under the write lock). A replan that lands
    /// on the plan it had is that plan, key and all, and finds its view; one
    /// that feedback steered onto a different plan tells `views`, whose
    /// entry under the old plan's key no lookup reaches anymore.
    pub(crate) fn plan(&self, query: &str, views: &Views) -> ServeResult<Planned> {
        let counters = &self.telemetry.counters;
        let epoch = self.clocks.epoch();
        let key = (query.to_string(), epoch);
        let feedback_gen = lock(&self.feedback).generation();
        let cached = lock(&self.plans).get(&key).filter(|c| c.feedback_gen == feedback_gen);
        if let Some(c) = cached {
            counters.plan_hits.inc();
            return Ok(c.planned(epoch));
        }
        counters.plan_misses.inc();
        let mut engine = self.write_engine();
        // Re-read under the lock: loads move the epoch while holding it, so
        // this pins the epoch the plan is made against. The feedback
        // generation is re-read too, so the cached entry is tagged with
        // exactly the observations it was costed under.
        let key = (key.0, self.clocks.epoch());
        let (obs, feedback_gen) = self.observations();
        let superseded = lock(&self.plans).get(&key).map(|c| c.key);
        let (fresh, _report) = engine.plan_ucrpq_report(query, obs)?;
        let entry = CachedPlan::new(fresh.plan.clone(), feedback_gen);
        let planned = Planned { query: fresh, key: entry.key, epoch: key.1 };
        if let Some(old) = superseded.filter(|old| *old != planned.key) {
            views.supersede(old, planned.epoch);
        }
        lock(&self.plans).insert(key, entry);
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
    pub(crate) fn estimated_bytes(planned: &Planned, db: &Database) -> u64 {
        let Ok(card) = CostModel::new(&Stats::from_db(db)).card(&planned.query.plan) else {
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
    pub(crate) fn try_estimate(&self, planned: &Planned) -> u64 {
        self.engine.try_read().map_or(0, |engine| Self::estimated_bytes(planned, engine.db()))
    }

    /// Folds the fixpoint cardinalities a run measured back into the
    /// planner: the next plan-cache miss (for any query sharing a recursive
    /// subterm) re-costs from observed reality instead of static estimates.
    /// Skipped when a load moved the epoch between planning and the run —
    /// the totals were then measured against another catalog.
    pub(crate) fn observe(&self, planned: &Planned, out: &QueryOutput) {
        let Some(totals) = out.stats.fix_totals.as_ref().filter(|t| !t.is_empty()) else { return };
        if planned.epoch == self.clocks.epoch() {
            let measured = |fix: &Term| totals.get(&term_key(fix)).map(|r| r.len() as f64);
            lock(&self.feedback).record_plan(&planned.query.plan, &measured);
        }
    }

    /// A load replaced the data: everything the planner has measured is
    /// void. The generation stays, so a same-shape refresh keeps its cached
    /// plans until fresh observations arrive and bump it. `reshaped` also
    /// releases the plans — interned against the old catalog, unreachable
    /// under the new epoch — without counting them as evictions.
    pub(crate) fn reloaded(&self, reshaped: bool) {
        lock(&self.feedback).clear();
        if reshaped {
            lock(&self.plans).clear();
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
            .map(|((query, _), cached)| (query, cached.plan, cached.feedback_gen))
            .collect();
        // Stable bytes: equal server states must snapshot identically.
        plans.sort_by(|a, b| a.0.cmp(&b.0));
        (plans, lock(&self.feedback).export_state())
    }

    /// Installs what [`export`](Planning::export) persisted, at the
    /// current epoch.
    pub(crate) fn import(&self, plans: Vec<(String, Term, u64)>, feedback: FeedbackState) {
        *lock(&self.feedback) = FeedbackStore::import_state(feedback);
        let epoch = self.clocks.epoch();
        let mut cache = lock(&self.plans);
        for (query, plan, feedback_gen) in plans {
            cache.insert((query, epoch), CachedPlan::new(plan, feedback_gen));
        }
    }

    /// Fills in the gauges the planner keeps. One statement per lock:
    /// guard temporaries inside one expression would all live to its end —
    /// two on the same mutex self-deadlock, a cache lock held across the
    /// engine lock inverts the lock order.
    pub(crate) fn report(&self, stats: &mut ServeStats) {
        stats.plan_evictions = lock(&self.plans).evictions();
        stats.dictionary_symbols = self.read_engine().db().dict().len() as u64;
        let feedback = lock(&self.feedback);
        stats.feedback_fixpoints = feedback.len() as u64;
        stats.feedback_generation = feedback.generation();
    }

    /// Plans a query without executing it and renders the planner's
    /// decision procedure: enumeration breadth, per-group best costs, the
    /// chosen plan and whether costing ran from observed cardinalities or
    /// static statistics. Takes the engine write lock (UCRPQ translation
    /// interns symbols) but does not populate the plan cache — an explain
    /// is a diagnostic, not an admission.
    pub(crate) fn explain(&self, query: &str) -> ServeResult<String> {
        let (obs, generation) = self.observations();
        let mut engine = self.write_engine();
        let (planned, report) = engine.plan_ucrpq_explained(query, obs)?;
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
        let _ = writeln!(out, "planning     {}", fmt_us(planned.planning.as_micros() as u64));
        let _ = write!(out, "plan:\n{}", explain_plan(&planned.plan, engine.db()));
        Ok(out)
    }
}
