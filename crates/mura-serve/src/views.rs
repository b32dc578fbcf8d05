//! Views: the cached answers and the one rule that says when one is served.
//!
//! Owns the result LRU. What it hides: *an answer filed under
//! `(plan key, epoch)` is served only while the database is at the version
//! the answer is exact at.* Queries look up and store through a
//! [`Planned`]; a mutation hands over its batch and gets every stale entry
//! either brought forward (maintained, or revalidated untouched) or dropped
//! and counted as a fallback; snapshots export and import the current
//! entries; a reshaped catalog releases them all.

use crate::cache::LruCache;
use crate::error::ServeResult;
use crate::lock;
use crate::planning::Planned;
use crate::server::{Clocks, DeltaSummary};
use crate::telemetry::Telemetry;
use mura_core::fxhash::FxHashMap;
use mura_core::{rel_bytes, term_key, Database, Relation, Sym};
use mura_dist::{CommSnapshot, ExecStats, FixResume, PlannedQuery, QueryOutput};
use mura_durable::{crash_point, ViewSnapshot};
use mura_ivm::{plan_maintenance, DeltaBatch, FallbackReason, IvmOutcome};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One result-cache slot: the answer (with its captured fixpoint totals
/// inside `output.stats.fix_totals`) and the database version it is exact
/// at. Stale entries stay in place — maintenance or the next fresh run
/// overwrites them.
#[derive(Clone)]
struct CachedResult {
    version: u64,
    output: Arc<QueryOutput>,
}

/// The entries a mutation found in the cache, taken while it still held
/// the engine write lock (see [`Views::stale`]).
pub(crate) struct Stale(Vec<((u64, u64), CachedResult)>);

/// An applied batch as maintenance needs it: the database *after* the
/// batch, the pre-batch values of the relations it changed, and the batch.
#[derive(Clone, Copy)]
pub(crate) struct Applied<'a> {
    pub(crate) db: &'a Database,
    pub(crate) old_rels: &'a FxHashMap<Sym, Relation>,
    pub(crate) batch: &'a DeltaBatch,
}

/// The per-fixpoint resume state a maintained view re-executes from.
pub(crate) type Resume = Arc<FxHashMap<u64, FixResume>>;

pub(crate) struct Views {
    results: Mutex<LruCache<(u64, u64), CachedResult>>,
    clocks: Arc<Clocks>,
    telemetry: Arc<Telemetry>,
}

impl Views {
    pub(crate) fn new(capacity: usize, clocks: Arc<Clocks>, telemetry: Arc<Telemetry>) -> Views {
        Views { results: Mutex::new(LruCache::new(capacity)), clocks, telemetry }
    }

    /// The answer filed for this plan, if it is exact at the current
    /// version; counts the hit or the miss.
    pub(crate) fn lookup(&self, planned: &Planned) -> Option<Arc<QueryOutput>> {
        let version = self.clocks.version();
        let hit = lock(&self.results)
            .get(&(planned.key, planned.epoch))
            .filter(|c| c.version == version)
            .map(|c| c.output);
        let counters = &self.telemetry.counters;
        match hit {
            Some(_) => counters.result_hits.inc(),
            None => counters.result_misses.inc(),
        }
        hit
    }

    /// Files a fresh answer. The caller still holds the engine read lock
    /// the run held: both clocks only move under the write lock, so the
    /// version read here is the one the run computed against. A load may
    /// have slipped in between planning and that lock — the answer is then
    /// correct to return but not safe to file under the plan's old epoch.
    pub(crate) fn store(&self, planned: &Planned, output: &Arc<QueryOutput>) {
        if planned.epoch == self.clocks.epoch() {
            let entry = CachedResult { version: self.clocks.version(), output: Arc::clone(output) };
            lock(&self.results).insert((planned.key, planned.epoch), entry);
        }
    }

    /// A replan landed on a different plan: the entry under the old plan's
    /// key is orphaned, yet maintenance would keep paying to bring it
    /// forward on every delta. Drop it now.
    pub(crate) fn supersede(&self, key: u64, epoch: u64) {
        lock(&self.results).remove(&(key, epoch));
    }

    /// Releases every entry: the catalog changed shape, so nothing filed
    /// under the previous epoch can be reached again. Not evictions —
    /// those measure capacity pressure.
    pub(crate) fn retire(&self) {
        lock(&self.results).clear();
    }

    pub(crate) fn evictions(&self) -> u64 {
        lock(&self.results).evictions()
    }

    /// What a mutation must bring forward. Called right after the version
    /// moved and *before* the engine write lock is released: answers are
    /// stored under the read lock, so nothing can slip in between the
    /// version bump and this list.
    pub(crate) fn stale(&self) -> Stale {
        Stale(lock(&self.results).entries())
    }

    /// Brings every stale entry to the current version, under the engine
    /// *read* lock: queries keep flowing and simply miss until their view
    /// is brought forward. Per entry: untouched views are revalidated,
    /// maintainable ones re-executed from their resume state through
    /// `resume`, and everything else — non-monotone change, nested
    /// fixpoints, cold totals, a frontier costlier than a recompute, an
    /// error, a gap of more than one version, a server no longer `open` —
    /// is dropped for recompute-on-next-use and counted as a fallback.
    pub(crate) fn maintain(
        &self,
        stale: Stale,
        applied: Applied<'_>,
        open: impl Fn() -> bool,
        resume: impl Fn(&Planned, Resume) -> ServeResult<QueryOutput>,
        summary: &mut DeltaSummary,
    ) {
        let (version, epoch) = (self.clocks.version(), self.clocks.epoch());
        let counters = &self.telemetry.counters;
        for (key, cached) in stale.0 {
            // Chaos hook: a crash here leaves the batch durably logged and
            // applied but the view maintenance half-done. Recovery replays
            // the batch from the WAL over the last snapshot, which re-runs
            // maintenance from a consistent pre-batch state.
            crash_point("maintain_mid");
            if key.1 != epoch || cached.version >= version {
                continue; // already current
            }
            let start = Instant::now();
            let brought_forward = if cached.version + 1 != version || !open() {
                // More than one version behind: this batch's pre-state is
                // not the entry's post-state, so the bridge is gone. Or a
                // drain arrived mid-maintenance: stop doing optional work,
                // still return a full response.
                Err(None)
            } else {
                self.bring_forward(key, &cached.output, &applied, &resume, summary)
            };
            match brought_forward {
                Ok(output) => {
                    lock(&self.results).insert(key, CachedResult { version, output });
                    self.telemetry.maintenance.record(start.elapsed());
                }
                Err(reason) => {
                    lock(&self.results).remove(&key);
                    counters.fallback(reason).inc();
                    summary.recomputed += 1;
                }
            }
        }
    }

    /// The answer of one view at the new version, or why it has to be
    /// recomputed (`None`: planner/executor error).
    fn bring_forward(
        &self,
        key: (u64, u64),
        old: &Arc<QueryOutput>,
        applied: &Applied<'_>,
        resume: &impl Fn(&Planned, Resume) -> ServeResult<QueryOutput>,
        summary: &mut DeltaSummary,
    ) -> Result<Arc<QueryOutput>, Option<FallbackReason>> {
        let counters = &self.telemetry.counters;
        let empty = FxHashMap::default();
        let totals = old.stats.fix_totals.as_ref().unwrap_or(&empty);
        let Applied { db, old_rels, batch } = *applied;
        match plan_maintenance(&old.plan, db, old_rels, batch, totals) {
            Ok(IvmOutcome::Unaffected) => {
                counters.ivm_unaffected.inc();
                summary.unaffected += 1;
                Ok(Arc::clone(old))
            }
            Ok(IvmOutcome::Maintain(m)) => {
                // Cost gate: maintenance wins when the churn it must
                // push through the loop is smaller than the state a
                // recompute would rebuild, byte-priced at equal arity.
                let total_rows: u64 = totals.values().map(|r| r.len() as u64).sum();
                let churn = m.frontier_rows + m.overdeleted_rows;
                if rel_bytes(churn, 2) > rel_bytes(total_rows.max(1), 2) {
                    return Err(Some(FallbackReason::Cost));
                }
                let state: FxHashMap<u64, FixResume> = m
                    .resume
                    .into_iter()
                    .map(|(k, p)| (k, FixResume { acc: p.acc, delta: p.delta }))
                    .collect();
                let query = PlannedQuery { plan: old.plan.clone(), planning: Duration::ZERO };
                let planned = Planned { query, key: key.0, epoch: key.1 };
                let out = resume(&planned, Arc::new(state)).map_err(|_| None)?;
                counters.ivm_maintained.inc();
                counters.ivm_rederived_rows.add(m.overdeleted_rows);
                summary.maintained += 1;
                summary.rederived += m.overdeleted_rows;
                Ok(Arc::new(out))
            }
            Ok(IvmOutcome::Fallback(reason)) => Err(Some(reason)),
            Err(_) => Err(None),
        }
    }

    /// The entries exact at the current version, in the form a snapshot
    /// persists: stale ones would be dropped by maintenance anyway.
    pub(crate) fn export(&self) -> Vec<ViewSnapshot> {
        let version = self.clocks.version();
        let mut current = lock(&self.results).entries();
        current.retain(|(_, cached)| cached.version == version);
        // Stable bytes: equal server states must snapshot identically. The
        // entries are all of one epoch, so this is the order of plan keys.
        current.sort_unstable_by_key(|(key, _)| *key);
        let totals = |out: &QueryOutput| match &out.stats.fix_totals {
            Some(totals) => totals.iter().map(|(k, r)| (*k, r.clone())).collect(),
            None => Vec::new(),
        };
        current
            .into_iter()
            .map(|(_, cached)| ViewSnapshot {
                plan: cached.output.plan.clone(),
                relation: cached.output.relation.clone(),
                fix_totals: totals(&cached.output),
            })
            .collect()
    }

    /// Files restored views at the current clocks, with zeroed timings —
    /// they answer queries and maintain incrementally, but carry no
    /// execution telemetry from the previous process.
    pub(crate) fn import(&self, views: Vec<ViewSnapshot>) {
        let (version, epoch) = (self.clocks.version(), self.clocks.epoch());
        let mut results = lock(&self.results);
        for view in views {
            let stats = ExecStats {
                fix_totals: Some(view.fix_totals.into_iter().collect()),
                ..Default::default()
            };
            let output = QueryOutput {
                relation: view.relation,
                planning: Duration::ZERO,
                execution: Duration::ZERO,
                stats,
                comm: CommSnapshot::default(),
                plan: view.plan,
            };
            let key = (term_key(&output.plan), epoch);
            results.insert(key, CachedResult { version, output: Arc::new(output) });
        }
    }
}
