//! Views: the cached answers, the deltas they have missed, and the one rule
//! that says when one is served.
//!
//! Owns the result LRU and the delta log. What it hides: *an answer filed
//! under `(plan key, epoch)` is served only while the database is at the
//! version the answer is exact at — and a read that finds it behind brings
//! it forward itself.* A mutation appends its normalized batch to the log
//! and touches no view; [`Views::answer`], called by the read that wants
//! the view, coalesces the batches the entry missed into one net batch and
//! either revalidates the entry untouched, re-executes it from its resume
//! state, or drops it (counted as a fallback) and executes fresh.
//! Snapshots export and import the entries that are current; a reshaped
//! catalog releases everything.

use crate::cache::LruCache;
use crate::error::ServeResult;
use crate::lock;
use crate::planning::Planned;
use crate::server::Clocks;
use crate::telemetry::Telemetry;
use mura_core::fxhash::FxHashMap;
use mura_core::{rel_bytes, term_key, Database, MemCharge};
use mura_dist::{CommSnapshot, ExecStats, FixResume, QueryOutput};
use mura_durable::ViewSnapshot;
use mura_ivm::{plan_maintenance, DeltaBatch, FallbackReason, IvmOutcome};
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A query's answer as a read hands it back and the result cache files it:
/// the output of the run that produced it and, once a protocol read asked
/// for it, that read's rendered reply. The reply is exact for as long as
/// the output is — a maintained or fresh run is a new `Answer` — so every
/// later read writes it as it stands. Derefs to the [`QueryOutput`];
/// in-process callers never render.
#[derive(Debug)]
pub struct Answer {
    output: QueryOutput,
    reply: OnceLock<Arc<str>>,
}

impl Answer {
    pub(crate) fn new(output: QueryOutput) -> Answer {
        Answer { output, reply: OnceLock::new() }
    }

    /// The protocol reply: `render`ed by the first call, shared by every
    /// later one.
    pub(crate) fn reply(&self, render: impl FnOnce(&QueryOutput) -> String) -> Arc<str> {
        Arc::clone(self.reply.get_or_init(|| render(&self.output).into()))
    }
}

impl Deref for Answer {
    type Target = QueryOutput;

    fn deref(&self) -> &QueryOutput {
        &self.output
    }
}

/// One result-cache slot: the answer (with its captured fixpoint totals
/// inside `stats.fix_totals`, and its reply once rendered) and the
/// database version it is exact at. Entries that are behind stay in place
/// — the next read of the plan brings them forward or overwrites them.
#[derive(Clone)]
struct CachedResult {
    version: u64,
    answer: Arc<Answer>,
}

/// Rows the log holds at most. Past it the oldest batches go, and the
/// views that needed them are recomputed by their next read.
const LOG_ROWS: usize = 1 << 16;

/// The normalized batches of the latest versions, oldest first. Versions
/// are consecutive and end at the current one: a delta appends, and every
/// other way the version moves (a load, a restored snapshot) empties the
/// log, so a front at or below `v + 1` bridges a view at `v` to now.
#[derive(Default)]
struct DeltaLog {
    batches: VecDeque<(u64, Arc<DeltaBatch>)>,
    rows: usize,
    /// The batches' bytes, on the process memory gauge.
    charge: MemCharge,
}

impl DeltaLog {
    /// The batches a view exact at `version` has missed, if the log still
    /// reaches back that far.
    fn since(&self, version: u64) -> Option<Vec<Arc<DeltaBatch>>> {
        let (front, _) = self.batches.front()?;
        let missed = self.batches.iter().filter(|(v, _)| *v > version);
        (*front <= version + 1).then(|| missed.map(|(_, b)| Arc::clone(b)).collect())
    }

    /// Drops the batches before `needed`, and as many more as the row cap
    /// asks for.
    fn trim(&mut self, needed: u64) {
        while let Some((version, batch)) = self.batches.front() {
            if *version >= needed && self.rows <= LOG_ROWS {
                break;
            }
            self.rows -= batch.len();
            self.charge.set(self.charge.held() - batch.bytes());
            self.batches.pop_front();
        }
    }
}

struct State {
    results: LruCache<(u64, u64), CachedResult>,
    log: DeltaLog,
}

/// The per-fixpoint resume state a maintained view re-executes from.
pub(crate) type Resume = Arc<FxHashMap<u64, FixResume>>;

/// How a view that is behind gets to the current version.
enum Forward {
    /// Nothing it computes from moved: exact as it stands.
    Unaffected,
    /// Re-execute from this state; DRed over-deleted that many rows.
    Resume(Resume, u64),
}

pub(crate) struct Views {
    state: Mutex<State>,
    clocks: Arc<Clocks>,
    telemetry: Arc<Telemetry>,
}

impl Views {
    pub(crate) fn new(capacity: usize, clocks: Arc<Clocks>, telemetry: Arc<Telemetry>) -> Views {
        let state = State { results: LruCache::new(capacity), log: DeltaLog::default() };
        Views { state: Mutex::new(state), clocks, telemetry }
    }

    /// The answer filed for this plan, if it is exact at the current
    /// version (counted as a hit). Anything else is [`answer`]'s to decide,
    /// once the caller holds the engine lock.
    ///
    /// [`answer`]: Views::answer
    pub(crate) fn lookup(&self, planned: &Planned) -> Option<Arc<Answer>> {
        let version = self.clocks.version();
        let cached = lock(&self.state).results.get(&(planned.key, planned.epoch));
        let hit = cached.filter(|c| c.version == version)?;
        self.telemetry.counters.result_hits.inc();
        Some(hit.answer)
    }

    /// The answer for a plan [`lookup`] had no current entry for. The
    /// caller holds the engine read lock — both clocks are frozen and `db`
    /// is the database at that version — and `run` executes the plan under
    /// the caller's token, deadline and limits, fresh or from resume state.
    /// Every call is exactly one of: a *hit* (another read brought the
    /// entry forward in between); *caught up* — the entry was behind and
    /// the log bridges it: unaffected and refiled as it stands, reply and
    /// all, or maintained by a resumed run into a new answer — which is
    /// also a result hit, the view answered; or a *miss*, executed fresh —
    /// with a fallback counted if an entry had to be dropped for it: no
    /// bridge (a load in between, a trimmed log), a reason of the
    /// maintenance planner, a frontier costlier than a recompute, or a
    /// resumed run that failed, whose error is the answer.
    ///
    /// [`lookup`]: Views::lookup
    pub(crate) fn answer(
        &self,
        planned: &Planned,
        db: &Database,
        run: impl FnOnce(Option<Resume>) -> ServeResult<QueryOutput>,
    ) -> ServeResult<Arc<Answer>> {
        let counters = &self.telemetry.counters;
        let (key, version) = ((planned.key, planned.epoch), self.clocks.version());
        let start = Instant::now();
        let behind = {
            let mut state = lock(&self.state);
            state.results.get(&key).map(|cached| (state.log.since(cached.version), cached))
        };
        // `overdeleted` is set while a catch-up is under way.
        let (mut resume, mut overdeleted) = (None, None);
        if let Some((missed, CachedResult { version: exact_at, answer })) = behind {
            if exact_at == version {
                counters.result_hits.inc();
                return Ok(answer);
            }
            match missed.ok_or(None).and_then(|missed| bring_forward(&answer, db, &missed)) {
                Ok(Forward::Unaffected) => {
                    self.file(key, version, &answer);
                    counters.ivm_unaffected.inc();
                    counters.result_hits.inc();
                    self.telemetry.maintenance.record(start.elapsed());
                    return Ok(answer);
                }
                Ok(Forward::Resume(state, rows)) => {
                    (resume, overdeleted) = (Some(state), Some(rows))
                }
                Err(reason) => self.drop_view(key, reason),
            }
        }
        let out = run(resume);
        match (&out, overdeleted) {
            (Ok(_), Some(rows)) => {
                counters.ivm_maintained.inc();
                counters.ivm_rederived_rows.add(rows);
                counters.result_hits.inc();
                self.telemetry.maintenance.record(start.elapsed());
            }
            (Err(_), Some(_)) => {
                self.drop_view(key, None);
                counters.result_misses.inc();
            }
            (_, None) => counters.result_misses.inc(),
        }
        let out = Arc::new(Answer::new(out?));
        // A load may have slipped in between planning and the engine lock:
        // the answer is then correct to return but not safe to file under
        // the plan's old epoch.
        if planned.epoch == self.clocks.epoch() {
            self.file(key, version, &out);
        }
        Ok(out)
    }

    fn file(&self, key: (u64, u64), version: u64, answer: &Arc<Answer>) {
        let entry = CachedResult { version, answer: Arc::clone(answer) };
        lock(&self.state).results.insert(key, entry);
    }

    /// A view leaves the cache unmaintained; `None` is everything that is
    /// not a reason of the maintenance planner.
    fn drop_view(&self, key: (u64, u64), reason: Option<FallbackReason>) {
        lock(&self.state).results.remove(&key);
        self.telemetry.counters.fallback(reason).inc();
    }

    /// A replan landed on a different plan: the entry under the old plan's
    /// key is orphaned, yet it would keep the log from being trimmed. Drop
    /// it now.
    pub(crate) fn supersede(&self, key: u64, epoch: u64) {
        lock(&self.state).results.remove(&(key, epoch));
    }

    /// A delta moved the database to `version`: log it for the views to
    /// catch up over, and let go of what no cached view can use any more —
    /// batches older than the oldest view the log still bridges, all of
    /// them when there is none. Called under the engine write lock, right
    /// after the version moved.
    pub(crate) fn append(&self, version: u64, batch: DeltaBatch) {
        let mut state = lock(&self.state);
        let State { results, log } = &mut *state;
        log.rows += batch.len();
        log.charge.set(log.charge.held() + batch.bytes());
        log.batches.push_back((version, Arc::new(batch)));
        let front = log.batches[0].0;
        let bridged = results.values().map(|c| c.version + 1).filter(|next| *next >= front);
        log.trim(bridged.min().unwrap_or(u64::MAX));
    }

    /// The database was replaced wholesale: no delta leads from an older
    /// answer to it. Entries stay until their next read finds the bridge
    /// gone — unless the catalog was `reshaped`, after which nothing filed
    /// under the previous epoch can be reached again. Releasing is not
    /// evicting — evictions measure capacity pressure.
    pub(crate) fn reloaded(&self, reshaped: bool) {
        let mut state = lock(&self.state);
        state.log = DeltaLog::default();
        if reshaped {
            state.results.clear();
        }
    }

    pub(crate) fn evictions(&self) -> u64 {
        lock(&self.state).results.evictions()
    }

    /// The entries exact at the current version, in the form a snapshot
    /// persists. A view that is behind is not written: recovery starts it
    /// cold.
    pub(crate) fn export(&self) -> Vec<ViewSnapshot> {
        let version = self.clocks.version();
        let mut current = lock(&self.state).results.entries();
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
                plan: cached.answer.plan.clone(),
                relation: cached.answer.relation.clone(),
                fix_totals: totals(&cached.answer),
            })
            .collect()
    }

    /// Files restored views at the current clocks, with zeroed timings —
    /// they answer queries and maintain incrementally, but carry no
    /// execution telemetry from the previous process.
    pub(crate) fn import(&self, views: Vec<ViewSnapshot>) {
        let (version, epoch) = (self.clocks.version(), self.clocks.epoch());
        let mut state = lock(&self.state);
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
            let answer = Arc::new(Answer::new(output));
            state.results.insert(key, CachedResult { version, answer });
        }
    }
}

/// How `old` gets from the version it is exact at to `db`'s, over the
/// batches it `missed` — or why it has to be recomputed (`None`: a
/// planner error). The values the changed relations had before are
/// rebuilt inside [`plan_maintenance`] and gone when it returns.
fn bring_forward(
    old: &QueryOutput,
    db: &Database,
    missed: &[Arc<DeltaBatch>],
) -> Result<Forward, Option<FallbackReason>> {
    let empty = FxHashMap::default();
    let totals = old.stats.fix_totals.as_ref().unwrap_or(&empty);
    let net = DeltaBatch::coalesce(missed.iter().map(Arc::as_ref));
    match plan_maintenance(&old.plan, db, &net, totals) {
        Ok(IvmOutcome::Unaffected) => Ok(Forward::Unaffected),
        Ok(IvmOutcome::Maintain(m)) => {
            // Cost gate: maintenance wins when the churn it must push
            // through the loop is smaller than the state a recompute would
            // rebuild, byte-priced at equal arity.
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
            Ok(Forward::Resume(Arc::new(state), m.overdeleted_rows))
        }
        Ok(IvmOutcome::Fallback(reason)) => Err(Some(reason)),
        Err(_) => Err(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeConfig, Server};
    use mura_core::{Relation, Value};
    use mura_dist::QueryEngine;

    const TC: &str = "?x, ?y <- ?x edge+ ?y";

    fn insert(server: &Server, edges: impl IntoIterator<Item = (u64, u64)>) {
        let batch = server.with_db(|db| {
            let mut batch = DeltaBatch::new();
            let rel = db.dict().lookup("edge").unwrap();
            for (a, b) in edges {
                batch.push_insert(db, rel, [Value::node(a), Value::node(b)].into()).unwrap();
            }
            batch
        });
        server.apply_delta(batch).unwrap();
    }

    /// The versions the log holds, its rows, and that its bytes are on the
    /// memory gauge.
    fn logged(server: &Server) -> (Vec<u64>, usize) {
        let state = lock(&server.inner.views.state);
        let log = &state.log;
        assert_eq!(log.charge.held(), log.batches.iter().map(|(_, b)| b.bytes()).sum::<u64>());
        (log.batches.iter().map(|(v, _)| *v).collect(), log.rows)
    }

    /// The log holds what some cached view can still be brought forward
    /// over, and nothing else: it is trimmed as the oldest such view moves
    /// up, emptied by a load, and capped in rows.
    #[test]
    fn the_log_holds_what_a_cached_view_can_still_use() {
        let mut db = Database::new();
        let (src, dst) = (db.intern("src"), db.intern("dst"));
        db.insert_relation("edge", Relation::from_pairs(src, dst, [(0, 1), (1, 2)]));
        let server = Server::start(QueryEngine::new(db), ServeConfig::default());
        insert(&server, [(2, 3)]);
        assert_eq!(logged(&server), (vec![], 0), "no view to bring forward");

        server.query(TC).unwrap();
        for n in 3..6 {
            insert(&server, [(n, n + 1)]);
        }
        assert_eq!(logged(&server), (vec![2, 3, 4], 3), "what the view at version 1 missed");
        assert_eq!(server.query(TC).unwrap().relation.len(), 6 * 7 / 2);
        insert(&server, [(6, 7), (7, 8)]);
        assert_eq!(logged(&server), (vec![5], 2), "the view is at version 4 now");

        server.load(|_| {});
        assert_eq!(logged(&server), (vec![], 0), "no delta leads across a load");
        assert_eq!(server.query(TC).unwrap().relation.len(), 8 * 9 / 2);
        assert_eq!(server.stats().ivm_fallback_other, 1, "dropped, executed fresh");

        // One batch too many rows for the log: the view cannot follow.
        let sink = 1_000_000;
        insert(&server, (0..=LOG_ROWS as u64).map(|n| (sink + 1 + n, sink)));
        assert_eq!(logged(&server), (vec![], 0));
        assert_eq!(server.query(TC).unwrap().relation.len(), 8 * 9 / 2 + LOG_ROWS + 1);
        assert_eq!(server.stats().ivm_fallback_other, 2);
        server.shutdown();
    }
}
