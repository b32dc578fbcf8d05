//! The server: five owners of state, and the two paths that cross them.
//!
//! ```text
//!  Client ─gate─▶ bounded queue ─▶ worker ─▶ plan ─▶ lookup ─▶ gate ─▶ catch up | execute ─▶ file
//!     │     └─ full → ServeError::Busy       (CancellationToken checked every superstep)
//!     └─ apply_delta / load ─▶ log ─▶ apply ─▶ version + 1 ─▶ delta log ─▶ snapshot when due
//! ```
//!
//! Each piece of shared state has one owner, which keeps its locks private
//! and hides one policy (see each module's header): `admission` — who gets
//! in; `planning` — the engine and when a plan is reusable; `views` — when
//! a cached answer is served, and how the read that wants it brings it
//! forward over the deltas it missed; `durability` — log before memory,
//! snapshot when due; `telemetry` — counters, histograms and their
//! renderings. What is left here is the configuration, the read path
//! (`ServerInner::process`) and the mutation path
//! (`ServerInner::apply_batch`, `ServerInner::load_with`, recovery); the
//! public handles are in `client`.
//!
//! **Lock order.** The mutation lock, then the engine lock (read or
//! write), then at most one of the owners' locks at a time — plan cache,
//! feedback store, result cache, breakers, in-flight tokens, WAL — none of
//! which is ever held while taking another or while taking the first two.

use crate::admission::{Admission, QueryJob, Queue};
use crate::durability::{self, Durability};
use crate::error::{ServeError, ServeResult};
use crate::lock;
use crate::planning::Planning;
use crate::telemetry::Telemetry;
use crate::views::{Resume, Views};
use mura_core::Database;
use mura_dist::exec::ResourceLimits;
use mura_dist::{
    CommBackend, ProcCluster, ProcClusterConfig, QueryEngine, QueryOutput, TraceLevel,
};
use mura_durable::{SnapshotState, SyncPolicy, Wal, WalError, WalRecord};
use mura_ivm::DeltaBatch;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLockWriteGuard};
use std::time::Duration;

/// Where query executions exchange partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterMode {
    /// The in-process cluster simulator (threads in this process,
    /// simulated communication accounting). The default.
    #[default]
    InProcess,
    /// A real [`ProcCluster`]: `workers` separate OS worker processes
    /// exchanging partitions over TCP, supervised with heartbeats and
    /// respawned on death. Wire bytes show up in the `mura_wire_bytes_total`
    /// metrics and the cluster gauges. The process cluster's worker count
    /// overrides the engine's `ExecConfig::workers` for every execution.
    Processes { workers: usize },
}

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Executor pool size: how many queries run concurrently.
    pub workers: usize,
    /// Admission queue bound: how many admitted queries may wait for a
    /// worker. Beyond this, submissions fail fast with [`ServeError::Busy`].
    pub queue_depth: usize,
    /// Result cache capacity in entries (0 disables result caching).
    pub result_cache: usize,
    /// Plan cache capacity in entries (0 disables plan caching).
    pub plan_cache: usize,
    /// Deadline applied to queries submitted without an explicit one.
    pub default_deadline: Option<Duration>,
    /// Per-query resource limits enforced during execution.
    pub limits: ResourceLimits,
    /// Process-wide memory watermark for admission. A submission is shed
    /// with [`ServeError::Overloaded`] when the live gauge
    /// ([`mura_core::mem_gauge`]) plus this query's cost-model byte
    /// estimate (available once its plan is cached) would exceed it.
    /// `None` disables the gate.
    pub memory_watermark_bytes: Option<u64>,
    /// Retry hint returned on [`ServeError::Busy`] and memory sheds.
    pub retry_after: Duration,
    /// Consecutive breaker-class failures (`MemoryExceeded`,
    /// `WorkerFailed`) on one canonical plan before its circuit breaker
    /// opens. 0 disables the breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before letting one probe through
    /// (half-open).
    pub breaker_cooldown: Duration,
    /// Grace window for [`Server::drain`](crate::Server::drain): in-flight
    /// and queued queries that outlive it are cancelled (their replies
    /// still delivered).
    pub drain_grace: Duration,
    /// Communication substrate for executions (see [`ClusterMode`]).
    pub cluster: ClusterMode,
    /// Explicit `mura-worker` binary path for [`ClusterMode::Processes`].
    /// `None` resolves via the `MURA_WORKER_BIN` environment variable,
    /// then a sibling of the current executable.
    pub worker_bin: Option<PathBuf>,
    /// Durable-state directory. `Some(dir)` turns on the write-ahead log
    /// and snapshots: every mutation is logged (and fsync'd, per
    /// [`ServeConfig::wal_sync`]) before it is applied, and startup
    /// recovers the newest valid snapshot plus the WAL tail (see
    /// [`Server::recover`](crate::Server::recover)). `None` (the default)
    /// serves purely in memory.
    pub data_dir: Option<PathBuf>,
    /// Snapshot cadence when durability is on: after this many WAL
    /// appends since the last snapshot, the next mutation also writes a
    /// fresh snapshot and resets the WAL. 0 disables periodic snapshots
    /// (the bootstrap snapshot is still written).
    pub snapshot_every: u64,
    /// When WAL appends fsync (see [`SyncPolicy`]). `Always` is the
    /// durable default; `Never` is for benchmarks isolating logging
    /// overhead from fsync latency.
    pub wal_sync: SyncPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_depth: 8,
            result_cache: 128,
            plan_cache: 128,
            default_deadline: None,
            limits: ResourceLimits::default(),
            memory_watermark_bytes: None,
            retry_after: Duration::from_millis(100),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
            drain_grace: Duration::from_secs(5),
            cluster: ClusterMode::InProcess,
            worker_bin: None,
            data_dir: None,
            snapshot_every: 64,
            wal_sync: SyncPolicy::Always,
        }
    }
}

/// What one [`Client::apply_delta`](crate::Client::apply_delta) call did:
/// the new database version and the base-row churn. No view was touched —
/// what becomes of each is counted by the read that next wants it
/// ([`ServeStats`](crate::ServeStats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    /// Database version after the batch (unchanged for a no-op batch).
    pub version: u64,
    /// Base rows actually inserted / deleted (no-op rows normalized away).
    pub inserted: u64,
    pub deleted: u64,
}

/// The two clocks the cache rules read. The **epoch** moves when a load
/// changes the catalog's *shape* (relations, columns, constants): plans
/// interned against the old catalog are then unreachable. The **version**
/// moves on every mutation, delta and load alike: a cached answer is exact
/// at one version. Only the mutation path moves them, and only while it
/// holds the engine write lock — so whoever holds the read lock sees a
/// frozen pair, consistent with the data.
#[derive(Default)]
pub(crate) struct Clocks {
    epoch: AtomicU64,
    version: AtomicU64,
}

impl Clocks {
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    fn set(&self, version: u64, epoch: u64) {
        self.version.store(version, Ordering::Release);
        self.epoch.store(epoch, Ordering::Release);
    }
}

pub(crate) struct ServerInner {
    pub(crate) admission: Admission,
    pub(crate) planning: Planning,
    pub(crate) views: Views,
    pub(crate) durability: Durability,
    pub(crate) telemetry: Arc<Telemetry>,
    pub(crate) clocks: Arc<Clocks>,
    /// Serializes mutations: a delta's normalize → log → apply sequence
    /// is one version transition, and a snapshot describes the state
    /// between two of them.
    mutation: Mutex<()>,
    /// The process cluster backing every execution under
    /// [`ClusterMode::Processes`]: one supervised worker fleet shared by
    /// all concurrent queries (exchange buffers are isolated per exchange
    /// id on the wire). `None` under [`ClusterMode::InProcess`].
    pub(crate) proc: Option<Arc<ProcCluster>>,
    pub(crate) config: ServeConfig,
}

impl ServerInner {
    /// Builds the tier over an engine: spawns the worker fleet if one is
    /// configured, and with a [`ServeConfig::data_dir`] restores the newest
    /// valid snapshot and replays the WAL tail — before any worker thread
    /// exists to observe (or mutate) anything. Returns the queue the
    /// worker threads are to serve.
    pub(crate) fn start(
        engine: QueryEngine,
        config: ServeConfig,
    ) -> ServeResult<(Arc<ServerInner>, Arc<Queue>)> {
        let proc = match config.cluster {
            ClusterMode::InProcess => None,
            ClusterMode::Processes { workers } => {
                let proc_cfg = ProcClusterConfig {
                    workers: workers.max(1),
                    worker_bin: config.worker_bin.clone(),
                    ..ProcClusterConfig::default()
                };
                Some(ProcCluster::spawn_with(proc_cfg)?)
            }
        };
        let recovered = match &config.data_dir {
            Some(dir) => Some(durability::open(dir, config.wal_sync)?),
            None => None,
        };
        let telemetry = Arc::new(Telemetry::default());
        let clocks = Arc::new(Clocks::default());
        let (admission, queue) = Admission::new(config.clone(), Arc::clone(&telemetry));
        let inner = Arc::new(ServerInner {
            admission,
            planning: Planning::new(
                engine,
                config.plan_cache,
                Arc::clone(&clocks),
                Arc::clone(&telemetry),
            ),
            views: Views::new(config.result_cache, Arc::clone(&clocks), Arc::clone(&telemetry)),
            durability: Durability::new(config.snapshot_every, Arc::clone(&telemetry)),
            telemetry,
            clocks,
            mutation: Mutex::new(()),
            proc,
            config,
        });
        if let Some(mut recovered) = recovered {
            // Bound the next recovery: a fresh directory gets a bootstrap
            // snapshot at version 0, a replayed one folds its WAL tail in.
            let unbounded = recovered.snapshot.is_none() || !recovered.tail.is_empty();
            if let Some(snapshot) = recovered.snapshot.take() {
                inner.restore(snapshot);
            }
            inner.replay(std::mem::take(&mut recovered.tail))?;
            inner.durability.attach(recovered);
            if unbounded {
                inner.checkpoint(true, inner.planning.read_engine().db())?;
            }
        }
        Ok((inner, queue))
    }

    /// The read path: plan, serve the cached answer if it is current, else
    /// pass the gates and let `views` bring the answer forward or execute
    /// it fresh — either way under this job's token, deadline and limits.
    pub(crate) fn process(&self, job: &QueryJob) -> ServeResult<Arc<QueryOutput>> {
        // A query may have spent its whole deadline waiting in the queue.
        job.token.check()?;
        let planned = self.planning.plan(&job.query, &self.views)?;
        // Traced jobs bypass the result cache — see `QueryJob::trace`.
        let traced = job.trace > TraceLevel::Off;
        if !traced {
            if let Some(hit) = self.views.lookup(&planned) {
                return Ok(hit);
            }
        }
        // The authoritative gates, now that the canonical plan is known
        // (the submit-side peek only sees plan-cache hits). Cache hits
        // above skip them: replaying an answer costs nothing.
        let estimate =
            || Planning::estimated_bytes(&planned.query.plan, self.planning.read_engine().db());
        self.admission.gate(Some(planned.key), estimate, true)?;
        // Execute under the read lock: many executions run concurrently;
        // only planning and mutations serialize. The engine's `ExecConfig`
        // with the server's limits, this job's token, and the process
        // cluster if one is configured (the backend carries its own worker
        // count, which must override the engine's so partitioning matches
        // the fleet). Fixpoint totals are captured alongside the answer —
        // they are what lets a later read bring the cached entry forward
        // instead of discarding it — and folded into the planner's feedback.
        let engine = self.planning.read_engine();
        let run = |resume: Option<Resume>| {
            let mut config = engine.config().clone();
            config.limits = self.config.limits;
            config.cancel = Some(job.token.clone());
            config.trace = job.trace;
            config.query_id = job.id;
            config.capture_fixpoints = !traced;
            config.resume = resume;
            if let Some(proc) = &self.proc {
                if let Some(n) = proc.worker_count() {
                    config.workers = n;
                }
                config.backend = Some(Arc::clone(proc) as Arc<dyn CommBackend>);
            }
            let out = engine.execute_plan_with(&planned.query, config)?;
            self.planning.observe(&planned, &out);
            self.telemetry.record_run(&out);
            Ok(out)
        };
        let out = match traced {
            true => run(None).map(Arc::new),
            false => self.views.answer(&planned, engine.db(), run),
        };
        self.admission.settle(planned.key, &out);
        out
    }

    /// A client's delta: refused once the doors are closing, and priced
    /// through the memory gate — a mutation storm obeys the same resource
    /// ladder as queries (the batch's own rows here; the maintenance it
    /// causes is priced by the reads that run it). Replay does not come
    /// through here: recovery must converge to the pre-crash state whatever
    /// the memory gauge's warm-up transient reads.
    pub(crate) fn apply_delta(&self, batch: DeltaBatch) -> ServeResult<DeltaSummary> {
        self.admission.open()?;
        self.admission.gate(None, || batch.bytes(), false)?;
        self.apply_batch(batch)
    }

    /// Applies an edge-level delta batch as one atomic version transition,
    /// in one hold of the engine lock: normalize → log → apply to base
    /// relations → bump the version → hand the batch to the views' delta
    /// log → snapshot if due. No view is touched: a read that finds its
    /// view behind brings it forward over the logged batches.
    fn apply_batch(&self, mut batch: DeltaBatch) -> ServeResult<DeltaSummary> {
        let _mutation = lock(&self.mutation);
        let mut engine = self.planning.write_engine();
        batch.normalize(engine.db())?;
        let version = self.clocks.version();
        if batch.is_empty() {
            return Ok(DeltaSummary { version, ..Default::default() });
        }
        let version = version + 1;
        let (inserted, deleted) = self.durability.logged(
            |wal| wal.append_delta(version, &batch),
            || Ok(batch.apply(engine.db_mut())?),
        )?;
        self.clocks.set(version, self.clocks.epoch());
        let counters = &self.telemetry.counters;
        counters.deltas_applied.inc();
        counters.delta_rows_inserted.add(inserted);
        counters.delta_rows_deleted.add(deleted);
        self.views.append(version, batch);
        // Readers flow again while a snapshot is written.
        let engine = RwLockWriteGuard::downgrade(engine);
        self.checkpoint(false, engine.db())?;
        Ok(DeltaSummary { version, inserted, deleted })
    }

    /// A load: `f` replaces relations or binds constants. The mutator is an
    /// opaque closure, so it runs on a copy and the WAL records its
    /// *outcome* — the complete post-load database, stamped with the
    /// version and epoch it produces — before anything the server answers
    /// from has changed; a load whose record cannot be written leaves the
    /// server exactly as it was. `append` is [`Wal::append_load`] (a
    /// parameter so a test can make the write fail).
    pub(crate) fn load_with(
        &self,
        f: impl FnOnce(&mut Database),
        append: impl FnOnce(&mut Wal, u64, u64, &Database) -> Result<u64, WalError>,
    ) -> ServeResult<()> {
        let _mutation = lock(&self.mutation);
        let mut engine = self.planning.write_engine();
        let mut db = engine.db().clone();
        f(&mut db);
        let reshaped = !keeps_plans(engine.db(), &db);
        let version = self.clocks.version() + 1;
        let epoch = self.clocks.epoch() + u64::from(reshaped);
        // Installing cannot fail, so there is nothing for `logged` to undo.
        self.durability.logged(|wal| append(wal, version, epoch, &db), || Ok(()))?;
        self.install(&mut engine, db, version, epoch);
        self.checkpoint(false, engine.db())
    }

    /// Makes `db` the served database at `version` / `epoch` — the one way
    /// a whole database arrives, from a load, a replayed load record or a
    /// snapshot. Invalidation is scoped to what the new contents can have
    /// broken. The version alone puts every cached answer behind for good
    /// — no delta leads to the new contents, so the views' log starts over.
    /// A changed shape (a moved epoch) also releases the cached plans and
    /// views, unreachable now, and resets breaker verdicts: a breaker
    /// opened against the previous schema must not keep shedding a plan
    /// that may now succeed. A same-shape refresh keeps all three.
    fn install(&self, engine: &mut QueryEngine, db: Database, version: u64, epoch: u64) {
        *engine.db_mut() = db;
        let reshaped = epoch != self.clocks.epoch();
        self.clocks.set(version, epoch);
        if reshaped {
            self.admission.forget_verdicts();
        }
        self.views.reloaded(reshaped);
        self.planning.reloaded(reshaped);
    }

    /// Writes a snapshot — database, current views, plans, planner
    /// feedback — if one is due (or `force`d). `db` comes from an engine
    /// guard the caller holds, so the state is frozen.
    fn checkpoint(&self, force: bool, db: &Database) -> ServeResult<()> {
        self.durability.checkpoint(force, || {
            let (plans, feedback) = self.planning.export();
            SnapshotState {
                version: self.clocks.version(),
                epoch: self.clocks.epoch(),
                db: db.clone(),
                views: self.views.export(),
                feedback,
                plans,
            }
        })
    }

    /// Installs a restored snapshot as the server's live state.
    fn restore(&self, snapshot: SnapshotState) {
        let SnapshotState { version, epoch, db, views, feedback, plans } = snapshot;
        self.install(&mut self.planning.write_engine(), db, version, epoch);
        self.planning.import(plans, feedback);
        self.views.import(views);
    }

    /// Replays WAL records on top of the restored snapshot, through the
    /// paths that applied them the first time. Records at or below the
    /// restored version are skipped (covers a crash between the snapshot
    /// rename and the WAL reset).
    fn replay(&self, tail: Vec<WalRecord>) -> ServeResult<()> {
        let mut replayed = 0u64;
        for record in tail {
            if record.version() <= self.clocks.version() {
                continue;
            }
            match record {
                WalRecord::Delta { version, batch } => match self.apply_batch(batch) {
                    Ok(summary) if summary.version == version => {}
                    Ok(summary) => {
                        return Err(ServeError::Durability(format!(
                            "replay version drift: wal says {version}, apply produced {}",
                            summary.version
                        )))
                    }
                    // A batch the engine rejects now was rejected (and
                    // rolled back) before the crash too — skip it. Failed
                    // applies never bumped the version, so the stamps of
                    // later records still line up.
                    Err(ServeError::Engine(_)) => continue,
                    Err(e) => return Err(e),
                },
                WalRecord::Load { version, epoch, db } => {
                    let _mutation = lock(&self.mutation);
                    self.install(&mut self.planning.write_engine(), db, version, epoch);
                }
            }
            replayed += 1;
        }
        self.telemetry.counters.recovery_replayed_batches.add(replayed);
        Ok(())
    }
}

/// True when plans interned against `old` mean the same against `new`, so
/// a load from one to the other may keep plan caches, admission history and
/// breaker verdicts: every symbol a cached plan may hold still resolves to
/// the same name (a database built from scratch numbers its names anew),
/// and the catalog has the same *shape* — the same relations with the same
/// columns, the same constant bindings.
fn keeps_plans(old: &Database, new: &Database) -> bool {
    let shape = |db: &Database| {
        let mut relations: Vec<_> =
            db.relations().map(|(name, rel)| (name, rel.schema().columns().to_vec())).collect();
        relations.sort_unstable();
        let mut constants: Vec<_> = db.constants().collect();
        constants.sort_unstable();
        (relations, constants)
    };
    old.dict().len() <= new.dict().len()
        && old.dict().names().zip(new.dict().names()).all(|(a, b)| a == b)
        && shape(old) == shape(new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Server;
    use mura_core::{MuraError, Relation};

    /// A server whose breaker trips on the first breaker-class failure and
    /// cools down quickly, for driving the state machine directly.
    fn breaker_server() -> Server {
        Server::start(
            QueryEngine::new(Database::new()),
            ServeConfig {
                breaker_threshold: 1,
                breaker_cooldown: Duration::from_millis(20),
                ..Default::default()
            },
        )
    }

    fn mem_exceeded() -> ServeResult<()> {
        Err(ServeError::Engine(MuraError::MemoryExceeded { used: 2, limit: 1 }))
    }

    fn cancelled() -> ServeResult<()> {
        Err(ServeError::Engine(MuraError::Cancelled))
    }

    /// The worker-side gate of plan `key` (no memory estimate).
    fn probe(server: &Server, key: u64) -> ServeResult<()> {
        server.inner.admission.gate(Some(key), || 0, true)
    }

    /// Breakers `(open, half-open)`.
    const NONE: (u64, u64) = (0, 0);
    const OPEN: (u64, u64) = (1, 0);
    const HALF_OPEN: (u64, u64) = (0, 1);

    /// Regression: a half-open probe that resolves to a neutral outcome
    /// (cancelled / timeout / transient — neither success nor a
    /// breaker-class failure) must settle the breaker back to `Open` with
    /// a fresh cooldown. Before the fix it stayed `HalfOpen`, whose check
    /// arm rejects unconditionally, shedding the plan forever.
    #[test]
    fn neutral_probe_outcome_reopens_instead_of_stranding_half_open() {
        let server = breaker_server();
        let admission = &server.inner.admission;
        let key = 42;

        admission.settle(key, &mem_exceeded());
        assert_eq!(admission.breaker_gauges(), OPEN);
        assert!(probe(&server, key).is_err(), "open breaker rejects");

        std::thread::sleep(Duration::from_millis(40));
        assert!(probe(&server, key).is_ok(), "cooldown elapsed: probe admitted");
        assert_eq!(admission.breaker_gauges(), HALF_OPEN);

        // The probe is cancelled mid-flight: inconclusive, so the breaker
        // re-opens (cooldown restarted) instead of stranding half-open.
        admission.settle(key, &cancelled());
        assert_eq!(admission.breaker_gauges(), OPEN);
        assert!(probe(&server, key).is_err(), "cooldown restarted");

        std::thread::sleep(Duration::from_millis(40));
        assert!(probe(&server, key).is_ok(), "a later probe is admitted again");
        admission.settle(key, &Ok(()));
        assert_eq!(admission.breaker_gauges(), NONE, "successful probe closes the breaker");
        server.shutdown();
    }

    /// A neutral failure with no breaker history (closed state) stays
    /// invisible to the breaker: no entry is created, nothing trips.
    #[test]
    fn neutral_failure_without_history_leaves_no_breaker() {
        let server = breaker_server();
        server.inner.admission.settle(7, &cancelled());
        assert_eq!(server.inner.admission.breaker_gauges(), NONE);
        assert!(probe(&server, 7).is_ok());
        server.shutdown();
    }

    fn extra_relation(db: &mut Database, name: &str) {
        let (a, b) = (db.intern("src"), db.intern("dst"));
        db.insert_relation(name, Relation::from_pairs(a, b, [(1, 2)]));
    }

    /// A load that changes the catalog's shape clears old-epoch breakers —
    /// a plan convicted against the previous contents gets a clean slate.
    #[test]
    fn schema_changing_load_clears_breakers() {
        let server = breaker_server();
        server.inner.admission.settle(42, &mem_exceeded());
        assert_eq!(server.inner.admission.breaker_gauges(), OPEN);
        let before = server.version();
        server.load(|db| extra_relation(db, "extra"));
        assert_eq!(server.inner.admission.breaker_gauges(), NONE, "epoch bump resets breakers");
        assert_eq!(server.epoch(), 1);
        assert_eq!(server.version(), before + 1);
        server.shutdown();
    }

    /// A same-shape load (data refresh) keeps breaker verdicts and the
    /// epoch: only the data-dependent result cache is invalidated, via the
    /// version bump.
    #[test]
    fn same_schema_load_keeps_breakers_and_epoch() {
        let server = breaker_server();
        server.inner.admission.settle(42, &mem_exceeded());
        assert_eq!(server.inner.admission.breaker_gauges(), OPEN);
        let before = server.version();
        server.load(|_| {});
        assert_eq!(
            server.inner.admission.breaker_gauges(),
            OPEN,
            "same-shape load keeps breaker history"
        );
        assert_eq!(server.epoch(), 0, "epoch only moves when the shape changes");
        assert_eq!(server.version(), before + 1, "every load is still a new version");
        server.shutdown();
    }

    const TC: &str = "?x, ?y <- ?x edge+ ?y";

    fn path_db() -> Database {
        let mut db = Database::new();
        let (a, b) = (db.intern("src"), db.intern("dst"));
        db.insert_relation("edge", Relation::from_pairs(a, b, [(0, 1), (1, 2), (2, 3)]));
        db
    }

    /// After a shape-changing load nothing filed under the previous epoch
    /// can be reached, so both caches release it at once instead of
    /// pinning a full answer (and its fixpoint totals) until capacity
    /// pushes it out — and releasing is not evicting.
    #[test]
    fn shape_changing_load_releases_old_epoch_entries() {
        let server = Server::start(QueryEngine::new(path_db()), ServeConfig::default());
        let answer = server.query(TC).unwrap();
        assert!(Arc::strong_count(&answer) > 1, "the result cache holds the answer too");
        server.load(|_| {});
        assert!(Arc::strong_count(&answer) > 1, "a same-shape load keeps (stale) entries");
        assert!(server.inner.planning.peek(TC).is_some(), "and keeps plans");

        // Same names, but a database built from scratch: its dictionary
        // numbers them anew, so plans holding the old symbols must go.
        server.load(|db| *db = path_db());
        assert_eq!(server.epoch(), 1, "a fresh dictionary is a new shape");
        assert_eq!(Arc::strong_count(&answer), 1, "old-epoch answer must be released");
        assert!(server.inner.planning.peek(TC).is_none(), "old-epoch plan must be released");
        let stats = server.stats();
        assert_eq!((stats.result_evictions, stats.plan_evictions), (0, 0), "not evictions");
        assert_eq!(server.query(TC).unwrap().relation.len(), 6);
        server.load(|db| extra_relation(db, "extra"));
        assert_eq!(server.epoch(), 2);
        server.shutdown();
    }

    /// A fresh durable configuration in a scratch directory named by `tag`.
    fn durable(tag: &str) -> (PathBuf, ServeConfig) {
        let dir = std::env::temp_dir().join(format!("mura-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (dir.clone(), ServeConfig { data_dir: Some(dir), ..Default::default() })
    }

    /// A batch inserting the edge `3 → 4`.
    fn edge_3_4(db: &Database) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        let row = vec![mura_core::Value::node(3), mura_core::Value::node(4)];
        batch.push_insert(db, db.dict().lookup("edge").unwrap(), row.into()).unwrap();
        batch
    }

    /// A load whose WAL record cannot be written — here the record is
    /// written in full and the write then reports an error — must leave
    /// version, epoch, database, caches and log exactly as they were, and
    /// the log must stay appendable and replayable. (A load used to mutate
    /// and bump the version *before* logging: memory ran one version ahead
    /// of the log and the next restart failed with "replay version drift".)
    #[test]
    fn load_that_fails_to_log_changes_nothing() {
        let (dir, config) = durable("logged");
        let server = Server::recover(QueryEngine::new(path_db()), config.clone()).unwrap();
        let wal = dir.join("wal.log");
        // Early runs feed observed cardinalities back and may replan; by
        // now the caches have settled on one answer.
        for _ in 0..4 {
            server.query(TC).unwrap();
        }
        let answer = server.query(TC).unwrap();
        let before = (server.version(), server.epoch(), std::fs::metadata(&wal).unwrap().len());

        let failed = server.inner.load_with(
            |db| extra_relation(db, "extra"),
            |wal, version, epoch, db| {
                wal.append_load(version, epoch, db)?;
                Err(WalError::Io(std::io::Error::other("disk full")))
            },
        );
        assert!(matches!(failed, Err(ServeError::Durability(_))), "{failed:?}");
        let after = (server.version(), server.epoch(), std::fs::metadata(&wal).unwrap().len());
        assert_eq!(after, before, "version, epoch and log length");
        assert!(server.with_db(|db| db.dict().lookup("extra").is_none()), "database untouched");
        assert!(Arc::ptr_eq(&server.query(TC).unwrap(), &answer), "cached answer still served");
        assert_eq!(server.stats().wal_appends, 0);

        // The next mutations log at the versions memory is at, and a
        // restart replays them.
        server.load(|db| extra_relation(db, "extra"));
        assert_eq!(server.apply_delta(server.with_db(edge_3_4)).unwrap().version, 2);
        let logged = mura_durable::wal::replay_file(&wal).unwrap();
        let versions: Vec<u64> = logged.records.iter().map(WalRecord::version).collect();
        assert_eq!((versions, logged.torn), (vec![1, 2], None));
        let rows = server.query(TC).unwrap().relation.len();
        server.shutdown();

        let recovered = Server::recover(QueryEngine::new(path_db()), config).unwrap();
        assert_eq!((recovered.version(), recovered.epoch()), (2, 1));
        assert_eq!(recovered.query(TC).unwrap().relation.len(), rows);
        recovered.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `path_db` with a name no stored relation has as a column.
    fn mutation_db() -> Database {
        let mut db = path_db();
        db.intern("w");
        db
    }

    /// A one-row insert into `edge` (stored as `src`, `dst`) whose sides
    /// carry the columns `cols`.
    fn misshapen_batch(db: &Database, cols: &[&str]) -> DeltaBatch {
        let sym = |c: &&str| db.dict().lookup(c).unwrap();
        let mut delta =
            crate::RelDelta::new(mura_core::Schema::new(cols.iter().map(sym).collect()));
        delta.insert.insert(vec![mura_core::Value::node(7); cols.len()]);
        let mut batch = DeltaBatch::new();
        batch.rels.insert(db.dict().lookup("edge").unwrap(), delta);
        batch
    }

    /// A batch whose schema is not the stored relation's is refused typed
    /// before anything is logged or applied.
    fn refuses_misshapen(tag: &str, cols: &[&str]) {
        let (dir, config) = durable(tag);
        let server = Server::recover(QueryEngine::new(mutation_db()), config).unwrap();
        let wal = dir.join("wal.log");
        let before = (server.version(), std::fs::metadata(&wal).unwrap().len());
        let refused = server.apply_delta(server.with_db(|db| misshapen_batch(db, cols)));
        assert!(
            matches!(refused, Err(ServeError::Engine(MuraError::SchemaMismatch { .. }))),
            "{refused:?}"
        );
        let after = (server.version(), std::fs::metadata(&wal).unwrap().len());
        assert_eq!(after, before, "version and log length");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_of_another_arity_is_refused_before_it_is_logged() {
        refuses_misshapen("arity", &["src", "dst", "w"]);
    }

    #[test]
    fn delta_with_other_columns_is_refused_before_it_is_logged() {
        refuses_misshapen("columns", &["src", "w"]);
    }

    /// A log holding a misshapen batch at v1 — left by a build that logged
    /// it before failing to apply it — recovers at v0, takes the next
    /// mutation at v1 and recovers again to the same answer.
    #[test]
    fn logged_misshapen_delta_is_skipped_by_recovery() {
        let (dir, config) = durable("leftover");
        Server::recover(QueryEngine::new(mutation_db()), config.clone()).unwrap().shutdown();
        let (mut wal, _) = Wal::open(&dir, SyncPolicy::Never).unwrap();
        wal.append_delta(1, &misshapen_batch(&mutation_db(), &["src", "dst", "w"])).unwrap();
        drop(wal);

        let server = Server::recover(QueryEngine::new(mutation_db()), config.clone()).unwrap();
        assert_eq!(server.version(), 0);
        assert_eq!(server.apply_delta(server.with_db(edge_3_4)).unwrap().version, 1);
        let rows = server.query(TC).unwrap().relation.sorted_rows();
        assert_eq!(rows.len(), 10);
        server.shutdown();

        let recovered = Server::recover(QueryEngine::new(mutation_db()), config).unwrap();
        assert_eq!(recovered.version(), 1);
        assert_eq!(recovered.query(TC).unwrap().relation.sorted_rows(), rows);
        recovered.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
