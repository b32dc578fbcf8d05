//! The concurrent query server.
//!
//! Architecture (one process, many clients):
//!
//! ```text
//!  Client ──try_send──▶ bounded queue ──▶ worker pool ──▶ QueryEngine
//!     │       │                               │               │
//!     │       └─ full → ServeError::Busy      │          RwLock<engine>
//!     │                                       │   write: planning (interns
//!     └── CancellationToken ──────────────────┘          symbols)
//!                                                  read: execution (many
//!                                                        at once)
//! ```
//!
//! * **Admission control**: queries enter through a `sync_channel` bounded
//!   at `queue_depth`. A full queue rejects immediately with
//!   [`ServeError::Busy`] — the server never builds unbounded backlog.
//! * **Caching**: a plan cache (query text → optimized plan) and a result
//!   cache (canonical plan key → answer), both keyed additionally by the
//!   **database epoch** (bumped when a [`Server::load`] changes the
//!   catalog's shape). Cached answers also carry the **database version**
//!   — a counter bumped by *every* mutation — and only hit while their
//!   version is current.
//! * **Incremental view maintenance**: [`Server::apply_delta`] applies an
//!   edge-level [`DeltaBatch`] without a reload. Cached fixpoint answers
//!   are *maintained* instead of discarded: insertions seed the drivers'
//!   semi-naive delta loop from the old total, deletions run DRed
//!   (over-delete, rederive) — see `mura_ivm`. Views the maintenance
//!   planner cannot or should not maintain (non-monotone change, nested
//!   fixpoints, cold totals, or frontier larger than a recompute under
//!   the `rel_bytes` cost model) are dropped and recomputed on next use.
//! * **Cancellation & deadlines**: every admitted query carries a
//!   [`CancellationToken`]; deadlines start at submission, so time spent
//!   queued counts against the budget. The evaluator checks the token at
//!   every fixpoint superstep.

use crate::cache::{plan_key, LruCache};
use crate::error::{OverloadReason, ServeError, ServeResult};
use mura_core::fxhash::{FxHashMap, FxHasher};
use mura_core::kernel::kernel_stats;
use mura_core::{mem_gauge, rel_bytes, CancellationToken, Database, Term};
use mura_dist::exec::ResourceLimits;
use mura_dist::explain_plan;
use mura_dist::{
    ClusterHealth, CommBackend, CommSnapshot, CommStats, ExecStats, FaultStats, FixResume,
    PlannedQuery, ProcCluster, ProcClusterConfig, QueryEngine, QueryOutput, TraceLevel,
};
use mura_durable::{
    crash_point, load_newest_snapshot, prune_older_snapshots, write_snapshot, SnapshotState,
    SyncPolicy, ViewSnapshot, Wal, WalRecord,
};
use mura_ivm::{plan_maintenance, DeltaBatch, FallbackReason, IvmOutcome};
use mura_obs::counters::{stats_title, write_stats};
use mura_obs::histogram::{fmt_us, HistogramSnapshot};
use mura_obs::{Counter, Histogram, PromText, Row};
use mura_rewrite::cost::{CostModel, Stats};
use mura_rewrite::FeedbackStore;
use std::fmt::Write;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// Grace window for [`Server::drain`]: in-flight and queued queries
    /// that outlive it are cancelled (their replies still delivered).
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
    /// [`Server::recover`]). `None` (the default) serves purely in
    /// memory, as before.
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

mura_obs::counter_set! {
    /// The serving tier's own counters. [`ServeStats`] is their snapshot
    /// (see [`Server::stats`]) plus the gauges read at snapshot time.
    pub struct Counters => ServeStats {
        counter "mura_queries_submitted_total", "Queries admitted into the queue." { submitted }
        counter "mura_queries_total", "Queries by final outcome." {
            /// Queries that finished with an answer.
            completed {outcome = "completed"},
            /// Queries that executed and finished with an error (incl.
            /// cancelled / deadline). Worker-side sheds count under
            /// [`shed_admitted`](Self::shed_admitted), not here — matching
            /// submit-side sheds, which hit neither counter.
            failed {outcome = "failed"},
            /// Queries rejected with [`ServeError::Busy`].
            rejected {outcome = "rejected"},
            /// The subset of [`shed`](Self::shed) that was already admitted
            /// when the worker-side gates shed it. Admitted queries
            /// terminate as exactly one of completed / failed /
            /// shed_admitted.
            shed_admitted {outcome = "shed"},
        }
        counter "mura_shed_total",
            "Queries shed by overload protection (memory watermark or open breaker)." {
            /// Queries shed with [`ServeError::Overloaded`], whether at
            /// submission or after admission.
            shed,
        }
        counter "mura_breaker_opened_total", "Circuit-breaker open transitions." { breaker_opened }
        counter "mura_cache_events_total", "Plan/result cache hits and misses." {
            plan_hits {cache = "plan", event = "hit"},
            plan_misses {cache = "plan", event = "miss"},
            result_hits {cache = "result", event = "hit"},
            result_misses {cache = "result", event = "miss"},
        }
        counter "mura_degraded_queries_total", "Queries that recovered from faults." {
            /// Queries that completed correctly but hit injected or real
            /// faults along the way (the answer is still exact; see
            /// `QueryOutput::health_note` (mura_dist::QueryOutput)).
            degraded,
        }
        counter "mura_db_deltas_total", "Mutation batches applied." {
            /// Batches applied through [`Server::apply_delta`].
            deltas_applied,
        }
        counter "mura_db_delta_rows_total", "Base rows mutated through deltas." {
            /// After no-op normalization.
            delta_rows_inserted {op = "insert"},
            delta_rows_deleted {op = "delete"},
        }
        counter "mura_ivm_applied_total",
            "Cached views brought to the current version per mode." {
            /// Maintained incrementally (resumed fixpoint loops).
            ivm_maintained {mode = "maintained"},
            /// Revalidated untouched (the batch read none of their
            /// relations).
            ivm_unaffected {mode = "unaffected"},
        }
        counter "mura_ivm_fallback_total",
            "Cached views dropped for recompute-on-next-use, per reason." {
            ivm_fallback_non_monotone {reason = "non-monotone"},
            ivm_fallback_nested_fixpoint {reason = "nested-fixpoint"},
            ivm_fallback_cache_cold {reason = "cache-cold"},
            ivm_fallback_cost {reason = "cost"},
            /// Planner/executor errors and stale entries.
            ivm_fallback_other {reason = "other"},
        }
        counter "mura_ivm_rederived_rows",
            "Rows DRed over-deleted and rederived across maintained views." { ivm_rederived_rows }
        counter "mura_wal_appends_total",
            "Write-ahead-log records appended (delta batches and loads)." { wal_appends }
        counter "mura_wal_bytes_total", "Bytes appended to the write-ahead log." {
            /// On-disk bytes, framing included.
            wal_bytes,
        }
        counter "mura_snapshots_total",
            "Durable snapshots written (periodic, bootstrap and post-recovery)." {
            snapshots_written,
        }
        counter "mura_recovery_replayed_batches",
            "WAL records replayed during the last crash recovery." { recovery_replayed_batches }
        supplied {
            counter "mura_cache_evictions_total",
                "Entries the plan/result caches evicted for capacity." {
                plan_evictions {cache = "plan"},
                result_evictions {cache = "result"},
            }
            gauge "mura_breaker_state", "Circuit breakers currently in each state." {
                breaker_open {state = "open"},
                breaker_half_open {state = "half_open"},
            }
            gauge "mura_mem_current_bytes",
                "Live estimated relation bytes (process-wide)." { mem_current_bytes }
            gauge "mura_mem_high_water_bytes",
                "High-water mark of estimated relation bytes." { mem_high_water_bytes }
            gauge "mura_drain_phase", "0 serving, 1 draining, 2 drained." { drain_phase }
            gauge "mura_feedback_observations",
                "Fixpoint cardinalities currently held by the planner's feedback store." {
                feedback_fixpoints,
            }
            gauge "mura_feedback_generation",
                "Feedback-store generation; cached plans from older generations re-plan." {
                /// Bumped whenever the observation set changes materially.
                feedback_generation,
            }
            gauge "mura_snapshot_age_seconds",
                "Seconds since the last durable snapshot (0 when durability is off)." {
                snapshot_age_seconds,
            }
            gauge "mura_db_epoch", "Current database epoch." { epoch }
            gauge "mura_db_version", "Current database version." {
                /// Bumped by every mutation and load.
                version,
            }
            gauge "mura_dictionary_symbols",
                "Names the database dictionary holds (catalog names, binders of kept plans)." {
                /// A few per plan — a search's scratch names leave with it.
                dictionary_symbols,
            }
        }
        derived {
            /// All fallback reasons summed.
            ivm_fallbacks,
            /// From the process-wide [`mura_core::kernel`] set.
            kernel_index_builds,
            kernel_join_probes,
            kernel_rows_allocated,
            /// From the communication of fresh executions (cache hits replay
            /// an answer, not its communication).
            comm_shuffles,
            comm_rows_shuffled,
            comm_rows_broadcast,
        }
    }
}

impl ServeStats {
    /// Result-cache hit rate in `[0, 1]` (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.result_hits + self.result_misses;
        if total == 0 {
            0.0
        } else {
            self.result_hits as f64 / total as f64
        }
    }
}

impl Counters {
    fn fallback_counter(&self, reason: Option<FallbackReason>) -> &Counter {
        match reason {
            Some(FallbackReason::NonMonotone) => &self.ivm_fallback_non_monotone,
            Some(FallbackReason::NestedFixpoint) => &self.ivm_fallback_nested_fixpoint,
            Some(FallbackReason::CacheCold) => &self.ivm_fallback_cache_cold,
            Some(FallbackReason::Cost) => &self.ivm_fallback_cost,
            None => &self.ivm_fallback_other,
        }
    }
}

/// Latency histograms and the telemetry of fresh executions, accumulated
/// over the server's lifetime. Histograms are log-spaced (power-of-two
/// microsecond buckets, see [`mura_obs::histogram`]) so p50/p95/p99 and a
/// Prometheus exposition both derive from the same counters.
#[derive(Default)]
struct Telemetry {
    /// Submission → answer, queue time included. Every finished query.
    wall: Histogram,
    /// Submission → a worker picking the job up.
    queue: Histogram,
    /// Evaluator time of fresh (non-cached) executions.
    execution: Histogram,
    /// Planning time of plan-cache misses.
    planning: Histogram,
    /// Per-view incremental maintenance latency (planning the resume
    /// state + the resumed execution), maintained and untouched views.
    maintenance: Histogram,
    /// Communication of fresh executions, summed from their per-query
    /// `since()` deltas (cache hits replay an answer, not its
    /// communication; the shared cluster counters are never reset). The
    /// wire bytes move under [`ClusterMode::Processes`] only.
    comm: CommStats,
    /// Faults and recoveries of fresh executions.
    faults: FaultStats,
    /// Per-worker per-superstep durations of traced executions, across
    /// every worker lane of the merged trace (both cluster modes).
    worker_superstep: Histogram,
    /// Worst per-fixpoint `max/median` worker-time ratio observed by the
    /// most recent traced execution, in thousandths (gauge; 0 = no traced
    /// multi-worker fixpoint seen yet).
    skew_ratio_milli: AtomicU64,
}

impl Telemetry {
    /// Folds a merged per-query trace into the server-wide skew telemetry:
    /// every worker-lane superstep duration feeds the histogram, and the
    /// worst per-fixpoint `max/median` ratio updates the gauge.
    fn record_trace(&self, trace: &mura_obs::QueryTrace) {
        for ev in &trace.events {
            if ev.kind == mura_obs::EventKind::Superstep && ev.worker >= 0 {
                self.worker_superstep.record_us(ev.dur_us);
            }
        }
        let worst = trace.skew_by_fixpoint().iter().map(|s| (s.skew_ratio * 1000.0) as u64).max();
        if let Some(m) = worst {
            self.skew_ratio_milli.store(m, Ordering::Relaxed);
        }
    }
}

/// Circuit-breaker lifecycle for one canonical plan key:
/// `Closed` → (threshold consecutive breaker-class failures) → `Open` →
/// (cooldown elapses; one probe admitted) → `HalfOpen` → success closes,
/// failure re-opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

#[derive(Debug, Clone, Copy)]
struct Breaker {
    state: BreakerState,
    /// Consecutive breaker-class failures since the last success.
    consecutive: u32,
    opened_at: Instant,
}

struct QueryJob {
    id: u64,
    query: String,
    token: CancellationToken,
    /// Tracing level for this execution. Anything above `Off` also bypasses
    /// the result cache: a cached answer has no trace to return, and a
    /// traced answer must not be replayed to clients that never asked for
    /// the tracing overhead.
    trace: TraceLevel,
    /// When the job was admitted; queue wait and wall latency both start here.
    submitted: Instant,
    reply: std::sync::mpsc::Sender<ServeResult<Arc<QueryOutput>>>,
}

enum Job {
    Query(QueryJob),
    /// Shutdown pill: one per worker, sent by [`Server::shutdown`].
    Poison,
}

/// One result-cache slot: the answer (with its captured fixpoint totals
/// inside `output.stats.fix_totals`) and the database version it is exact
/// at. A lookup only hits while the stored version is current; mutations
/// bring entries forward through incremental maintenance.
#[derive(Clone)]
struct CachedResult {
    version: u64,
    output: Arc<QueryOutput>,
}

/// What one [`Server::apply_delta`] call did: the new database version,
/// the base-row churn, and the fate of every cached view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    /// Database version after the batch (unchanged for a no-op batch).
    pub version: u64,
    /// Base rows actually inserted / deleted (no-op rows normalized away).
    pub inserted: u64,
    pub deleted: u64,
    /// Cached views maintained incrementally (resumed fixpoint loops).
    pub maintained: u64,
    /// Cached views untouched by the batch, revalidated as-is.
    pub unaffected: u64,
    /// Cached views dropped; the next query recomputes them.
    pub recomputed: u64,
    /// Rows DRed over-deleted and rederived across maintained views.
    pub rederived: u64,
}

/// One plan-cache entry: the optimized plan plus the feedback-store
/// generation it was costed under. A hit requires the generation to still
/// be current — new observations (or material churn) bump the generation,
/// forcing the next run to re-plan from measured cardinalities.
#[derive(Clone)]
struct CachedPlan {
    plan: Term,
    feedback_gen: u64,
}

/// Durable-storage handle: the open WAL plus snapshot bookkeeping. Lives
/// behind a mutex taken *after* the engine lock (never the other way
/// around) and only on mutation / telemetry paths — queries never touch it.
struct DurableState {
    wal: Wal,
    dir: PathBuf,
    /// WAL appends since the last snapshot; reaching
    /// [`ServeConfig::snapshot_every`] triggers the next snapshot.
    appends_since_snapshot: u64,
    last_snapshot_at: Instant,
}

struct ServerInner {
    engine: RwLock<QueryEngine>,
    /// Bumped (under the engine write lock) by [`Server::load`] calls
    /// that change the catalog's *shape* (relations, columns, constants):
    /// plans interned against the old catalog are then unreachable.
    epoch: AtomicU64,
    /// Bumped (under the engine write lock) by **every** mutation —
    /// [`Server::apply_delta`] and [`Server::load`] alike. Cached results
    /// are valid at exactly one version; see [`CachedResult`].
    version: AtomicU64,
    /// Serializes mutations: a delta's normalize → apply → maintain
    /// sequence is one version transition, and maintenance needs the
    /// pre-batch relation values of exactly that one step.
    mutation: Mutex<()>,
    results: Mutex<LruCache<(u64, u64), CachedResult>>,
    plans: Mutex<LruCache<(String, u64), CachedPlan>>,
    counters: Counters,
    telemetry: Telemetry,
    closing: AtomicBool,
    /// 0 serving, 1 draining, 2 drained (see [`Client::request_drain`]).
    drain_phase: AtomicU64,
    /// Per-canonical-plan circuit breakers (see [`Breaker`]).
    breakers: Mutex<FxHashMap<u64, Breaker>>,
    /// Cancellation tokens of every admitted, unresolved query, so a
    /// drain can deadline stragglers. Keyed by [`QueryJob::id`].
    inflight: Mutex<FxHashMap<u64, CancellationToken>>,
    next_job: AtomicU64,
    /// Observed fixpoint cardinalities from completed executions, keyed by
    /// the planner's canonical term hash. Read on every plan-cache miss so
    /// repeated queries are re-costed from measured reality; churned or
    /// reloaded data drops the affected observations (see `apply_delta`
    /// and [`Server::load`]).
    feedback: Mutex<FeedbackStore>,
    /// The process cluster backing every execution under
    /// [`ClusterMode::Processes`]: one supervised worker fleet shared by
    /// all concurrent queries (exchange buffers are isolated per exchange
    /// id on the wire). `None` under [`ClusterMode::InProcess`].
    proc: Option<Arc<ProcCluster>>,
    /// Durable storage (WAL + snapshots) when [`ServeConfig::data_dir`]
    /// is set; `None` serves purely in memory.
    durable: Option<Mutex<DurableState>>,
    config: ServeConfig,
}

impl ServerInner {
    /// Routes an execution through the process cluster when one is
    /// configured: the backend carries its own worker count, which must
    /// override the engine's in-process worker count so partitioning
    /// matches the fleet.
    fn plug_backend(&self, config: &mut mura_dist::ExecConfig) {
        if let Some(proc) = &self.proc {
            if let Some(n) = proc.worker_count() {
                config.workers = n;
            }
            config.backend = Some(Arc::clone(proc) as Arc<dyn CommBackend>);
        }
    }
}

/// Poison-tolerant lock helpers: a worker that panicked mid-query must not
/// take the whole server down with `PoisonError`s.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ServerInner {
    fn read_engine(&self) -> std::sync::RwLockReadGuard<'_, QueryEngine> {
        self.engine.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_engine(&self) -> std::sync::RwLockWriteGuard<'_, QueryEngine> {
        self.engine.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Gate on the plan's circuit breaker. An open breaker rejects with
    /// [`ServeError::Overloaded`] until the cooldown elapses, then lets
    /// exactly one probe through (half-open); further callers keep being
    /// rejected until [`ServerInner::breaker_record`] settles the probe.
    /// Never blocks, so a cancelled caller can never be parked here.
    ///
    /// Only the worker-side call passes `transition = true`: it owns the
    /// Open → HalfOpen move. The submit-side check is a read-only peek,
    /// so a query admitted there is not re-rejected by its own probe
    /// state when the worker gates it again.
    fn breaker_check(&self, key: u64, transition: bool) -> ServeResult<()> {
        if self.config.breaker_threshold == 0 {
            return Ok(());
        }
        let mut breakers = lock(&self.breakers);
        let Some(b) = breakers.get_mut(&key) else { return Ok(()) };
        let retry_after_ms = |d: Duration| (d.as_millis() as u64).max(1);
        match b.state {
            BreakerState::Closed => Ok(()),
            BreakerState::Open => {
                let elapsed = b.opened_at.elapsed();
                if elapsed >= self.config.breaker_cooldown {
                    if transition {
                        b.state = BreakerState::HalfOpen; // this caller probes
                    }
                    Ok(())
                } else {
                    Err(ServeError::Overloaded {
                        reason: OverloadReason::CircuitOpen,
                        retry_after_ms: retry_after_ms(self.config.breaker_cooldown - elapsed),
                    })
                }
            }
            // The probe passed this gate when it performed the
            // transition; anyone who finds HalfOpen waits for its verdict.
            BreakerState::HalfOpen => Err(ServeError::Overloaded {
                reason: OverloadReason::CircuitOpen,
                retry_after_ms: retry_after_ms(self.config.retry_after),
            }),
        }
    }

    /// Settle a finished execution against the plan's breaker: a success
    /// closes it; a breaker-class failure (`MemoryExceeded`,
    /// `WorkerFailed` — deterministic re-offenders, not transient noise)
    /// counts toward opening, and any half-open probe failure re-opens.
    /// A neutral outcome (cancelled, timeout, transient fault) proves
    /// nothing either way; a half-open probe that ends neutrally returns
    /// to `Open` with a fresh cooldown — it must never strand the breaker
    /// in `HalfOpen`, which rejects everyone until the next settle.
    fn breaker_record<T>(&self, key: u64, result: &ServeResult<T>) {
        let threshold = self.config.breaker_threshold;
        if threshold == 0 {
            return;
        }
        use mura_core::MuraError as E;
        let breaker_failure = matches!(
            result,
            Err(ServeError::Engine(E::MemoryExceeded { .. } | E::WorkerFailed { .. }))
        );
        let mut breakers = lock(&self.breakers);
        if !breaker_failure {
            if result.is_ok() {
                breakers.remove(&key);
            } else if let Some(b) = breakers.get_mut(&key) {
                if b.state == BreakerState::HalfOpen {
                    // Inconclusive probe: re-open and let a later probe
                    // retry after the cooldown. Not counted in
                    // `breaker_opened` — the plan wasn't convicted again.
                    b.state = BreakerState::Open;
                    b.opened_at = Instant::now();
                }
            }
            return;
        }
        let b = breakers.entry(key).or_insert(Breaker {
            state: BreakerState::Closed,
            consecutive: 0,
            opened_at: Instant::now(),
        });
        b.consecutive = b.consecutive.saturating_add(1);
        if (b.consecutive >= threshold || b.state == BreakerState::HalfOpen)
            && b.state != BreakerState::Open
        {
            b.state = BreakerState::Open;
            b.opened_at = Instant::now();
            self.counters.breaker_opened.inc();
        }
    }

    /// Cost-model byte estimate for a plan: output cardinality × arity ×
    /// value size, from the statistics the planner reads — the exact
    /// counts the catalog keeps with each stored relation, so a mutated
    /// relation is priced as it is now. `None` when the model can't price
    /// the plan — the gate then falls back to the live gauge alone.
    fn estimated_bytes(&self, plan: &Term, db: &Database) -> Option<u64> {
        let card = CostModel::new(&Stats::from_db(db)).card(plan).ok()?;
        // `as` saturates the f64 (NaN → 0), and `rel_bytes` saturates the
        // multiplication, so an astronomical join estimate clamps to
        // u64::MAX and is always shed instead of wrapping past the gate.
        Some(rel_bytes(card.rows as u64, card.distinct.len().max(1)))
    }

    /// The memory-watermark admission gate: shed when the live gauge plus
    /// this query's estimate would pass the watermark.
    fn memory_gate(&self, estimate: u64) -> ServeResult<()> {
        let Some(watermark) = self.config.memory_watermark_bytes else { return Ok(()) };
        if mem_gauge().current_bytes().saturating_add(estimate) > watermark {
            return Err(ServeError::Overloaded {
                reason: OverloadReason::Memory,
                retry_after_ms: (self.config.retry_after.as_millis() as u64).max(1),
            });
        }
        Ok(())
    }

    fn shed(&self, e: ServeError) -> ServeError {
        self.counters.shed.inc();
        e
    }

    fn process(&self, job: &QueryJob) -> ServeResult<Arc<QueryOutput>> {
        // A query may have spent its whole deadline waiting in the queue.
        job.token.check()?;

        // Plan: cache on (query text, epoch); misses take the engine write
        // lock because UCRPQ translation interns symbols.
        let mut epoch = self.epoch.load(Ordering::Acquire);
        let plan_cache_key = (job.query.clone(), epoch);
        // A cached plan is reusable only while the feedback store is at the
        // generation it was costed under: newer observations may well pick
        // a different plan, so a stale generation replans below.
        let feedback_gen = lock(&self.feedback).generation();
        let cached =
            lock(&self.plans).get(&plan_cache_key).filter(|c| c.feedback_gen == feedback_gen);
        let planned = match cached {
            Some(c) => {
                self.counters.plan_hits.inc();
                PlannedQuery { plan: c.plan, planning: Duration::ZERO }
            }
            None => {
                self.counters.plan_misses.inc();
                let mut engine = self.write_engine();
                // Re-read under the lock: loads bump the epoch while holding
                // it, so this pins the epoch the plan was made against. The
                // feedback generation is re-read too, so the cached entry is
                // tagged with exactly the observations it was costed under.
                epoch = self.epoch.load(Ordering::Acquire);
                let (observations, feedback_gen) = {
                    let fb = lock(&self.feedback);
                    (fb.observations(), fb.generation())
                };
                let obs = (!observations.is_empty()).then_some(observations);
                let superseded =
                    lock(&self.plans).get(&(job.query.clone(), epoch)).map(|c| plan_key(&c.plan));
                let (planned, _report) = engine.plan_ucrpq_report(&job.query, obs)?;
                // A replan that lands on a different plan orphans the
                // result entry cached under the old plan's key: no lookup
                // reaches it anymore, yet maintenance would keep paying to
                // bring it forward on every delta. Drop it now.
                if let Some(old_key) = superseded {
                    if old_key != plan_key(&planned.plan) {
                        lock(&self.results).remove(&(old_key, epoch));
                    }
                }
                lock(&self.plans).insert(
                    (job.query.clone(), epoch),
                    CachedPlan { plan: planned.plan.clone(), feedback_gen },
                );
                self.telemetry.planning.record(planned.planning);
                planned
            }
        };

        // Result cache: canonical plan key + epoch. Traced jobs bypass it —
        // see `QueryJob::trace`.
        let traced = job.trace > TraceLevel::Off;
        let key = plan_key(&planned.plan);
        let result_key = (key, epoch);
        if !traced {
            // A hit requires the stored version to be current: an entry a
            // mutation has not (yet) maintained is stale data, not an
            // answer. Stale entries stay in place — maintenance or the
            // recompute below overwrites them.
            let version = self.version.load(Ordering::Acquire);
            let hit = lock(&self.results)
                .get(&result_key)
                .filter(|c| c.version == version)
                .map(|c| c.output);
            if let Some(out) = hit {
                self.counters.result_hits.inc();
                return Ok(out);
            }
            self.counters.result_misses.inc();
        }

        // Overload gates, now that the canonical plan is known (the
        // submit-side copies of these gates only fire on plan-cache hits).
        // Cache hits above skip them: replaying an answer costs nothing.
        // The memory gate runs first: the breaker check may transition
        // Open → HalfOpen for a probe, and a probe shed by a later gate
        // would leave HalfOpen with nobody left to settle it.
        if self.config.memory_watermark_bytes.is_some() {
            let estimate =
                self.estimated_bytes(&planned.plan, self.read_engine().db()).unwrap_or(0);
            self.memory_gate(estimate).map_err(|e| self.shed(e))?;
        }
        self.breaker_check(key, true).map_err(|e| self.shed(e))?;

        // Execute under the read lock: many executions run concurrently;
        // only planning and loads serialize.
        let engine = self.read_engine();
        // Mutations bump the version under the engine *write* lock, so this
        // read pins a (data, version) pair consistent for the whole run.
        let version = self.version.load(Ordering::Acquire);
        let mut config = engine.config().clone();
        config.limits = self.config.limits;
        config.cancel = Some(job.token.clone());
        config.trace = job.trace;
        // The job id rides in the wire-level trace context so worker-side
        // spans can be attributed to this query in the merged timeline.
        config.query_id = job.id;
        // Capture fixpoint totals alongside the answer: they are what lets
        // `apply_delta` maintain cached entries instead of discarding them,
        // and what feeds observed cardinalities back into the planner.
        config.capture_fixpoints = !traced;
        self.plug_backend(&mut config);
        let out = engine.execute_plan_with(&planned, config).map(Arc::new).map_err(Into::into);
        self.breaker_record(key, &out);
        let out = out?;
        self.telemetry.execution.record(out.execution);
        self.telemetry.comm.add(&out.comm);
        if let Some(trace) = &out.stats.trace {
            self.telemetry.record_trace(trace);
        }
        // Accumulate fault/recovery accounting for fresh executions only —
        // cache hits replay an old answer, not its faults.
        let fault = &out.stats.fault;
        if fault.injected() > 0 || fault.recovered() {
            self.counters.degraded.inc();
            self.telemetry.faults.add(fault);
        }
        // Fold measured fixpoint cardinalities back into the planner: the
        // next plan-cache miss (for any query sharing a recursive subterm)
        // re-costs from observed reality instead of static estimates.
        if self.epoch.load(Ordering::Acquire) == epoch {
            if let Some(totals) = out.stats.fix_totals.as_ref().filter(|t| !t.is_empty()) {
                let observed: FxHashMap<u64, f64> =
                    totals.iter().map(|(k, r)| (*k, r.len() as f64)).collect();
                lock(&self.feedback).record_plan(&planned.plan, &observed, engine.db().dict());
            }
        }
        // A load may have slipped in between planning and taking the read
        // lock. The answer is then computed against the newer data — still
        // correct to return, but not safe to file under the old epoch.
        if !traced && self.epoch.load(Ordering::Acquire) == epoch {
            lock(&self.results).insert(result_key, CachedResult { version, output: out.clone() });
        }
        Ok(out)
    }

    /// Applies an edge-level delta batch as one atomic version transition:
    /// normalize → apply to base relations → bump the version → maintain
    /// every cached view (see the module docs). Returns what happened to
    /// each view; the batch itself is all-or-nothing.
    fn apply_delta(&self, batch: DeltaBatch) -> ServeResult<DeltaSummary> {
        if self.closing.load(Ordering::Acquire) || self.drain_phase.load(Ordering::Acquire) > 0 {
            return Err(ServeError::Closed);
        }
        self.apply_batch(batch, true)
    }

    /// The delta machinery behind [`ServerInner::apply_delta`]. `live`
    /// distinguishes client mutations (memory-gated, WAL-logged before they
    /// apply, snapshot-triggering) from startup recovery replaying
    /// already-logged records — replay must not re-log records, and must
    /// not snapshot mid-replay (a snapshot resets the WAL, which would
    /// discard records not yet replayed if recovery itself crashed).
    fn apply_batch(&self, mut batch: DeltaBatch, live: bool) -> ServeResult<DeltaSummary> {
        // One mutation at a time: maintenance needs the pre-batch relation
        // values of exactly one version step, so normalize → apply →
        // maintain must not interleave with another batch.
        let _mutation = lock(&self.mutation);

        // Memory gate: a mutation storm obeys the same resource ladder as
        // queries. The churn estimate prices the batch's own rows; the
        // maintenance loop's frontier cost is gated per view below. Replay
        // is exempt — recovery must converge to the pre-crash state
        // regardless of the memory gauge's warm-up transient.
        if live {
            let rows: usize = batch.rels.values().map(|d| d.insert.len() + d.delete.len()).sum();
            let arity = batch.rels.values().map(|d| d.insert.schema().arity()).max().unwrap_or(2);
            self.memory_gate(rel_bytes(rows as u64, arity)).map_err(|e| self.shed(e))?;
        }

        let mut summary = DeltaSummary::default();
        let (old_rels, version, epoch, snapshot) = {
            let mut engine = self.write_engine();
            batch.normalize(engine.db())?;
            if batch.is_empty() {
                summary.version = self.version.load(Ordering::Acquire);
                return Ok(summary);
            }
            // Durability: log and fsync the normalized batch *before* it is
            // applied, stamped with the version it will produce. A crash
            // after the append replays the batch at recovery; a crash
            // before it recovers to the pre-batch state — either way the
            // client's ack (which only happens after the append) never lies.
            let mut wal_mark = None;
            if live {
                if let Some(durable) = &self.durable {
                    let next = self.version.load(Ordering::Acquire) + 1;
                    let mut d = lock(durable);
                    let mark = (d.wal.bytes(), d.wal.appends());
                    let bytes = d
                        .wal
                        .append_delta(next, &batch)
                        .map_err(|e| ServeError::Durability(format!("wal append: {e}")))?;
                    self.counters.wal_appends.inc();
                    self.counters.wal_bytes.add(bytes);
                    d.appends_since_snapshot += 1;
                    wal_mark = Some(mark);
                }
            }
            let (inserted, deleted, old_rels) = match batch.apply(engine.db_mut()) {
                Ok(applied) => applied,
                Err(e) => {
                    // Apply failed after the batch was logged: truncate the
                    // record so recovery never replays a mutation the
                    // server rejected.
                    if let (Some((bytes, appends)), Some(durable)) = (wal_mark, &self.durable) {
                        let mut d = lock(durable);
                        let _ = d.wal.rollback_to(bytes, appends);
                        d.appends_since_snapshot = d.appends_since_snapshot.saturating_sub(1);
                    }
                    return Err(e.into());
                }
            };
            let version = self.version.fetch_add(1, Ordering::AcqRel) + 1;
            let epoch = self.epoch.load(Ordering::Acquire);
            self.counters.deltas_applied.inc();
            self.counters.delta_rows_inserted.add(inserted);
            self.counters.delta_rows_deleted.add(deleted);
            summary.version = version;
            summary.inserted = inserted;
            summary.deleted = deleted;
            // Tell the planner's feedback store how much each relation
            // churned: materially churned observations are dropped and the
            // dependent queries re-plan on their next cache miss.
            {
                let mut fb = lock(&self.feedback);
                for (rel, d) in &batch.rels {
                    let size_now = engine.db().relation(*rel).map_or(0, |r| r.len());
                    fb.note_churn(*rel, d.insert.len() + d.delete.len(), size_now);
                }
            }
            // Snapshot the cache while still holding the write lock: result
            // inserts happen under the engine *read* lock, so nothing can
            // slip in between the version bump and this snapshot.
            (old_rels, version, epoch, lock(&self.results).entries())
        };

        // Maintain under the *read* lock: queries keep flowing — they
        // simply miss (stale version) until their view is brought forward.
        let engine = self.read_engine();
        let empty = FxHashMap::default();
        for (key, cached) in snapshot {
            // Chaos hook: a crash here leaves the batch durably logged and
            // applied but the view maintenance half-done. Recovery replays
            // the batch from the WAL over the last snapshot, which re-runs
            // maintenance from a consistent pre-batch state.
            crash_point("maintain_mid");
            if key.1 != epoch || cached.version >= version {
                continue; // other-epoch leftovers / already-current entries
            }
            if cached.version + 1 != version {
                // More than one version behind: this batch's pre-state is
                // not the entry's post-state, so the bridge is gone.
                lock(&self.results).remove(&key);
                self.record_fallback(None, &mut summary);
                continue;
            }
            if self.closing.load(Ordering::Acquire) || self.drain_phase.load(Ordering::Acquire) > 0
            {
                // Drain arrived mid-maintenance: stop doing optional work,
                // drop the stale entry, still return a full response.
                lock(&self.results).remove(&key);
                self.record_fallback(None, &mut summary);
                continue;
            }
            let start = Instant::now();
            let totals = cached.output.stats.fix_totals.as_ref().unwrap_or(&empty);
            match plan_maintenance(&cached.output.plan, engine.db(), &old_rels, &batch, totals) {
                Ok(IvmOutcome::Unaffected) => {
                    lock(&self.results)
                        .insert(key, CachedResult { version, output: cached.output.clone() });
                    self.counters.ivm_unaffected.inc();
                    summary.unaffected += 1;
                    self.telemetry.maintenance.record(start.elapsed());
                }
                Ok(IvmOutcome::Maintain(m)) => {
                    // Cost gate: maintenance wins when the churn it must
                    // push through the loop is smaller than the state a
                    // recompute would rebuild, byte-priced at equal arity.
                    let total_rows: u64 = totals.values().map(|r| r.len() as u64).sum();
                    let churn = m.frontier_rows + m.overdeleted_rows;
                    if rel_bytes(churn, 2) > rel_bytes(total_rows.max(1), 2) {
                        lock(&self.results).remove(&key);
                        self.record_fallback(Some(FallbackReason::Cost), &mut summary);
                        continue;
                    }
                    let resume: FxHashMap<u64, FixResume> = m
                        .resume
                        .into_iter()
                        .map(|(k, p)| (k, FixResume { acc: p.acc, delta: p.delta }))
                        .collect();
                    let mut config = engine.config().clone();
                    config.limits = self.config.limits;
                    config.capture_fixpoints = true;
                    config.resume = Some(Arc::new(resume));
                    self.plug_backend(&mut config);
                    let planned =
                        PlannedQuery { plan: cached.output.plan.clone(), planning: Duration::ZERO };
                    match engine.execute_plan_with(&planned, config) {
                        Ok(out) => {
                            // The resumed run measured the post-delta
                            // fixpoint totals — fold them back into the
                            // planner so an observation dropped for churn
                            // above is immediately replaced by the fresh
                            // one instead of waiting for a cold execution.
                            if let Some(t) = out.stats.fix_totals.as_ref().filter(|t| !t.is_empty())
                            {
                                let observed: FxHashMap<u64, f64> =
                                    t.iter().map(|(k, r)| (*k, r.len() as f64)).collect();
                                lock(&self.feedback).record_plan(
                                    &planned.plan,
                                    &observed,
                                    engine.db().dict(),
                                );
                            }
                            lock(&self.results)
                                .insert(key, CachedResult { version, output: Arc::new(out) });
                            self.counters.ivm_maintained.inc();
                            self.counters.ivm_rederived_rows.add(m.overdeleted_rows);
                            summary.maintained += 1;
                            summary.rederived += m.overdeleted_rows;
                            self.telemetry.maintenance.record(start.elapsed());
                        }
                        Err(_) => {
                            lock(&self.results).remove(&key);
                            self.record_fallback(None, &mut summary);
                        }
                    }
                }
                Ok(IvmOutcome::Fallback(reason)) => {
                    lock(&self.results).remove(&key);
                    self.record_fallback(Some(reason), &mut summary);
                }
                Err(_) => {
                    lock(&self.results).remove(&key);
                    self.record_fallback(None, &mut summary);
                }
            }
        }
        if live {
            self.maybe_snapshot(engine.db())?;
        }
        Ok(summary)
    }

    /// Writes a snapshot if the WAL has accumulated `snapshot_every`
    /// appends since the last one. Called with the engine read lock held
    /// (mutations are serialized by the mutation mutex, so the database
    /// cannot change underneath the snapshot).
    fn maybe_snapshot(&self, db: &Database) -> ServeResult<()> {
        let due = match &self.durable {
            Some(durable) if self.config.snapshot_every > 0 => {
                lock(durable).appends_since_snapshot >= self.config.snapshot_every
            }
            _ => false,
        };
        if due {
            self.snapshot_now(db)?;
        }
        Ok(())
    }

    /// Writes an atomic snapshot of the current database, cached views and
    /// planner feedback, prunes older snapshots, and resets the WAL. The
    /// caller must hold an engine lock (read or write) so the state is
    /// frozen; mutations are additionally serialized by the mutation mutex.
    fn snapshot_now(&self, db: &Database) -> ServeResult<()> {
        let Some(durable) = &self.durable else { return Ok(()) };
        let version = self.version.load(Ordering::Acquire);
        let epoch = self.epoch.load(Ordering::Acquire);
        // Persist only views that are exactly current: stale entries would
        // be dropped by maintenance anyway, and other-epoch leftovers are
        // unreachable after a load.
        let mut views: Vec<ViewSnapshot> = lock(&self.results)
            .entries()
            .into_iter()
            .filter(|(key, cached)| key.1 == epoch && cached.version == version)
            .map(|(_, cached)| ViewSnapshot {
                plan: cached.output.plan.clone(),
                relation: cached.output.relation.clone(),
                fix_totals: cached
                    .output
                    .stats
                    .fix_totals
                    .as_ref()
                    .map(|m| m.iter().map(|(k, r)| (*k, r.clone())).collect())
                    .unwrap_or_default(),
            })
            .collect();
        // Stable bytes: equal server states must snapshot identically.
        views.sort_by_key(|v| plan_key(&v.plan));
        // Plans ride along rather than being re-derived at recovery: the
        // planner costs against live cardinalities, so a replan after
        // restore could legally pick a different plan than the one the
        // persisted view is keyed under, orphaning the view.
        let mut plans: Vec<(String, Term, u64)> = lock(&self.plans)
            .entries()
            .into_iter()
            .filter(|(key, _)| key.1 == epoch)
            .map(|(key, cached)| (key.0, cached.plan, cached.feedback_gen))
            .collect();
        plans.sort_by(|a, b| a.0.cmp(&b.0));
        let state = SnapshotState {
            version,
            epoch,
            db: db.clone(),
            views,
            feedback: lock(&self.feedback).export_state(),
            plans,
        };
        let mut d = lock(durable);
        write_snapshot(&d.dir, &state)
            .map_err(|e| ServeError::Durability(format!("snapshot write: {e}")))?;
        let _ = prune_older_snapshots(&d.dir, version);
        // The snapshot now covers everything in the WAL — reset it so
        // recovery replay is bounded by one snapshot interval.
        d.wal.reset().map_err(|e| ServeError::Durability(format!("wal reset: {e}")))?;
        d.appends_since_snapshot = 0;
        d.last_snapshot_at = Instant::now();
        self.counters.snapshots_written.inc();
        Ok(())
    }

    /// Installs a restored snapshot as the server's live state: database,
    /// version/epoch, planner feedback, and cached views (re-inserted with
    /// zeroed timings — they answer queries and maintain incrementally, but
    /// carry no execution telemetry from the previous process).
    fn restore_snapshot(&self, snap: SnapshotState) {
        {
            let mut engine = self.write_engine();
            *engine.db_mut() = snap.db;
        }
        self.version.store(snap.version, Ordering::Release);
        self.epoch.store(snap.epoch, Ordering::Release);
        *lock(&self.feedback) = FeedbackStore::import_state(snap.feedback);
        {
            let mut plans = lock(&self.plans);
            for (query, plan, feedback_gen) in snap.plans {
                plans.insert((query, snap.epoch), CachedPlan { plan, feedback_gen });
            }
        }
        let mut results = lock(&self.results);
        for view in snap.views {
            let key = (plan_key(&view.plan), snap.epoch);
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
            results.insert(key, CachedResult { version: snap.version, output: Arc::new(output) });
        }
    }

    /// Replays WAL records on top of the restored snapshot. Records at or
    /// below the restored version are skipped (covers a crash between the
    /// snapshot rename and the WAL reset). Returns how many records were
    /// applied.
    fn replay_wal(&self, records: Vec<WalRecord>) -> ServeResult<u64> {
        let mut replayed = 0u64;
        for record in records {
            if record.version() <= self.version.load(Ordering::Acquire) {
                continue;
            }
            match record {
                WalRecord::Delta { version, batch } => {
                    match self.apply_batch(batch, false) {
                        Ok(summary) => {
                            if summary.version != version {
                                return Err(ServeError::Durability(format!(
                                    "replay version drift: wal says {version}, \
                                     apply produced {}",
                                    summary.version
                                )));
                            }
                        }
                        // A batch the engine rejects now was rejected (and
                        // rolled back) before the crash too — skip it.
                        // Failed applies never bumped the version, so the
                        // stamps of later records still line up.
                        Err(ServeError::Engine(_)) => continue,
                        Err(e) => return Err(e),
                    }
                }
                WalRecord::Load { version, epoch, db } => {
                    let _mutation = lock(&self.mutation);
                    let mut engine = self.write_engine();
                    *engine.db_mut() = db;
                    self.version.store(version, Ordering::Release);
                    if self.epoch.load(Ordering::Acquire) != epoch {
                        self.epoch.store(epoch, Ordering::Release);
                        lock(&self.breakers).clear();
                    }
                    lock(&self.feedback).clear();
                }
            }
            replayed += 1;
        }
        self.counters.recovery_replayed_batches.add(replayed);
        Ok(replayed)
    }

    fn record_fallback(&self, reason: Option<FallbackReason>, summary: &mut DeltaSummary) {
        self.counters.fallback_counter(reason).inc();
        summary.recomputed += 1;
    }
}

/// Order-insensitive hash of the catalog's *shape*: relation names with
/// their column names, plus constant bindings. Two databases with the same
/// fingerprint intern the same plans, so a [`Server::load`] that keeps the
/// fingerprint keeps plan caches, admission history and breaker verdicts.
fn schema_fingerprint(db: &Database) -> u64 {
    let mut parts: Vec<u64> = Vec::new();
    for (name, rel) in db.relations() {
        let mut h = FxHasher::default();
        0u8.hash(&mut h);
        db.dict().resolve(name).hash(&mut h);
        for col in rel.schema().columns() {
            db.dict().resolve(*col).hash(&mut h);
        }
        parts.push(h.finish());
    }
    for (name, value) in db.constants() {
        let mut h = FxHasher::default();
        1u8.hash(&mut h);
        db.dict().resolve(name).hash(&mut h);
        value.hash(&mut h);
        parts.push(h.finish());
    }
    parts.sort_unstable();
    let mut h = FxHasher::default();
    parts.hash(&mut h);
    h.finish()
}

/// A running query server. Dropping (or [`Server::shutdown`]) stops the
/// worker pool after draining queued queries.
pub struct Server {
    inner: Arc<ServerInner>,
    tx: SyncSender<Job>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool over an engine. The engine's `ExecConfig`
    /// (worker count, plan policy, local engine) is used for every query;
    /// `config.limits` and the per-query cancellation token override the
    /// corresponding fields per execution.
    ///
    /// Panics when [`ClusterMode::Processes`] is configured and the worker
    /// fleet cannot be spawned — use [`Server::try_start`] to handle that
    /// failure gracefully.
    pub fn start(engine: QueryEngine, config: ServeConfig) -> Server {
        Server::try_start(engine, config).expect("spawn process cluster")
    }

    /// Like [`Server::start`], surfacing process-cluster spawn failures
    /// (missing `mura-worker` binary, exhausted ports) as an error instead
    /// of panicking. [`ClusterMode::InProcess`] cannot fail.
    pub fn try_start(engine: QueryEngine, config: ServeConfig) -> ServeResult<Server> {
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
        // Durability: open the data directory before serving starts. The
        // newest valid snapshot plus the WAL tail reconstruct the exact
        // pre-crash state; both are installed below, before worker threads
        // can observe (or mutate) anything.
        let mut restored = None;
        let mut tail = Vec::new();
        let durable = match &config.data_dir {
            Some(dir) => {
                let (snap, _skipped_corrupt) = load_newest_snapshot(dir)
                    .map_err(|e| ServeError::Durability(format!("snapshot load: {e}")))?;
                restored = snap;
                let (wal, replay) = Wal::open(dir, config.wal_sync)
                    .map_err(|e| ServeError::Durability(format!("wal open: {e}")))?;
                tail = replay.records;
                Some(Mutex::new(DurableState {
                    wal,
                    dir: dir.clone(),
                    appends_since_snapshot: 0,
                    last_snapshot_at: Instant::now(),
                }))
            }
            None => None,
        };
        let workers = config.workers.max(1);
        let (tx, rx) = sync_channel::<Job>(config.queue_depth.max(1));
        let inner = Arc::new(ServerInner {
            engine: RwLock::new(engine),
            epoch: AtomicU64::new(0),
            version: AtomicU64::new(0),
            mutation: Mutex::new(()),
            results: Mutex::new(LruCache::new(config.result_cache)),
            plans: Mutex::new(LruCache::new(config.plan_cache)),
            counters: Counters::default(),
            telemetry: Telemetry::default(),
            closing: AtomicBool::new(false),
            drain_phase: AtomicU64::new(0),
            breakers: Mutex::new(FxHashMap::default()),
            inflight: Mutex::new(FxHashMap::default()),
            next_job: AtomicU64::new(0),
            feedback: Mutex::new(FeedbackStore::new()),
            durable,
            proc,
            config,
        });
        let had_snapshot = restored.is_some();
        let had_tail = !tail.is_empty();
        if let Some(snap) = restored {
            inner.restore_snapshot(snap);
        }
        if had_tail {
            inner.replay_wal(tail)?;
        }
        {
            let engine = inner.read_engine();
            // Bound the next recovery: a fresh directory gets a bootstrap
            // snapshot at version 0, a replayed one folds its WAL tail in.
            if inner.durable.is_some() && (!had_snapshot || had_tail) {
                inner.snapshot_now(engine.db())?;
            }
        }
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("mura-serve-{i}"))
                    .spawn(move || worker_loop(&inner, &rx))
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(Server { inner, tx, workers: handles })
    }

    /// Starts a server against a durable data directory, recovering any
    /// state a previous process left there: the newest valid snapshot is
    /// restored and the WAL tail replayed to the exact pre-crash version
    /// (database, cached views, planner feedback). Equivalent to
    /// [`Server::try_start`] except that it *requires*
    /// [`ServeConfig::data_dir`] to be set — call it when restart-safety is
    /// the point, so a misconfigured caller fails loudly instead of
    /// silently serving volatile state.
    pub fn recover(engine: QueryEngine, config: ServeConfig) -> ServeResult<Server> {
        if config.data_dir.is_none() {
            return Err(ServeError::Durability(
                "Server::recover requires ServeConfig::data_dir".into(),
            ));
        }
        Server::try_start(engine, config)
    }

    /// Supervisor health of the process cluster, if one is configured
    /// ([`ClusterMode::Processes`]); `None` for the in-process simulator.
    pub fn cluster_health(&self) -> Option<ClusterHealth> {
        self.inner.proc.as_ref().map(|p| p.health_snapshot())
    }

    /// A cheap, cloneable client handle. Clients stay valid for the
    /// server's lifetime; after shutdown they get [`ServeError::Closed`].
    pub fn client(&self) -> Client {
        Client { inner: Arc::clone(&self.inner), tx: self.tx.clone() }
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServeStats {
        stats_of(&self.inner)
    }

    /// The full telemetry as a Prometheus text-exposition page.
    pub fn metrics(&self) -> String {
        metrics_of(&self.inner)
    }

    /// Every declared counter the server exposes — its own set and those
    /// of the layers below — with its current value: what `.stats` and
    /// `.metrics` are rendered from.
    pub fn counter_rows(&self) -> Vec<Row> {
        rows_of(&self.inner)
    }

    /// Plans `query` without executing it and renders the planner's
    /// decision procedure (see the `.explain` protocol verb).
    pub fn explain(&self, query: &str) -> ServeResult<String> {
        explain_of(&self.inner, query)
    }

    /// Current database epoch (bumped by [`Server::load`] calls that
    /// change the catalog's shape).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Current database version (bumped by every mutation and load).
    pub fn version(&self) -> u64 {
        self.inner.version.load(Ordering::Acquire)
    }

    /// Applies an edge-level [`DeltaBatch`] without a reload, maintaining
    /// cached fixpoint views incrementally (see the module docs).
    pub fn apply_delta(&self, batch: DeltaBatch) -> ServeResult<DeltaSummary> {
        self.inner.apply_delta(batch)
    }

    /// Mutates the database (load relations, bind constants) and bumps the
    /// version so cached results for the old contents are never served
    /// again. Blocks until in-flight executions finish.
    ///
    /// Invalidation is scoped to what the load can actually have broken: a
    /// load that changes the catalog's *shape* (relations, columns,
    /// constants — see `schema_fingerprint`) also bumps the epoch, which
    /// orphans cached plans and resets breaker verdicts and admission
    /// statistics. A same-shape load (data refresh) keeps plans, breakers
    /// and cost history — only the data-dependent result cache goes stale,
    /// via the version bump.
    pub fn load(&self, f: impl FnOnce(&mut Database)) {
        self.try_load(f).expect("durable load");
    }

    /// Like [`Server::load`], surfacing durability failures (the WAL
    /// append of the post-load database) instead of panicking. Without a
    /// [`ServeConfig::data_dir`] this cannot fail.
    pub fn try_load(&self, f: impl FnOnce(&mut Database)) -> ServeResult<()> {
        let _mutation = lock(&self.inner.mutation);
        let mut engine = self.inner.write_engine();
        let before = schema_fingerprint(engine.db());
        f(engine.db_mut());
        let version = self.inner.version.fetch_add(1, Ordering::AcqRel) + 1;
        let epoch = if schema_fingerprint(engine.db()) != before {
            // Shape changed: plans interned against the old catalog are
            // unreachable, and verdicts / statistics from the old contents
            // don't carry over — a breaker opened against the previous
            // schema must not keep shedding a plan that may now succeed.
            lock(&self.inner.breakers).clear();
            self.inner.epoch.fetch_add(1, Ordering::AcqRel) + 1
        } else {
            self.inner.epoch.load(Ordering::Acquire)
        };
        // Loaded data invalidates everything the planner has measured —
        // drop the observations outright. `clear` keeps the generation, so
        // same-shape refreshes keep their cached plans until fresh
        // observations arrive and bump it.
        lock(&self.inner.feedback).clear();
        // Durability: a load's mutator is an opaque closure, so the WAL
        // records its *outcome* — the complete post-load database — rather
        // than the operation. Logged before this call returns, so a caller
        // that saw `Ok` can rely on the load surviving a crash.
        if let Some(durable) = &self.inner.durable {
            {
                let mut d = lock(durable);
                let bytes = d
                    .wal
                    .append_load(version, epoch, engine.db())
                    .map_err(|e| ServeError::Durability(format!("wal append (load): {e}")))?;
                self.inner.counters.wal_appends.inc();
                self.inner.counters.wal_bytes.add(bytes);
                d.appends_since_snapshot += 1;
            }
            self.inner.maybe_snapshot(engine.db())?;
        }
        Ok(())
    }

    /// Read access to the database (e.g. to resolve symbols in answers).
    pub fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(self.inner.read_engine().db())
    }

    /// Stops accepting queries, drains the queue and joins the workers.
    pub fn shutdown(mut self) {
        self.inner.closing.store(true, Ordering::SeqCst);
        for _ in 0..self.workers.len() {
            // Blocking send: queued real work drains ahead of the pills.
            let _ = self.tx.send(Job::Poison);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Only after every in-flight execution has finished: the fleet is
        // shared, and an exchange against dead workers would be a spurious
        // failure instead of a served answer.
        if let Some(proc) = &self.inner.proc {
            proc.shutdown();
        }
    }

    /// Graceful shutdown: stop accepting, let queued and in-flight
    /// queries finish within `config.drain_grace` (stragglers are
    /// cancelled, their replies still delivered — no response is ever
    /// dropped), join the workers and return the final counters.
    pub fn drain(mut self) -> ServeStats {
        let stats = self.client().request_drain();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(proc) = &self.inner.proc {
            proc.shutdown();
        }
        stats
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            // Already shut down explicitly; `shutdown`/`drain` also tore
            // down the process fleet (ProcCluster::shutdown is idempotent).
            if let Some(proc) = &self.inner.proc {
                proc.shutdown();
            }
            return;
        }
        self.inner.closing.store(true, Ordering::SeqCst);
        for _ in 0..self.workers.len() {
            let _ = self.tx.send(Job::Poison);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(proc) = &self.inner.proc {
            proc.shutdown();
        }
    }
}

fn worker_loop(inner: &ServerInner, rx: &Mutex<Receiver<Job>>) {
    loop {
        let job = match lock(rx).recv() {
            Ok(Job::Query(j)) => j,
            Ok(Job::Poison) | Err(_) => return,
        };
        inner.telemetry.queue.record(job.submitted.elapsed());
        let result = inner.process(&job);
        inner.telemetry.wall.record(job.submitted.elapsed());
        match &result {
            Ok(_) => inner.counters.completed.inc(),
            // A worker-side shed is already in `shed`; `failed` means
            // "executed and errored", so it lands in `shed_admitted`
            // instead — submit-side sheds hit neither.
            Err(ServeError::Overloaded { .. }) => inner.counters.shed_admitted.inc(),
            Err(_) => inner.counters.failed.inc(),
        };
        // The submitter may have given up waiting; that's fine.
        let _ = job.reply.send(result);
        lock(&inner.inflight).remove(&job.id);
    }
}

/// Plans a query without executing it and renders the planner's decision
/// procedure: enumeration breadth, per-group best costs, the chosen plan
/// and whether costing ran from observed cardinalities or static
/// statistics. Takes the engine write lock (UCRPQ translation interns
/// symbols) but does not populate the plan cache — an explain is a
/// diagnostic, not an admission.
fn explain_of(inner: &ServerInner, query: &str) -> ServeResult<String> {
    use std::fmt::Write as _;
    let (observations, generation) = {
        let fb = lock(&inner.feedback);
        (fb.observations(), fb.generation())
    };
    let obs = (!observations.is_empty()).then_some(observations);
    let mut engine = inner.write_engine();
    let (planned, report) = engine.plan_ucrpq_explained(query, obs)?;
    let mut out = String::new();
    match report {
        Some(r) => {
            let budget = if r.budget_hit { ", budget hit" } else { "" };
            let _ = writeln!(out, "planner      memoized enumeration");
            let _ =
                writeln!(out, "candidates   {} terms in {} groups{budget}", r.candidates, r.groups);
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
                let _ =
                    writeln!(out, "  group [{:>12.0}] x{:<3} {}", g.best_cost, g.members, g.label);
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

fn stats_of(inner: &ServerInner) -> ServeStats {
    let c = inner.counters.snapshot();
    let (breaker_open, breaker_half_open) = {
        let breakers = lock(&inner.breakers);
        let count = |s: BreakerState| breakers.values().filter(|b| b.state == s).count() as u64;
        (count(BreakerState::Open), count(BreakerState::HalfOpen))
    };
    // One lock for both feedback fields: guard temporaries inside the
    // struct literal would live to the end of the whole expression, and a
    // second `lock` on the same mutex there self-deadlocks.
    let (feedback_fixpoints, feedback_generation) = {
        let fb = lock(&inner.feedback);
        (fb.len() as u64, fb.generation())
    };
    let dictionary_symbols = inner.read_engine().db().dict().len() as u64;
    let kernel = kernel_stats().snapshot();
    let comm = inner.telemetry.comm.snapshot();
    ServeStats {
        plan_evictions: lock(&inner.plans).evictions(),
        result_evictions: lock(&inner.results).evictions(),
        breaker_open,
        breaker_half_open,
        mem_current_bytes: mem_gauge().current_bytes(),
        mem_high_water_bytes: mem_gauge().high_water_bytes(),
        drain_phase: inner.drain_phase.load(Ordering::SeqCst),
        feedback_fixpoints,
        feedback_generation,
        snapshot_age_seconds: inner
            .durable
            .as_ref()
            .map(|d| lock(d).last_snapshot_at.elapsed().as_secs())
            .unwrap_or(0),
        epoch: inner.epoch.load(Ordering::Acquire),
        version: inner.version.load(Ordering::Acquire),
        dictionary_symbols,
        ivm_fallbacks: c.ivm_fallback_non_monotone
            + c.ivm_fallback_nested_fixpoint
            + c.ivm_fallback_cache_cold
            + c.ivm_fallback_cost
            + c.ivm_fallback_other,
        kernel_index_builds: kernel.index_builds,
        kernel_join_probes: kernel.join_probes,
        kernel_rows_allocated: kernel.rows_allocated,
        comm_shuffles: comm.shuffles,
        comm_rows_shuffled: comm.rows_shuffled,
        comm_rows_broadcast: comm.rows_broadcast,
        ..c
    }
}

/// Every counter set the server exposes, as rows: its own, then those of
/// the layers below it. `.stats`, `.metrics` and the tests that hold the
/// two to the declarations all read this one list.
fn rows_of(inner: &ServerInner) -> Vec<Row> {
    let t = &inner.telemetry;
    let proc = inner.proc.as_ref();
    let mut rows = stats_of(inner).rows();
    rows.extend(kernel_stats().snapshot().rows());
    rows.extend(t.comm.snapshot().rows());
    rows.extend(t.faults.snapshot().rows());
    // All-zero under the in-process simulator, where there is no fleet:
    // the exposition is the same whatever the configured `ClusterMode`.
    rows.extend(proc.map(|p| p.health_snapshot()).unwrap_or_default().rows());
    rows.extend(proc.map(|p| p.worker_snapshot()).unwrap_or_default().rows());
    rows
}

/// The latency histograms, each with the family it is exposed as.
fn histograms_of(inner: &ServerInner) -> [(&'static str, &'static str, HistogramSnapshot); 7] {
    let t = &inner.telemetry;
    let rtt = inner.proc.as_ref().map(|p| p.rtt_snapshot()).unwrap_or_default();
    [
        (
            "mura_query_wall_seconds",
            "Submission-to-answer latency, queue time included.",
            t.wall.snapshot(),
        ),
        ("mura_query_queue_seconds", "Wait for a worker.", t.queue.snapshot()),
        (
            "mura_query_execution_seconds",
            "Evaluator time of fresh executions.",
            t.execution.snapshot(),
        ),
        (
            "mura_query_planning_seconds",
            "Planning time of plan-cache misses.",
            t.planning.snapshot(),
        ),
        (
            "mura_ivm_maintenance_seconds",
            "Per-view incremental maintenance latency.",
            t.maintenance.snapshot(),
        ),
        (
            "mura_worker_superstep_seconds",
            "Per-worker superstep durations across traced executions.",
            t.worker_superstep.snapshot(),
        ),
        (
            "mura_heartbeat_rtt_seconds",
            "Supervisor heartbeat round-trip times (process cluster only).",
            rtt,
        ),
    ]
}

const SKEW_FAMILY: &str = "mura_cluster_skew_ratio";

fn skew_ratio(inner: &ServerInner) -> f64 {
    inner.telemetry.skew_ratio_milli.load(Ordering::Relaxed) as f64 / 1000.0
}

/// The `.stats` report: one line per family of [`rows_of`], the skew
/// gauge, and p50/p95/p99 of every histogram.
fn stats_text_of(inner: &ServerInner) -> String {
    let mut out = String::new();
    let _ = write_stats(&rows_of(inner), &mut out);
    let _ = writeln!(out, "{:<32} {:.3}", stats_title(SKEW_FAMILY), skew_ratio(inner));
    for (family, _, h) in histograms_of(inner) {
        let [p50, p95, p99] = [0.50, 0.95, 0.99].map(|p| fmt_us(h.quantile_us(p).unwrap_or(0)));
        let (title, n) = (stats_title(family), h.count);
        let _ = writeln!(out, "{title:<32} p50 {p50} / p95 {p95} / p99 {p99} of {n}");
    }
    out
}

/// Renders the full telemetry of a server as a Prometheus text-exposition
/// page (format 0.0.4): every family of [`rows_of`], the skew gauge and
/// the latency histograms.
fn metrics_of(inner: &ServerInner) -> String {
    let mut p = PromText::new();
    p.rows(&rows_of(inner));
    p.gauge(
        SKEW_FAMILY,
        "Worst per-fixpoint max/median worker-time ratio of the last traced run.",
        skew_ratio(inner),
    );
    for (family, help, h) in histograms_of(inner) {
        p.histogram(family, help, &h);
    }
    p.finish()
}

/// A handle for submitting queries to a [`Server`]. Cloneable and
/// sendable across threads.
#[derive(Clone)]
pub struct Client {
    inner: Arc<ServerInner>,
    tx: SyncSender<Job>,
}

impl Client {
    /// Submits a query and blocks for the answer, under the server's
    /// default deadline (if any).
    pub fn query(&self, query: &str) -> ServeResult<Arc<QueryOutput>> {
        self.submit(query, self.inner.config.default_deadline)?.wait()
    }

    /// Submits a query and blocks for the answer under an explicit
    /// deadline. The deadline clock starts now — queue time counts.
    pub fn query_with_deadline(
        &self,
        query: &str,
        deadline: Duration,
    ) -> ServeResult<Arc<QueryOutput>> {
        self.submit(query, Some(deadline))?.wait()
    }

    /// Runs a query with per-superstep tracing forced on, bypassing the
    /// result cache, and blocks for the answer. The output's
    /// `stats.trace` then carries the full [`mura_dist::QueryTrace`]
    /// (superstep timeline, communication per iteration) — see the
    /// `.profile` protocol command.
    pub fn profile(&self, query: &str) -> ServeResult<Arc<QueryOutput>> {
        self.submit_traced(query, self.inner.config.default_deadline, TraceLevel::Superstep)?.wait()
    }

    /// Plans `query` without executing it and renders the planner's
    /// decision procedure — candidate counts, per-group best costs, the
    /// chosen plan, and whether costing used observed cardinalities. The
    /// `.explain` protocol verb lands here.
    pub fn explain(&self, query: &str) -> ServeResult<String> {
        explain_of(&self.inner, query)
    }

    /// Non-blocking submission. Returns a [`Pending`] on admission, or
    /// [`ServeError::Busy`] immediately when the queue is full.
    pub fn submit(&self, query: &str, deadline: Option<Duration>) -> ServeResult<Pending> {
        self.submit_traced(query, deadline, TraceLevel::Off)
    }

    fn submit_traced(
        &self,
        query: &str,
        deadline: Option<Duration>,
        trace: TraceLevel,
    ) -> ServeResult<Pending> {
        if self.inner.closing.load(Ordering::SeqCst) {
            return Err(ServeError::Closed);
        }
        // Overload gates, best effort before queueing: a cached plan gives
        // this query's canonical key (breaker) and byte estimate; a cold
        // query is gated on the live gauge alone and re-checked
        // authoritatively in `process` once planned. Gates never block, so
        // a caller with an expired deadline is never parked here.
        let epoch = self.inner.epoch.load(Ordering::Acquire);
        let cached_plan = lock(&self.inner.plans).get(&(query.to_string(), epoch));
        if let Some(c) = &cached_plan {
            self.inner.breaker_check(plan_key(&c.plan), false).map_err(|e| self.inner.shed(e))?;
        }
        if self.inner.config.memory_watermark_bytes.is_some() {
            // A planner or a mutation holding the engine: no estimate.
            let estimate = cached_plan
                .as_ref()
                .and_then(|c| {
                    let engine = self.inner.engine.try_read().ok()?;
                    self.inner.estimated_bytes(&c.plan, engine.db())
                })
                .unwrap_or(0);
            self.inner.memory_gate(estimate).map_err(|e| self.inner.shed(e))?;
        }
        let token = match deadline {
            Some(d) => CancellationToken::with_timeout(d),
            None => CancellationToken::new(),
        };
        let id = self.inner.next_job.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        let job = QueryJob {
            id,
            query: query.to_string(),
            token: token.clone(),
            trace,
            submitted: Instant::now(),
            reply: reply_tx,
        };
        // Register before enqueueing: a worker may finish (and deregister)
        // the job before try_send even returns.
        lock(&self.inner.inflight).insert(id, token.clone());
        match self.tx.try_send(Job::Query(job)) {
            Ok(()) => {
                self.inner.counters.submitted.inc();
                Ok(Pending { rx: reply_rx, token })
            }
            Err(send_err) => {
                lock(&self.inner.inflight).remove(&id);
                match send_err {
                    TrySendError::Full(_) => {
                        self.inner.counters.rejected.inc();
                        Err(ServeError::Busy {
                            queue_depth: self.inner.config.queue_depth.max(1),
                            retry_after_ms: (self.inner.config.retry_after.as_millis() as u64)
                                .max(1),
                        })
                    }
                    TrySendError::Disconnected(_) => Err(ServeError::Closed),
                }
            }
        }
    }

    /// Initiates and completes a graceful drain from any client handle
    /// (the `.drain` protocol verb lands here): stop admissions, let
    /// queued and in-flight queries finish within the configured grace,
    /// cancel stragglers (their replies are still delivered), and stop
    /// the workers. Worker threads stay joinable by the [`Server`] owner.
    /// Returns the final counters; concurrent callers return immediately
    /// with the current counters.
    pub fn request_drain(&self) -> ServeStats {
        let first = self
            .inner
            .drain_phase
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if first {
            self.inner.closing.store(true, Ordering::SeqCst);
            let grace = self.inner.config.drain_grace;
            // Watchdog: if the grace window passes before the queue
            // drains, cancel everything still registered — queued jobs
            // then resolve to `Cancelled` the moment a worker picks them
            // up, and running ones stop at their next superstep.
            let inner = Arc::clone(&self.inner);
            let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
            let watchdog = std::thread::Builder::new()
                .name("mura-serve-drain".into())
                .spawn(move || {
                    if done_rx.recv_timeout(grace).is_err() {
                        for token in lock(&inner.inflight).values() {
                            token.cancel();
                        }
                    }
                })
                .expect("spawn drain watchdog");
            // Blocking sends: every queued query drains ahead of the pills.
            for _ in 0..self.inner.config.workers.max(1) {
                let _ = self.tx.send(Job::Poison);
            }
            // Workers have consumed the whole queue; give executions still
            // in flight (at most one per worker) a bounded settle window.
            let settle = Instant::now();
            while !lock(&self.inner.inflight).is_empty() && settle.elapsed() < grace {
                std::thread::sleep(Duration::from_millis(2));
            }
            let _ = done_tx.send(());
            let _ = watchdog.join();
            self.inner.drain_phase.store(2, Ordering::SeqCst);
        }
        stats_of(&self.inner)
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServeStats {
        stats_of(&self.inner)
    }

    /// The `.stats` report: every counter set the server exposes, one line
    /// per family, and the latency quantiles.
    pub fn stats_text(&self) -> String {
        stats_text_of(&self.inner)
    }

    /// The full telemetry as a Prometheus text-exposition page.
    pub fn metrics(&self) -> String {
        metrics_of(&self.inner)
    }

    /// Read access to the database (resolve symbols, list relations).
    pub fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(self.inner.read_engine().db())
    }

    /// Current database version (bumped by every mutation and load).
    pub fn version(&self) -> u64 {
        self.inner.version.load(Ordering::Acquire)
    }

    /// Applies an edge-level [`DeltaBatch`], maintaining cached views
    /// incrementally — see [`Server::apply_delta`]. The `.insert` and
    /// `.delete` protocol verbs land here.
    pub fn apply_delta(&self, batch: DeltaBatch) -> ServeResult<DeltaSummary> {
        self.inner.apply_delta(batch)
    }
}

/// An admitted, in-flight query.
#[derive(Debug)]
pub struct Pending {
    rx: Receiver<ServeResult<Arc<QueryOutput>>>,
    token: CancellationToken,
}

impl Pending {
    /// Requests cancellation; the evaluator stops at its next superstep
    /// and the query resolves to [`MuraError::Cancelled`]
    /// (mura_core::MuraError::Cancelled).
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// The query's cancellation token (cloneable; share it to let others
    /// cancel).
    pub fn token(&self) -> &CancellationToken {
        &self.token
    }

    /// Blocks until the query resolves.
    pub fn wait(self) -> ServeResult<Arc<QueryOutput>> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Non-blocking poll; `None` while still running.
    pub fn try_wait(&self) -> Option<ServeResult<Arc<QueryOutput>>> {
        self.rx.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::MuraError;

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

    fn state_of(server: &Server, key: u64) -> Option<BreakerState> {
        lock(&server.inner.breakers).get(&key).map(|b| b.state)
    }

    /// Regression: a half-open probe that resolves to a neutral outcome
    /// (cancelled / timeout / transient — neither success nor a
    /// breaker-class failure) must settle the breaker back to `Open` with
    /// a fresh cooldown. Before the fix it stayed `HalfOpen`, whose check
    /// arm rejects unconditionally, shedding the plan forever.
    #[test]
    fn neutral_probe_outcome_reopens_instead_of_stranding_half_open() {
        let server = breaker_server();
        let inner = &server.inner;
        let key = 42;

        inner.breaker_record(key, &mem_exceeded());
        assert_eq!(state_of(&server, key), Some(BreakerState::Open));
        assert!(inner.breaker_check(key, true).is_err(), "open breaker rejects");

        std::thread::sleep(Duration::from_millis(40));
        assert!(inner.breaker_check(key, true).is_ok(), "cooldown elapsed: probe admitted");
        assert_eq!(state_of(&server, key), Some(BreakerState::HalfOpen));

        // The probe is cancelled mid-flight: inconclusive, so the breaker
        // re-opens (cooldown restarted) instead of stranding half-open.
        inner.breaker_record(key, &cancelled());
        assert_eq!(state_of(&server, key), Some(BreakerState::Open));
        assert!(inner.breaker_check(key, true).is_err(), "cooldown restarted");

        std::thread::sleep(Duration::from_millis(40));
        assert!(inner.breaker_check(key, true).is_ok(), "a later probe is admitted again");
        inner.breaker_record(key, &Ok(()));
        assert_eq!(state_of(&server, key), None, "successful probe closes the breaker");
        server.shutdown();
    }

    /// A neutral failure with no breaker history (closed state) stays
    /// invisible to the breaker: no entry is created, nothing trips.
    #[test]
    fn neutral_failure_without_history_leaves_no_breaker() {
        let server = breaker_server();
        server.inner.breaker_record(7, &cancelled());
        assert_eq!(state_of(&server, 7), None);
        assert!(server.inner.breaker_check(7, true).is_ok());
        server.shutdown();
    }

    /// A load that changes the catalog's shape clears old-epoch breakers —
    /// a plan convicted against the previous contents gets a clean slate.
    #[test]
    fn schema_changing_load_clears_breakers() {
        let server = breaker_server();
        server.inner.breaker_record(42, &mem_exceeded());
        assert_eq!(state_of(&server, 42), Some(BreakerState::Open));
        let before = server.version();
        server.load(|db| {
            let (a, b) = (db.intern("src"), db.intern("dst"));
            let rel = mura_core::Relation::from_pairs(a, b, [(1, 2)]);
            db.insert_relation(&format!("extra_{before}"), rel);
        });
        assert_eq!(state_of(&server, 42), None, "epoch bump must reset breakers");
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
        server.inner.breaker_record(42, &mem_exceeded());
        assert_eq!(state_of(&server, 42), Some(BreakerState::Open));
        let before = server.version();
        server.load(|_| {});
        assert_eq!(
            state_of(&server, 42),
            Some(BreakerState::Open),
            "same-shape load keeps breaker history"
        );
        assert_eq!(server.epoch(), 0, "epoch only moves when the shape changes");
        assert_eq!(server.version(), before + 1, "every load is still a new version");
        server.shutdown();
    }
}
