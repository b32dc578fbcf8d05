//! The simulated cluster: a worker pool plus shared communication metrics
//! and the task-level half of the fault-tolerance subsystem.
//!
//! Partition tasks run on real OS threads, so partition-parallel operators
//! genuinely run in parallel: the calling thread runs one task of a stage
//! and hands the others to a process-wide set of parked helper threads,
//! which outlive the stage (see `join_tasks`). "Communication" is modeled
//! as movement of rows between partitions and is charged to
//! [`CommStats`]. A task that reads at most [`LIGHT_TASK_ROWS`] rows is not
//! worth a hand-off and runs on the calling thread (see
//! [`Cluster::par_map_sized`]).
//!
//! Every partition task runs under a **task supervisor**: each attempt is
//! a [`FaultPlan::guarded`] one, so a panicking worker is captured as
//! `MuraError::WorkerFailed` instead of aborting the process, and
//! retryable failures (captured panics, transient errors — injected by the
//! [`FaultPlan`] or genuine) are retried with bounded exponential backoff.
//! Cancellation and deadlines are re-checked before every attempt, so a
//! cancelled query stops retrying immediately.

use crate::fault::{worker_failed, FaultPlan, RecoveryPolicy};
use crate::metrics::CommStats;
use crate::wire::TraceCtx;
use mura_core::{CancellationToken, Relation, Result, Rows, Schema};
use mura_obs::TraceEvent;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Everything a communication backend needs to run one exchange or
/// broadcast: the fault plan and site coordinates for deterministic
/// injection, the metrics sink for traffic accounting, the recovery policy
/// bounding repair loops, and the cancellation token.
pub struct ExchangeCtx<'a> {
    /// Fault plan driving injected drops/dups (both backends) and
    /// kills/connection-drops/socket-delays (process backend).
    pub fault: &'a FaultPlan,
    /// Driver-allocated fault site of this exchange.
    pub site: u64,
    /// Communication counters of the owning cluster.
    pub metrics: &'a CommStats,
    /// Bounds internal repair/retry loops.
    pub recovery: &'a RecoveryPolicy,
    /// Checked between repair attempts so cancelled queries stop promptly.
    pub cancel: Option<&'a CancellationToken>,
    /// Number of workers (= partitions).
    pub workers: usize,
    /// Trace context stamped onto data-plane frames (all-zero when the
    /// query is not being traced).
    pub trace: TraceCtx,
}

mura_obs::counter_set! {
    /// Lifetime supervision counters of the process backend (independent of
    /// any single query's [`CommStats`]); the in-process simulator has none
    /// and reports the all-zero [`ClusterHealth`].
    pub struct ClusterCounters => ClusterHealth {
        counter "mura_supervisor_events_total",
            "Supervisor journal events by kind (process cluster only)." {
            /// Worker processes respawned since startup.
            respawns {kind = "respawn"},
            /// Control/heartbeat connections re-established since startup.
            reconnects {kind = "reconnect"},
            /// Heartbeat deadlines missed by the supervisor since startup.
            liveness_misses {kind = "liveness_miss"},
        }
        counter "mura_cluster_rows_encoded_total",
            "Rows the coordinator encoded into exchange and broadcast frames." {
            /// A row counts once per exchange, however many attempts,
            /// injected retransmissions or duplicates carried its bytes;
            /// rows that stay on their worker are not encoded.
            rows_encoded,
        }
        counter "mura_cluster_rows_resident_total",
            "Broadcast rows not shipped because the worker already held the replica, per worker spared." {
            rows_resident,
        }
        supplied {
            gauge "mura_cluster_workers",
                "Configured process-cluster worker count (0 in in-process mode)." { workers }
            gauge "mura_cluster_workers_live",
                "Process-cluster workers currently answering heartbeats." { live }
        }
    }
}

/// What a supervisor journal entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorEventKind {
    /// A dead worker process was respawned.
    Respawn,
    /// A control/heartbeat connection was re-established.
    Reconnect,
    /// A heartbeat deadline was missed (the worker may be respawned next).
    LivenessMiss,
}

/// One supervisor journal entry: what happened to which worker, when
/// (µs on the coordinator's clock since backend startup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorEvent {
    /// Monotonic sequence number (journal order survives ring eviction).
    pub seq: u64,
    /// The coordinator [`Instant`] the event was journaled at.
    pub at: Instant,
    /// Affected worker index.
    pub worker: u32,
    /// What happened.
    pub kind: SupervisorEventKind,
}

/// Names the value of a broadcast across queries: the
/// [`mura_core::term_key`] of the closed subterm it is the value of, and
/// the newest [`mura_core::Database::relation_version`] among the stored
/// relations that subterm reads. Versions come from one process-wide
/// counter and every change to a relation draws one above all before it,
/// so the newest version alone tells apart every state of the relations the
/// subterm reads: two broadcasts with one identity carry the same rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicaId {
    pub term: u64,
    pub version: u64,
}

/// The communication fabric behind a [`Cluster`]: how bucketed exchange
/// data and broadcast relations move between partitions. The fixpoint
/// drivers never see this seam — they call [`Cluster::exchange_at`] /
/// [`Cluster::broadcast_rel`] and run unchanged on either backend.
///
/// Implementations: [`SimBackend`] (the in-process simulator — buckets are
/// concatenated driver-side, deterministic and dependency-free) and
/// [`crate::proc::ProcCluster`] (separate worker OS processes moving the
/// same buckets over length-delimited TCP frames).
pub trait CommBackend: Send + Sync + std::fmt::Debug {
    /// Short backend name for diagnostics (`"sim"` / `"proc"`).
    fn name(&self) -> &'static str;

    /// Fixed worker count this backend supports, if any. [`Cluster`]
    /// creation asserts compatibility when `Some`.
    fn worker_count(&self) -> Option<usize> {
        None
    }

    /// Performs one hash exchange: `buckets[from][to]` holds the rows
    /// worker `from` routed to worker `to`; the result is, per destination,
    /// every row it received, as one bag in source order. At-least-once
    /// delivery: injected drops are retransmitted, and injected duplicates
    /// are delivered — the bag holds them twice. Set semantics are the
    /// consumer's (see [`Cluster::exchange_at`]).
    fn exchange(
        &self,
        ctx: &ExchangeCtx<'_>,
        schema: &Schema,
        buckets: Vec<Vec<Rows>>,
    ) -> Result<Vec<Rows>>;

    /// Replicates `rel` to every worker. `id` names the value across
    /// queries (`None`: it has no name and always ships); the process
    /// backend ships it only to workers that do not hold it yet. Row
    /// accounting is the caller's and counts every broadcast, shipped or
    /// not.
    fn broadcast(&self, ctx: &ExchangeCtx<'_>, rel: &Relation, id: Option<ReplicaId>)
        -> Result<()>;

    /// Drains worker-side spans of `trace_id` into coordinator-clock
    /// [`TraceEvent`]s with timestamps relative to `base` (the trace
    /// sink's start instant), returning `(events, dropped)` where
    /// `dropped` counts spans evicted from worker rings before they could
    /// be flushed. The simulator has no remote spans — its workers record
    /// directly into the coordinator sink — so the default is empty,
    /// which keeps sim and proc traces identical modulo worker lanes.
    fn flush_trace(&self, _trace_id: u64, _base: Instant) -> (Vec<TraceEvent>, u64) {
        (Vec::new(), 0)
    }
}

/// The in-process simulator backend: the buckets bound for a destination
/// are concatenated on the driver; injected drops are
/// counted-and-retransmitted and injected duplicates delivered twice.
#[derive(Debug, Default)]
pub struct SimBackend;

impl CommBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn exchange(
        &self,
        ctx: &ExchangeCtx<'_>,
        schema: &Schema,
        buckets: Vec<Vec<Rows>>,
    ) -> Result<Vec<Rows>> {
        // How many copies of each bucket arrive, decided in source order.
        let mut copies = Vec::with_capacity(ctx.workers * ctx.workers);
        let mut sizes = vec![0; ctx.workers];
        for (from, outgoing) in buckets.iter().enumerate() {
            for (t, bucket) in outgoing.iter().enumerate() {
                let mut n = 1;
                if ctx.fault.is_active() && !bucket.is_empty() {
                    if ctx.fault.drop_exchange(ctx.site, from, t) {
                        // Lost in transit: the receiver's ack times out and
                        // the sender retransmits — we deliver the retry.
                        ctx.fault.record_time_lost(std::time::Duration::from_micros(
                            bucket.len() as u64
                        ));
                    }
                    n += usize::from(ctx.fault.duplicate_exchange(ctx.site, from, t));
                }
                copies.push(n);
                sizes[t] += n * bucket.len();
            }
        }
        let mut bags: Vec<Rows> =
            sizes.iter().map(|&size| Rows::with_capacity(schema.arity(), size)).collect();
        for (outgoing, copies) in buckets.iter().zip(copies.chunks(ctx.workers)) {
            for ((bag, bucket), &n) in bags.iter_mut().zip(outgoing).zip(copies) {
                (0..n).for_each(|_| bag.append(bucket));
            }
        }
        Ok(bags)
    }

    fn broadcast(&self, _: &ExchangeCtx<'_>, _: &Relation, _: Option<ReplicaId>) -> Result<()> {
        // Replication is free in the simulator: workers share the driver's
        // address space, so the broadcast variable is the `Arc` itself.
        Ok(())
    }
}

/// A simulated Spark-like cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    workers: usize,
    metrics: Arc<CommStats>,
    fault: Arc<FaultPlan>,
    recovery: RecoveryPolicy,
    cancel: Option<CancellationToken>,
    backend: Arc<dyn CommBackend>,
    /// Current trace context, updated by the evaluator at fixpoint /
    /// superstep boundaries and stamped onto every exchange or broadcast
    /// the drivers run in between. Shared across clones like the metrics.
    trace_ctx: Arc<Mutex<TraceCtx>>,
}

impl Cluster {
    /// A cluster with `workers` workers (the paper uses 4) and no fault
    /// injection.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        Cluster {
            workers,
            metrics: Arc::new(CommStats::default()),
            fault: Arc::new(FaultPlan::disabled()),
            recovery: RecoveryPolicy::default(),
            cancel: None,
            backend: Arc::new(SimBackend),
            trace_ctx: Arc::new(Mutex::new(TraceCtx::default())),
        }
    }

    /// Attaches a fault plan and recovery policy (see [`crate::fault`]).
    pub fn with_faults(mut self, plan: Arc<FaultPlan>, recovery: RecoveryPolicy) -> Self {
        self.fault = plan;
        self.recovery = recovery;
        self
    }

    /// Attaches a cancellation token, consulted before every task attempt
    /// (including retries) so cancelled queries stop retrying.
    pub fn with_cancel(mut self, cancel: Option<CancellationToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Swaps the communication backend (default: [`SimBackend`]). The
    /// worker counts must agree — partitions map 1:1 onto backend workers.
    pub fn with_backend(mut self, backend: Arc<dyn CommBackend>) -> Self {
        if let Some(n) = backend.worker_count() {
            assert_eq!(
                n, self.workers,
                "backend has {n} workers but the cluster was built for {}",
                self.workers
            );
        }
        self.backend = backend;
        self
    }

    /// Number of workers (= number of partitions of every dataset).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Shared communication counters.
    pub fn metrics(&self) -> &CommStats {
        &self.metrics
    }

    /// The fault plan tasks are supervised under.
    pub fn fault(&self) -> &Arc<FaultPlan> {
        &self.fault
    }

    /// The communication backend moving exchange/broadcast data.
    pub fn backend(&self) -> &Arc<dyn CommBackend> {
        &self.backend
    }

    /// Updates the trace context stamped onto subsequent data-plane
    /// frames. The evaluator calls this at fixpoint and superstep
    /// boundaries; with tracing off the context stays all-zero.
    pub fn set_trace_ctx(&self, ctx: TraceCtx) {
        *self.trace_ctx.lock().unwrap_or_else(|e| e.into_inner()) = ctx;
    }

    /// The trace context currently in effect.
    pub fn trace_ctx(&self) -> TraceCtx {
        *self.trace_ctx.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs one hash exchange through the backend at fault site `site`:
    /// `buckets[from][to]` are the rows worker `from` routed to worker
    /// `to`; returns the destination partitions, each deduplicated by its
    /// own task ([`Relation::from_bag`]).
    pub fn exchange_at(
        &self,
        site: u64,
        schema: &Schema,
        buckets: Vec<Vec<Rows>>,
    ) -> Result<Vec<Relation>> {
        let bags = self.exchange_bags_at(site, schema, buckets)?;
        let tasks = bags.into_iter().map(|bag| {
            let light = bag.len() <= LIGHT_TASK_ROWS;
            (light, move || Ok(Relation::from_bag(schema.clone(), bag)))
        });
        join_tasks(tasks)
    }

    /// [`Cluster::exchange_at`] without the deduplication: per destination,
    /// every row it received, injected duplicates included.
    pub fn exchange_bags_at(
        &self,
        site: u64,
        schema: &Schema,
        buckets: Vec<Vec<Rows>>,
    ) -> Result<Vec<Rows>> {
        self.backend.exchange(&self.exchange_ctx(site), schema, buckets)
    }

    /// What the backend runs an exchange or a broadcast at `site` under.
    fn exchange_ctx(&self, site: u64) -> ExchangeCtx<'_> {
        ExchangeCtx {
            fault: &self.fault,
            site,
            metrics: &self.metrics,
            recovery: &self.recovery,
            cancel: self.cancel.as_ref(),
            workers: self.workers,
            trace: self.trace_ctx(),
        }
    }

    /// Replicates `rel`, the value named `id` ([`ReplicaId`]), to every
    /// worker through the backend, recording the row accounting: the
    /// paper's broadcast, counted per query whatever crossed a socket. The
    /// simulator's broadcast is free (shared address space); the process
    /// backend ships the encoded relation to each worker that lacks it and
    /// allocates its own fault site internally, so simulator fault streams
    /// are unaffected by this call.
    pub fn broadcast_rel(&self, rel: &Relation, id: Option<ReplicaId>) -> Result<()> {
        self.metrics.record_broadcast(rel.len() as u64, self.workers);
        self.backend.broadcast(&self.exchange_ctx(0), rel, id)
    }

    /// Runs `f(i, &items[i])` on every worker in parallel, collecting the
    /// results in worker order. A worker panic is captured and reported as
    /// `MuraError::WorkerFailed` after the supervisor's retries are
    /// exhausted — one bad partition does not abort the process.
    ///
    /// `rows(&items[i])` bounds what task `i` reads, and with it what it
    /// costs: a task of at most [`LIGHT_TASK_ROWS`] runs on the calling
    /// thread (see `join_tasks`). Same results, same fault sites, same
    /// supervision — only where the task body executes differs.
    pub fn par_map_sized<T, R, F>(
        &self,
        items: &[T],
        rows: impl Fn(&T) -> usize,
        f: F,
    ) -> Result<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.try_par_map_sized(items, rows, |i, item| Ok(f(i, item)))
    }

    /// [`Cluster::try_par_map_sized`] for tasks of unknown cost: each is
    /// heavy.
    pub fn try_par_map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> Result<R> + Sync,
    {
        self.try_par_map_sized(items, |_| usize::MAX, f)
    }

    /// [`Cluster::par_map_sized`] for fallible tasks: `Err` results
    /// short-circuit (retryable ones after supervision).
    ///
    /// Adds **stage-level recovery** on top of the in-task retries: the
    /// tasks of a stage are pure functions of `items`, so when one site
    /// exhausts its retries the whole stage re-runs at a fresh site
    /// (Spark's lineage recomputation, bounded by
    /// [`RecoveryPolicy::max_restores`]). Fixpoint supersteps bypass this
    /// through [`Cluster::try_par_map_at`] — their failures escalate to the
    /// loop's checkpoint restore / restart instead.
    pub fn try_par_map_sized<T, R, F>(
        &self,
        items: &[T],
        rows: impl Fn(&T) -> usize,
        f: F,
    ) -> Result<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> Result<R> + Sync,
    {
        self.recovery.rerun(
            || self.cancel.as_ref().map_or(Ok(()), CancellationToken::check),
            || self.fault.stats.stage_reruns.inc(),
            |_| self.try_par_map_at(self.fault.next_site(), 0, items, &rows, &f),
        )
    }

    /// The full supervisor entry point: runs the tasks at an explicit fault
    /// `site` with attempt numbering starting at `attempt_base`, and no
    /// stage rerun — a failure that outlasts the task retries goes to the
    /// caller. The `P_gld` superstep runs its branch stages here, each at a
    /// fresh [`FaultPlan::next_site`] on every attempt: a replayed superstep
    /// rolls afresh, it does not revisit the site that failed it. `rows`
    /// sizes the tasks' inputs, as in [`Cluster::par_map_sized`].
    pub fn try_par_map_at<T, R, F>(
        &self,
        site: u64,
        attempt_base: u32,
        items: &[T],
        rows: impl Fn(&T) -> usize,
        f: F,
    ) -> Result<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> Result<R> + Sync,
    {
        assert_eq!(items.len(), self.workers, "one item per worker expected");
        let f = &f;
        join_tasks(items.iter().enumerate().map(|(i, item)| {
            let task = move || self.run_task(site, attempt_base, i, || f(i, item), || true);
            (rows(item) <= LIGHT_TASK_ROWS, task)
        }))
    }

    /// [`Cluster::try_par_map_at`] for tasks that own their item — a
    /// partition to update in place, rows to move rather than copy. Fault
    /// injection, panic capture, cancellation and retries are the same,
    /// except that an item is handed to `f` only once: injected faults fire
    /// before `f` runs and are retried as usual, but a failure of `f` itself
    /// is final for the task (its input is gone) and goes to the caller,
    /// whose own recovery must not rely on what `f` was given.
    pub fn try_par_map_owned_at<T, R, F>(
        &self,
        site: u64,
        attempt_base: u32,
        items: Vec<T>,
        rows: impl Fn(&T) -> usize,
        f: F,
    ) -> Result<Vec<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> Result<R> + Sync,
    {
        assert_eq!(items.len(), self.workers, "one item per worker expected");
        let f = &f;
        join_tasks(items.into_iter().enumerate().map(|(i, item)| {
            let light = rows(&item) <= LIGHT_TASK_ROWS;
            let task = move || {
                let slot = Cell::new(Some(item));
                let unused = Cell::new(true);
                self.run_task(
                    site,
                    attempt_base,
                    i,
                    || {
                        unused.set(false);
                        f(i, slot.take().expect("an owned item is handed out once"))
                    },
                    || unused.get(),
                )
            };
            (light, task)
        }))
    }

    /// Runs one partition task under supervision: every attempt is a
    /// fault-guarded one at `(site, i, step 0)`, retried with backoff after a
    /// retryable failure for as long as `may_retry` holds and the retry
    /// budget lasts, with a cancellation check before each.
    fn run_task<R>(
        &self,
        site: u64,
        attempt_base: u32,
        i: usize,
        mut attempt: impl FnMut() -> Result<R>,
        may_retry: impl Fn() -> bool,
    ) -> Result<R> {
        let mut retry = 0u32;
        loop {
            // A cancelled or deadline-expired query must not keep retrying.
            if let Some(c) = &self.cancel {
                c.check()?;
            }
            match self.fault.guarded(site, i, 0, attempt_base + retry, &mut attempt) {
                Err(e) if e.is_retryable() && may_retry() && retry < self.recovery.max_retries => {
                    self.fault.stats.task_retries.inc();
                    let backoff = self.recovery.backoff(retry);
                    self.fault.record_time_lost(backoff);
                    std::thread::sleep(backoff);
                    retry += 1;
                }
                other => return other,
            }
        }
    }
}

/// Input rows at or under which a task is *light*: it runs on the calling
/// thread instead of being handed to a helper. A stage that hands a task
/// off costs 14–17 µs on a 2-vCPU host — another core has to be woken
/// twice, the part of a stage that depends on the machine rather than on
/// the data — about what a join kernel spends on a few hundred rows. End to
/// end, thresholds of 256 and 4096 rows ran the benchmark's `classes_sim`
/// within 3% of this one, none of them ahead in every round. The tail
/// supersteps of a fixpoint and the operators around a filtered seed are
/// almost all light.
pub const LIGHT_TASK_ROWS: usize = 1024;

/// Runs one task per worker — `(light, task)` — and collects the results
/// in worker order. The calling thread, which would otherwise only wait,
/// runs the last heavy task and all the light ones; every other heavy task
/// is handed to a helper thread ([`Helpers`]). A panic that escapes a
/// handed-off task comes back as [`mura_core::MuraError::WorkerFailed`] of
/// its worker; one that escapes a task of the caller unwinds — once every
/// handed-off task has finished.
fn join_tasks<R, Task>(tasks: impl Iterator<Item = (bool, Task)>) -> Result<Vec<R>>
where
    R: Send,
    Task: FnOnce() -> Result<R> + Send,
{
    HELPERS.join(tasks)
}

/// The helper threads every stage of the process hands its tasks to.
static HELPERS: Helpers = Helpers::new();

/// A set of parked helper threads. It starts empty and grows by one thread
/// only when a task is handed off and no helper is free, so it never holds
/// more threads than the most tasks ever handed off at once, and a stage
/// never waits for a helper that another stage keeps busy. Helpers never
/// exit.
struct Helpers {
    pool: Mutex<Pool>,
    /// Signalled once per job queued for a free helper.
    wake: Condvar,
}

struct Pool {
    /// Jobs handed to free helpers and not yet taken; each was counted off
    /// `free` when it was queued, so every one has a helper coming for it.
    queue: VecDeque<Job>,
    /// Parked helpers no queued job is counted against.
    free: usize,
    /// Helper threads started.
    threads: usize,
}

/// A handed-off task, and the latch of its stage: `done` counts it down
/// when the job has run, or when it is dropped without running.
struct Job {
    run: Box<dyn FnOnce() + Send>,
    done: Done,
}

/// Counts its stage's latch down when dropped.
struct Done(Arc<Latch>);

impl Drop for Done {
    fn drop(&mut self) {
        let mut pending = lock(&self.0.pending);
        *pending -= 1;
        if *pending == 0 {
            self.0.finished.notify_all();
        }
    }
}

/// The handed-off jobs of one stage that have not finished.
#[derive(Default)]
struct Latch {
    pending: Mutex<usize>,
    finished: Condvar,
}

/// Waits, when dropped — on return and on unwind alike — until every job
/// counted on its latch has finished.
struct WaitAll(Option<Arc<Latch>>);

impl Drop for WaitAll {
    fn drop(&mut self) {
        if let Some(latch) = &self.0 {
            let mut pending = lock(&latch.pending);
            while *pending > 0 {
                pending = latch.finished.wait(pending).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Locks `m`; no critical section here leaves its data half updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Helpers {
    const fn new() -> Helpers {
        Helpers {
            pool: Mutex::new(Pool { queue: VecDeque::new(), free: 0, threads: 0 }),
            wake: Condvar::new(),
        }
    }

    /// `join_tasks` over this set of helpers.
    fn join<R, Task>(&'static self, tasks: impl Iterator<Item = (bool, Task)>) -> Result<Vec<R>>
    where
        R: Send,
        Task: FnOnce() -> Result<R> + Send,
    {
        let tasks: Vec<(bool, Task)> = tasks.collect();
        let last_heavy = tasks.iter().rposition(|(light, _)| !light);
        let mut results: Vec<Option<Result<R>>> = tasks.iter().map(|_| None).collect();
        {
            let mut wait = WaitAll(None);
            let mut mine = Vec::new();
            for ((i, (light, task)), slot) in tasks.into_iter().enumerate().zip(&mut results) {
                if light || Some(i) == last_heavy {
                    mine.push((task, slot));
                    continue;
                }
                let run: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let out = catch_unwind(AssertUnwindSafe(task));
                    *slot = Some(out.unwrap_or_else(|payload| Err(worker_failed(i, payload))));
                });
                // SAFETY: `run` borrows `results` and what `task` borrows,
                // all of which outlive this block. The job's `Done` is
                // counted on the latch of `wait` before the job leaves this
                // thread, and `wait` is dropped at the end of the block — on
                // return and on unwind alike — where it blocks until every
                // job counted has run and been dropped (or was dropped
                // without running). So no job outlives what it borrows, and
                // erasing the lifetime only lets it cross to a helper.
                let run = unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce() + Send + '_>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(run)
                };
                let latch = wait.0.get_or_insert_with(Default::default);
                *lock(&latch.pending) += 1;
                self.hand_off(Job { run, done: Done(Arc::clone(latch)) });
            }
            for (task, slot) in mine {
                *slot = Some(task());
            }
        }
        results.into_iter().map(|r| r.expect("every task ran")).collect()
    }

    /// Gives `job` to a free helper, or to a new one if none is free.
    fn hand_off(&'static self, job: Job) {
        let mut pool = lock(&self.pool);
        if pool.free > 0 {
            pool.free -= 1;
            pool.queue.push_back(job);
            drop(pool);
            self.wake.notify_one();
            return;
        }
        pool.threads += 1;
        drop(pool);
        // On failure the job is dropped unrun, which counts it down.
        let spawned =
            std::thread::Builder::new().name("mura-helper".into()).spawn(move || self.serve(job));
        if let Err(e) = spawned {
            lock(&self.pool).threads -= 1;
            panic!("failed to start a helper thread: {e}");
        }
    }

    /// A helper's life: run the job, become free, take the next one.
    fn serve(&self, mut job: Job) {
        loop {
            let Job { run, done } = job;
            run();
            // Free before the stage learns that the job has finished: a
            // stage started after this one finds the helper free.
            lock(&self.pool).free += 1;
            drop(done);
            let mut pool = lock(&self.pool);
            job = loop {
                match pool.queue.pop_front() {
                    Some(next) => break next,
                    None => pool = self.wake.wait(pool).unwrap_or_else(PoisonError::into_inner),
                }
            };
        }
    }
}

impl Default for Cluster {
    /// The paper's 4-worker setup.
    fn default() -> Self {
        Cluster::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use mura_core::MuraError;

    #[test]
    fn par_map_preserves_order() {
        let c = Cluster::new(4);
        let data = vec![1u64, 2, 3, 4];
        let out = c.par_map_sized(&data, |_| usize::MAX, |i, x| (i, x * 10)).unwrap();
        assert_eq!(out, vec![(0, 10), (1, 20), (2, 30), (3, 40)]);
    }

    #[test]
    fn last_task_runs_on_the_calling_thread() {
        let c = Cluster::new(3);
        let caller = std::thread::current().id();
        let on_caller =
            c.try_par_map(&[(); 3], |_, _| Ok(std::thread::current().id() == caller)).unwrap();
        assert_eq!(on_caller, vec![false, false, true]);
    }

    #[test]
    fn light_tasks_run_on_the_calling_thread() {
        // Sized by the item itself. The caller takes the last heavy task
        // and every light one; a stage with one heavy task hands off
        // nothing.
        let c = Cluster::new(4);
        let caller = std::thread::current().id();
        let on_caller = |items: [usize; 4]| {
            let rows = |n: &usize| *n;
            c.par_map_sized(&items, rows, |_, _| std::thread::current().id() == caller).unwrap()
        };
        let heavy = LIGHT_TASK_ROWS + 1;
        assert_eq!(on_caller([0, LIGHT_TASK_ROWS, 1, 7]), vec![true; 4]);
        assert_eq!(on_caller([0, heavy, 1, 7]), vec![true; 4]);
        assert_eq!(on_caller([heavy, 0, heavy, 3]), vec![false, true, true, true]);
        assert_eq!(on_caller([heavy; 4]), vec![false, false, false, true]);
    }

    #[test]
    fn light_tasks_are_supervised_like_any_other() {
        // Same sites, same retries, same panic capture, whichever thread
        // runs the body.
        let cfg = FaultConfig { transient_prob: 0.9, seed: 5, ..Default::default() };
        let run = |rows: usize| {
            let plan = Arc::new(FaultPlan::new(cfg));
            let c = Cluster::new(4).with_faults(Arc::clone(&plan), RecoveryPolicy::default());
            let out = c.par_map_sized(&[1u64, 2, 3, 4], |_| rows, |i, x| (i, x * 10));
            (out, plan.snapshot().task_retries, plan.snapshot().stage_reruns)
        };
        let (light, heavy) = (run(0), run(usize::MAX));
        assert_eq!(light.0.as_ref().unwrap(), &vec![(0, 10), (1, 20), (2, 30), (3, 40)]);
        assert_eq!((&light.0, light.1, light.2), (&heavy.0, heavy.1, heavy.2));
        assert!(light.1 > 0);
        let c = Cluster::new(2);
        let err = c
            .par_map_sized(&[1u64, 2], |_| 0, |i, _| assert!(i != 1, "light task boom"))
            .unwrap_err();
        assert!(
            matches!(&err, MuraError::WorkerFailed { worker: 1, payload } if payload.contains("boom"))
        );
    }

    #[test]
    fn owned_items_survive_injected_faults_and_are_handed_out_once() {
        // Injected faults fire before the task body: the items are still
        // there when the site heals, and every body runs exactly once.
        let cfg = FaultConfig { transient_prob: 0.9, seed: 5, ..Default::default() };
        let plan = Arc::new(FaultPlan::new(cfg));
        let c = Cluster::new(4).with_faults(Arc::clone(&plan), RecoveryPolicy::default());
        let items: Vec<Vec<u64>> = (0..4).map(|i| vec![i; 3]).collect();
        let site = c.fault().next_site();
        let out =
            c.try_par_map_owned_at(site, 0, items, Vec::len, |i, v| Ok((i, v.len()))).unwrap();
        assert_eq!(out, vec![(0, 3), (1, 3), (2, 3), (3, 3)]);
        assert!(plan.snapshot().task_retries > 0);

        // A body that fails has consumed its item: no retry, the (still
        // retryable) error goes to the caller.
        let c = Cluster::new(2);
        let calls = std::sync::atomic::AtomicU32::new(0);
        let err = c
            .try_par_map_owned_at(
                0,
                0,
                vec![1u64, 2],
                |_| usize::MAX,
                |i, _| {
                    calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    if i == 0 {
                        Err(MuraError::TransientFault { worker: 0 })
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap_err();
        assert!(err.is_retryable(), "{err:?}");
        assert_eq!(calls.into_inner(), 2, "one call per item, none repeated");
    }

    #[test]
    fn single_worker_runs_inline() {
        let c = Cluster::new(1);
        let out = c.try_par_map(&[7u64], |_, x| Ok(x + 1)).unwrap();
        assert_eq!(out, vec![8]);
    }

    #[test]
    #[should_panic(expected = "one item per worker")]
    fn wrong_partition_count_panics() {
        let c = Cluster::new(2);
        let _ = c.try_par_map(&[1], |_, x| Ok(*x));
    }

    #[test]
    fn metrics_shared_across_clones() {
        let c = Cluster::new(2);
        let c2 = c.clone();
        c.metrics().record_shuffle(5);
        assert_eq!(c2.metrics().snapshot().rows_shuffled, 5);
    }

    #[test]
    fn worker_panic_becomes_error_not_abort() {
        let c = Cluster::new(4);
        let data = vec![0u64, 1, 2, 3];
        let err = c
            .try_par_map(&data, |_, x| {
                if *x == 2 {
                    panic!("boom on partition 2");
                }
                Ok(*x)
            })
            .unwrap_err();
        match err {
            MuraError::WorkerFailed { worker, payload } => {
                assert_eq!(worker, 2);
                assert!(payload.contains("boom"), "{payload}");
            }
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
    }

    #[test]
    fn a_handed_off_task_that_panics_outside_guarded_is_worker_failed() {
        let tasks = (0..3usize).map(|i| {
            let task = move || -> Result<usize> {
                assert!(i != 1, "escaped the guard");
                Ok(i)
            };
            (false, task)
        });
        let err = join_tasks(tasks).unwrap_err();
        assert!(
            matches!(&err, MuraError::WorkerFailed { worker: 1, payload } if payload.contains("escaped")),
            "{err:?}"
        );
    }

    #[test]
    fn a_panicking_caller_task_unwinds_after_every_handed_off_job() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let finished = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            join_tasks((0..3usize).map(|i| {
                let finished = &finished;
                let task = move || -> Result<()> {
                    // The last task is the caller's.
                    assert!(i != 2, "caller boom");
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    finished.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                };
                (false, task)
            }))
        }));
        assert!(outcome.is_err(), "the caller's panic unwinds");
        assert_eq!(finished.load(Ordering::SeqCst), 2, "both handed-off jobs ran first");
    }

    #[test]
    fn a_stage_started_inside_a_helper_job_completes() {
        let c = Cluster::new(2);
        let caller = std::thread::current().id();
        let out = c
            .try_par_map(&[1u64, 2], |i, x| {
                let inner = Cluster::new(2).try_par_map(&[10u64, 20], |_, y| Ok(x * y))?;
                Ok((i == 0 && std::thread::current().id() != caller, inner.iter().sum::<u64>()))
            })
            .unwrap();
        assert_eq!(out, vec![(true, 30), (false, 60)]);
    }

    #[test]
    fn eight_threads_running_stages_at_once_share_at_most_eight_helpers() {
        // A set of its own, so that other tests' stages do not count.
        let helpers: &'static Helpers = Box::leak(Box::new(Helpers::new()));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                s.spawn(move || {
                    for stage in 0..50u64 {
                        let tasks =
                            (0..2u64).map(|w| (false, move || Ok(t * 1000 + stage * 2 + w)));
                        let want = vec![t * 1000 + stage * 2, t * 1000 + stage * 2 + 1];
                        assert_eq!(helpers.join(tasks).unwrap(), want);
                    }
                });
            }
        });
        let threads = lock(&helpers.pool).threads;
        assert!((1..=8).contains(&threads), "{threads} helpers for 8 concurrent hand-offs");
    }

    #[test]
    fn injected_transient_is_retried_to_success() {
        // failures_per_site(1) ≤ max_retries(2): every afflicted site heals
        // within the retry budget, so the map always succeeds.
        let cfg = FaultConfig { transient_prob: 0.9, seed: 5, ..Default::default() };
        let plan = Arc::new(FaultPlan::new(cfg));
        let c = Cluster::new(4).with_faults(Arc::clone(&plan), RecoveryPolicy::default());
        let data = vec![1u64, 2, 3, 4];
        let out = c.try_par_map(&data, |_, x| Ok(x * 2)).unwrap();
        assert_eq!(out, vec![2, 4, 6, 8]);
        let s = plan.snapshot();
        assert!(s.injected_transients > 0, "{s}");
        assert_eq!(s.task_retries, s.injected_transients, "each injection costs one retry");
    }

    #[test]
    fn injected_panic_is_retried_to_success() {
        let cfg = FaultConfig { panic_prob: 0.9, seed: 6, ..Default::default() };
        let plan = Arc::new(FaultPlan::new(cfg));
        let c = Cluster::new(4).with_faults(Arc::clone(&plan), RecoveryPolicy::default());
        let data = vec![1u64, 2, 3, 4];
        let out = c.try_par_map(&data, |_, x| Ok(*x)).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert!(plan.snapshot().injected_panics > 0);
    }

    #[test]
    fn hard_fault_exhausts_retries() {
        // failures_per_site far above max_retries: the afflicted site never
        // heals within one task's budget, so the error escalates.
        let cfg = FaultConfig {
            transient_prob: 1.0,
            failures_per_site: 100,
            seed: 1,
            ..Default::default()
        };
        let plan = Arc::new(FaultPlan::new(cfg));
        let policy = RecoveryPolicy { max_retries: 2, backoff_base_ms: 0, ..Default::default() };
        let c = Cluster::new(2).with_faults(plan, policy);
        let err = c.try_par_map(&[1u64, 2], |_, x| Ok(*x)).unwrap_err();
        assert!(matches!(err, MuraError::TransientFault { .. }), "{err:?}");
    }

    #[test]
    fn cancellation_stops_retry_loop() {
        let cfg = FaultConfig {
            transient_prob: 1.0,
            failures_per_site: 1_000,
            seed: 2,
            ..Default::default()
        };
        let plan = Arc::new(FaultPlan::new(cfg));
        // Enough retries that an un-checked loop would spin visibly long.
        let policy =
            RecoveryPolicy { max_retries: 10_000, backoff_base_ms: 1, ..Default::default() };
        let token = CancellationToken::new();
        token.cancel();
        let c = Cluster::new(2).with_faults(plan, policy).with_cancel(Some(token));
        let err = c.try_par_map(&[1u64, 2], |_, x| Ok(*x)).unwrap_err();
        assert!(matches!(err, MuraError::Cancelled), "{err:?}");
    }

    #[test]
    fn straggler_injection_counted() {
        let cfg = FaultConfig {
            straggler_prob: 1.0,
            straggler_delay_ms: 1,
            seed: 3,
            ..Default::default()
        };
        let plan = Arc::new(FaultPlan::new(cfg));
        let c = Cluster::new(2).with_faults(Arc::clone(&plan), RecoveryPolicy::default());
        let out = c.try_par_map(&[1u64, 2], |_, x| Ok(*x)).unwrap();
        assert_eq!(out, vec![1, 2]);
        assert_eq!(plan.snapshot().injected_stragglers, 2);
    }
}
