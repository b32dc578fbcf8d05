//! The simulated cluster: a worker pool plus shared communication metrics
//! and the task-level half of the fault-tolerance subsystem.
//!
//! Workers are real OS threads (scoped), so partition-parallel operators
//! genuinely run in parallel; "communication" is modeled as movement of
//! rows between partitions and is charged to [`CommStats`]. A task that
//! reads at most [`LIGHT_TASK_ROWS`] rows is not worth a thread and runs on
//! the calling one (see [`Cluster::par_map_sized`]).
//!
//! Every partition task runs under a **task supervisor**: each attempt is
//! a [`FaultPlan::guarded`] one, so a panicking worker is captured as
//! `MuraError::WorkerFailed` instead of aborting the process, and
//! retryable failures (captured panics, transient errors — injected by the
//! [`FaultPlan`] or genuine) are retried with bounded exponential backoff.
//! Cancellation and deadlines are re-checked before every attempt, so a
//! cancelled query stops retrying immediately.

use crate::fault::{join_worker, FaultPlan, RecoveryPolicy};
use crate::metrics::CommStats;
use crate::wire::TraceCtx;
use mura_core::{CancellationToken, Relation, Result, Rows, Schema};
use mura_obs::TraceEvent;
use std::cell::Cell;
use std::sync::{Arc, Mutex};
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
/// merged driver-side, deterministic and dependency-free) and
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
    /// worker `from` routed to worker `to` — cut from a set, so distinct
    /// among themselves, though another source may route the same row; the
    /// result is the merged partition of every destination. At-least-once
    /// delivery with set semantics: injected drops are retransmitted,
    /// injected duplicates are absorbed by the set merge.
    fn exchange(
        &self,
        ctx: &ExchangeCtx<'_>,
        schema: &Schema,
        buckets: Vec<Vec<Rows>>,
    ) -> Result<Vec<Relation>>;

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

/// The in-process simulator backend: buckets are merged on the driver;
/// injected drops are counted-and-retransmitted and injected duplicates
/// delivered twice, exactly as the exchange layer always behaved.
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
    ) -> Result<Vec<Relation>> {
        let mut parts: Vec<Relation> =
            (0..ctx.workers).map(|_| Relation::new(schema.clone())).collect();
        for (from, worker_buckets) in buckets.into_iter().enumerate() {
            for (t, bucket) in worker_buckets.into_iter().enumerate() {
                if ctx.fault.is_active() && !bucket.is_empty() {
                    if ctx.fault.drop_exchange(ctx.site, from, t) {
                        // Lost in transit: the receiver's ack times out and
                        // the sender retransmits — we deliver the retry.
                        ctx.fault.record_time_lost(std::time::Duration::from_micros(
                            bucket.len() as u64
                        ));
                    }
                    if ctx.fault.duplicate_exchange(ctx.site, from, t) {
                        parts[t].absorb_rows(bucket.clone());
                    }
                }
                // The first bucket to arrive becomes the partition;
                // later ones are looked up row by row.
                parts[t].absorb_rows(bucket);
            }
        }
        Ok(parts)
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

    /// The task recovery policy.
    pub fn recovery(&self) -> &RecoveryPolicy {
        &self.recovery
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
    /// `to`; returns the merged destination partitions.
    pub fn exchange_at(
        &self,
        site: u64,
        schema: &Schema,
        buckets: Vec<Vec<Rows>>,
    ) -> Result<Vec<Relation>> {
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
    /// thread (see [`join_tasks`]). Same results, same fault sites, same
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

    /// [`Cluster::try_par_map_sized`] for tasks of unknown cost: each gets
    /// a thread.
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
/// thread instead of one of its own. Starting a thread and waiting for it
/// costs about as much as a join kernel spends on a thousand rows, and that
/// cost is the part of a stage that depends on the machine rather than on
/// the data (another core has to be woken twice); the tail supersteps of a
/// fixpoint and the operators around a filtered seed are almost all light.
pub const LIGHT_TASK_ROWS: usize = 1024;

/// Runs one task per worker — `(light, task)` — and collects the results
/// in worker order. Every heavy task but the last gets a scoped thread of
/// its own; the calling thread, which would otherwise only wait, runs the
/// last heavy task and all the light ones. A stage of `h` heavy tasks costs
/// `h − 1` thread spawns: none when at most one partition has real work.
fn join_tasks<R, Task>(tasks: impl Iterator<Item = (bool, Task)>) -> Result<Vec<R>>
where
    R: Send,
    Task: FnOnce() -> Result<R> + Send,
{
    let tasks: Vec<(bool, Task)> = tasks.collect();
    let last_heavy = tasks.iter().rposition(|(light, _)| !light);
    let mut results: Vec<Option<Result<R>>> = tasks.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        // Threads first, so that they run while the caller works.
        let mut threads = Vec::new();
        let mut mine = Vec::new();
        for (i, (light, task)) in tasks.into_iter().enumerate() {
            if light || Some(i) == last_heavy {
                mine.push((i, task));
            } else {
                threads.push((i, s.spawn(task)));
            }
        }
        for (i, task) in mine {
            results[i] = Some(task());
        }
        for (i, handle) in threads {
            results[i] = Some(join_worker(i, handle));
        }
    });
    results.into_iter().map(|r| r.expect("every task ran")).collect()
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
        // and every light one; a stage with one heavy task spawns nothing.
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
