//! Admission: who gets in, who is turned away, and how the doors close.
//!
//! Owns the bounded queue in front of the worker pool, the cancellation
//! tokens of everything admitted and unresolved, the per-plan circuit
//! breakers and the closing / drain state. What it hides: the overload
//! ladder is one [`Admission::gate`] — the submitter peeks through it
//! before queueing, the worker passes it authoritatively once the plan is
//! known, a mutation prices its own rows through it — and the doors shut
//! through one [`Admission::stop`], whoever asks (`shutdown`, `drain`,
//! `Drop`, the `.drain` verb).

use crate::error::{OverloadReason, ServeError, ServeResult};
use crate::lock;
use crate::server::ServeConfig;
use crate::telemetry::Telemetry;
use crate::views::Answer;
use mura_core::fxhash::FxHashMap;
use mura_core::{mem_gauge, CancellationToken, MuraError};
use mura_dist::TraceLevel;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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

pub(crate) struct QueryJob {
    /// Rides in the wire-level trace context so worker-side spans can be
    /// attributed to this query in the merged timeline.
    pub(crate) id: u64,
    pub(crate) query: String,
    pub(crate) token: CancellationToken,
    /// Tracing level for this execution. Anything above `Off` also bypasses
    /// the result cache: a cached answer has no trace to return, and a
    /// traced answer must not be replayed to clients that never asked for
    /// the tracing overhead.
    pub(crate) trace: TraceLevel,
    /// When the job was admitted; queue wait and wall latency both start here.
    submitted: Instant,
    reply: Sender<ServeResult<Arc<Answer>>>,
}

enum Job {
    Query(QueryJob),
    /// Shutdown pill: one per worker, sent by [`Admission::stop`].
    Poison,
}

/// The receiving end of the admission queue, shared by the worker threads
/// and by nobody else: when the last worker exits the queue disconnects,
/// so a submission that raced the shutdown resolves to
/// [`ServeError::Closed`] instead of waiting on a queue nobody reads.
pub(crate) struct Queue(Mutex<Receiver<Job>>);

pub(crate) struct Admission {
    tx: SyncSender<Job>,
    /// Cancellation tokens of every admitted, unresolved query, so a
    /// drain can deadline stragglers. Keyed by [`QueryJob::id`].
    inflight: Mutex<FxHashMap<u64, CancellationToken>>,
    next_job: AtomicU64,
    /// Per-canonical-plan circuit breakers (see [`Breaker`]).
    breakers: Mutex<FxHashMap<u64, Breaker>>,
    closing: AtomicBool,
    /// 0 serving, 1 draining, 2 drained (see [`Admission::drain`]).
    drain_phase: AtomicU64,
    config: ServeConfig,
    telemetry: Arc<Telemetry>,
}

impl Admission {
    pub(crate) fn new(config: ServeConfig, telemetry: Arc<Telemetry>) -> (Admission, Arc<Queue>) {
        let (tx, rx) = sync_channel(config.queue_depth.max(1));
        let admission = Admission {
            tx,
            inflight: Mutex::new(FxHashMap::default()),
            next_job: AtomicU64::new(0),
            breakers: Mutex::new(FxHashMap::default()),
            closing: AtomicBool::new(false),
            drain_phase: AtomicU64::new(0),
            config,
            telemetry,
        };
        (admission, Arc::new(Queue(Mutex::new(rx))))
    }

    /// `Err(Closed)` once a shutdown or a drain has begun. Queries are not
    /// admitted, mutations not started.
    pub(crate) fn open(&self) -> ServeResult<()> {
        if self.closing.load(Ordering::SeqCst) || self.drain_phase.load(Ordering::SeqCst) > 0 {
            return Err(ServeError::Closed);
        }
        Ok(())
    }

    pub(crate) fn drain_phase(&self) -> u64 {
        self.drain_phase.load(Ordering::SeqCst)
    }

    fn retry_after_ms(&self) -> u64 {
        (self.config.retry_after.as_millis() as u64).max(1)
    }

    /// The overload gates: the memory watermark — shed when the live gauge
    /// plus this work's estimate would pass it — then the plan's circuit
    /// breaker. `estimate` prices the work in bytes and is only asked for
    /// when a watermark is configured; `key` is the canonical plan key when
    /// the plan is known. Gates never block, so a caller with an expired
    /// deadline is never parked here. A rejection is counted as a shed.
    ///
    /// The memory gate runs first: with `probe` the breaker check may move
    /// Open → HalfOpen, and a probe shed by a later gate would leave
    /// HalfOpen with nobody left to settle it. Only the worker-side call
    /// passes `probe = true`: it owns that move. The submit-side call is a
    /// read-only peek, so a query admitted there is not re-rejected by its
    /// own probe state when the worker gates it again.
    pub(crate) fn gate(
        &self,
        key: Option<u64>,
        estimate: impl FnOnce() -> u64,
        probe: bool,
    ) -> ServeResult<()> {
        let over_watermark = self.config.memory_watermark_bytes.is_some_and(|watermark| {
            mem_gauge().current_bytes().saturating_add(estimate()) > watermark
        });
        let verdict = if over_watermark {
            let (reason, retry_after_ms) = (OverloadReason::Memory, self.retry_after_ms());
            Err(ServeError::Overloaded { reason, retry_after_ms })
        } else {
            // A disabled breaker keeps no verdicts: nothing to look up.
            let key = key.filter(|_| self.config.breaker_threshold > 0);
            key.map_or(Ok(()), |key| self.breaker_check(key, probe))
        };
        verdict.inspect_err(|_| self.telemetry.counters.shed.inc())
    }

    /// An open breaker rejects with [`ServeError::Overloaded`] until the
    /// cooldown elapses, then lets exactly one probe through (half-open);
    /// further callers keep being rejected until [`Admission::settle`]
    /// settles the probe.
    fn breaker_check(&self, key: u64, probe: bool) -> ServeResult<()> {
        let mut breakers = lock(&self.breakers);
        let Some(b) = breakers.get_mut(&key) else { return Ok(()) };
        let circuit_open = |retry_after_ms: u64| {
            Err(ServeError::Overloaded { reason: OverloadReason::CircuitOpen, retry_after_ms })
        };
        match b.state {
            BreakerState::Closed => Ok(()),
            BreakerState::Open => {
                let elapsed = b.opened_at.elapsed();
                if elapsed >= self.config.breaker_cooldown {
                    if probe {
                        b.state = BreakerState::HalfOpen; // this caller probes
                    }
                    Ok(())
                } else {
                    let left = self.config.breaker_cooldown - elapsed;
                    circuit_open((left.as_millis() as u64).max(1))
                }
            }
            // The probe passed this gate when it performed the
            // transition; anyone who finds HalfOpen waits for its verdict.
            BreakerState::HalfOpen => circuit_open(self.retry_after_ms()),
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
    pub(crate) fn settle<T>(&self, key: u64, result: &ServeResult<T>) {
        let threshold = self.config.breaker_threshold;
        if threshold == 0 {
            return;
        }
        use MuraError as E;
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
            self.telemetry.counters.breaker_opened.inc();
        }
    }

    /// Forgets every verdict: a breaker opened against the previous
    /// catalog shape must not keep shedding a plan that may now succeed.
    pub(crate) fn forget_verdicts(&self) {
        lock(&self.breakers).clear();
    }

    /// Breakers currently `(open, half-open)`.
    pub(crate) fn breaker_gauges(&self) -> (u64, u64) {
        let breakers = lock(&self.breakers);
        let count = |s: BreakerState| breakers.values().filter(|b| b.state == s).count() as u64;
        (count(BreakerState::Open), count(BreakerState::HalfOpen))
    }

    /// Queues a query, or fails fast with [`ServeError::Busy`] when the
    /// queue is full. The deadline clock starts here — queue time counts.
    pub(crate) fn enqueue(
        &self,
        query: &str,
        deadline: Option<Duration>,
        trace: TraceLevel,
    ) -> ServeResult<Pending> {
        let token = match deadline {
            Some(d) => CancellationToken::with_timeout(d),
            None => CancellationToken::new(),
        };
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        let (reply, rx) = channel();
        let job = QueryJob {
            id,
            query: query.to_string(),
            token: token.clone(),
            trace,
            submitted: Instant::now(),
            reply,
        };
        // Register before enqueueing: a worker may finish (and deregister)
        // the job before try_send even returns.
        lock(&self.inflight).insert(id, token.clone());
        match self.tx.try_send(Job::Query(job)) {
            Ok(()) => {
                self.telemetry.counters.submitted.inc();
                Ok(Pending { rx, token })
            }
            Err(send_err) => {
                lock(&self.inflight).remove(&id);
                match send_err {
                    TrySendError::Full(_) => {
                        self.telemetry.counters.rejected.inc();
                        Err(ServeError::Busy {
                            queue_depth: self.config.queue_depth.max(1),
                            retry_after_ms: self.retry_after_ms(),
                        })
                    }
                    TrySendError::Disconnected(_) => Err(ServeError::Closed),
                }
            }
        }
    }

    /// One worker thread's life: take a job, run `process`, account the
    /// outcome, reply, deregister — until the pill arrives.
    pub(crate) fn work(
        &self,
        queue: &Queue,
        process: impl Fn(&QueryJob) -> ServeResult<Arc<Answer>>,
    ) {
        let t = &*self.telemetry;
        loop {
            let job = match lock(&queue.0).recv() {
                Ok(Job::Query(j)) => j,
                Ok(Job::Poison) | Err(_) => return,
            };
            t.queue.record(job.submitted.elapsed());
            let result = process(&job);
            t.wall.record(job.submitted.elapsed());
            match &result {
                Ok(_) => t.counters.completed.inc(),
                // A worker-side shed is already in `shed`; `failed` means
                // "executed and errored", so it lands in `shed_admitted`
                // instead — submit-side sheds hit neither.
                Err(ServeError::Overloaded { .. }) => t.counters.shed_admitted.inc(),
                Err(_) => t.counters.failed.inc(),
            };
            // The submitter may have given up waiting; that's fine.
            let _ = job.reply.send(result);
            lock(&self.inflight).remove(&job.id);
        }
    }

    /// Shuts the doors: no further admissions, and one pill per worker
    /// behind whatever is queued — blocking sends, so real work drains
    /// ahead of the pills.
    pub(crate) fn stop(&self) {
        self.closing.store(true, Ordering::SeqCst);
        for _ in 0..self.config.workers.max(1) {
            let _ = self.tx.send(Job::Poison);
        }
    }

    /// A graceful [`stop`](Admission::stop): queued and in-flight queries
    /// get `drain_grace` to finish, stragglers are cancelled (their replies
    /// are still delivered). Returns when the workers have their pills and
    /// nothing is in flight, or the grace has passed; the caller that owns
    /// the threads joins them. A concurrent second call returns at once.
    pub(crate) fn drain(&self) {
        if self.drain_phase.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst).is_err() {
            return;
        }
        let grace = self.config.drain_grace;
        let (done_tx, done_rx) = channel::<()>();
        std::thread::scope(|s| {
            // Watchdog: if the grace window passes before the queue
            // drains, cancel everything still registered — queued jobs
            // then resolve to `Cancelled` the moment a worker picks them
            // up, and running ones stop at their next superstep.
            s.spawn(move || {
                if done_rx.recv_timeout(grace).is_err() {
                    for token in lock(&self.inflight).values() {
                        token.cancel();
                    }
                }
            });
            self.stop();
            // Workers have consumed the whole queue; give executions still
            // in flight (at most one per worker) a bounded settle window.
            let settle = Instant::now();
            while !lock(&self.inflight).is_empty() && settle.elapsed() < grace {
                std::thread::sleep(Duration::from_millis(2));
            }
            let _ = done_tx.send(());
        });
        self.drain_phase.store(2, Ordering::SeqCst);
    }
}

/// An admitted, in-flight query.
#[derive(Debug)]
pub struct Pending {
    rx: Receiver<ServeResult<Arc<Answer>>>,
    token: CancellationToken,
}

impl Pending {
    /// Requests cancellation; the evaluator stops at its next superstep
    /// and the query resolves to [`MuraError::Cancelled`].
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Blocks until the query resolves.
    pub fn wait(self) -> ServeResult<Arc<Answer>> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Non-blocking poll; `None` while still running.
    pub fn try_wait(&self) -> Option<ServeResult<Arc<Answer>>> {
        self.rx.try_recv().ok()
    }
}
