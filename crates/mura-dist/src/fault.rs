//! Deterministic fault injection and recovery accounting.
//!
//! The paper's Dist-μ-RA prototype inherits Spark's lineage-based fault
//! tolerance; our from-scratch cluster needs its own failure-handling
//! discipline. This module provides the two halves the executor builds on:
//!
//! * a **fault plan** ([`FaultPlan`]) that deterministically decides, from a
//!   SplitMix64 seed, where to inject worker panics, transient task errors,
//!   exchange message drops/duplications and straggler delays. Decisions are
//!   pure functions of the *site coordinates* (a driver-sequential site id,
//!   the worker index, the superstep and the attempt number), never of
//!   wall-clock time or thread scheduling — so the same seed over the same
//!   query produces the same faults, the same recovery path and the same
//!   [`FaultSnapshot`] counts on every run;
//! * **recovery accounting** ([`FaultStats`]): every retry, checkpoint,
//!   restore, replayed row and lost millisecond is counted, surfaced through
//!   `ExecStats.fault` and the `mura-serve` `.stats` report, so degradation
//!   is observable instead of silent.
//!
//! Every supervised attempt in the crate is one [`FaultPlan::guarded`] call.
//! What happens after a failed one lives with its caller: task-level retry
//! with bounded exponential backoff in the cluster's task supervisor,
//! checkpoint restore / restart in the one semi-naive loop
//! ([`crate::fixloop`]) that `P_gld` and `P_plw` share, and
//! [`RecoveryPolicy::rerun`] for what can only be run again, a stage (see
//! `DESIGN.md` §10).

use mura_core::{MuraError, Result};
use mura_datagen::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Fault classes the plan can inject. The discriminant salts the RNG so the
/// classes draw independent decisions at the same site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The task panics (`panic!`), as if the worker process died.
    Panic,
    /// The task fails with a retryable [`MuraError::TransientFault`].
    Transient,
    /// An exchange message is lost and must be retransmitted.
    Drop,
    /// An exchange message is delivered twice (at-least-once delivery).
    Duplicate,
    /// The task is delayed by [`FaultConfig::straggler_delay_ms`].
    Straggler,
    /// The task observes artificial memory pressure and fails retryably
    /// (models a worker that sheds its working set under pressure and must
    /// replay). Distinct from a real `max_bytes` breach, which is a final
    /// [`MuraError::MemoryExceeded`]: injected pressure heals after
    /// [`FaultConfig::failures_per_site`] attempts, a blown budget does not.
    MemoryPressure,
    /// Process-mode reinterpretation of [`FaultClass::Panic`]: the worker
    /// *process* is SIGKILLed mid-exchange (drawn from `panic_prob` under
    /// its own salt, so thread-level and process-level chaos coexist).
    KillWorker,
    /// Process-mode reinterpretation of [`FaultClass::Drop`]: a live
    /// coordinator↔worker connection is severed (drawn from `drop_prob`).
    ConnectionDrop,
    /// Process-mode reinterpretation of [`FaultClass::Straggler`]: socket
    /// I/O to a worker is delayed (drawn from `straggler_prob`).
    SocketDelay,
    /// Process-mode only: a frame on a live worker connection has seeded
    /// bytes flipped in flight. The wire layer's CRC-32 trailer must catch
    /// it (`WireError::BadChecksum`); the receiver closes the connection,
    /// so the supervisor handles corruption exactly like a dropped
    /// connection — corrupted rows are never delivered.
    CorruptFrame,
}

impl FaultClass {
    fn salt(self) -> u64 {
        match self {
            FaultClass::Panic => 0x9E37_79B9_7F4A_7C15,
            FaultClass::Transient => 0xC2B2_AE3D_27D4_EB4F,
            FaultClass::Drop => 0x1656_67B1_9E37_79F9,
            FaultClass::Duplicate => 0x2545_F491_4F6C_DD1D,
            FaultClass::Straggler => 0x9DDF_EA08_EB38_2D69,
            FaultClass::MemoryPressure => 0x6C62_272E_07BB_0142,
            FaultClass::KillWorker => 0xCBF2_9CE4_8422_2325,
            FaultClass::ConnectionDrop => 0x100_0000_01B3_u64,
            FaultClass::SocketDelay => 0x14_650F_B045_6A2D_u64,
            FaultClass::CorruptFrame => 0x27D4_EB2F_1656_67C5,
        }
    }
}

/// Configuration of the deterministic fault-injection layer. All
/// probabilities default to zero: a default config injects nothing and the
/// executor behaves exactly as without fault tolerance.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Seed of the SplitMix64 decision stream. Equal seeds ⇒ equal faults.
    pub seed: u64,
    /// Probability that a task site hosts an injected panic.
    pub panic_prob: f64,
    /// Probability that a task site hosts an injected transient error.
    pub transient_prob: f64,
    /// Probability that an exchange bucket / routed row is dropped (and
    /// retransmitted by the exchange layer).
    pub drop_prob: f64,
    /// Probability that an exchange bucket / routed row is duplicated.
    pub duplicate_prob: f64,
    /// Probability that a task site is a straggler.
    pub straggler_prob: f64,
    /// Probability that a task site observes injected memory pressure (a
    /// retryable failure; see [`FaultClass::MemoryPressure`]).
    pub memory_pressure_prob: f64,
    /// Probability that a process-mode control frame is corrupted in
    /// flight (seeded byte flips; see [`FaultClass::CorruptFrame`]).
    pub corrupt_frame_prob: f64,
    /// Delay injected at straggler sites.
    pub straggler_delay_ms: u64,
    /// How many consecutive attempts fail at an afflicted site. Values
    /// `≤ max_retries` model transient faults (task retry recovers); larger
    /// values model hard faults that exhaust retries and force a checkpoint
    /// restore or restart.
    pub failures_per_site: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            panic_prob: 0.0,
            transient_prob: 0.0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            straggler_prob: 0.0,
            memory_pressure_prob: 0.0,
            corrupt_frame_prob: 0.0,
            straggler_delay_ms: 2,
            failures_per_site: 1,
        }
    }
}

impl FaultConfig {
    /// A moderate all-class chaos profile (used by `murash --chaos` and the
    /// chaos CI job): every fault class fires with visible frequency on
    /// small workloads, and every failure is recoverable.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            panic_prob: 0.08,
            transient_prob: 0.08,
            drop_prob: 0.10,
            duplicate_prob: 0.10,
            straggler_prob: 0.05,
            // Kept at zero in the legacy chaos profile so the 6-seed chaos
            // CI matrix keeps validating the exact same fault streams;
            // memory-pressure and frame-corruption chaos runs opt in
            // explicitly.
            memory_pressure_prob: 0.0,
            corrupt_frame_prob: 0.0,
            straggler_delay_ms: 1,
            failures_per_site: 1,
        }
    }

    /// True when any fault class has a nonzero probability.
    pub fn is_active(&self) -> bool {
        self.panic_prob > 0.0
            || self.transient_prob > 0.0
            || self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.straggler_prob > 0.0
            || self.memory_pressure_prob > 0.0
            || self.corrupt_frame_prob > 0.0
    }
}

/// How the executor recovers from failed tasks and supersteps.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPolicy {
    /// Task-level retries before a failure escalates to the superstep
    /// supervisor.
    pub max_retries: u32,
    /// First backoff sleep; doubles per retry.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Checkpoint restores / full restarts before the fixpoint gives up and
    /// reports the underlying failure.
    pub max_restores: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { max_retries: 2, backoff_base_ms: 1, backoff_cap_ms: 50, max_restores: 8 }
    }
}

impl RecoveryPolicy {
    /// Bounded exponential backoff for the given retry ordinal (0-based).
    pub fn backoff(&self, retry: u32) -> Duration {
        let ms = self
            .backoff_base_ms
            .saturating_mul(1u64 << retry.min(16))
            .min(self.backoff_cap_ms.max(self.backoff_base_ms));
        Duration::from_millis(ms)
    }

    /// Restart-only supervision, for work with no state to roll back to (a
    /// stage of pure tasks): runs `attempt(n)`,
    /// `n` being the failed attempts so far, until it succeeds, fails with
    /// an error that is not retryable, or has been rerun
    /// [`RecoveryPolicy::max_restores`] times. `check` runs before every
    /// rerun, so a cancelled or out-of-budget query stops there; `count`
    /// records the rerun that follows.
    pub fn rerun<T>(
        &self,
        check: impl Fn() -> Result<()>,
        mut count: impl FnMut(),
        mut attempt: impl FnMut(u32) -> Result<T>,
    ) -> Result<T> {
        let mut failed = 0u32;
        loop {
            match attempt(failed) {
                Err(e) if e.is_retryable() && failed < self.max_restores => {
                    check()?;
                    failed += 1;
                    count();
                }
                other => return other,
            }
        }
    }
}

mura_obs::counter_set! {
    /// Thread-safe fault/recovery counters: one set per [`FaultPlan`], and
    /// one in the serving tier that sums the executions it ran.
    pub struct FaultStats => FaultSnapshot {
        counter "mura_faults_injected_total", "Faults injected into executions, by class." {
            injected_panics {class = "panic"},
            injected_transients {class = "transient"},
            injected_drops {class = "drop"},
            injected_duplicates {class = "duplicate"},
            injected_stragglers {class = "straggler"},
            injected_memory_pressure {class = "memory_pressure"},
            /// Process mode: worker processes SIGKILLed mid-exchange.
            killed_workers {class = "kill_worker"},
            /// Process mode: live worker connections severed.
            dropped_connections {class = "connection_drop"},
            /// Process mode: socket operations artificially delayed.
            delayed_sockets {class = "socket_delay"},
            /// Process mode: frames corrupted in flight (caught by the wire
            /// CRC, handled as dropped connections).
            corrupted_frames {class = "corrupt_frame"},
        }
        counter "mura_fault_recoveries_total", "Recovery actions by kind." {
            /// Task attempts that failed and were retried (with backoff).
            task_retries {action = "retry"},
            /// Whole stages re-executed at a fresh site after a task
            /// exhausted its retries (lineage recomputation for
            /// non-fixpoint stages).
            stage_reruns {action = "stage_rerun"},
            /// Fixpoints rolled back to a checkpoint after retries were
            /// exhausted.
            checkpoint_restores {action = "restore"},
            /// Fixpoints restarted from their seed (no checkpoint available).
            full_restarts {action = "restart"},
            /// Worker processes respawned after (injected or genuine) death.
            worker_respawns {action = "respawn"},
            /// Worker connections re-established after a drop.
            reconnects {action = "reconnect"},
        }
        counter "mura_fault_checkpoints_total", "Superstep checkpoints taken." { checkpoints }
        counter "mura_fault_replayed_total", "Work redone after restores and restarts." {
            /// Rows reloaded from checkpoints / seeds during recovery.
            rows_replayed {unit = "rows"},
            /// Fixpoint iterations re-executed after restores.
            iterations_replayed {unit = "iterations"},
        }
        counter "mura_fault_time_lost_microseconds_total",
            "Wall-clock spent in failed attempts and backoff sleeps." {
            /// Excluded from [`FaultSnapshot::counts`]: time is not
            /// deterministic.
            time_lost_us,
        }
    }
}

impl FaultSnapshot {
    /// Total injected faults across all classes.
    pub fn injected(&self) -> u64 {
        self.injected_panics
            + self.injected_transients
            + self.injected_drops
            + self.injected_duplicates
            + self.injected_stragglers
            + self.injected_memory_pressure
            + self.killed_workers
            + self.dropped_connections
            + self.delayed_sockets
            + self.corrupted_frames
    }

    /// True when the query hit at least one fault but still completed —
    /// i.e. the answer is correct but the execution was degraded.
    pub fn recovered(&self) -> bool {
        self.task_retries > 0
            || self.stage_reruns > 0
            || self.checkpoint_restores > 0
            || self.full_restarts > 0
            || self.worker_respawns > 0
            || self.reconnects > 0
    }

    /// The deterministic projection: every counter except wall-clock time
    /// and the repair counters (`worker_respawns` / `reconnects`, whose
    /// values depend on which of the supervisor heartbeat and the exchange
    /// path *detects* a death first — the injections themselves stay
    /// deterministic). Two runs of the same query under the same
    /// [`FaultConfig`] seed must compare equal under this projection.
    pub fn counts(&self) -> FaultSnapshot {
        FaultSnapshot { time_lost_us: 0, worker_respawns: 0, reconnects: 0, ..*self }
    }
}

/// The deterministic fault-injection layer consulted by the cluster and the
/// fixpoint loops. One plan is created per
/// [`DistEvaluator`](crate::exec::DistEvaluator) from `ExecConfig.fault` and
/// shared (via `Arc`) with the cluster it drives.
///
/// **Determinism.** Site ids come from a driver-sequential counter
/// ([`FaultPlan::next_site`]); every injection decision seeds a fresh
/// [`SplitMix64`] from `(seed, class, site, worker, step)` and compares one
/// draw against the class probability. The attempt number only gates the
/// decision against [`FaultConfig::failures_per_site`] — an afflicted site
/// fails exactly that many attempts, then heals — so retry loops terminate
/// deterministically.
#[derive(Debug, Default)]
pub struct FaultPlan {
    cfg: FaultConfig,
    next_site: AtomicU64,
    /// What this plan injected and what recovering from it cost.
    pub stats: FaultStats,
}

impl FaultPlan {
    /// A plan over the given configuration.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan { cfg, ..Default::default() }
    }

    /// A plan that injects nothing (all counters still work).
    pub fn disabled() -> Self {
        Self::new(FaultConfig::default())
    }

    /// The configuration this plan draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True when any fault class can fire.
    pub fn is_active(&self) -> bool {
        self.cfg.is_active()
    }

    /// Allocates the next site id. Called from driver-sequential code only
    /// (the cluster's `par_map_sized` entry, exchange setup, fixpoint setup), so
    /// the id sequence is identical across runs.
    pub fn next_site(&self) -> u64 {
        self.next_site.fetch_add(1, Ordering::Relaxed)
    }

    /// The deterministic Bernoulli draw at a site coordinate.
    fn roll(&self, class: FaultClass, site: u64, worker: u64, step: u64, prob: f64) -> bool {
        if prob <= 0.0 {
            return false;
        }
        // Fold the coordinates into one 64-bit key (distinct odd multipliers
        // keep the coordinates from aliasing), then draw one SplitMix64
        // value seeded by it.
        let key = self
            .cfg
            .seed
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add(class.salt())
            .wrapping_add(site.wrapping_mul(0xE703_7ED1_A0B4_28DB))
            .wrapping_add(worker.wrapping_mul(0x8EBC_6AF0_9C88_C6E3))
            .wrapping_add(step.wrapping_mul(0x5897_89E6_C7B3_F71D));
        SplitMix64::seed_from_u64(key).gen_f64() < prob
    }

    /// Whether a fault of `class` fires at `(site, worker, step)` on this
    /// `attempt`. Afflicted sites fail their first
    /// [`FaultConfig::failures_per_site`] attempts, then heal.
    fn fires(&self, class: FaultClass, site: u64, worker: u64, step: u64, attempt: u32) -> bool {
        if attempt >= self.cfg.failures_per_site {
            return false;
        }
        let prob = match class {
            FaultClass::Panic | FaultClass::KillWorker => self.cfg.panic_prob,
            FaultClass::Transient => self.cfg.transient_prob,
            FaultClass::Drop | FaultClass::ConnectionDrop => self.cfg.drop_prob,
            FaultClass::Duplicate => self.cfg.duplicate_prob,
            FaultClass::Straggler | FaultClass::SocketDelay => self.cfg.straggler_prob,
            FaultClass::MemoryPressure => self.cfg.memory_pressure_prob,
            FaultClass::CorruptFrame => self.cfg.corrupt_frame_prob,
        };
        self.roll(class, site, worker, step, prob)
    }

    /// The one fault-guarded attempt: sleeps the straggler delay if this
    /// coordinate has one, then runs the injected faults of `(site, worker,
    /// step)` on this `attempt` and `body` under `catch_unwind`, so that a
    /// panic — injected or genuine — comes back as the retryable
    /// [`MuraError::WorkerFailed`] of `worker`. The time a retryable failure
    /// took is counted as lost. `body` may leave what it borrowed half
    /// updated when it fails: the caller resets that state or gives up.
    pub fn guarded<T>(
        &self,
        site: u64,
        worker: usize,
        step: u64,
        attempt: u32,
        body: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        if let Some(delay) = self.straggler_delay(site, worker, step, attempt) {
            std::thread::sleep(delay);
        }
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.maybe_panic(site, worker, step, attempt);
            self.maybe_transient(site, worker, step, attempt)?;
            self.maybe_memory_pressure(site, worker, step, attempt)?;
            body()
        }))
        .unwrap_or_else(|payload| Err(worker_failed(worker, payload)));
        if outcome.as_ref().is_err_and(MuraError::is_retryable) {
            self.record_time_lost(started.elapsed());
        }
        outcome
    }

    /// Panics (really) if the plan injects a worker panic here. The caller
    /// runs inside `catch_unwind`, so the panic models a dying worker that
    /// the supervisor observes as [`MuraError::WorkerFailed`].
    fn maybe_panic(&self, site: u64, worker: usize, step: u64, attempt: u32) {
        if self.fires(FaultClass::Panic, site, worker as u64, step, attempt) {
            self.stats.injected_panics.inc();
            panic!(
                "injected worker panic (fault seed {}, site {site}, worker {worker}, step {step})",
                self.cfg.seed
            );
        }
    }

    /// Fails with a retryable [`MuraError::TransientFault`] if the plan
    /// injects a transient task error here.
    fn maybe_transient(&self, site: u64, worker: usize, step: u64, attempt: u32) -> Result<()> {
        if self.fires(FaultClass::Transient, site, worker as u64, step, attempt) {
            self.stats.injected_transients.inc();
            return Err(MuraError::TransientFault { worker });
        }
        Ok(())
    }

    /// Fails with a retryable [`MuraError::TransientFault`] if the plan
    /// injects memory pressure here. The afflicted site heals after
    /// [`FaultConfig::failures_per_site`] attempts, so recovery (retry,
    /// checkpoint restore or restart) always makes progress and same-seed
    /// runs produce identical answers and counts.
    fn maybe_memory_pressure(
        &self,
        site: u64,
        worker: usize,
        step: u64,
        attempt: u32,
    ) -> Result<()> {
        if self.fires(FaultClass::MemoryPressure, site, worker as u64, step, attempt) {
            self.stats.injected_memory_pressure.inc();
            return Err(MuraError::TransientFault { worker });
        }
        Ok(())
    }

    /// The straggler delay to impose here, if any. Only the first attempt
    /// of a site straggles — retries of a slow task are not slowed again.
    fn straggler_delay(
        &self,
        site: u64,
        worker: usize,
        step: u64,
        attempt: u32,
    ) -> Option<Duration> {
        if attempt == 0
            && self.cfg.failures_per_site > 0
            && self.roll(FaultClass::Straggler, site, worker as u64, step, self.cfg.straggler_prob)
        {
            self.stats.injected_stragglers.inc();
            return Some(Duration::from_millis(self.cfg.straggler_delay_ms));
        }
        None
    }

    /// Whether the exchange bucket `from → to` at `site` is dropped. The
    /// exchange layer counts the drop and retransmits (at-least-once
    /// delivery), so no data is lost — only time and traffic.
    pub fn drop_exchange(&self, site: u64, from: usize, to: usize) -> bool {
        let fired = self.roll(FaultClass::Drop, site, from as u64, to as u64, self.cfg.drop_prob);
        if fired {
            self.stats.injected_drops.inc();
        }
        fired
    }

    /// Whether the exchange bucket `from → to` at `site` is delivered twice.
    /// Receivers deduplicate (relations are sets), so duplication must not
    /// change any result.
    pub fn duplicate_exchange(&self, site: u64, from: usize, to: usize) -> bool {
        let fired =
            self.roll(FaultClass::Duplicate, site, from as u64, to as u64, self.cfg.duplicate_prob);
        if fired {
            self.stats.injected_duplicates.inc();
        }
        fired
    }

    /// Process-mode: whether worker `worker`'s process is SIGKILLed during
    /// the exchange at `site` on this `attempt`. Drawn from `panic_prob`
    /// under its own salt — the process-mode reinterpretation of a worker
    /// panic. Afflicted (site, worker) pairs heal after
    /// [`FaultConfig::failures_per_site`] attempts, so the exchange's
    /// respawn-and-retry loop terminates deterministically.
    pub fn kill_worker(&self, site: u64, worker: usize, attempt: u32) -> bool {
        let fired = self.fires(FaultClass::KillWorker, site, worker as u64, 0, attempt);
        if fired {
            self.stats.killed_workers.inc();
        }
        fired
    }

    /// Process-mode: whether the live connection to `worker` is severed at
    /// `site` on this `attempt` (drawn from `drop_prob`). The worker stays
    /// alive; the coordinator must reconnect with backoff.
    pub fn drop_connection(&self, site: u64, worker: usize, attempt: u32) -> bool {
        let fired = self.fires(FaultClass::ConnectionDrop, site, worker as u64, 0, attempt);
        if fired {
            self.stats.dropped_connections.inc();
        }
        fired
    }

    /// Process-mode: the artificial socket delay to impose before talking
    /// to `worker` at `site`, if any (drawn from `straggler_prob`). Only
    /// the first attempt is delayed, as for a straggling task.
    pub fn delay_socket(&self, site: u64, worker: usize, attempt: u32) -> Option<Duration> {
        if attempt == 0
            && self.cfg.failures_per_site > 0
            && self.roll(FaultClass::SocketDelay, site, worker as u64, 0, self.cfg.straggler_prob)
        {
            self.stats.delayed_sockets.inc();
            return Some(Duration::from_millis(self.cfg.straggler_delay_ms));
        }
        None
    }

    /// Process-mode: whether the next frame to `worker` at `site` is
    /// corrupted in flight on this `attempt` (drawn from
    /// `corrupt_frame_prob` under its own salt). Afflicted sites heal after
    /// [`FaultConfig::failures_per_site`] attempts, so the exchange retry
    /// loop terminates deterministically. Returns the entropy that seeds
    /// which byte/bit to flip, keeping the damage itself reproducible.
    pub fn corrupt_frame(&self, site: u64, worker: usize, attempt: u32) -> Option<u64> {
        if !self.fires(FaultClass::CorruptFrame, site, worker as u64, 0, attempt) {
            return None;
        }
        self.stats.corrupted_frames.inc();
        let entropy = self
            .cfg
            .seed
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add(FaultClass::CorruptFrame.salt())
            .wrapping_add(site.wrapping_mul(0xE703_7ED1_A0B4_28DB))
            .wrapping_add((worker as u64).wrapping_mul(0x8EBC_6AF0_9C88_C6E3));
        Some(SplitMix64::seed_from_u64(entropy).next_u64())
    }

    /// Records a rollback to a checkpoint: `rows` reloaded, `iterations`
    /// that must be re-executed.
    pub fn record_restore(&self, rows: u64, iterations: u64) {
        self.stats.checkpoint_restores.inc();
        self.stats.rows_replayed.add(rows);
        self.stats.iterations_replayed.add(iterations);
    }

    /// Records a restart from the fixpoint seed (no checkpoint existed).
    pub fn record_full_restart(&self, rows: u64) {
        self.stats.full_restarts.inc();
        self.stats.rows_replayed.add(rows);
    }

    /// Records wall-clock lost to a failed attempt or a backoff sleep.
    pub fn record_time_lost(&self, d: Duration) {
        self.stats.time_lost_us.add(d.as_micros() as u64);
    }

    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> FaultSnapshot {
        self.stats.snapshot()
    }
}

/// The error a captured panic of `worker` comes back as.
pub(crate) fn worker_failed(worker: usize, payload: Box<dyn std::any::Any + Send>) -> MuraError {
    let payload = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    };
    MuraError::WorkerFailed { worker, payload }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let p = FaultPlan::disabled();
        for site in 0..200 {
            for w in 0..4usize {
                assert!(p.maybe_transient(site, w, 0, 0).is_ok());
                assert!(p.straggler_delay(site, w, 0, 0).is_none());
                assert!(!p.drop_exchange(site, w, (w + 1) % 4));
                assert!(!p.duplicate_exchange(site, w, (w + 1) % 4));
                p.maybe_panic(site, w, 0, 0); // must not panic
            }
        }
        assert_eq!(p.snapshot(), FaultSnapshot::default());
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let cfg = FaultConfig { transient_prob: 0.3, seed: 9, ..Default::default() };
        let a = FaultPlan::new(cfg);
        let b = FaultPlan::new(cfg);
        let da: Vec<bool> =
            (0..500).map(|s| a.maybe_transient(s, (s % 4) as usize, 0, 0).is_err()).collect();
        let db: Vec<bool> =
            (0..500).map(|s| b.maybe_transient(s, (s % 4) as usize, 0, 0).is_err()).collect();
        assert_eq!(da, db);
        assert!(da.iter().any(|&x| x), "probability 0.3 over 500 sites must fire");
        assert!(!da.iter().all(|&x| x));
        let c = FaultPlan::new(FaultConfig { seed: 10, ..cfg });
        let dc: Vec<bool> =
            (0..500).map(|s| c.maybe_transient(s, (s % 4) as usize, 0, 0).is_err()).collect();
        assert_ne!(da, dc, "different seeds must differ somewhere");
    }

    #[test]
    fn afflicted_sites_heal_after_failures_per_site() {
        let cfg = FaultConfig { transient_prob: 1.0, failures_per_site: 3, ..Default::default() };
        let p = FaultPlan::new(cfg);
        for attempt in 0..3 {
            assert!(p.maybe_transient(7, 1, 0, attempt).is_err(), "attempt {attempt}");
        }
        assert!(p.maybe_transient(7, 1, 0, 3).is_ok(), "site must heal after 3 failures");
        assert_eq!(p.snapshot().injected_transients, 3);
    }

    #[test]
    fn injected_panic_is_a_real_panic() {
        let cfg = FaultConfig { panic_prob: 1.0, ..Default::default() };
        let p = FaultPlan::new(cfg);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.maybe_panic(0, 0, 0, 0);
        }));
        assert!(caught.is_err());
        assert_eq!(p.snapshot().injected_panics, 1);
    }

    #[test]
    fn backoff_is_bounded() {
        let r = RecoveryPolicy { backoff_base_ms: 2, backoff_cap_ms: 16, ..Default::default() };
        assert_eq!(r.backoff(0), Duration::from_millis(2));
        assert_eq!(r.backoff(1), Duration::from_millis(4));
        assert_eq!(r.backoff(10), Duration::from_millis(16));
    }

    #[test]
    fn snapshot_counts_projection_drops_time() {
        let p = FaultPlan::disabled();
        p.record_time_lost(Duration::from_millis(12));
        p.stats.task_retries.inc();
        let s = p.snapshot();
        assert_eq!(s.time_lost_us, 12_000);
        assert_eq!(s.counts().time_lost_us, 0);
        assert_eq!(s.counts().task_retries, 1);
        assert!(s.recovered());
    }

    #[test]
    fn process_mode_decisions_deterministic_and_healing() {
        let cfg = FaultConfig { panic_prob: 0.5, drop_prob: 0.5, seed: 11, ..Default::default() };
        let a = FaultPlan::new(cfg);
        let b = FaultPlan::new(cfg);
        let ka: Vec<bool> = (0..200).map(|s| a.kill_worker(s, (s % 3) as usize, 0)).collect();
        let kb: Vec<bool> = (0..200).map(|s| b.kill_worker(s, (s % 3) as usize, 0)).collect();
        assert_eq!(ka, kb);
        assert!(ka.iter().any(|&x| x) && !ka.iter().all(|&x| x));
        // Independent streams: kills and connection drops differ somewhere.
        let da: Vec<bool> = (0..200).map(|s| a.drop_connection(s, (s % 3) as usize, 0)).collect();
        assert_ne!(ka, da);
        // Afflicted sites heal after failures_per_site attempts.
        let site = (0..200).find(|&s| ka[s as usize]).unwrap();
        assert!(!b.kill_worker(site, (site % 3) as usize, 1), "attempt 1 must heal");
        let snap = a.snapshot();
        assert_eq!(snap.killed_workers, ka.iter().filter(|&&x| x).count() as u64);
        assert!(snap.injected() >= snap.killed_workers + snap.dropped_connections);
    }

    #[test]
    fn repair_counters_excluded_from_deterministic_projection() {
        let p = FaultPlan::disabled();
        p.stats.worker_respawns.inc();
        p.stats.reconnects.inc();
        let s = p.snapshot();
        assert_eq!(s.worker_respawns, 1);
        assert_eq!(s.reconnects, 1);
        assert!(s.recovered());
        assert_eq!(s.counts().worker_respawns, 0);
        assert_eq!(s.counts().reconnects, 0);
    }

    #[test]
    fn chaos_profile_is_active() {
        assert!(FaultConfig::chaos(1).is_active());
        assert!(!FaultConfig::default().is_active());
    }
}
