//! The supervised semi-naive loop (the paper's Algorithm 1), written once.
//!
//! `P_gld` and `P_plw` differ in *where* the loop runs — on the driver with
//! a shuffle per iteration, or on every worker after one repartition — not
//! in what it is. [`run`] is that loop: budget check, one [`Superstep`],
//! advance and checkpoint on success, restore or restart on a retryable
//! failure. The two plans are the two implementations of [`Superstep`]: the
//! worker step in [`crate::localfix`] over a [`mura_core::Relation`], the
//! driver step in [`crate::exec`] over a [`crate::DistRel`].

use crate::fault::{FaultPlan, RecoveryPolicy};
use crate::localfix::Budget;
use mura_core::fxhash::FxHashMap;
use mura_core::kernel::kernel_stats;
use mura_core::Result;
use mura_obs::trace::{EventKind, PlanKind, RecoveryKind, TraceEvent, TraceSink, DRIVER};

/// What one fixpoint runs under, built once per fixpoint and shared by
/// every loop of it.
pub struct Supervision<'a> {
    /// Shared row/byte/deadline/cancellation budget.
    pub budget: &'a Budget,
    /// The plan injected faults are drawn from and recoveries counted in.
    pub fault: &'a FaultPlan,
    /// Fault site of the fixpoint's worker loops (`P_plw`):
    /// allocated on the driver, so deterministic, and shared by all its
    /// workers. The `P_gld` driver draws one per stage and leaves this unused.
    pub site: u64,
    /// How many restores and restarts a loop may take.
    pub recovery: RecoveryPolicy,
    /// Checkpoint `(acc, delta, iteration)` every this many supersteps;
    /// `0` disables checkpointing.
    pub checkpoint_every: u64,
    /// Trace sink of the query, when it records events (`None` = off).
    /// Superstep events are only recorded at
    /// [`mura_obs::TraceLevel::Superstep`]; recovery events at any level.
    pub trace: Option<&'a TraceSink>,
    /// Fixpoint id carried by this fixpoint's trace events.
    pub fixpoint: u32,
    /// The plan running the fixpoint, carried by its trace events.
    pub plan: PlanKind,
}

impl<'a> Supervision<'a> {
    /// What a loop outside any query runs under: nothing injected (`fault`
    /// is a [`FaultPlan::disabled`] plan), checkpointed or traced.
    pub fn inert(budget: &'a Budget, fault: &'a FaultPlan) -> Self {
        Supervision {
            budget,
            fault,
            site: 0,
            recovery: RecoveryPolicy::default(),
            checkpoint_every: 0,
            trace: None,
            fixpoint: 0,
            plan: PlanKind::Plw,
        }
    }

    /// Records the recovery the loop on trace `lane` took back to `iteration`.
    fn record_recovery(&self, lane: i32, iteration: u64, kind: RecoveryKind) {
        if let Some(sink) = self.trace {
            let mut ev = TraceEvent::new(EventKind::Recovery, self.fixpoint, self.plan);
            ev.worker = lane;
            ev.iteration = iteration;
            ev.recovery = kind;
            ev.t_us = sink.now_us();
            sink.record(ev);
        }
    }
}

/// One iteration of a semi-naive loop over `(acc, delta)` states.
pub trait Superstep {
    /// An accumulator or a delta; cloned for checkpoints and restores.
    type State: Clone;

    /// Rows of a state: what a restore reloads; none in a delta ends the loop.
    fn rows(state: &Self::State) -> u64;

    /// Trace lane of this loop: the driver's, unless it is a worker's.
    fn lane(&self) -> i32 {
        DRIVER
    }

    /// Runs iteration `iteration` (1-based, so in-loop fault coordinates
    /// never collide with the task-level step 0): derives from `delta`,
    /// accumulates into `acc` and returns the rows that were new — the next
    /// delta, empty at the fixpoint. `attempt` counts the earlier failures
    /// of this iteration number. On an error `acc` may hold part of the
    /// iteration's rows.
    fn step(
        &mut self,
        sup: &Supervision<'_>,
        acc: &mut Self::State,
        delta: &Self::State,
        iteration: u64,
        attempt: u32,
    ) -> Result<Self::State>;
}

/// What [`run`] reached.
pub struct Fixed<S> {
    /// The fixpoint.
    pub total: S,
    /// The iteration the last non-empty delta was derived in.
    pub iterations: u64,
    /// Supersteps that completed — the closing one that derived nothing and
    /// the replays after a recovery included, failed ones not. The rule
    /// [`mura_core::KernelSnapshot::iterations`] moves by.
    pub supersteps: u64,
}

/// Runs `step` from `init()`'s `(acc, delta)` pair until the delta is empty.
///
/// Every `checkpoint_every` iterations the loop keeps a copy of `(acc,
/// delta, iteration)`. A step that fails with a retryable error sends it
/// back to that copy — or, when there is none, to a fresh `init()`, which
/// for a resumed fixpoint is the maintained pair, not the seed — up to
/// `max_restores` times; going back is also what discards what the failed
/// step had accumulated. Any other error returns at once.
///
/// The failures of an iteration number outlive a restore and reach the step
/// as its attempt, so an afflicted fault coordinate heals after
/// [`crate::fault::FaultConfig::failures_per_site`] of them and a replay
/// gets further than the run it replays.
pub fn run<S: Superstep>(
    sup: &Supervision<'_>,
    step: &mut S,
    init: impl Fn() -> (S::State, S::State),
) -> Result<Fixed<S::State>> {
    let (mut acc, mut delta) = init();
    let mut iteration = 0u64;
    let mut supersteps = 0u64;
    let mut checkpoint: Option<(S::State, S::State, u64)> = None;
    let mut restores = 0u32;
    let mut failures: FxHashMap<u64, u32> = FxHashMap::default();
    while S::rows(&delta) > 0 {
        // Between supersteps and after every recovery: a cancelled or
        // out-of-budget query stops recovering here.
        sup.budget.check()?;
        let next = iteration + 1;
        let attempt = failures.get(&next).copied().unwrap_or(0);
        match step.step(sup, &mut acc, &delta, next, attempt) {
            Ok(new) => {
                supersteps += 1;
                kernel_stats().iterations.inc();
                if S::rows(&new) == 0 {
                    break;
                }
                delta = new;
                iteration = next;
                if sup.checkpoint_every > 0 && iteration.is_multiple_of(sup.checkpoint_every) {
                    checkpoint = Some((acc.clone(), delta.clone(), iteration));
                    sup.fault.stats.checkpoints.inc();
                }
            }
            Err(e) if e.is_retryable() && restores < sup.recovery.max_restores => {
                *failures.entry(next).or_insert(0) += 1;
                restores += 1;
                let kind = match &checkpoint {
                    Some((a, d, at)) => {
                        sup.fault.record_restore(S::rows(a) + S::rows(d), iteration - at);
                        (acc, delta, iteration) = (a.clone(), d.clone(), *at);
                        RecoveryKind::Restore
                    }
                    None => {
                        (acc, delta) = init();
                        sup.fault.record_full_restart(S::rows(&acc));
                        iteration = 0;
                        RecoveryKind::Restart
                    }
                };
                sup.record_recovery(step.lane(), iteration, kind);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Fixed { total: acc, iterations: iteration, supersteps })
}
