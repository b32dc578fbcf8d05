//! The supervised semi-naive loop on its own: a scripted step over a toy
//! state, no cluster. The state is a set of numbers; iteration `i` derives
//! `i` from the delta `i − 1` until `last`, so the fixpoint, the delta of
//! every iteration and the iteration a replay resumes at are all known.

use mura_core::{CancellationToken, MuraError, Result};
use mura_dist::fixloop::{run, Fixed, Superstep, Supervision};
use mura_dist::localfix::Budget;
use mura_dist::{FaultConfig, FaultPlan, FaultSnapshot, RecoveryPolicy, TraceLevel};
use mura_obs::trace::{EventKind, RecoveryKind, TraceSink};

/// What a scripted failure returns.
#[derive(Clone, Copy)]
enum Fail {
    Transient,
    Memory,
    /// Transient, and the query is cancelled while the step fails.
    CancelThenTransient,
}

struct Script {
    /// The chain stops deriving at this number.
    last: u64,
    /// `(iteration, failures)`: the first `failures` attempts of
    /// `iteration` fail.
    fail: Vec<(u64, u32, Fail)>,
    cancel: Option<CancellationToken>,
    /// Every call, in order: `(iteration, attempt, acc, delta)`.
    calls: Vec<(u64, u32, Vec<u64>, Vec<u64>)>,
}

impl Script {
    fn new(last: u64, fail: Vec<(u64, u32, Fail)>) -> Script {
        Script { last, fail, cancel: None, calls: Vec::new() }
    }

    /// The iterations called, in order.
    fn iterations(&self) -> Vec<u64> {
        self.calls.iter().map(|c| c.0).collect()
    }
}

impl Superstep for Script {
    type State = Vec<u64>;

    fn rows(state: &Vec<u64>) -> u64 {
        state.len() as u64
    }

    fn lane(&self) -> i32 {
        3
    }

    fn step(
        &mut self,
        _sup: &Supervision<'_>,
        acc: &mut Vec<u64>,
        delta: &Vec<u64>,
        iteration: u64,
        attempt: u32,
    ) -> Result<Vec<u64>> {
        self.calls.push((iteration, attempt, acc.clone(), delta.clone()));
        // Half of the work lands before the failure, as in a real superstep.
        let new: Vec<u64> =
            delta.iter().map(|n| n + 1).filter(|n| *n <= self.last && !acc.contains(n)).collect();
        acc.extend(&new);
        if let Some((_, _, kind)) =
            self.fail.iter().find(|(at, times, _)| *at == iteration && attempt < *times)
        {
            return Err(match kind {
                Fail::Transient => MuraError::TransientFault { worker: 7 },
                Fail::Memory => MuraError::MemoryExceeded { used: 2, limit: 1 },
                Fail::CancelThenTransient => {
                    self.cancel.as_ref().expect("a token to cancel").cancel();
                    MuraError::TransientFault { worker: 7 }
                }
            });
        }
        Ok(new)
    }
}

fn supervision<'a>(
    budget: &'a Budget,
    fault: &'a FaultPlan,
    checkpoint_every: u64,
    max_restores: u32,
) -> Supervision<'a> {
    Supervision {
        checkpoint_every,
        recovery: RecoveryPolicy { max_restores, ..Default::default() },
        ..Supervision::inert(budget, fault)
    }
}

/// Runs `script` from the seed `{0}`.
fn run_from_seed(
    script: &mut Script,
    checkpoint_every: u64,
    max_restores: u32,
) -> (Result<Fixed<Vec<u64>>>, FaultSnapshot) {
    let (budget, fault) = (Budget::new(None, None), FaultPlan::disabled());
    let sup = supervision(&budget, &fault, checkpoint_every, max_restores);
    let out = run(&sup, script, || (vec![0], vec![0]));
    (out, fault.snapshot())
}

#[test]
fn fault_free_run_counts_the_closing_superstep() {
    let mut script = Script::new(5, vec![]);
    let (out, faults) = run_from_seed(&mut script, 0, 8);
    let fixed = out.unwrap();
    assert_eq!(fixed.total, vec![0, 1, 2, 3, 4, 5]);
    assert_eq!(fixed.iterations, 5, "the last non-empty delta came out of iteration 5");
    assert_eq!(fixed.supersteps, 6, "iteration 6 ran and derived nothing");
    assert_eq!(script.iterations(), vec![1, 2, 3, 4, 5, 6]);
    assert_eq!(faults.counts(), FaultSnapshot::default());
}

#[test]
fn failure_restores_the_last_checkpoint_and_replays_from_it() {
    for (k, c) in [(5u64, 2u64), (4, 2), (6, 3), (3, 1), (2, 4)] {
        let mut script = Script::new(8, vec![(k, 1, Fail::Transient)]);
        let (out, faults) = run_from_seed(&mut script, c, 8);
        let fixed = out.unwrap();
        assert_eq!(fixed.total, (0..=8).collect::<Vec<u64>>(), "k={k} c={c}");
        let back_to = (k - 1) / c * c;
        let mut expected: Vec<u64> = (1..=k).collect();
        expected.extend(back_to + 1..=9);
        assert_eq!(script.iterations(), expected, "k={k} c={c}: replay starts after {back_to}");
        // The replayed iteration sees the checkpoint's state, not what the
        // failed attempt left behind.
        let (_, attempt, acc, delta) = &script.calls[k as usize];
        assert_eq!(acc, &(0..=back_to).collect::<Vec<u64>>(), "k={k} c={c}");
        assert_eq!(delta, &vec![back_to], "k={k} c={c}");
        assert_eq!(*attempt, u32::from(back_to + 1 == k), "k={k} c={c}");
        if back_to == 0 {
            assert_eq!((faults.checkpoint_restores, faults.full_restarts), (0, 1));
        } else {
            assert_eq!((faults.checkpoint_restores, faults.full_restarts), (1, 0));
            assert_eq!(faults.rows_replayed, back_to + 2, "acc and delta of the checkpoint");
            assert_eq!(faults.iterations_replayed, k - 1 - back_to, "k={k} c={c}");
        }
        assert_eq!(faults.checkpoints, 8 / c + (k - 1) / c - back_to / c, "k={k} c={c}");
        assert_eq!(fixed.supersteps, 9 + (k - 1 - back_to), "completed ones, replays included");
    }
}

#[test]
fn without_a_checkpoint_the_loop_restarts_from_the_initial_pair() {
    // A resumed fixpoint: the accumulator holds more than the frontier.
    let init = || (vec![40, 41, 0], vec![0]);
    let mut script = Script::new(4, vec![(3, 1, Fail::Transient)]);
    let (budget, fault) = (Budget::new(None, None), FaultPlan::disabled());
    let sink = TraceSink::new(TraceLevel::Fixpoint);
    let sup = Supervision { trace: Some(&sink), ..supervision(&budget, &fault, 0, 8) };
    let fixed = run(&sup, &mut script, init).unwrap();
    assert_eq!(fixed.total, vec![40, 41, 0, 1, 2, 3, 4]);
    assert_eq!(script.iterations(), vec![1, 2, 3, 1, 2, 3, 4, 5]);
    let (_, _, acc, delta) = &script.calls[3];
    assert_eq!((acc, delta), (&vec![40, 41, 0], &vec![0]), "the resumed pair, not a seed");
    let faults = fault.snapshot();
    assert_eq!((faults.full_restarts, faults.checkpoint_restores), (1, 0));
    assert_eq!(faults.rows_replayed, 3, "the accumulator the restart reloaded");
    // The recovery is on the trace, on the loop's lane.
    let trace = sink.finish();
    let recoveries: Vec<_> =
        trace.events.iter().filter(|e| e.kind == EventKind::Recovery).collect();
    assert_eq!(recoveries.len(), 1);
    assert_eq!(
        (recoveries[0].worker, recoveries[0].iteration, recoveries[0].recovery),
        (3, 0, RecoveryKind::Restart)
    );
}

#[test]
fn exhausted_restores_return_the_original_error() {
    let mut script = Script::new(5, vec![(2, u32::MAX, Fail::Transient)]);
    let (out, faults) = run_from_seed(&mut script, 1, 3);
    let err = out.err().expect("iteration 2 never heals");
    assert!(matches!(err, MuraError::TransientFault { worker: 7 }), "{err:?}");
    assert_eq!(script.iterations(), vec![1, 2, 2, 2, 2], "three restores, then the error");
    assert_eq!(faults.checkpoint_restores, 3);
    let attempts: Vec<u32> = script.calls[1..].iter().map(|c| c.1).collect();
    assert_eq!(attempts, vec![0, 1, 2, 3], "failures of an iteration outlive the restore");
}

#[test]
fn an_error_that_is_not_retryable_returns_at_once() {
    let mut script = Script::new(5, vec![(2, 1, Fail::Memory)]);
    let (out, faults) = run_from_seed(&mut script, 1, 8);
    let err = out.err().expect("a blown byte budget is final");
    assert!(matches!(err, MuraError::MemoryExceeded { .. }), "{err:?}");
    assert_eq!(script.iterations(), vec![1, 2]);
    assert_eq!((faults.checkpoint_restores, faults.full_restarts), (0, 0));
}

#[test]
fn a_cancelled_budget_stops_recovery_between_attempts() {
    let token = CancellationToken::new();
    let mut script = Script::new(5, vec![(2, 1, Fail::CancelThenTransient)]);
    script.cancel = Some(token.clone());
    let budget = Budget::new(None, None).with_cancel(Some(token));
    let fault = FaultPlan::disabled();
    let sup = supervision(&budget, &fault, 1, 8);
    let err = run(&sup, &mut script, || (vec![0], vec![0])).err().expect("cancelled");
    assert!(matches!(err, MuraError::Cancelled), "{err:?}");
    assert_eq!(script.iterations(), vec![1, 2], "nothing is replayed for a cancelled query");
}

/// A step whose body is a fault-guarded attempt under a real plan: every
/// iteration is afflicted and heals on its second attempt.
struct Guarded(Script);

impl Superstep for Guarded {
    type State = Vec<u64>;

    fn rows(state: &Vec<u64>) -> u64 {
        state.len() as u64
    }

    fn lane(&self) -> i32 {
        0
    }

    fn step(
        &mut self,
        sup: &Supervision<'_>,
        acc: &mut Vec<u64>,
        delta: &Vec<u64>,
        iteration: u64,
        attempt: u32,
    ) -> Result<Vec<u64>> {
        let script = &mut self.0;
        sup.fault.guarded(sup.site, 0, iteration, attempt, || {
            script.step(sup, acc, delta, iteration, attempt)
        })
    }
}

#[test]
fn the_same_script_gives_the_same_fault_counts_twice() {
    let once = || {
        let budget = Budget::new(None, None);
        let fault = FaultPlan::new(FaultConfig {
            seed: 9,
            transient_prob: 1.0,
            straggler_prob: 0.5,
            straggler_delay_ms: 0,
            ..Default::default()
        });
        let sup = supervision(&budget, &fault, 2, 64);
        let mut step = Guarded(Script::new(6, vec![(5, 2, Fail::Transient)]));
        let fixed = run(&sup, &mut step, || (vec![0], vec![0])).unwrap();
        assert_eq!(fixed.total, (0..=6).collect::<Vec<u64>>());
        (fault.snapshot().counts(), step.0.iterations())
    };
    let (first, calls) = once();
    assert_eq!(once(), (first, calls));
    // Seven iterations each fail their first attempt, iteration 5 its
    // second too (the scripted one, which runs once the injected one healed).
    assert_eq!(first.injected_transients, 7);
    assert_eq!(first.checkpoint_restores + first.full_restarts, 8);
    assert!(first.injected_stragglers > 0);
    assert_eq!(first.time_lost_us, 0, "wall-clock is not part of the projection");
}
