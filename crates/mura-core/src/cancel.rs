//! Cooperative cancellation for long-running evaluations.
//!
//! A [`CancellationToken`] is a cheap, cloneable handle shared between the
//! party that starts an evaluation and the evaluation itself. The evaluator
//! calls [`CancellationToken::check`] at every fixpoint superstep (the
//! natural preemption points of recursive query evaluation — see
//! `mura-dist`'s `P_gld` and `P_plw` loops); the owner flips the
//! flag from another thread to stop the work promptly.
//!
//! A token can also carry a **deadline**. Deadlines are distinct from the
//! engine-level `ResourceLimits` timeout: the limit is part of the engine
//! configuration and reports [`MuraError::Timeout`], while a token deadline
//! is per-request (set by a serving layer on behalf of one client) and
//! reports [`MuraError::DeadlineExceeded`] so callers can tell the two
//! apart.

use crate::error::{MuraError, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared cancellation flag with an optional per-request deadline.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
    /// `(deadline, budget_millis)`: when the deadline passes, the error
    /// reports the originally granted budget.
    deadline: Option<(Instant, u64)>,
}

impl CancellationToken {
    /// A token that never expires on its own.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that expires `budget` from now.
    pub fn with_timeout(budget: Duration) -> Self {
        CancellationToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some((Instant::now() + budget, budget.as_millis() as u64)),
        }
    }

    /// Requests cancellation; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// True once [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// The deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline.map(|(d, _)| d)
    }

    /// Errors with [`MuraError::Cancelled`] if cancelled, or
    /// [`MuraError::DeadlineExceeded`] if past the deadline.
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            return Err(MuraError::Cancelled);
        }
        if let Some((deadline, millis)) = self.deadline {
            if Instant::now() > deadline {
                return Err(MuraError::DeadlineExceeded { millis });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_passes() {
        assert!(CancellationToken::new().check().is_ok());
    }

    #[test]
    fn cancel_is_seen_by_clones() {
        let t = CancellationToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
        assert!(matches!(c.check(), Err(MuraError::Cancelled)));
    }

    #[test]
    fn deadline_reports_budget() {
        let t = CancellationToken::with_timeout(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(t.check(), Err(MuraError::DeadlineExceeded { millis: 0 })));
    }

    #[test]
    fn cancellation_wins_over_deadline() {
        let t = CancellationToken::with_timeout(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        t.cancel();
        assert!(matches!(t.check(), Err(MuraError::Cancelled)));
    }

    #[test]
    fn future_deadline_passes() {
        let t = CancellationToken::with_timeout(Duration::from_secs(3600));
        assert!(t.check().is_ok());
        assert!(t.deadline().is_some());
    }
}
