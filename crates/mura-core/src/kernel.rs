//! Kernel-level instrumentation for the fixpoint evaluation kernels.
//!
//! The loop-invariant optimizations (constant folding in `prepare`, cached
//! join indexes, allocation-free probes) are only trustworthy if they are
//! *observable*: these process-wide counters record how often the expensive
//! operations actually run, so tests can assert e.g. that a build-side join
//! index is constructed once per fixpoint rather than once per iteration,
//! and serving layers can surface the numbers alongside cache statistics.
//!
//! The set is process-wide (one evaluation kernel per process, many
//! clusters): a window over it is `snapshot().since(&before)`, which also
//! sees whatever other threads did in between.

use std::time::Duration;

mura_obs::counter_set! {
    /// Process-wide counters for the evaluation kernels.
    pub struct KernelStats => KernelSnapshot {
        counter "mura_kernel_events_total", "Evaluation-kernel events (process-wide)." {
            /// Build-side join indexes constructed (once per `Join(delta,
            /// const)` per fixpoint when the kernels work as intended).
            index_builds {event = "index_build"},
            /// Antijoin key-sets constructed.
            key_index_builds {event = "key_index_build"},
            /// Rows probed against a cached join index.
            join_probes {event = "join_probe"},
            /// Rows probed against a cached antijoin key-set.
            antijoin_probes {event = "antijoin_probe"},
            /// Output rows materialized by the indexed kernels.
            rows_allocated {event = "rows_allocated"},
            /// Variable-free subtrees folded into a single pre-materialized
            /// constant by `prepare` (once per fold, before iteration starts).
            const_folds {event = "const_fold"},
            /// Semi-naive iterations executed by prepared fixpoint loops.
            iterations {event = "iteration"},
            /// `P_plw` fixpoints run by the closure kernel (a traversal over
            /// a CSR adjacency) instead of the semi-naive chains.
            closure_kernels {event = "closure_kernel"},
        }
        counter "mura_kernel_eval_nanoseconds_total", "Time inside prepared kernel evaluation." {
            eval_nanos,
        }
    }
}

impl KernelStats {
    /// Records time spent in prepared kernel evaluation.
    pub fn record_eval_time(&self, d: Duration) {
        self.eval_nanos.add(d.as_nanos() as u64);
    }
}

/// The process-wide kernel counters.
pub fn kernel_stats() -> &'static KernelStats {
    static STATS: KernelStats = KernelStats::new();
    &STATS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_isolates_a_window() {
        let s = kernel_stats();
        let before = s.snapshot();
        s.index_builds.inc();
        s.join_probes.add(10);
        s.record_eval_time(Duration::from_nanos(5));
        let d = s.snapshot().since(&before);
        assert!(d.index_builds >= 1);
        assert!(d.join_probes >= 10);
        assert!(d.eval_nanos >= 5);
    }
}
