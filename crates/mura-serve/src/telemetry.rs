//! Telemetry: the serving tier's counters, its latency histograms, and the
//! three renderings of both.
//!
//! Every other owner bumps the [`Counters`] it is handed; nobody else
//! formats them. [`stats_of`] is the one place that asks each owner for the
//! gauges it keeps behind its lock, and `.stats`, `.metrics` and
//! [`Client::counter_rows`](crate::Client::counter_rows) all read
//! [`rows_of`], so the three cannot disagree about what the server exposes.

use crate::server::ServerInner;
use mura_core::kernel::kernel_stats;
use mura_core::mem_gauge;
use mura_dist::{CommStats, FaultStats, QueryOutput};
use mura_ivm::FallbackReason;
use mura_obs::counters::{stats_title, write_stats};
use mura_obs::histogram::{fmt_us, HistogramSnapshot};
use mura_obs::{Counter, Histogram, PromText, Row};
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};

mura_obs::counter_set! {
    /// The serving tier's own counters. [`ServeStats`] is their snapshot
    /// (see [`Client::stats`](crate::Client::stats)) plus the gauges read at
    /// snapshot time.
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
            /// Queries rejected with [`ServeError::Busy`](crate::ServeError::Busy).
            rejected {outcome = "rejected"},
            /// The subset of [`shed`](Self::shed) that was already admitted
            /// when the worker-side gates shed it. Admitted queries
            /// terminate as exactly one of completed / failed /
            /// shed_admitted.
            shed_admitted {outcome = "shed"},
        }
        counter "mura_shed_total",
            "Queries shed by overload protection (memory watermark or open breaker)." {
            /// Queries shed with
            /// [`ServeError::Overloaded`](crate::ServeError::Overloaded), whether at
            /// submission or after admission.
            shed,
        }
        counter "mura_breaker_opened_total", "Circuit-breaker open transitions." { breaker_opened }
        counter "mura_cache_events_total", "Plan/result cache hits and misses." {
            /// Requests that got their plan without a search: from the text
            /// memo, or by binding their shape's template.
            plan_hits {cache = "plan", event = "hit"},
            /// The subset of [`plan_hits`](Self::plan_hits) that bound a
            /// template: the text was new, its shape was not.
            plan_template_hits {cache = "plan", event = "template_hit"},
            /// Searches: the shape was new, or costed under observations
            /// that have moved since.
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
            /// Batches applied through [`Client::apply_delta`](crate::Client::apply_delta).
            deltas_applied,
        }
        counter "mura_db_delta_rows_total", "Base rows mutated through deltas." {
            /// After no-op normalization.
            delta_rows_inserted {op = "insert"},
            delta_rows_deleted {op = "delete"},
        }
        counter "mura_ivm_applied_total",
            "Cached views brought to the current version by a read of them, per mode." {
            /// Maintained incrementally (resumed fixpoint loops).
            ivm_maintained {mode = "maintained"},
            /// Revalidated untouched (nothing they compute from moved in
            /// the batches they missed).
            ivm_unaffected {mode = "unaffected"},
        }
        counter "mura_ivm_fallback_total",
            "Cached views dropped by a read that then executed fresh, per reason." {
            ivm_fallback_non_monotone {reason = "non-monotone"},
            ivm_fallback_nested_fixpoint {reason = "nested-fixpoint"},
            ivm_fallback_cache_cold {reason = "cache-cold"},
            ivm_fallback_cost {reason = "cost"},
            /// Planner/executor errors, and entries the delta log no
            /// longer bridges (a load in between, a trimmed log).
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
                "Names the database dictionary holds (catalog names, query variables)." {
                /// Planning adds the query's variables and nothing else:
                /// what a search mints, and what its plan keeps, are numbers.
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
    /// The counter of one way a view leaves the cache unmaintained; `None`
    /// is planner/executor errors and entries the log no longer bridges.
    pub(crate) fn fallback(&self, reason: Option<FallbackReason>) -> &Counter {
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
pub(crate) struct Telemetry {
    pub(crate) counters: Counters,
    /// Submission → answer, queue time included. Every finished query.
    pub(crate) wall: Histogram,
    /// Submission → a worker picking the job up.
    pub(crate) queue: Histogram,
    /// Evaluator time of executions: fresh ones and resumed catch-ups.
    execution: Histogram,
    /// What a text the memo did not hold paid under the engine write lock:
    /// translation, then a template binding or a search.
    pub(crate) planning: Histogram,
    /// What bringing one view forward added to the read that did it
    /// (coalescing, planning the resume state, the resumed execution),
    /// maintained and untouched views.
    pub(crate) maintenance: Histogram,
    /// Communication of fresh executions, summed from their per-query
    /// `since()` deltas (cache hits replay an answer, not its
    /// communication; the shared cluster counters are never reset). The
    /// wire bytes move under
    /// [`ClusterMode::Processes`](crate::ClusterMode::Processes) only.
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
    /// Accounts one execution, fresh or resumed — never a cache hit, which
    /// replays an old answer, not its communication or its faults. A merged trace
    /// feeds the skew telemetry: every worker-lane superstep duration goes
    /// into the histogram, and the worst per-fixpoint `max/median` ratio
    /// updates the gauge.
    pub(crate) fn record_run(&self, out: &QueryOutput) {
        self.execution.record(out.execution);
        self.comm.add(&out.comm);
        let fault = &out.stats.fault;
        if fault.injected() > 0 || fault.recovered() {
            self.counters.degraded.inc();
            self.faults.add(fault);
        }
        let Some(trace) = &out.stats.trace else { return };
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

    fn skew_ratio(&self) -> f64 {
        self.skew_ratio_milli.load(Ordering::Relaxed) as f64 / 1000.0
    }
}

/// The counters plus the gauges each owner keeps behind its own lock, read
/// one owner at a time (no two of those locks are ever held together).
pub(crate) fn stats_of(inner: &ServerInner) -> ServeStats {
    let c = inner.telemetry.counters.snapshot();
    let (breaker_open, breaker_half_open) = inner.admission.breaker_gauges();
    let kernel = kernel_stats().snapshot();
    let comm = inner.telemetry.comm.snapshot();
    let mut stats = ServeStats {
        result_evictions: inner.views.evictions(),
        breaker_open,
        breaker_half_open,
        mem_current_bytes: mem_gauge().current_bytes(),
        mem_high_water_bytes: mem_gauge().high_water_bytes(),
        drain_phase: inner.admission.drain_phase(),
        snapshot_age_seconds: inner.durability.snapshot_age_seconds(),
        epoch: inner.clocks.epoch(),
        version: inner.clocks.version(),
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
    };
    inner.planning.report(&mut stats);
    stats
}

/// Every counter set the server exposes, as rows: its own, then those of
/// the layers below it. `.stats`, `.metrics` and the tests that hold the
/// two to the declarations all read this one list.
pub(crate) fn rows_of(inner: &ServerInner) -> Vec<Row> {
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
            "Evaluator time of executions (fresh or resumed).",
            t.execution.snapshot(),
        ),
        (
            "mura_query_planning_seconds",
            "Planning time of texts the plan memo missed (bound or searched).",
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

/// The `.stats` report: one line per family of [`rows_of`], the skew
/// gauge, and p50/p95/p99 of every histogram.
pub(crate) fn stats_text_of(inner: &ServerInner) -> String {
    let mut out = String::new();
    let _ = write_stats(&rows_of(inner), &mut out);
    let skew = inner.telemetry.skew_ratio();
    let _ = writeln!(out, "{:<32} {skew:.3}", stats_title(SKEW_FAMILY));
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
pub(crate) fn metrics_of(inner: &ServerInner) -> String {
    let mut p = PromText::new();
    p.rows(&rows_of(inner));
    p.gauge(
        SKEW_FAMILY,
        "Worst per-fixpoint max/median worker-time ratio of the last traced run.",
        inner.telemetry.skew_ratio(),
    );
    for (family, help, h) in histograms_of(inner) {
        p.histogram(family, help, &h);
    }
    p.finish()
}
