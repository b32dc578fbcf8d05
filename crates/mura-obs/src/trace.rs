//! Per-query tracing: a ring-buffered event recorder fed by the fixpoint
//! drivers, and the finished [`QueryTrace`] with its exporters.
//!
//! Design constraints (see DESIGN.md §11):
//!
//! * **allocation-light** — [`TraceEvent`] is a flat `Copy` struct; the
//!   ring buffer is pre-sized at sink creation and recording never
//!   allocates;
//! * **cheap when off** — drivers hold an `Option<Arc<TraceSink>>`; at
//!   [`TraceLevel::Off`] no sink exists and the guard is a `None` check;
//! * **bounded** — the ring keeps the most recent events and counts what
//!   it dropped, so a runaway fixpoint cannot exhaust memory;
//! * **deterministic modulo time** — [`QueryTrace::signature`] projects
//!   events onto their deterministic fields (no timestamps, no
//!   process-wide kernel counters) and sorts them canonically, so two
//!   same-seed chaos runs compare equal even though worker threads race
//!   for ring-buffer slots.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How much a query records. Levels are ordered: each level includes
/// everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// No recording at all (the default; the hot loops see a `None`).
    #[default]
    Off,
    /// Fixpoint-level spans only: start, setup, recovery, end.
    Fixpoint,
    /// One event per superstep (per worker under `P_plw`).
    Superstep,
}

impl TraceLevel {
    /// Stable lowercase name (used by the JSON exporters).
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Fixpoint => "fixpoint",
            TraceLevel::Superstep => "superstep",
        }
    }
}

/// What an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A fixpoint began (carries the seed size in `delta_rows`).
    FixpointStart,
    /// One-time pre-loop work: invariant broadcasts, `P_plw` repartition,
    /// branch preparation. Communication during setup lands here.
    Setup,
    /// One semi-naive superstep (driver-side for `P_gld`, per worker for
    /// `P_plw`).
    Superstep,
    /// Recovery machinery ran (see [`TraceEvent::recovery`]).
    Recovery,
    /// The fixpoint converged (carries the final size in `delta_rows`).
    FixpointEnd,
    /// Worker lane: buckets a worker relayed to its peers. Workers no
    /// longer record it (they echo exchange frames instead); it stays for
    /// readers that name it.
    ExchangeSend,
    /// Worker lane: the buckets of an exchange bound for the worker, echoed
    /// back to the coordinator (merged from a worker-side span).
    ExchangeRecv,
    /// Worker lane: a wait for buckets from peers. Workers no longer
    /// record it; it stays for readers that name it.
    ExchangeWait,
    /// Worker lane: a broadcast replica landed on the worker.
    BroadcastRecv,
    /// Supervisor journal: a dead worker process was respawned.
    Respawn,
    /// Supervisor journal: a control/heartbeat connection was remade.
    Reconnect,
    /// Supervisor journal: a heartbeat deadline was missed.
    LivenessMiss,
}

impl EventKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::FixpointStart => "fixpoint_start",
            EventKind::Setup => "setup",
            EventKind::Superstep => "superstep",
            EventKind::Recovery => "recovery",
            EventKind::FixpointEnd => "fixpoint_end",
            EventKind::ExchangeSend => "exchange_send",
            EventKind::ExchangeRecv => "exchange_recv",
            EventKind::ExchangeWait => "exchange_wait",
            EventKind::BroadcastRecv => "broadcast_recv",
            EventKind::Respawn => "respawn",
            EventKind::Reconnect => "reconnect",
            EventKind::LivenessMiss => "liveness_miss",
        }
    }

    /// Driver-side kinds whose counts are deterministic for a given query
    /// and fault seed. Only these enter [`QueryTrace::signature`].
    pub fn is_core(self) -> bool {
        matches!(
            self,
            EventKind::FixpointStart
                | EventKind::Setup
                | EventKind::Superstep
                | EventKind::Recovery
                | EventKind::FixpointEnd
        )
    }

    /// Worker-lane communication kinds (merged from worker-side spans).
    /// Timing dependent — repair-path retransmissions duplicate them — so
    /// they are visible in timelines but excluded from signatures.
    pub fn is_worker_comm(self) -> bool {
        matches!(
            self,
            EventKind::ExchangeSend
                | EventKind::ExchangeRecv
                | EventKind::ExchangeWait
                | EventKind::BroadcastRecv
        )
    }
}

/// Which physical fixpoint plan produced the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum PlanKind {
    #[default]
    None,
    Gld,
    Plw,
}

impl PlanKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            PlanKind::None => "none",
            PlanKind::Gld => "gld",
            PlanKind::Plw => "plw",
        }
    }
}

/// Which recovery action a [`EventKind::Recovery`] event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum RecoveryKind {
    #[default]
    None,
    /// A failed superstep was retried in place.
    Retry,
    /// State was rolled back to a superstep checkpoint.
    Restore,
    /// The fixpoint restarted from its seed.
    Restart,
}

impl RecoveryKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryKind::None => "none",
            RecoveryKind::Retry => "retry",
            RecoveryKind::Restore => "restore",
            RecoveryKind::Restart => "restart",
        }
    }
}

/// Worker id used for driver-side events.
pub const DRIVER: i32 = -1;

/// One recorded event. Flat and `Copy` so recording is a memcpy; fields
/// that do not apply to a kind stay zero.
///
/// The kernel counters (`index_builds`, `join_probes`, `antijoin_probes`)
/// are deltas of the **process-wide** kernel stats and are therefore
/// best-effort under concurrent queries; they are excluded from
/// [`QueryTrace::signature`]. Communication and fault counters come from
/// per-cluster stats and are exact per query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    pub kind: EventKind,
    /// Which fixpoint of the query (0-based, driver-sequential).
    pub fixpoint: u32,
    /// The physical plan executing this fixpoint.
    pub plan: PlanKind,
    /// Worker index, or [`DRIVER`] for driver-side events.
    pub worker: i32,
    /// Superstep number (1-based; 0 for non-superstep events).
    pub iteration: u64,
    /// New tuples this step (or seed/final size for start/end events).
    pub delta_rows: u64,
    /// Shuffle operations during this event's window.
    pub shuffles: u64,
    /// Rows repartitioned during this event's window.
    pub rows_shuffled: u64,
    /// Broadcast operations during this event's window.
    pub broadcasts: u64,
    /// Rows replicated by broadcasts during this event's window.
    pub rows_broadcast: u64,
    /// Data-plane payload bytes that crossed worker sockets during this
    /// event's window (zero on the in-process simulator backend). Measured,
    /// not simulated — but excluded from [`QueryTrace::signature`] because
    /// repair-path retransmissions under real process kills are timing
    /// dependent.
    pub wire_exchange_bytes: u64,
    /// Join/antijoin index builds (process-wide delta, best effort).
    pub index_builds: u64,
    /// Rows probed against cached join indexes (process-wide delta).
    pub join_probes: u64,
    /// Rows probed against cached antijoin key-sets (process-wide delta).
    pub antijoin_probes: u64,
    /// Faults injected during this event's window (per-cluster delta).
    pub faults: u64,
    /// Recovery action, for [`EventKind::Recovery`] events.
    pub recovery: RecoveryKind,
    /// Microseconds since the trace began.
    pub t_us: u64,
    /// Event duration in microseconds.
    pub dur_us: u64,
}

impl Default for TraceEvent {
    fn default() -> Self {
        TraceEvent {
            kind: EventKind::Superstep,
            fixpoint: 0,
            plan: PlanKind::None,
            worker: DRIVER,
            iteration: 0,
            delta_rows: 0,
            shuffles: 0,
            rows_shuffled: 0,
            broadcasts: 0,
            rows_broadcast: 0,
            wire_exchange_bytes: 0,
            index_builds: 0,
            join_probes: 0,
            antijoin_probes: 0,
            faults: 0,
            recovery: RecoveryKind::None,
            t_us: 0,
            dur_us: 0,
        }
    }
}

impl TraceEvent {
    /// An event of the given kind within a fixpoint/plan.
    pub fn new(kind: EventKind, fixpoint: u32, plan: PlanKind) -> Self {
        TraceEvent { kind, fixpoint, plan, ..Default::default() }
    }
}

/// Default ring capacity: enough for thousands of supersteps across every
/// worker; ~4 MiB of `Copy` events at the default.
pub const DEFAULT_CAPACITY: usize = 32_768;

/// Process-wide trace-id allocator (ids start at 1; 0 = "no trace" on the
/// wire).
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

struct Ring {
    buf: VecDeque<TraceEvent>,
    cap: usize,
}

/// The per-query event recorder handed (behind an `Arc`) to the fixpoint
/// drivers. Thread-safe: `P_plw` workers record concurrently.
pub struct TraceSink {
    level: TraceLevel,
    trace_id: u64,
    start: Instant,
    ring: Mutex<Ring>,
    dropped: AtomicU64,
    next_fixpoint: AtomicU64,
}

impl TraceSink {
    /// A sink at the given level with the default ring capacity.
    pub fn new(level: TraceLevel) -> Self {
        Self::with_capacity(level, DEFAULT_CAPACITY)
    }

    /// A sink with an explicit ring capacity (at least 1).
    pub fn with_capacity(level: TraceLevel, cap: usize) -> Self {
        let cap = cap.max(1);
        TraceSink {
            level,
            trace_id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            ring: Mutex::new(Ring { buf: VecDeque::with_capacity(cap), cap }),
            dropped: AtomicU64::new(0),
            next_fixpoint: AtomicU64::new(0),
        }
    }

    /// The sink's recording level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Process-unique id of this sink, propagated on data-plane frames so
    /// worker-side spans can be matched back to the query.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The instant all `t_us` timestamps are relative to — the time base
    /// worker spans are re-based onto after clock alignment.
    pub fn start_instant(&self) -> Instant {
        self.start
    }

    /// Folds externally-dropped events (a worker's bounded span ring) into
    /// this trace's `dropped` count.
    pub fn add_dropped(&self, n: u64) {
        if n > 0 {
            self.dropped.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// True when per-superstep events should be recorded.
    pub fn superstep_enabled(&self) -> bool {
        self.level >= TraceLevel::Superstep
    }

    /// Microseconds since the sink was created (the trace time base).
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Allocates the next fixpoint id (driver-sequential).
    pub fn next_fixpoint(&self) -> u32 {
        self.next_fixpoint.fetch_add(1, Ordering::Relaxed) as u32
    }

    /// Appends an event; overwrites the oldest when the ring is full.
    pub fn record(&self, ev: TraceEvent) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.buf.len() == ring.cap {
            ring.buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.buf.push_back(ev);
    }

    /// Snapshot of the trace so far (idempotent; the sink keeps recording).
    pub fn finish(&self) -> QueryTrace {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        QueryTrace {
            level: self.level,
            trace_id: self.trace_id,
            events: ring.buf.iter().copied().collect(),
            dropped: self.dropped.load(Ordering::Relaxed),
            total_us: self.now_us(),
        }
    }
}

/// A finished per-query trace, attached to `ExecStats` by the evaluator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryTrace {
    /// The level the query recorded at.
    pub level: TraceLevel,
    /// Process-unique id of the sink that recorded this trace.
    pub trace_id: u64,
    /// Events in ring order (append order; worker threads may interleave).
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring when it overflowed (coordinator ring
    /// plus any worker-side span-ring evictions folded in by the merge).
    pub dropped: u64,
    /// Total traced wall time in microseconds.
    pub total_us: u64,
}

/// Per-fixpoint straggler summary computed from worker-lane durations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixpointSkew {
    /// Which fixpoint of the query.
    pub fixpoint: u32,
    /// Workers that contributed at least one measured event.
    pub workers: usize,
    /// Busiest worker's total event time, µs.
    pub max_us: u64,
    /// Median worker's total event time, µs.
    pub median_us: u64,
    /// `max / median` — 1.0 means perfectly balanced; large values mean
    /// one straggler dominated the fixpoint's wall clock.
    pub skew_ratio: f64,
}

impl QueryTrace {
    /// Superstep events only.
    pub fn supersteps(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.kind == EventKind::Superstep)
    }

    /// The deterministic projection of the trace: one line per event with
    /// timestamps, durations and process-wide kernel counters removed,
    /// sorted canonically by `(fixpoint, worker, iteration, kind)`. Two
    /// runs of the same query under the same fault seed yield equal
    /// signatures (the chaos determinism contract).
    ///
    /// Only core driver-side kinds ([`EventKind::is_core`]) enter the
    /// signature: worker-lane and supervisor events are timing dependent
    /// (repair-path retransmissions, heartbeat cadence), and excluding
    /// them also keeps sim-backend and proc-backend signatures comparable
    /// (the simulator has no worker lanes).
    pub fn signature(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .events
            .iter()
            .filter(|e| e.kind.is_core())
            .map(|e| {
                format!(
                    "fx={} w={} it={} {} plan={} delta={} shuf={} rows_shuf={} bcast={} \
                     rows_bcast={} faults={} recov={}",
                    e.fixpoint,
                    e.worker,
                    e.iteration,
                    e.kind.name(),
                    e.plan.name(),
                    e.delta_rows,
                    e.shuffles,
                    e.rows_shuffled,
                    e.broadcasts,
                    e.rows_broadcast,
                    e.faults,
                    e.recovery.name(),
                )
            })
            .collect();
        lines.sort();
        lines
    }

    /// Full-trace JSON: a Chrome-trace-compatible document (top-level
    /// `traceEvents` array loads directly in `chrome://tracing` and
    /// Perfetto) with the complete structured event dump under the `mura`
    /// key. See `schemas/trace.schema.json`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(256 + self.events.len() * 256);
        out.push_str("{\n  \"traceEvents\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_chrome_event(&mut out, e);
        }
        out.push_str("\n  ],\n  \"displayTimeUnit\": \"ms\",\n  \"mura\": {\n");
        let _ = write!(
            out,
            "    \"version\": 2,\n    \"level\": \"{}\",\n    \"trace_id\": {},\n    \
             \"dropped\": {},\n    \"total_us\": {},\n    \"events\": [",
            self.level.name(),
            self.trace_id,
            self.dropped,
            self.total_us
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n      ");
            write_event_json(&mut out, e);
        }
        out.push_str("\n    ]\n  }\n}\n");
        out
    }

    /// Renders the superstep timeline as an aligned text table (the
    /// `.profile` output): one row per event, canonical order.
    pub fn render_timeline(&self) -> String {
        use std::fmt::Write;
        let mut events: Vec<&TraceEvent> = self.events.iter().collect();
        events.sort_by_key(|e| (e.fixpoint, e.t_us, e.worker, e.iteration, e.kind));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<3} {:<6} {:<6} {:<15} {:>5} {:>9} {:>6} {:>10} {:>10} {:>9} {:>9}",
            "fx",
            "plan",
            "worker",
            "event",
            "step",
            "delta",
            "shuf",
            "rows_shuf",
            "rows_bcast",
            "probes",
            "ms"
        );
        for e in events {
            let worker =
                if e.worker == DRIVER { "drv".to_string() } else { format!("w{}", e.worker) };
            let event = if e.kind == EventKind::Recovery {
                format!("{} ({})", e.kind.name(), e.recovery.name())
            } else {
                e.kind.name().to_string()
            };
            let _ = writeln!(
                out,
                "{:<3} {:<6} {:<6} {:<15} {:>5} {:>9} {:>6} {:>10} {:>10} {:>9} {:>9.3}",
                e.fixpoint,
                e.plan.name(),
                worker,
                event,
                e.iteration,
                e.delta_rows,
                e.shuffles,
                e.rows_shuffled,
                e.rows_broadcast,
                e.join_probes + e.antijoin_probes,
                e.dur_us as f64 / 1_000.0,
            );
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "({} events dropped by the ring buffer)", self.dropped);
        }
        out
    }

    /// Per-fixpoint skew summary. For each fixpoint, each worker's
    /// [`EventKind::Superstep`] durations are summed (falling back to
    /// worker-lane communication events when no worker recorded
    /// supersteps, as under `P_gld` where the loop is driver-side); the
    /// skew ratio is the busiest worker's total over the median worker's.
    /// Fixpoints with fewer than two contributing workers are skipped —
    /// skew needs a comparison.
    pub fn skew_by_fixpoint(&self) -> Vec<FixpointSkew> {
        use std::collections::BTreeMap;
        // fixpoint → worker → (superstep_us, comm_us)
        let mut per: BTreeMap<u32, BTreeMap<i32, (u64, u64)>> = BTreeMap::new();
        for e in &self.events {
            if e.worker == DRIVER {
                continue;
            }
            let slot = per.entry(e.fixpoint).or_default().entry(e.worker).or_default();
            if e.kind == EventKind::Superstep {
                slot.0 += e.dur_us;
            } else if e.kind.is_worker_comm() {
                slot.1 += e.dur_us;
            }
        }
        let mut out = Vec::new();
        for (fixpoint, workers) in per {
            let use_supersteps = workers.values().any(|&(s, _)| s > 0);
            let mut totals: Vec<u64> = workers
                .values()
                .map(|&(s, c)| if use_supersteps { s } else { c })
                .filter(|&t| t > 0)
                .collect();
            if totals.len() < 2 {
                continue;
            }
            totals.sort_unstable();
            let max_us = *totals.last().unwrap();
            let median_us = totals[totals.len() / 2];
            out.push(FixpointSkew {
                fixpoint,
                workers: totals.len(),
                max_us,
                median_us,
                skew_ratio: max_us as f64 / median_us.max(1) as f64,
            });
        }
        out
    }

    /// Renders the per-fixpoint skew summary as an aligned text table
    /// (empty string when no fixpoint had measurable per-worker work).
    pub fn render_skew(&self) -> String {
        use std::fmt::Write;
        let rows = self.skew_by_fixpoint();
        if rows.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<3} {:>7} {:>10} {:>10} {:>6}",
            "fx", "workers", "max_ms", "median_ms", "skew"
        );
        for s in rows {
            let _ = writeln!(
                out,
                "{:<3} {:>7} {:>10.3} {:>10.3} {:>6.2}",
                s.fixpoint,
                s.workers,
                s.max_us as f64 / 1_000.0,
                s.median_us as f64 / 1_000.0,
                s.skew_ratio,
            );
        }
        out
    }
}

/// One Chrome-trace "complete" event (`ph: "X"`). `pid` tracks the
/// fixpoint, `tid` the worker lane (driver = 0, worker w = w+1), so
/// Perfetto renders one swimlane per worker per fixpoint.
fn write_chrome_event(out: &mut String, e: &TraceEvent) {
    use std::fmt::Write;
    let name = match e.kind {
        EventKind::Superstep => format!("step {}", e.iteration),
        EventKind::Recovery => format!("recovery:{}", e.recovery.name()),
        _ => e.kind.name().to_string(),
    };
    let _ = write!(
        out,
        "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
         \"pid\": {}, \"tid\": {}, \"args\": {{\"delta_rows\": {}, \"rows_shuffled\": {}, \
         \"rows_broadcast\": {}, \"faults\": {}}}}}",
        name,
        e.plan.name(),
        e.t_us,
        e.dur_us.max(1),
        e.fixpoint,
        e.worker + 1,
        e.delta_rows,
        e.rows_shuffled,
        e.rows_broadcast,
        e.faults,
    );
}

fn write_event_json(out: &mut String, e: &TraceEvent) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"kind\": \"{}\", \"fixpoint\": {}, \"plan\": \"{}\", \"worker\": {}, \
         \"iteration\": {}, \"delta_rows\": {}, \"shuffles\": {}, \"rows_shuffled\": {}, \
         \"broadcasts\": {}, \"rows_broadcast\": {}, \"wire_exchange_bytes\": {}, \
         \"index_builds\": {}, \"join_probes\": {}, \
         \"antijoin_probes\": {}, \"faults\": {}, \"recovery\": \"{}\", \"t_us\": {}, \
         \"dur_us\": {}}}",
        e.kind.name(),
        e.fixpoint,
        e.plan.name(),
        e.worker,
        e.iteration,
        e.delta_rows,
        e.shuffles,
        e.rows_shuffled,
        e.broadcasts,
        e.rows_broadcast,
        e.wire_exchange_bytes,
        e.index_builds,
        e.join_probes,
        e.antijoin_probes,
        e.faults,
        e.recovery.name(),
        e.t_us,
        e.dur_us,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(fixpoint: u32, worker: i32, iteration: u64, delta: u64) -> TraceEvent {
        TraceEvent {
            worker,
            iteration,
            delta_rows: delta,
            ..TraceEvent::new(EventKind::Superstep, fixpoint, PlanKind::Plw)
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let sink = TraceSink::with_capacity(TraceLevel::Superstep, 2);
        sink.record(step(0, 0, 1, 10));
        sink.record(step(0, 0, 2, 20));
        sink.record(step(0, 0, 3, 30));
        let t = sink.finish();
        assert_eq!(t.dropped, 1);
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[0].iteration, 2);
        assert_eq!(t.events[1].iteration, 3);
    }

    #[test]
    fn signature_ignores_time_and_order() {
        let a = QueryTrace {
            level: TraceLevel::Superstep,
            trace_id: 1,
            events: vec![step(0, 1, 1, 5), step(0, 0, 1, 7)],
            dropped: 0,
            total_us: 100,
        };
        let mut b = a.clone();
        b.events.reverse();
        b.events[0].t_us = 999;
        b.events[1].dur_us = 123;
        b.total_us = 5;
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn signature_detects_different_work() {
        let a = QueryTrace { events: vec![step(0, 0, 1, 5)], ..Default::default() };
        let b = QueryTrace { events: vec![step(0, 0, 1, 6)], ..Default::default() };
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn json_exports_parse() {
        let t = QueryTrace {
            level: TraceLevel::Superstep,
            trace_id: 7,
            events: vec![step(0, 0, 1, 5), step(0, 1, 1, 7)],
            dropped: 0,
            total_us: 42,
        };
        let doc = crate::json::Json::parse(&t.to_json()).expect("full trace JSON parses");
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        let mura = doc.get("mura").unwrap();
        assert_eq!(mura.get("level").and_then(|v| v.as_str()), Some("superstep"));
        assert_eq!(mura.get("version").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(mura.get("trace_id").and_then(|v| v.as_f64()), Some(7.0));
        assert_eq!(mura.get("events").and_then(|v| v.as_array()).unwrap().len(), 2);
    }

    #[test]
    fn timeline_has_one_row_per_event() {
        let t = QueryTrace {
            level: TraceLevel::Superstep,
            trace_id: 1,
            events: vec![step(0, 0, 1, 5), step(0, 0, 2, 3)],
            dropped: 0,
            total_us: 42,
        };
        let table = t.render_timeline();
        // Header + one row per superstep.
        assert_eq!(table.lines().count(), 3, "{table}");
        assert!(table.contains("superstep"), "{table}");
    }

    #[test]
    fn signature_excludes_worker_lane_and_supervisor_events() {
        let a = QueryTrace { events: vec![step(0, 0, 1, 5)], ..Default::default() };
        let mut b = a.clone();
        b.events.push(TraceEvent {
            worker: 1,
            iteration: 1,
            wire_exchange_bytes: 512,
            ..TraceEvent::new(EventKind::ExchangeSend, 0, PlanKind::Gld)
        });
        b.events.push(TraceEvent {
            worker: 1,
            ..TraceEvent::new(EventKind::Respawn, 0, PlanKind::None)
        });
        assert_eq!(a.signature(), b.signature());
        assert!(!EventKind::ExchangeSend.is_core());
        assert!(EventKind::ExchangeWait.is_worker_comm());
        assert!(!EventKind::Respawn.is_worker_comm());
    }

    #[test]
    fn skew_summary_finds_the_straggler() {
        let mut events = Vec::new();
        for (worker, dur) in [(0, 100u64), (1, 100), (2, 100), (3, 400)] {
            events.push(TraceEvent { dur_us: dur, ..step(0, worker, 1, 5) });
        }
        let t = QueryTrace { events, ..Default::default() };
        let skew = t.skew_by_fixpoint();
        assert_eq!(skew.len(), 1);
        assert_eq!(skew[0].workers, 4);
        assert_eq!(skew[0].max_us, 400);
        assert_eq!(skew[0].median_us, 100);
        assert!((skew[0].skew_ratio - 4.0).abs() < 1e-9);
        let table = t.render_skew();
        assert!(table.contains("4.00"), "{table}");
    }

    #[test]
    fn skew_falls_back_to_comm_events_and_skips_single_worker() {
        // Fixpoint 0: only worker-lane comm events (P_gld shape).
        // Fixpoint 1: a single worker — no comparison, skipped.
        let mk = |kind, fixpoint, worker, dur_us| TraceEvent {
            worker,
            dur_us,
            ..TraceEvent::new(kind, fixpoint, PlanKind::Gld)
        };
        let t = QueryTrace {
            events: vec![
                mk(EventKind::ExchangeWait, 0, 0, 50),
                mk(EventKind::ExchangeWait, 0, 1, 200),
                mk(EventKind::Superstep, 1, 0, 10),
            ],
            ..Default::default()
        };
        let skew = t.skew_by_fixpoint();
        assert_eq!(skew.len(), 1);
        assert_eq!(skew[0].fixpoint, 0);
        assert_eq!(skew[0].max_us, 200);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = TraceSink::new(TraceLevel::Fixpoint);
        let b = TraceSink::new(TraceLevel::Fixpoint);
        assert_ne!(a.trace_id(), 0);
        assert_ne!(a.trace_id(), b.trace_id());
        assert_eq!(a.finish().trace_id, a.trace_id());
    }

    #[test]
    fn levels_are_ordered() {
        assert!(TraceLevel::Off < TraceLevel::Fixpoint);
        assert!(TraceLevel::Fixpoint < TraceLevel::Superstep);
        let s = TraceSink::new(TraceLevel::Fixpoint);
        assert!(!s.superstep_enabled());
        assert!(TraceSink::new(TraceLevel::Superstep).superstep_enabled());
    }

    #[test]
    fn fixpoint_ids_are_sequential() {
        let s = TraceSink::new(TraceLevel::Superstep);
        assert_eq!(s.next_fixpoint(), 0);
        assert_eq!(s.next_fixpoint(), 1);
    }
}
