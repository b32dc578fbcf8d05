//! The names this benchmark emits: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` declares
//! the same names; `tests/contract.rs` checks the two against each other.

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen before
    /// it is a regression (end-to-end metrics only; 0 for per-layer).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> Metric {
    Metric { name, unit, lower_is_better: lower, bound }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> Metric {
    Metric { name, unit, lower_is_better: lower, bound: 0.0 }
}

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "classes_sim",
        "paper classes C1-C6 on an ER graph, in-process simulator: join/dedup kernels and fixpoint drivers do the work; no sockets, no serve tier",
    ),
    (
        "classes_proc",
        "same graph, queries and plans over two real mura-worker processes: every exchanged partition is encoded, crosses sockets and is decoded",
    ),
    (
        "serve_read",
        "TCP read traffic, Zipf stream over a pool larger than the caches: parse, cache hit, row rendering on the hot set; plan and execute on the tail",
    ),
    (
        "serve_mixed",
        "durable server, one mutation per two reads of a cached hot set: IVM, WAL fsync, snapshots and the server lock beside the read path",
    ),
];

/// Metrics a client of the system sees. Every workload reports all of
/// them; BENCHMARK.md says what an operation is on each workload.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", true, 0.25),
    e2e("pass_wall_s", "s", true, 0.25),
    e2e("query_p50_ms", "ms", true, 0.25),
    e2e("query_p95_ms", "ms", true, 0.25),
    e2e("queries_per_s", "1/s", false, 0.25),
    e2e("peak_rss_mb", "MiB", true, 0.20),
];

/// Metrics of single layers (layer = crate name), from the traced run.
/// A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [Metric; 59] = [
    layer("ucrpq.parse_us", "us", true),
    layer("ucrpq.translate_us", "us", true),
    layer("rewrite.optimize_us", "us", true),
    layer("rewrite.candidates", "count", true),
    layer("rewrite.enumerated_won", "count", false),
    layer("core.eval_ms", "ms", true),
    layer("core.join_probes", "count", true),
    layer("core.index_builds", "count", true),
    layer("core.rows_allocated", "rows", true),
    layer("core.rows_allocated_per_row", "ratio", true),
    layer("core.local_fixpoint_rows_per_s", "rows/s", false),
    layer("dist.execute_ms", "ms", true),
    layer("dist.supersteps", "count", true),
    layer("dist.superstep_ms", "ms", true),
    layer("dist.exchange_ms", "ms", true),
    layer("dist.shuffles", "count", true),
    layer("dist.rows_shuffled", "rows", true),
    layer("dist.rows_broadcast", "rows", true),
    layer("dist.wire_tx_bytes", "bytes", true),
    layer("dist.wire_rx_bytes", "bytes", true),
    layer("dist.wire_exchange_bytes", "bytes", true),
    layer("dist.skew_ratio", "ratio", true),
    layer("dist.wire_encode_mb_s", "MB/s", false),
    layer("dist.wire_decode_mb_s", "MB/s", false),
    layer("dist.proc_over_sim", "ratio", true),
    layer("serve.queue_ms", "ms", true),
    layer("serve.planning_ms", "ms", true),
    layer("serve.execution_ms", "ms", true),
    layer("serve.result_hit_ratio", "ratio", false),
    layer("serve.plan_hit_ratio", "ratio", false),
    layer("serve.evictions", "count", true),
    layer("serve.replans", "count", true),
    layer("serve.rejected", "count", true),
    layer("serve.response_bytes", "bytes", true),
    layer("serve.protocol_ms", "ms", true),
    layer("serve.read_p50_ms", "ms", true),
    layer("serve.mutation_p50_ms", "ms", true),
    layer("serve.mutation_p90_ms", "ms", true),
    layer("ivm.maintenance_ms", "ms", true),
    layer("ivm.maintained", "count", false),
    layer("ivm.recomputed", "count", true),
    layer("ivm.maintained_ratio", "ratio", false),
    layer("ivm.rederived_rows", "rows", true),
    layer("durable.wal_bytes_per_mutation", "bytes", true),
    layer("durable.wal_appends", "count", true),
    layer("durable.snapshots", "count", true),
    layer("durable.snapshot_bytes", "bytes", true),
    layer("durable.replayed_batches", "count", true),
    layer("durable.recovery_ms", "ms", true),
    layer("obs.trace_overhead_pct", "%", true),
    layer("obs.trace_events", "count", true),
    layer("obs.dropped_spans", "count", true),
    layer("bench.residual_pct", "%", true),
    layer("bench.speed_factor", "ratio", true),
    layer("bench.spans", "count", true),
    layer("bench.samples", "count", false),
    layer("bench.passes", "count", false),
    layer("bench.attempted_ops", "count", false),
    layer("bench.failed_ops", "count", true),
];

/// The sandbox has two cores: engine workers, the server's executor pool
/// and the worker fleet are all two wide.
pub const WORKERS: usize = 2;

/// Set-ups timed per untraced run; `setup_s` is their median. The first
/// one is measured; the others run after everything else, so that peak
/// memory is that of one set-up and the measured work.
pub const SETUPS: usize = 3;

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Ten times smaller inputs (the contract test and local smoke runs).
    pub quick: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Emitted metrics by declared name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines (sample counts, refusals, mismatches).
    pub notes: Vec<String>,
}

impl Outcome {
    /// The value emitted under `name` (0 when the run did not set it).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.metrics.iter().all(|(n, _)| *n != name), "{name} set twice");
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let line = what();
            self.note(format!("FAILED: {line}"));
        }
    }
}

/// Reads `peak_rss_mb` once a fixed number of measured passes or rounds
/// is done — not when time is up. The server's resident set grows with
/// every request it has served (about 11 KB each on `serve_read`), so the
/// peak at the end of a run is a measure of how many requests fitted into
/// the run: it would count a faster program as a bigger one.
pub struct RssProbe {
    at: usize,
    value: Option<f64>,
}

impl RssProbe {
    pub fn after_units(at: usize) -> RssProbe {
        RssProbe { at, value: None }
    }

    /// Call after every measured pass or round with the count so far.
    pub fn unit_done(&mut self, done: usize) {
        if done == self.at {
            self.value = Some(peak_rss_mib());
        }
    }

    /// The peak at the fixed point; the peak now, with a note, when the
    /// run ended before it (quick runs, a much slower machine).
    pub fn finish(self, done: usize, out: &mut Outcome) -> f64 {
        self.value.unwrap_or_else(|| {
            out.note(format!(
                "peak_rss_mb: the run ended after {done} units, before the {} it is read at; reporting the peak at the end",
                self.at
            ));
            peak_rss_mib()
        })
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
