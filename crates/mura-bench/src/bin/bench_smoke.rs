//! `bench-smoke`: a minutes-free sanity benchmark for the loop-invariant
//! fixpoint kernels, suitable for CI.
//!
//! Computes the transitive closure of an Erdős–Rényi graph on a 4-worker
//! cluster along the `P_plw` SetRdd path, its seed placed by the stable
//! column: the fixpoint is compiled once (`prepare_local`: constants
//! folded, then the closure kernel's adjacency built) and shared by every
//! worker's loop. Results (wall times, nanoseconds per closure row,
//! iteration counts, communication and kernel counters) are written to
//! `BENCH_fixpoint.json`; the ns per row across commits is the kernel's
//! trajectory. A `hash_chain` line runs the same loops through the
//! semi-naive chains (`prepare`, which skips the kernel's recognition), and
//! a `dense` line runs Table I's dense ER closures (`rnd_400_0.05`,
//! `rnd_2000_0.002`) through both, and an `anchored` line the flagship's
//! closure from its source of most edges (`?x <- s edge+ ?x`: a seed of a
//! few rows over the whole `E`, which the kernel's seed cutoff leaves to the
//! chain) through both, the median and quartiles of
//! [`SPREAD_SAMPLES`] rounds each. What the compilation buys is gated by
//! counts, which repeat: every flagship round must build exactly one index
//! and fold exactly one constant per prepare, whatever the number of
//! iterations, and the flagship and `rnd_400_0.05` must take the closure
//! kernel and emit exactly [`FLAGSHIP_ROWS`] and [`RND_400_ROWS`] rows.
//! Timings are reported, not gated. (Correctness is the test suites' job:
//! the kernels are held to centralized evaluation there.)
//!
//! A second section runs the full `P_plw` plan through the evaluator with
//! tracing off and at `TraceLevel::Superstep`. What tracing costs is gated
//! by counts, which repeat: one superstep event per kernel iteration, no
//! trace at all when off, and a traced run allocating at most
//! [`MAX_TRACE_ALLOCATIONS`] more than an untraced one (the sink and its
//! pre-sized buffers; an event is no allocation). The walls (min of
//! samples each) are reported, not gated: the difference of two 6 ms
//! measurements is host noise.
//!
//! Output paths: `BENCH_OUT` (the JSON file) and `BENCH_TRACE_OUT` (dump
//! one superstep trace as JSON).
//!
//! A third section replays the same IVM mutation stream of
//! [`WAL_BATCHES`] batches against a durable serving tier (WAL on, fsync
//! off) and a memory-only one, gating the WAL's mutation-path overhead with
//! `BENCH_MAX_WAL_OVERHEAD` (percent, default 10.0).
//!
//! `BENCH_PROC_WORKERS=<n>` (default 0 = skip) repeats the tracing
//! measurement over `n` real worker processes, where a trace must carry
//! worker-lane events (span batches shipped back over TRACE flushes). The
//! worker binary resolves via `MURA_WORKER_BIN` or as a sibling of the
//! bench executable.
//!
//! A `wire` section times the process backend's data plane layer by layer:
//! the sliced CRC-32 against the bytewise table walk it replaced (gated by
//! `BENCH_MIN_CRC_SPEEDUP`, default 2.0), the row-block encode and decode
//! in rows per second (bytes per second do not compare across layouts),
//! and — with `BENCH_PROC_WORKERS` set — one broadcast and one exchange of
//! 20,000 rows through the worker processes, in microseconds.
//!
//! A `relation` section times the flat row store itself, in nanoseconds per
//! row at 20,000 and 200,000 binary rows — insert, `contains` hit and miss,
//! remove (each row removed and inserted again), permuting rename, deep
//! copy (clone, then the first mutation), drop, lazy split over four
//! workers, each the median and quartiles of [`SPREAD_SAMPLES`] — and
//! counts the allocations of building a 100,000-row relation row by row,
//! gated at 64: the buffers double their way up, no row is an allocation.
//! The same build reports the live bytes it holds per row, gated at
//! [`MAX_BUILD_BYTES_PER_ROW`].
//!
//! A `reply` section times the line protocol's response encoder on the
//! serving tier's commonest read, a result-cache hit: microseconds per
//! `protocol::respond` of a cached 10,000-row two-column answer (median and
//! quartiles of [`REPLY_SAMPLES`]), and the bytes of that reply's body and
//! terminator — the status line is left out, as its `planning=…
//! execution=…` timings change width from run to run. Reported, not gated.
//!
//! A `stage` section times what a parallel stage costs beyond its tasks:
//! microseconds (median of [`STAGE_SAMPLES`]) and allocations per stage of
//! two trivial heavy tasks on a 2-worker cluster — one task handed to a
//! helper thread, one run by the caller. Reported, not gated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mura_core::kernel::kernel_stats;
use mura_core::{Database, KernelSnapshot, Relation, Sym, Term};
use mura_datagen::er::erdos_renyi;
use mura_dist::fixloop::Supervision;
use mura_dist::localfix::{
    local_fixpoint_prepared, prepare, prepare_local, Budget, LocalEngine, Prepared,
};
use mura_dist::{
    Cluster, DistEvaluator, DistRel, ExecConfig, FaultPlan, FixpointPlan, QueryEngine, TraceLevel,
};
use mura_obs::counters::json_object;
use mura_serve::protocol::{respond, Session};

const WORKERS: usize = 4;

// The graph: a sparse supercritical ER graph (mean degree ~1.6) whose giant
// component has a long diameter — many semi-naive iterations, each of them
// cheap, so an index rebuilt per iteration would dominate the wall.
const NODES: u64 = 20_000;
const EDGE_PROB: f64 = 0.000_08;
const SEED: u64 = 42;

/// Timed rounds of each measurement (the kernel runs one more, untimed).
const SAMPLES: usize = 3;

/// Closure rows of the flagship graph (gated).
const FLAGSHIP_ROWS: usize = 72_946;

/// Table I's dense ER graphs `(nodes, edge probability)`, generated with
/// seed 42 as `repro table1` does.
const DENSE: [(u64, f64); 2] = [(400, 0.05), (2000, 0.002)];

/// Closure rows of `rnd_400_0.05`: every pair of its 400 nodes (gated).
const RND_400_ROWS: usize = 160_000;

/// Samples behind each median and quartiles of the `relation` section.
const SPREAD_SAMPLES: usize = 11;

/// Mutation batches the WAL section replays.
const WAL_BATCHES: u64 = 64;

/// Allocations a superstep-traced run may make beyond an untraced one: the
/// sink, its pre-sized event buffer and the finished trace (5 where
/// measured) — not one per event.
const MAX_TRACE_ALLOCATIONS: u64 = 8;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls and live bytes (for the `relation`
/// section's gates; relaxed increments, as the counts publish nothing).
struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // The difference, wrapping when the block shrinks.
        LIVE_BYTES
            .fetch_add((new_size as u64).wrapping_sub(layout.size() as u64), Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Rows of the allocation-gated build of the `relation` section.
const BUILD_ROWS: usize = 100_000;

/// Live bytes per row the [`BUILD_ROWS`]-row build may hold. Its store
/// doubles up to 131,072 rows of two 8-byte values (21 B a row) and its
/// table to 131,072 slots of a control byte and a `u32` row id (6.6 B a
/// row): 27.5 B. The gate leaves room for allocator slack, not for 8-byte
/// slots at a load of one half (42 B) or a 16-byte value (48 B).
const MAX_BUILD_BYTES_PER_ROW: f64 = 32.0;

/// Rows of the cached answer the `reply` section serves.
const REPLY_ROWS: u64 = 10_000;

/// Protocol reads the `reply` section times.
const REPLY_SAMPLES: usize = 200;

/// Stages the `stage` section times.
const STAGE_SAMPLES: usize = 2_000;

/// The `stage` section: median µs and mean allocations per stage of two
/// trivial heavy tasks on a 2-worker cluster.
fn stage_section() -> (f64, f64) {
    let cluster = Cluster::new(2);
    let stage = || {
        let out = cluster.par_map_sized(&[1u64, 2], |_| usize::MAX, |i, x| x + i as u64);
        std::hint::black_box(out.expect("a trivial stage"));
    };
    // The first stages also start the helper threads.
    (0..10).for_each(|_| stage());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut walls: Vec<Duration> = (0..STAGE_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            stage();
            t.elapsed()
        })
        .collect();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    walls.sort_unstable();
    let median_us = walls[STAGE_SAMPLES / 2].as_secs_f64() * 1e6;
    (median_us, allocations as f64 / STAGE_SAMPLES as f64)
}

/// The `reply` section: µs per [`respond`] of a cached [`REPLY_ROWS`]-row
/// answer, and the bytes of its reply after the status line.
fn reply_section() -> (Spread, usize) {
    let mut db = Database::new();
    let (src, dst) = (db.intern("src"), db.intern("dst"));
    let pairs = (0..REPLY_ROWS).map(|i| (i, i * 7_919 % REPLY_ROWS));
    db.insert_relation("edge", Relation::from_pairs(src, dst, pairs));
    let server = mura_serve::Server::start(QueryEngine::new(db), Default::default());
    let (text, session) = ("?x, ?y <- ?x edge ?y", &mut Session::default());
    // Planned, executed and filed; the planner's feedback settles.
    for _ in 0..3 {
        respond(&server, session, text);
    }
    let hits = server.stats().result_hits;
    let mut bytes = 0;
    let walls: Vec<f64> = (0..REPLY_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let reply = respond(&server, session, text);
            let wall = t.elapsed();
            // Every body line and its newline, then the terminator's `.\n`.
            bytes = reply.lines().skip(1).map(|line| line.len() + 1).sum::<usize>() + 2;
            wall.as_secs_f64() * 1e6
        })
        .collect();
    let sampled = server.stats().result_hits - hits;
    assert_eq!(sampled, REPLY_SAMPLES as u64, "every timed read is a result-cache hit");
    server.shutdown();
    (Spread::of(walls), bytes)
}

/// The median and quartiles of a set of samples.
#[derive(Debug, Clone, Copy)]
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Spread {
    fn of(mut samples: Vec<f64>) -> Spread {
        samples.sort_unstable_by(f64::total_cmp);
        let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
        Spread { q1: at(0.25), median: at(0.5), q3: at(0.75) }
    }

    /// [`SPREAD_SAMPLES`] runs of `f`, in ns per one of its `rows` rows.
    fn ns_per_row<R>(rows: usize, mut f: impl FnMut() -> R) -> Spread {
        Spread::of(
            (0..SPREAD_SAMPLES)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(f());
                    t.elapsed().as_secs_f64() * 1e9 / rows as f64
                })
                .collect(),
        )
    }

    fn json(&self) -> String {
        format!(
            "{{\"median\": {:.3}, \"q1\": {:.3}, \"q3\": {:.3}}}",
            self.median, self.q1, self.q3
        )
    }
}

impl std::fmt::Display for Spread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} [{:.1}–{:.1}]", self.median, self.q1, self.q3)
    }
}

/// `rows` distinct binary rows (and, from `rows` on, as many that are not
/// among them).
fn bench_row(i: usize, rows: usize) -> [mura_core::Value; 2] {
    let node = |x: usize| mura_core::Value::node(x as u64);
    [node(i.wrapping_mul(7_919) % (rows / 4 + 1)), node(i)]
}

/// The `relation` section at one size: ns per row of each store operation,
/// median and quartiles of [`SPREAD_SAMPLES`].
fn relation_section(db: &mut Database, rows: usize) -> String {
    let (src, dst, zz) = (db.intern("src"), db.intern("dst"), db.intern("zz"));
    let schema = mura_core::Schema::new(vec![src, dst]);
    let build = || {
        let mut rel = Relation::new(schema.clone());
        for i in 0..rows {
            rel.insert(bench_row(i, rows));
        }
        rel
    };
    let rel = build();
    assert_eq!(rel.len(), rows);
    let insert = Spread::ns_per_row(rows, build);
    let count =
        |from: usize| (from..from + rows).filter(|&i| rel.contains(&bench_row(i, rows))).count();
    assert_eq!((count(0), count(rows)), (rows, 0));
    let hit = Spread::ns_per_row(rows, || count(0));
    let miss = Spread::ns_per_row(rows, || count(rows));
    // Every row out and back in: removals from full groups leave tombstones.
    let mut churned = build();
    let remove = Spread::ns_per_row(rows, || {
        for i in 0..rows {
            assert!(churned.remove(&bench_row(i, rows)) && churned.insert(bench_row(i, rows)));
        }
    });
    // `src → zz` moves the first column behind `dst`: every row is permuted.
    assert!(src < dst && dst < zz, "the renamed column must change places");
    let rename = Spread::ns_per_row(rows, || rel.rename(src, zz));
    // A clone is a pointer until the first mutation copies the store.
    let deep_copy = || {
        let mut copy = rel.clone();
        copy.insert(bench_row(rows, rows));
        copy
    };
    let clone = Spread::ns_per_row(rows, deep_copy);
    let mut copies = (0..SPREAD_SAMPLES).map(|_| deep_copy()).collect::<Vec<_>>();
    let dropped = Spread::ns_per_row(rows, || drop(copies.pop()));
    let cluster = Cluster::new(WORKERS);
    let split = Spread::ns_per_row(rows, || DistRel::from_relation(&rel, &cluster).parts().len());
    println!(
        "  relation:  {rows} rows, ns/row median [quartiles] of {SPREAD_SAMPLES}: insert {insert}, contains hit {hit} / miss {miss}, remove {remove}, rename {rename}, clone {clone}, drop {dropped}, split {split}"
    );
    let ops = [
        ("insert", insert),
        ("contains_hit", hit),
        ("contains_miss", miss),
        ("remove", remove),
        ("rename", rename),
        ("clone", clone),
        ("drop", dropped),
        ("split", split),
    ];
    let ops: Vec<String> =
        ops.iter().map(|(name, spread)| format!("\"{name}_ns\": {}", spread.json())).collect();
    format!("{{\"rows\": {rows}, \"samples\": {SPREAD_SAMPLES}, {}}}", ops.join(", "))
}

/// What one set of local-loop rounds measured.
struct Loops {
    /// Wall of each timed round.
    samples: Vec<Duration>,
    /// Closure rows (the workers' outputs are disjoint).
    rows: usize,
    /// Supersteps of the workers' loops in one round, summed.
    iterations: u64,
    /// Kernel counters over every round, the untimed one included.
    kernel: KernelSnapshot,
    /// Rounds run, the untimed one included.
    rounds: u64,
}

impl Loops {
    fn mean_ms(&self) -> f64 {
        summarize(&self.samples).mean_ms
    }

    fn ns_per_row(&self) -> f64 {
        self.mean_ms() * 1e6 / self.rows as f64
    }

    /// The median and quartiles of the timed rounds, in microseconds.
    fn us(&self) -> Spread {
        Spread::of(self.samples.iter().map(|d| d.as_secs_f64() * 1e6).collect())
    }
}

/// The fixpoint `μX. seed ∪ step(X)` through the `P_plw` SetRdd worker
/// loops on a [`WORKERS`]-worker cluster, the seed placed by its stable
/// column `src`, outside any query: one untimed round, then `samples` timed
/// ones, each compiling the fixpoint once and sharing it among the workers.
/// With `kernel` set to a seed size, [`prepare_local`] compiles the
/// fixpoint as it would for a seed of that size: the closure kernel for
/// this shape, unless the size is under its cutoff. Otherwise [`prepare`]
/// compiles the semi-naive chain.
fn local_loops(
    seed: &Relation,
    step: &Term,
    (x, src): (Sym, Sym),
    kernel: Option<usize>,
    samples: usize,
) -> Loops {
    let cluster = Cluster::new(WORKERS);
    let schema = seed.schema();
    let seed =
        DistRel::from_relation(seed, &cluster).repartition(&[src], &cluster).expect("placed");
    let (budget, fault) = (Budget::new(None, None), FaultPlan::disabled());
    let sup = Supervision::inert(&budget, &fault);
    let kernel_before = kernel_stats().snapshot();
    let mut out = Loops {
        samples: Vec::with_capacity(samples),
        rows: 0,
        iterations: 0,
        kernel: KernelSnapshot::default(),
        rounds: samples as u64 + 1,
    };
    for round in 0..=samples {
        let before = kernel_stats().snapshot();
        let t = Instant::now();
        let parts = if kernel.is_some() {
            let engine = LocalEngine::SetRdd;
            let loops =
                prepare_local(std::slice::from_ref(step), x, schema, engine, kernel, &budget)
                    .expect("prepare");
            cluster.try_par_map(seed.parts(), |w, part| loops.run(part, &sup, w, None))
        } else {
            let prepared: Vec<Prepared<Relation>> =
                vec![prepare(step, x, schema).expect("prepare")];
            cluster.try_par_map(seed.parts(), |_, part| {
                local_fixpoint_prepared(part, &prepared, &budget)
            })
        };
        let parts = parts.expect("local fixpoint");
        let wall = t.elapsed();
        // Round 0 is the untimed warmup.
        if round > 0 {
            out.samples.push(wall);
        }
        out.rows = parts.iter().map(Relation::len).sum();
        out.iterations = kernel_stats().snapshot().since(&before).iterations;
    }
    out.kernel = kernel_stats().snapshot().since(&kernel_before);
    out
}

/// Rows in the timed broadcast and exchange of the `wire` section.
const WIRE_ROWS: usize = 20_000;

/// The byte-at-a-time table CRC-32 that `mura_core::crc32` replaced: the
/// reference the sliced kernel's throughput is gated against.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Best time of `samples` runs of `f`.
fn min_time<R>(samples: usize, mut f: impl FnMut() -> R) -> Duration {
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed()
        })
        .min()
        .expect("at least one sample")
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

struct Timings {
    mean_ms: f64,
    min_ms: f64,
    max_ms: f64,
}

fn summarize(samples: &[Duration]) -> Timings {
    let ms = |d: &Duration| d.as_secs_f64() * 1e3;
    let total: f64 = samples.iter().map(ms).sum();
    Timings {
        mean_ms: total / samples.len() as f64,
        min_ms: samples.iter().map(ms).fold(f64::INFINITY, f64::min),
        max_ms: samples.iter().map(ms).fold(0.0, f64::max),
    }
}

fn json_timings(t: &Timings) -> String {
    format!(
        "{{\"mean_ms\": {:.3}, \"min_ms\": {:.3}, \"max_ms\": {:.3}}}",
        t.mean_ms, t.min_ms, t.max_ms
    )
}

fn main() {
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_fixpoint.json".into());

    let mut db = Database::new();
    let src = db.intern("src");
    let dst = db.intern("dst");
    let m = db.intern("m");
    let x = db.intern("X");
    let g = erdos_renyi(NODES, EDGE_PROB, SEED);
    let e = Relation::from_pairs(src, dst, g.plain_edges());
    let dense_step = |e: &Relation| {
        Term::var(x).rename(dst, m).join(Term::cst(e.clone()).rename(src, m)).antiproject(m)
    };
    let step = dense_step(&e);
    let term = Term::cst(e.clone()).union(step.clone()).fix(x);

    println!("bench-smoke: TC of ER(n={NODES}, p={EDGE_PROB}, seed={SEED}), {WORKERS} workers, P_plw/SetRdd");
    println!("  edges: {}", e.len());

    // --- the flagship: the closure kernel, compiled once per round; the
    // same loops through the semi-naive chain; Table I's dense closures
    // through both; the flagship's closure from one source through both ---
    let flagship = local_loops(&e, &step, (x, src), Some(e.len()), SAMPLES);
    let chain = local_loops(&e, &step, (x, src), None, SAMPLES);
    assert_eq!(chain.rows, flagship.rows, "the kernel and the chain disagree on the closure");
    let (opt_rows, loop_iterations, kernel) = (flagship.rows, flagship.iterations, flagship.kernel);
    let prepares = flagship.rounds;
    let dense: Vec<(String, usize, Loops, Loops)> = DENSE
        .iter()
        .map(|&(n, p)| {
            let edges = Relation::from_pairs(src, dst, erdos_renyi(n, p, 42).plain_edges());
            let kernel =
                local_loops(&edges, &dense_step(&edges), (x, src), Some(edges.len()), SAMPLES);
            let chain = local_loops(&edges, &dense_step(&edges), (x, src), None, SAMPLES);
            assert_eq!(kernel.rows, chain.rows, "rnd_{n}_{p}: the kernel and the chain disagree");
            (format!("rnd_{n}_{p}"), edges.len(), kernel, chain)
        })
        .collect();
    // The source of most edges (the greatest such value on a tie): a seed of
    // a few rows, whose closure on this sparse graph is a few rows too.
    let mut degree: std::collections::HashMap<mura_core::Value, usize> = Default::default();
    e.iter().for_each(|r| *degree.entry(r[0]).or_default() += 1);
    let source = degree.into_iter().max_by_key(|&(v, d)| (d, v)).expect("the flagship has edges").0;
    let from_source: Vec<&[mura_core::Value]> = e.iter().filter(|r| r[0] == source).collect();
    let anchored_seed = Relation::from_rows(e.schema().clone(), &from_source);
    // The kernel as if the seed were large, against the chain its cutoff
    // keeps for a seed this small.
    let anchored = local_loops(&anchored_seed, &step, (x, src), Some(usize::MAX), SPREAD_SAMPLES);
    let anchored_chain = local_loops(&anchored_seed, &step, (x, src), None, SPREAD_SAMPLES);
    assert_eq!(anchored.rows, anchored_chain.rows, "anchored: the kernel and the chain disagree");

    // --- full P_plw plan through the evaluator, for comm + kernel stats
    // and for the cost of superstep tracing (traced vs untraced walls) ---
    let run_plan = |trace: TraceLevel| {
        let config = ExecConfig {
            plan: FixpointPlan::ForcePlw,
            local_engine: LocalEngine::SetRdd,
            workers: WORKERS,
            trace,
            ..Default::default()
        };
        let mut ev = DistEvaluator::new(&db, config);
        let comm_before = ev.cluster().metrics().snapshot();
        let t = Instant::now();
        let full = ev.eval_collect(&term).expect("P_plw evaluation");
        let wall = t.elapsed();
        let comm = ev.cluster().metrics().snapshot().since(&comm_before);
        (wall, full, comm, ev.stats().clone())
    };

    let (_, full, comm, first_stats) = run_plan(TraceLevel::Off);
    let plan_kernel = first_stats.kernel;
    assert_eq!(full.len(), opt_rows, "P_plw plan disagrees with kernel loops");
    assert!(first_stats.trace.is_none(), "TraceLevel::Off must record no trace");

    // What tracing costs, in counts: allocations of one run at each level.
    let allocations_of = |trace: TraceLevel| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let (_, _, _, stats) = run_plan(trace);
        (ALLOCATIONS.load(Ordering::Relaxed) - before, stats)
    };
    let (off_allocations, _) = allocations_of(TraceLevel::Off);
    let (traced_allocations, traced_stats) = allocations_of(TraceLevel::Superstep);
    let trace_allocations = traced_allocations.saturating_sub(off_allocations);
    let traced_supersteps =
        traced_stats.trace.as_ref().map_or(0, |t| t.supersteps().count() as u64);

    // Min-of-samples on both sides: the floor of each distribution is the
    // honest cost comparison, insensitive to scheduler noise spikes.
    let mut off_min = Duration::MAX;
    let mut traced_min = Duration::MAX;
    let mut trace = None;
    for _ in 0..SAMPLES {
        off_min = off_min.min(run_plan(TraceLevel::Off).0);
        let (wall, _, _, stats) = run_plan(TraceLevel::Superstep);
        traced_min = traced_min.min(wall);
        trace = stats.trace;
    }
    let trace = trace.expect("superstep run records a trace");
    let overhead_pct = (traced_min.as_secs_f64() / off_min.as_secs_f64() - 1.0) * 100.0;
    if let Ok(path) = std::env::var("BENCH_TRACE_OUT") {
        std::fs::write(&path, trace.to_json()).expect("write trace");
        println!("  trace written to {path}");
    }

    // --- tracing overhead over real worker processes: the same P_plw plan
    // behind a ProcCluster, so the measurement includes TraceCtx bytes on
    // every exchange frame plus the span batches shipped back over TRACE
    // frames at fixpoint end. ---
    let proc_workers = env_u64("BENCH_PROC_WORKERS", 0) as usize;
    let mut proc_tracing = None;
    let mut wire_proc = None;
    if proc_workers > 0 {
        let backend: std::sync::Arc<dyn mura_dist::CommBackend> =
            mura_dist::ProcCluster::spawn(proc_workers).expect("spawn worker processes");
        let run_proc = |trace: TraceLevel| {
            let config = ExecConfig {
                plan: FixpointPlan::ForcePlw,
                local_engine: LocalEngine::SetRdd,
                workers: proc_workers,
                trace,
                backend: Some(std::sync::Arc::clone(&backend)),
                ..Default::default()
            };
            let mut ev = DistEvaluator::new(&db, config);
            let t = Instant::now();
            let rows = ev.eval_collect(&term).expect("P_plw over processes").len();
            (t.elapsed(), rows, ev.stats().trace.clone())
        };
        let (_, rows, _) = run_proc(TraceLevel::Off); // untimed warmup
        assert_eq!(rows, opt_rows, "process backend disagrees on the fixpoint");
        let mut p_off = Duration::MAX;
        let mut p_traced = Duration::MAX;
        let mut p_trace = None;
        for _ in 0..SAMPLES {
            p_off = p_off.min(run_proc(TraceLevel::Off).0);
            let (wall, _, stats_trace) = run_proc(TraceLevel::Superstep);
            p_traced = p_traced.min(wall);
            p_trace = stats_trace;
        }
        let p_trace = p_trace.expect("traced process run records a trace");
        assert!(
            p_trace.events.iter().any(|e| e.kind.is_worker_comm()),
            "a process-mode trace must carry worker-lane exchange events"
        );
        let pct = (p_traced.as_secs_f64() / p_off.as_secs_f64() - 1.0) * 100.0;
        proc_tracing = Some((p_off, p_traced, pct, p_trace.events.len()));

        // --- wire: one broadcast and one exchange of WIRE_ROWS rows through
        // the worker processes (encode, frames out, forward, frames back,
        // decode), the unit the data plane's cost is quoted in. ---
        let wire_cluster = Cluster::new(proc_workers).with_backend(std::sync::Arc::clone(&backend));
        let rows: Vec<&[mura_core::Value]> = full.iter().take(WIRE_ROWS).collect();
        assert_eq!(rows.len(), WIRE_ROWS, "the closure has fewer rows than the wire section moves");
        let rel = Relation::from_rows(full.schema().clone(), &rows);
        let broadcast =
            min_time(SAMPLES.max(5), || wire_cluster.broadcast_rel(&rel, None).expect("broadcast"));
        let exchange = min_time(SAMPLES.max(5), || {
            // Every worker sends an equal share to every worker.
            let empty = mura_core::Rows::new(rel.schema().arity());
            let mut buckets = vec![vec![empty; proc_workers]; proc_workers];
            for (i, row) in rows.iter().enumerate() {
                buckets[i % proc_workers][(i / proc_workers) % proc_workers].push(row);
            }
            let site = wire_cluster.fault().next_site();
            let parts = wire_cluster.exchange_at(site, rel.schema(), buckets).expect("exchange");
            assert_eq!(parts.iter().map(Relation::len).sum::<usize>(), WIRE_ROWS);
        });
        wire_proc = Some((broadcast, exchange));
    }

    // --- wire, in-process layers: checksum and row codec. ---
    let crc_input: Vec<u8> =
        (0..(4usize << 20)).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
    assert_eq!(mura_core::crc32(&crc_input), crc32_bytewise(&crc_input), "CRC kernels disagree");
    let mb_s = |d: Duration| crc_input.len() as f64 / 1e6 / d.as_secs_f64();
    let crc_sliced = mb_s(min_time(SAMPLES.max(5), || mura_core::crc32(&crc_input)));
    let crc_bytewise = mb_s(min_time(SAMPLES.max(5), || crc32_bytewise(&crc_input)));
    let crc_speedup = crc_sliced / crc_bytewise;
    let encoded = mura_dist::wire::encode_relation(&full);
    let rows_s = |d: Duration| full.len() as f64 / d.as_secs_f64();
    let encode_rows_s =
        rows_s(min_time(SAMPLES.max(5), || mura_dist::wire::encode_relation(&full)));
    let decode_rows_s = rows_s(min_time(SAMPLES.max(5), || {
        mura_dist::wire::decode_relation(&encoded, full.schema()).expect("decode")
    }));

    // --- relation: the flat store, operation by operation. ---
    let relation_sizes: Vec<String> =
        [20_000, 200_000].iter().map(|&rows| relation_section(&mut db, rows)).collect();
    let (build_allocations, build_bytes_per_row) = {
        let schema = e.schema().clone();
        let (before, live_before) =
            (ALLOCATIONS.load(Ordering::Relaxed), LIVE_BYTES.load(Ordering::Relaxed));
        let mut rel = Relation::new(schema);
        for i in 0..BUILD_ROWS {
            rel.insert(bench_row(i, BUILD_ROWS));
        }
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let live = LIVE_BYTES.load(Ordering::Relaxed).wrapping_sub(live_before);
        assert_eq!(rel.len(), BUILD_ROWS);
        (allocations, live as f64 / BUILD_ROWS as f64)
    };
    println!(
        "  relation:  {BUILD_ROWS}-row build by insert: {build_allocations} allocations, {build_bytes_per_row:.2} live bytes per row"
    );

    // --- WAL overhead: the identical IVM mutation stream against a durable
    // serving tier (WAL on, fsync off — CI filesystems make fsync walls
    // meaningless) vs a memory-only one, each mutation followed by the
    // read that brings the view forward. Incremental maintenance work is
    // the same on both sides, so the measured delta is exactly the cost of
    // record encode + checksum + buffered write on the mutation path. ---
    let wal_dir = std::env::temp_dir().join(format!("mura-bench-wal-{}", std::process::id()));
    let run_mutation_stream = |data_dir: Option<std::path::PathBuf>| -> Duration {
        let mut sdb = Database::new();
        let s = sdb.intern("src");
        let d = sdb.intern("dst");
        sdb.insert_relation("edge", Relation::from_pairs(s, d, g.plain_edges()));
        let config = mura_serve::ServeConfig {
            data_dir,
            wal_sync: mura_serve::SyncPolicy::Never,
            snapshot_every: 0, // never: measure the WAL alone
            ..Default::default()
        };
        let server =
            mura_serve::Server::try_start(QueryEngine::new(sdb), config).expect("start server");
        let client = server.client();
        client.query("?x, ?y <- ?x edge+ ?y").expect("warm TC view");
        let rel = server.with_db(|db| db.dict().lookup("edge").expect("edge relation"));
        let t = Instant::now();
        for i in 0..WAL_BATCHES {
            // Fresh chain edges: never duplicates, so every batch survives
            // normalization and its read runs one real maintenance round.
            let mut batch = mura_serve::DeltaBatch::new();
            let row =
                vec![mura_core::Value::node(NODES + i), mura_core::Value::node(NODES + i + 1)]
                    .into_boxed_slice();
            server.with_db(|db| batch.push_insert(db, rel, row)).expect("push insert");
            server.apply_delta(batch).expect("apply delta");
            client.query("?x, ?y <- ?x edge+ ?y").expect("read the TC view");
        }
        let wall = t.elapsed();
        server.shutdown();
        wall
    };
    let mut wal_off = Duration::MAX;
    let mut wal_on = Duration::MAX;
    for _ in 0..SAMPLES {
        wal_off = wal_off.min(run_mutation_stream(None));
        let _ = std::fs::remove_dir_all(&wal_dir);
        wal_on = wal_on.min(run_mutation_stream(Some(wal_dir.clone())));
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
    let wal_overhead_pct = (wal_on.as_secs_f64() / wal_off.as_secs_f64() - 1.0) * 100.0;

    let (reply_us, reply_body_bytes) = reply_section();
    let (stage_us, stage_allocations) = stage_section();

    let optimized = summarize(&flagship.samples);
    let ns_per_row = flagship.ns_per_row();
    let hash_chain = summarize(&chain.samples);

    println!("  tc rows: {opt_rows}");
    println!("  per-worker loop supersteps (sum): {loop_iterations}");
    println!(
        "  optimized: {:.1} ms  [{:.1} .. {:.1}], {ns_per_row:.1} ns per row; {} index builds and {} constant folds over {prepares} prepares, {} closure kernels",
        optimized.mean_ms, optimized.min_ms, optimized.max_ms, kernel.index_builds, kernel.const_folds, kernel.closure_kernels
    );
    println!(
        "  hash chain: {:.1} ms  [{:.1} .. {:.1}], {:.1} ns per row ({:.1}x the kernel's), {} iterations",
        hash_chain.mean_ms,
        hash_chain.min_ms,
        hash_chain.max_ms,
        chain.ns_per_row(),
        chain.ns_per_row() / ns_per_row,
        chain.iterations,
    );
    for (name, edges, kernel, chain) in &dense {
        println!(
            "  dense:     {name} ({edges} edges, {} closure rows): kernel {:.1} ms, hash chain {:.1} ms ({:.1}x), {} closure kernels",
            kernel.rows,
            kernel.mean_ms(),
            chain.mean_ms(),
            chain.mean_ms() / kernel.mean_ms(),
            kernel.kernel.closure_kernels,
        );
    }
    println!(
        "  anchored:  from one source ({} seed rows, {} closure rows): kernel {} µs, hash chain {} µs (median [quartiles] of {SPREAD_SAMPLES}), {} closure kernels",
        anchored_seed.len(),
        anchored.rows,
        anchored.us(),
        anchored_chain.us(),
        anchored.kernel.closure_kernels,
    );
    println!(
        "  plan comm: {} shuffles, {} rows shuffled; plan kernel: {} index builds, {} probes",
        comm.shuffles, comm.rows_shuffled, plan_kernel.index_builds, plan_kernel.join_probes
    );
    let traced_iterations = traced_stats.kernel.iterations;
    println!(
        "  tracing:   off {:.1} ms, superstep {:.1} ms → {overhead_pct:+.1}% (not gated); {} events, \
         {traced_supersteps} of them supersteps for {traced_iterations} kernel iterations, \
         {trace_allocations} allocations beyond the {off_allocations} of an untraced run",
        off_min.as_secs_f64() * 1e3,
        traced_min.as_secs_f64() * 1e3,
        trace.events.len(),
    );
    if let Some((p_off, p_traced, pct, events)) = &proc_tracing {
        println!(
            "  tracing ({proc_workers} procs): off {:.1} ms, superstep {:.1} ms → {pct:+.1}% (not gated); {events} events",
            p_off.as_secs_f64() * 1e3,
            p_traced.as_secs_f64() * 1e3,
        );
    }
    println!(
        "  wire:      crc {crc_sliced:.0} MB/s sliced vs {crc_bytewise:.0} MB/s bytewise ({crc_speedup:.1}x); row block {:.1}M rows/s encode, {:.1}M rows/s decode, {:.1} bytes/row",
        encode_rows_s / 1e6,
        decode_rows_s / 1e6,
        encoded.len() as f64 / full.len() as f64,
    );
    if let Some((broadcast, exchange)) = &wire_proc {
        println!(
            "  wire ({proc_workers} procs): {WIRE_ROWS} rows broadcast in {:.0} µs, exchanged in {:.0} µs",
            broadcast.as_secs_f64() * 1e6,
            exchange.as_secs_f64() * 1e6,
        );
    }
    println!(
        "  wal:       off {:.1} ms, on {:.1} ms ({WAL_BATCHES} batches, no fsync) → overhead {wal_overhead_pct:+.1}%",
        wal_off.as_secs_f64() * 1e3,
        wal_on.as_secs_f64() * 1e3,
    );

    println!(
        "  reply:     {REPLY_ROWS}-row cached answer: {reply_us} µs per respond (median [quartiles] of {REPLY_SAMPLES}), {reply_body_bytes} body bytes"
    );
    println!(
        "  stage:     2 trivial heavy tasks on 2 workers: {stage_us:.1} µs per stage (median of {STAGE_SAMPLES}), {stage_allocations:.1} allocations"
    );

    let proc_json = proc_tracing
        .as_ref()
        .map(|(off, traced, pct, events)| {
            format!(
                "  \"tracing_proc\": {{\"workers\": {proc_workers}, \"off_min_ms\": {:.3}, \"superstep_min_ms\": {:.3}, \"overhead_pct\": {pct:.2}, \"events\": {events}}},\n",
                off.as_secs_f64() * 1e3,
                traced.as_secs_f64() * 1e3,
            )
        })
        .unwrap_or_default();
    let wire_proc_json = wire_proc
        .as_ref()
        .map(|(broadcast, exchange)| {
            format!(
                ", \"proc\": {{\"workers\": {proc_workers}, \"rows\": {WIRE_ROWS}, \"broadcast_us\": {:.0}, \"exchange_us\": {:.0}}}",
                broadcast.as_secs_f64() * 1e6,
                exchange.as_secs_f64() * 1e6,
            )
        })
        .unwrap_or_default();
    let wire_json = format!(
        "  \"wire\": {{\"crc_sliced_mb_s\": {crc_sliced:.0}, \"crc_bytewise_mb_s\": {crc_bytewise:.0}, \"crc_speedup\": {crc_speedup:.2}, \"encode_rows_per_s\": {encode_rows_s:.0}, \"decode_rows_per_s\": {decode_rows_s:.0}, \"bytes_per_row\": {:.2}{wire_proc_json}}},\n",
        encoded.len() as f64 / full.len() as f64,
    );
    let dense_json: Vec<String> = dense
        .iter()
        .map(|(name, edges, kernel, chain)| {
            format!(
                "{{\"graph\": \"{name}\", \"edges\": {edges}, \"tc_rows\": {}, \"kernel_ms\": {:.3}, \"hash_chain_ms\": {:.3}, \"speedup\": {:.2}}}",
                kernel.rows,
                kernel.mean_ms(),
                chain.mean_ms(),
                chain.mean_ms() / kernel.mean_ms(),
            )
        })
        .collect();
    let relation_json = format!(
        "  \"relation\": {{\"sizes\": [{}], \"build_rows\": {BUILD_ROWS}, \"build_allocations\": {build_allocations}, \"build_bytes_per_row\": {build_bytes_per_row:.2}}},\n",
        relation_sizes.join(", "),
    );
    let json = format!(
        "{{\n  \"bench\": \"fixpoint_tc_er\",\n  \"plan\": \"p_plw\",\n  \"engine\": \"set_rdd\",\n  \"workers\": {WORKERS},\n  \"graph\": {{\"nodes\": {NODES}, \"edge_prob\": {EDGE_PROB}, \"seed\": {SEED}, \"edges\": {}, \"tc_rows\": {opt_rows}}},\n  \"samples\": {SAMPLES},\n  \"iterations\": {loop_iterations},\n  \"optimized\": {},\n  \"ns_per_row\": {ns_per_row:.1},\n  \"hash_chain\": {{\"timings\": {}, \"ns_per_row\": {:.1}, \"iterations\": {}}},\n  \"dense\": [{}],\n  \"anchored\": {{\"seed_rows\": {}, \"tc_rows\": {}, \"kernel_us\": {}, \"hash_chain_us\": {}}},\n  \"tracing\": {{\"off_min_ms\": {:.3}, \"superstep_min_ms\": {:.3}, \"overhead_pct\": {overhead_pct:.2}, \"events\": {}, \"superstep_events\": {traced_supersteps}, \"kernel_iterations\": {traced_iterations}, \"allocations_beyond_off\": {trace_allocations}}},\n{proc_json}{wire_json}{relation_json}  \"wal\": {{\"off_min_ms\": {:.3}, \"on_min_ms\": {:.3}, \"overhead_pct\": {wal_overhead_pct:.2}, \"batches\": {WAL_BATCHES}}},\n  \"reply\": {{\"rows\": {REPLY_ROWS}, \"samples\": {REPLY_SAMPLES}, \"us\": {}, \"body_bytes\": {reply_body_bytes}}},\n  \"stage\": {{\"workers\": 2, \"samples\": {STAGE_SAMPLES}, \"median_us\": {stage_us:.1}, \"allocations\": {stage_allocations:.1}}},\n  \"comm\": {},\n  \"kernel\": {}\n}}\n",
        e.len(),
        json_timings(&optimized),
        json_timings(&hash_chain),
        chain.ns_per_row(),
        chain.iterations,
        dense_json.join(", "),
        anchored_seed.len(),
        anchored.rows,
        anchored.us().json(),
        anchored_chain.us().json(),
        off_min.as_secs_f64() * 1e3,
        traced_min.as_secs_f64() * 1e3,
        trace.events.len(),
        wal_off.as_secs_f64() * 1e3,
        wal_on.as_secs_f64() * 1e3,
        reply_us.json(),
        json_object(&comm.rows()),
        json_object(&kernel.rows()),
    );
    std::fs::write(&out_path, json).expect("write BENCH_fixpoint.json");
    println!("  wrote {out_path}");

    let mut failed = false;
    if (kernel.index_builds, kernel.const_folds) != (prepares, prepares) {
        eprintln!(
            "FAIL: {} index builds and {} constant folds over {prepares} prepares and \
             {loop_iterations} iterations a round; each prepare must do each once",
            kernel.index_builds, kernel.const_folds
        );
        failed = true;
    }
    if (kernel.closure_kernels, opt_rows) != (prepares, FLAGSHIP_ROWS) {
        eprintln!(
            "FAIL: the flagship took the closure kernel in {} of {prepares} rounds and emitted \
             {opt_rows} rows; every round must take it and emit {FLAGSHIP_ROWS}",
            kernel.closure_kernels
        );
        failed = true;
    }
    if let Some((name, _, kernel, _)) = dense.first() {
        if (kernel.kernel.closure_kernels, kernel.rows) != (kernel.rounds, RND_400_ROWS) {
            eprintln!(
                "FAIL: {name} took the closure kernel in {} of {} rounds and emitted {} rows; \
                 every round must take it and emit {RND_400_ROWS}",
                kernel.kernel.closure_kernels, kernel.rounds, kernel.rows
            );
            failed = true;
        }
    }
    if traced_supersteps != traced_iterations {
        eprintln!(
            "FAIL: {traced_supersteps} superstep events for {traced_iterations} kernel iterations"
        );
        failed = true;
    }
    if trace_allocations > MAX_TRACE_ALLOCATIONS {
        eprintln!(
            "FAIL: a traced run made {trace_allocations} allocations more than an untraced one, \
             above the {MAX_TRACE_ALLOCATIONS} a sink needs"
        );
        failed = true;
    }
    let min_crc_speedup = env_f64("BENCH_MIN_CRC_SPEEDUP", 2.0);
    if crc_speedup < min_crc_speedup {
        eprintln!(
            "FAIL: sliced CRC-32 is {crc_speedup:.2}x the bytewise kernel, below the required {min_crc_speedup:.2}x"
        );
        failed = true;
    }
    if build_allocations > 64 {
        eprintln!(
            "FAIL: building {BUILD_ROWS} rows took {build_allocations} allocations, above the 64 a handful of buffer doublings needs"
        );
        failed = true;
    }
    if build_bytes_per_row > MAX_BUILD_BYTES_PER_ROW {
        eprintln!(
            "FAIL: building {BUILD_ROWS} rows left {build_bytes_per_row:.2} live bytes per row, above the {MAX_BUILD_BYTES_PER_ROW} two 8-byte values and a 5-byte slot at a load of 7/8 need"
        );
        failed = true;
    }
    let max_wal_overhead = env_f64("BENCH_MAX_WAL_OVERHEAD", 10.0);
    if wal_overhead_pct > max_wal_overhead {
        eprintln!(
            "FAIL: WAL overhead {wal_overhead_pct:.1}% above allowed {max_wal_overhead:.1}% \
             (no-fsync mutation path)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
