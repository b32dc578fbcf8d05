//! `classes_sim` and `classes_proc`: the paper's query classes C1–C6 (plus
//! the filtered merged closure) on a labeled Erdős–Rényi graph, each under
//! `FixpointPlan::Auto` and `ForceGld`, SetRdd engine, two workers — over
//! the in-process simulator or over two real worker processes.
//!
//! One *pass* runs the whole query set under both plans. A run is one
//! warm-up pass (part of set-up) and then passes until `--seconds` is
//! used up; every answer of every pass is checked against the warm-up's,
//! and the warm-up's against centralized evaluation once timing is over.
//! Every query is one interval of the speed meter (`spine::cal`): its wall
//! time counts at the reference machine speed.

use crate::spec::{Outcome, RssProbe, RunArgs, SETUPS, WORKERS};
use crate::spine::cal::{Interval, Meter};
use crate::spine::gen::{classes_db, CLASS_QUERIES};
use crate::spine::span::Recorder;
use crate::spine::stats::{median, quartiles};
use mura_core::{Database, Relation, Term};
use mura_dist::localfix::{local_fixpoint_prepared, prepare, Budget, Prepared};
use mura_dist::{
    wire, Cluster, CommBackend, CommSnapshot, DistRel, ExecConfig, FixpointPlan, LocalEngine,
    PlannedQuery, ProcCluster, ProcClusterConfig, QueryEngine, TraceLevel,
};
use mura_obs::EventKind;
use mura_rewrite::Rewriter;
use mura_ucrpq::{parse_ucrpq, to_mura};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const PLANS: [FixpointPlan; 2] = [FixpointPlan::Auto, FixpointPlan::ForceGld];

/// Measured passes after which `peak_rss_mb` is read (see [`RssProbe`]).
const RSS_AT_PASS: usize = 10;

/// Graph size: `(nodes, edge probability)`, mean degree 1.6 over two
/// labels. A pass then takes about 0.6 s, so a run holds the 15 passes
/// `query_p95_ms` needs; and each label's closure is far enough below
/// critical that the rows moved per pass differ by 0.4% between seeds
/// (3% at mean degree 2.4, whose closures have heavy tails).
fn graph_size(quick: bool) -> (u64, f64) {
    if quick {
        (5_000, 3.2e-4)
    } else {
        (50_000, 3.2e-5)
    }
}

/// Order-independent digest of a relation: row count and the wrapping sum
/// of per-row hashes (fixed-key SipHash, so it repeats across processes).
/// Lets every pass be checked without keeping 14 answers alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    rows: u64,
    sum: u64,
}

fn digest(rel: &Relation) -> Digest {
    let mut sum = 0u64;
    for row in rel.iter() {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        sum = sum.wrapping_add(h.finish());
    }
    Digest { rows: rel.len() as u64, sum }
}

/// Everything set-up builds: one engine per plan over the same database
/// and (for `classes_proc`) the worker fleet they share.
struct Rig {
    engines: Vec<QueryEngine>,
    fleet: Option<Arc<ProcCluster>>,
    /// Warm-up answers, `[plan][query]`.
    warm: Vec<Vec<Digest>>,
}

impl Rig {
    fn shutdown(self) {
        if let Some(fleet) = self.fleet {
            fleet.shutdown();
        }
    }
}

fn spawn_fleet() -> Result<Arc<ProcCluster>, String> {
    // The worker is this executable in its worker role (see `main`), so a
    // checkout needs no second binary and resolution cannot fail late.
    let exe = std::env::current_exe().map_err(|e| format!("cannot resolve own executable: {e}"))?;
    std::env::set_var(crate::WORKER_ROLE_ENV, "1");
    ProcCluster::spawn_with(ProcClusterConfig {
        workers: WORKERS,
        worker_bin: Some(exe.clone()),
        ..Default::default()
    })
    .map_err(|e| format!("cannot start {WORKERS} worker processes from {}: {e}", exe.display()))
}

fn config(plan: FixpointPlan, fleet: &Option<Arc<ProcCluster>>) -> ExecConfig {
    ExecConfig {
        workers: WORKERS,
        plan,
        local_engine: LocalEngine::SetRdd,
        backend: fleet.as_ref().map(|f| Arc::clone(f) as Arc<dyn CommBackend>),
        ..Default::default()
    }
}

/// Generate the graph, load it, start the fleet, run the warm-up pass.
fn setup(args: &RunArgs, proc: bool) -> Result<Rig, String> {
    let (nodes, p) = graph_size(args.quick);
    let db = classes_db(args.seed, nodes, p);
    let fleet = if proc { Some(spawn_fleet()?) } else { None };
    let mut engines: Vec<QueryEngine> = PLANS
        .iter()
        .map(|&plan| QueryEngine::with_config(db.clone(), config(plan, &fleet)))
        .collect();
    let mut warm = Vec::new();
    for engine in &mut engines {
        let mut row = Vec::new();
        for (_, query) in CLASS_QUERIES {
            let out = engine.run_ucrpq(query).map_err(|e| format!("warm-up {query}: {e}"))?;
            row.push(digest(&out.relation));
        }
        warm.push(row);
    }
    Ok(Rig { engines, fleet, warm })
}

/// Per-pass measurements.
#[derive(Default)]
struct Pass {
    /// One interval per query, `[plan][query]` flattened.
    queries: Vec<Interval>,
    comm: CommSnapshot,
    mismatches: Vec<String>,
}

impl Pass {
    /// Sum of the query walls at the reference speed.
    fn wall_s(&self) -> f64 {
        self.queries.iter().map(Interval::secs).sum()
    }

    /// Sum of the query walls as the clock gave them.
    fn raw_wall_s(&self) -> f64 {
        self.queries.iter().map(|q| q.raw_s).sum()
    }
}

fn add_comm(total: &mut CommSnapshot, c: &CommSnapshot) {
    total.shuffles += c.shuffles;
    total.rows_shuffled += c.rows_shuffled;
    total.rows_broadcast += c.rows_broadcast;
    total.broadcasts += c.broadcasts;
    total.wire_tx_bytes += c.wire_tx_bytes;
    total.wire_rx_bytes += c.wire_rx_bytes;
    total.wire_exchange_bytes += c.wire_exchange_bytes;
}

/// One untraced pass: the client-visible path, `QueryEngine::run_ucrpq`
/// (parse → rewrite → execute → collected relation) per query and plan.
fn run_pass(rig: &mut Rig, meter: &mut Meter) -> Pass {
    let mut pass = Pass::default();
    for (pi, engine) in rig.engines.iter_mut().enumerate() {
        for (qi, (class, query)) in CLASS_QUERIES.iter().enumerate() {
            let (out, interval) = meter.timed(|| engine.run_ucrpq(query));
            pass.queries.push(interval);
            match out {
                Ok(out) => {
                    add_comm(&mut pass.comm, &out.comm);
                    if digest(&out.relation) != rig.warm[pi][qi] {
                        pass.mismatches
                            .push(format!("{class} under {:?} changed answer", PLANS[pi]));
                    }
                }
                Err(e) => pass.mismatches.push(format!("{class} under {:?}: {e}", PLANS[pi])),
            }
        }
    }
    pass
}

/// Checks the warm-up answers: both plans agree, and each equals
/// centralized μ-RA evaluation of the unoptimized term.
fn check_against_oracle(rig: &mut Rig, out: &mut Outcome) {
    for (qi, (class, query)) in CLASS_QUERIES.iter().enumerate() {
        let db = rig.engines[0].db_mut();
        let expected = parse_ucrpq(query)
            .and_then(|q| to_mura(&q, db))
            .and_then(|term| mura_core::eval(&term, db))
            .map(|rel| digest(&rel));
        for (pi, plan) in PLANS.iter().enumerate() {
            let got = rig.warm[pi][qi];
            out.check(expected.as_ref().is_ok_and(|e| *e == got), || {
                format!("{class} under {plan:?}: got {got:?}, centralized evaluation {expected:?}")
            });
        }
    }
}

/// The in-process simulator over `rig`'s database, expecting `rig`'s
/// warm-up answers.
fn simulator_twin(rig: &Rig) -> Rig {
    let db = rig.engines[0].db();
    let engines =
        PLANS.iter().map(|&p| QueryEngine::with_config(db.clone(), config(p, &None))).collect();
    Rig { engines, fleet: None, warm: rig.warm.clone() }
}

/// The simulator must give `classes_proc`'s answers and move exactly as
/// many rows: the fleet changes how partitions travel, not which.
fn check_against_simulator(
    rig: &Rig,
    proc_comm: &CommSnapshot,
    meter: &mut Meter,
    out: &mut Outcome,
) {
    let pass = run_pass(&mut simulator_twin(rig), meter);
    out.check(pass.mismatches.is_empty(), || format!("simulator vs fleet: {:?}", pass.mismatches));
    let moved = |c: &CommSnapshot| c.rows_shuffled + c.rows_broadcast;
    out.check(moved(&pass.comm) == moved(proc_comm), || {
        format!("rows moved: simulator {} vs fleet {}", moved(&pass.comm), moved(proc_comm))
    });
}

pub fn run(args: &RunArgs, proc: bool) -> Result<Outcome, String> {
    if args.trace {
        return run_traced(args, proc);
    }
    let mut out = Outcome::default();
    let mut meter = Meter::start();
    let (rig, first_setup) = meter.timed(|| setup(args, proc));
    let mut rig = rig?;

    let mut passes: Vec<Pass> = Vec::new();
    let mut rss = RssProbe::after_units(RSS_AT_PASS);
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        passes.push(run_pass(&mut rig, &mut meter));
        rss.unit_done(passes.len());
    }
    let rss = rss.finish(passes.len(), &mut out);

    for pass in &passes {
        out.attempted += pass.queries.len() as u64;
        out.failed += pass.mismatches.len() as u64;
        for m in &pass.mismatches {
            out.note(format!("FAILED: {m}"));
        }
    }
    let ok_queries = out.attempted - out.failed;
    // Time spent in queries, at the reference speed.
    let measured_s: f64 = passes.iter().map(Pass::wall_s).sum();
    // Median wall per query × plan over the passes. The percentiles are
    // taken over these 14 walls, not over the samples of all passes: a
    // burst of the host then moves a few samples of a median, not the
    // tail that a pooled p95 is made of. (The p95 of 14 values is the
    // largest: the slowest class under its slower plan.)
    let medians: Vec<f64> = (0..PLANS.len() * CLASS_QUERIES.len())
        .map(|c| median(&passes.iter().map(|p| p.queries[c].secs() * 1e3).collect::<Vec<_>>()))
        .collect();
    let samples = passes.len() * medians.len();
    let pass_wall_s = medians.iter().sum::<f64>() / 1e3;
    out.set("pass_wall_s", pass_wall_s);
    out.set("query_p50_ms", median(&medians));
    out.set("query_p95_ms", medians.iter().copied().fold(0.0, f64::max));
    // Correct answers per second of a median pass.
    let ok_share = ok_queries as f64 / out.attempted as f64;
    out.set("queries_per_s", ok_share * medians.len() as f64 / pass_wall_s);
    out.set("peak_rss_mb", rss);
    let first = passes[0].comm;
    out.note(format!(
        "{} passes, {} query samples, {measured_s:.2} s of queries at the reference speed; rows moved per pass {}, wire exchange bytes per pass {}",
        passes.len(),
        samples,
        first.rows_shuffled + first.rows_broadcast,
        first.wire_exchange_bytes,
    ));
    let (f1, f2, f3) = quartiles(meter.factors());
    out.note(format!(
        "machine speed factor quartiles {f1:.3} / {f2:.3} / {f3:.3}; as the clock gave it: raw_pass_wall_s={:.4} raw_queries_per_s={:.2}",
        median(&passes.iter().map(Pass::raw_wall_s).collect::<Vec<_>>()),
        ok_queries as f64 / passes.iter().map(Pass::raw_wall_s).sum::<f64>(),
    ));
    for (plan, walls) in PLANS.iter().zip(medians.chunks(CLASS_QUERIES.len())) {
        let walls: Vec<String> = CLASS_QUERIES
            .iter()
            .zip(walls)
            .map(|((class, _), ms)| format!("{class} {ms:.1}"))
            .collect();
        out.note(format!("median wall per class under {plan:?} (ms): {}", walls.join(", ")));
    }
    // Counts must repeat exactly pass after pass.
    out.check(passes.iter().all(|p| p.comm.rows_shuffled == first.rows_shuffled), || {
        "rows_shuffled differs between passes".into()
    });

    check_against_oracle(&mut rig, &mut out);
    if proc {
        check_against_simulator(&rig, &first, &mut meter, &mut out);
    }
    rig.shutdown();

    // The remaining set-ups are only timed. They run last so that the
    // peak memory above is that of one set-up and the measured passes.
    let mut setups = vec![first_setup.secs()];
    for _ in 1..SETUPS {
        let (rig, interval) = meter.timed(|| setup(args, proc));
        rig?.shutdown();
        setups.push(interval.secs());
    }
    out.set("setup_s", median(&setups));
    Ok(out)
}

/// What one traced pass counted.
#[derive(Default)]
struct TracedPass {
    wall_s: f64,
    comm: CommSnapshot,
    kernel: mura_core::kernel::KernelSnapshot,
    result_rows: u64,
    candidates: u64,
    enumerated_won: u64,
    trace_events: u64,
    dropped: u64,
    supersteps: u64,
    superstep_us: u64,
    exchange_us: u64,
    skew: f64,
}

/// One traced pass: the same work as [`run_pass`], but calling each
/// layer's public function separately inside a span of the benchmark's
/// own, with the evaluator's `QueryTrace` nested under `dist.execute`.
fn run_traced_pass(
    rig: &mut Rig,
    rec: &mut Recorder,
    first_query_id: u64,
) -> Result<TracedPass, String> {
    let mut tp = TracedPass::default();
    let start = Instant::now();
    let mut qid = first_query_id;
    for engine in rig.engines.iter_mut() {
        for (class, query) in CLASS_QUERIES {
            qid += 1;
            let cfg = ExecConfig {
                trace: TraceLevel::Superstep,
                query_id: qid,
                ..engine.config().clone()
            };
            let (res, _) =
                rec.scope("bench.query", qid, |rec| -> Result<_, mura_core::MuraError> {
                    let t = Instant::now();
                    let parsed = rec.scope("ucrpq.parse", qid, |_| parse_ucrpq(query)).0?;
                    let term = rec
                        .scope("ucrpq.translate", qid, |_| to_mura(&parsed, engine.db_mut()))
                        .0?;
                    let (plan, report) = rec
                        .scope("rewrite.optimize", qid, |_| {
                            let db = engine.db_mut();
                            Rewriter::new(db).optimize_report(&term, db)
                        })
                        .0?;
                    let planned = PlannedQuery { plan, planning: t.elapsed() };
                    let (out, span) =
                        rec.scope("dist.execute", qid, |_| engine.execute_plan_with(&planned, cfg));
                    let out = out?;
                    if let Some(trace) = out.trace() {
                        rec.nest_trace(span, trace);
                    }
                    Ok((out, report))
                });
            let (out, report) = res.map_err(|e| format!("traced {class}: {e}"))?;
            add_comm(&mut tp.comm, &out.comm);
            let k = &out.stats.kernel;
            tp.kernel.index_builds += k.index_builds;
            tp.kernel.join_probes += k.join_probes;
            tp.kernel.rows_allocated += k.rows_allocated;
            tp.kernel.eval_nanos += k.eval_nanos;
            tp.result_rows += out.relation.len() as u64;
            tp.candidates += report.candidates as u64;
            tp.enumerated_won += u64::from(report.enumerated_won);
            if let Some(trace) = out.trace() {
                tp.trace_events += trace.events.len() as u64;
                tp.dropped += trace.dropped;
                for e in &trace.events {
                    match e.kind {
                        EventKind::Superstep => {
                            tp.supersteps += 1;
                            tp.superstep_us += e.dur_us;
                        }
                        EventKind::ExchangeSend
                        | EventKind::ExchangeRecv
                        | EventKind::ExchangeWait => {
                            tp.exchange_us += e.dur_us;
                        }
                        _ => {}
                    }
                }
                let worst =
                    trace.skew_by_fixpoint().iter().map(|s| s.skew_ratio).fold(0.0, f64::max);
                tp.skew = tp.skew.max(worst);
            }
        }
    }
    tp.wall_s = start.elapsed().as_secs_f64();
    Ok(tp)
}

/// Timed `localfix::prepare` + `local_fixpoint_prepared` over the `a1`
/// closure's partitions (the C1 kernel work without planning, exchange or
/// collection), in result rows per second.
fn local_fixpoint_rows_per_s(db: &Database) -> Result<f64, String> {
    let mut db = db.clone();
    let (src, dst) = (db.intern("src"), db.intern("dst"));
    let (m, x) = (db.intern("m"), db.intern("X"));
    let a1 = db.relation_by_name("a1").ok_or("relation a1 missing")?.clone();
    let step =
        Term::var(x).rename(dst, m).join(Term::cst(a1.clone()).rename(src, m)).antiproject(m);
    let cluster = Cluster::new(WORKERS);
    let seed = DistRel::from_relation(&a1, &cluster);
    let budget = Budget::new(None, None);
    let mut rates = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let prepared: Vec<Prepared<Relation>> =
            vec![prepare(&step, x, a1.schema()).map_err(|e| e.to_string())?];
        let parts = cluster
            .try_par_map(seed.parts(), |_, part| local_fixpoint_prepared(part, &prepared, &budget))
            .map_err(|e| e.to_string())?;
        let secs = t.elapsed().as_secs_f64();
        let rows: usize = parts.iter().map(Relation::len).sum();
        rates.push(rows as f64 / secs);
    }
    Ok(median(&rates))
}

/// Timed `wire::encode_relation` / `decode_relation` on the C1 answer, in
/// MB of encoded payload per second.
fn wire_codec_mb_s(answer: &Relation) -> Result<(f64, f64), String> {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let bytes = black_box(wire::encode_relation(black_box(answer)));
        let e = t.elapsed();
        let t = Instant::now();
        let back = wire::decode_relation(&bytes, answer.schema()).map_err(|e| e.to_string())?;
        let d = t.elapsed();
        if back.len() != answer.len() {
            return Err("wire round trip lost rows".into());
        }
        let mb = bytes.len() as f64 / 1e6;
        enc.push(mb / e.as_secs_f64());
        dec.push(mb / d.as_secs_f64());
    }
    Ok((median(&enc), median(&dec)))
}

fn run_traced(args: &RunArgs, proc: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rig = setup(args, proc)?;
    let mut meter = Meter::start();
    let mut rec = Recorder::new();
    let (mut plain, mut traced): (Vec<f64>, Vec<TracedPass>) = (Vec::new(), Vec::new());
    let mut sim_walls = Vec::new();
    // The simulator on the same inputs, for `dist.proc_over_sim`.
    let mut sim = proc.then(|| simulator_twin(&rig));
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        // Alternate untraced and traced passes so drift hits both alike.
        let pass = run_pass(&mut rig, &mut meter);
        out.attempted += pass.queries.len() as u64;
        out.failed += pass.mismatches.len() as u64;
        plain.push(pass.raw_wall_s());
        let qid = (traced.len() * 100) as u64;
        traced.push(run_traced_pass(&mut rig, &mut rec, qid)?);
        if let Some(sim) = sim.as_mut() {
            sim_walls.push(run_pass(sim, &mut meter).raw_wall_s());
        }
    }
    let last = traced.last().expect("one traced pass ran");
    let totals = rec.totals();
    let per_call_us = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_self_us());
    let passes = traced.len() as f64;
    let per_pass_ms =
        |name: &str| totals.get(name).map_or(0.0, |t| t.total_us as f64 / 1e3 / passes);

    out.set("ucrpq.parse_us", per_call_us("ucrpq.parse"));
    out.set("ucrpq.translate_us", per_call_us("ucrpq.translate"));
    out.set("rewrite.optimize_us", per_call_us("rewrite.optimize"));
    out.set("rewrite.candidates", last.candidates as f64);
    out.set("rewrite.enumerated_won", last.enumerated_won as f64);
    out.set(
        "core.eval_ms",
        median(&traced.iter().map(|t| t.kernel.eval_nanos as f64 / 1e6).collect::<Vec<_>>()),
    );
    out.set("core.join_probes", last.kernel.join_probes as f64);
    out.set("core.index_builds", last.kernel.index_builds as f64);
    out.set("core.rows_allocated", last.kernel.rows_allocated as f64);
    out.set(
        "core.rows_allocated_per_row",
        last.kernel.rows_allocated as f64 / last.result_rows.max(1) as f64,
    );
    out.set("core.local_fixpoint_rows_per_s", local_fixpoint_rows_per_s(rig.engines[0].db())?);
    out.set("dist.execute_ms", per_pass_ms("dist.execute"));
    out.set("dist.supersteps", last.supersteps as f64);
    out.set(
        "dist.superstep_ms",
        median(&traced.iter().map(|t| t.superstep_us as f64 / 1e3).collect::<Vec<_>>()),
    );
    out.set(
        "dist.exchange_ms",
        median(&traced.iter().map(|t| t.exchange_us as f64 / 1e3).collect::<Vec<_>>()),
    );
    out.set("dist.shuffles", last.comm.shuffles as f64);
    out.set("dist.rows_shuffled", last.comm.rows_shuffled as f64);
    out.set("dist.rows_broadcast", last.comm.rows_broadcast as f64);
    out.set("dist.wire_tx_bytes", last.comm.wire_tx_bytes as f64);
    out.set("dist.wire_rx_bytes", last.comm.wire_rx_bytes as f64);
    out.set("dist.wire_exchange_bytes", last.comm.wire_exchange_bytes as f64);
    out.set("dist.skew_ratio", traced.iter().map(|t| t.skew).fold(0.0, f64::max));
    let c1 = rig.engines[0].run_ucrpq(CLASS_QUERIES[0].1).map_err(|e| e.to_string())?;
    let (enc, dec) = wire_codec_mb_s(&c1.relation)?;
    out.set("dist.wire_encode_mb_s", enc);
    out.set("dist.wire_decode_mb_s", dec);
    let plain_wall = median(&plain);
    if !sim_walls.is_empty() {
        out.set("dist.proc_over_sim", plain_wall / median(&sim_walls));
    }
    let traced_wall = median(&traced.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    out.set("obs.trace_overhead_pct", (traced_wall / plain_wall - 1.0) * 100.0);
    out.set("obs.trace_events", last.trace_events as f64);
    out.set("obs.dropped_spans", traced.iter().map(|t| t.dropped).sum::<u64>() as f64);
    // What the layer spans leave unexplained: the root spans' self time.
    let root = totals.get("bench.query").copied().unwrap_or_default();
    out.set("bench.residual_pct", root.self_us as f64 / root.total_us.max(1) as f64 * 100.0);
    out.set("bench.speed_factor", median(meter.factors()));
    out.set("bench.spans", rec.spans().len() as f64);
    out.set("bench.samples", (traced.len() * PLANS.len() * CLASS_QUERIES.len()) as f64);
    out.set("bench.passes", passes);
    crate::write_trace(&args.workload, &rec)?;
    rig.shutdown();
    Ok(out)
}
