//! `serve_read` and `serve_mixed`: the serving tier over real TCP
//! (`serve_tcp` on an ephemeral loopback port), one closed-loop client
//! connection: on this two-core machine the client, the connection's
//! handler and the server's two executor threads already are more threads
//! than cores.
//!
//! Both workloads run in fixed-size *rounds* until `--seconds` is used
//! up. A round is one interval of the speed meter (`spine::cal`): its wall
//! time and the latency of every request in it count at the reference
//! machine speed.

use crate::spec::{Outcome, RssProbe, RunArgs, SETUPS, WORKERS};
use crate::spine::cal::{Interval, Meter};
use crate::spine::gen::{
    apply_mutations, lanes, mutation_stream, read_pool, read_stream, yago_graph, Mutation,
    ReadStream,
};
use crate::spine::span::Recorder;
use crate::spine::stats::{median, percentile, quartiles};
use mura_core::Relation;
use mura_datagen::Graph;
use mura_dist::{ExecConfig, QueryEngine};
use mura_rewrite::Rewriter;
use mura_serve::{serve_tcp, ServeConfig, ServeStats, Server, SyncPolicy, TcpServeHandle};
use mura_ucrpq::{parse_ucrpq, to_mura};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// WAL appends between snapshots of the durable server. The default (64)
/// lets a run see two snapshots; at 16 every eighth round writes one, so
/// snapshots are a steady part of the mutation cost.
const SNAPSHOT_EVERY: u64 = 16;

/// Measured rounds after which `peak_rss_mb` is read (see [`RssProbe`]):
/// 1,800 requests of `serve_read`, 60 mutations and 120 reads of
/// `serve_mixed`, about eight seconds into either.
const RSS_AT_ROUND: usize = 30;

fn people(quick: bool) -> u64 {
    if quick {
        200
    } else {
        2_000
    }
}

fn engine(g: &Graph) -> QueryEngine {
    QueryEngine::with_config(g.to_database(), ExecConfig { workers: WORKERS, ..Default::default() })
}

fn serve_config(cache: usize, data_dir: Option<&Path>) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        result_cache: cache,
        plan_cache: cache,
        data_dir: data_dir.map(Path::to_path_buf),
        snapshot_every: SNAPSHOT_EVERY,
        wal_sync: SyncPolicy::Always,
        ..Default::default()
    }
}

/// A started server with its TCP acceptor.
struct Served {
    server: Server,
    tcp: TcpServeHandle,
}

impl Served {
    /// `cache` entries in the plan and the result cache; `data_dir` turns
    /// on the WAL (fsync on every append) and periodic snapshots.
    fn start(g: &Graph, cache: usize, data_dir: Option<&Path>) -> Result<Served, String> {
        let server = Server::try_start(engine(g), serve_config(cache, data_dir))
            .map_err(|e| format!("start server: {e}"))?;
        let tcp = serve_tcp(&server, "127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
        Ok(Served { server, tcp })
    }

    fn addr(&self) -> SocketAddr {
        self.tcp.addr()
    }

    fn stop(self) {
        self.tcp.stop();
        self.server.shutdown();
    }
}

/// One reply as the client saw it.
struct Reply {
    ok: bool,
    status: String,
    /// Digest of the body lines in order.
    digest: u64,
    bytes: usize,
    latency_ms: f64,
}

/// One closed-loop client connection (`TCP_NODELAY`).
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer, line: String::new() })
    }

    /// Sends one request line and reads the reply up to its lone `.`;
    /// latency runs from the write to the terminator. An I/O error is a
    /// failed reply, not a panic.
    fn request(&mut self, request: &str) -> Reply {
        let start = Instant::now();
        let mut reply =
            Reply { ok: false, status: String::new(), digest: 0, bytes: 0, latency_ms: 0.0 };
        let io = (|| -> std::io::Result<()> {
            self.writer.write_all(request.as_bytes())?;
            self.writer.write_all(b"\n")?;
            let mut h = DefaultHasher::new();
            loop {
                self.line.clear();
                if self.reader.read_line(&mut self.line)? == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                reply.bytes += self.line.len();
                let text = self.line.trim_end();
                if reply.status.is_empty() {
                    reply.status = text.to_string();
                } else if text == "." {
                    break;
                } else {
                    h.write(text.as_bytes());
                    h.write_u8(b'\n');
                }
            }
            reply.digest = h.finish();
            Ok(())
        })();
        reply.latency_ms = start.elapsed().as_secs_f64() * 1e3;
        match io {
            Ok(()) => reply.ok = reply.status.starts_with("OK"),
            Err(e) => reply.status = format!("I/O error: {e}"),
        }
        reply
    }
}

/// Digest of a relation rendered as the protocol renders it.
fn rendered_digest(rel: &Relation) -> u64 {
    let mut h = DefaultHasher::new();
    for row in rel.sorted_rows() {
        let vals: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        h.write(format!("({})", vals.join(", ")).as_bytes());
        h.write_u8(b'\n');
    }
    h.finish()
}

/// Compares what the server answered for each text with a fresh engine
/// over `g`.
fn check_against_fresh_engine(g: &Graph, answers: &BTreeMap<&str, u64>, out: &mut Outcome) {
    let mut fresh = engine(g);
    for (&text, &got) in answers {
        let expected = fresh.run_ucrpq(text).map(|o| rendered_digest(&o.relation));
        out.check(expected.as_ref().is_ok_and(|e| *e == got), || {
            format!("served answer differs from a fresh engine: {text}")
        });
    }
}

/// `name_sum` (seconds) and `name_count` of a histogram on the `.metrics`
/// page.
fn histogram(page: &str, name: &str) -> (f64, f64) {
    let field = |suffix: &str| {
        let key = format!("{name}_{suffix} ");
        page.lines()
            .find_map(|l| l.strip_prefix(&key))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    };
    (field("sum"), field("count"))
}

/// Server-side counters and histogram sums at one instant.
struct Scrape {
    stats: ServeStats,
    page: String,
}

impl Scrape {
    fn take(server: &Server) -> Scrape {
        Scrape { stats: server.stats(), page: server.metrics() }
    }

    /// Mean milliseconds per observation of `name` since `earlier`, and
    /// the summed milliseconds.
    fn hist_ms_since(&self, earlier: &Scrape, name: &str) -> (f64, f64) {
        let (s1, c1) = histogram(&self.page, name);
        let (s0, c0) = histogram(&earlier.page, name);
        let total_ms = (s1 - s0) * 1e3;
        (if c1 > c0 { total_ms / (c1 - c0) } else { 0.0 }, total_ms)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics both serve workloads share, from counter deltas over
/// the measured rounds.
fn serve_layers(out: &mut Outcome, before: &Scrape, after: &Scrape, rounds: f64) {
    let (a, b) = (&after.stats, &before.stats);
    let per_round = |v: u64| v as f64 / rounds;
    out.set("serve.queue_ms", after.hist_ms_since(before, "mura_query_queue_seconds").0);
    out.set("serve.planning_ms", after.hist_ms_since(before, "mura_query_planning_seconds").0);
    out.set("serve.execution_ms", after.hist_ms_since(before, "mura_query_execution_seconds").0);
    let (hits, misses) = (a.result_hits - b.result_hits, a.result_misses - b.result_misses);
    out.set("serve.result_hit_ratio", ratio(hits, hits + misses));
    let (hits, misses) = (a.plan_hits - b.plan_hits, a.plan_misses - b.plan_misses);
    out.set("serve.plan_hit_ratio", ratio(hits, hits + misses));
    out.set(
        "serve.evictions",
        per_round(
            (a.result_evictions - b.result_evictions) + (a.plan_evictions - b.plan_evictions),
        ),
    );
    out.set("serve.replans", (a.feedback_generation - b.feedback_generation) as f64);
    out.set("serve.rejected", ((a.rejected - b.rejected) + (a.shed - b.shed)) as f64);
    out.set("core.join_probes", per_round(a.kernel_join_probes - b.kernel_join_probes));
    out.set("core.index_builds", per_round(a.kernel_index_builds - b.kernel_index_builds));
    out.set("core.rows_allocated", per_round(a.kernel_rows_allocated - b.kernel_rows_allocated));
    out.set("dist.shuffles", per_round(a.comm_shuffles - b.comm_shuffles));
    out.set("dist.rows_shuffled", per_round(a.comm_rows_shuffled - b.comm_rows_shuffled));
    out.set("dist.rows_broadcast", per_round(a.comm_rows_broadcast - b.comm_rows_broadcast));
    out.set(
        "dist.execute_ms",
        after.hist_ms_since(before, "mura_query_execution_seconds").1 / rounds,
    );
}

/// Timed `parse_ucrpq`, `to_mura` and `Rewriter::optimize_report` on the
/// given texts — the planning layers a cache miss pays, called directly.
fn planning_layers(
    g: &Graph,
    texts: &[&str],
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut db = g.to_database();
    let (mut candidates, mut won) = (0u64, 0u64);
    for (i, text) in texts.iter().enumerate() {
        let qid = 1_000_000 + i as u64;
        let parsed =
            rec.scope("ucrpq.parse", qid, |_| parse_ucrpq(text)).0.map_err(|e| e.to_string())?;
        let term = rec
            .scope("ucrpq.translate", qid, |_| to_mura(&parsed, &mut db))
            .0
            .map_err(|e| e.to_string())?;
        let (_, report) = rec
            .scope("rewrite.optimize", qid, |_| {
                Rewriter::new(&mut db).optimize_report(&term, &mut db)
            })
            .0
            .map_err(|e| e.to_string())?;
        candidates += report.candidates as u64;
        won += u64::from(report.enumerated_won);
    }
    let totals = rec.totals();
    let per_call = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_self_us());
    out.set("ucrpq.parse_us", per_call("ucrpq.parse"));
    out.set("ucrpq.translate_us", per_call("ucrpq.translate"));
    out.set("rewrite.optimize_us", per_call("rewrite.optimize"));
    out.set("rewrite.candidates", candidates as f64);
    out.set("rewrite.enumerated_won", won as f64);
    Ok(())
}

// ---------------------------------------------------------------- serve_read

/// Sizes of the read workload. Pool and caches are the 343-text pool
/// over 128-entry default caches scaled down by half, which keeps the
/// Zipf mass the cache can hold (83%) while a run still fits its time
/// budget: every text costs two cold misses before timing can start.
struct ReadSizes {
    /// Countries Q1–Q8 are re-instantiated over (pool = 23 + 8 × this).
    countries: usize,
    /// Entries of the plan and of the result cache.
    cache: usize,
    /// Requests per round: about a quarter of a second, so that a reading
    /// of the speed meter (4 ms) follows every quarter second of traffic.
    round: usize,
}

fn read_sizes(quick: bool) -> ReadSizes {
    if quick {
        ReadSizes { countries: 4, cache: 20, round: 20 }
    } else {
        ReadSizes { countries: 19, cache: 64, round: 60 }
    }
}

/// The client connection of the read workload: its Zipf draws over the
/// pool, the replies it saw per text, its latencies.
struct Reader<'a> {
    conn: Conn,
    stream: ReadStream,
    pool: &'a [String],
    /// First digest seen per pool rank; later replies must repeat it.
    seen: BTreeMap<u32, u64>,
    bytes: u64,
    failures: Vec<String>,
    spans: Option<Recorder>,
    requests: u64,
}

impl Reader<'_> {
    /// One round of `count` requests; returns their latencies in ms.
    fn round(&mut self, count: usize) -> Vec<f64> {
        let mut latencies_ms = Vec::with_capacity(count);
        for _ in 0..count {
            let rank = self.stream.next().expect("the stream is endless");
            let text = &self.pool[rank as usize];
            self.requests += 1;
            let reply = match self.spans.as_mut() {
                Some(rec) => {
                    rec.scope("serve.request", self.requests, |_| self.conn.request(text)).0
                }
                None => self.conn.request(text),
            };
            latencies_ms.push(reply.latency_ms);
            self.bytes += reply.bytes as u64;
            if !reply.ok {
                self.failures.push(format!("{text}: {}", reply.status));
            } else if *self.seen.entry(rank).or_insert(reply.digest) != reply.digest {
                self.failures.push(format!("{text}: answer changed on an unchanged database"));
            }
        }
        latencies_ms
    }

    /// Brings the server to its steady state before timing starts: every
    /// pool text is asked twice, coldest rank first. The first sweep gives
    /// the planner's feedback store an observation of every fixpoint
    /// (until then each new observation bumps the feedback generation and
    /// every cached plan re-plans); the second re-plans against the
    /// settled store and leaves the hottest texts most recently used.
    /// Without it a run of a few seconds measures the transition (hit
    /// ratio 26% rising to 75%), not either regime.
    fn settle(&mut self) -> Result<(), String> {
        for _sweep in 0..2 {
            for text in self.pool.iter().rev() {
                let reply = self.conn.request(text);
                if !reply.ok {
                    return Err(format!("settling, {text}: {}", reply.status));
                }
            }
        }
        Ok(())
    }
}

struct ReadRig<'a> {
    graph: Graph,
    served: Served,
    reader: Reader<'a>,
}

impl ReadRig<'_> {
    fn stop(self) {
        drop(self.reader);
        self.served.stop();
    }
}

fn read_setup<'a>(args: &RunArgs, pool: &'a [String]) -> Result<ReadRig<'a>, String> {
    let sizes = read_sizes(args.quick);
    let graph = yago_graph(people(args.quick));
    let served = Served::start(&graph, sizes.cache, None)?;
    let mut reader = Reader {
        conn: Conn::open(served.addr())?,
        stream: read_stream(args.seed, pool.len()),
        pool,
        seen: BTreeMap::new(),
        bytes: 0,
        failures: Vec::new(),
        spans: args.trace.then(Recorder::new),
        requests: 0,
    };
    // Warm-up: the head of the pool once, in rank order — the same work on
    // every seed, so that `setup_s` compares set-ups and not streams.
    for text in pool.iter().take(sizes.cache / 2) {
        let reply = reader.conn.request(text);
        if !reply.ok {
            return Err(format!("warm-up {text}: {}", reply.status));
        }
    }
    Ok(ReadRig { graph, served, reader })
}

pub fn run_read(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let sizes = read_sizes(args.quick);
    let pool = read_pool(sizes.countries);
    let mut meter = Meter::start();
    let (rig, first_setup) = meter.timed(|| read_setup(args, &pool));
    let mut rig = rig?;
    let t = Instant::now();
    rig.reader.settle()?;
    out.note(format!("settle {:.2} s", t.elapsed().as_secs_f64()));
    rig.reader.bytes = 0;
    let mut rss = RssProbe::after_units(RSS_AT_ROUND);
    let before = Scrape::take(&rig.served.server);
    // Per round: its interval and its requests' latencies as the clock
    // gave them.
    let mut rounds: Vec<(Interval, Vec<f64>)> = Vec::new();
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (latencies_ms, interval) = meter.timed(|| rig.reader.round(sizes.round));
        rounds.push((interval, latencies_ms));
        rss.unit_done(rounds.len());
    }
    let after = Scrape::take(&rig.served.server);
    let rss = rss.finish(rounds.len(), &mut out);

    let raw_latencies: Vec<f64> = rounds.iter().flat_map(|(_, l)| l.iter().copied()).collect();
    let latencies: Vec<f64> =
        rounds.iter().flat_map(|(i, l)| l.iter().map(|ms| ms / i.factor)).collect();
    let round_walls: Vec<f64> = rounds.iter().map(|(i, _)| i.secs()).collect();
    let measured_s: f64 = round_walls.iter().sum();
    let raw_measured_s: f64 = rounds.iter().map(|(i, _)| i.raw_s).sum();
    let failures = &rig.reader.failures;
    out.attempted += latencies.len() as u64;
    out.failed += failures.len() as u64;
    for f in failures.iter().take(10) {
        out.note(format!("FAILED: {f}"));
    }
    let ok = latencies.len() - failures.len().min(latencies.len());
    let p50 = median(&latencies);
    out.note(format!(
        "{} rounds of {} requests, {} latency samples, {measured_s:.2} s of rounds at the reference speed, {} distinct texts touched",
        rounds.len(),
        sizes.round,
        latencies.len(),
        rig.reader.seen.len(),
    ));
    let (f1, f2, f3) = quartiles(meter.factors());
    out.note(format!(
        "machine speed factor quartiles {f1:.3} / {f2:.3} / {f3:.3}; as the clock gave it: raw_query_p50_ms={:.4} raw_queries_per_s={:.2}",
        median(&raw_latencies),
        ok as f64 / raw_measured_s,
    ));

    // Every distinct text the connection was answered, against a fresh
    // engine on the same graph.
    let answers: BTreeMap<&str, u64> =
        rig.reader.seen.iter().map(|(&rank, &d)| (pool[rank as usize].as_str(), d)).collect();
    let t = Instant::now();
    check_against_fresh_engine(&rig.graph, &answers, &mut out);
    out.note(format!(
        "fresh-engine check of {} texts {:.2} s",
        answers.len(),
        t.elapsed().as_secs_f64()
    ));

    if args.trace {
        let n_rounds = rounds.len() as f64;
        serve_layers(&mut out, &before, &after, n_rounds);
        let (wall_mean_ms, wall_total_ms) = after.hist_ms_since(&before, "mura_query_wall_seconds");
        let client_total_ms: f64 = raw_latencies.iter().sum();
        let client_mean_ms = client_total_ms / raw_latencies.len() as f64;
        out.set("serve.protocol_ms", client_mean_ms - wall_mean_ms);
        out.set("serve.read_p50_ms", median(&raw_latencies));
        out.set("serve.response_bytes", rig.reader.bytes as f64 / raw_latencies.len() as f64);
        out.set("bench.residual_pct", (client_total_ms - wall_total_ms) / client_total_ms * 100.0);
        out.set("bench.speed_factor", f2);
        let mut rec = rig.reader.spans.take().expect("traced run records spans");
        let sample: Vec<&str> = pool.iter().take(64).map(String::as_str).collect();
        planning_layers(&rig.graph, &sample, &mut rec, &mut out)?;
        crate::write_trace(&args.workload, &rec)?;
        out.set("bench.spans", rec.spans().len() as f64);
        out.set("bench.samples", latencies.len() as f64);
        out.set("bench.passes", n_rounds);
    } else {
        out.set("pass_wall_s", median(&round_walls));
        out.set("query_p50_ms", p50);
        out.set("query_p95_ms", percentile(&latencies, 95.0)?);
        out.set("queries_per_s", ok as f64 / measured_s);
        out.set("peak_rss_mb", rss);
    }
    rig.stop();
    if !args.trace {
        // The remaining set-ups are only timed; they run last so that the
        // peak memory is that of one server's life.
        let mut setups = vec![first_setup.secs()];
        for _ in 1..SETUPS {
            let (rig, interval) = meter.timed(|| read_setup(args, &pool));
            rig?.stop();
            setups.push(interval.secs());
        }
        out.set("setup_s", median(&setups));
    }
    Ok(out)
}

// --------------------------------------------------------------- serve_mixed

/// Cached queries the reads cycle through; the caches hold twice as many.
fn hot_set(quick: bool) -> usize {
    if quick {
        8
    } else {
        32
    }
}

/// Reads after each mutation, cycling over the hot set. A third of all
/// requests are mutations and a sixth are the slower kind (inserts: 130 ms
/// against 100 ms for a delete), so the p95 of the request latencies lies
/// among the inserts. Of the reads one in five hits; the misses fall into
/// two groups, those that find their plan cached (5 ms) and those that
/// re-plan because the mutation moved the planner's feedback generation
/// (9 ms), about half each, so the p50 lies among the re-planning misses.
/// Each percentile sits inside one kind of request, not on the border
/// between two, where it jumps with the mix: with four reads per mutation
/// the p50 fell between the two groups of misses and spread by 13% between
/// seeds, with two it spreads by 3%.
const READS_PER_MUTATION: usize = 2;

struct MixedRig {
    base: Graph,
    served: Served,
    conn: Conn,
    data_dir: PathBuf,
    mutations: Vec<Mutation>,
    /// Mutations acknowledged so far (warm-up included).
    acked: usize,
    /// Reads sent so far.
    reads: usize,
}

impl MixedRig {
    /// One round: an insert and its reads, then a delete and its reads —
    /// both kinds, so that every round is the same work. Returns the
    /// mutations' and the reads' latencies, in ms.
    fn round(
        &mut self,
        hot: &[String],
        out: &mut Outcome,
        rec: Option<&mut Recorder>,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut spans = rec;
        let mut timed =
            |conn: &mut Conn, name: &str, qid: u64, line: &str| match spans.as_deref_mut() {
                Some(rec) => rec.scope(name, qid, |_| conn.request(line)).0,
                None => conn.request(line),
            };
        let (mut mutations, mut reads) = (Vec::new(), Vec::new());
        for _kind in 0..2 {
            let m = &self.mutations[self.acked];
            let line = m.line(&self.base);
            let ack = timed(&mut self.conn, "serve.mutation", self.acked as u64, &line);
            let want = format!("OK v={} ", self.acked + 1);
            out.check(ack.ok && ack.status.starts_with(&want), || {
                format!("{line}: {} (expected {want}…)", ack.status)
            });
            self.acked += 1;
            mutations.push(ack.latency_ms);
            for _ in 0..READS_PER_MUTATION {
                let text = &hot[self.reads % hot.len()];
                self.reads += 1;
                let reply = timed(&mut self.conn, "serve.request", self.reads as u64, text);
                out.check(reply.ok, || format!("{text}: {}", reply.status));
                reads.push(reply.latency_ms);
            }
        }
        (mutations, reads)
    }
}

fn fresh_data_dir(tag: usize) -> Result<PathBuf, String> {
    let dir = crate::out_dir().join(format!("data_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn mixed_setup(args: &RunArgs, hot: &[String], tag: usize) -> Result<MixedRig, String> {
    let base = yago_graph(people(args.quick));
    let data_dir = fresh_data_dir(tag)?;
    let served = Served::start(&base, hot.len() * 2, Some(&data_dir))?;
    let conn = Conn::open(served.addr())?;
    // More mutations than any run can use; the stream is cheap.
    let mutations = mutation_stream(lanes(args.seed).mutations, &base, 4_000);
    let mut rig = MixedRig { base, served, conn, data_dir, mutations, acked: 0, reads: 0 };
    // Warm-up: every hot query twice (the second pass settles feedback
    // re-plans), then one full round so maintenance has run once.
    let mut warm = Outcome::default();
    for text in hot.iter().chain(hot.iter()) {
        let reply = rig.conn.request(text);
        if !reply.ok {
            return Err(format!("warm-up {text}: {}", reply.status));
        }
    }
    rig.round(hot, &mut warm, None);
    if warm.failed != 0 {
        return Err(format!("warm-up round failed: {:?}", warm.notes));
    }
    Ok(rig)
}

pub fn run_mixed(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let pool = read_pool(4);
    let hot: Vec<String> = pool.into_iter().take(hot_set(args.quick)).collect();
    let mut meter = Meter::start();
    let (rig, first_setup) = meter.timed(|| mixed_setup(args, &hot, 0));
    let mut rig = rig?;
    let mut rec = args.trace.then(Recorder::new);

    let before = Scrape::take(&rig.served.server);
    // Per round: its interval, and the latencies of its mutations and of
    // its reads as the clock gave them.
    let mut rounds: Vec<(Interval, Vec<f64>, Vec<f64>)> = Vec::new();
    let mut rss = RssProbe::after_units(RSS_AT_ROUND);
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let ((m, reads), interval) = meter.timed(|| rig.round(&hot, &mut out, rec.as_mut()));
        rounds.push((interval, m, reads));
        rss.unit_done(rounds.len());
    }
    let after = Scrape::take(&rig.served.server);
    let rss = rss.finish(rounds.len(), &mut out);
    let ok_requests = out.attempted - out.failed;

    // Crash-style restart: shut down without a final snapshot, recover
    // from the directory, and ask the recovered server everything again.
    let MixedRig { base, served, conn, data_dir, mutations, acked, .. } = rig;
    drop(conn);
    let snapshot_bytes: u64 = std::fs::read_dir(&data_dir)
        .map_err(|e| e.to_string())?
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .max()
        .unwrap_or(0);
    served.stop();
    let t = Instant::now();
    let recovered = Server::recover(engine(&base), serve_config(hot.len() * 2, Some(&data_dir)))
        .map_err(|e| format!("recover: {e}"))?;
    let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    let replayed = recovered.stats().recovery_replayed_batches;
    out.check(recovered.version() == acked as u64, || {
        format!("recovered version {} but {acked} mutations were acknowledged", recovered.version())
    });
    let tcp = serve_tcp(&recovered, "127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    let mut conn = Conn::open(tcp.addr())?;
    let mut answers: BTreeMap<&str, u64> = BTreeMap::new();
    for text in &hot {
        let reply = conn.request(text);
        out.check(reply.ok, || format!("after recovery, {text}: {}", reply.status));
        answers.insert(text, reply.digest);
    }
    let mut final_graph = base.clone();
    apply_mutations(&mut final_graph, &mutations[..acked]);
    check_against_fresh_engine(&final_graph, &answers, &mut out);
    drop(conn);
    Served { server: recovered, tcp }.stop();
    let _ = std::fs::remove_dir_all(&data_dir);

    let n_rounds = rounds.len() as f64;
    let raw_mutation_ms: Vec<f64> = rounds.iter().flat_map(|r| r.1.iter().copied()).collect();
    let raw_read_ms: Vec<f64> = rounds.iter().flat_map(|r| r.2.iter().copied()).collect();
    let raw_all_ms: Vec<f64> = raw_mutation_ms.iter().chain(&raw_read_ms).copied().collect();
    // Every request at the reference speed: its latency over the speed
    // factor of its round.
    let all_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|(i, m, reads)| m.iter().chain(reads).map(|ms| ms / i.factor))
        .collect();
    let round_walls: Vec<f64> = rounds.iter().map(|r| r.0.secs()).collect();
    let measured_s: f64 = round_walls.iter().sum();
    out.note(format!(
        "{n_rounds} rounds of insert + {READS_PER_MUTATION} reads + delete + {READS_PER_MUTATION} reads over {} cached queries, {measured_s:.2} s of rounds at the reference speed; \
         recovery {recovery_ms:.1} ms replaying {replayed} WAL records",
        hot.len(),
    ));
    let (f1, f2, f3) = quartiles(meter.factors());
    out.note(format!(
        "machine speed factor quartiles {f1:.3} / {f2:.3} / {f3:.3}; as the clock gave it: raw_query_p50_ms={:.4} raw_queries_per_s={:.2}",
        median(&raw_all_ms),
        ok_requests as f64 / rounds.iter().map(|r| r.0.raw_s).sum::<f64>(),
    ));
    if args.trace {
        serve_layers(&mut out, &before, &after, n_rounds);
        let (a, b) = (&after.stats, &before.stats);
        let (wall_mean_ms, wall_total_ms) = after.hist_ms_since(&before, "mura_query_wall_seconds");
        let (maint_mean_ms, maint_total_ms) =
            after.hist_ms_since(&before, "mura_ivm_maintenance_seconds");
        out.set(
            "serve.protocol_ms",
            raw_read_ms.iter().sum::<f64>() / raw_read_ms.len() as f64 - wall_mean_ms,
        );
        out.set("serve.read_p50_ms", median(&raw_read_ms));
        out.set("serve.mutation_p50_ms", median(&raw_mutation_ms));
        match percentile(&raw_mutation_ms, 90.0) {
            Ok(v) => out.set("serve.mutation_p90_ms", v),
            Err(why) => out.note(format!("serve.mutation_p90_ms: {why}")),
        }
        let (maintained, recomputed) =
            (a.ivm_maintained - b.ivm_maintained, a.ivm_fallbacks - b.ivm_fallbacks);
        out.set("ivm.maintenance_ms", maint_mean_ms);
        out.set("ivm.maintained", maintained as f64 / n_rounds);
        out.set("ivm.recomputed", recomputed as f64 / n_rounds);
        out.set("ivm.maintained_ratio", ratio(maintained, maintained + recomputed));
        out.set(
            "ivm.rederived_rows",
            (a.ivm_rederived_rows - b.ivm_rederived_rows) as f64 / n_rounds,
        );
        let appends = a.wal_appends - b.wal_appends;
        out.set("durable.wal_bytes_per_mutation", ratio(a.wal_bytes - b.wal_bytes, appends));
        out.set("durable.wal_appends", appends as f64);
        out.set("durable.snapshots", (a.snapshots_written - b.snapshots_written) as f64);
        out.set("durable.snapshot_bytes", snapshot_bytes as f64);
        out.set("durable.replayed_batches", replayed as f64);
        out.set("durable.recovery_ms", recovery_ms);
        let client_total_ms: f64 = raw_all_ms.iter().sum();
        out.set(
            "bench.residual_pct",
            (client_total_ms - wall_total_ms - maint_total_ms) / client_total_ms * 100.0,
        );
        out.set("bench.speed_factor", f2);
        let mut rec = rec.take().expect("traced run records spans");
        let sample: Vec<&str> = hot.iter().map(String::as_str).collect();
        planning_layers(&base, &sample, &mut rec, &mut out)?;
        out.set("bench.spans", rec.spans().len() as f64);
        out.set("bench.samples", all_ms.len() as f64);
        out.set("bench.passes", n_rounds);
        crate::write_trace(&args.workload, &rec)?;
    } else {
        // The remaining set-ups are only timed; they run last so that the
        // peak memory is that of one server's life.
        let mut setups = vec![first_setup.secs()];
        for tag in 1..SETUPS {
            let (rig, interval) = meter.timed(|| mixed_setup(args, &hot, tag));
            let rig = rig?;
            setups.push(interval.secs());
            drop(rig.conn);
            rig.served.stop();
            let _ = std::fs::remove_dir_all(&rig.data_dir);
        }
        out.set("setup_s", median(&setups));
        out.set("pass_wall_s", median(&round_walls));
        out.set("query_p50_ms", median(&all_ms));
        match percentile(&all_ms, 95.0) {
            Ok(v) => out.set("query_p95_ms", v),
            Err(why) => {
                // Too few rounds fit: the p95 of this mix lies among the
                // inserts, so report their median.
                out.note(format!("query_p95_ms: {why}; reporting the median insert"));
                let inserts: Vec<f64> = rounds.iter().map(|(i, m, _)| m[0] / i.factor).collect();
                out.set("query_p95_ms", median(&inserts));
            }
        }
        out.set("queries_per_s", ok_requests as f64 / measured_s);
        out.set("peak_rss_mb", rss);
    }
    Ok(out)
}
