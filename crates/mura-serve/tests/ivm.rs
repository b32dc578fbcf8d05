//! Acceptance tests for incremental view maintenance: random mutation
//! sequences over random graphs must keep views — brought forward by the
//! read that wants them, over however many batches they missed —
//! bit-identical to a from-scratch recompute, on every fixpoint plan ×
//! both local engines, with and without injected faults — and the mutation
//! path must respect the serving resource ladder (memory gate, typed
//! errors, zero lost responses across a drain). Recovery of maintained
//! views, against centralized evaluation, is the oracle's `served` route at
//! the workspace root.

use mura_core::{canon_key, term_key, Database, Relation, Term, Value};
use mura_datagen::{erdos_renyi, SplitMix64};
use mura_dist::exec::{ExecConfig, FixpointPlan};
use mura_dist::{FaultConfig, LocalEngine, QueryEngine};
use mura_serve::{DeltaBatch, OverloadReason, ServeConfig, ServeError, ServeStats, Server};
use mura_ucrpq::{parse_ucrpq, to_mura};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const TC: &str = "?x, ?y <- ?x edge+ ?y";
const NODES: u64 = 48;

fn db_from_edges(edges: &[(u64, u64)]) -> Database {
    let mut db = Database::new();
    let src = db.intern("src");
    let dst = db.intern("dst");
    db.insert_relation("edge", Relation::from_pairs(src, dst, edges.iter().copied()));
    db
}

fn row(a: u64, b: u64) -> Box<[Value]> {
    vec![Value::node(a), Value::node(b)].into_boxed_slice()
}

fn batch_of(db: &Database, ins: &[(u64, u64)], del: &[(u64, u64)]) -> DeltaBatch {
    let rel = db.dict().lookup("edge").expect("edge relation");
    let mut b = DeltaBatch::new();
    for &(x, y) in ins {
        b.push_insert(db, rel, row(x, y)).unwrap();
    }
    for &(x, y) in del {
        b.push_delete(db, rel, row(x, y)).unwrap();
    }
    b
}

/// `R ← (R \ delete) ∪ insert` on the server and on the mirrored edge list.
fn mutate(server: &Server, edges: &mut Vec<(u64, u64)>, ins: &[(u64, u64)], del: &[(u64, u64)]) {
    let batch = server.with_db(|db| batch_of(db, ins, del));
    server.apply_delta(batch).expect("apply_delta");
    edges.retain(|e| !del.contains(e));
    edges.extend(ins.iter().copied());
    edges.sort_unstable();
    edges.dedup();
}

/// What became of the view at one read, as the counters moved: brought
/// forward by a resumed run, revalidated untouched, or dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fate {
    maintained: u64,
    unaffected: u64,
    fallbacks: u64,
}

impl Fate {
    fn between(before: &ServeStats, after: &ServeStats) -> Fate {
        Fate {
            maintained: after.ivm_maintained - before.ivm_maintained,
            unaffected: after.ivm_unaffected - before.ivm_unaffected,
            fallbacks: after.ivm_fallbacks - before.ivm_fallbacks,
        }
    }
}

/// What happens between two reads of the view.
enum Lag {
    /// That many random insert/delete batches.
    Batches(u64),
    /// A batch and the batch that takes it back.
    Cancel,
    /// A batch, then a same-shape load of the relation as it stands.
    Load,
}

/// [`check_text`] for the transitive closure.
fn check_plan(plan: FixpointPlan, local: LocalEngine, seed: u64, chaos: bool) -> Vec<Fate> {
    check_text(TC, plan, local, seed, chaos)
}

/// Warms a view of `text`, then lets it fall behind by one, two and seven
/// random insert/delete batches (one of the seven delete-heavy, forcing
/// DRed), by a pair of batches that cancel, by a load, and by one more
/// batch — reading it after each and checking that the served answer is
/// bit-identical to a fresh engine over the mirrored edge set and to
/// centralized evaluation of the unoptimized term. Returns the fate of the
/// view at each read so callers can assert determinism.
fn check_text(
    text: &str,
    plan: FixpointPlan,
    local: LocalEngine,
    seed: u64,
    chaos: bool,
) -> Vec<Fate> {
    let g = erdos_renyi(NODES, 0.05, seed);
    let mut edges: Vec<(u64, u64)> = g.edges.iter().map(|&(s, _, d)| (s, d)).collect();
    edges.sort_unstable();
    edges.dedup();

    let mut config = ExecConfig { plan, local_engine: local, ..Default::default() };
    if chaos {
        config.fault = FaultConfig::chaos(seed);
        config.checkpoint_every = 2;
    }
    let server = Server::start(
        QueryEngine::with_config(db_from_edges(&edges), config.clone()),
        ServeConfig::default(),
    );
    let client = server.client();
    client.query(text).expect("warm query");

    let mut rng = SplitMix64::seed_from_u64(seed.wrapping_mul(0x9e37_79b9) | 1);
    let mut fates = Vec::new();
    let mut batches = 0;
    let lags = [Lag::Batches(1), Lag::Batches(2), Lag::Batches(7), Lag::Cancel, Lag::Load];
    for (round, lag) in lags.iter().chain([&Lag::Batches(1)]).enumerate() {
        let random_batch = |rng: &mut SplitMix64, edges: &[(u64, u64)], (n_ins, n_del)| {
            let ins: Vec<(u64, u64)> =
                (0..n_ins).map(|_| (rng.gen_range(0..NODES), rng.gen_range(0..NODES))).collect();
            let del: Vec<(u64, u64)> =
                (0..n_del).filter_map(|_| rng.choose(edges).copied()).collect();
            (ins, del)
        };
        match lag {
            Lag::Batches(n) => {
                for i in 0..*n {
                    let mix = if i == 3 { (1, 6) } else { (4, 2) };
                    let (ins, del) = random_batch(&mut rng, &edges, mix);
                    mutate(&server, &mut edges, &ins, &del);
                }
                batches += n;
            }
            Lag::Cancel => {
                let absent = (0..NODES).map(|n| (n, NODES + 1)).find(|e| !edges.contains(e));
                let (ins, del) = (vec![absent.unwrap()], vec![edges[0]]);
                mutate(&server, &mut edges, &ins, &del);
                mutate(&server, &mut edges, &del, &ins);
                batches += 2;
            }
            Lag::Load => {
                let (ins, del) = random_batch(&mut rng, &edges, (4, 2));
                mutate(&server, &mut edges, &ins, &del);
                batches += 1;
                let reloaded = edges.clone();
                server.load(move |db| {
                    let (src, dst) = (db.intern("src"), db.intern("dst"));
                    db.insert_relation("edge", Relation::from_pairs(src, dst, reloaded));
                });
            }
        }

        let before = server.stats();
        let got = client.query(text).expect("query after delta");
        let after = server.stats();
        let fate = Fate::between(&before, &after);
        let context = format!(
            "round {round} (plan {plan:?}, engine {local:?}, seed {seed}, chaos {chaos}): {fate:?}"
        );
        let caught_up = fate.maintained + fate.unaffected;
        assert_eq!(caught_up + fate.fallbacks, 1, "the view was behind: {context}");
        assert_eq!(after.result_hits - before.result_hits, caught_up, "{context}");
        assert_eq!(after.result_misses - before.result_misses, fate.fallbacks, "{context}");
        match lag {
            // Served as it stands, nothing executed.
            Lag::Cancel => assert_eq!(fate.unaffected, 1, "{context}"),
            // No delta leads across a load.
            Lag::Load => assert_eq!(after.ivm_fallback_other - before.ivm_fallback_other, 1),
            Lag::Batches(_) => {}
        }
        let want = QueryEngine::with_config(db_from_edges(&edges), config.clone())
            .run_ucrpq(text)
            .expect("recompute");
        assert_eq!(
            got.relation.sorted_rows(),
            want.relation.sorted_rows(),
            "view diverged from recompute: {context}"
        );
        let mut mirror = db_from_edges(&edges);
        let raw = to_mura(&parse_ucrpq(text).expect("parse"), &mut mirror).expect("translate");
        let centralized = mura_core::eval(&raw, &mirror).expect("centralized evaluation");
        assert_eq!(got.relation.sorted_rows(), centralized.sorted_rows(), "{context}");
        fates.push(fate);
    }
    let stats = server.stats();
    assert_eq!(stats.deltas_applied, batches, "every batch must be applied");
    server.shutdown();
    fates
}

fn matrix_seed() -> u64 {
    std::env::var("MURA_IVM_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(11)
}

#[test]
fn maintained_views_match_recompute_gld() {
    let s = check_plan(FixpointPlan::ForceGld, LocalEngine::SetRdd, matrix_seed(), false);
    assert!(s.iter().any(|f| f.maintained >= 1), "no view was ever maintained: {s:?}");
}

#[test]
fn maintained_views_match_recompute_plw_setrdd() {
    let s = check_plan(FixpointPlan::ForcePlw, LocalEngine::SetRdd, matrix_seed(), false);
    assert!(s.iter().any(|f| f.maintained >= 1), "no view was ever maintained: {s:?}");
}

#[test]
fn maintained_views_match_recompute_plw_sorted() {
    let s = check_plan(FixpointPlan::ForcePlw, LocalEngine::Sorted, matrix_seed(), false);
    assert!(s.iter().any(|f| f.maintained >= 1), "no view was ever maintained: {s:?}");
}

#[test]
fn maintained_views_match_recompute_auto_sorted() {
    check_plan(FixpointPlan::Auto, LocalEngine::Sorted, matrix_seed().wrapping_add(1), false);
}

/// Two sibling fixpoints equal up to their binders — one modulo-generated
/// key, two plan keys — keep a total each: after every round of inserts and
/// deletes the maintained view equals the recomputed one and centralized
/// evaluation, on every fixpoint plan.
#[test]
fn sibling_fixpoints_equal_up_to_binders_keep_their_own_totals() {
    const FORK: &str = "?x, ?y, ?z <- ?x edge+ ?y, ?x edge+ ?z";
    fn fixpoints<'t>(t: &'t Term, out: &mut Vec<&'t Term>) {
        if matches!(t, Term::Fix(..)) {
            out.push(t);
        }
        t.children().into_iter().for_each(|c| fixpoints(c, out));
    }
    let edges: Vec<(u64, u64)> = (0..6).map(|i| (i, i + 1)).collect();
    let planned = QueryEngine::new(db_from_edges(&edges)).plan_ucrpq(FORK).expect("plan");
    let mut fixes = Vec::new();
    fixpoints(&planned.plan, &mut fixes);
    assert_eq!(fixes.len(), 2, "the plan forks into two closures");
    assert_eq!(canon_key(fixes[0], &[]), canon_key(fixes[1], &[]), "equal up to binders");
    assert_ne!(term_key(fixes[0]), term_key(fixes[1]), "and two fixpoints to the executor");

    for plan in [FixpointPlan::ForceGld, FixpointPlan::ForcePlw, FixpointPlan::Auto] {
        let s = check_text(FORK, plan, LocalEngine::SetRdd, matrix_seed(), false);
        assert!(s.iter().any(|f| f.maintained >= 1), "{plan:?}: never maintained: {s:?}");
    }
}

/// Under injected faults (panics, transient errors, drops, stragglers)
/// maintenance must still produce exact answers, and what becomes of the
/// view at each read must be deterministic for a fixed seed.
#[test]
fn chaos_maintenance_is_exact_and_deterministic() {
    let seed = matrix_seed();
    let a = check_plan(FixpointPlan::Auto, LocalEngine::SetRdd, seed, true);
    let b = check_plan(FixpointPlan::Auto, LocalEngine::SetRdd, seed, true);
    assert_eq!(a, b, "same seed must replay the same maintenance decisions");
}

/// A mutation that touches none of a view's relations leaves the entry
/// alone; the next read revalidates it as it stands: a hit, not a recompute.
#[test]
fn unrelated_mutation_revalidates_cached_views() {
    let mut db = db_from_edges(&[(0, 1), (1, 2), (2, 3)]);
    let src = db.intern("src");
    let dst = db.intern("dst");
    db.insert_relation("other", Relation::from_pairs(src, dst, [(7, 8)]));
    let server = Server::start(QueryEngine::new(db), ServeConfig::default());
    let client = server.client();

    let before = client.query(TC).expect("warm");
    let batch = server.with_db(|db| {
        let rel = db.dict().lookup("other").unwrap();
        let mut b = DeltaBatch::new();
        b.push_insert(db, rel, row(8, 9)).unwrap();
        b
    });
    let at_write = server.stats();
    let summary = server.apply_delta(batch).expect("apply");
    assert_eq!((summary.version, summary.inserted, summary.deleted), (1, 1, 0));
    let at_read = server.stats();
    assert_eq!(
        Fate::between(&at_write, &at_read),
        Fate { maintained: 0, unaffected: 0, fallbacks: 0 }
    );

    let after = client.query(TC).expect("post-delta query");
    let stats = server.stats();
    let fate = Fate::between(&at_read, &stats);
    assert_eq!(fate, Fate { maintained: 0, unaffected: 1, fallbacks: 0 }, "TC reads only 'edge'");
    assert_eq!(stats.result_hits, at_read.result_hits + 1, "revalidated entry must hit");
    assert!(Arc::ptr_eq(&before, &after), "the answer it had");
    server.shutdown();
}

fn chain(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|i| (i, i + 1)).collect()
}

/// A view brought forward over `k` coalesced batches equals the one
/// brought forward batch by batch, on batches that insert, delete, and take
/// back what an earlier one did.
#[test]
fn catching_up_over_many_batches_equals_batch_by_batch() {
    let servers: Vec<Server> = (0..2)
        .map(|_| Server::start(QueryEngine::new(db_from_edges(&chain(12))), ServeConfig::default()))
        .collect();
    let [eager, lazy] = &servers[..] else { unreachable!() };
    for server in &servers {
        server.client().query(TC).expect("warm");
    }
    type Edges = &'static [(u64, u64)];
    let steps: [(Edges, Edges); 7] = [
        (&[(12, 13)], &[]),
        (&[], &[(5, 6)]),
        (&[(5, 6), (20, 0)], &[(12, 13)]),
        (&[(3, 9)], &[(0, 1)]),
        (&[(0, 1)], &[]),
        (&[], &[(20, 0), (3, 9)]),
        (&[(12, 14)], &[(7, 8)]),
    ];
    for (ins, del) in steps {
        for server in &servers {
            server.apply_delta(server.with_db(|db| batch_of(db, ins, del))).expect("apply_delta");
        }
        eager.client().query(TC).expect("read after every batch");
    }
    let (before, want) = (lazy.stats(), eager.client().query(TC).expect("current"));
    let got = lazy.client().query(TC).expect("read after seven batches");
    assert_eq!(got.relation.sorted_rows(), want.relation.sorted_rows());
    let fate = Fate::between(&before, &lazy.stats());
    assert_eq!(fate, Fate { maintained: 1, unaffected: 0, fallbacks: 0 }, "one catch-up");
    assert_eq!(eager.stats().ivm_maintained, 7, "seven on the server read every time");
    servers.into_iter().for_each(Server::shutdown);
}

/// Two clients read one view that keeps falling behind while a third
/// mutates: every reply is the answer at *a* version (here: the closure of
/// a chain of some length the mutator has reached), nobody deadlocks, and
/// the view ends current.
#[test]
fn two_readers_bring_one_view_forward_while_a_third_client_mutates() {
    const START: u64 = 20;
    const STEPS: u64 = 60;
    let config = ServeConfig { workers: 3, ..Default::default() };
    let server = Server::start(QueryEngine::new(db_from_edges(&chain(START))), config);
    server.client().query(TC).expect("warm");

    let go = Arc::new(Barrier::new(3));
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (client, go, done) = (server.client(), Arc::clone(&go), Arc::clone(&done));
            std::thread::spawn(move || {
                go.wait();
                let mut lengths = Vec::new();
                while !done.load(Ordering::SeqCst) {
                    let out = client.query(TC).expect("read");
                    // The closure of the chain 0 → … → n is every (a, b)
                    // with a < b ≤ n.
                    let n = out.relation.iter().filter_map(|r| r[1].as_int()).max().expect("rows");
                    let n = n as u64;
                    let mut closure: Vec<_> =
                        (0..n).flat_map(|a| (a + 1..=n).map(move |b| row(a, b))).collect();
                    closure.sort_unstable();
                    assert_eq!(out.relation.sorted_rows(), closure, "the answer at length {n}");
                    lengths.push(n);
                }
                lengths
            })
        })
        .collect();
    go.wait();
    for n in START..START + STEPS {
        let batch = server.with_db(|db| batch_of(db, &[(n, n + 1)], &[]));
        assert_eq!(server.apply_delta(batch).expect("apply_delta").version, n - START + 1);
    }
    done.store(true, Ordering::SeqCst);
    for reader in readers {
        let lengths = reader.join().expect("reader");
        assert!(lengths.iter().all(|n| (START..=START + STEPS).contains(n)), "{lengths:?}");
        assert!(lengths.windows(2).all(|w| w[0] <= w[1]), "one client never reads backwards");
    }

    let out = server.client().query(TC).expect("read after the last mutation");
    assert_eq!(out.relation.len() as u64, (START + STEPS) * (START + STEPS + 1) / 2);
    let before = server.stats();
    server.client().query(TC).expect("read again");
    let after = server.stats();
    assert_eq!(after.result_hits, before.result_hits + 1, "the view ended current");
    assert_eq!(Fate::between(&before, &after), Fate { maintained: 0, unaffected: 0, fallbacks: 0 });
    assert_eq!(after.ivm_fallbacks, 0, "every catch-up found its bridge: {after:?}");
    server.shutdown();
}

/// A catch-up runs under the deadline of the read that asked for it: past
/// it the read fails typed, the half-forwarded view is gone, and the next
/// read of the same text is correct.
#[test]
fn a_catch_up_past_its_deadline_fails_typed_and_the_next_read_is_correct() {
    // `P_gld` shuffles at every superstep, and each batch below hangs a
    // fresh 150-edge chain off the old one: 150 more supersteps to resume.
    let config = ExecConfig { plan: FixpointPlan::ForceGld, ..Default::default() };
    let server = Server::start(
        QueryEngine::with_config(db_from_edges(&chain(150)), config),
        ServeConfig::default(),
    );
    let client = server.client();
    client.query(TC).expect("warm");
    let mut length = 150;
    let mut timed_out_catching_up = false;
    for _attempt in 0..5 {
        let longer: Vec<(u64, u64)> = (length..length + 150).map(|i| (i, i + 1)).collect();
        length += 150;
        server.apply_delta(server.with_db(|db| batch_of(db, &longer, &[]))).expect("apply_delta");
        let before = server.stats();
        let result = client.query_with_deadline(TC, Duration::from_millis(2));
        let after = server.stats();
        if let Err(e) = &result {
            assert!(e.is_deadline(), "typed: {e}");
        }
        // The deadline can also pass in the queue, before anything ran, or
        // (on a very fast machine) not at all; only a catch-up that was cut
        // short drops the view.
        timed_out_catching_up = after.ivm_fallback_other == before.ivm_fallback_other + 1;
        let out = client.query(TC).expect("next read");
        assert_eq!(out.relation.len() as u64, length * (length + 1) / 2, "closure of the chain");
        if timed_out_catching_up {
            assert!(result.is_err());
            assert_eq!(server.stats().result_misses, after.result_misses + 1, "recomputed");
            break;
        }
    }
    assert!(timed_out_catching_up, "no catch-up met its 2 ms deadline in five attempts");
    server.shutdown();
}

/// Mutations obey the same memory watermark as queries: with an absurdly
/// low watermark the batch is shed with a typed, retryable error.
#[test]
fn mutation_respects_memory_watermark() {
    let db = db_from_edges(&[(0, 1)]);
    let server = Server::start(
        QueryEngine::new(db),
        ServeConfig { memory_watermark_bytes: Some(1), ..Default::default() },
    );
    let batch = server.with_db(|db| batch_of(db, &[(5, 6)], &[]));
    match server.apply_delta(batch) {
        Err(ServeError::Overloaded { reason: OverloadReason::Memory, retry_after_ms }) => {
            assert!(retry_after_ms >= 1, "retry hint must be actionable");
        }
        other => panic!("expected a memory shed, got {other:?}"),
    }
    assert_eq!(server.stats().deltas_applied, 0);
    assert!(server.stats().shed >= 1, "the shed must be counted");
    server.shutdown();
}

/// A drain racing a mutation storm loses nothing: every query and every
/// delta resolves to an answer or a typed error, and once drained further
/// mutations are refused with `Closed`.
#[test]
fn drain_mid_mutation_loses_no_responses() {
    let edges: Vec<(u64, u64)> = (0..32).map(|i| (i, (i + 1) % 32)).collect();
    let server = Server::start(QueryEngine::new(db_from_edges(&edges)), ServeConfig::default());
    let client = server.client();
    client.query(TC).expect("warm");

    let stop = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let querier = {
        let client = client.clone();
        let (stop, answered) = (Arc::clone(&stop), Arc::clone(&answered));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match client.query(TC) {
                    Ok(_) | Err(_) => answered.fetch_add(1, Ordering::Relaxed), // typed either way
                };
            }
        })
    };

    let mut applied = 0u64;
    let mut changed = 0u64;
    let mut refused = 0u64;
    // Mutate until the drain — requested concurrently from mutation 60 on —
    // has been seen to refuse one: how many mutations fit before the
    // drainer thread is scheduled depends on the machine.
    let mut i = 0u64;
    while i < 200 || refused == 0 {
        if i == 60 {
            // The querier races the mutations, not the drain: on a busy
            // machine it may not have been scheduled yet.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while answered.load(Ordering::Relaxed) == 0 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            let drainer = client.clone();
            std::thread::spawn(move || drainer.request_drain());
        }
        let batch = server.with_db(|db| batch_of(db, &[(i % 32, (i * 7) % 32)], &[]));
        match server.apply_delta(batch) {
            // Re-inserting an existing edge normalizes to a no-op: it
            // resolves Ok but doesn't count as an applied delta.
            Ok(s) => {
                applied += 1;
                changed += u64::from(s.inserted + s.deleted > 0);
            }
            Err(ServeError::Closed) => refused += 1,
            Err(e) => panic!("mutation {i}: unexpected error {e}"),
        }
        i += 1;
    }
    stop.store(true, Ordering::Relaxed);
    querier.join().expect("querier thread");
    assert!(answered.load(Ordering::Relaxed) >= 1, "querier must have made progress");
    assert!(applied >= 1, "mutations before the drain must land");
    assert!(refused >= 1, "mutations after the drain must be refused, typed");

    let batch = server.with_db(|db| batch_of(db, &[(1, 3)], &[]));
    assert!(
        matches!(server.apply_delta(batch), Err(ServeError::Closed)),
        "a drained server refuses mutations"
    );
    let stats = server.stats();
    assert_eq!(stats.deltas_applied, changed, "no delta may be half-applied");
    server.drain();
}

/// The `.insert`/`.delete` protocol verbs: named and bare forms, one-line
/// replies carrying the new version, typed errors on bad input, and
/// answers that reflect the mutations.
#[test]
fn protocol_mutation_verbs() {
    use mura_serve::{protocol, serve_tcp};
    use std::io::{BufReader, Write};
    use std::net::TcpStream;

    let server =
        Server::start(QueryEngine::new(db_from_edges(&[(0, 1), (1, 2)])), ServeConfig::default());
    let handle = serve_tcp(&server, "127.0.0.1:0").expect("bind");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut send = |line: &str| -> (String, Vec<String>) {
        let mut s = stream.try_clone().expect("clone");
        s.write_all(format!("{line}\n").as_bytes()).expect("send");
        protocol::read_response(&mut reader).expect("response")
    };

    let (status, _) = send(TC);
    assert!(status.starts_with("OK 3 rows"), "closure of a 2-path: {status}");

    // Named form.
    let (status, _) = send(".insert edge 2 3");
    assert!(status.starts_with("OK v=1 +1 -0"), "insert reply: {status}");
    // Bare form: exactly one relation, so the name may be omitted.
    let (status, _) = send(".delete 0 1");
    assert!(status.starts_with("OK v=2 +0 -1"), "delete reply: {status}");

    // Arity and value errors are one-line, typed, and non-fatal.
    let (status, _) = send(".insert edge 1");
    assert!(status.starts_with("ERR "), "arity error: {status}");
    let (status, _) = send(".insert edge 1 bogus");
    assert!(status.starts_with("ERR "), "unknown constant: {status}");
    let (status, _) = send(".insert");
    assert!(status.starts_with("ERR "), "empty mutation: {status}");
    // A value is read as a query reads a constant: a bound name or an
    // `i64` of the value domain. An id past `i64::MAX`, or one of the top
    // 2^32 that symbols take, is refused and moves no version; a negative
    // one goes in, shows in a query and comes out again.
    let (status, _) = send(".insert edge 18446744073709551615 7");
    assert!(status.starts_with("ERR .insert: "), "wrapping id: {status}");
    let (status, _) = send(".insert edge 9223372036854775807 7");
    assert!(status.starts_with("ERR .insert: "), "id in the symbol range: {status}");
    let (status, _) = send(".insert edge -3 0");
    assert!(status.starts_with("OK v=3 +1 -0"), "negative id, version unmoved before: {status}");
    let (_, rows) = send("?x, ?y <- ?x edge ?y");
    assert!(rows.contains(&"(-3, 0)".to_string()), "negative id in a query: {rows:?}");
    let (status, _) = send(".delete edge -3 0");
    assert!(status.starts_with("OK v=4 +0 -1"), "deleted as inserted: {status}");

    // The served answer reflects (R \ {(0,1)}) ∪ {(2,3)}.
    let (status, rows) = send(TC);
    assert!(status.starts_with("OK "), "post-mutation query: {status}");
    assert!(rows.contains(&"(1, 3)".to_string()), "new closure pair: {rows:?}");
    assert!(!rows.iter().any(|r| r.starts_with("(0,")), "deleted source must vanish: {rows:?}");

    send(".quit");
    handle.stop();
    server.shutdown();
}

/// Same-schema loads keep warm plans; shape-changing loads reset them.
/// (The serve-layer unit tests cover breakers; this covers the caches
/// end-to-end.)
#[test]
fn load_invalidation_is_scoped() {
    let server =
        Server::start(QueryEngine::new(db_from_edges(&[(0, 1), (1, 2)])), ServeConfig::default());
    let client = server.client();
    client.query(TC).expect("warm");
    // The first execution records observed fixpoint cardinalities, bumping
    // the feedback generation — which deliberately invalidates the plan
    // cached before the observation existed. Warm once more so the cached
    // plan is tagged with the current generation and the cache is stable.
    client.query(TC).expect("rewarm under observed costs");
    let plan_misses = server.stats().plan_misses;

    // Data-only refresh: same shape — plans survive, results go stale.
    server.load(|db| {
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation("edge", Relation::from_pairs(src, dst, [(0, 1), (1, 2), (2, 3)]));
    });
    assert_eq!(server.epoch(), 0, "same shape keeps the epoch");
    let out = client.query(TC).expect("query after refresh");
    assert_eq!(out.relation.len(), 6, "closure of a 3-path");
    assert_eq!(server.stats().plan_misses, plan_misses, "plan cache must survive the refresh");

    // Shape change: new relation — epoch bumps, plans replanned.
    server.load(|db| {
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation("brand_new", Relation::from_pairs(src, dst, [(9, 9)]));
    });
    assert_eq!(server.epoch(), 1, "new relation changes the shape");
    client.query(TC).expect("query after shape change");
    assert_eq!(server.stats().plan_misses, plan_misses + 1, "shape change forces a replan");
    server.shutdown();
}
