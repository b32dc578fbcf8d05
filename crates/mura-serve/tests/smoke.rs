//! Acceptance tests for the serving layer: concurrency, admission
//! control, caching, cancellation and deadlines.

use mura_core::{Database, Relation, Value};
use mura_datagen::{erdos_renyi, with_random_labels, SplitMix64};
use mura_dist::exec::{ExecConfig, FixpointPlan};
use mura_dist::QueryEngine;
use mura_serve::{protocol, serve_tcp, ServeConfig, ServeError, Server};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A labelled random graph with a bound constant, as in the engine tests.
fn test_db() -> Database {
    let mut rng = SplitMix64::seed_from_u64(17);
    let g = erdos_renyi(150, 0.02, 7);
    let lg = with_random_labels(&g, 2, &mut rng);
    let mut db = lg.to_database();
    db.bind_constant("C", Value::node(5));
    db
}

/// A database whose transitive closure is expensive: a single directed
/// cycle of `n` nodes has an n²-row closure reached after n driver
/// iterations under `P_gld` — slow, and rich in preemption points.
fn cycle_db(n: u64) -> Database {
    let mut db = Database::new();
    let src = db.intern("src");
    let dst = db.intern("dst");
    let edges = (0..n).map(|i| (i, (i + 1) % n));
    db.insert_relation("e", Relation::from_pairs(src, dst, edges));
    db
}

fn slow_engine(n: u64) -> QueryEngine {
    let config = ExecConfig { plan: FixpointPlan::ForceGld, ..Default::default() };
    QueryEngine::with_config(cycle_db(n), config)
}

const SLOW_TC: &str = "?x, ?y <- ?x e+ ?y";

const MIXED_QUERIES: [&str; 10] = [
    "?x, ?y <- ?x a1+ ?y",
    "?x <- ?x a1+ C",
    "?y <- C a1+ ?y",
    "?x, ?y <- ?x a1+/a2+ ?y",
    "?x, ?y <- ?x a2/a1+ ?y",
    "?x, ?y <- ?x a2+ ?y",
    "?y <- C a2+ ?y",
    "?x, ?y <- ?x a1/a2 ?y",
    "?x, ?y <- ?x (a1|a2)+ ?y",
    "?x <- ?x (a1/-a1)+ C",
];

#[test]
fn concurrent_clients_match_direct_runs() {
    let mut db = test_db();
    // A row's columns are in symbol order: whichever client plans first
    // must not decide whether `?x` comes before `?y`.
    db.intern("?x");
    db.intern("?y");

    // Each client also asks what reaches, and what is reached from, a node
    // of its own: texts that differ in the constant only, one plan template
    // bound eight ways while the clients race to file it.
    let own = |t: usize| [format!("?x <- ?x a1+ {}", 20 + t), format!("?y <- {} a2+ ?y", 20 + t)];
    let texts: Vec<String> =
        MIXED_QUERIES.iter().map(|q| q.to_string()).chain((0..8).flat_map(own)).collect();

    // Reference answers straight from a private engine.
    let mut reference = QueryEngine::new(db.clone());
    let expected: Vec<_> =
        texts.iter().map(|q| reference.run_ucrpq(q).unwrap().relation.sorted_rows()).collect();
    let (texts, expected) = (Arc::new(texts), Arc::new(expected));

    let server = Server::start(
        QueryEngine::new(db),
        ServeConfig { workers: 4, queue_depth: 128, ..Default::default() },
    );

    let handles: Vec<_> = (0..8)
        .map(|t| {
            let client = server.client();
            let (texts, expected) = (Arc::clone(&texts), Arc::clone(&expected));
            std::thread::spawn(move || {
                // Rotate per thread so planning collisions interleave.
                let mixed = (0..MIXED_QUERIES.len()).map(|i| (t + i) % MIXED_QUERIES.len());
                let own = MIXED_QUERIES.len() + 2 * t;
                for q in mixed.chain([own, own + 1]) {
                    let out = client.query(&texts[q]).unwrap();
                    assert_eq!(
                        out.relation.sorted_rows(),
                        expected[q],
                        "thread {t} query {:?} diverged",
                        texts[q]
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = server.stats();
    assert_eq!(stats.completed, 96);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.plan_hits + stats.plan_misses, 96, "{stats:?}");
    // Whatever the race left behind, the shape has its template: a new node
    // may find it costed under observations that have since moved and
    // search once more — for `C`, whose binding it keeps — and the node
    // after that binds.
    let client = server.client();
    client.query("?x <- ?x a1+ 40").unwrap();
    let before = server.stats();
    let out = client.query("?x <- ?x a1+ 41").unwrap();
    let after = server.stats();
    let expected = reference.run_ucrpq("?x <- ?x a1+ 41").unwrap().relation.sorted_rows();
    assert_eq!(out.relation.sorted_rows(), expected);
    assert_eq!(
        (after.plan_template_hits, after.plan_misses),
        (before.plan_template_hits + 1, before.plan_misses)
    );
    // 8 threads × 10 queries over 10 distinct plans: repeats must hit.
    assert!(stats.result_hits > 0, "no cache hits across repeats: {stats:?}");
    assert!(stats.hit_rate() > 0.0);
    server.shutdown();
}

#[test]
fn server_busy_at_queue_bound_one() {
    let server = Server::start(
        slow_engine(1200),
        ServeConfig { workers: 1, queue_depth: 1, result_cache: 0, ..Default::default() },
    );
    let client = server.client();

    // Occupy the single worker with a slow closure.
    let running = client.submit(SLOW_TC, None).unwrap();
    // Fill the one queue slot. The worker may not have dequeued the first
    // job yet, so retry briefly until the slot frees.
    let queued = loop {
        match client.submit(SLOW_TC, None) {
            Ok(p) => break p,
            Err(ServeError::Busy { .. }) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => panic!("unexpected error: {e}"),
        }
    };
    // Worker busy + queue full: the next submission must bounce.
    let err = client.submit(SLOW_TC, None).unwrap_err();
    assert!(err.is_busy(), "expected Busy, got {err}");
    assert!(server.stats().rejected >= 1);

    // Cancel both in-flight queries so shutdown is quick.
    running.cancel();
    queued.cancel();
    assert!(running.wait().unwrap_err().is_cancelled());
    assert!(queued.wait().unwrap_err().is_cancelled());
    server.shutdown();
}

#[test]
fn deadline_exceeded_promptly_on_slow_query() {
    let server = Server::start(slow_engine(1200), ServeConfig { workers: 1, ..Default::default() });
    let client = server.client();
    let start = Instant::now();
    let err = client.query_with_deadline(SLOW_TC, Duration::from_millis(50)).unwrap_err();
    let elapsed = start.elapsed();
    assert!(err.is_deadline(), "expected DeadlineExceeded, got {err}");
    // "Promptly": within a couple of supersteps of the 50 ms budget, far
    // below the seconds the full closure would take.
    assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}");
    assert_eq!(server.stats().failed, 1);
    server.shutdown();
}

#[test]
fn cancellation_stops_running_query() {
    let server = Server::start(slow_engine(1200), ServeConfig::default());
    let client = server.client();
    let pending = client.submit(SLOW_TC, None).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    pending.cancel();
    let start = Instant::now();
    let err = pending.wait().unwrap_err();
    assert!(err.is_cancelled(), "expected Cancelled, got {err}");
    assert!(start.elapsed() < Duration::from_secs(2));
    server.shutdown();
}

#[test]
fn epoch_bump_invalidates_caches() {
    let server = Server::start(QueryEngine::new(test_db()), ServeConfig::default());
    let client = server.client();
    let q = "?x, ?y <- ?x a1+ ?y";

    let first = client.query(q).unwrap();
    // Adaptive warmup: early runs record observed fixpoint cardinalities
    // and may replan (possibly onto a differently-keyed equivalent plan)
    // until the chosen plan and its observations agree.
    for _ in 0..4 {
        client.query(q).unwrap();
    }
    let warm = server.stats();
    // Converged: one more run hits both caches and observes nothing new.
    client.query(q).unwrap();
    let converged = server.stats();
    assert_eq!(converged.plan_hits, warm.plan_hits + 1, "warm run must hit the plan cache");
    assert_eq!(converged.result_hits, warm.result_hits + 1, "warm run must hit the result cache");
    assert_eq!(converged.plan_misses, warm.plan_misses);

    // Mutating the database must invalidate both caches.
    server.load(|db| {
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation("a1_extra", Relation::from_pairs(src, dst, [(900, 901)]));
    });
    assert_eq!(server.epoch(), 1);
    client.query(q).unwrap();
    let after = server.stats();
    assert_eq!(
        after.result_hits, converged.result_hits,
        "post-load run must miss the result cache"
    );
    assert_eq!(after.result_misses, converged.result_misses + 1);
    assert_eq!(after.plan_misses, converged.plan_misses + 1);

    // Same relation contents -> same answers, now cached under epoch 1.
    let again = client.query(q).unwrap();
    assert_eq!(again.relation.sorted_rows(), first.relation.sorted_rows());
    server.shutdown();
}

#[test]
fn tcp_protocol_round_trip() {
    let server = Server::start(QueryEngine::new(test_db()), ServeConfig::default());
    let handle = serve_tcp(&server, "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let mut reference = QueryEngine::new(test_db());
    let expected = reference.run_ucrpq("?x, ?y <- ?x a1+ ?y").unwrap().relation.len();

    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let write = |line: &str| {
        let mut s = stream.try_clone().unwrap();
        s.write_all(format!("{line}\n").as_bytes()).unwrap();
    };

    write("?x, ?y <- ?x a1+ ?y");
    let (status, rows) = protocol::read_response(&mut reader).unwrap();
    assert!(status.starts_with(&format!("OK {expected} rows")), "{status}");
    assert_eq!(rows.len(), expected);

    write(".deadline 5000");
    let (status, _) = protocol::read_response(&mut reader).unwrap();
    assert_eq!(status, "OK deadline 5000 ms");

    write(".rels");
    let (status, body) = protocol::read_response(&mut reader).unwrap();
    assert_eq!(status, "OK rels");
    assert!(body.iter().any(|l| l.starts_with("a1 ")), "{body:?}");

    write(".stats");
    let (status, body) = protocol::read_response(&mut reader).unwrap();
    assert_eq!(status, "OK stats");
    assert!(body.iter().any(|l| l.starts_with("queries_total ")), "{body:?}");

    write("?x <- ?x nosuchlabel+ C");
    let (status, _) = protocol::read_response(&mut reader).unwrap();
    assert!(status.starts_with("ERR "), "{status}");

    write(".bogus");
    let (status, _) = protocol::read_response(&mut reader).unwrap();
    assert!(status.starts_with("ERR unknown command"), "{status}");

    write(".quit");
    let (status, _) = protocol::read_response(&mut reader).unwrap();
    assert_eq!(status, "OK bye");

    handle.stop();
    server.shutdown();
}

/// Every verb of the table answers under its own name and under no other:
/// the line is split at its first whitespace and matched exactly, so
/// `.explainx q` is unknown rather than an `.explain` of `x q`.
#[test]
fn verbs_match_by_name_not_by_prefix() {
    let server = Server::start(QueryEngine::new(cycle_db(4)), ServeConfig::default());
    let handle = serve_tcp(&server, "127.0.0.1:0").unwrap();
    let connect = || {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    };
    let (mut reader, mut stream) = connect();
    let mut send = |line: String| {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        protocol::read_response(&mut reader).unwrap().0
    };
    for verb in protocol::VERBS {
        let (name, arg) = (
            verb.name,
            match verb.arg {
                "" => "",
                "<query>" => SLOW_TC,
                "<millis>" => "250",
                _ => "e 7 8", // a row; deleting what is not there is a no-op
            },
        );
        let status = send(format!("{name}x {arg}"));
        assert!(status.starts_with("ERR unknown command"), "{name}x: {status}");
        // An argument too many or too few is a usage error, not a guess.
        let status = send(if arg.is_empty() { format!("{name} x") } else { name.into() });
        assert!(status.starts_with(&format!("ERR usage: {name}")), "{status}");
        // The verbs that end the server or the session are tried last.
        if ![".drain", ".quit", ".exit"].contains(&name) {
            let status = send(format!("{name} {arg}"));
            assert!(status.starts_with("OK "), "{name}: {status}");
        }
    }
    assert!(send(".drain".into()).starts_with("OK drained"));
    assert_eq!(send(".quit".into()), "OK bye");
    let (mut reader, mut stream) = connect();
    stream.write_all(b".exit\n").unwrap();
    assert_eq!(protocol::read_response(&mut reader).unwrap().0, "OK bye");
    handle.stop();
    server.shutdown();
}
