//! Acceptance tests for overload protection and graceful degradation:
//! typed memory-budget failures, cost-aware shedding, the per-plan
//! circuit breaker, cancellation of queued queries, and drain.
//!
//! The `overload` CI job runs this suite with `MURA_OVERLOAD_MAX_BYTES`
//! set to an artificially small per-query byte budget, driving the
//! stress test through the `MemoryExceeded` path as well.

use mura_core::{Database, MuraError, Relation};
use mura_dist::exec::{ExecConfig, FixpointPlan, ResourceLimits};
use mura_dist::QueryEngine;
use mura_serve::{OverloadReason, ServeConfig, ServeError, Server};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A directed cycle: its transitive closure has n² rows after n `P_gld`
/// driver iterations — slow, memory-hungry, and rich in preemption points.
fn cycle_db(n: u64) -> Database {
    let mut db = Database::new();
    let src = db.intern("src");
    let dst = db.intern("dst");
    db.insert_relation("e", Relation::from_pairs(src, dst, (0..n).map(|i| (i, (i + 1) % n))));
    db
}

fn slow_engine(n: u64) -> QueryEngine {
    let config = ExecConfig { plan: FixpointPlan::ForceGld, ..Default::default() };
    QueryEngine::with_config(cycle_db(n), config)
}

const TC: &str = "?x, ?y <- ?x e+ ?y";

fn tight_limits(max_bytes: u64) -> ResourceLimits {
    ResourceLimits { max_rows: None, max_bytes: Some(max_bytes), timeout: None }
}

#[test]
fn memory_exceeded_surfaces_typed_through_server() {
    let server = Server::start(
        slow_engine(200),
        ServeConfig { limits: tight_limits(32 << 10), breaker_threshold: 0, ..Default::default() },
    );
    let err = server.client().query(TC).unwrap_err();
    match err {
        ServeError::Engine(MuraError::MemoryExceeded { used, limit }) => {
            assert_eq!(limit, 32 << 10);
            assert!(used > limit, "reported usage {used} must exceed the limit {limit}");
        }
        other => panic!("expected Engine(MemoryExceeded), got {other}"),
    }
    let stats = server.stats();
    assert_eq!(stats.failed, 1);
    assert!(stats.mem_high_water_bytes > 0, "the gauge must have seen the allocations");
    server.shutdown();
}

#[test]
fn breaker_opens_after_repeated_memory_exceeded() {
    let server = Server::start(
        slow_engine(200),
        ServeConfig {
            limits: tight_limits(32 << 10),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(3600), // stays open for the test
            ..Default::default()
        },
    );
    let client = server.client();
    for i in 0..2 {
        let err = client.query(TC).unwrap_err();
        assert!(
            matches!(err, ServeError::Engine(MuraError::MemoryExceeded { .. })),
            "failure {i} must execute and fail typed, got {err}"
        );
    }
    // Third attempt: the breaker is open, the query is shed unexecuted.
    let err = client.query(TC).unwrap_err();
    assert!(err.is_overloaded(), "expected Overloaded after breaker opened, got {err}");
    assert!(
        matches!(err, ServeError::Overloaded { reason: OverloadReason::CircuitOpen, .. }),
        "{err}"
    );
    assert!(err.retry_after_ms().unwrap() > 0, "an open breaker must hint a retry");
    let stats = server.stats();
    assert_eq!(stats.breaker_opened, 1, "{stats:?}");
    assert_eq!(stats.breaker_open, 1, "{stats:?}");
    assert!(stats.shed >= 1, "{stats:?}");
    server.shutdown();
}

#[test]
fn breaker_half_opens_after_cooldown_and_reopens_on_probe_failure() {
    let server = Server::start(
        slow_engine(200),
        ServeConfig {
            limits: tight_limits(32 << 10),
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(50),
            ..Default::default()
        },
    );
    let client = server.client();
    let err = client.query(TC).unwrap_err();
    assert!(matches!(err, ServeError::Engine(MuraError::MemoryExceeded { .. })), "{err}");
    assert_eq!(server.stats().breaker_opened, 1);

    std::thread::sleep(Duration::from_millis(100));
    // Cooldown elapsed: the next call is admitted as a half-open probe —
    // it executes (typed engine failure, not a shed) and re-opens.
    let err = client.query(TC).unwrap_err();
    assert!(
        matches!(err, ServeError::Engine(MuraError::MemoryExceeded { .. })),
        "the half-open probe must reach the engine, got {err}"
    );
    let stats = server.stats();
    assert_eq!(stats.breaker_opened, 2, "probe failure must re-open: {stats:?}");
    assert_eq!(stats.breaker_open, 1, "{stats:?}");
    server.shutdown();
}

#[test]
fn watermark_sheds_with_memory_reason_and_retry_after() {
    // Watermark 0: any nonzero cost estimate (known once the worker has
    // the plan) sheds the execution deterministically.
    let server = Server::start(
        slow_engine(40),
        ServeConfig {
            memory_watermark_bytes: Some(0),
            retry_after: Duration::from_millis(25),
            breaker_threshold: 0,
            ..Default::default()
        },
    );
    let err = server.client().query(TC).unwrap_err();
    assert!(
        matches!(err, ServeError::Overloaded { reason: OverloadReason::Memory, .. }),
        "expected a memory shed, got {err}"
    );
    assert_eq!(err.retry_after_ms(), Some(25));
    let stats = server.stats();
    assert!(stats.shed >= 1);
    assert_eq!(stats.failed, 0, "a shed is not an execution failure: {stats:?}");
    server.shutdown();
}

/// Satellite regression: cancelling a query that is still *queued* must
/// resolve it to `Cancelled` and release its queue slot — a cancelled or
/// deadline-expired client can never wedge the worker pool.
#[test]
fn cancel_while_queued_resolves_cancelled_and_frees_the_slot() {
    let server = Server::start(
        slow_engine(1200),
        ServeConfig { workers: 1, queue_depth: 1, result_cache: 0, ..Default::default() },
    );
    let client = server.client();

    // Occupy the single worker, then the single queue slot.
    let running = client.submit(TC, None).unwrap();
    let queued = loop {
        match client.submit(TC, None) {
            Ok(p) => break p,
            Err(ServeError::Busy { .. }) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => panic!("unexpected error: {e}"),
        }
    };
    // The bounce carries a machine-parseable retry hint.
    let err = client.submit(TC, None).unwrap_err();
    assert!(err.is_busy(), "{err}");
    assert!(err.retry_after_ms().unwrap() > 0, "{err}");

    // Cancel the queued query first, then the running one; both must
    // resolve promptly (the worker checks the token before planning).
    queued.cancel();
    running.cancel();
    let start = Instant::now();
    assert!(queued.wait().unwrap_err().is_cancelled());
    assert!(running.wait().unwrap_err().is_cancelled());
    assert!(start.elapsed() < Duration::from_secs(5), "cancellation must not hang");

    // The slot is free again: a new submission is admitted.
    let next = loop {
        match client.submit(TC, None) {
            Ok(p) => break p,
            Err(ServeError::Busy { .. }) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => panic!("unexpected error: {e}"),
        }
    };
    next.cancel();
    assert!(next.wait().unwrap_err().is_cancelled());
    server.shutdown();
}

/// The acceptance stress test: N concurrent clients against a small
/// server, a drain mid-storm. Every submission must resolve to exactly
/// one outcome (zero lost responses), and every admitted query must
/// terminate as completed or failed.
#[test]
fn stress_overload_and_drain_lose_no_responses() {
    let max_bytes: Option<u64> =
        std::env::var("MURA_OVERLOAD_MAX_BYTES").ok().and_then(|s| s.parse().ok());
    let server = Server::start(
        slow_engine(160),
        ServeConfig {
            workers: 2,
            queue_depth: 2,
            result_cache: 0,
            limits: ResourceLimits { max_rows: None, max_bytes, timeout: None },
            // Above the ~30 KB cost estimate for TC on this graph, so an
            // idle server admits and executes (charging the gauge), while
            // any in-flight execution pushes the gauge past the watermark
            // and sheds concurrent submissions.
            memory_watermark_bytes: Some(48 << 10),
            breaker_threshold: 0, // isolate shed accounting
            retry_after: Duration::from_millis(10),
            drain_grace: Duration::from_millis(300),
            ..Default::default()
        },
    );

    const THREADS: u64 = 6;
    const PER_THREAD: u64 = 8;
    #[derive(Default)]
    struct Outcomes {
        ok: AtomicU64,
        engine_err: AtomicU64,
        busy: AtomicU64,
        overloaded: AtomicU64,
        closed_submit: AtomicU64,
        /// `wait()` returned `Closed`: the job was admitted but dropped
        /// unprocessed because its slot landed behind the drain pills.
        closed_wait: AtomicU64,
    }
    let outcomes = Arc::new(Outcomes::default());

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let client = server.client();
            let outcomes = Arc::clone(&outcomes);
            std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    match client.submit(TC, None) {
                        Ok(pending) => match pending.wait() {
                            Ok(_) => outcomes.ok.fetch_add(1, Ordering::Relaxed),
                            Err(ServeError::Closed) => {
                                outcomes.closed_wait.fetch_add(1, Ordering::Relaxed)
                            }
                            Err(ServeError::Overloaded { .. }) => {
                                outcomes.overloaded.fetch_add(1, Ordering::Relaxed)
                            }
                            Err(_) => outcomes.engine_err.fetch_add(1, Ordering::Relaxed),
                        },
                        Err(ServeError::Busy { .. }) => {
                            outcomes.busy.fetch_add(1, Ordering::Relaxed)
                        }
                        Err(ServeError::Overloaded { .. }) => {
                            outcomes.overloaded.fetch_add(1, Ordering::Relaxed)
                        }
                        Err(ServeError::Closed) => {
                            outcomes.closed_submit.fetch_add(1, Ordering::Relaxed)
                        }
                        Err(e) => panic!("unexpected submit error: {e}"),
                    };
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(120));
    // Keep a handle so counters can be read again after every client has
    // resolved: the snapshot `drain` returns can race with submissions
    // still in flight on the client threads.
    let probe = server.client();
    let drain_stats = server.drain();
    assert_eq!(drain_stats.drain_phase, 2, "{drain_stats:?}");
    for h in handles {
        h.join().unwrap();
    }
    let stats = probe.stats();

    let o = &outcomes;
    let total = o.ok.load(Ordering::Relaxed)
        + o.engine_err.load(Ordering::Relaxed)
        + o.busy.load(Ordering::Relaxed)
        + o.overloaded.load(Ordering::Relaxed)
        + o.closed_submit.load(Ordering::Relaxed)
        + o.closed_wait.load(Ordering::Relaxed);
    assert_eq!(total, THREADS * PER_THREAD, "every submission resolves exactly once");

    // Every admitted query terminated in exactly one of answer, typed
    // error, or worker-side shed; jobs dropped behind the drain pills
    // resolved as Closed.
    assert_eq!(
        stats.completed
            + stats.failed
            + stats.shed_admitted
            + o.closed_wait.load(Ordering::Relaxed),
        stats.submitted,
        "admitted queries must all terminate: {stats:?}"
    );
    assert!(
        stats.shed + stats.rejected > 0,
        "a 2-worker/2-slot server under {THREADS} clients must shed or bounce: {stats:?}"
    );
    assert!(stats.mem_high_water_bytes > 0, "{stats:?}");
}

#[test]
fn metrics_expose_overload_families() {
    let server = Server::start(slow_engine(8), ServeConfig::default());
    server.client().query(TC).unwrap();
    let page = server.metrics();
    for family in [
        "mura_shed_total",
        "mura_breaker_state",
        "mura_breaker_opened_total",
        "mura_mem_current_bytes",
        "mura_mem_high_water_bytes",
        "mura_drain_phase",
    ] {
        assert!(page.contains(&format!("# TYPE {family} ")), "missing family {family}:\n{page}");
    }
    assert!(page.contains("mura_breaker_state{state=\"open\"} 0"), "{page}");
    server.shutdown();
}

#[test]
fn drain_via_protocol_reports_counters_and_closes() {
    use std::io::{BufReader, Write};
    let server = Server::start(slow_engine(8), ServeConfig::default());
    let handle = mura_serve::serve_tcp(&server, "127.0.0.1:0").unwrap();
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let write = |line: &str| {
        let mut s = stream.try_clone().unwrap();
        s.write_all(format!("{line}\n").as_bytes()).unwrap();
    };

    write(TC);
    let (status, _) = mura_serve::read_response(&mut reader).unwrap();
    assert!(status.starts_with("OK "), "{status}");

    write(".drain");
    let (status, body) = mura_serve::read_response(&mut reader).unwrap();
    assert_eq!(status, "OK drained");
    let drain_phase = body.iter().find_map(|l| l.strip_prefix("drain_phase "));
    assert_eq!(drain_phase.map(str::trim), Some("2"), "drained: {body:?}");

    // Post-drain queries are refused, with the reply still delivered.
    write(TC);
    let (status, _) = mura_serve::read_response(&mut reader).unwrap();
    assert!(status.starts_with("ERR server closed"), "{status}");

    write(".quit");
    let _ = mura_serve::read_response(&mut reader).unwrap();
    handle.stop();
    server.shutdown();
}
