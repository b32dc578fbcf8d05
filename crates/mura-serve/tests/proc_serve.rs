//! Serving over the real multi-process cluster: exact answers with
//! measured wire bytes, zero lost responses through a concurrent drain,
//! and protocol framing hardened against garbage on the port.

mod common;

use common::ensure_worker_bin;
use mura_core::{Database, Value};
use mura_datagen::{erdos_renyi, with_random_labels, SplitMix64};
use mura_dist::QueryEngine;
use mura_obs::prometheus::sample;
use mura_serve::{ClusterMode, ServeConfig, ServeError, Server};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A labelled random graph with a bound constant, as in the engine tests.
fn test_db() -> Database {
    let mut rng = SplitMix64::seed_from_u64(17);
    let g = erdos_renyi(80, 0.03, 7);
    let lg = with_random_labels(&g, 2, &mut rng);
    let mut db = lg.to_database();
    db.bind_constant("C", Value::node(5));
    db
}

const QUERIES: [&str; 4] = [
    "?x, ?y <- ?x a1+ ?y",
    "?x <- ?x a1+ C",
    "?x, ?y <- ?x a1+/a2+ ?y",
    "?x, ?y <- ?x (a1|a2)+ ?y",
];

fn proc_server(workers: usize, config: ServeConfig) -> Server {
    let config = ServeConfig {
        cluster: ClusterMode::Processes { workers },
        worker_bin: Some(ensure_worker_bin()),
        ..config
    };
    Server::try_start(QueryEngine::new(test_db()), config).expect("spawn process cluster")
}

#[test]
fn proc_backend_answers_match_in_process_with_real_wire_bytes() {
    let mut reference = QueryEngine::new(test_db());
    let expected: Vec<_> =
        QUERIES.iter().map(|q| reference.run_ucrpq(q).unwrap().relation.sorted_rows()).collect();

    let server = proc_server(3, ServeConfig::default());
    let client = server.client();
    for (q, want) in QUERIES.iter().zip(&expected) {
        let out = client.query(q).unwrap();
        assert_eq!(&out.relation.sorted_rows(), want, "{q}");
    }

    let health = server.cluster_health().expect("process mode has health");
    assert_eq!(health.workers, 3);
    assert_eq!(health.live, 3, "{health:?}");

    // Payloads crossed real sockets, and the page says what the fleet is.
    let page = server.metrics();
    let read = |series: &str| sample(&page, series).unwrap_or_else(|| panic!("{series}:\n{page}"));
    assert!(read("mura_wire_bytes_total{dir=\"tx\"}") > 0.0, "{page}");
    assert!(read("mura_wire_bytes_total{dir=\"rx\"}") > 0.0, "{page}");
    assert!(read("mura_wire_exchange_bytes_total") > 0.0, "{page}");
    assert_eq!(read("mura_cluster_workers"), 3.0);
    assert_eq!(read("mura_cluster_workers_live"), 3.0);
    server.shutdown();
}

#[test]
fn concurrent_drain_over_proc_backend_loses_no_responses() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 6;

    let server = proc_server(
        2,
        ServeConfig {
            workers: 2,
            queue_depth: 4,
            result_cache: 0, // every query executes against the fleet
            drain_grace: Duration::from_secs(2),
            ..Default::default()
        },
    );

    #[derive(Default)]
    struct Outcomes {
        ok: AtomicU64,
        engine_err: AtomicU64,
        busy: AtomicU64,
        overloaded: AtomicU64,
        closed: AtomicU64,
    }
    let outcomes = Arc::new(Outcomes::default());

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let client = server.client();
            let outcomes = Arc::clone(&outcomes);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let q = QUERIES[(t + i) % QUERIES.len()];
                    match client.query(q) {
                        Ok(out) => {
                            assert!(!out.relation.is_empty(), "{q}");
                            outcomes.ok.fetch_add(1, Ordering::Relaxed)
                        }
                        Err(ServeError::Busy { .. }) => {
                            outcomes.busy.fetch_add(1, Ordering::Relaxed)
                        }
                        Err(ServeError::Overloaded { .. }) => {
                            outcomes.overloaded.fetch_add(1, Ordering::Relaxed)
                        }
                        Err(ServeError::Closed) => outcomes.closed.fetch_add(1, Ordering::Relaxed),
                        Err(ServeError::Engine(_)) => {
                            outcomes.engine_err.fetch_add(1, Ordering::Relaxed)
                        }
                        Err(ServeError::Durability(e)) => panic!("durability off: {e}"),
                    };
                }
            })
        })
        .collect();

    // Drain mid-storm: in-flight fleet exchanges must finish (or cancel
    // cleanly), and every submission must still resolve exactly once.
    std::thread::sleep(Duration::from_millis(30));
    let probe = server.client();
    let drain_stats = server.drain();
    assert_eq!(drain_stats.drain_phase, 2, "{drain_stats:?}");
    for h in handles {
        h.join().unwrap();
    }

    let o = &outcomes;
    let total = o.ok.load(Ordering::Relaxed)
        + o.engine_err.load(Ordering::Relaxed)
        + o.busy.load(Ordering::Relaxed)
        + o.overloaded.load(Ordering::Relaxed)
        + o.closed.load(Ordering::Relaxed);
    assert_eq!(total as usize, THREADS * PER_THREAD, "every submission resolves exactly once");
    assert!(o.ok.load(Ordering::Relaxed) > 0, "some queries must complete over the fleet");

    let stats = probe.stats();
    assert_eq!(
        stats.completed + stats.failed + stats.shed_admitted,
        stats.submitted,
        "admitted queries must all terminate: {stats:?}"
    );
}

#[test]
fn garbage_bytes_on_the_port_answer_typed_errors_and_spare_the_server() {
    use std::io::{BufReader, Read, Write};

    let server = Server::start(QueryEngine::new(test_db()), ServeConfig::default());
    let handle = mura_serve::serve_tcp(&server, "127.0.0.1:0").unwrap();

    // Binary garbage: one typed ERR reply, then the connection closes.
    {
        let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
        s.write_all(&[0xff, 0xfe, 0x80, 0x00, b'\n']).unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        let (status, _) = mura_serve::read_response(&mut reader).unwrap();
        assert!(status.starts_with("ERR"), "{status}");
        assert!(status.contains("UTF-8"), "{status}");
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection must close after a framing violation");
    }

    // An unterminated oversized line: rejected at the cap, not buffered.
    {
        let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
        let blast = vec![b'x'; mura_serve::MAX_LINE + 1024];
        s.write_all(&blast).unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        let (status, _) = mura_serve::read_response(&mut reader).unwrap();
        assert!(status.starts_with("ERR"), "{status}");
        assert!(status.contains("exceeds"), "{status}");
    }

    // The server survives both: a fresh connection still answers queries.
    {
        let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
        s.write_all(b"?x, ?y <- ?x a1+ ?y\n").unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        let (status, rows) = mura_serve::read_response(&mut reader).unwrap();
        assert!(status.starts_with("OK"), "{status}");
        assert!(!rows.is_empty());
    }

    handle.stop();
    server.shutdown();
}
