//! `obs-smoke`: CI gate for the observability surface.
//!
//! Two checks, both dependency-free:
//!
//! 1. **Trace schema** — reads the trace JSON named by `OBS_TRACE_FILE`
//!    (default `trace.json`, as written by `murash --trace-out` or
//!    `BENCH_TRACE_OUT`), parses it with the in-tree JSON codec, verifies
//!    a parse → print → parse round trip, and validates it against the
//!    `required` key lists of `schemas/trace.schema.json` (path
//!    overridable via `OBS_SCHEMA`).
//! 2. **Metrics exposition** — starts an in-process server over a small
//!    graph, runs a transitive-closure query plus a `.profile` and two
//!    mutations, fetches `.metrics` and `.stats` over the TCP protocol and
//!    checks them against the server's declared counters
//!    (`Server::counter_rows`): every family has its `# TYPE` line and its
//!    `.stats` line, and the durability and cluster counters are live.
//!
//! Exits non-zero with a list of violations on any failure.

use mura_core::{Database, Relation};
use mura_dist::QueryEngine;
use mura_obs::json::Json;
use mura_obs::prometheus::sample;
use mura_serve::{protocol, serve_tcp, ServeConfig, Server};
use std::io::{BufReader, Write};
use std::net::TcpStream;

/// Checks `doc` against the `required`/`properties`/`items` structure of a
/// (draft-07-style) schema. Only the subset the trace schema uses is
/// interpreted: required keys recurse through object properties and array
/// items; anything else passes.
fn validate(schema: &Json, doc: &Json, path: &str, errors: &mut Vec<String>) {
    if let Some(required) = schema.get("required").and_then(|r| r.as_array()) {
        for key in required.iter().filter_map(|k| k.as_str()) {
            if doc.get(key).is_none() {
                errors.push(format!("{path}: missing required key '{key}'"));
            }
        }
    }
    if let Some(props) = schema.get("properties").and_then(|p| p.as_object()) {
        for (key, sub) in props {
            if let Some(value) = doc.get(key) {
                validate(sub, value, &format!("{path}.{key}"), errors);
            }
        }
    }
    if let Some(items) = schema.get("items") {
        if let Some(arr) = doc.as_array() {
            for (i, item) in arr.iter().enumerate() {
                validate(items, item, &format!("{path}[{i}]"), errors);
            }
        }
    }
}

fn check_trace_file(errors: &mut Vec<String>) {
    let trace_path = std::env::var("OBS_TRACE_FILE").unwrap_or_else(|_| "trace.json".into());
    let schema_path =
        std::env::var("OBS_SCHEMA").unwrap_or_else(|_| "schemas/trace.schema.json".into());

    let raw = match std::fs::read_to_string(&trace_path) {
        Ok(s) => s,
        Err(e) => {
            errors.push(format!("read {trace_path}: {e}"));
            return;
        }
    };
    let doc = match Json::parse(&raw) {
        Ok(d) => d,
        Err(e) => {
            errors.push(format!("{trace_path} is not valid JSON: {e}"));
            return;
        }
    };
    // Round trip: printing and re-parsing must reproduce the same value.
    match Json::parse(&doc.to_string()) {
        Ok(again) if again == doc => {}
        Ok(_) => errors.push(format!("{trace_path}: print → parse round trip diverged")),
        Err(e) => errors.push(format!("{trace_path}: re-parse of printed form failed: {e}")),
    }
    let schema = match std::fs::read_to_string(&schema_path).map_err(|e| e.to_string()) {
        Ok(s) => match Json::parse(&s) {
            Ok(j) => j,
            Err(e) => {
                errors.push(format!("{schema_path} is not valid JSON: {e}"));
                return;
            }
        },
        Err(e) => {
            errors.push(format!("read {schema_path}: {e}"));
            return;
        }
    };
    validate(&schema, &doc, "$", errors);
    // The cluster-tracing schema bump: version 2 added the wire-level
    // trace id that ties worker-side spans to their query.
    let version = doc.get("mura").and_then(|m| m.get("version")).and_then(|v| v.as_f64());
    if version.is_none_or(|v| v < 2.0) {
        errors.push(format!("{trace_path}: mura.version must be >= 2, got {version:?}"));
    }
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).map_or(0, |a| a.len());
    if events == 0 {
        errors.push(format!("{trace_path}: traceEvents is empty — nothing was traced"));
    }
    println!("obs-smoke: {trace_path} valid ({events} events, schema {schema_path})");
}

fn check_metrics_page(errors: &mut Vec<String>) {
    let mut db = Database::new();
    let src = db.intern("src");
    let dst = db.intern("dst");
    db.insert_relation("e", Relation::from_pairs(src, dst, (0..12).map(|i| (i, i + 1))));
    // `OBS_CLUSTER=<n>` routes every execution through n real worker
    // processes (the mura-worker binary resolves via `MURA_WORKER_BIN`),
    // so the page is validated against the multi-process backend too.
    let cluster_workers: usize =
        std::env::var("OBS_CLUSTER").ok().and_then(|s| s.parse().ok()).unwrap_or(0);
    // Durable data dir so the WAL/snapshot families carry real samples
    // (the mutation verbs below are then WAL-logged before they apply).
    let data_dir = std::env::temp_dir().join(format!("mura-obs-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let durable = ServeConfig { data_dir: Some(data_dir.clone()), ..Default::default() };
    let config = if cluster_workers > 0 {
        ServeConfig {
            cluster: mura_serve::ClusterMode::Processes { workers: cluster_workers },
            ..durable
        }
    } else {
        durable
    };
    let server = match Server::try_start(QueryEngine::new(db), config) {
        Ok(s) => s,
        Err(e) => {
            errors.push(format!("start server (OBS_CLUSTER={cluster_workers}): {e}"));
            return;
        }
    };
    let handle = serve_tcp(&server, "127.0.0.1:0").expect("bind ephemeral port");

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut send = |line: &str| -> (String, Vec<String>) {
        let mut s = stream.try_clone().expect("clone stream");
        s.write_all(format!("{line}\n").as_bytes()).expect("send");
        protocol::read_response(&mut reader).expect("response")
    };

    let (status, _) = send("?x, ?y <- ?x e+ ?y");
    if !status.starts_with("OK ") {
        errors.push(format!("TC query failed: {status}"));
    }
    let (status, body) = send(".profile ?x, ?y <- ?x e+ ?y");
    if !status.starts_with("OK profile") || !body.iter().any(|l| l.contains("superstep")) {
        errors
            .push(format!(".profile gave no superstep timeline: {status} / {} lines", body.len()));
    }
    // The profile's observation re-planned the query and dropped the first
    // answer with its plan: ask again until the view is cached under the
    // plan that stays.
    for _ in 0..2 {
        send("?x, ?y <- ?x e+ ?y");
    }
    // Exercise the mutation verbs so the IVM families carry real samples:
    // an insert extends the cached closure, a delete DRed-maintains it —
    // when the next read brings the view forward.
    let (status, _) = send(".insert e 100 101");
    if !status.starts_with("OK v=1 ") {
        errors.push(format!(".insert failed: {status}"));
    }
    let (status, _) = send(".delete e 0 1");
    if !status.starts_with("OK v=2 ") {
        errors.push(format!(".delete failed: {status}"));
    }
    send("?x, ?y <- ?x e+ ?y");
    let (status, _) = send(".insert e nonsense");
    if !status.starts_with("ERR ") {
        errors.push(format!(".insert with a bad value must ERR, got: {status}"));
    }
    let (status, page) = send(".metrics");
    if status != "OK metrics" {
        errors.push(format!(".metrics failed: {status}"));
    }
    let (status, stats_body) = send(".stats");
    if !status.starts_with("OK stats") {
        errors.push(format!(".stats failed: {status}"));
    }
    let rows = server.counter_rows();
    let mut families = 0;
    for run in mura_obs::counters::families(&rows) {
        let (family, kind) = (run[0].0.family, run[0].0.kind.name());
        families += 1;
        if !page.iter().any(|l| *l == format!("# TYPE {family} {kind}")) {
            errors.push(format!(".metrics is missing family {family}"));
        }
        let title = mura_obs::counters::stats_title(family);
        if !stats_body.iter().any(|l| l.starts_with(&format!("{title} "))) {
            errors.push(format!(".stats is missing the {title} line"));
        }
    }
    let page = page.join("\n");
    // What the page shows for a declared field, found by the field's name.
    let shown = |name: &str| {
        let (field, _) = rows.iter().find(|(f, _)| f.name == name).expect("a declared field");
        sample(&page, &field.series()).unwrap_or(0.0)
    };
    // Durability must be live behind the page, not just present: both
    // mutations were WAL-logged and the recovery bootstrap wrote a
    // snapshot before the server accepted connections.
    if shown("wal_appends") < 2.0 {
        errors.push("the WAL append counter must count both mutations".into());
    }
    if shown("wal_bytes") <= 0.0 {
        errors.push("the WAL byte counter recorded no bytes".into());
    }
    if shown("snapshots_written") < 1.0 {
        errors.push("the snapshot counter is missing the bootstrap snapshot".into());
    }
    if cluster_workers > 0 {
        // The process backend must actually be live behind the page: the
        // worker gauge shows the fleet, and every histogram — the
        // supervisor's heartbeats and the traced worker supersteps among
        // them — has samples.
        if shown("workers") != cluster_workers as f64 {
            errors.push(format!("the worker gauge must read {cluster_workers}"));
        }
        // The closure ran more than once: the second run found its
        // broadcast replicas on the workers already.
        if shown("rows_resident") <= 0.0 {
            errors.push("no broadcast row was spared by a replica a worker held".into());
        }
        for line in page.lines() {
            let Some(family) =
                line.strip_prefix("# TYPE ").and_then(|l| l.strip_suffix(" histogram"))
            else {
                continue;
            };
            if sample(&page, &format!("{family}_count")).unwrap_or(0.0) < 1.0 {
                errors.push(format!("{family} recorded no samples"));
            }
        }
    }
    send(".quit");
    handle.stop();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
    println!(
        "obs-smoke: .metrics and .stats show all {families} declared families, .profile renders \
         (cluster={cluster_workers})"
    );
}

fn main() {
    let mut errors = Vec::new();
    check_trace_file(&mut errors);
    check_metrics_page(&mut errors);
    if !errors.is_empty() {
        eprintln!("obs-smoke FAILED:");
        for e in &errors {
            eprintln!("  - {e}");
        }
        std::process::exit(1);
    }
    println!("obs-smoke: OK");
}
