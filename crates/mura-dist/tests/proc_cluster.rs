//! Integration tests for the multi-process cluster backend
//! ([`ProcCluster`]): real worker OS processes, real sockets, real kills.
//!
//! What must hold, on random Erdős–Rényi graphs across both fixpoint
//! plans:
//!
//! 1. **Equivalence** — answers over the process backend match both the
//!    in-process simulator and the fault-free centralized evaluation;
//! 2. **Bytes on the wire** — the paper's communication claim holds in
//!    *measured socket bytes*, not simulated counters: `P_plw` moves zero
//!    exchange bytes after setup while `P_gld` ships bytes whenever a
//!    superstep's rows change worker;
//! 3. **Chaos** — under a fixed seed, injected worker kills (a real
//!    `SIGKILL` mid-exchange) and connection drops are survived: the
//!    answer stays exact, the injection counts are deterministic, and the
//!    [`FaultSnapshot`] records the recovery;
//! 4. **Supervision** — an out-of-band `SIGKILL` (the test-hook
//!    equivalent of `kill -9`) is detected by the heartbeat supervisor,
//!    the worker is respawned, and subsequent queries are exact;
//! 5. **Residency** — a worker keeps the broadcast replicas it is sent, so
//!    a fleet ships a value once per data version, not once per query,
//!    and a bucket that stays on its worker never crosses a socket; the
//!    rows the model counts as moved stay the simulator's.
//!
//! The chaos CI job sweeps `MURA_CHAOS_SEED` over a seed matrix through
//! these same tests.

use mura_core::{eval, Database, Relation, Rows, Schema, Sym, Term, Value};
use mura_datagen::{erdos_renyi, with_random_labels, SplitMix64};
use mura_dist::wire::{self, REPLICA_CAP};
use mura_dist::{
    Cluster, CommBackend, CommSnapshot, DistEvaluator, DistRel, ExecConfig, FaultConfig, FaultPlan,
    FaultSnapshot, FixpointPlan, ProcCluster, ProcClusterConfig, QueryEngine, RecoveryPolicy,
    ReplicaId, TraceLevel,
};
use mura_obs::trace::{EventKind, PlanKind};
use mura_ucrpq::{parse_ucrpq, to_mura};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TC_QUERY: &str = "?x, ?y <- ?x a1+ ?y";
const PLANS: [FixpointPlan; 2] = [FixpointPlan::ForceGld, FixpointPlan::ForcePlw];

fn chaos_seed() -> u64 {
    std::env::var("MURA_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(2)
}

fn er_db(graph_seed: u64) -> mura_core::Database {
    let mut rng = SplitMix64::seed_from_u64(graph_seed);
    let g = erdos_renyi(60, 0.03, graph_seed);
    let lg = with_random_labels(&g, 2, &mut rng);
    lg.to_database()
}

fn centralized(db: &mut mura_core::Database, query: &str) -> Relation {
    let q = parse_ucrpq(query).unwrap();
    let term = to_mura(&q, db).unwrap();
    eval(&term, db).unwrap()
}

/// Spawns a process cluster whose worker binary is the one Cargo built
/// for this test run (guaranteed present via `CARGO_BIN_EXE_*`).
fn proc_cluster(workers: usize) -> Arc<ProcCluster> {
    ProcCluster::spawn_with(ProcClusterConfig {
        workers,
        worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_mura-worker"))),
        ..Default::default()
    })
    .expect("spawn process cluster")
}

fn run_on(
    db: &mura_core::Database,
    query: &str,
    config: ExecConfig,
) -> (Relation, FaultSnapshot, mura_dist::CommSnapshot) {
    let mut engine = QueryEngine::with_config(db.clone(), config);
    let out = engine.run_ucrpq(query).unwrap();
    (out.relation, out.stats.fault, out.comm)
}

/// Equivalence: for every plan, the process backend computes the same
/// answer as the in-process simulator and the centralized evaluation.
#[test]
fn proc_answers_match_simulator_and_centralized() {
    let cluster = proc_cluster(4);
    for plan in PLANS {
        for graph_seed in [5u64, 11] {
            let mut db = er_db(graph_seed);
            let expected = centralized(&mut db, TC_QUERY);
            let (sim, _, _) =
                run_on(&db, TC_QUERY, ExecConfig { workers: 4, plan, ..Default::default() });
            let (proc_ans, _, comm) = run_on(
                &db,
                TC_QUERY,
                ExecConfig {
                    workers: 4,
                    plan,
                    backend: Some(cluster.clone() as Arc<dyn CommBackend>),
                    ..Default::default()
                },
            );
            assert_eq!(
                sim.sorted_rows(),
                expected.sorted_rows(),
                "{plan:?} graph {graph_seed}: simulator diverged from centralized"
            );
            assert_eq!(
                proc_ans.sorted_rows(),
                expected.sorted_rows(),
                "{plan:?} graph {graph_seed}: process backend diverged from centralized"
            );
            assert!(
                comm.wire_tx_bytes > 0 && comm.wire_rx_bytes > 0,
                "{plan:?} graph {graph_seed}: process backend moved no bytes: {comm:?}"
            );
        }
    }
}

/// The paper's communication claim in measured socket bytes: over real
/// sockets `P_plw` ships exchange payload only during setup (its
/// supersteps move zero bytes), while a `P_gld` superstep ships bytes when
/// some row changes worker. A produced row lands on the worker its hash
/// picks, one in four of them its own on this fleet, so every superstep
/// that derived more than a few rows ships, and the recursion as a whole
/// does; one that ships nothing derived next to nothing.
#[test]
fn plw_zero_wire_bytes_after_setup_gld_ships_every_superstep() {
    let cluster = proc_cluster(4);
    let mut db = er_db(5);
    let expected = centralized(&mut db, TC_QUERY);
    let traced = |plan| {
        let mut engine = QueryEngine::with_config(
            db.clone(),
            ExecConfig {
                workers: 4,
                plan,
                trace: TraceLevel::Superstep,
                backend: Some(cluster.clone() as Arc<dyn CommBackend>),
                ..Default::default()
            },
        );
        let out = engine.run_ucrpq(TC_QUERY).unwrap();
        assert_eq!(out.relation.sorted_rows(), expected.sorted_rows(), "{plan:?} diverged");
        (out.stats.trace.expect("trace recorded"), out.comm)
    };

    let (plw, plw_comm) = traced(FixpointPlan::ForcePlw);
    assert!(
        plw_comm.wire_exchange_bytes > 0,
        "P_plw setup must move real bytes (repartition + broadcasts): {plw_comm:?}"
    );
    let setup_bytes: u64 = plw
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Setup && e.plan == PlanKind::Plw)
        .map(|e| e.wire_exchange_bytes)
        .sum();
    assert!(setup_bytes > 0, "P_plw setup event must carry measured wire bytes");
    for s in plw.supersteps().filter(|e| e.plan == PlanKind::Plw) {
        assert_eq!(s.wire_exchange_bytes, 0, "P_plw superstep moved bytes over the wire: {s:?}");
    }

    let (gld, _) = traced(FixpointPlan::ForceGld);
    let productive: Vec<_> =
        gld.supersteps().filter(|e| e.plan == PlanKind::Gld && e.delta_rows > 0).collect();
    assert!(productive.len() >= 2, "expected several productive P_gld supersteps");
    for s in productive.iter().filter(|s| s.delta_rows > 4) {
        assert!(
            s.wire_exchange_bytes > 0,
            "P_gld superstep {} shipped no measured bytes: {s:?}",
            s.iteration
        );
    }
    let recursion: u64 = productive.iter().map(|s| s.wire_exchange_bytes).sum();
    assert!(recursion > 0, "P_gld shipped nothing during its recursion");
}

/// Tentpole: the merged cluster trace makes the paper's `P_plw` claim
/// visible *from the worker lanes themselves*. Worker processes record
/// their own exchange spans and ship them back at fixpoint end; after the
/// clock-aligned merge, every `P_plw` worker-lane exchange event sits at
/// superstep 0 (the one-time setup repartition and broadcasts) and none
/// during the recursion — while `P_gld` worker lanes show exchange events
/// on recursive supersteps too.
#[test]
fn plw_worker_lanes_show_zero_exchange_after_setup() {
    let cluster = proc_cluster(4);
    let mut db = er_db(5);
    let expected = centralized(&mut db, TC_QUERY);
    let traced = |plan| {
        let mut engine = QueryEngine::with_config(
            db.clone(),
            ExecConfig {
                workers: 4,
                plan,
                trace: TraceLevel::Superstep,
                backend: Some(cluster.clone() as Arc<dyn CommBackend>),
                ..Default::default()
            },
        );
        let out = engine.run_ucrpq(TC_QUERY).unwrap();
        assert_eq!(out.relation.sorted_rows(), expected.sorted_rows(), "{plan:?} diverged");
        out.stats.trace.expect("trace recorded")
    };

    let plw = traced(FixpointPlan::ForcePlw);
    let lanes: std::collections::BTreeSet<i32> =
        plw.events.iter().filter(|e| e.kind.is_worker_comm()).map(|e| e.worker).collect();
    assert!(lanes.len() >= 2, "merged P_plw trace must carry worker lanes, got {lanes:?}");
    for e in plw.events.iter().filter(|e| e.kind.is_worker_comm()) {
        assert_eq!(
            e.iteration, 0,
            "P_plw worker lane recorded an exchange during the recursion: {e:?}"
        );
    }

    let gld = traced(FixpointPlan::ForceGld);
    assert!(
        gld.events.iter().any(|e| e.kind.is_worker_comm() && e.iteration > 0),
        "P_gld worker lanes must show exchanges during the recursion"
    );
    cluster.shutdown();
}

/// The core trace signature is backend-independent: the same query at the
/// same trace level yields the same timestamp-free `signature()` on the
/// in-process simulator and on the process cluster. Worker-lane events
/// are excluded from signatures precisely so the two stay comparable.
#[test]
fn sim_and_proc_trace_signatures_agree() {
    let cluster = proc_cluster(4);
    let db = er_db(11);
    let run = |backend: Option<Arc<dyn CommBackend>>| {
        let mut engine = QueryEngine::with_config(
            db.clone(),
            ExecConfig {
                workers: 4,
                plan: FixpointPlan::ForcePlw,
                trace: TraceLevel::Superstep,
                backend,
                ..Default::default()
            },
        );
        let out = engine.run_ucrpq(TC_QUERY).unwrap();
        out.stats.trace.expect("trace recorded").signature()
    };
    let sim = run(None);
    let proc_sig = run(Some(cluster.clone() as Arc<dyn CommBackend>));
    assert!(!sim.is_empty());
    assert_eq!(sim, proc_sig, "sim and proc signatures must agree modulo worker lanes");
    cluster.shutdown();
}

/// Same-seed chaos over the *process* backend is deterministic modulo
/// timestamps: two runs with one seed produce identical timestamp-free
/// `signature()`s of their merged traces, even though worker kills,
/// reconnects and retransmissions make the worker-lane span sets
/// timing-dependent (which is why signatures exclude them). Determinism is
/// over the seed *and* the starting fleet state — which replicas the
/// workers hold is state, like a cache — so the two compared runs each
/// start from a fresh fleet.
#[test]
fn same_seed_proc_chaos_traces_have_identical_signatures() {
    let base = chaos_seed();
    let db = er_db(5);
    let traced = || {
        let cluster = proc_cluster(3);
        let mut engine = QueryEngine::with_config(
            db.clone(),
            ExecConfig {
                workers: 3,
                plan: FixpointPlan::ForceGld,
                trace: TraceLevel::Superstep,
                fault: FaultConfig {
                    seed: base,
                    panic_prob: 0.4,
                    drop_prob: 0.4,
                    straggler_prob: 0.2,
                    straggler_delay_ms: 1,
                    failures_per_site: 1,
                    ..Default::default()
                },
                checkpoint_every: 2,
                backend: Some(cluster.clone() as Arc<dyn CommBackend>),
                ..Default::default()
            },
        );
        let out = engine.run_ucrpq(TC_QUERY).unwrap();
        cluster.shutdown();
        out.stats.trace.expect("trace recorded").signature()
    };
    let a = traced();
    let b = traced();
    assert_eq!(a, b, "same-seed process-mode chaos traces must agree modulo timestamps");
    assert!(!a.is_empty());
}

/// `config` run once on a fresh fleet of `workers`: same-seed runs compared
/// with each other start from the same fleet state, no replica held.
fn on_fresh_fleet(
    workers: usize,
    db: &mura_core::Database,
    config: impl Fn(Arc<dyn CommBackend>) -> ExecConfig,
) -> (Relation, FaultSnapshot, mura_dist::ClusterHealth) {
    let cluster = proc_cluster(workers);
    let (got, faults, _) = run_on(db, TC_QUERY, config(cluster.clone()));
    let health = cluster.health_snapshot();
    cluster.shutdown();
    (got, faults, health)
}

/// Chaos: under a fixed seed the process cluster takes real `SIGKILL`s
/// mid-exchange (just before a worker's request goes out, so the request
/// fails and is sent again to the respawned process) and severed control
/// connections — and still returns the exact centralized answer, with
/// reproducible injection counts (each run from a fresh fleet) and
/// recovery recorded in the snapshot.
#[test]
fn seeded_kills_and_connection_drops_recover_exactly() {
    let base = chaos_seed();
    for plan in PLANS {
        let mut db = er_db(5);
        let expected = centralized(&mut db, TC_QUERY);
        let config = |backend| ExecConfig {
            workers: 4,
            plan,
            fault: FaultConfig {
                seed: base,
                panic_prob: 0.4, // drives KillWorker in process mode
                drop_prob: 0.4,  // drives ConnectionDrop in process mode
                straggler_prob: 0.2,
                straggler_delay_ms: 1,
                failures_per_site: 1,
                ..Default::default()
            },
            checkpoint_every: 2,
            backend: Some(backend),
            ..Default::default()
        };
        let (r1, f1, h1) = on_fresh_fleet(4, &db, config);
        let (r2, f2, h2) = on_fresh_fleet(4, &db, config);
        assert_eq!(
            r1.sorted_rows(),
            expected.sorted_rows(),
            "{plan:?}: answer under process chaos diverged from centralized"
        );
        assert_eq!(r2.sorted_rows(), expected.sorted_rows(), "{plan:?}: second run diverged");
        assert_eq!(
            f1.counts(),
            f2.counts(),
            "{plan:?}: process-mode injection counts must be reproducible"
        );
        assert!(
            f1.killed_workers + f1.dropped_connections > 0,
            "{plan:?}: chaos injected no process-mode faults: {f1}"
        );
        assert_eq!((h1.workers, h2.workers), (4, 4));
        // Which of the supervisor and the retry loop respawns a killed
        // worker is a race; the fleet's own count sees either.
        if f1.killed_workers > 0 {
            assert!(
                h1.respawns > 0 && h2.respawns > 0,
                "{plan:?}: real kills must be answered by respawns: {h1:?} / {h2:?}"
            );
        }
    }
}

/// Chaos: seeded in-flight frame corruption (bit flips caught by the wire
/// CRC-32 trailer) is treated exactly like a dropped connection — the
/// answer stays exact on every plan, corrupted rows are never delivered,
/// and the injection counts are reproducible under a fixed seed (each run
/// from a fresh fleet).
#[test]
fn seeded_frame_corruption_recovers_exactly() {
    let base = chaos_seed();
    for plan in PLANS {
        let mut db = er_db(5);
        let expected = centralized(&mut db, TC_QUERY);
        let config = |backend| ExecConfig {
            workers: 4,
            plan,
            fault: FaultConfig {
                seed: base,
                corrupt_frame_prob: 0.4,
                failures_per_site: 1,
                ..Default::default()
            },
            checkpoint_every: 2,
            backend: Some(backend),
            ..Default::default()
        };
        let (r1, f1, _) = on_fresh_fleet(4, &db, config);
        let (r2, f2, _) = on_fresh_fleet(4, &db, config);
        assert_eq!(
            r1.sorted_rows(),
            expected.sorted_rows(),
            "{plan:?}: answer under frame corruption diverged from centralized"
        );
        assert_eq!(r2.sorted_rows(), expected.sorted_rows(), "{plan:?}: second run diverged");
        assert_eq!(
            f1.counts(),
            f2.counts(),
            "{plan:?}: corruption injection counts must be reproducible"
        );
        assert!(f1.corrupted_frames > 0, "{plan:?}: chaos injected no frame corruption: {f1}");
    }
}

/// The compact row block on real sockets: on a graph whose node ids fit 32
/// bits a moved value costs its 4 bytes plus a share of the block header
/// (the per-value-tag layout cost 9), and the bytes are a function of the
/// seed and the fleet's state: from the second run of a query on, every
/// run ships exactly the same number; the first also carries the
/// broadcast replicas the fleet did not hold yet.
#[test]
fn moved_values_cost_at_most_five_bytes_and_bytes_repeat_for_a_seed() {
    let workers = 2;
    let proc = proc_cluster(workers);
    let graph = erdos_renyi(2_000, 0.002, 9);
    let rel = Relation::from_pairs(Sym(0), Sym(1), graph.plain_edges());
    assert!(rel.len() > 1_000, "graph too small to average the block headers out");
    let cluster = Cluster::new(workers).with_backend(proc.clone() as Arc<dyn CommBackend>);
    cluster.broadcast_rel(&rel, None).unwrap();
    let placed = DistRel::from_relation(&rel, &cluster);
    let moved = placed.repartition(&[Sym(0)], &cluster).unwrap();
    assert_eq!(moved.collect().sorted_rows(), rel.sorted_rows());
    // A broadcast puts the relation on the wire once per worker; an
    // exchange puts every row that changes worker on it twice (out to its
    // destination and echoed back), and the rows that stay not at all.
    let crossed: usize = (0..workers)
        .map(|w| moved.parts()[w].iter().filter(|row| !placed.parts()[w].contains(row)).count())
        .sum();
    assert!(crossed > 0 && crossed < rel.len(), "{crossed} of {} rows changed worker", rel.len());
    let values = (rel.schema().arity() * (rel.len() * workers + crossed * 2)) as f64;
    let per_value = cluster.metrics().snapshot().wire_exchange_bytes as f64 / values;
    assert!((4.0..=5.0).contains(&per_value), "{per_value:.2} bytes per moved value");

    let db = er_db(11);
    let bytes_of = |plan| {
        let config = ExecConfig {
            workers,
            plan,
            backend: Some(proc.clone() as Arc<dyn CommBackend>),
            ..Default::default()
        };
        run_on(&db, TC_QUERY, config).2.wire_exchange_bytes
    };
    let mut replicas = 0;
    for plan in PLANS {
        let first = bytes_of(plan);
        let second = bytes_of(plan);
        assert!(second > 0, "{plan:?} moved no payload");
        assert_eq!(second, bytes_of(plan), "{plan:?}: same seed, different bytes on the wire");
        assert!(first >= second, "{plan:?}: a warm fleet shipped more: {first} vs {second}");
        replicas += first - second;
    }
    assert!(replicas > 0, "no first run carried a replica");
    proc.shutdown();
}

/// Scatter/gather under each process-mode fault on its own: the exchange
/// frames and broadcasts that go out to every worker before any reply is
/// read still recover from a real `SIGKILL`, a severed connection, a
/// corrupted frame and a stalled socket — the answer equals the
/// simulator's under the same fault plan, and so do the rows moved.
#[test]
fn scatter_gather_survives_each_process_fault_with_the_simulators_rows_moved() {
    let base = chaos_seed();
    let fault = |f: fn(&mut FaultConfig)| {
        let mut cfg = FaultConfig { seed: base, failures_per_site: 1, ..Default::default() };
        f(&mut cfg);
        cfg
    };
    type Injected = fn(&FaultSnapshot) -> u64;
    let classes: [(&str, FaultConfig, Injected); 4] = [
        ("kill_worker", fault(|c| c.panic_prob = 0.3), |f| f.killed_workers),
        ("drop_connection", fault(|c| c.drop_prob = 0.4), |f| f.dropped_connections),
        ("corrupt_frame", fault(|c| c.corrupt_frame_prob = 0.4), |f| f.corrupted_frames),
        ("delay_socket", fault(|c| (c.straggler_prob, c.straggler_delay_ms) = (0.4, 1)), |f| {
            f.delayed_sockets
        }),
    ];
    let mut db = er_db(5);
    let expected = centralized(&mut db, TC_QUERY);
    for (name, fault, injected) in classes {
        let cluster = proc_cluster(2);
        let (mut broadcasts, mut shuffles, mut injections) = (0, 0, 0);
        for plan in [FixpointPlan::ForceGld, FixpointPlan::ForcePlw] {
            let config = |backend| ExecConfig {
                workers: 2,
                plan,
                fault,
                checkpoint_every: 2,
                backend,
                ..Default::default()
            };
            let (sim, _, sim_comm) = run_on(&db, TC_QUERY, config(None));
            let (got, faults, comm) =
                run_on(&db, TC_QUERY, config(Some(cluster.clone() as Arc<dyn CommBackend>)));
            assert_eq!(got.sorted_rows(), expected.sorted_rows(), "{name} {plan:?}: wrong answer");
            assert_eq!(sim.sorted_rows(), expected.sorted_rows(), "{name} {plan:?}: simulator");
            assert_eq!(
                (comm.shuffles, comm.rows_shuffled, comm.broadcasts, comm.rows_broadcast),
                (
                    sim_comm.shuffles,
                    sim_comm.rows_shuffled,
                    sim_comm.broadcasts,
                    sim_comm.rows_broadcast
                ),
                "{name} {plan:?}: rows moved differ from the simulator's"
            );
            broadcasts += comm.broadcasts;
            shuffles += comm.shuffles;
            injections += injected(&faults);
        }
        assert!(broadcasts > 0 && shuffles > 0, "{name}: both data paths must run");
        assert!(injections > 0, "{name}: nothing was injected");
        cluster.shutdown();
    }
}

/// An exchange that has to go round again — every control connection is
/// severed and every worker killed before its first request goes out —
/// encodes its rows once all the same: a retry sends the sealed frames it
/// already has, and an injected retransmission or duplicate is the
/// encoded bytes again, not the rows encoded again. The
/// buckets that stay on their worker are not encoded at all: they never
/// leave the coordinator, though their drops and duplicates are rolled
/// like the simulator's.
#[test]
fn a_retried_exchange_encodes_its_rows_exactly_once() {
    let workers = 2;
    let proc = proc_cluster(workers);
    let plan = Arc::new(FaultPlan::new(FaultConfig {
        seed: chaos_seed(),
        panic_prob: 1.0,     // kill_worker
        drop_prob: 1.0,      // drop_connection, and every bucket retransmitted
        duplicate_prob: 1.0, // every bucket duplicated
        failures_per_site: 1,
        ..Default::default()
    }));
    let cluster = Cluster::new(workers)
        .with_backend(proc.clone() as Arc<dyn CommBackend>)
        .with_faults(plan.clone(), RecoveryPolicy::default());
    let schema = Schema::new(vec![Sym(0), Sym(1)]);
    let per_bucket = 50;
    let bucket = |from: usize, to: usize| -> Rows {
        let mut rows = Rows::new(2);
        (0..per_bucket)
            .for_each(|i| rows.push(&[Value::node((from * 2 + to) as u64), Value::node(i)]));
        rows
    };
    let buckets: Vec<Vec<Rows>> =
        (0..workers).map(|from| (0..workers).map(|to| bucket(from, to)).collect()).collect();
    let crossing = (workers * (workers - 1)) as u64;
    let block = mura_dist::wire::encode_rows(2, &buckets[0][0]).len() as u64;

    let encoded_before = proc.health_snapshot().rows_encoded;
    let parts = cluster.exchange_at(plan.next_site(), &schema, buckets.clone()).unwrap();

    for (to, part) in parts.iter().enumerate() {
        let want = Relation::from_rows(
            schema.clone(),
            (0..workers).flat_map(|from| buckets[from][to].iter()),
        );
        assert_eq!(part, &want, "partition {to}");
    }
    let faults = plan.snapshot();
    assert_eq!(faults.dropped_connections, workers as u64, "{faults}");
    assert_eq!(faults.killed_workers, workers as u64, "{faults}");
    // Both processes died before their request went out, so the first
    // attempt failed. Which of the exchange and the supervisor replaced
    // them is a race (`FaultSnapshot::counts` leaves respawns out).
    let respawns = proc.health_snapshot().respawns;
    assert!(respawns >= workers as u64, "killed workers were not replaced: {respawns}");
    let every_bucket = (workers * workers) as u64;
    assert_eq!((faults.injected_drops, faults.injected_duplicates), (every_bucket, every_bucket));
    // The first attempt met dead workers and put nothing on the wire; the
    // second sent three copies of every crossing bucket out and back...
    let comm = cluster.metrics().snapshot();
    assert_eq!(comm.wire_exchange_bytes, 6 * crossing * block, "{comm:?}");
    // ... but each of their rows was encoded once, and no other row.
    assert_eq!(proc.health_snapshot().rows_encoded - encoded_before, crossing * per_bucket);
    proc.shutdown();
}

/// A retry goes to the destinations whose echo failed, and to no other.
/// On a 3-worker fleet a seeded kill takes down one destination just
/// before its frame goes out; once its process is respawned it is sent the
/// same frame again, while the other two echo theirs once. The workers
/// count one exchange frame per destination between them, the wire
/// carries each crossing bucket out and back once, and each crossing row
/// was encoded once.
#[test]
fn a_failed_echo_is_retried_for_its_destination_alone() {
    let (workers, killed) = (3, 1);
    let fault =
        |seed| FaultConfig { seed, panic_prob: 0.5, failures_per_site: 1, ..Default::default() };
    // A seed whose first site kills that destination alone, found on a
    // probe plan: the plan the exchange runs under has counted nothing.
    let seed = (0..)
        .find(|&seed| {
            let probe = FaultPlan::new(fault(seed));
            let site = probe.next_site();
            (0..workers).all(|w| probe.kill_worker(site, w, 0) == (w == killed))
        })
        .unwrap();
    let plan = Arc::new(FaultPlan::new(fault(seed)));
    let proc = proc_cluster(workers);
    let cluster = Cluster::new(workers)
        .with_backend(proc.clone() as Arc<dyn CommBackend>)
        .with_faults(plan.clone(), RecoveryPolicy::default());
    let schema = Schema::new(vec![Sym(0), Sym(1)]);
    let bucket = |from: usize, to: usize| -> Rows {
        let mut rows = Rows::new(2);
        for i in 0..(5 + 3 * from + to) as u64 {
            rows.push(&[Value::node((from * workers + to) as u64), Value::node(i)]);
        }
        rows
    };
    let buckets: Vec<Vec<Rows>> =
        (0..workers).map(|from| (0..workers).map(|to| bucket(from, to)).collect()).collect();
    let sim = Cluster::new(workers).exchange_at(0, &schema, buckets.clone()).unwrap();
    proc.replica_audit(); // Takes what the workers counted so far.
    let (frames, encoded) = (proc.worker_snapshot().exchanges, proc.health_snapshot().rows_encoded);

    let parts = cluster.exchange_at(plan.next_site(), &schema, buckets.clone()).unwrap();

    assert_eq!(parts, sim);
    let faults = plan.snapshot();
    assert_eq!(faults.killed_workers, 1, "{faults}");
    assert!(proc.health_snapshot().respawns >= 1, "the killed destination was not replaced");
    proc.replica_audit();
    let echoed = proc.worker_snapshot().exchanges - frames;
    assert_eq!(echoed, workers as u64, "one echo per destination, and no frame sent again");
    let (mut bytes, mut rows) = (0, 0);
    for (from, to) in (0..workers).flat_map(|f| (0..workers).map(move |t| (f, t))) {
        if from != to {
            bytes += wire::encode_rows(2, &buckets[from][to]).len() as u64;
            rows += buckets[from][to].len() as u64;
        }
    }
    assert_eq!(cluster.metrics().snapshot().wire_exchange_bytes, 2 * bytes);
    assert_eq!(proc.health_snapshot().rows_encoded - encoded, rows);
    proc.shutdown();
}

/// Supervision: an out-of-band `SIGKILL` of a worker process (no fault
/// plan involved — the test-hook equivalent of `kill -9` from a shell) is
/// detected by the heartbeat supervisor, which respawns the worker; a
/// query issued right after the kill and one after recovery are both
/// exact. A severed connection likewise self-heals without a respawn
/// being required for correctness.
#[test]
fn out_of_band_sigkill_is_detected_respawned_and_queries_stay_exact() {
    let cluster = proc_cluster(3);
    let mut db = er_db(7);
    let expected = centralized(&mut db, TC_QUERY);
    let config = || ExecConfig {
        workers: 3,
        plan: FixpointPlan::ForceGld,
        backend: Some(cluster.clone() as Arc<dyn CommBackend>),
        ..Default::default()
    };

    assert!(cluster.kill_worker_process(1), "worker 1 should be running");
    // Query issued while the worker is dead: the exchange path repairs it,
    // and learns of the death from a request the dead worker cannot take,
    // not from a socket timing out.
    let asked = Instant::now();
    let (got, _, _) = run_on(&db, TC_QUERY, config());
    assert_eq!(got.sorted_rows(), expected.sorted_rows(), "query during worker death diverged");
    let io_timeout = ProcClusterConfig::default().io_timeout;
    assert!(asked.elapsed() < io_timeout, "waited out a socket: {:?}", asked.elapsed());

    // The supervisor (or the exchange) must have respawned it.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let h = cluster.health_snapshot();
        if h.respawns >= 1 && h.live == 3 {
            break;
        }
        assert!(Instant::now() < deadline, "supervisor never recovered the killed worker: {h:?}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Severed connections (worker stays alive) self-heal on next use.
    cluster.sever_connection(0);
    cluster.sever_connection(2);
    let (got, _, _) = run_on(&db, TC_QUERY, config());
    assert_eq!(got.sorted_rows(), expected.sorted_rows(), "query after severed connections");
    assert!(cluster.health_snapshot().reconnects > 0, "reconnects must be counted");
    cluster.shutdown();
}

/// With no query running, only the heartbeat can meet a dead worker: it
/// counts the deadline the worker missed, then replaces the process.
#[test]
fn the_heartbeat_alone_notices_and_replaces_a_dead_worker() {
    let cluster = proc_cluster(2);
    assert!(cluster.kill_worker_process(0), "worker 0 should be running");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let h = cluster.health_snapshot();
        if h.liveness_misses >= 1 && h.respawns >= 1 && h.live == 2 {
            break;
        }
        assert!(Instant::now() < deadline, "the supervisor never recovered the worker: {h:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    cluster.shutdown();
}

/// Cancellation propagates over the wire: a query cancelled before its
/// exchanges reach the workers reports `Cancelled` and the cluster stays
/// healthy for the next query (no orphaned state, no wedged workers).
#[test]
fn cancellation_reaps_remote_work_and_cluster_stays_usable() {
    use mura_core::{CancellationToken, MuraError};
    let cluster = proc_cluster(2);
    let db = er_db(7);
    let cancel = CancellationToken::new();
    cancel.cancel();
    let mut engine = QueryEngine::with_config(
        db.clone(),
        ExecConfig {
            workers: 2,
            plan: FixpointPlan::ForceGld,
            cancel: Some(cancel),
            backend: Some(cluster.clone() as Arc<dyn CommBackend>),
            ..Default::default()
        },
    );
    let err = engine.run_ucrpq(TC_QUERY).unwrap_err();
    assert!(matches!(err, MuraError::Cancelled), "expected Cancelled, got {err:?}");

    // The cluster is immediately usable for the next query.
    let mut db2 = er_db(7);
    let expected = centralized(&mut db2, TC_QUERY);
    let (got, _, _) = run_on(
        &db,
        TC_QUERY,
        ExecConfig {
            workers: 2,
            backend: Some(cluster.clone() as Arc<dyn CommBackend>),
            ..Default::default()
        },
    );
    assert_eq!(got.sorted_rows(), expected.sorted_rows(), "query after cancellation diverged");
    cluster.shutdown();
}

/// Shutdown reaps every worker process: after `shutdown()` returns, the
/// children have exited (no orphan processes survive the coordinator).
#[test]
fn shutdown_leaves_no_orphan_workers() {
    let cluster = proc_cluster(2);
    let healthy = cluster.health_snapshot();
    assert_eq!(healthy.live, 2, "workers must be live after spawn: {healthy:?}");
    cluster.shutdown();
    let after = cluster.health_snapshot();
    assert_eq!(after.live, 0, "no worker may be live after shutdown: {after:?}");
}

/// What the model counts as moved: the counts the simulator must match.
fn model(c: &CommSnapshot) -> (u64, u64, u64, u64) {
    (c.shuffles, c.rows_shuffled, c.broadcasts, c.rows_broadcast)
}

/// One traced run of `TC_QUERY` over `fleet`: the answer, the counts, and
/// the broadcast payload bytes each worker received, from its own spans.
fn traced_run(
    db: &Database,
    plan: FixpointPlan,
    fleet: &Arc<ProcCluster>,
) -> (Relation, CommSnapshot, Vec<u64>) {
    let workers = fleet.worker_count();
    let backend = Some(fleet.clone() as Arc<dyn CommBackend>);
    let config =
        ExecConfig { workers, plan, trace: TraceLevel::Superstep, backend, ..Default::default() };
    let out = QueryEngine::with_config(db.clone(), config).run_ucrpq(TC_QUERY).unwrap();
    let mut shipped = vec![0; workers];
    for e in out.stats.trace.as_ref().expect("trace recorded").events.iter() {
        if e.kind == EventKind::BroadcastRecv {
            shipped[e.worker as usize] += e.wire_exchange_bytes;
        }
    }
    (out.relation, out.comm, shipped)
}

/// The simulator's answer and counts for `plan`, checked against
/// centralized evaluation.
fn simulated(db: &mut Database, workers: usize, plan: FixpointPlan) -> (Relation, CommSnapshot) {
    let expected = centralized(db, TC_QUERY);
    let (sim, _, comm) = run_on(db, TC_QUERY, ExecConfig { workers, plan, ..Default::default() });
    assert_eq!(sim.sorted_rows(), expected.sorted_rows(), "{plan:?}: simulator");
    (sim, comm)
}

/// Waits for the supervisor to have replaced a killed worker.
fn wait_for_respawn(fleet: &ProcCluster, workers: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !matches!(fleet.health_snapshot(), h if h.respawns >= 1 && h.live == workers) {
        assert!(Instant::now() < deadline, "never respawned: {:?}", fleet.health_snapshot());
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Residency: the same query twice on one fleet. The second run ships no
/// broadcast payload — every worker holds every replica already — and
/// spares every broadcast row on every worker, while its answer and model
/// counts are the first run's and the simulator's: the paper's broadcast
/// per query, paid once per data version.
#[test]
fn a_second_run_ships_no_broadcast_payload_and_counts_the_same() {
    let workers = 2;
    let fleet = proc_cluster(workers);
    let mut db = er_db(5);
    for plan in [FixpointPlan::ForceGld, FixpointPlan::ForcePlw] {
        let (sim, sim_comm) = simulated(&mut db, workers, plan);
        let (first, first_comm, _) = traced_run(&db, plan, &fleet);
        let resident = fleet.health_snapshot().rows_resident;
        let (second, second_comm, shipped) = traced_run(&db, plan, &fleet);
        let spared = fleet.health_snapshot().rows_resident - resident;
        for (got, comm) in [(&first, &first_comm), (&second, &second_comm)] {
            assert_eq!(got.sorted_rows(), sim.sorted_rows(), "{plan:?}: answer");
            assert_eq!(model(comm), model(&sim_comm), "{plan:?}: rows moved");
        }
        assert!(second_comm.rows_broadcast > 0, "{plan:?} broadcast nothing");
        assert_eq!(shipped, vec![0; workers], "{plan:?}: a warm fleet was sent replicas");
        let w = workers as u64;
        assert_eq!(spared * (w - 1), second_comm.rows_broadcast * w, "{plan:?}: rows spared");
    }
    let audit = fleet.replica_audit();
    assert!(audit.iter().all(|(recorded, reported)| Some(*recorded) == *reported), "{audit:?}");
    assert!(audit[0].0 .0 > 0, "the workers hold replicas: {audit:?}");
    fleet.shutdown();
}

/// A worker process that dies takes its replicas with it: after a real
/// `SIGKILL` of worker 1 between two runs, worker 1 alone is sent the
/// replicas again — the same bytes as on the cold fleet — and the answer
/// and the rows moved stay the simulator's.
#[test]
fn a_respawned_worker_alone_is_sent_the_replicas_again() {
    let workers = 2;
    let fleet = proc_cluster(workers);
    let mut db = er_db(7);
    let plan = FixpointPlan::ForceGld;
    let (sim, sim_comm) = simulated(&mut db, workers, plan);
    let (_, _, cold) = traced_run(&db, plan, &fleet);
    assert!(cold.iter().all(|&bytes| bytes > 0), "a cold fleet is sent every replica: {cold:?}");
    assert!(fleet.kill_worker_process(1), "worker 1 should be running");
    wait_for_respawn(&fleet, workers as u64);
    let (got, comm, shipped) = traced_run(&db, plan, &fleet);
    assert_eq!(got.sorted_rows(), sim.sorted_rows());
    assert_eq!(model(&comm), model(&sim_comm));
    assert_eq!(shipped, vec![0, cold[1]], "only the respawned worker lacked the replicas");
    let audit = fleet.replica_audit();
    assert!(audit.iter().all(|(recorded, reported)| Some(*recorded) == *reported), "{audit:?}");
    fleet.shutdown();
}

/// A replica is named by the data version it was computed from: after
/// `relation_mut` or `insert_relation` on the relation the query reads,
/// the next run ships to every worker again — also when the new contents
/// equal an earlier version's — and none of its broadcasts is answered
/// from what the fleet held. Answers stay the simulator's and centralized
/// evaluation's.
#[test]
fn a_mutated_relation_is_shipped_again_under_a_new_version() {
    let workers = 2;
    let fleet = proc_cluster(workers);
    let mut db = er_db(5);
    let a1 = db.dict().lookup("a1").expect("the query's relation");
    let original = db.relation(a1).unwrap().clone();
    let plan = FixpointPlan::ForceGld;
    let run = |db: &mut Database| {
        let (sim, sim_comm) = simulated(db, workers, plan);
        let resident = fleet.health_snapshot().rows_resident;
        let (got, comm, shipped) = traced_run(db, plan, &fleet);
        assert_eq!(got.sorted_rows(), sim.sorted_rows());
        assert_eq!(model(&comm), model(&sim_comm));
        (shipped, fleet.health_snapshot().rows_resident - resident)
    };
    let (cold, _) = run(&mut db);
    let (warm, spared) = run(&mut db);
    assert!(cold.iter().all(|&bytes| bytes > 0) && spared > 0, "{cold:?}, {spared}");
    assert_eq!(warm, vec![0; workers]);

    assert!(db.relation_mut(a1).unwrap().insert([Value::node(1_000), Value::node(1_001)]));
    let (shipped, spared) = run(&mut db);
    assert!(shipped.iter().all(|&bytes| bytes > 0), "changed in place: {shipped:?}");
    assert_eq!(spared, 0, "an old version answered");

    db.insert_relation_sym(a1, original);
    let (shipped, spared) = run(&mut db);
    assert_eq!(shipped, cold, "the first run's contents under a new version ship again");
    assert_eq!(spared, 0, "an old version answered");
    fleet.shutdown();
}

/// A broadcast with no name always ships: a constant relation in the plan
/// (`Term::Cst`, whose rows no catalog version names) crosses the sockets
/// on every run, and so does every bare `broadcast_rel(rel, None)` — the
/// path `bench_smoke`'s wire section measures.
#[test]
fn unnamed_broadcasts_always_ship() {
    let workers = 2;
    let fleet = proc_cluster(workers);
    let mut db = Database::new();
    let (src, dst, m) = (db.intern("src"), db.intern("dst"), db.intern("m"));
    let e = db.insert_relation("E", Relation::from_pairs(src, dst, (0..40).map(|i| (i, i + 1))));
    let small = Relation::from_pairs(src, dst, [(1, 2), (3, 4), (5, 6)]);
    let term =
        Term::var(e).rename(dst, m).join(Term::cst(small.clone()).rename(src, m)).antiproject(m);
    let expected = eval(&term, &db).unwrap();
    let run = |backend: Option<Arc<dyn CommBackend>>| {
        let config =
            ExecConfig { workers, trace: TraceLevel::Superstep, backend, ..Default::default() };
        let mut ev = DistEvaluator::new(&db, config);
        let got = ev.eval_collect(&term).unwrap();
        let trace = ev.stats().trace.as_ref().expect("trace recorded");
        let kind = EventKind::BroadcastRecv;
        let shipped = trace.events.iter().filter(|e| e.kind == kind).count();
        (got, ev.cluster().metrics().snapshot(), shipped)
    };
    let (sim, sim_comm, _) = run(None);
    assert_eq!(sim.sorted_rows(), expected.sorted_rows());
    let resident = fleet.health_snapshot().rows_resident;
    for _ in 0..2 {
        let (got, comm, shipped) = run(Some(fleet.clone() as Arc<dyn CommBackend>));
        assert_eq!(got.sorted_rows(), expected.sorted_rows());
        assert_eq!((model(&comm), comm.broadcasts), (model(&sim_comm), 1));
        assert_eq!(shipped, workers, "every worker is sent the constant every time");
    }
    assert_eq!(fleet.health_snapshot().rows_resident, resident);

    let cluster = Cluster::new(workers).with_backend(fleet.clone() as Arc<dyn CommBackend>);
    for _ in 0..2 {
        cluster.broadcast_rel(&small, None).unwrap();
    }
    let payload = wire::encode_relation(&small).len() as u64;
    assert_eq!(cluster.metrics().snapshot().wire_exchange_bytes, 2 * workers as u64 * payload);
    fleet.shutdown();
}

/// A worker holds at most `REPLICA_CAP` bytes of replicas: past it the
/// coordinator evicts the least recently used and names them in the next
/// broadcast, and its record of what the worker holds equals what the
/// worker reports, broadcast after broadcast. One worker, one 8 MiB
/// relation offered under ten names to a 64 MiB store.
#[test]
fn replicas_past_the_cap_are_evicted_and_the_record_matches_the_worker() {
    let fleet = proc_cluster(1);
    let cluster = Cluster::new(1).with_backend(fleet.clone() as Arc<dyn CommBackend>);
    // Node ids past 32 bits cost 8 bytes each: 16 bytes a row.
    let rows = 1u64 << 19;
    let rel =
        Relation::from_pairs(Sym(0), Sym(1), (0..rows).map(|i| ((1 << 40) + i, (1 << 41) + i)));
    let size = wire::encode_relation(&rel).len() as u64;
    let id = |term| Some(ReplicaId { term, version: 1 });
    let audited = || {
        let (recorded, reported) = fleet.replica_audit()[0];
        assert_eq!(Some(recorded), reported, "the coordinator's record is the worker's report");
        assert!(recorded.1 <= REPLICA_CAP, "{recorded:?} past the cap");
        recorded
    };
    let offered = REPLICA_CAP / size + 2;
    for term in 0..offered {
        cluster.broadcast_rel(&rel, id(term)).unwrap();
        audited();
    }
    let (held, bytes) = audited();
    assert_eq!((held, bytes), (REPLICA_CAP / size, held * size));
    assert_eq!(fleet.worker_snapshot().replica_evictions, offered - held);

    let shipped = || cluster.metrics().snapshot().wire_exchange_bytes;
    let before = shipped();
    cluster.broadcast_rel(&rel, id(offered - 1)).unwrap();
    assert_eq!(shipped(), before, "the newest replica is held");
    cluster.broadcast_rel(&rel, id(0)).unwrap();
    assert_eq!(shipped(), before + size, "the oldest was evicted, and ships again");
    assert_eq!(audited(), (held, bytes));
    fleet.shutdown();
}

/// A bucket that stays on its worker never leaves the coordinator: a
/// 1-worker exchange moves no payload byte, and a 2-worker exchange moves
/// exactly its crossing buckets, each twice (out and echoed back), and
/// encodes their rows alone — partitions equal to the simulator's. Under
/// injected drops and duplicates (every bucket, then a seeded half) each
/// destination's bag holds the simulator's rows, copy for copy: a
/// duplicate arrives twice, a copy lost in transit never.
#[test]
fn only_buckets_that_change_worker_cross_a_socket() {
    let schema = Schema::new(vec![Sym(0), Sym(1)]);
    for workers in [1, 2] {
        let fleet = proc_cluster(workers);
        let buckets: Vec<Vec<Rows>> = (0..workers)
            .map(|from| {
                (0..workers)
                    .map(|to| {
                        let mut rows = Rows::new(2);
                        for i in 0..(10 + 7 * from + 3 * to) as u64 {
                            rows.push(&[Value::node((from * 2 + to) as u64), Value::node(i)]);
                        }
                        rows
                    })
                    .collect()
            })
            .collect();
        let sim = Cluster::new(workers).exchange_at(0, &schema, buckets.clone()).unwrap();
        let cluster = Cluster::new(workers).with_backend(fleet.clone() as Arc<dyn CommBackend>);
        let encoded = fleet.health_snapshot().rows_encoded;
        let parts = cluster.exchange_at(0, &schema, buckets.clone()).unwrap();
        assert_eq!(parts, sim, "{workers} workers");
        let crossing = (0..workers)
            .flat_map(|from| (0..workers).filter(move |&to| to != from).map(move |to| (from, to)));
        let (mut bytes, mut rows) = (0, 0);
        for (from, to) in crossing {
            bytes += wire::encode_rows(2, &buckets[from][to]).len() as u64;
            rows += buckets[from][to].len() as u64;
        }
        let comm = cluster.metrics().snapshot();
        assert_eq!(comm.wire_exchange_bytes, 2 * bytes, "{workers} workers");
        assert_eq!(fleet.health_snapshot().rows_encoded - encoded, rows);
        if workers == 1 {
            assert_eq!((comm.wire_tx_bytes, comm.wire_rx_bytes), (0, 0), "nothing on a socket");
        }
        for prob in [1.0, 0.5] {
            let bags = |cluster: Cluster| -> Vec<Vec<Vec<Value>>> {
                let faults = FaultConfig {
                    seed: chaos_seed(),
                    drop_prob: prob,
                    duplicate_prob: prob,
                    ..Default::default()
                };
                let plan = Arc::new(FaultPlan::new(faults));
                let cluster = cluster.with_faults(plan, RecoveryPolicy::default());
                let bags = cluster.exchange_bags_at(0, &schema, buckets.clone()).unwrap();
                let multiset = |bag: Rows| {
                    let mut rows: Vec<Vec<Value>> = bag.iter().map(<[Value]>::to_vec).collect();
                    rows.sort();
                    rows
                };
                bags.into_iter().map(multiset).collect()
            };
            let sim = bags(Cluster::new(workers));
            let fleet_bags = bags(Cluster::new(workers).with_backend(fleet.clone()));
            assert_eq!(fleet_bags, sim, "{workers} workers, drop = duplicate = {prob}");
        }
        fleet.shutdown();
    }
}

/// A cancelled exchange leaves other queries' exchanges alone. While one
/// query runs, another keeps cancelling its exchanges before their first
/// attempt, and the survivor finishes with no retry: its answer, fault
/// counts, wire bytes and encoded rows equal an undisturbed run's (both
/// on a warm fleet), and no control connection was made again. The
/// survivor runs under a fault plan that only stalls for 0 ms, so its
/// fault coordinates are rolled too.
#[test]
fn a_cancelled_exchange_leaves_other_queries_buckets_alone() {
    use mura_core::CancellationToken;
    use std::sync::atomic::{AtomicBool, Ordering};
    let workers = 2;
    let fleet = proc_cluster(workers);
    let mut db = er_db(7);
    let expected = centralized(&mut db, TC_QUERY);
    let config = || ExecConfig {
        workers,
        plan: FixpointPlan::ForceGld,
        fault: FaultConfig {
            seed: 1,
            straggler_prob: 1.0,
            straggler_delay_ms: 0,
            ..Default::default()
        },
        backend: Some(fleet.clone() as Arc<dyn CommBackend>),
        ..Default::default()
    };
    run_on(&db, TC_QUERY, config()); // The replicas ship here.
    let measured = || {
        let before = fleet.health_snapshot();
        let (got, faults, comm) = run_on(&db, TC_QUERY, config());
        assert_eq!(got.sorted_rows(), expected.sorted_rows());
        let after = fleet.health_snapshot();
        let moved = (after.rows_encoded - before.rows_encoded, comm.wire_exchange_bytes);
        (faults.counts(), moved, after.reconnects - before.reconnects)
    };
    let undisturbed = measured();
    let stop = AtomicBool::new(false);
    let started = std::sync::Barrier::new(2);
    let (disturbed, cancelled) = std::thread::scope(|s| {
        let canceller = s.spawn(|| {
            let cancel = CancellationToken::new();
            cancel.cancel();
            let cluster = Cluster::new(workers)
                .with_backend(fleet.clone() as Arc<dyn CommBackend>)
                .with_cancel(Some(cancel));
            let schema = Schema::new(vec![Sym(0), Sym(1)]);
            let mut cancelled = 0u64;
            loop {
                let buckets = (0..workers).map(|_| vec![Rows::new(2); workers]).collect();
                assert!(cluster.exchange_at(0, &schema, buckets).is_err());
                cancelled += 1;
                if cancelled == 1 {
                    started.wait(); // The survivor starts after the first cancel.
                }
                if stop.load(Ordering::Relaxed) {
                    return cancelled;
                }
            }
        });
        started.wait();
        let disturbed = measured();
        stop.store(true, Ordering::Relaxed);
        (disturbed, canceller.join().unwrap())
    });
    assert!(cancelled > 0, "nothing was cancelled alongside");
    assert_eq!(disturbed, undisturbed);
    assert_eq!(disturbed.2, 0, "a control connection was made again");
    fleet.shutdown();
}
