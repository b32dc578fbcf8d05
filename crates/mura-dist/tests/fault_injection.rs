//! Chaos tests for the fault-injection / recovery subsystem.
//!
//! Three properties, over both fixpoint plans (`P_gld`, `P_plw`) on random
//! Erdős–Rényi graphs:
//!
//! 1. **Determinism** — the same `FaultConfig` seed over the same query
//!    produces the same answer *and* the same [`FaultSnapshot`] counts
//!    (wall-clock time excluded) on every run;
//! 2. **Recovery** — under each fault class (worker panic, transient task
//!    error, dropped/duplicated exchange message, straggler delay) the
//!    answer equals the fault-free centralized evaluation, the relevant
//!    injection counters are nonzero, and no failure goes unrecovered (the
//!    query returns `Ok`);
//! 3. **Liveness under deadlines** — a deadline expiring mid-retry
//!    surfaces as `DeadlineExceeded`, never as a hang.
//!
//! The chaos CI job sweeps `MURA_CHAOS_SEED` over a seed matrix through
//! these same tests.

use mura_core::{eval, CancellationToken, MuraError, Relation};
use mura_datagen::{erdos_renyi, with_random_labels, SplitMix64};
use mura_dist::{
    ExecConfig, FaultConfig, FaultSnapshot, FixpointPlan, QueryEngine, RecoveryPolicy,
};
use mura_ucrpq::{parse_ucrpq, to_mura};
use std::time::Duration;

const TC_QUERY: &str = "?x, ?y <- ?x a1+ ?y";
const PLANS: [FixpointPlan; 2] = [FixpointPlan::ForceGld, FixpointPlan::ForcePlw];

/// Base seed for the run; the chaos CI job sweeps it via `MURA_CHAOS_SEED`.
/// The default is a seed verified to drive every recovery path (task
/// retries, stage reruns, checkpoint restores and full restarts).
fn chaos_seed() -> u64 {
    std::env::var("MURA_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(3)
}

fn er_db(graph_seed: u64) -> mura_core::Database {
    let mut rng = SplitMix64::seed_from_u64(graph_seed);
    let g = erdos_renyi(80, 0.025, graph_seed);
    let lg = with_random_labels(&g, 2, &mut rng);
    lg.to_database()
}

/// Fault-free centralized reference answer.
fn centralized(db: &mut mura_core::Database, query: &str) -> Relation {
    let q = parse_ucrpq(query).unwrap();
    let term = to_mura(&q, db).unwrap();
    eval(&term, db).unwrap()
}

/// Runs `query` distributed under `config`; returns the answer and the
/// fault counters.
fn run(db: &mura_core::Database, query: &str, config: ExecConfig) -> (Relation, FaultSnapshot) {
    let mut engine = QueryEngine::with_config(db.clone(), config);
    let out = engine.run_ucrpq(query).unwrap();
    (out.relation, out.stats.fault)
}

#[test]
fn same_seed_same_answer_and_same_fault_counts() {
    let base = chaos_seed();
    for plan in PLANS {
        for offset in 0..3u64 {
            let fault_seed = base.wrapping_add(offset);
            let mut db = er_db(5);
            let expected = centralized(&mut db, TC_QUERY);
            let config = || ExecConfig {
                workers: 4,
                plan,
                fault: FaultConfig::chaos(fault_seed),
                checkpoint_every: 2,
                ..Default::default()
            };
            let (r1, f1) = run(&db, TC_QUERY, config());
            let (r2, f2) = run(&db, TC_QUERY, config());
            assert_eq!(
                r1.sorted_rows(),
                expected.sorted_rows(),
                "{plan:?} seed {fault_seed}: answer under chaos diverged from centralized"
            );
            assert_eq!(
                r2.sorted_rows(),
                expected.sorted_rows(),
                "{plan:?} seed {fault_seed}: second run diverged"
            );
            assert_eq!(
                f1.counts(),
                f2.counts(),
                "{plan:?} seed {fault_seed}: fault counts must be reproducible"
            );
            assert!(
                f1.injected() > 0,
                "{plan:?} seed {fault_seed}: chaos profile injected nothing: {f1}"
            );
        }
    }
}

#[test]
fn worker_panics_recover_on_every_plan() {
    for plan in PLANS {
        let mut db = er_db(5);
        let expected = centralized(&mut db, TC_QUERY);
        let config = ExecConfig {
            workers: 4,
            plan,
            fault: FaultConfig {
                seed: chaos_seed(),
                panic_prob: 0.9,
                failures_per_site: 1, // heals within the task retry budget
                ..Default::default()
            },
            checkpoint_every: 2,
            ..Default::default()
        };
        let (got, f) = run(&db, TC_QUERY, config);
        assert_eq!(got.sorted_rows(), expected.sorted_rows(), "{plan:?} under panics");
        assert!(f.injected_panics > 0, "{plan:?}: no panic injected: {f}");
        assert!(f.recovered(), "{plan:?}: panics must leave recovery traces: {f}");
    }
}

#[test]
fn transient_errors_recover_on_every_plan() {
    for plan in PLANS {
        let mut db = er_db(5);
        let expected = centralized(&mut db, TC_QUERY);
        let config = ExecConfig {
            workers: 4,
            plan,
            fault: FaultConfig {
                seed: chaos_seed(),
                transient_prob: 0.9,
                failures_per_site: 1,
                ..Default::default()
            },
            checkpoint_every: 2,
            ..Default::default()
        };
        let (got, f) = run(&db, TC_QUERY, config);
        assert_eq!(got.sorted_rows(), expected.sorted_rows(), "{plan:?} under transients");
        assert!(f.injected_transients > 0, "{plan:?}: no transient injected: {f}");
        assert!(f.recovered(), "{plan:?}: transients must leave recovery traces: {f}");
    }
}

#[test]
fn dropped_and_duplicated_exchanges_keep_answers_exact() {
    for plan in PLANS {
        let mut db = er_db(5);
        let expected = centralized(&mut db, TC_QUERY);
        let config = ExecConfig {
            workers: 4,
            plan,
            fault: FaultConfig {
                seed: chaos_seed(),
                drop_prob: 0.5,
                duplicate_prob: 0.5,
                ..Default::default()
            },
            ..Default::default()
        };
        let (got, f) = run(&db, TC_QUERY, config);
        assert_eq!(got.sorted_rows(), expected.sorted_rows(), "{plan:?} under message faults");
        assert!(
            f.injected_drops + f.injected_duplicates > 0,
            "{plan:?}: no message fault injected: {f}"
        );
    }
}

#[test]
fn stragglers_only_cost_time() {
    for plan in PLANS {
        let mut db = er_db(5);
        let expected = centralized(&mut db, TC_QUERY);
        let config = ExecConfig {
            workers: 4,
            plan,
            fault: FaultConfig {
                seed: chaos_seed(),
                straggler_prob: 0.8,
                straggler_delay_ms: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let (got, f) = run(&db, TC_QUERY, config);
        assert_eq!(got.sorted_rows(), expected.sorted_rows(), "{plan:?} under stragglers");
        assert!(f.injected_stragglers > 0, "{plan:?}: no straggler injected: {f}");
        assert_eq!(f.task_retries, 0, "{plan:?}: stragglers are slow, not failed: {f}");
    }
}

/// Injected memory pressure (a worker pretending its allocation failed)
/// is retryable: after the site heals the answer must be exact, the
/// dedicated counter nonzero, and the run must leave recovery traces.
#[test]
fn memory_pressure_recovers_on_every_plan() {
    for plan in PLANS {
        let mut db = er_db(5);
        let expected = centralized(&mut db, TC_QUERY);
        let config = ExecConfig {
            workers: 4,
            plan,
            fault: FaultConfig {
                seed: chaos_seed(),
                memory_pressure_prob: 0.9,
                failures_per_site: 1,
                ..Default::default()
            },
            checkpoint_every: 2,
            ..Default::default()
        };
        let (got, f) = run(&db, TC_QUERY, config);
        assert_eq!(got.sorted_rows(), expected.sorted_rows(), "{plan:?} under memory pressure");
        assert!(f.injected_memory_pressure > 0, "{plan:?}: no pressure injected: {f}");
        assert!(f.recovered(), "{plan:?}: memory pressure must leave recovery traces: {f}");
    }
}

/// Memory-pressure injection is a pure function of (seed, site, worker,
/// step, attempt): two runs with the same seed must agree on the answer
/// and on every fault counter.
#[test]
fn memory_pressure_same_seed_is_deterministic() {
    for plan in PLANS {
        let mut db = er_db(5);
        let expected = centralized(&mut db, TC_QUERY);
        let config = || ExecConfig {
            workers: 4,
            plan,
            fault: FaultConfig {
                seed: chaos_seed(),
                memory_pressure_prob: 0.7,
                failures_per_site: 2,
                ..Default::default()
            },
            // Most iterations are afflicted and each costs two restores:
            // determinism is the property here, not the restore budget.
            recovery: RecoveryPolicy { max_restores: 64, ..Default::default() },
            checkpoint_every: 2,
            ..Default::default()
        };
        let (r1, f1) = run(&db, TC_QUERY, config());
        let (r2, f2) = run(&db, TC_QUERY, config());
        assert_eq!(r1.sorted_rows(), expected.sorted_rows(), "{plan:?}: first run diverged");
        assert_eq!(r2.sorted_rows(), expected.sorted_rows(), "{plan:?}: second run diverged");
        assert_eq!(f1.counts(), f2.counts(), "{plan:?}: pressure counts must be reproducible");
        assert!(f1.injected_memory_pressure > 0, "{plan:?}: no pressure injected: {f1}");
    }
}

/// A real byte-budget breach is *not* retryable: the recovery machinery
/// must surface `MemoryExceeded` immediately instead of burning retries
/// on a deterministic failure.
#[test]
fn memory_exceeded_is_not_retried() {
    use mura_dist::ResourceLimits;
    for plan in PLANS {
        let db = er_db(5);
        let config = ExecConfig {
            workers: 4,
            plan,
            limits: ResourceLimits { max_rows: None, max_bytes: Some(4 << 10), timeout: None },
            ..Default::default()
        };
        let mut engine = QueryEngine::with_config(db, config);
        let err = engine.run_ucrpq(TC_QUERY).unwrap_err();
        assert!(
            matches!(err, MuraError::MemoryExceeded { .. }),
            "{plan:?}: expected MemoryExceeded, got {err:?}"
        );
    }
}

/// Hard faults (failing longer than the task retry budget) must fall back
/// to superstep checkpoints, or restart the loop when none exists yet, and
/// still produce the exact answer.
#[test]
fn hard_faults_restore_from_checkpoints() {
    let mut total = FaultSnapshot::default();
    for plan in PLANS {
        let mut db = er_db(5);
        let expected = centralized(&mut db, TC_QUERY);
        let config = ExecConfig {
            workers: 4,
            plan,
            fault: FaultConfig {
                seed: chaos_seed(),
                panic_prob: 0.15,
                failures_per_site: 4, // outlasts max_retries = 2
                ..Default::default()
            },
            recovery: RecoveryPolicy { max_restores: 64, ..Default::default() },
            checkpoint_every: 1,
            ..Default::default()
        };
        let (got, f) = run(&db, TC_QUERY, config);
        assert_eq!(got.sorted_rows(), expected.sorted_rows(), "{plan:?} under hard faults");
        eprintln!("hard faults {plan:?}: {f}");
        if f.injected_panics > 0 {
            // Escalation beyond in-task retries: a stage rerun (stateless
            // stage), a checkpoint restore or a restart of the superstep
            // loop, depending on where the panics landed.
            assert!(
                f.stage_reruns + f.checkpoint_restores + f.full_restarts > 0,
                "{plan:?}: hard faults must escalate past task retries: {f}"
            );
            if f.checkpoint_restores + f.full_restarts > 0 {
                assert!(f.rows_replayed > 0, "{plan:?}: recovery must replay state: {f}");
            }
        }
        total.task_retries += f.task_retries;
        total.checkpoint_restores += f.checkpoint_restores;
        total.full_restarts += f.full_restarts;
    }
    if std::env::var("MURA_CHAOS_SEED").is_err() {
        // The default seed is chosen so the checkpoint restore path is
        // exercised somewhere (a swept seed may legitimately miss it).
        assert!(total.task_retries > 0, "default seed must drive task retries: {total}");
        assert!(
            total.checkpoint_restores > 0,
            "default seed must drive checkpoint restores: {total}"
        );
        assert!(total.full_restarts > 0, "default seed must drive full restarts: {total}");
    }
}

/// Satellite: a deadline expiring while the recovery machinery is mid-retry
/// must surface as `DeadlineExceeded` — not hang, and not be masked by the
/// injected fault.
#[test]
fn deadline_mid_retry_is_deadline_exceeded_not_a_hang() {
    for plan in PLANS {
        let db = er_db(5);
        let config = ExecConfig {
            workers: 4,
            plan,
            fault: FaultConfig {
                seed: chaos_seed(),
                transient_prob: 1.0,
                failures_per_site: u32::MAX, // never heals
                ..Default::default()
            },
            recovery: RecoveryPolicy {
                max_retries: 10_000,
                backoff_base_ms: 5,
                backoff_cap_ms: 10,
                max_restores: 10_000,
            },
            cancel: Some(CancellationToken::with_timeout(Duration::from_millis(100))),
            ..Default::default()
        };
        let mut engine = QueryEngine::with_config(db, config);
        let err = engine.run_ucrpq(TC_QUERY).unwrap_err();
        assert!(
            matches!(err, MuraError::DeadlineExceeded { .. }),
            "{plan:?}: expected DeadlineExceeded mid-retry, got {err:?}"
        );
    }
}
