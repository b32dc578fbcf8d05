//! Resource-limit coverage across both fixpoint plans: row-cap exhaustion,
//! byte-budget breach, timeout expiry and token cancellation must abort
//! cleanly (no hang, no panic) under `P_gld` and `P_plw`.

use mura_core::{CancellationToken, Database, MuraError, Relation};
use mura_dist::exec::{ExecConfig, FixpointPlan, ResourceLimits};
use mura_dist::QueryEngine;
use std::time::Duration;

/// A directed cycle: its transitive closure has n² rows after n
/// iterations, so every budget gets plenty of chances to trip.
fn cycle_db(n: u64) -> Database {
    let mut db = Database::new();
    let src = db.intern("src");
    let dst = db.intern("dst");
    db.insert_relation("e", Relation::from_pairs(src, dst, (0..n).map(|i| (i, (i + 1) % n))));
    db
}

const TC: &str = "?x, ?y <- ?x e+ ?y";

const PLANS: [FixpointPlan; 2] = [FixpointPlan::ForceGld, FixpointPlan::ForcePlw];

fn run_on(
    n: u64,
    plan: FixpointPlan,
    limits: ResourceLimits,
    cancel: Option<CancellationToken>,
) -> Result<usize, MuraError> {
    let config = ExecConfig { plan, limits, cancel, ..Default::default() };
    let mut engine = QueryEngine::with_config(cycle_db(n), config);
    engine.run_ucrpq(TC).map(|out| out.relation.len())
}

fn run(
    plan: FixpointPlan,
    limits: ResourceLimits,
    cancel: Option<CancellationToken>,
) -> Result<usize, MuraError> {
    run_on(400, plan, limits, cancel)
}

#[test]
fn max_rows_exhaustion_aborts_every_plan() {
    for plan in PLANS {
        let limits = ResourceLimits { max_rows: Some(500), max_bytes: None, timeout: None };
        let err =
            run(plan, limits, None).expect_err("closure of 160k rows must trip a 500-row cap");
        assert!(
            matches!(err, MuraError::ResourceExhausted { .. }),
            "{plan:?}: expected ResourceExhausted, got {err}"
        );
    }
}

#[test]
fn max_bytes_breach_reports_memory_exceeded_on_every_plan() {
    for plan in PLANS {
        // 64 KiB covers the 400-row edge relation but not the 160k-row
        // closure: the budget must trip mid-recursion, typed, on all plans.
        let limits = ResourceLimits { max_rows: None, max_bytes: Some(64 << 10), timeout: None };
        let err = run(plan, limits, None).expect_err("closure must blow a 64 KiB byte budget");
        assert!(
            matches!(err, MuraError::MemoryExceeded { .. }),
            "{plan:?}: expected MemoryExceeded, got {err}"
        );
        if let MuraError::MemoryExceeded { used, limit } = err {
            assert_eq!(limit, 64 << 10);
            assert!(used > limit, "reported usage {used} must exceed the limit {limit}");
        }
    }
}

#[test]
fn timeout_expiry_aborts_every_plan() {
    for plan in PLANS {
        let limits = ResourceLimits {
            max_rows: None,
            max_bytes: None,
            timeout: Some(Duration::from_millis(1)),
        };
        let err = run(plan, limits, None).expect_err("1 ms budget must expire");
        assert!(matches!(err, MuraError::Timeout { millis: 1 }), "{plan:?}: got {err}");
        assert_eq!(err.to_string(), "evaluation timed out after 1 ms", "{plan:?}");
    }
}

#[test]
fn pre_cancelled_token_aborts_every_plan() {
    for plan in PLANS {
        let token = CancellationToken::new();
        token.cancel();
        let err = run(plan, ResourceLimits::default(), Some(token))
            .expect_err("cancelled token must abort");
        assert!(matches!(err, MuraError::Cancelled), "{plan:?}: expected Cancelled, got {err}");
    }
}

#[test]
fn token_deadline_reports_deadline_exceeded() {
    for plan in PLANS {
        let token = CancellationToken::with_timeout(Duration::from_millis(1));
        let err = run(plan, ResourceLimits::default(), Some(token))
            .expect_err("1 ms token deadline must expire");
        assert!(
            matches!(err, MuraError::DeadlineExceeded { millis: 1 }),
            "{plan:?}: expected DeadlineExceeded, got {err}"
        );
    }
}

#[test]
fn generous_limits_do_not_interfere() {
    for plan in PLANS {
        let limits = ResourceLimits {
            max_rows: Some(10_000_000),
            max_bytes: Some(1 << 32),
            timeout: Some(Duration::from_secs(600)),
        };
        // Small cycle: this one runs to completion, keep it quick.
        let n = run_on(80, plan, limits, Some(CancellationToken::new()))
            .expect("generous budgets must not abort");
        assert_eq!(n, 80 * 80, "{plan:?}: full closure expected");
    }
}

/// What a resumed `P_plw` loop charges for the state it starts from does
/// not depend on whether the query is traced: one `max_bytes`, one verdict.
#[test]
fn resumed_plw_fixpoint_breaches_max_bytes_traced_or_not() {
    use mura_core::{term_key, Term};
    use mura_dist::{DistEvaluator, FixResume, TraceLevel};
    use std::sync::Arc;

    // Closure of a 60-edge chain: the maintained total (1830 rows) dwarfs
    // the seed (60 rows), so charging one for the other shows.
    let mut db = Database::new();
    let (src, dst) = (db.intern("src"), db.intern("dst"));
    let (m, x) = (db.intern("m"), db.intern("X"));
    let e = db.insert_relation("e", Relation::from_pairs(src, dst, (0..60).map(|i| (i, i + 1))));
    let step = Term::var(x).rename(dst, m).join(Term::var(e).rename(src, m)).antiproject(m);
    let term = Term::var(e).union(step).fix(x);
    let total = mura_core::eval(&term, &db).unwrap();
    let frontier = Relation::from_pairs(src, dst, [(0, 1)]);
    let resume = FixResume { acc: total.clone(), delta: frontier };
    let resume = Arc::new([(term_key(&term), resume)].into_iter().collect());

    let breached = |trace: TraceLevel, max_bytes: u64| {
        let config = ExecConfig {
            plan: FixpointPlan::ForcePlw,
            limits: ResourceLimits { max_rows: None, max_bytes: Some(max_bytes), timeout: None },
            trace,
            resume: Some(Arc::clone(&resume)),
            ..Default::default()
        };
        match DistEvaluator::new(&db, config).eval_collect(&term) {
            Ok(out) => {
                assert_eq!(out.len(), total.len());
                false
            }
            Err(MuraError::MemoryExceeded { .. }) => true,
            Err(other) => panic!("{trace:?} under {max_bytes} bytes: {other}"),
        }
    };
    let mut verdicts = Vec::new();
    let mut max_bytes = 4u64 << 10;
    while max_bytes < 4 << 20 {
        let untraced = breached(TraceLevel::Off, max_bytes);
        assert_eq!(
            untraced,
            breached(TraceLevel::Superstep, max_bytes),
            "tracing changed the verdict under max_bytes = {max_bytes}"
        );
        verdicts.push(untraced);
        max_bytes += max_bytes / 8;
    }
    assert!(verdicts.contains(&true) && verdicts.contains(&false), "{verdicts:?}");
}
