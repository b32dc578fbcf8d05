//! Regression tests for the loop-invariant guarantees of the prepared
//! kernels, verified through the process-wide kernel counters:
//!
//! * constant subtrees are folded **once at prepare time** (counted via the
//!   `const_folds` probe), never re-evaluated during iteration;
//! * the build-side join index is constructed **once per fixpoint**, not
//!   once per iteration or once per worker;
//! * the fused recursive step probes that index **once per delta row** and
//!   materialises **only the rows the chain puts out** — the rename below
//!   the join and the antiprojection above it cost no row.
//!
//! The counters are global to the process, so everything lives in a single
//! `#[test]` in its own integration-test binary: no other test can run
//! concurrently and pollute the deltas.

use mura_core::kernel::kernel_stats;
use mura_core::{Database, Relation, Sym, Term};
use mura_dist::localfix::{local_fixpoint_prepared, prepare, Budget, Prepared};
use mura_dist::{DistEvaluator, ExecConfig, FixpointPlan, LocalEngine};

fn tc_setup() -> (Database, Relation, Term, Sym) {
    let mut db = Database::new();
    let src = db.intern("src");
    let dst = db.intern("dst");
    let m = db.intern("m");
    let x = db.intern("X");
    // A long chain: many semi-naive iterations.
    let e = Relation::from_pairs(src, dst, (0..12).map(|i| (i, i + 1)));
    // The `ρ_src→m(Cst(E))` subtree is x-free: it must fold to a single
    // pre-materialized constant and feed a cached join index.
    let step = Term::var(x).rename(dst, m).join(Term::cst(e.clone()).rename(src, m)).antiproject(m);
    (db, e, step, x)
}

#[test]
fn const_folds_and_index_builds_happen_once_per_fixpoint() {
    let (db, e, step, x) = tc_setup();

    // --- prepare: folding and index build happen here, exactly once ---
    let before = kernel_stats().snapshot();
    let prepared: Vec<Prepared<Relation>> = vec![prepare(&step, x, e.schema()).unwrap()];
    let after_prepare = kernel_stats().snapshot().since(&before);
    assert_eq!(
        after_prepare.const_folds, 1,
        "exactly the rename-of-constant subtree must fold at prepare time"
    );
    assert_eq!(after_prepare.index_builds, 1, "one join index per constant join side");

    // --- iteration: no folding, no index rebuilds, only probes ---
    let before_loop = kernel_stats().snapshot();
    let budget = Budget::new(None, None);
    let out = local_fixpoint_prepared(&e, &prepared, &budget).unwrap();
    let during_loop = kernel_stats().snapshot().since(&before_loop);
    assert_eq!(out.len(), 12 * 13 / 2, "TC of a 12-edge chain");
    assert!(during_loop.iterations >= 10, "chain TC needs many iterations: {during_loop:?}");
    assert_eq!(
        during_loop.const_folds, 0,
        "constant subtrees must not be re-evaluated during iteration"
    );
    assert_eq!(
        during_loop.index_builds, 0,
        "the join index must be reused across all iterations, never rebuilt"
    );
    // Every row of the closure is in the delta of exactly one iteration, and
    // in a chain every derived row has exactly one derivation.
    assert_eq!(
        during_loop.join_probes,
        out.len() as u64,
        "each delta row probes the cached index once: {during_loop:?}"
    );
    assert_eq!(
        during_loop.rows_allocated,
        (out.len() - e.len()) as u64,
        "the fused step materialises the chain's output rows and nothing else: {during_loop:?}"
    );
    assert!(during_loop.eval_nanos > 0, "per-iteration kernel timings must be recorded");

    // --- distributed P_plw: prepare is shared, so still once per fixpoint
    //     (not once per worker, not once per iteration) ---
    let (term, workers) = (Term::cst(e.clone()).union(step.clone()).fix(x), 4usize);
    let config = ExecConfig {
        plan: FixpointPlan::ForcePlw,
        local_engine: LocalEngine::SetRdd,
        workers,
        ..Default::default()
    };
    let mut ev = DistEvaluator::new(&db, config);
    let got = ev.eval_collect(&term).unwrap();
    assert_eq!(got.len(), 12 * 13 / 2);
    let k = ev.stats().kernel;
    assert_eq!(
        (k.index_builds, k.closure_kernels),
        (1, 1),
        "P_plw with {workers} workers must build the closure kernel's adjacency once per fixpoint: {k:?}"
    );
    // The distributed evaluator hoists x-free subtrees at the Term level
    // (evaluated once, bound to fresh constants) before `prepare` runs, so
    // nothing is left for prepare-time folding to do.
    assert_eq!(k.const_folds, 0, "hoisting already folded the invariant subtree: {k:?}");
    assert!(k.iterations > 0);

    // --- P_gld: the driver loop shares one prepared kernel as well ---
    let config = ExecConfig { plan: FixpointPlan::ForceGld, workers, ..Default::default() };
    let mut ev = DistEvaluator::new(&db, config);
    let got = ev.eval_collect(&term).unwrap();
    assert_eq!(got.len(), 12 * 13 / 2);
    let k = ev.stats().kernel;
    assert_eq!(
        (k.index_builds, k.closure_kernels),
        (1, 0),
        "P_gld must build the join index once per fixpoint, not per iteration: {k:?}"
    );
    assert_eq!(k.const_folds, 0, "hoisting already folded the invariant subtree: {k:?}");

    pinned_counts_on_a_random_graph();
    a_failed_superstep_is_not_counted();
    an_empty_seed_compiles_nothing();
}

/// A `P_plw` fixpoint whose seed is empty, and which resumes nothing,
/// derives nothing: it builds neither the chain's join index nor the
/// closure kernel's adjacency, and answers the empty relation.
fn an_empty_seed_compiles_nothing() {
    let (mut db, e, step, x) = tc_setup();
    let src = db.intern("src");
    let seed = Term::cst(e).filter_eq(src, 100i64);
    let term = seed.union(step).fix(x);
    let config = ExecConfig { plan: FixpointPlan::ForcePlw, workers: 4, ..Default::default() };
    let mut ev = DistEvaluator::new(&db, config);
    assert!(ev.eval_collect(&term).unwrap().is_empty());
    let k = ev.stats().kernel;
    assert_eq!((k.index_builds, k.closure_kernels), (0, 0), "{k:?}");
}

/// An iteration is counted when its superstep completes — by the loop, the
/// same way under `P_gld` and `P_plw`; the attempt that failed is not. With
/// a checkpoint after every superstep no completed one is ever replayed, so
/// a run that recovered from hard faults counts exactly what the fault-free
/// run counts, and one superstep event per counted iteration.
fn a_failed_superstep_is_not_counted() {
    use mura_dist::{FaultConfig, RecoveryPolicy, TraceLevel};
    let (db, e, step, x) = tc_setup();
    let term = Term::cst(e).union(step).fix(x);
    // Four failures per afflicted coordinate. Under `P_gld` they outlast the
    // task retries, so the superstep fails; a `P_plw` worker loop fails at
    // its own coordinates whatever the task retries are, and enough of them
    // keep its stage from being run (and counted) a second time.
    for (plan, max_retries) in [(FixpointPlan::ForceGld, 2), (FixpointPlan::ForcePlw, 4)] {
        let run = |fault: FaultConfig| {
            let config = ExecConfig {
                plan,
                fault,
                recovery: RecoveryPolicy { max_retries, max_restores: 64, ..Default::default() },
                checkpoint_every: 1,
                trace: TraceLevel::Superstep,
                ..Default::default()
            };
            let mut ev = DistEvaluator::new(&db, config);
            assert_eq!(ev.eval_collect(&term).unwrap().len(), 12 * 13 / 2);
            let stats = ev.stats().clone();
            let events = stats.trace.as_ref().unwrap().supersteps().count() as u64;
            (stats.kernel.iterations, stats.fixpoint_iterations, events, stats.fault)
        };
        let (clean_kernel, clean_stats, clean_events, _) = run(FaultConfig::default());
        let hard =
            FaultConfig { seed: 3, panic_prob: 0.15, failures_per_site: 4, ..Default::default() };
        let (kernel, stats, events, faults) = run(hard);
        assert!(faults.checkpoint_restores + faults.full_restarts > 0, "{plan:?}: {faults}");
        assert!(plan == FixpointPlan::ForceGld || faults.stage_reruns == 0, "{plan:?}: {faults}");
        assert_eq!(faults.iterations_replayed, 0, "{plan:?}: {faults}");
        assert_eq!((kernel, stats), (clean_kernel, clean_stats), "{plan:?}: {faults}");
        assert_eq!((events, clean_events), (kernel, clean_kernel), "{plan:?}");
    }
}

/// The counters are defined over sets of rows, not over how rows are
/// stored: on a graph where no formula gives them (a seeded Erdős–Rényi
/// graph with cycles and many derivations per row), every plan counts
/// what it counted when a relation was a hash set of boxed rows — the
/// values below were recorded at that commit.
fn pinned_counts_on_a_random_graph() {
    let mut db = Database::new();
    let (src, dst) = (db.intern("src"), db.intern("dst"));
    let (m, x) = (db.intern("m"), db.intern("X"));
    let g = mura_datagen::er::erdos_renyi(300, 0.009, 11);
    let e = Relation::from_pairs(src, dst, g.plain_edges());
    let step = Term::var(x).rename(dst, m).join(Term::cst(e.clone()).rename(src, m)).antiproject(m);
    let term = Term::cst(e.clone()).union(step).fix(x);
    let mut answers = Vec::new();
    for (plan, engine, pinned) in [
        (FixpointPlan::ForcePlw, LocalEngine::SetRdd, KERNEL),
        (FixpointPlan::ForcePlw, LocalEngine::Sorted, CHAINS),
        (FixpointPlan::ForceGld, LocalEngine::SetRdd, CHAINS),
    ] {
        let config = ExecConfig { plan, local_engine: engine, workers: 3, ..Default::default() };
        let mut ev = DistEvaluator::new(&db, config);
        answers.push(ev.eval_collect(&term).unwrap());
        let k = ev.stats().kernel;
        assert_eq!(
            (k.join_probes, k.index_builds, k.rows_allocated, k.closure_kernels),
            pinned,
            "{plan:?}/{engine:?} over {} edges, {} closure rows",
            e.len(),
            answers[0].len()
        );
    }
    assert!(answers.iter().all(|a| *a == answers[0]));
}

/// `(join_probes, index_builds, rows_allocated, closure_kernels)` of the
/// closure of the 409-edge graph through the semi-naive chains: one probe
/// per closure row, 32,350 derivations of its 23,923 rows. The same under
/// both plans and engines — the deltas are the same sets.
const CHAINS: (u64, u64, u64, u64) = (23_923, 1, 32_350, 0);

/// The same through the closure kernel (`P_plw` on SetRDD): one adjacency
/// read per closure row (every target is a node of E), one adjacency build,
/// and each of the 23,923 rows emitted once — no derivation is repeated.
const KERNEL: (u64, u64, u64, u64) = (23_923, 1, 23_923, 1);
