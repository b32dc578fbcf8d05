//! Where a `P_gld` superstep's row budget is checked: every worker charges
//! a branch's output as soon as the branch has produced it, so a superstep
//! whose first branch breaches the budget never evaluates the second one.
//!
//! Seen through the process-wide kernel counters, so the test lives alone
//! in its own integration-test binary (see `kernel_counters.rs`).

use mura_core::kernel::kernel_stats;
use mura_core::{Database, MuraError, Relation, Term};
use mura_dist::exec::ResourceLimits;
use mura_dist::{DistEvaluator, ExecConfig, FixpointPlan};

/// Seed rows of the fixpoint below.
const SEED: u64 = 4;
/// Targets each seed row reaches through either edge relation.
const FAN_OUT: u64 = 50;

#[test]
fn an_over_budget_branch_stops_the_superstep_before_the_next_branch() {
    let mut db = Database::new();
    let (src, dst) = (db.intern("src"), db.intern("dst"));
    let (m, x) = (db.intern("m"), db.intern("X"));
    let seed = db.insert_relation("S", Relation::from_pairs(src, dst, (0..SEED).map(|i| (i, i))));
    // Two edge relations over disjoint targets: one recursive branch each.
    let edges = |name: &str, base: u64, db: &mut Database| {
        let pairs = (0..SEED).flat_map(|i| (0..FAN_OUT).map(move |j| (i, base + i * FAN_OUT + j)));
        db.insert_relation(name, Relation::from_pairs(src, dst, pairs))
    };
    let (e, f) = (edges("E", 1_000, &mut db), edges("F", 2_000, &mut db));
    let branch = |r| Term::var(x).rename(dst, m).join(Term::var(r).rename(src, m)).antiproject(m);
    let term = Term::var(seed).union(branch(e)).union(branch(f)).fix(x);

    // Charged before the first superstep: the seed, and both edge
    // relations as read and as renamed for the join. Every worker with
    // seed rows then produces at least `FAN_OUT` rows in its first branch,
    // more than the cap leaves.
    let before_loop = SEED + 4 * SEED * FAN_OUT;
    let cap = before_loop + FAN_OUT - 1;
    let config = ExecConfig {
        workers: 2,
        plan: FixpointPlan::ForceGld,
        limits: ResourceLimits { max_rows: Some(cap), max_bytes: None, timeout: None },
        ..Default::default()
    };
    let before = kernel_stats().snapshot();
    let err = DistEvaluator::new(&db, config).eval_collect(&term).expect_err("over budget");
    let d = kernel_stats().snapshot().since(&before);
    // It fired in the superstep, on a branch's output.
    let MuraError::ResourceExhausted { reached, .. } = err else { panic!("{err}") };
    assert!(reached >= before_loop + FAN_OUT, "{err}");
    // Both branches were prepared, but each worker probed its seed rows
    // into one of them only: it never ran its second branch.
    assert_eq!(d.index_builds, 2, "{d:?}");
    assert_eq!(d.join_probes, SEED, "{d:?}");
}
