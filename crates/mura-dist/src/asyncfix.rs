//! Asynchronous distributed fixpoint evaluation (`P_async`).
//!
//! The paper notes (§VI) that Myria offers both a synchronous and an
//! *asynchronous* evaluation mode for recursive Datalog. This module
//! implements that third strategy on our substrate, complementing `P_gld`
//! (synchronized iterations) and `P_plw` (no communication at all):
//!
//! * every tuple of the recursive relation is **owned** by the worker its
//!   full-row hash maps to;
//! * workers run independent loops: receive a batch of candidate tuples,
//!   keep the genuinely new ones, apply the recursive step to that delta,
//!   and route the produced tuples to their owners — **no barriers**;
//! * termination uses an in-flight message counter: a batch is counted
//!   before it is sent and un-counted only after the receiver has both
//!   deduplicated it and sent all derived batches, so the counter reads
//!   zero exactly when the system is quiescent.
//!
//! Soundness does not depend on delivery order: the computed set grows
//! monotonically toward the same least fixpoint (Proposition 1), and
//! per-owner deduplication gives semi-naive behaviour.
//!
//! **Fault tolerance.** A worker body is one
//! [`FaultPlan::guarded`](crate::fault::FaultPlan::guarded) attempt: an
//! injected (or genuine) panic surfaces as a retryable
//! `MuraError::WorkerFailed`, any failing worker raises the abort flag,
//! and `DistEvaluator::eval_async_plan` reruns the whole fixpoint from its
//! seed — there is no consistent mid-run snapshot of an asynchronous
//! computation without a Chandy–Lamport-style protocol, so `P_async` always
//! takes the "no checkpoint → full recomputation" recovery path. Injection
//! sites are keyed at worker start (batch boundaries are timing-dependent;
//! worker starts are not) or per accepted row by content hash (the accepted
//! row *set* is deterministic), keeping fault counts reproducible.

use crate::cluster::Cluster;
use crate::distrel::DistRel;
use crate::fault::join_worker;
use crate::fixloop::Supervision;
use crate::localfix::{eval_branch, prepare_all};
use mura_core::fxhash::FxHasher;
use mura_core::{Relation, Result, Rows, Sym, Term, Value};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

fn row_hash(row: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    row.hash(&mut h);
    h.finish()
}

fn row_owner(row: &[Value], n: usize) -> usize {
    (row_hash(row) as usize) % n
}

/// Runs one attempt of the asynchronous fixpoint `μ(x = seed ∪ recs)` at
/// the fault site of `sup`. `recs` must be hoisted (every `x`-free subterm
/// already a constant, as for `P_plw`). The restart supervisor passes the
/// failed attempts so far as `attempt`, the site staying the same, so
/// afflicted workers heal deterministically after
/// [`crate::fault::FaultConfig::failures_per_site`] attempts.
///
/// `resume` carries maintained `(acc, delta)` state for incremental view
/// maintenance: each owner preloads its slice of `acc \ delta` (known
/// totals nothing needs to be derived from again), while the frontier
/// `delta` travels as ordinary batches alongside the seed. A restart of
/// the whole attempt reuses the same resume state, so recovery never
/// degrades to a from-scratch recomputation by accident.
pub fn eval_async_at(
    seed: &DistRel,
    recs: &[Term],
    x: Sym,
    cluster: &Cluster,
    sup: &Supervision<'_>,
    attempt: u32,
    resume: Option<&(Relation, Relation)>,
) -> Result<DistRel> {
    let (budget, fault, site) = (sup.budget, sup.fault, sup.site);
    let n = cluster.workers();
    let schema = seed.schema().clone();
    // Prepare once (constant folding + index builds) and share the branches
    // across all workers — the indexes are built per fixpoint, not per
    // worker or per batch. Their bytes and the seed's are charged before
    // any worker is spawned: an over-budget setup fails typed
    // (MemoryExceeded) instead of mid-recursion.
    let prepared = prepare_all::<Relation>(recs, x, &schema, budget)?;
    budget.charge_bytes(mura_core::rel_bytes(seed.len() as u64, schema.arity()))?;
    let prepared = &prepared;
    // Channels: one inbox per worker; a batch is one flat buffer of rows.
    let mut senders: Vec<Sender<Rows>> = Vec::with_capacity(n);
    let mut receivers: Vec<Receiver<Rows>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (s, r) = channel();
        senders.push(s);
        receivers.push(r);
    }
    // In-flight batches. Sends increment; a receiver decrements only after
    // processing a batch *and* sending everything derived from it.
    let in_flight = AtomicI64::new(0);
    let cross_rows = AtomicI64::new(0);
    // A failing worker (budget/timeout/injected fault) must not leave the
    // others spinning on a counter that will never reach zero.
    let abort = std::sync::atomic::AtomicBool::new(false);

    // Seed every worker with the rows it owns.
    let batches = || -> Vec<Rows> { (0..n).map(|_| Rows::new(schema.arity())).collect() };
    let mut initial = batches();
    for part in seed.parts() {
        for row in part.iter() {
            initial[row_owner(row, n)].push(row);
        }
    }
    // Resumed state: each owner preloads its slice of `acc \ delta` so
    // nothing is re-derived from known totals, while the maintenance
    // frontier rows travel as ordinary batches — a preloaded frontier row
    // would be deduplicated on receipt and never derived from.
    let mut preload = batches();
    if let Some((acc0, delta0)) = resume {
        budget.charge_bytes(mura_core::rel_bytes(acc0.len() as u64, schema.arity()))?;
        for row in acc0.iter() {
            if !delta0.contains(row) {
                preload[row_owner(row, n)].push(row);
            }
        }
        for row in delta0.iter() {
            initial[row_owner(row, n)].push(row);
        }
    }
    for (w, batch) in initial.into_iter().enumerate() {
        if !batch.is_empty() {
            in_flight.fetch_add(1, Ordering::SeqCst);
            senders[w].send(batch).expect("receiver alive");
        }
    }

    // Each worker returns its partition plus locally-counted row drop/dup
    // injections; the counts reach [`FaultPlan`] stats only when the whole
    // attempt succeeds (a worker may process any number of rows before
    // noticing an abort, so mid-abort counts are not reproducible).
    let results: Vec<Result<(Relation, u64, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .zip(preload)
            .enumerate()
            .map(|(me, (inbox, mine))| {
                let senders = senders.clone();
                let schema = schema.clone();
                let in_flight = &in_flight;
                let cross_rows = &cross_rows;
                let abort = &abort;
                scope.spawn(move || -> Result<(Relation, u64, u64)> {
                    // Worker start is the injection point: a panicking or
                    // transiently failing worker models a machine lost
                    // mid-recursion.
                    let out = fault.guarded(site, me, 0, attempt, || {
                        // A slice of a set: distinct already.
                        let mut acc = Relation::from_distinct(schema.clone(), mine);
                        let (mut drops, mut dups) = (0u64, 0u64);
                        loop {
                            let batch = match inbox.recv_timeout(Duration::from_millis(1)) {
                                Ok(b) => b,
                                Err(_) => {
                                    if abort.load(Ordering::SeqCst)
                                        || in_flight.load(Ordering::SeqCst) == 0
                                    {
                                        return Ok((acc, drops, dups));
                                    }
                                    // Keep deadline/cancellation live even
                                    // while idle-waiting for batches.
                                    budget.check()?;
                                    continue;
                                }
                            };
                            if abort.load(Ordering::SeqCst) {
                                return Ok((acc, drops, dups));
                            }
                            budget.check()?;
                            // Deduplicate against what this owner already
                            // has. Each genuinely-new row is also the
                            // deterministic injection point for message
                            // drops (first copy lost, retransmitted) and
                            // duplications (second copy absorbed here by set
                            // semantics) — each owned row is accepted
                            // exactly once per run, so the counts are
                            // reproducible even though batch boundaries are
                            // not.
                            let delta = acc.absorb_new(&batch);
                            if fault.is_active() {
                                for row in delta.iter() {
                                    let h = row_hash(row);
                                    drops += u64::from(fault.would_drop_row(h));
                                    dups += u64::from(fault.would_duplicate_row(h));
                                }
                            }
                            if !delta.is_empty() {
                                budget.charge(delta.len() as u64)?;
                                budget.charge_bytes(mura_core::rel_bytes(
                                    delta.len() as u64,
                                    schema.arity(),
                                ))?;
                                // Apply every recursive branch to the delta
                                // and route the produced rows to their
                                // owners.
                                let mut outgoing = batches();
                                for p in prepared {
                                    let produced = eval_branch(p, &delta);
                                    for row in produced.iter() {
                                        outgoing[row_owner(row, senders.len())].push(row);
                                    }
                                }
                                for (w, out) in outgoing.into_iter().enumerate() {
                                    if out.is_empty() {
                                        continue;
                                    }
                                    if w != me {
                                        cross_rows.fetch_add(out.len() as i64, Ordering::Relaxed);
                                    }
                                    in_flight.fetch_add(1, Ordering::SeqCst);
                                    // A receiver is gone only if its worker
                                    // aborted; the abort flag unblocks
                                    // everyone.
                                    let _ = senders[w].send(out);
                                }
                            }
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                        }
                    });
                    // Any failing exit must raise the abort flag, or the
                    // surviving workers would spin forever on an in-flight
                    // counter that can no longer reach zero.
                    if out.is_err() {
                        abort.store(true, Ordering::SeqCst);
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().enumerate().map(|(i, h)| join_worker(i, h)).collect()
    });
    let mut parts = Vec::with_capacity(n);
    let (mut drops, mut dups) = (0u64, 0u64);
    for r in results {
        let (part, d, u) = r?;
        parts.push(part);
        drops += d;
        dups += u;
    }
    // The attempt succeeded: flush the per-worker injection counts.
    if drops > 0 {
        fault.stats.injected_drops.add(drops);
    }
    if dups > 0 {
        fault.stats.injected_duplicates.add(dups);
    }
    // Account the continuous row routing as one logical shuffle.
    let moved = cross_rows.load(Ordering::Relaxed).max(0) as u64;
    if moved > 0 {
        cluster.metrics().record_shuffle(moved);
    }
    Ok(DistRel::from_parts(schema, parts, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPlan, RecoveryPolicy};
    use crate::localfix::Budget;
    use mura_core::{Database, MuraError};
    use std::sync::Arc;

    /// One attempt at a fresh site of the cluster's plan, under `budget`.
    fn eval_async(
        seed: &DistRel,
        recs: &[Term],
        x: Sym,
        cluster: &Cluster,
        budget: &Budget,
    ) -> Result<DistRel> {
        eval_async_at(seed, recs, x, cluster, &supervision(cluster, budget), 0, None)
    }

    fn supervision<'a>(cluster: &'a Cluster, budget: &'a Budget) -> Supervision<'a> {
        let fault = cluster.fault();
        Supervision { site: fault.next_site(), ..Supervision::inert(budget, fault) }
    }

    fn setup() -> (Database, DistRel, Vec<Term>, Sym, Cluster) {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let m = db.intern("m");
        let x = db.intern("X");
        let e = Relation::from_pairs(
            src,
            dst,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (7, 8), (8, 9)],
        );
        let step =
            Term::var(x).rename(dst, m).join(Term::cst(e.clone()).rename(src, m)).antiproject(m);
        let cluster = Cluster::new(4);
        let seed = DistRel::from_relation(&e, &cluster);
        (db, seed, vec![step], x, cluster)
    }

    #[test]
    fn async_matches_synchronous_fixpoint() {
        let (db, seed, recs, x, cluster) = setup();
        let budget = Budget::new(None, None);
        let out = eval_async(&seed, &recs, x, &cluster, &budget).unwrap();
        // Reference: plain centralized fixpoint.
        let e = seed.collect();
        let term = Term::cst(e).union(recs[0].clone()).fix(x);
        let expected = mura_core::eval(&term, &db).unwrap();
        assert_eq!(out.collect().sorted_rows(), expected.sorted_rows());
    }

    #[test]
    fn async_is_deterministic_in_result() {
        let (_, seed, recs, x, cluster) = setup();
        let budget = Budget::new(None, None);
        let a = eval_async(&seed, &recs, x, &cluster, &budget).unwrap();
        for _ in 0..5 {
            let b = eval_async(&seed, &recs, x, &cluster, &budget).unwrap();
            assert_eq!(a.collect().sorted_rows(), b.collect().sorted_rows());
        }
    }

    #[test]
    fn async_respects_budget() {
        let (_, seed, recs, x, cluster) = setup();
        let budget = Budget::new(Some(3), None);
        let err = eval_async(&seed, &recs, x, &cluster, &budget).unwrap_err();
        assert!(matches!(err, MuraError::ResourceExhausted { .. }));
    }

    #[test]
    fn async_counts_cross_worker_traffic() {
        let (_, seed, recs, x, cluster) = setup();
        let budget = Budget::new(None, None);
        let before = cluster.metrics().snapshot();
        eval_async(&seed, &recs, x, &cluster, &budget).unwrap();
        let delta = cluster.metrics().snapshot().since(&before);
        assert!(delta.rows_shuffled > 0, "{delta:?}");
    }

    #[test]
    fn async_worker_panic_is_captured_not_fatal() {
        let (_, seed, recs, x, _) = setup();
        let cfg = FaultConfig { panic_prob: 1.0, seed: 11, ..Default::default() };
        let plan = Arc::new(FaultPlan::new(cfg));
        let cluster = Cluster::new(4).with_faults(Arc::clone(&plan), RecoveryPolicy::default());
        let budget = Budget::new(None, None);
        let err = eval_async(&seed, &recs, x, &cluster, &budget).unwrap_err();
        assert!(matches!(err, MuraError::WorkerFailed { .. }), "{err:?}");
        assert!(plan.snapshot().injected_panics > 0);
    }

    #[test]
    fn async_heals_on_retried_attempt() {
        // attempt ≥ failures_per_site: the same site no longer fires, so a
        // restart of the whole fixpoint (the supervisor's recovery path)
        // succeeds and matches the fault-free result.
        let (_, seed, recs, x, fault_free) = setup();
        let budget = Budget::new(None, None);
        let expected = eval_async(&seed, &recs, x, &fault_free, &budget).unwrap();
        let cfg = FaultConfig { panic_prob: 1.0, seed: 11, ..Default::default() };
        let plan = Arc::new(FaultPlan::new(cfg));
        let cluster = Cluster::new(4).with_faults(plan, RecoveryPolicy::default());
        let sup = supervision(&cluster, &budget);
        assert!(eval_async_at(&seed, &recs, x, &cluster, &sup, 0, None).is_err());
        let out = eval_async_at(&seed, &recs, x, &cluster, &sup, 1, None).unwrap();
        assert_eq!(out.collect().sorted_rows(), expected.collect().sorted_rows());
    }
}
