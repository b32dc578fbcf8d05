//! The closure kernel (`mura_dist::reach`) against the semi-naive chain it
//! replaces and against centralized evaluation, on seeded random graphs:
//! cycles, self-loops, isolated nodes, seed rows whose targets are outside
//! `E`, integer nodes (direct ids), symbol nodes and sparse large integer
//! ids (both through the id map), growth at either column, and 1–4
//! workers. Then the budgets: `max_rows` and `max_bytes` stop the kernel
//! with their typed errors in the middle of a superstep, cancellation in
//! the middle of its run, and a stopped walk leaves nothing behind.

use mura_core::{
    eval as eval_central, CancellationToken, Database, MuraError, Relation, Sym, Term,
};
use mura_core::{Schema, Value};
use mura_datagen::SplitMix64;
use mura_dist::localfix::{local_fixpoint, local_fixpoint_prepared, prepare, Budget, LocalEngine};
use mura_dist::reach::{Closure, MIN_SEED_SHARE};
use mura_dist::{DistEvaluator, ExecConfig, FixpointPlan};
use std::sync::atomic::{AtomicBool, Ordering};

/// How a case's node values are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Nodes {
    /// Small integers: direct ids when `E` spans few of them per edge.
    Ints,
    /// Interned symbols: the id map.
    Symbols,
    /// Integers a million apart: too sparse for direct ids.
    Sparse,
}

struct Names {
    src: Sym,
    dst: Sym,
    m: Sym,
    x: Sym,
}

/// The recursive branch that grows `forward` at `dst` (composing `dst`
/// with `E`'s `src`) or backward at `src`, `E` already renamed for it.
fn branch(n: &Names, e: &Relation, forward: bool) -> Term {
    if forward {
        Term::var(n.x).rename(n.dst, n.m).join(Term::cst(e.rename(n.src, n.m))).antiproject(n.m)
    } else {
        Term::cst(e.rename(n.dst, n.m)).join(Term::var(n.x).rename(n.src, n.m)).antiproject(n.m)
    }
}

#[test]
fn kernel_chain_and_centralized_agree() {
    let mut direct = 0;
    for case in 0..48u64 {
        let mut rng = SplitMix64::seed_from_u64(case);
        let mut db = Database::new();
        let n = Names {
            src: db.intern("src"),
            dst: db.intern("dst"),
            m: db.intern("m"),
            x: db.intern("X"),
        };
        let nodes = [Nodes::Ints, Nodes::Symbols, Nodes::Sparse][case as usize % 3];
        let forward = case % 2 == 0;
        let size = rng.gen_range(1..20u64);
        let value = |i: u64, db: &mut Database| match nodes {
            Nodes::Ints => Value::node(i),
            Nodes::Symbols => Value::sym(db.intern(&format!("n{i}"))),
            Nodes::Sparse => Value::node(i * 1_000_003 + 17),
        };
        // Edges drawn over `0..size`, self-loops and cycles included; a
        // node `size..size + 3` is isolated and only ever a seed target.
        let p = rng.gen_f64() * 0.3;
        let mut edges = Vec::new();
        for a in 0..size {
            for b in 0..size {
                if rng.gen_bool(p) {
                    edges.push([value(a, &mut db), value(b, &mut db)]);
                }
            }
        }
        let schema = Schema::new(vec![n.src, n.dst]);
        let e = Relation::from_rows(schema.clone(), &edges);
        // The seed: a share of `E`, plus rows into the isolated nodes, until
        // it is large enough for the kernel to take.
        let mut seed_rows: Vec<[Value; 2]> =
            edges.iter().filter(|_| rng.gen_bool(0.5)).copied().collect();
        while seed_rows.len() < 2 || seed_rows.len() * MIN_SEED_SHARE < e.len() {
            let (a, b) = (rng.gen_range(0..size + 3), rng.gen_range(size..size + 3));
            let row = [value(a, &mut db), value(b, &mut db)];
            seed_rows.push(if forward { row } else { [row[1], row[0]] });
        }
        let seed = Relation::from_rows(schema.clone(), &seed_rows);
        let step = branch(&n, &e, forward);
        let term = Term::cst(seed.clone()).union(step.clone()).fix(n.x);
        let expected = eval_central(&term, &db).unwrap().sorted_rows();
        let what = format!("case {case}: {nodes:?}, forward {forward}, {} edges", e.len());

        let closure = Closure::recognise(&step, n.x, &schema, seed.len())
            .unwrap_or_else(|| panic!("{what}: the kernel must take the closure"));
        // One node value is a range of one, whatever its kind.
        let distinct: std::collections::BTreeSet<Value> = e.iter().flatten().copied().collect();
        let by_map = nodes != Nodes::Ints && distinct.len() > 1;
        assert!(!(by_map && closure.direct_ids()), "{what}: ids by map");
        direct += closure.direct_ids() as usize;

        let budget = Budget::new(None, None);
        let recs = std::slice::from_ref(&step);
        let kernel = local_fixpoint(&seed, recs, n.x, LocalEngine::SetRdd, &budget).unwrap();
        assert_eq!(kernel.sorted_rows(), expected, "{what}: kernel");
        let chain = vec![prepare::<Relation>(&step, n.x, &schema).unwrap()];
        let chain = local_fixpoint_prepared(&seed, &chain, &budget).unwrap();
        assert_eq!(chain.sorted_rows(), expected, "{what}: hash chain");
        let workers = 1 + case as usize % 4;
        for plan in [FixpointPlan::Auto, FixpointPlan::ForcePlw] {
            let config = ExecConfig { plan, workers, ..Default::default() };
            let got = DistEvaluator::new(&db, config).eval_collect(&term).unwrap();
            assert_eq!(got.sorted_rows(), expected, "{what}: {plan:?} on {workers} workers");
        }
    }
    assert!(direct > 0, "no case took direct ids");
}

/// A directed cycle of `nodes` nodes as `E`, and as the seed every
/// `nodes / 8`th edge: each of its sources reaches every node, so one
/// superstep emits thousands of rows.
fn cycle(nodes: u64) -> (Database, Relation, Relation, Term, Sym) {
    let mut db = Database::new();
    let n = Names {
        src: db.intern("src"),
        dst: db.intern("dst"),
        m: db.intern("m"),
        x: db.intern("X"),
    };
    let e = Relation::from_pairs(n.src, n.dst, (0..nodes).map(|i| (i, (i + 1) % nodes)));
    let seed =
        Relation::from_pairs(n.src, n.dst, (0..nodes).step_by(8).map(|i| (i, (i + 1) % nodes)));
    let step = branch(&n, &e, true);
    (db, e, seed, step, n.x)
}

#[test]
fn budgets_and_cancellation_stop_the_kernel_inside_its_run() {
    let (_db, e, seed, step, x) = cycle(800);
    let recs = std::slice::from_ref(&step);
    // A superstep walks a quarter of the 100 sources, 799 rows beyond the
    // seed each: an error charged only between supersteps would come after
    // at least that many.
    let superstep = seed.len() as u64 / 4 * 799;
    assert!(Closure::recognise(&step, x, e.schema(), seed.len()).is_some());

    let budget = Budget::new(Some(1_000), None);
    let err = local_fixpoint(&seed, recs, x, LocalEngine::SetRdd, &budget).unwrap_err();
    let MuraError::ResourceExhausted { reached, .. } = err else { panic!("max_rows: {err}") };
    assert!(reached > 1_000 && reached < superstep, "max_rows: reached {reached}");
    // The walk it stopped leaves nothing behind: the next fixpoint on this
    // thread is exact. Over a 1,000-node path, 125 sources each
    // reach only nodes 998 and 999, so a node left over from the cycle
    // would show as a row too many.
    let mut path = Database::new();
    let n = Names {
        src: path.intern("src"),
        dst: path.intern("dst"),
        m: path.intern("m"),
        x: path.intern("X"),
    };
    let e = Relation::from_pairs(n.src, n.dst, (0..999).map(|i| (i, i + 1)));
    let to_998 = Relation::from_pairs(n.src, n.dst, (0..125).map(|i| (i, 998)));
    let after = branch(&n, &e, true);
    let budget = Budget::new(None, None);
    let recs_after = std::slice::from_ref(&after);
    let whole = local_fixpoint(&to_998, recs_after, n.x, LocalEngine::SetRdd, &budget).unwrap();
    assert_eq!(whole.len(), 250, "after a stopped walk");

    let budget = Budget::new(None, None).with_max_bytes(Some(64 << 10));
    let err = local_fixpoint(&seed, recs, x, LocalEngine::SetRdd, &budget).unwrap_err();
    let MuraError::MemoryExceeded { used, .. } = err else { panic!("max_bytes: {err}") };
    assert!(used < superstep * 16, "max_bytes: used {used}");

    // Cancelled once the kernel has charged its first rows: it stops with
    // the typed error long before its 2,000,000 rows.
    let (_db, e, seed, step, x) = cycle(4_000);
    let recs = std::slice::from_ref(&step);
    assert!(Closure::recognise(&step, x, e.schema(), seed.len()).is_some());
    let token = CancellationToken::new();
    let budget = Budget::new(None, None).with_cancel(Some(token.clone()));
    let done = AtomicBool::new(false);
    let err = std::thread::scope(|scope| {
        scope.spawn(|| {
            while budget.produced() == 0 && !done.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
            token.cancel();
        });
        let out = local_fixpoint(&seed, recs, x, LocalEngine::SetRdd, &budget);
        done.store(true, Ordering::Relaxed);
        out.unwrap_err()
    });
    assert_eq!(err, MuraError::Cancelled, "cancellation: {err}");
    let produced = budget.produced();
    assert!(produced < 4_000 * 3_999 / 8, "cancellation: {produced} rows charged");
}
