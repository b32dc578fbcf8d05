//! No allocation per row, from kernel to exchange: cutting a relation into
//! partitions, shuffling it and gathering it back cost a number of
//! allocations that does not grow with the row count, and a whole
//! distributed fixpoint — C1, the transitive closure of a 20k-edge random
//! graph, on two workers — allocates less than once per twenty rows its
//! kernels produce (with a box per row it was more than once per row).
//!
//! Counted by a private global allocator. Worker tasks run on helper
//! threads, so the counter is process-wide and the tests of this binary
//! take turns. The helpers are started by the first stage that needs them
//! and then kept: each test runs its workload once before it counts.

use mura_core::{Database, Relation, Term};
use mura_datagen::er::erdos_renyi;
use mura_dist::{Cluster, DistEvaluator, DistRel, ExecConfig, FixpointPlan, LocalEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a relaxed increment of a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One measurement at a time: the counter is shared by every thread.
static TURN: Mutex<()> = Mutex::new(());

/// Allocations (and reallocations) the process performs while `f` runs.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

fn split_shuffle_gather() -> Vec<(&'static str, u64)> {
    const ROWS: u64 = 100_000;
    let mut db = Database::new();
    let (src, dst) = (db.intern("src"), db.intern("dst"));
    let rel = Relation::from_pairs(src, dst, (0..ROWS).map(|i| (i % 1_000, i / 7)));
    assert_eq!(rel.len() as u64, ROWS);
    let cluster = Cluster::new(4);
    let dist = DistRel::from_relation(&rel, &cluster);
    let mut counts = Vec::new();
    let (parts, n) = allocations(|| dist.parts().len());
    counts.push(("lazy split", n));
    assert_eq!(parts, 4);
    let (shuffled, n) = allocations(|| dist.repartition(&[src], &cluster).unwrap());
    counts.push(("repartition", n));
    assert_eq!(shuffled.len() as u64, ROWS);
    let (gathered, n) = allocations(|| shuffled.into_relation());
    counts.push(("gather", n));
    assert_eq!(gathered, rel);
    counts
}

/// Allocations a 4-worker repartition may make: 65 are counted (78 when
/// every stage started threads of its own).
const LIMIT: u64 = 72;

#[test]
fn partitioning_100k_rows_allocates_per_partition_not_per_row() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    split_shuffle_gather();
    let first = split_shuffle_gather();
    for (name, n) in &first {
        // 100,000 rows over 4 workers. A split or a gather handles 4
        // buffers; a shuffle cuts 16 buckets on 4 tasks (3 of them handed
        // to helpers), concatenates 4 of them into each destination's bag
        // and deduplicates each bag in its destination's task (3 more
        // hand-offs).
        let limit = if *name == "repartition" { LIMIT } else { 64 };
        assert!(*n <= limit, "{name}: {n} allocations (limit {limit})");
    }
    assert_eq!(split_shuffle_gather(), first, "counts differ between two identical runs");
}

/// Runs C1 under `plan` and returns `(allocations, rows the kernels
/// produced, rows of the answer)`.
fn closure_of_20k_edges(plan: FixpointPlan) -> (u64, u64, usize) {
    let mut db = Database::new();
    let (src, dst) = (db.intern("src"), db.intern("dst"));
    let (m, x) = (db.intern("m"), db.intern("X"));
    let g = erdos_renyi(20_000, 0.0001, 42);
    let e = Relation::from_pairs(src, dst, g.plain_edges());
    let step = Term::var(x).rename(dst, m).join(Term::cst(e.clone()).rename(src, m)).antiproject(m);
    let term = Term::cst(e).union(step).fix(x);
    let config =
        ExecConfig { plan, local_engine: LocalEngine::SetRdd, workers: 2, ..Default::default() };
    let mut ev = DistEvaluator::new(&db, config);
    let (answer, n) = allocations(|| ev.eval_collect(&term).unwrap());
    (n, ev.stats().kernel.rows_allocated, answer.len())
}

#[test]
fn c1_allocates_less_than_once_per_twenty_produced_rows() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mut answers = Vec::new();
    for plan in [FixpointPlan::Auto, FixpointPlan::ForceGld] {
        closure_of_20k_edges(plan);
        let (allocations, produced, answer) = closure_of_20k_edges(plan);
        assert!(produced > 100_000, "{plan:?}: only {produced} rows produced");
        let per_row = allocations as f64 / produced as f64;
        assert!(
            per_row < 0.05,
            "{plan:?}: {allocations} allocations for {produced} produced rows ({per_row:.3} per row)"
        );
        assert_eq!(
            closure_of_20k_edges(plan),
            (allocations, produced, answer),
            "{plan:?}: counts differ between two identical runs"
        );
        answers.push(answer);
    }
    assert_eq!(answers[0], answers[1]);
}
