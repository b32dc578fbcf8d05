//! A relation is two buffers, not a box per row: building, renaming,
//! joining, cloning, mutating a clone and dropping a 100,000-row relation
//! each perform a number of allocations that is logarithmic in the row
//! count (buffer doublings) — never proportional to it. Counted by a
//! private global allocator; this binary holds nothing else, and the
//! counter is per thread, so the harness's own threads do not disturb it.

use mura_core::{Relation, Rows, Schema, Sym, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a bump of a thread-local integer, which neither
// allocates nor has a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` performs on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const ROWS: u64 = 100_000;
/// Buffer doublings of a 100k-row relation stay far below this; one
/// allocation per row would be 100,000.
const LIMIT: u64 = 64;

fn pairs() -> impl Iterator<Item = (u64, u64)> {
    (0..ROWS).map(|i| (i % 1_000, i / 1_000 + 7 * (i % 13)))
}

/// One pass over every operation, returning the allocations of each.
fn measure() -> Vec<(&'static str, u64)> {
    let (a, b, c) = (Sym(1), Sym(2), Sym(0));
    let mut counts = Vec::new();
    let mut record = |name: &'static str, n: u64| counts.push((name, n));

    let (rel, n) = allocations(|| Relation::from_pairs(a, b, pairs()));
    assert_eq!(rel.len() as u64, ROWS);
    record("build from pairs", n);

    // Row by row through `insert`, nothing known up front: the value
    // buffer and the table each double their way up.
    let (grown, n) = allocations(|| {
        let mut r = Relation::new(rel.schema().clone());
        for row in rel.iter() {
            r.insert(row);
        }
        r
    });
    assert_eq!(grown, rel);
    record("build by insert", n);

    // `b → c` moves the column to the front: every row is permuted.
    let (renamed, n) = allocations(|| rel.rename(b, c));
    assert_eq!(renamed.len() as u64, ROWS);
    assert_eq!(renamed.schema().columns(), &[c, a]);
    record("permuting rename", n);

    let (kept, n) = allocations(|| rel.filter(|row| row[0] != Value::int(3)));
    assert_eq!(kept.len() as u64, ROWS - 100);
    record("filter", n);

    // A join whose output is as large as its input: 1,000 build rows, one
    // match per probe row.
    let small = Relation::from_pairs(a, c, (0..1_000).map(|i| (i, i + 1)));
    let (joined, n) = allocations(|| rel.join(&small));
    assert_eq!(joined.len() as u64, ROWS);
    record("join", n);

    let (minus, n) = allocations(|| rel.antijoin(&small.filter(|row| row[1] == Value::int(5))));
    assert_eq!(minus.len() as u64, ROWS - 100);
    record("antijoin", n);

    let (projected, n) = allocations(|| rel.antiproject(&[b]));
    assert_eq!(projected.len(), 1_000);
    record("antiproject", n);

    // A clone is a pointer; the first mutation copies the two buffers.
    let ((snapshot, n_clone), n_mutate) = {
        let mut live = rel.clone();
        let cloned = allocations(|| live.clone());
        let (_, n_mutate) = allocations(|| {
            live.insert([Value::int(-1), Value::int(-1)]);
            live.remove(&[Value::int(0), Value::int(0)]);
        });
        assert_eq!(live.len() as u64, ROWS);
        (cloned, n_mutate)
    };
    assert_eq!(snapshot, rel);
    record("clone", n_clone);
    record("mutate a shared clone", n_mutate);

    let mut bag = Rows::new(2);
    let (_, n) = allocations(|| rel.iter().chain(rel.iter()).for_each(|row| bag.push(row)));
    record("collect rows", n);
    let (deduped, n) = allocations(|| Relation::from_bag(rel.schema().clone(), bag));
    assert_eq!(deduped, rel);
    record("dedup in place", n);

    let (sorted, n) = allocations(|| rel.sorted_ids());
    assert_eq!(sorted.len() as u64, ROWS);
    record("sort ids", n);

    // Dropping frees buffers, it does not allocate; listed so that a
    // destructor that starts to does not go unnoticed.
    let everything = (rel, grown, renamed, kept, joined, minus, projected, snapshot, deduped);
    let (_, n) = allocations(|| drop(everything));
    record("drop", n);
    counts
}

#[test]
fn a_hundred_thousand_rows_cost_a_logarithmic_number_of_allocations() {
    let first = measure();
    for (name, n) in &first {
        assert!(*n <= LIMIT, "{name}: {n} allocations for {ROWS} rows (limit {LIMIT})");
    }
    // Nothing here depends on addresses, time or hasher state.
    assert_eq!(measure(), first, "allocation counts differ between two identical runs");
    let of = |name: &str| first.iter().find(|(n, _)| *n == name).expect("measured").1;
    // A clone copies the schema's column list and a pointer.
    assert_eq!(of("clone"), 1);
    assert_eq!(of("drop"), 0);
    // A new store, rows and table copied into it once each, and the row
    // buffer (copied at its exact size) grown for the inserted row.
    assert_eq!(of("mutate a shared clone"), 4);
}

#[test]
fn an_empty_relation_is_one_allocation() {
    let schema = Schema::new(vec![Sym(0)]);
    let (_, n) = allocations(|| Relation::new(schema.clone()));
    // The schema's column vector and the shared store.
    assert_eq!(n, 2);
}
