//! The closure kernel's walk state lives and dies with its run: a thread
//! that ran a fixpoint over 100,000 nodes holds none of it afterwards.
//! Counted by a private global allocator tracking live bytes; this binary
//! holds nothing else.

use mura_core::kernel::kernel_stats;
use mura_core::mem::rel_bytes;
use mura_core::{Database, Relation, Term};
use mura_dist::localfix::{local_fixpoint, Budget};
use mura_dist::reach::Closure;
use mura_dist::LocalEngine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes allocated and not yet freed (wrapping: a free may be counted
/// before the allocation it matches on another thread).
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a relaxed update of a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = (new_size as u64).wrapping_sub(layout.size() as u64);
        LIVE_BYTES.fetch_add(grown, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A fixpoint over 2 nodes, then one whose `E` is 50,000 disjoint edges
/// over 100,000 nodes and whose seed is `E`: while it runs, its walk holds
/// 800,000 bytes (a `u32` stamp and a stack entry per node), charged to
/// the budget beside the seed and the adjacency, and the answer is `E`
/// again. Once the answer is dropped, the thread that ran it holds almost
/// nothing more than before it. State kept per thread for the next
/// fixpoint would stay: two bytes a node are 200,000.
#[test]
fn a_closure_run_holds_no_walk_state_after_it() {
    let mut db = Database::new();
    let (src, dst) = (db.intern("src"), db.intern("dst"));
    let (m, x) = (db.intern("m"), db.intern("X"));
    let matching =
        |pairs: u64| Relation::from_pairs(src, dst, (0..pairs).map(|i| (2 * i, 2 * i + 1)));
    let step =
        |e: &Relation| Term::var(x).rename(dst, m).join(Term::cst(e.rename(src, m))).antiproject(m);
    let run = |e: &Relation| {
        let budget = Budget::new(None, None);
        let answer = local_fixpoint(e, &[step(e)], x, LocalEngine::SetRdd, &budget).unwrap();
        (answer.len(), budget.used_bytes())
    };
    // The first run starts what the process keeps for good (counters).
    run(&matching(1));
    let e = matching(50_000);
    let closure = Closure::recognise(&step(&e), x, e.schema(), e.len()).expect("the shape");
    let cached = closure.cached_bytes();
    drop(closure);
    let kernels = kernel_stats().snapshot().closure_kernels;
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    let (rows, charged) = run(&e);
    let held = LIVE_BYTES.load(Ordering::Relaxed).wrapping_sub(live) as i64;
    assert_eq!(kernel_stats().snapshot().closure_kernels, kernels + 1, "the kernel must run");
    assert_eq!(rows, 50_000);
    // The seed's rows; no walk reaches beyond its seed target.
    let rows_bytes = rel_bytes(50_000, 2);
    assert!(
        charged >= rows_bytes + cached + 800_000,
        "{charged} bytes charged: the walk's 800,000 are not among them"
    );
    assert!(held < 20_000, "{held} bytes held after the run");
}
