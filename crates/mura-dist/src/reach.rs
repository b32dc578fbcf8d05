//! The closure kernel: a `P_plw` fixpoint `μX. S ∪ π(X ⋈ E)` over one
//! binary loop invariant `E`, run as a traversal instead of a semi-naive
//! loop.
//!
//! The fixpoint's one recursive branch must compose X's non-stable column
//! with `E` (`shape`): a delta row `(a, b)` yields `(a, w)` for every
//! edge `(b, w)`, the stable value `a` carried in place. The fixpoint then
//! holds, per stable value `a`, the rows `(a, v)` for every node `v`
//! reachable from `a`'s seed targets, which [`Closure`] computes directly:
//!
//! * `E`'s node values get dense `u32` ids once per fixpoint — the offset
//!   from the least value when they are integers in a range at most
//!   [`RANGE_PER_EDGE`] times `|E|`, a hash map otherwise;
//! * `E` becomes a CSR adjacency in the composing direction, built instead
//!   of the chain's join index and counted as the fixpoint's one index
//!   build;
//! * each worker walks from the seed targets of each stable value with one
//!   visited array of its own, stamped with a new epoch per stable value,
//!   so every row comes out once by construction: no accumulator table, no
//!   delta to deduplicate.
//!
//! The walk runs under [`fixloop::run`] as one superstep per batch of stable
//! values — the delta is the seed rows not yet traversed — so row and byte
//! budgets, cancellation, fault coordinates, checkpoints and superstep
//! trace events work as they do for the semi-naive loop.
//!
//! The chains stay where the kernel does not apply or would not pay: under
//! `P_gld`, on the sorted engine, for resumed (maintained) fixpoints, and
//! for a seed under a [`MIN_SEED_SHARE`]th of `E`'s rows.

use crate::fixloop::{self, Superstep, Supervision};
use crate::localfix::{worker_superstep, Budget};
use mura_core::fxhash::FxHashMap;
use mura_core::kernel::kernel_stats;
use mura_core::mem::rel_bytes;
use mura_core::relation::check_room;
use mura_core::{Relation, Result, Rows, Schema, Sym, Term, Value};
use std::sync::Arc;
use std::time::Instant;

/// Integer node values take direct ids when they span at most this many
/// values per edge of `E`.
pub const RANGE_PER_EDGE: u64 = 4;

/// A seed under `|E| / MIN_SEED_SHARE` rows keeps the chain. Below it the
/// closure is small, and building the adjacency (a pass for the ids and two
/// over `E`, into arrays as long as the node range) costs more than the
/// chain's join index and the few probes the closure takes. Timed on the
/// `bench_smoke` flagship `E` (16,031 edges over 20,000 nodes; 4 workers
/// on a 2-vCPU VM; median µs of 11 rounds, kernel vs chain) with every
/// `k`th row of `E` as the seed: k = 4096: 210 vs 98; 128: 236 vs 199;
/// 64: 250 vs 245; 32: 267 vs 371; 16: 325 vs 565. The seed's share is a
/// proxy for the closure's size: on the dense `rnd_400_0.05` and
/// `rnd_2000_0.002` one seed row already reaches 400 and 1,529 nodes, and
/// the kernel wins there from one row (215 vs 260 and 122 vs 296), which
/// this cutoff leaves to the chain.
pub const MIN_SEED_SHARE: usize = 64;

/// A worker's traversal is cut into at most this many supersteps: the
/// granularity of its checkpoints, restores and trace events. Each one is a
/// fault coordinate, so they stay below the default restore budget
/// (`RecoveryPolicy::max_restores`, 8): a loop whose every superstep fails
/// once still recovers.
const BATCHES: usize = 4;

/// Rows emitted between two charges against the budget (and two
/// cancellation checks).
const CHARGE_ROWS: u64 = 4096;

/// A recursive branch of the closure shape: where its parts are.
pub(crate) struct Shape {
    /// Delta position of the carried (stable) column.
    stable: usize,
    /// Delta position of the composing column, whose values `E` replaces.
    step: usize,
    /// The loop invariant `E`: the branch's `x`-free join side.
    edges: Term,
    /// `E`'s column joined with the composing column.
    from: usize,
    /// `E`'s column whose values replace the composing column's.
    to: usize,
}

/// Where a column of the branch's rows comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Delta(usize),
    Edge(usize),
}

/// A subterm over the delta: its columns, and the join with `E` once there
/// is one (`E`, the delta position it joins on, `from`, `to`).
struct Walked {
    cols: Vec<(Sym, Origin)>,
    join: Option<(Term, usize, usize, usize)>,
}

impl Walked {
    fn origin(&self, column: Sym) -> Option<Origin> {
        self.cols.iter().find(|(c, _)| *c == column).map(|&(_, o)| o)
    }
}

/// Recognises the closure shape in a recursive `branch` over rows of
/// `delta`: renames and antiprojections around one natural join of the
/// delta with a binary `x`-free term `E` on one column, producing rows of
/// the delta's schema whose one column is carried from the delta in place
/// and whose other is `E`'s other column. `schema_of` gives the schema of
/// an `x`-free term, `None` when it is not known.
pub(crate) fn shape(
    branch: &Term,
    x: Sym,
    delta: &Schema,
    schema_of: &mut dyn FnMut(&Term) -> Option<Schema>,
) -> Option<Shape> {
    if delta.arity() != 2 {
        return None;
    }
    let walked = walk(branch, x, delta, schema_of)?;
    let (edges, step, from, to) = walked.join.clone()?;
    let stable = 1 - step;
    let columns = delta.columns();
    let fits = walked.cols.len() == 2
        && walked.origin(columns[stable]) == Some(Origin::Delta(stable))
        && walked.origin(columns[step]) == Some(Origin::Edge(to));
    fits.then_some(Shape { stable, step, edges, from, to })
}

fn walk(
    t: &Term,
    x: Sym,
    delta: &Schema,
    schema_of: &mut dyn FnMut(&Term) -> Option<Schema>,
) -> Option<Walked> {
    match t {
        Term::Var(v) if *v == x => {
            let cols = delta.columns().iter().enumerate().map(|(i, &c)| (c, Origin::Delta(i)));
            Some(Walked { cols: cols.collect(), join: None })
        }
        Term::Rename(a, b, inner) => {
            let mut w = walk(inner, x, delta, schema_of)?;
            if w.origin(*b).is_some() {
                return None;
            }
            w.cols.iter_mut().find(|(c, _)| c == a)?.0 = *b;
            Some(w)
        }
        Term::AntiProject(cs, inner) => {
            let mut w = walk(inner, x, delta, schema_of)?;
            if cs.iter().any(|&c| w.origin(c).is_none()) {
                return None;
            }
            w.cols.retain(|(c, _)| !cs.contains(c));
            Some(w)
        }
        Term::Join(a, b) => {
            let (over, edges) = match (a.has_free_var(x), b.has_free_var(x)) {
                (true, false) => (a, b),
                (false, true) => (b, a),
                _ => return None,
            };
            let mut w = walk(over, x, delta, schema_of)?;
            let schema = schema_of(edges).filter(|s| s.arity() == 2)?;
            if w.join.is_some() {
                return None;
            }
            let columns = schema.columns();
            let shared: Vec<usize> = (0..2).filter(|&i| w.origin(columns[i]).is_some()).collect();
            let [from] = shared[..] else { return None };
            let Some(Origin::Delta(key)) = w.origin(columns[from]) else { return None };
            let to = 1 - from;
            w.cols.push((columns[to], Origin::Edge(to)));
            w.join = Some(((**edges).clone(), key, from, to));
            Some(w)
        }
        _ => None,
    }
}

/// Dense `u32` ids of `E`'s node values.
enum Ids {
    /// Integers `base..base + len`: an id is the offset from `base`.
    Range { base: i64, len: usize },
    /// Any other values, numbered in order of first appearance.
    Map { ids: FxHashMap<Value, u32>, values: Vec<Value> },
}

impl Ids {
    fn of(edges: &Relation) -> Ids {
        // Integers order below symbols: the values are all integers if the
        // greatest is.
        let values = edges.rows().values();
        let span = values.split_first().map(|(&first, rest)| {
            rest.iter().fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)))
        });
        if let Some((base, hi)) = span.and_then(|(lo, hi)| Some((lo.as_int()?, hi.as_int()?))) {
            let len = hi.abs_diff(base) + 1;
            let cap = RANGE_PER_EDGE.saturating_mul(edges.len() as u64).min(u32::MAX.into());
            if len <= cap {
                return Ids::Range { base, len: len as usize };
            }
        }
        let mut ids = FxHashMap::default();
        let mut values = Vec::new();
        for &v in edges.iter().flatten() {
            ids.entry(v).or_insert_with(|| {
                values.push(v);
                values.len() as u32 - 1
            });
        }
        Ids::Map { ids, values }
    }

    fn len(&self) -> usize {
        match self {
            Ids::Range { len, .. } => *len,
            Ids::Map { values, .. } => values.len(),
        }
    }

    #[inline]
    fn id(&self, v: Value) -> Option<u32> {
        match self {
            Ids::Range { base, len } => {
                let offset = v.as_int()?.checked_sub(*base)?;
                (0..*len as i64).contains(&offset).then_some(offset as u32)
            }
            Ids::Map { ids, .. } => ids.get(&v).copied(),
        }
    }

    #[inline]
    fn value(&self, id: u32) -> Value {
        match self {
            Ids::Range { base, .. } => Value::int(base + i64::from(id)),
            Ids::Map { values, .. } => values[id as usize],
        }
    }

    fn approx_bytes(&self) -> u64 {
        match self {
            Ids::Range { .. } => 0,
            // A map entry, its slack and the value kept by id.
            Ids::Map { values, .. } => values.len() as u64 * 32,
        }
    }
}

/// A `P_plw` fixpoint compiled into the closure kernel: `E` as a CSR
/// adjacency over dense node ids. Built once per fixpoint and shared by
/// every worker.
pub struct Closure {
    schema: Schema,
    stable: usize,
    step: usize,
    ids: Ids,
    /// The successors of node `u` are `targets[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Closure {
    /// The kernel for a fixpoint over rows of `delta` whose only recursive
    /// branch is `branch` (its `x`-free subterms folded into constants),
    /// when the branch has the closure shape and `seed_rows` seed rows
    /// are enough to pay for it; `None` keeps the chain.
    pub fn recognise(branch: &Term, x: Sym, delta: &Schema, seed_rows: usize) -> Option<Closure> {
        let mut schema_of = |t: &Term| match t {
            Term::Cst(r) => Some(r.schema().clone()),
            _ => None,
        };
        let shape = shape(branch, x, delta, &mut schema_of)?;
        let Term::Cst(edges) = &shape.edges else { return None };
        let pays = seed_rows.saturating_mul(MIN_SEED_SHARE) >= edges.len();
        // Two ids per edge at most must fit a `u32`.
        (pays && edges.len() <= u32::MAX as usize / 2).then(|| Closure::build(&shape, edges, delta))
    }

    fn build(shape: &Shape, edges: &Relation, delta: &Schema) -> Closure {
        let ids = Ids::of(edges);
        let (offsets, targets) = match &ids {
            Ids::Range { base, len } => {
                let id = |v: Value| (v.as_int().unwrap_or(*base) - base) as u32;
                adjacency(edges.rows(), (shape.from, shape.to), *len, id)
            }
            Ids::Map { ids: map, values } => {
                adjacency(edges.rows(), (shape.from, shape.to), values.len(), |v| map[&v])
            }
        };
        let stats = kernel_stats();
        stats.index_builds.inc();
        stats.closure_kernels.inc();
        Closure {
            schema: delta.clone(),
            stable: shape.stable,
            step: shape.step,
            ids,
            offsets,
            targets,
        }
    }

    /// Estimated bytes of the adjacency and the id map, held for the whole
    /// fixpoint and charged against the byte budget once.
    pub fn cached_bytes(&self) -> u64 {
        4 * (self.offsets.len() + self.targets.len()) as u64 + self.ids.approx_bytes()
    }

    /// True if node ids are offsets into an integer range, false if a map
    /// assigns them.
    pub fn direct_ids(&self) -> bool {
        matches!(self.ids, Ids::Range { .. })
    }

    /// `seed`'s row ids, those of each stable value next to each other:
    /// radix-sorted by the value's node id when it has one (any value of
    /// `E`, or with direct ids any integer in their range), sorted by value
    /// after them otherwise.
    fn group(&self, seed: &Relation) -> Vec<u32> {
        let stable = self.stable;
        let mut keyed: Vec<(u32, u32)> = Vec::with_capacity(seed.len());
        let mut others: Vec<u32> = Vec::new();
        for (i, row) in seed.iter().enumerate() {
            match self.ids.id(row[stable]) {
                Some(u) => keyed.push((u, i as u32)),
                None => others.push(i as u32),
            }
        }
        radix_sort(&mut keyed, self.ids.len());
        others.sort_unstable_by_key(|&i| seed.rows().get(i as usize)[stable]);
        keyed.iter().map(|&(_, i)| i).chain(others).collect()
    }

    /// Emits into `out` the rows of stable value `a`: its seed targets, then
    /// every node they reach that is neither one of them nor reached
    /// before. Returns the nodes whose successors were read.
    fn reach(
        &self,
        walk: &mut Walk,
        a: Value,
        seeds: impl Iterator<Item = Value>,
        out: &mut Rows,
        charge: &mut Charge<'_>,
    ) -> Result<u64> {
        let epoch = walk.next_epoch();
        let mut row = [a, a];
        for b in seeds {
            row[self.step] = b;
            out.push(&row);
            // A seed target outside `E` reaches nothing.
            if let Some(u) = self.ids.id(b) {
                walk.visited[u as usize] = epoch;
                walk.stack.push(u);
            }
        }
        let mut probes = 0;
        while let Some(u) = walk.stack.pop() {
            probes += 1;
            let (lo, hi) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
            for &w in &self.targets[lo as usize..hi as usize] {
                let seen = &mut walk.visited[w as usize];
                if *seen != epoch {
                    *seen = epoch;
                    walk.stack.push(w);
                    row[self.step] = self.ids.value(w);
                    out.push(&row);
                    charge.row()?;
                }
            }
        }
        Ok(probes)
    }

    /// One superstep: walks from `groups` stable values of `seed`, its rows
    /// taken in `order` (grouped by stable value) from position `at` on,
    /// emitting into `out`, and returns the position the next one starts
    /// at.
    fn walk_batch(
        &self,
        walk: &mut Walk,
        groups: usize,
        out: &mut Rows,
        (seed, order, mut at): (&Rows, &[u32], usize),
        budget: &Budget,
    ) -> Result<usize> {
        let start = Instant::now();
        let (held, (stable, step)) = (out.len(), (self.stable, self.step));
        let mut charge = Charge { budget, pending: 0 };
        let mut probes = 0;
        let row = |i: usize| seed.get(order[i] as usize);
        for _ in 0..groups {
            if at == order.len() {
                break;
            }
            let a = row(at)[stable];
            let end = (at..order.len()).find(|&i| row(i)[stable] != a).unwrap_or(order.len());
            let targets = (at..end).map(|i| row(i)[step]);
            probes += self.reach(walk, a, targets, out, &mut charge)?;
            at = end;
        }
        charge.flush()?;
        check_room(held, out.len() - held)?;
        let stats = kernel_stats();
        stats.join_probes.add(probes);
        stats.rows_allocated.add((out.len() - held) as u64);
        stats.record_eval_time(start.elapsed());
        Ok(at)
    }
}

/// The CSR adjacency of the binary `edges` from column `from` to column
/// `to` over `nodes` node ids: the offsets, then the targets. Out-degrees
/// are counted into the offsets, which their prefix sums turn into fill
/// cursors; a cursor ends at the next node's start, so one shift right
/// leaves the starts.
fn adjacency(
    edges: &Rows,
    (from, to): (usize, usize),
    nodes: usize,
    id: impl Fn(Value) -> u32,
) -> (Vec<u32>, Vec<u32>) {
    let rows = || edges.values().chunks_exact(2);
    let mut offsets = vec![0u32; nodes + 1];
    for row in rows() {
        offsets[id(row[from]) as usize + 1] += 1;
    }
    let mut sum = 0;
    for start in &mut offsets {
        sum += *start;
        *start = sum;
    }
    let mut targets = vec![0u32; edges.len()];
    for row in rows() {
        let cursor = &mut offsets[id(row[from]) as usize];
        targets[*cursor as usize] = id(row[to]);
        *cursor += 1;
    }
    offsets.copy_within(..nodes, 1);
    offsets[0] = 0;
    (offsets, targets)
}

/// Sorts `keyed` by its keys, all below `bound`, a byte at a time from the
/// lowest (stable, so the byte sorts compose). On a worker's share of the
/// `bench_smoke` flagship seed (about 4,000 keys below 20,000: two byte
/// passes) it takes 24 µs where `sort_unstable_by_key` takes 80–88 µs
/// (medians of 2,000 alternating runs, 2-vCPU VM).
fn radix_sort(keyed: &mut Vec<(u32, u32)>, bound: usize) {
    let mut scratch = vec![(0, 0); keyed.len()];
    let mut shift = 0;
    while shift < 32 && bound > 1 << shift {
        let mut starts = [0usize; 257];
        keyed.iter().for_each(|&(k, _)| starts[(k >> shift) as usize % 256 + 1] += 1);
        for b in 0..256 {
            starts[b + 1] += starts[b];
        }
        for &(k, i) in keyed.iter() {
            let at = &mut starts[(k >> shift) as usize % 256];
            scratch[*at] = (k, i);
            *at += 1;
        }
        std::mem::swap(keyed, &mut scratch);
        shift += 8;
    }
}

/// The traversal state of one worker's run: a visited stamp per node, the
/// last stamp handed out, and the stack. Made for the run and dropped with
/// it; a run walks fewer stable values than it has seed rows, so the `u32`
/// stamps never wrap.
struct Walk {
    visited: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

impl Walk {
    fn new(nodes: usize) -> Walk {
        Walk { visited: vec![0; nodes], epoch: 0, stack: Vec::new() }
    }

    /// What a walk over `nodes` nodes holds at most: a stamp per node and a
    /// stack entry per node.
    fn bytes(nodes: usize) -> u64 {
        8 * nodes as u64
    }

    /// A stamp no node carries yet, and an empty stack (a walk that failed
    /// may have left nodes on it).
    fn next_epoch(&mut self) -> u32 {
        self.stack.clear();
        self.epoch += 1;
        self.epoch
    }
}

/// Rows emitted beyond the seed and not yet charged against the budget.
struct Charge<'a> {
    budget: &'a Budget,
    pending: u64,
}

impl Charge<'_> {
    #[inline]
    fn row(&mut self) -> Result<()> {
        self.pending += 1;
        if self.pending == CHARGE_ROWS {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        let rows = std::mem::take(&mut self.pending);
        self.budget.charge(rows)?;
        self.budget.charge_bytes(rel_bytes(rows, 2))
    }
}

/// A worker's state in the kernel's loop, its buffers shared with its
/// copies: the accumulator is the rows emitted so far, the delta the seed's
/// grouped row ids from a position on — those not yet walked.
#[derive(Clone)]
enum Span {
    Emitted(Arc<Rows>),
    Unwalked(Arc<[u32]>, usize),
}

/// The closure kernel's superstep: one batch of stable values of one
/// worker, as a fault-guarded attempt at `(site, worker, iteration)`.
struct ClosureStep<'a> {
    closure: &'a Closure,
    seed: &'a Relation,
    worker: usize,
    /// Stable values walked per superstep.
    groups: usize,
    walk: Walk,
}

impl Superstep for ClosureStep<'_> {
    type State = Span;

    fn rows(state: &Span) -> u64 {
        match state {
            Span::Emitted(rows) => rows.len() as u64,
            Span::Unwalked(order, from) => (order.len() - from) as u64,
        }
    }

    fn lane(&self) -> i32 {
        self.worker as i32
    }

    fn step(
        &mut self,
        sup: &Supervision<'_>,
        acc: &mut Span,
        delta: &Span,
        iteration: u64,
        attempt: u32,
    ) -> Result<Span> {
        let (Span::Emitted(acc), Span::Unwalked(order, from)) = (acc, delta) else {
            unreachable!("the accumulator holds emitted rows, the delta unwalked ones")
        };
        let ClosureStep { closure, seed, worker, groups, walk } = self;
        worker_superstep(sup, *worker, iteration, attempt, || {
            // A checkpoint's copy shares the buffer until this first write.
            let out = Arc::make_mut(acc);
            let held = out.len();
            let unwalked = (seed.rows(), &order[..], *from);
            let at = closure.walk_batch(walk, *groups, out, unwalked, sup.budget)?;
            Ok((Span::Unwalked(Arc::clone(order), at), (out.len() - held) as u64))
        })
    }
}

/// Worker `worker`'s run of the closure kernel over its `seed` share:
/// [`fixloop::run`] over one superstep per batch of stable values.
pub fn closure_fixpoint_supervised(
    seed: &Relation,
    closure: &Closure,
    sup: &Supervision<'_>,
    worker: usize,
) -> Result<Relation> {
    // A worker with no seed rows walks nothing.
    let nodes = if seed.is_empty() { 0 } else { closure.ids.len() };
    sup.budget.charge_bytes(rel_bytes(seed.len() as u64, seed.schema().arity()))?;
    sup.budget.charge_bytes(Walk::bytes(nodes))?;
    let order: Arc<[u32]> = closure.group(seed).into();
    let stable = |i: usize| seed.rows().get(order[i] as usize)[closure.stable];
    let stables = (0..order.len()).filter(|&i| i == 0 || stable(i) != stable(i - 1)).count();
    let groups = stables.div_ceil(BATCHES).max(1);
    let mut step = ClosureStep { closure, seed, worker, groups, walk: Walk::new(nodes) };
    let arity = seed.schema().arity();
    // Every seed row is emitted: room for them from the start.
    let init = || {
        let acc = Arc::new(Rows::with_capacity(arity, order.len()));
        (Span::Emitted(acc), Span::Unwalked(Arc::clone(&order), 0))
    };
    let Span::Emitted(rows) = fixloop::run(sup, &mut step, init)?.total else {
        unreachable!("the accumulator holds emitted rows")
    };
    let rows = Arc::try_unwrap(rows).unwrap_or_else(|shared| (*shared).clone());
    Ok(Relation::from_distinct(closure.schema.clone(), rows))
}
