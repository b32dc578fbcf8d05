//! Worker-local fixpoint execution for the `P_plw` plan.
//!
//! Each worker receives its share of the fixpoint's constant part plus
//! broadcast copies of every loop-invariant relation, and iterates the
//! recursive step locally — no cluster communication at all during the
//! recursion (the paper's key advantage of `P_plw` over `P_gld`).
//!
//! Two interchangeable local engines implement the iteration, mirroring the
//! paper's two `P_plw` implementations (§IV-B a):
//!
//! * [`LocalEngine::SetRdd`] — hash-set relations (BigDatalog's SetRDD
//!   style);
//! * [`LocalEngine::Sorted`] — sorted, duplicate-free buffers standing in
//!   for the per-worker PostgreSQL instances of `P_plw^pg`.
//!
//! Both run the same compiled branches ([`prepare`]): loop invariants are
//! folded and indexed once per fixpoint, the operators over the delta are
//! fused into chains that build no intermediate row, and a superstep
//! accumulates what the chains put out into the accumulator **in place**
//! ([`LocalRel::absorb_new`]) — the rows that were new are the next delta.
//! The `P_gld` driver applies the same branches through [`eval_branch`].
//!
//! On SetRDD, [`prepare_local`] compiles a fixpoint of the closure shape
//! into the closure kernel ([`crate::reach`]) instead: a traversal with no
//! accumulator and no delta.

use crate::fault::FaultPlan;
use crate::fixloop::{self, Superstep, Supervision};
use crate::reach::{closure_fixpoint_supervised, Closure};
use crate::sorted::SortedRelation;
use mura_core::eval::{apply_filter, compile_preds, CompiledPred};
use mura_core::index::hash_values;
use mura_core::kernel::kernel_stats;
use mura_core::mem::{mem_gauge, rel_bytes};
use mura_core::relation::check_room;
use mura_core::{
    CancellationToken, JoinIndex, KeyIndex, MuraError, Pred, Relation, Result, Rows, Schema, Sym,
    Term, Value,
};
use mura_obs::trace::{EventKind, TraceEvent};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Which local engine runs the per-worker loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalEngine {
    /// Hash-based sets (the paper's `P_plw^s`, the faster variant).
    #[default]
    SetRdd,
    /// Sorted accumulator behind the same hash-indexed chains (the paper's
    /// `P_plw^pg` stand-in).
    Sorted,
}

/// Shared row/byte budget + deadline + cancellation, checked by every
/// worker loop. Models the paper's out-of-memory failures and timeouts,
/// and gives the serving layer a handle to stop a query between
/// supersteps.
///
/// Byte charges are mirrored into the process-wide
/// [`mem_gauge`] and released when the budget
/// drops (i.e. when the query's evaluation ends), so the serving layer can
/// observe the live cross-query working set.
#[derive(Debug, Default)]
pub struct Budget {
    produced: AtomicU64,
    used_bytes: AtomicU64,
    max_rows: Option<u64>,
    max_bytes: Option<u64>,
    /// The deadline, and the timeout it was set from (for the error).
    timeout: Option<(Instant, Duration)>,
    cancel: Option<CancellationToken>,
}

impl Budget {
    /// A budget with optional row cap and deadline. A deadline given here
    /// is reported as the time that was left to it; an engine that has the
    /// configured timeout attaches it with [`Budget::with_timeout`].
    pub fn new(max_rows: Option<u64>, deadline: Option<Instant>) -> Self {
        let timeout = deadline.map(|d| (d, d.saturating_duration_since(Instant::now())));
        Budget {
            produced: AtomicU64::new(0),
            used_bytes: AtomicU64::new(0),
            max_rows,
            max_bytes: None,
            timeout,
            cancel: None,
        }
    }

    /// Attaches the engine-level timeout, running from now; expiry reports
    /// it ([`MuraError::Timeout`]) as centralized evaluation does.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout.map(|t| (Instant::now() + t, t));
        self
    }

    /// Attaches a cancellation token, consulted by [`Budget::check`].
    pub fn with_cancel(mut self, cancel: Option<CancellationToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attaches a byte budget, consulted by [`Budget::charge_bytes`].
    pub fn with_max_bytes(mut self, max_bytes: Option<u64>) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// Charges `rows` produced rows; errors when over budget, past the
    /// deadline, or cancelled.
    pub fn charge(&self, rows: u64) -> Result<()> {
        let total = self.produced.fetch_add(rows, Ordering::Relaxed) + rows;
        if let Some(max) = self.max_rows {
            if total > max {
                return Err(MuraError::ResourceExhausted {
                    what: "materialized rows",
                    limit: max,
                    reached: total,
                });
            }
        }
        self.check()
    }

    /// Charges an estimated `bytes` of materialized memory against both
    /// this query's byte budget and the process-wide gauge. Errors with
    /// [`MuraError::MemoryExceeded`] when the per-query budget is breached.
    pub fn charge_bytes(&self, bytes: u64) -> Result<()> {
        if bytes == 0 {
            return Ok(());
        }
        mem_gauge().add(bytes);
        let total = self.used_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if let Some(limit) = self.max_bytes {
            if total > limit {
                return Err(MuraError::MemoryExceeded { used: total, limit });
            }
        }
        Ok(())
    }

    /// Superstep preemption point: errors when past the engine deadline
    /// ([`MuraError::Timeout`]) or when the attached token was cancelled or
    /// its per-request deadline passed (`Cancelled` / `DeadlineExceeded`).
    /// Charges nothing, so loops can call it before producing any rows.
    pub fn check(&self) -> Result<()> {
        if let Some((deadline, timeout)) = self.timeout {
            if Instant::now() > deadline {
                return Err(MuraError::Timeout { millis: timeout.as_millis() as u64 });
            }
        }
        if let Some(c) = &self.cancel {
            c.check()?;
        }
        Ok(())
    }

    /// Rows charged so far.
    pub fn produced(&self) -> u64 {
        self.produced.load(Ordering::Relaxed)
    }

    /// Estimated bytes charged so far.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes.load(Ordering::Relaxed)
    }
}

impl Drop for Budget {
    fn drop(&mut self) {
        // The query is over: release its working-set estimate from the
        // process gauge (the high-water mark is monotonic and survives).
        let bytes = *self.used_bytes.get_mut();
        if bytes > 0 {
            mem_gauge().sub(bytes);
        }
    }
}

/// Local relation operations shared by the two engines. `Send + Sync` so a
/// branch prepared once can be shared by every worker of a fixpoint.
///
/// A prepared branch reads its inputs through [`LocalRel::iter_rows`] and
/// builds a union's value with [`LocalRel::from_row_vec`]; the semi-naive
/// loops accumulate through [`LocalRel::absorb_new`].
pub trait LocalRel: Sized + Clone + Send + Sync {
    fn from_relation(r: &Relation) -> Self;
    fn into_relation(self) -> Relation;
    fn schema(&self) -> &Schema;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool;
    /// Iterates rows in the engine's native storage order.
    fn iter_rows(&self) -> impl Iterator<Item = &[Value]>;
    /// Builds from a bag of rows, deduplicating as the engine requires;
    /// the bag's buffer becomes the relation's.
    fn from_row_vec(schema: Schema, rows: Rows) -> Self;
    /// In-place accumulate: inserts the rows of `produced` that are absent
    /// and returns exactly those — the next semi-naive delta.
    fn absorb_new(&mut self, produced: Rows) -> Self;
}

impl LocalRel for Relation {
    fn from_relation(r: &Relation) -> Self {
        r.clone()
    }
    fn into_relation(self) -> Relation {
        self
    }
    fn schema(&self) -> &Schema {
        Relation::schema(self)
    }
    fn len(&self) -> usize {
        Relation::len(self)
    }
    fn is_empty(&self) -> bool {
        Relation::is_empty(self)
    }
    fn iter_rows(&self) -> impl Iterator<Item = &[Value]> {
        self.iter()
    }
    fn from_row_vec(schema: Schema, rows: Rows) -> Self {
        Relation::from_bag(schema, rows)
    }
    fn absorb_new(&mut self, produced: Rows) -> Self {
        Relation::absorb_new(self, &produced)
    }
}

impl LocalRel for SortedRelation {
    fn from_relation(r: &Relation) -> Self {
        SortedRelation::from_relation(r)
    }
    fn into_relation(self) -> Relation {
        self.to_relation()
    }
    fn schema(&self) -> &Schema {
        SortedRelation::schema(self)
    }
    fn len(&self) -> usize {
        SortedRelation::len(self)
    }
    fn is_empty(&self) -> bool {
        SortedRelation::is_empty(self)
    }
    fn iter_rows(&self) -> impl Iterator<Item = &[Value]> {
        self.iter()
    }
    fn from_row_vec(schema: Schema, rows: Rows) -> Self {
        SortedRelation::from_rows(schema, rows)
    }
    fn absorb_new(&mut self, produced: Rows) -> Self {
        SortedRelation::absorb_new(self, produced)
    }
}

/// Where a value of the row a chain is assembling lives: position `pos` of
/// source row `row`. Source 0 is the chain's input row; source `k` is the
/// build row matched by the chain's `k`-th join.
#[derive(Debug, Clone, Copy)]
struct Src {
    row: usize,
    pos: usize,
}

/// One run-time step of a fused chain. Renames and antiprojections are not
/// steps: they only edit [`Chain::cols`] at prepare time.
enum Stage {
    /// Keep the row if every predicate holds.
    Filter(Vec<CompiledPred<Src>>),
    /// Continue once per build row matching the key; the match becomes the
    /// next source row.
    Join { idx: JoinIndex, key: Vec<Src> },
    /// Keep the row if its key is absent from the cached key-set.
    Antijoin { idx: KeyIndex, key: Vec<Src> },
}

/// A maximal run of `Rename / Filter / AntiProject / Join-with-constant /
/// Antijoin-with-constant` operators compiled into one pass: every input
/// row walks the stages as a stack of borrowed source rows — no
/// intermediate row is ever built — and each surviving combination is
/// materialised exactly once, projected through [`Chain::cols`] into the
/// output schema.
struct Chain {
    stages: Vec<Stage>,
    /// The live columns in schema (sorted) order, each with where its value
    /// lives. A rename relabels an entry, an antiprojection removes one: the
    /// projection a join would have performed happens here, once, at the end.
    cols: Vec<(Sym, Src)>,
    /// Source rows on the stack once every join has matched.
    sources: usize,
}

/// What a superstep's chains produced — one flat buffer the rows are
/// projected straight into — plus the probe counts they owe the
/// process-wide kernel counters (flushed once, not per row).
struct Sink {
    rows: Rows,
    join_probes: u64,
    antijoin_probes: u64,
}

impl Sink {
    /// An empty sink for rows of `schema`.
    fn new(schema: &Schema) -> Sink {
        Sink { rows: Rows::new(schema.arity()), join_probes: 0, antijoin_probes: 0 }
    }

    /// Hands the rows over and reports the counts.
    fn finish(self) -> Rows {
        let stats = kernel_stats();
        stats.join_probes.add(self.join_probes);
        stats.antijoin_probes.add(self.antijoin_probes);
        stats.rows_allocated.add(self.rows.len() as u64);
        self.rows
    }
}

impl Chain {
    /// The identity chain over rows of `schema`.
    fn over(schema: &Schema) -> Chain {
        let cols =
            schema.columns().iter().enumerate().map(|(pos, &c)| (c, Src { row: 0, pos })).collect();
        Chain { stages: Vec::new(), cols, sources: 1 }
    }

    fn schema(&self) -> Schema {
        Schema::new(self.cols.iter().map(|&(c, _)| c).collect())
    }

    fn src_of(&self, column: Sym) -> Src {
        self.cols.iter().find(|(c, _)| *c == column).expect("column of the chain's schema").1
    }

    fn filter(&mut self, preds: &[Pred]) -> Result<()> {
        let compiled = compile_preds(&self.schema(), preds, "local filter", |c| self.src_of(c))?;
        self.stages.push(Stage::Filter(compiled));
        Ok(())
    }

    fn rename(&mut self, from: Sym, to: Sym) {
        let schema = self.schema();
        if schema.rename(from, to).is_none() {
            panic!("invalid rename {from:?} -> {to:?} on {schema}");
        }
        self.cols.iter_mut().find(|(c, _)| *c == from).expect("rename checked above").0 = to;
        self.cols.sort_unstable_by_key(|&(c, _)| c);
    }

    fn antiproject(&mut self, drop: &[Sym]) {
        let schema = self.schema();
        if schema.antiproject(drop).is_none() {
            panic!("invalid antiprojection of {drop:?} on {schema}");
        }
        self.cols.retain(|(c, _)| !drop.contains(c));
    }

    /// Natural join with a loop-invariant relation, through an index built
    /// here, once.
    fn join(&mut self, build: &Relation) {
        let idx = JoinIndex::build(&self.schema(), build);
        let key = idx.probe_key().iter().map(|&p| self.cols[p].1).collect();
        let matched = self.sources;
        self.cols = idx
            .out_schema()
            .columns()
            .iter()
            .zip(idx.out_src())
            .map(|(&c, &(from_probe, pos))| {
                (c, if from_probe { self.cols[pos].1 } else { Src { row: matched, pos } })
            })
            .collect();
        self.sources += 1;
        self.stages.push(Stage::Join { idx, key });
    }

    /// Antijoin against a loop-invariant relation, through a key-set built
    /// here, once.
    fn antijoin(&mut self, build: &Relation) {
        let idx = KeyIndex::build(&self.schema(), build);
        let key = idx.probe_key().iter().map(|&p| self.cols[p].1).collect();
        self.stages.push(Stage::Antijoin { idx, key });
    }

    fn cached_bytes(&self) -> u64 {
        self.stages
            .iter()
            .map(|stage| match stage {
                Stage::Filter(_) => 0,
                Stage::Join { idx, .. } => idx.approx_bytes(),
                Stage::Antijoin { idx, .. } => idx.approx_bytes(),
            })
            .sum()
    }

    /// Streams every input row through the stages into `sink`.
    fn run<'a>(&'a self, input: impl Iterator<Item = &'a [Value]>, sink: &mut Sink) {
        let mut srcs: Vec<&'a [Value]> = Vec::with_capacity(self.sources);
        for row in input {
            srcs.push(row);
            self.step(0, &mut srcs, sink);
            srcs.pop();
        }
    }

    fn step<'a>(&'a self, at: usize, srcs: &mut Vec<&'a [Value]>, sink: &mut Sink) {
        let Some(stage) = self.stages.get(at) else {
            sink.rows.push_values(self.cols.iter().map(|&(_, s)| srcs[s.row][s.pos]));
            return;
        };
        match stage {
            Stage::Filter(preds) => {
                if preds.iter().all(|p| p.matches(|s| srcs[s.row][s.pos])) {
                    self.step(at + 1, srcs, sink);
                }
            }
            Stage::Join { idx, key } => {
                sink.join_probes += 1;
                let hash = hash_values(key.iter().map(|s| srcs[s.row][s.pos]));
                for build_row in idx.bucket(hash) {
                    let matches = key
                        .iter()
                        .zip(idx.build_key())
                        .all(|(s, &bp)| srcs[s.row][s.pos] == build_row[bp]);
                    if matches {
                        srcs.push(build_row);
                        self.step(at + 1, srcs, sink);
                        srcs.pop();
                    }
                }
            }
            Stage::Antijoin { idx, key } => {
                sink.antijoin_probes += 1;
                if !idx.contains_key(|i| srcs[key[i].row][key[i].pos]) {
                    self.step(at + 1, srcs, sink);
                }
            }
        }
    }
}

/// A recursive branch compiled for local execution.
///
/// Built once per fixpoint by [`prepare`] and shared by every worker:
///
/// * every `x`-free subtree is **folded** into a single pre-materialized
///   constant before iteration starts (no per-iteration re-evaluation of
///   loop-invariant expressions);
/// * every run of row-local operators over the delta — renames, filters,
///   antiprojections, joins and antijoins against a folded constant — is
///   **fused** into one `Chain`: the build-side [`JoinIndex`] / [`KeyIndex`]
///   is built once, and each iteration streams the delta's rows through the
///   chain, materialising only the rows that come out of it;
/// * a union under a chain is the one pipeline breaker: its two sides are
///   materialized into one relation the chain then reads.
///
/// What F_cond rejects is rejected here too, with [`check_fcond`]'s errors:
/// a join whose two sides both depend on the delta is
/// [`MuraError::NotLinear`], an antijoin whose right side does is
/// [`MuraError::NotPositive`].
///
/// [`check_fcond`]: mura_core::analysis::check_fcond
pub struct Prepared<R> {
    root: Node<R>,
    schema: Schema,
}

enum Node<R> {
    /// The rows of the delta, of the given schema.
    Delta(Schema),
    /// A folded loop-invariant.
    Const(R),
    /// A fused chain over the rows of its input.
    Chain(Box<Node<R>>, Chain),
    Union(Box<Node<R>>, Box<Node<R>>),
}

impl<R: LocalRel> Node<R> {
    fn schema(&self) -> Schema {
        match self {
            Node::Delta(schema) => schema.clone(),
            Node::Const(r) => r.schema().clone(),
            Node::Chain(_, chain) => chain.schema(),
            Node::Union(a, _) => a.schema(),
        }
    }

    fn cached_bytes(&self) -> u64 {
        match self {
            Node::Delta(_) => 0,
            Node::Const(r) => rel_bytes(r.len() as u64, r.schema().arity()),
            Node::Chain(input, chain) => input.cached_bytes() + chain.cached_bytes(),
            Node::Union(a, b) => a.cached_bytes() + b.cached_bytes(),
        }
    }

    /// Appends this node's rows over `delta` to `sink`. Duplicates may
    /// appear (a union is a concatenation here): whatever consumes the
    /// sink is a set.
    fn rows_into(&self, delta: &R, sink: &mut Sink) {
        match self {
            Node::Chain(input, chain) => chain.run(input.materialize(delta).iter_rows(), sink),
            Node::Union(a, b) => {
                a.rows_into(delta, sink);
                b.rows_into(delta, sink);
            }
            leaf => leaf.materialize(delta).iter_rows().for_each(|row| sink.rows.push(row)),
        }
    }

    /// This node's value over `delta` as a relation: borrowed for the two
    /// leaves, built for everything else.
    fn materialize<'a>(&'a self, delta: &'a R) -> Cow<'a, R> {
        match self {
            Node::Delta(_) => Cow::Borrowed(delta),
            Node::Const(r) => Cow::Borrowed(r),
            Node::Chain(..) | Node::Union(..) => {
                let schema = self.schema();
                let mut sink = Sink::new(&schema);
                self.rows_into(delta, &mut sink);
                Cow::Owned(R::from_row_vec(schema, sink.finish()))
            }
        }
    }

    /// Splits off the chain ending at this node — the identity chain if
    /// the node is not one — so that an operator can be appended to it.
    fn into_chain(self) -> (Box<Node<R>>, Chain) {
        match self {
            Node::Chain(input, chain) => (input, chain),
            other => {
                let chain = Chain::over(&other.schema());
                (Box::new(other), chain)
            }
        }
    }

    /// This node with one more row-local operator fused onto it.
    fn fuse(self, op: impl FnOnce(&mut Chain)) -> Node<R> {
        let (input, mut chain) = self.into_chain();
        op(&mut chain);
        Node::Chain(input, chain)
    }
}

impl<R: LocalRel> Prepared<R> {
    /// Estimated bytes held for the whole fixpoint by this branch's cached
    /// state: build-side join/antijoin indexes plus folded constants.
    /// Charged against the byte budget once per fixpoint, right after
    /// [`prepare`], so an index build that would blow the budget fails
    /// typed before iteration starts.
    pub fn cached_bytes(&self) -> u64 {
        self.root.cached_bytes()
    }

    /// Schema of the rows the branch produces.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }
}

/// Result of `prep`: a fully folded constant, or a delta-dependent kernel.
enum Prep<R> {
    Const(Relation),
    Dyn(Node<R>),
}

/// Evaluates a constant folding step, counting it so tests can assert the
/// work happens at prepare time (once per fixpoint), not per iteration.
fn fold<R>(r: Relation) -> Prep<R> {
    kernel_stats().const_folds.inc();
    Prep::Const(r)
}

/// Compiles a hoisted recursive branch (all `x`-free subterms are `Cst`):
/// folds loop-invariant subtrees, builds join/antijoin indexes against
/// them and fuses the operators over the delta into chains. `delta_schema`
/// is the schema bound to the recursion variable. A branch outside F_cond
/// is refused with the error `check_fcond` gives it.
pub fn prepare<R: LocalRel>(term: &Term, x: Sym, delta_schema: &Schema) -> Result<Prepared<R>> {
    let root = match prep(term, x, delta_schema)? {
        Prep::Dyn(node) => node,
        // A branch without the recursion variable at all: constant forever.
        Prep::Const(r) => Node::Const(R::from_relation(&r)),
    };
    Ok(Prepared { schema: root.schema(), root })
}

fn prep<R: LocalRel>(term: &Term, x: Sym, delta_schema: &Schema) -> Result<Prep<R>> {
    let lift = |r: &Relation| Box::new(Node::Const(R::from_relation(r)));
    Ok(match term {
        Term::Var(v) if *v == x => Prep::Dyn(Node::Delta(delta_schema.clone())),
        Term::Var(v) => {
            return Err(MuraError::Other(format!(
                "unhoisted variable {v} in local fixpoint branch"
            )))
        }
        Term::Cst(r) => Prep::Const((**r).clone()),
        Term::Filter(ps, t) => match prep(t, x, delta_schema)? {
            Prep::Const(r) => fold(apply_filter(&r, ps)?),
            Prep::Dyn(n) => {
                let (input, mut chain) = n.into_chain();
                chain.filter(ps)?;
                Prep::Dyn(Node::Chain(input, chain))
            }
        },
        Term::Rename(a, b, t) => match prep(t, x, delta_schema)? {
            Prep::Const(r) => fold(r.rename(*a, *b)),
            Prep::Dyn(n) => Prep::Dyn(n.fuse(|chain| chain.rename(*a, *b))),
        },
        Term::AntiProject(cs, t) => match prep(t, x, delta_schema)? {
            Prep::Const(r) => fold(r.antiproject(cs)),
            Prep::Dyn(n) => Prep::Dyn(n.fuse(|chain| chain.antiproject(cs))),
        },
        Term::Join(a, b) => {
            match (prep(a, x, delta_schema)?, prep(b, x, delta_schema)?) {
                (Prep::Const(ra), Prep::Const(rb)) => fold(ra.join(&rb)),
                // One loop-invariant side: index it once, probe with the
                // delta-dependent side each iteration.
                (Prep::Const(r), Prep::Dyn(n)) | (Prep::Dyn(n), Prep::Const(r)) => {
                    Prep::Dyn(n.fuse(|chain| chain.join(&r)))
                }
                (Prep::Dyn(_), Prep::Dyn(_)) => return Err(MuraError::NotLinear(x)),
            }
        }
        Term::Antijoin(a, b) => {
            match (prep(a, x, delta_schema)?, prep::<R>(b, x, delta_schema)?) {
                (Prep::Const(ra), Prep::Const(rb)) => fold(ra.antijoin(&rb)),
                // Loop-invariant right side: cache its key-set.
                (Prep::Dyn(n), Prep::Const(r)) => Prep::Dyn(n.fuse(|chain| chain.antijoin(&r))),
                (_, Prep::Dyn(_)) => return Err(MuraError::NotPositive(x)),
            }
        }
        Term::Union(a, b) => match (prep(a, x, delta_schema)?, prep(b, x, delta_schema)?) {
            (Prep::Const(ra), Prep::Const(rb)) => fold(ra.union(&rb)),
            (Prep::Const(r), Prep::Dyn(n)) | (Prep::Dyn(n), Prep::Const(r)) => {
                Prep::Dyn(Node::Union(lift(&r), Box::new(n)))
            }
            (Prep::Dyn(na), Prep::Dyn(nb)) => Prep::Dyn(Node::Union(Box::new(na), Box::new(nb))),
        },
        Term::Fix(_, _) => {
            return Err(MuraError::Other(
                "nested fixpoint must be hoisted before local execution".into(),
            ))
        }
    })
}

/// Applies one prepared recursive branch to a delta, yielding the produced
/// rows as a relation of their own (used by the `P_gld` driver, which
/// exchanges them before they are accumulated).
pub fn eval_branch<R: LocalRel>(p: &Prepared<R>, delta: &R) -> R {
    let mut sink = Sink::new(&p.schema);
    p.root.rows_into(delta, &mut sink);
    R::from_row_vec(p.schema.clone(), sink.finish())
}

/// Compiles every recursive branch of a fixpoint ([`prepare`]) and charges
/// what they cache for its whole run — build-side indexes and folded
/// constants, shared by all its workers — against the byte budget, so an
/// over-budget setup fails typed before iteration starts.
pub fn prepare_all<R: LocalRel>(
    recs: &[Term],
    x: Sym,
    delta_schema: &Schema,
    budget: &Budget,
) -> Result<Vec<Prepared<R>>> {
    let prepared: Vec<Prepared<R>> =
        recs.iter().map(|r| prepare(r, x, delta_schema)).collect::<Result<_>>()?;
    budget.charge_bytes(prepared.iter().map(Prepared::cached_bytes).sum())?;
    Ok(prepared)
}

/// What the worker loops of a `P_plw` fixpoint run: the compiled branches
/// of the semi-naive loop, or the closure kernel.
pub enum LocalLoops<R> {
    /// The semi-naive loop over the prepared branches.
    Chains(Vec<Prepared<R>>),
    /// A traversal over `E`'s adjacency (see [`crate::reach`]).
    Closure(Closure),
}

/// Compiles a fixpoint's recursive branches for its worker loops, charging
/// what they cache against the byte budget. With `kernel` set to the
/// fixpoint's seed rows, a fixpoint whose only branch has the closure shape
/// takes the closure kernel when that seed is large enough to pay for it
/// ([`Closure::recognise`]); without it, or otherwise, it takes the chains
/// ([`prepare_all`]). Either way every `x`-free subterm is folded once.
pub fn prepare_local<R: LocalRel>(
    recs: &[Term],
    x: Sym,
    delta_schema: &Schema,
    kernel: Option<usize>,
    budget: &Budget,
) -> Result<LocalLoops<R>> {
    let (Some(seed_rows), [branch]) = (kernel, recs) else {
        return prepare_all(recs, x, delta_schema, budget).map(LocalLoops::Chains);
    };
    let branch = fold_invariants(branch, x, delta_schema)?;
    match Closure::recognise(&branch, x, delta_schema, seed_rows) {
        Some(closure) => {
            budget.charge_bytes(closure.cached_bytes())?;
            Ok(LocalLoops::Closure(closure))
        }
        None => prepare_all(&[branch], x, delta_schema, budget).map(LocalLoops::Chains),
    }
}

impl<R: LocalRel> LocalLoops<R> {
    /// Worker `worker`'s loop over its `seed` share, or over its share of
    /// resumed `(acc, delta)` state, which only the chains take.
    pub fn run(
        &self,
        seed: &Relation,
        sup: &Supervision<'_>,
        worker: usize,
        initial: Option<(&Relation, &Relation)>,
    ) -> Result<Relation> {
        match self {
            LocalLoops::Chains(prepared) => {
                local_fixpoint_supervised(seed, prepared, sup, worker, initial)
            }
            LocalLoops::Closure(closure) => {
                assert!(initial.is_none(), "a resumed fixpoint runs the chains");
                closure_fixpoint_supervised(seed, closure, sup, worker)
            }
        }
    }
}

/// `term` with every maximal `x`-free subterm replaced by the constant
/// [`prep`] folds it into — the same folds, counted the same way, as
/// compiling `term` whole would make.
fn fold_invariants(term: &Term, x: Sym, delta_schema: &Schema) -> Result<Term> {
    if term.has_free_var(x) {
        return term.try_map_children(|t| fold_invariants(t, x, delta_schema));
    }
    match prep::<Relation>(term, x, delta_schema)? {
        Prep::Const(r) => Ok(Term::cst(r)),
        Prep::Dyn(_) => unreachable!("a term without the recursion variable folds"),
    }
}

/// Runs a worker-local fixpoint (Algorithm 1) over this worker's `seed`
/// with the given engine, outside any query: nothing injected,
/// checkpointed or traced. Prepares once, then iterates; on SetRDD a
/// closure-shaped fixpoint runs the closure kernel ([`prepare_local`]).
pub fn local_fixpoint(
    seed: &Relation,
    recs: &[Term],
    x: Sym,
    engine: LocalEngine,
    budget: &Budget,
) -> Result<Relation> {
    let schema = seed.schema();
    match engine {
        LocalEngine::SetRdd => {
            let loops = prepare_local::<Relation>(recs, x, schema, Some(seed.len()), budget)?;
            let fault = FaultPlan::disabled();
            loops.run(seed, &Supervision::inert(budget, &fault), 0, None)
        }
        LocalEngine::Sorted => {
            let prepared = prepare_all::<SortedRelation>(recs, x, schema, budget)?;
            local_fixpoint_prepared(seed, &prepared, budget)
        }
    }
}

/// One semi-naive superstep: streams `delta` through every prepared branch
/// and accumulates what comes out into `acc`, in place. Returns the next
/// delta — the rows that were new to `acc`, none at the fixpoint. On an
/// error `acc` may hold part of the superstep's rows: the caller must not
/// iterate on it again without resetting it.
fn local_superstep<R: LocalRel>(
    prepared: &[Prepared<R>],
    acc: &mut R,
    delta: &R,
    budget: &Budget,
) -> Result<R> {
    let start = Instant::now();
    let mut sink = Sink::new(acc.schema());
    for p in prepared {
        assert_eq!(p.schema(), acc.schema(), "recursive branch and accumulator schemas differ");
        p.root.rows_into(delta, &mut sink);
    }
    let produced = sink.finish();
    check_room(acc.len(), produced.len())?;
    let new = acc.absorb_new(produced);
    kernel_stats().record_eval_time(start.elapsed());
    budget.charge(new.len() as u64)?;
    budget.charge_bytes(rel_bytes(new.len() as u64, new.schema().arity()))?;
    Ok(new)
}

/// Runs the semi-naive loop over already-prepared branches, outside any
/// query: nothing injected, checkpointed or traced. Distributed callers
/// prepare once and share the branches (and their cached indexes) across
/// all workers of the fixpoint.
pub fn local_fixpoint_prepared<R: LocalRel>(
    seed: &Relation,
    prepared: &[Prepared<R>],
    budget: &Budget,
) -> Result<Relation> {
    let fault = FaultPlan::disabled();
    local_fixpoint_supervised(seed, prepared, &Supervision::inert(budget, &fault), 0, None)
}

/// The `P_plw` superstep: one worker's [`local_superstep`] as a
/// fault-guarded attempt at the coordinate `(site, worker, iteration)`.
struct WorkerStep<'a, R> {
    prepared: &'a [Prepared<R>],
    worker: usize,
}

impl<R: LocalRel> Superstep for WorkerStep<'_, R> {
    type State = R;

    fn rows(state: &R) -> u64 {
        state.len() as u64
    }

    fn lane(&self) -> i32 {
        self.worker as i32
    }

    fn step(
        &mut self,
        sup: &Supervision<'_>,
        acc: &mut R,
        delta: &R,
        iteration: u64,
        attempt: u32,
    ) -> Result<R> {
        worker_superstep(sup, self.worker, iteration, attempt, || {
            let new = local_superstep(self.prepared, acc, delta, sup.budget)?;
            let rows = new.len() as u64;
            Ok((new, rows))
        })
    }
}

/// Runs `body`, one superstep of worker `worker`'s loop, as a fault-guarded
/// attempt at the coordinate `(site, worker, iteration)`, and records one
/// superstep event for it carrying the rows `body` reports deriving.
/// `P_plw` loops never communicate, so the event's comm fields stay zero by
/// construction — the trace-level counterpart of the paper's claim. Kernel
/// counters are process-wide and racy across workers, so they are left
/// zero here.
pub(crate) fn worker_superstep<T>(
    sup: &Supervision<'_>,
    worker: usize,
    iteration: u64,
    attempt: u32,
    body: impl FnOnce() -> Result<(T, u64)>,
) -> Result<T> {
    let traced = sup.trace.filter(|t| t.superstep_enabled());
    let traced = traced.map(|sink| (sink, sink.now_us(), Instant::now()));
    let (out, rows) = sup.fault.guarded(sup.site, worker, iteration, attempt, body)?;
    if let Some((sink, t_us, started)) = traced {
        let mut ev = TraceEvent::new(EventKind::Superstep, sup.fixpoint, sup.plan);
        ev.worker = worker as i32;
        ev.iteration = iteration;
        ev.delta_rows = rows;
        ev.t_us = t_us;
        ev.dur_us = started.elapsed().as_micros() as u64;
        sink.record(ev);
    }
    Ok(out)
}

/// Worker `worker`'s loop of a `P_plw` fixpoint: [`fixloop::run`] over
/// `WorkerStep`, from this worker's `seed` share — or from its share of
/// resumed `(acc, delta)` state, the incremental view maintenance path; the
/// resumed accumulator already contains the seed share.
pub fn local_fixpoint_supervised<R: LocalRel>(
    seed: &Relation,
    prepared: &[Prepared<R>],
    sup: &Supervision<'_>,
    worker: usize,
    initial: Option<(&Relation, &Relation)>,
) -> Result<Relation> {
    // Iteration-0 state is this worker's share of the accumulator: charge
    // what the loop starts out holding, so a byte budget sees it and not
    // just the deltas produced later.
    let held = initial.map_or(seed.len(), |(a, d)| a.len() + d.len());
    sup.budget.charge_bytes(rel_bytes(held as u64, seed.schema().arity()))?;
    let init = || match initial {
        Some((a, d)) => (R::from_relation(a), R::from_relation(d)),
        None => {
            let acc = R::from_relation(seed);
            let delta = acc.clone();
            (acc, delta)
        }
    };
    let mut step = WorkerStep { prepared, worker };
    Ok(fixloop::run(sup, &mut step, init)?.total.into_relation())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::analysis::check_fcond;
    use mura_core::Database;

    fn setup() -> (Database, Relation, Vec<Term>, Sym) {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let m = db.intern("m");
        let x = db.intern("X");
        let e = Relation::from_pairs(src, dst, [(0, 1), (1, 2), (2, 3), (3, 0), (7, 8)]);
        // Hoisted step: π̃_m(ρ_dst→m(X) ⋈ ρ_src→m(Cst(E))).
        let step =
            Term::var(x).rename(dst, m).join(Term::cst(e.clone()).rename(src, m)).antiproject(m);
        (db, e, vec![step], x)
    }

    #[test]
    fn both_engines_agree_on_tc() {
        let (_db, e, recs, x) = setup();
        let budget = Budget::new(None, None);
        let hash = local_fixpoint(&e, &recs, x, LocalEngine::SetRdd, &budget).unwrap();
        let sorted = local_fixpoint(&e, &recs, x, LocalEngine::Sorted, &budget).unwrap();
        assert_eq!(hash.sorted_rows(), sorted.sorted_rows());
        // 4-cycle {0,1,2,3}: all 16 pairs, plus (7,8).
        assert_eq!(hash.len(), 17);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let (_db, e, recs, x) = setup();
        let budget = Budget::new(Some(3), None);
        let err = local_fixpoint(&e, &recs, x, LocalEngine::SetRdd, &budget).unwrap_err();
        assert!(matches!(err, MuraError::ResourceExhausted { .. }));
    }

    /// Branches `local_fixpoint` refuses, on both engines: a variable left
    /// unhoisted, and the shapes outside F_cond, with the error
    /// `check_fcond` gives the fixpoint they would make.
    #[test]
    fn unhoisted_variable_rejected() {
        let (mut db, _, _, x) = setup();
        let (src, dst, m) = (db.intern("src"), db.intern("dst"), db.intern("m"));
        let free = db.intern("FREE");
        let path = Relation::from_pairs(src, dst, (0..7).map(|i| (i, i + 1)));
        let hop = Term::cst(path.clone());
        let compose = |a: Term, b: Term| a.rename(dst, m).join(b.rename(src, m)).antiproject(m);
        let table = [
            ("unhoisted variable", Term::var(x).join(Term::var(free)), None),
            ("X∘X", compose(Term::var(x), Term::var(x)), Some(MuraError::NotLinear(x))),
            ("hop ▷ X", hop.clone().antijoin(Term::var(x)), Some(MuraError::NotPositive(x))),
            ("X ▷ X", Term::var(x).antijoin(Term::var(x)), Some(MuraError::NotPositive(x))),
        ];
        for (name, branch, expected) in table {
            if let Some(e) = &expected {
                let fix = hop.clone().union(branch.clone()).fix(x);
                assert_eq!(check_fcond(&fix).as_ref(), Err(e), "{name}");
            }
            for engine in [LocalEngine::SetRdd, LocalEngine::Sorted] {
                let budget = Budget::new(None, None);
                let err = local_fixpoint(&path, std::slice::from_ref(&branch), x, engine, &budget)
                    .expect_err(&format!("{name} on {engine:?}"));
                match &expected {
                    Some(e) => assert_eq!(&err, e, "{name} on {engine:?}"),
                    None => assert!(matches!(err, MuraError::Other(_)), "{name}: {err}"),
                }
            }
        }
    }

    #[test]
    fn no_recursive_branch_returns_seed() {
        let (_db, e, _, x) = setup();
        let budget = Budget::new(None, None);
        let out = local_fixpoint(&e, &[], x, LocalEngine::SetRdd, &budget).unwrap();
        assert_eq!(out.sorted_rows(), e.sorted_rows());
    }

    #[test]
    fn filter_inside_branch() {
        let (mut db, e, _, x) = setup();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let m = db.intern("m");
        // Step filtered to never extend (src of E = 100 doesn't exist).
        let step = Term::var(x)
            .rename(dst, m)
            .join(Term::cst(e.clone()).filter_eq(src, 100i64).rename(src, m))
            .antiproject(m);
        let budget = Budget::new(None, None);
        let out = local_fixpoint(&e, &[step], x, LocalEngine::Sorted, &budget).unwrap();
        assert_eq!(out.len(), e.len());
        let _ = dst;
    }
}
