//! # mura-ivm — incremental view maintenance for recursive μ-RA views
//!
//! Turns a cached fixpoint result into a *maintained materialized view*:
//! given an edge-level delta over the base relations, this crate computes
//! per-fixpoint **resume state** `(acc, delta)` from which the distributed
//! drivers (`mura-dist`) continue their ordinary semi-naive loop instead of
//! recomputing from the seed.
//!
//! Two maintenance strategies, chosen per fixpoint by the shape of the
//! batch:
//!
//! * **Insertions** propagate semi-naively. The old total `T = lfp(F)` is
//!   a sound starting accumulator because `F' (the post-delta operator) is
//!   monotone in the base relations, so `T ⊆ lfp(F')`. The one-step
//!   maintenance frontier is computed by the classic per-occurrence delta
//!   rewrite: for every occurrence `k` of a changed relation in a recursive
//!   branch, evaluate the branch with occurrence `k` replaced by the
//!   inserted rows, occurrences before `k` by the old values, occurrences
//!   after `k` by the new values, and the recursion variable by `T`. The
//!   union over all `k` covers `F'(T) \ F(T)` because every μ-RA operator
//!   except antijoin-RHS distributes over union in each argument. A
//!   derivation through a union uses one side, so the variant for `k`
//!   keeps, at every `Union` on the way to `k`, only the side holding it:
//!   the delta of `A ∪ B` is the delta of `A` and the delta of `B`, not
//!   either joined with the whole of the other.
//!
//! * **Deletions** use *DRed* (delete-and-rederive, Gupta–Mumick–Subrahmanian):
//!   over-delete everything derivable from a deleted fact — the same
//!   per-occurrence rewrite with the deleted rows, iterated through the
//!   recursive branches against the **old** base values — then keep the
//!   survivors `S = T \ D` (every survivor has a deletion-free derivation,
//!   so `S ⊆ lfp(F')`) and rederive with one full step over the **new**
//!   base values: `frontier = φ'(S) \ S`. Computing the rederivation step
//!   in full (rather than intersecting with `D`) makes the same path
//!   correct for mixed insert+delete batches.
//!
//! The resume state is keyed by [`mura_core::term_key`] of each `Fix`
//! subterm — the same key under which the serving layer captures fixpoint
//! totals — and handed to `ExecConfig::resume`; the driver folds the
//! (recomputed) seed in as `acc₀ = acc ∪ seed ∪ delta`,
//! `delta₀ = delta ∪ (seed \ acc)`.
//!
//! A view is **unaffected** — exact as it stands, nothing to execute —
//! when the plan reads no changed relation outside a fixpoint and every
//! affected fixpoint has an empty delta in every branch (constant branches
//! included: an insert can grow the seed where the recursive frontier
//! stays empty) and no over-deleted row.
//!
//! Batches compose: [`DeltaBatch::coalesce`] folds the batches a view
//! missed into one net batch (an insert and a delete of the same row
//! cancel), and [`RelDelta::undo`] rebuilds the value a changed relation
//! had before it from the current one, so a view any number of versions
//! behind is maintained in one step.
//!
//! Maintenance **falls back to full recomputation** (with a typed reason)
//! when the rewrite would be unsound or impossible:
//!
//! * a changed relation occurs on the right-hand side of an antijoin
//!   inside a fixpoint's subtree (non-monotone in the change);
//! * a fixpoint nested inside an affected fixpoint reads a changed
//!   relation (μ does not distribute over union in its seed, so the
//!   per-occurrence rewrite under-approximates) — or, for batches with
//!   deletions, any nested fixpoint at all (the over-deletion must cover
//!   const branches too);
//! * no captured total exists for an affected fixpoint (cold cache).

use mura_core::analysis::decompose_fixpoint;
use mura_core::fxhash::{FxHashMap, FxHashSet};
use mura_core::{eval, rel_bytes, term_key, Database, MuraError, Relation, Result, Row, Sym, Term};

/// Insertions and deletions against one base relation. Both sides carry
/// the relation's own schema.
#[derive(Debug, Clone)]
pub struct RelDelta {
    /// Rows to add.
    pub insert: Relation,
    /// Rows to remove.
    pub delete: Relation,
}

impl RelDelta {
    /// An empty delta over `schema`-shaped rows.
    pub fn new(schema: mura_core::Schema) -> Self {
        RelDelta { insert: Relation::new(schema.clone()), delete: Relation::new(schema) }
    }

    /// True when neither side carries rows.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.delete.is_empty()
    }

    /// The relation as it was before this (normalized) delta produced
    /// `cur`: `(cur \ insert) ∪ delete`, on a copy.
    pub fn undo(&self, cur: &Relation) -> Relation {
        let mut old = cur.clone();
        for row in self.insert.iter() {
            old.remove(row);
        }
        for row in self.delete.iter() {
            old.insert(row);
        }
        old
    }
}

/// A batch of base-relation mutations, applied atomically as
/// `R ← (R \ delete) ∪ insert` per relation.
#[derive(Debug, Clone, Default)]
pub struct DeltaBatch {
    /// Per-relation deltas.
    pub rels: FxHashMap<Sym, RelDelta>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        DeltaBatch::default()
    }

    /// Records one inserted row for `rel` (creating the entry from the
    /// database schema on first touch). Errors on unknown relations.
    pub fn push_insert(&mut self, db: &Database, rel: Sym, row: Row) -> Result<()> {
        self.entry(db, rel)?.insert.insert(row);
        Ok(())
    }

    /// Records one deleted row for `rel`.
    pub fn push_delete(&mut self, db: &Database, rel: Sym, row: Row) -> Result<()> {
        self.entry(db, rel)?.delete.insert(row);
        Ok(())
    }

    fn entry(&mut self, db: &Database, rel: Sym) -> Result<&mut RelDelta> {
        match self.rels.entry(rel) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(e.into_mut()),
            std::collections::hash_map::Entry::Vacant(e) => {
                let schema =
                    db.relation(rel).ok_or(MuraError::UnboundVariable(rel))?.schema().clone();
                Ok(e.insert(RelDelta::new(schema)))
            }
        }
    }

    /// Drops no-op rows against the current database: inserts that are
    /// already present, deletes of absent rows, and delete/insert pairs of
    /// the same row. After normalization `insert` holds exactly the rows
    /// that will appear and `delete` exactly the rows that will vanish —
    /// the precondition of [`plan_maintenance`]. Relations the batch does
    /// not actually change are removed entirely. A side whose schema is not
    /// the stored relation's (arity or columns) is a
    /// [`MuraError::SchemaMismatch`], so such a batch is refused before it
    /// is logged or applied.
    pub fn normalize(&mut self, db: &Database) -> Result<()> {
        let mut dead = Vec::new();
        for (rel, d) in self.rels.iter_mut() {
            let cur = db.relation(*rel).ok_or(MuraError::UnboundVariable(*rel))?;
            for side in [&d.insert, &d.delete] {
                if side.schema() != cur.schema() {
                    return Err(MuraError::SchemaMismatch {
                        left: cur.schema().clone(),
                        right: side.schema().clone(),
                        context: "delta batch",
                    });
                }
            }
            // `(R \ delete) ∪ insert`: a row in both sides ends up present.
            let delete = d.delete.filter(|row| cur.contains(row) && !d.insert.contains(row));
            let insert = d.insert.filter(|row| !cur.contains(row));
            d.delete = delete;
            d.insert = insert;
            if d.is_empty() {
                dead.push(*rel);
            }
        }
        for rel in dead {
            self.rels.remove(&rel);
        }
        Ok(())
    }

    /// True when the (normalized) batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.rels.values().all(RelDelta::is_empty)
    }

    /// Total rows across both sides of every relation.
    pub fn len(&self) -> usize {
        self.rels.values().map(|d| d.insert.len() + d.delete.len()).sum()
    }

    /// Estimated footprint of the rows on both sides ([`rel_bytes`]).
    pub fn bytes(&self) -> u64 {
        let bytes = |d: &RelDelta| {
            rel_bytes((d.insert.len() + d.delete.len()) as u64, d.insert.schema().arity())
        };
        self.rels.values().map(bytes).sum()
    }

    /// The relations this batch changes.
    pub fn changed(&self) -> FxHashSet<Sym> {
        self.rels.iter().filter(|(_, d)| !d.is_empty()).map(|(r, _)| *r).collect()
    }

    /// Applies the (normalized) batch to `db`, returning `(inserted,
    /// deleted)` row counts. The stored relations are changed in place —
    /// O(|delta|) unless a reader still shares the store — and their
    /// statistics rescanned by whoever asks next; the values before the
    /// batch are [`RelDelta::undo`]'s to rebuild.
    pub fn apply(&self, db: &mut Database) -> Result<(u64, u64)> {
        let (mut ins, mut del) = (0u64, 0u64);
        for (rel, d) in &self.rels {
            let cur = db.relation_mut(*rel).ok_or(MuraError::UnboundVariable(*rel))?;
            for row in d.delete.iter() {
                del += u64::from(cur.remove(row));
            }
            for row in d.insert.iter() {
                ins += u64::from(cur.insert(row));
            }
        }
        Ok((ins, del))
    }

    /// The net effect of normalized batches applied one after the other,
    /// itself normalized against the database the first one met: a row
    /// inserted and later deleted (or deleted and later inserted) inside
    /// the window cancels, and a relation whose rows all cancel is dropped.
    pub fn coalesce<'a>(batches: impl IntoIterator<Item = &'a DeltaBatch>) -> DeltaBatch {
        let mut net = DeltaBatch::new();
        for batch in batches {
            for (rel, d) in &batch.rels {
                let n = net
                    .rels
                    .entry(*rel)
                    .or_insert_with(|| RelDelta::new(d.insert.schema().clone()));
                for row in d.delete.iter() {
                    if !n.insert.remove(row) {
                        n.delete.insert(row);
                    }
                }
                for row in d.insert.iter() {
                    if !n.delete.remove(row) {
                        n.insert.insert(row);
                    }
                }
            }
        }
        net.rels.retain(|_, d| !d.is_empty());
        net
    }
}

/// Why maintenance refused a plan and a full recomputation is required.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// A changed relation occurs under an antijoin right-hand side inside
    /// a fixpoint: the fixpoint is not monotone in the change.
    NonMonotone,
    /// A nested fixpoint inside an affected fixpoint blocks the
    /// per-occurrence delta rewrite.
    NestedFixpoint,
    /// No captured total for an affected fixpoint (nothing to resume from).
    CacheCold,
    /// The estimated maintenance cost exceeds recomputation (decided by
    /// the caller's cost model, reported through the same channel).
    Cost,
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FallbackReason::NonMonotone => "non-monotone",
            FallbackReason::NestedFixpoint => "nested-fixpoint",
            FallbackReason::CacheCold => "cache-cold",
            FallbackReason::Cost => "cost",
        })
    }
}

/// Resume state for one fixpoint: the starting accumulator and frontier of
/// the continued semi-naive loop (`mura-dist` folds the recomputed seed in
/// itself).
#[derive(Debug, Clone)]
pub struct ResumePair {
    /// Starting accumulator — a subset of the new least fixpoint.
    pub acc: Relation,
    /// Starting frontier — the one-step derivations the delta introduced.
    pub delta: Relation,
}

/// A maintainable plan: resume state per `Fix` subterm plus cost signals.
#[derive(Debug, Clone, Default)]
pub struct Maintenance {
    /// Per-fixpoint resume state, keyed by [`term_key`] of the `Fix`
    /// subterm (the key `ExecConfig::resume` expects).
    pub resume: FxHashMap<u64, ResumePair>,
    /// Total frontier rows across all fixpoints — the size of the work the
    /// resumed loops start from (cost signal for the caller).
    pub frontier_rows: u64,
    /// Rows over-deleted by DRed across all fixpoints (these were removed
    /// from accumulators and must be rederived if still implied).
    pub overdeleted_rows: u64,
}

/// The outcome of planning maintenance for one cached query.
#[derive(Debug, Clone)]
pub enum IvmOutcome {
    /// Nothing the plan computes from moved: it reads none of the changed
    /// relations, or reads them only inside fixpoints whose every branch
    /// has an empty delta. The cached result is exact at the new version
    /// as-is.
    Unaffected,
    /// Resume state per fixpoint; re-execute the plan with it to obtain
    /// the maintained result (and fresh totals).
    Maintain(Maintenance),
    /// Maintenance would be unsound or impossible: recompute.
    Fallback(FallbackReason),
}

/// Plans incremental maintenance of `plan` under a normalized `batch`.
///
/// * `db` — the database **after** the batch was applied (the values
///   before it are rebuilt here, by [`RelDelta::undo`], for the changed
///   relations the plan reads, and dropped on return);
/// * `totals` — previously captured fixpoint totals by [`term_key`]
///   (`ExecStats::fix_totals` of the run that produced the cached result).
///
/// The batch must be normalized against the database the totals were
/// computed from ([`DeltaBatch::normalize`], [`DeltaBatch::coalesce`]):
/// `insert` disjoint from the old value, `delete` a subset of it.
pub fn plan_maintenance(
    plan: &Term,
    db: &Database,
    batch: &DeltaBatch,
    totals: &FxHashMap<u64, Relation>,
) -> Result<IvmOutcome> {
    let reads = plan.free_vars();
    let changed: FxHashSet<Sym> =
        batch.changed().into_iter().filter(|rel| reads.contains(rel)).collect();
    if changed.is_empty() {
        return Ok(IvmOutcome::Unaffected);
    }
    let old = |rel: &Sym| {
        let cur = db.relation(*rel).ok_or(MuraError::UnboundVariable(*rel))?;
        Ok((*rel, batch.rels[rel].undo(cur)))
    };
    let old = changed.iter().map(old).collect::<Result<_>>()?;
    let mut planner =
        Planner { db, batch, totals, changed, old, m: Maintenance::default(), moved: false };
    Ok(match planner.visit(plan, false)? {
        Some(reason) => IvmOutcome::Fallback(reason),
        None if planner.moved => IvmOutcome::Maintain(planner.m),
        None => IvmOutcome::Unaffected,
    })
}

/// One planning run: what it reads, and what it has found so far.
struct Planner<'a> {
    /// The database after the batch.
    db: &'a Database,
    batch: &'a DeltaBatch,
    totals: &'a FxHashMap<u64, Relation>,
    /// The changed relations the plan reads, and their values before the
    /// batch.
    changed: FxHashSet<Sym>,
    old: FxHashMap<Sym, Relation>,
    m: Maintenance,
    /// Whether anything the plan computes from can have moved: a changed
    /// relation read outside every fixpoint, or a fixpoint with a
    /// non-empty delta in some branch or an over-deleted row. While false,
    /// the cached answer is the answer.
    moved: bool,
}

impl Planner<'_> {
    /// Walks the plan, planning every `Fix` subterm (outer and nested —
    /// nested fixpoints evaluated while the driver recomputes an outer
    /// seed benefit from resume state too). Returns a fallback reason as
    /// soon as any affected fixpoint cannot be maintained.
    fn visit(&mut self, t: &Term, in_fix: bool) -> Result<Option<FallbackReason>> {
        let in_fix = match t {
            Term::Fix(x, body) => {
                if let Some(reason) = self.plan_fix(t, *x, body)? {
                    return Ok(Some(reason));
                }
                true
            }
            Term::Var(v) => {
                self.moved |= !in_fix && self.changed.contains(v);
                in_fix
            }
            _ => in_fix,
        };
        for c in t.children() {
            if let Some(reason) = self.visit(c, in_fix)? {
                return Ok(Some(reason));
            }
        }
        Ok(None)
    }

    fn plan_fix(&mut self, fix_term: &Term, x: Sym, body: &Term) -> Result<Option<FallbackReason>> {
        let key = term_key(fix_term);
        let reads: Vec<Sym> =
            fix_term.free_vars().into_iter().filter(|v| self.changed.contains(v)).collect();
        let affected = !reads.is_empty();
        let Some(total) = self.totals.get(&key) else {
            // An unaffected fixpoint without a captured total simply gets
            // no resume entry (the driver recomputes it); an affected one
            // cannot be maintained at all.
            return Ok(affected.then_some(FallbackReason::CacheCold));
        };
        if !affected {
            // Exact as-is: empty frontier, so the resumed loop terminates
            // immediately with the old total.
            let delta = Relation::new(total.schema().clone());
            self.m.resume.insert(key, ResumePair { acc: total.clone(), delta });
            return Ok(None);
        }
        if changed_under_antijoin_rhs(fix_term, &self.changed) {
            return Ok(Some(FallbackReason::NonMonotone));
        }
        let deletes = |r: &Sym| !self.batch.rels[r].delete.is_empty();
        let (consts, recs) = decompose_fixpoint(x, body)?;
        let (acc, delta, overdeleted) = if reads.iter().any(deletes) {
            // DRed needs sound over-deletion through every branch, const
            // branches included; a nested fixpoint anywhere under this one
            // breaks the per-occurrence rewrite.
            if body.fixpoint_count() > 0 {
                return Ok(Some(FallbackReason::NestedFixpoint));
            }
            self.dred(&consts, &recs, x, total)?
        } else {
            let Some(delta) = self.inserted(&recs, x, total)? else {
                return Ok(Some(FallbackReason::NestedFixpoint));
            };
            (total.clone(), delta, 0)
        };
        // An insert can grow the seed while the recursive frontier stays
        // empty, so "frontier = 0" alone does not say the total stands. A
        // constant branch the rewrite cannot see through counts as grown.
        if overdeleted > 0
            || !delta.is_empty()
            || self.inserted(&consts, x, total)?.is_none_or(|seed| !seed.is_empty())
        {
            self.moved = true;
        }
        self.m.frontier_rows += delta.len() as u64;
        self.m.overdeleted_rows += overdeleted;
        self.m.resume.insert(key, ResumePair { acc, delta });
        Ok(None)
    }

    /// One-step insertion delta of `branches`, beyond `total`: the
    /// per-occurrence delta rewrite with the recursion variable pinned at
    /// the old total. Returns `None` when a nested fixpoint inside a branch
    /// reads a changed relation (the rewrite would under-approximate).
    fn inserted(&self, branches: &[&Term], x: Sym, total: &Relation) -> Result<Option<Relation>> {
        let x_total = Term::cst(total.clone());
        let mut delta = Relation::new(total.schema().clone());
        for branch in branches {
            if nested_fix_reads(branch, &self.changed) {
                return Ok(None);
            }
            let b = branch.substitute(x, &x_total);
            for k in 0..count_changed_occs(&b, &self.changed) {
                let variant = subst_occs(&b, &self.changed, Some(k), &mut 0, &mut |rel, i| {
                    use std::cmp::Ordering::*;
                    match i.cmp(&k) {
                        // Telescoping: old values before the delta
                        // position, the inserted rows at it, new values
                        // (the plain `Var`, resolved from `db`) after it.
                        Less => Some(Term::cst(self.old[&rel].clone())),
                        Equal => Some(Term::cst(self.batch.rels[&rel].insert.clone())),
                        Greater => None,
                    }
                });
                delta.absorb(eval(&variant, self.db)?);
            }
        }
        Ok(Some(delta.minus(total)))
    }

    /// Delete-and-rederive. Returns `(survivors, frontier, overdeleted)`:
    /// the accumulator `S = T \ D`, the full-step rederivation frontier
    /// `φ'(S) \ S` over the new base values, and `|D|`.
    fn dred(
        &self,
        consts: &[&Term],
        recs: &[&Term],
        x: Sym,
        total: &Relation,
    ) -> Result<(Relation, Relation, u64)> {
        let changed = &self.changed;
        let x_total = Term::cst(total.clone());
        // Over-deletion seed D₀: every branch (const and recursive), every
        // occurrence of a changed relation replaced by its deleted rows,
        // all other changed occurrences and the recursion variable at
        // their OLD values — everything derivable in the old world from a
        // deleted fact.
        let mut d = Relation::new(total.schema().clone());
        for branch in consts.iter().chain(recs.iter()) {
            let b = branch.substitute(x, &x_total);
            for k in 0..count_changed_occs(&b, changed) {
                let variant = subst_occs(&b, changed, Some(k), &mut 0, &mut |rel, i| {
                    let rows = if i == k { &self.batch.rels[&rel].delete } else { &self.old[&rel] };
                    Some(Term::cst(rows.clone()))
                });
                d.absorb(intersect(&eval(&variant, self.db)?, total));
            }
        }
        // Propagate: anything derivable (in the old world) from an
        // over-deleted tuple is over-deleted too.
        let mut dk = d.clone();
        while !dk.is_empty() {
            let x_dk = Term::cst(dk.clone());
            let mut next = Relation::new(total.schema().clone());
            for branch in recs {
                let old_world = &mut |rel, _| Some(Term::cst(self.old[&rel].clone()));
                let variant = subst_occs(branch, changed, None, &mut 0, old_world);
                next.absorb(eval(&variant.substitute(x, &x_dk), self.db)?);
            }
            dk = intersect(&next, total).minus(&d);
            d.absorb(dk.clone());
        }
        let overdeleted = d.len() as u64;
        let survivors = total.minus(&d);
        // Rederive with one FULL step over the new base values.
        // Deliberately not intersected with D: with mixed batches the step
        // also produces insertion-driven derivations that never were in
        // the old total.
        let x_s = Term::cst(survivors.clone());
        let mut frontier = Relation::new(total.schema().clone());
        for branch in recs {
            frontier.absorb(eval(&branch.substitute(x, &x_s), self.db)?);
        }
        let frontier = frontier.minus(&survivors);
        Ok((survivors, frontier, overdeleted))
    }
}

fn intersect(a: &Relation, b: &Relation) -> Relation {
    a.filter(|row| b.contains(row))
}

/// True when a changed relation occurs anywhere under the right-hand side
/// of an antijoin within `t`.
fn changed_under_antijoin_rhs(t: &Term, changed: &FxHashSet<Sym>) -> bool {
    match t {
        Term::Antijoin(a, b) => {
            b.free_vars().iter().any(|v| changed.contains(v))
                || changed_under_antijoin_rhs(a, changed)
                || changed_under_antijoin_rhs(b, changed)
        }
        _ => t.children().iter().any(|c| changed_under_antijoin_rhs(c, changed)),
    }
}

/// True when a `Fix` subterm strictly inside `t` reads a changed relation.
fn nested_fix_reads(t: &Term, changed: &FxHashSet<Sym>) -> bool {
    t.children().iter().any(|c| match c {
        Term::Fix(_, _) => c.free_vars().iter().any(|v| changed.contains(v)),
        _ => nested_fix_reads(c, changed),
    })
}

/// Number of occurrences of changed relations in `t`, in the same
/// depth-first order [`subst_occs`] uses.
fn count_changed_occs(t: &Term, changed: &FxHashSet<Sym>) -> usize {
    match t {
        Term::Var(v) => usize::from(changed.contains(v)),
        Term::Cst(_) => 0,
        _ => t.children().iter().map(|c| count_changed_occs(c, changed)).sum(),
    }
}

/// Rebuilds `t` with every depth-first occurrence `i` of a changed
/// relation passed through `f(rel, i)`; `None` keeps the occurrence as-is
/// (its value then comes from whatever database the variant is evaluated
/// against). With `only = Some(k)` the result is the delta variant for
/// occurrence `k`: at every `Union` on the way to `k` just the side that
/// holds `k` is kept — a derivation through a union uses one side, and
/// what the other side derives belongs to the variants of its own
/// occurrences (siblings of *joins* stay, they are what `f` telescopes).
/// Fixpoint binders cannot shadow relation names (`F_cond` rejects
/// shadowing), so recursing under `Fix` is safe.
fn subst_occs(
    t: &Term,
    changed: &FxHashSet<Sym>,
    only: Option<usize>,
    next: &mut usize,
    f: &mut dyn FnMut(Sym, usize) -> Option<Term>,
) -> Term {
    match t {
        Term::Var(v) if changed.contains(v) => {
            let i = *next;
            *next += 1;
            f(*v, i).unwrap_or_else(|| t.clone())
        }
        Term::Union(a, b) => {
            let mid = *next + count_changed_occs(a, changed);
            let end = mid + count_changed_occs(b, changed);
            let (side, at) = match only {
                Some(k) if (*next..mid).contains(&k) => (a, *next),
                Some(k) if (mid..end).contains(&k) => (b, mid),
                _ => return t.map_children(|c| subst_occs(c, changed, only, next, f)),
            };
            *next = at;
            let kept = subst_occs(side, changed, only, next, f);
            *next = end;
            kept
        }
        _ => t.map_children(|c| subst_occs(c, changed, only, next, f)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::Value;
    use mura_datagen::SplitMix64;

    /// Transitive-closure database and plan, `μ(X = E ∪ π̃(ρ(X) ⋈ ρ(E)))` —
    /// or, with `union`, the same closure over two relations:
    /// `μ(X = (E ∪ F) ∪ π̃(ρ(X) ⋈ ρ(E ∪ F)))`, the edges dealt out in turn.
    /// Returns the relations edges live in (`F` last).
    fn tc_setup(edges: &[(u64, u64)], union: bool) -> (Database, Term, Vec<Sym>) {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let mid = db.intern("m");
        let x = db.intern("X");
        let e_edges = edges.iter().copied().step_by(if union { 2 } else { 1 });
        let e = db.insert_relation("E", Relation::from_pairs(src, dst, e_edges));
        let mut rels = vec![e];
        let mut edge = Term::var(e);
        if union {
            let f_edges = edges.iter().copied().skip(1).step_by(2);
            let f = db.insert_relation("F", Relation::from_pairs(src, dst, f_edges));
            rels.push(f);
            edge = edge.union(Term::var(f));
        }
        let step =
            Term::var(x).rename(dst, mid).join(edge.clone().rename(src, mid)).antiproject(mid);
        (db, edge.union(step).fix(x), rels)
    }

    fn pair_row(a: u64, b: u64) -> Row {
        vec![Value::node(a), Value::node(b)].into_boxed_slice()
    }

    /// Inserts go to the last relation, deletes to whichever holds the row
    /// (normalization drops the others).
    fn batch_of(db: &Database, rels: &[Sym], ins: &[(u64, u64)], del: &[(u64, u64)]) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        for &(a, b) in ins {
            batch.push_insert(db, *rels.last().unwrap(), pair_row(a, b)).unwrap();
        }
        for &(a, b) in del {
            for rel in rels {
                batch.push_delete(db, *rel, pair_row(a, b)).unwrap();
            }
        }
        batch.normalize(db).unwrap();
        batch
    }

    /// Simulates the driver's resume protocol centrally: fold the seed in,
    /// then run plain semi-naive from the resumed state.
    fn resumed_lfp(plan: &Term, resume: &ResumePair, db: &Database) -> Relation {
        let Term::Fix(x, body) = plan else { panic!("expected fixpoint plan") };
        let (consts, recs) = decompose_fixpoint(*x, body).unwrap();
        let mut seed = Relation::new(resume.acc.schema().clone());
        for c in &consts {
            seed.absorb(eval(c, db).unwrap());
        }
        let mut delta = resume.delta.clone();
        for row in seed.iter() {
            if !resume.acc.contains(row) {
                delta.insert(row);
            }
        }
        let mut acc = resume.acc.clone();
        acc.absorb(seed);
        for row in delta.iter() {
            acc.insert(row);
        }
        while !delta.is_empty() {
            let x_d = Term::cst(delta.clone());
            let mut new = Relation::new(acc.schema().clone());
            for r in &recs {
                new.absorb(eval(&r.substitute(*x, &x_d), db).unwrap());
            }
            let new = new.minus(&acc);
            acc.absorb(new.clone());
            delta = new;
        }
        acc
    }

    /// Plans maintenance of the closure under one batch, on both shapes,
    /// and checks the resumed fixpoint against evaluation from scratch.
    fn maintain_and_check(edges: &[(u64, u64)], ins: &[(u64, u64)], del: &[(u64, u64)]) {
        for union in [false, true] {
            let (mut db, plan, rels) = tc_setup(edges, union);
            let total = eval(&plan, &db).unwrap();
            let totals = FxHashMap::from_iter([(term_key(&plan), total.clone())]);
            let batch = batch_of(&db, &rels, ins, del);
            batch.apply(&mut db).unwrap();
            let expected = eval(&plan, &db).unwrap();
            let got = match plan_maintenance(&plan, &db, &batch, &totals).unwrap() {
                IvmOutcome::Unaffected => total,
                IvmOutcome::Maintain(m) => resumed_lfp(&plan, &m.resume[&term_key(&plan)], &db),
                IvmOutcome::Fallback(r) => panic!("unexpected fallback: {r}"),
            };
            assert_eq!(
                got.sorted_rows(),
                expected.sorted_rows(),
                "maintained view diverged for ins={ins:?} del={del:?} union={union}"
            );
        }
    }

    #[test]
    fn insert_extends_closure() {
        maintain_and_check(&[(1, 2), (2, 3)], &[(3, 4)], &[]);
    }

    #[test]
    fn insert_bridges_components() {
        maintain_and_check(&[(1, 2), (5, 6), (6, 7)], &[(2, 5)], &[]);
    }

    #[test]
    fn delete_cuts_closure() {
        maintain_and_check(&[(1, 2), (2, 3), (3, 4)], &[], &[(2, 3)]);
    }

    #[test]
    fn delete_with_alternative_path_keeps_rows() {
        // 1→2→3 and 1→3 directly: deleting 2→3 must keep (1,3).
        maintain_and_check(&[(1, 2), (2, 3), (1, 3), (3, 4)], &[], &[(2, 3)]);
    }

    #[test]
    fn delete_in_cycle_rederives() {
        // DRed over-deletes the whole cycle's closure, then rederives the
        // part still implied by the surviving edges.
        maintain_and_check(&[(1, 2), (2, 3), (3, 1)], &[], &[(3, 1)]);
    }

    #[test]
    fn mixed_batch_insert_and_delete() {
        maintain_and_check(&[(1, 2), (2, 3), (3, 4)], &[(4, 5), (0, 1)], &[(2, 3)]);
    }

    #[test]
    fn delete_everything() {
        maintain_and_check(&[(1, 2), (2, 3)], &[], &[(1, 2), (2, 3)]);
    }

    /// A derivation through a union uses one side: deleting a leaf edge of
    /// `F` over-deletes the rows that end in that leaf, not everything the
    /// old total reaches through `E`.
    #[test]
    fn deleting_a_leaf_edge_under_a_union_overdeletes_only_its_rows() {
        // A chain 0→1→…→20 dealt out over E and F; (19, 20) lands in F.
        let chain: Vec<(u64, u64)> = (0..20).map(|i| (i, i + 1)).collect();
        let (mut db, plan, rels) = tc_setup(&chain, true);
        assert!(db.relation(rels[1]).unwrap().contains(&pair_row(19, 20)));
        let total = eval(&plan, &db).unwrap();
        let into_leaf = total.iter().filter(|row| row[1] == Value::node(20)).count() as u64;
        let totals = FxHashMap::from_iter([(term_key(&plan), total.clone())]);
        let batch = batch_of(&db, &rels, &[], &[(19, 20)]);
        batch.apply(&mut db).unwrap();
        let IvmOutcome::Maintain(m) = plan_maintenance(&plan, &db, &batch, &totals).unwrap() else {
            panic!("a deleted edge of the closure must be maintained")
        };
        assert!(
            (1..=into_leaf).contains(&m.overdeleted_rows),
            "{} over-deleted of {} rows, {into_leaf} of them into the leaf",
            m.overdeleted_rows,
            total.len()
        );
    }

    /// `μ(X = σ_{src=1}(E) ∪ π̃(ρ(X) ⋈ ρ(E)))` — what node 1 reaches — over
    /// two components: an edge in the other component is out of reach, an
    /// edge out of node 1 into it grows the seed and nothing else.
    #[test]
    fn a_fixpoint_the_batch_cannot_reach_is_unaffected_but_a_grown_seed_is_not() {
        let (mut db, _, rels) = tc_setup(&[(1, 2), (2, 3), (10, 11)], false);
        let (src, dst, mid, x) =
            (db.intern("src"), db.intern("dst"), db.intern("m"), db.intern("X"));
        let e = rels[0];
        let seed = Term::var(e).filter(mura_core::Pred::Eq(src, Value::node(1)));
        let step =
            Term::var(x).rename(dst, mid).join(Term::var(e).rename(src, mid)).antiproject(mid);
        let plan = seed.union(step).fix(x);
        let mut totals = FxHashMap::from_iter([(term_key(&plan), eval(&plan, &db).unwrap())]);

        for (edge, unaffected) in [((11, 12), true), ((1, 30), false), ((30, 31), false)] {
            let insert = batch_of(&db, &rels, &[edge], &[]);
            insert.apply(&mut db).unwrap();
            let outcome = plan_maintenance(&plan, &db, &insert, &totals).unwrap();
            assert_eq!(matches!(outcome, IvmOutcome::Unaffected), unaffected, "+{edge:?}");
            if let IvmOutcome::Maintain(m) = &outcome {
                assert_eq!(m.frontier_rows, u64::from(edge == (30, 31)), "+{edge:?}: {m:?}");
            }
            totals.insert(term_key(&plan), eval(&plan, &db).unwrap());
        }
        // Deletes likewise: out of reach, then a row of the total.
        for (edge, unaffected) in [((10, 11), true), ((2, 3), false)] {
            let delete = batch_of(&db, &rels, &[], &[edge]);
            delete.apply(&mut db).unwrap();
            let outcome = plan_maintenance(&plan, &db, &delete, &totals).unwrap();
            assert_eq!(matches!(outcome, IvmOutcome::Unaffected), unaffected, "-{edge:?}");
        }
        // A changed relation read outside every fixpoint moves the answer.
        let outside = plan.clone().join(Term::var(e));
        let insert = batch_of(&db, &rels, &[(40, 41)], &[]);
        insert.apply(&mut db).unwrap();
        totals.insert(term_key(&plan), eval(&plan, &db).unwrap());
        let outcome = plan_maintenance(&outside, &db, &insert, &totals).unwrap();
        assert!(matches!(outcome, IvmOutcome::Maintain(_)), "{outcome:?}");
    }

    /// 600 random sequences of normalized batches over a small edge set —
    /// single rows inserted then deleted, deleted then inserted, and
    /// random batches in between: undoing the coalesced batch on the final
    /// relation gives the first one back, and applying it to the first
    /// gives the final one.
    #[test]
    fn coalesced_batches_undo_to_the_start_and_apply_to_the_end() {
        let mut rng = SplitMix64::seed_from_u64(0x5eed_c0a1);
        for sequence in 0..600 {
            let edges: Vec<(u64, u64)> = (0..rng.gen_range(0..12u64))
                .map(|_| (rng.gen_range(0..5u64), rng.gen_range(0..5u64)))
                .collect();
            let (mut db, _, rels) = tc_setup(&edges, false);
            let first = db.clone();
            let mut log = Vec::new();
            let mut pending: Option<((u64, u64), bool)> = None;
            for _ in 0..rng.gen_range(1..9usize) {
                let pair = |rng: &mut SplitMix64| (rng.gen_range(0..5u64), rng.gen_range(0..5u64));
                let (ins, del) = match pending.take() {
                    // The second half of a pair: take back what the batch
                    // before did to one row.
                    Some((edge, true)) => (vec![], vec![edge]),
                    Some((edge, false)) => (vec![edge], vec![]),
                    None if rng.gen_bool(0.4) => {
                        let edge = pair(&mut rng);
                        let present =
                            db.relation(rels[0]).unwrap().contains(&pair_row(edge.0, edge.1));
                        pending = Some((edge, !present));
                        if present {
                            (vec![], vec![edge])
                        } else {
                            (vec![edge], vec![])
                        }
                    }
                    None => {
                        let n = rng.gen_range(0..4usize);
                        (
                            (0..n).map(|_| pair(&mut rng)).collect(),
                            (0..n).map(|_| pair(&mut rng)).collect(),
                        )
                    }
                };
                let batch = batch_of(&db, &rels, &ins, &del);
                batch.apply(&mut db).unwrap();
                log.push(batch);
            }
            let net = DeltaBatch::coalesce(&log);
            let (start, end) = (first.relation(rels[0]).unwrap(), db.relation(rels[0]).unwrap());
            let undone = net.rels.get(&rels[0]).map(|d| d.undo(end));
            assert_eq!(undone.as_ref().unwrap_or(end), start, "sequence {sequence}: undo");
            assert_eq!(net.is_empty(), start == end, "sequence {sequence}: {net:?}");
            let mut replayed = first.clone();
            let (ins, del) = net.apply(&mut replayed).unwrap();
            assert_eq!(replayed.relation(rels[0]).unwrap(), end, "sequence {sequence}: apply");
            // Normalized against the start: every row of it took effect.
            assert_eq!(ins + del, net.len() as u64, "sequence {sequence}: {net:?}");
        }
    }

    #[test]
    fn noop_batch_is_unaffected() {
        let (mut db, plan, rels) = tc_setup(&[(1, 2), (2, 3)], false);
        let batch = batch_of(&db, &rels, &[(1, 2)], &[]); // already present
        assert!(batch.is_empty());
        assert_eq!(batch.apply(&mut db).unwrap(), (0, 0));
        let outcome = plan_maintenance(&plan, &db, &batch, &FxHashMap::default()).unwrap();
        assert!(matches!(outcome, IvmOutcome::Unaffected));
    }

    #[test]
    fn unrelated_relation_is_unaffected() {
        let (mut db, plan, _) = tc_setup(&[(1, 2)], false);
        let src = db.intern("src");
        let dst = db.intern("dst");
        let other = db.insert_relation("Other", Relation::from_pairs(src, dst, [(9, 9)]));
        let batch = batch_of(&db, &[other], &[(7, 7)], &[]);
        batch.apply(&mut db).unwrap();
        let outcome = plan_maintenance(&plan, &db, &batch, &FxHashMap::default()).unwrap();
        assert!(matches!(outcome, IvmOutcome::Unaffected));
    }

    #[test]
    fn cold_cache_falls_back() {
        let (mut db, plan, rels) = tc_setup(&[(1, 2), (2, 3)], false);
        let batch = batch_of(&db, &rels, &[(3, 4)], &[]);
        batch.apply(&mut db).unwrap();
        let outcome = plan_maintenance(&plan, &db, &batch, &FxHashMap::default()).unwrap();
        assert!(matches!(outcome, IvmOutcome::Fallback(FallbackReason::CacheCold)));
    }

    #[test]
    fn changed_under_antijoin_rhs_falls_back() {
        let (mut db, _, rels) = tc_setup(&[(1, 2), (2, 3)], false);
        let (x, e) = (db.dict().lookup("X").unwrap(), rels[0]);
        // μ(X = E ∪ (X ▷ E)): E on an antijoin RHS inside the body.
        let plan = Term::var(e).union(Term::var(x).antijoin(Term::var(e))).fix(x);
        let totals = FxHashMap::from_iter([(term_key(&plan), eval(&plan, &db).unwrap())]);
        let batch = batch_of(&db, &rels, &[(3, 4)], &[]);
        batch.apply(&mut db).unwrap();
        let outcome = plan_maintenance(&plan, &db, &batch, &totals).unwrap();
        assert!(matches!(outcome, IvmOutcome::Fallback(FallbackReason::NonMonotone)));
    }

    #[test]
    fn normalize_cancels_insert_delete_pairs() {
        let (db, _, rels) = tc_setup(&[(1, 2)], false);
        let e = rels[0];
        let mut batch = DeltaBatch::new();
        // Present row in both sides: net no-op under (R \ D) ∪ I.
        batch.push_insert(&db, e, pair_row(1, 2)).unwrap();
        batch.push_delete(&db, e, pair_row(1, 2)).unwrap();
        // Absent row in both sides: net insert.
        batch.push_insert(&db, e, pair_row(8, 9)).unwrap();
        batch.push_delete(&db, e, pair_row(8, 9)).unwrap();
        batch.normalize(&db).unwrap();
        let d = &batch.rels[&e];
        assert!(d.delete.is_empty());
        assert_eq!(d.insert.len(), 1);
        assert!(d.insert.contains(&pair_row(8, 9)));
    }
}
