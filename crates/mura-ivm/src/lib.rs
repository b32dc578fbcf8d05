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
//!   except antijoin-RHS distributes over union in each argument.
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
use mura_core::{eval, term_key, Database, MuraError, Relation, Result, Row, Sym, Term};

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
    /// not actually change are removed entirely.
    pub fn normalize(&mut self, db: &Database) -> Result<()> {
        let mut dead = Vec::new();
        for (rel, d) in self.rels.iter_mut() {
            let cur = db.relation(*rel).ok_or(MuraError::UnboundVariable(*rel))?;
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

    /// The relations this batch changes.
    pub fn changed(&self) -> FxHashSet<Sym> {
        self.rels.iter().filter(|(_, d)| !d.is_empty()).map(|(r, _)| *r).collect()
    }

    /// Applies the (normalized) batch to `db`, returning
    /// `(inserted, deleted)` row counts. The pre-delta values of the
    /// changed relations are returned so maintenance can evaluate old-base
    /// variants; `Relation` is copy-on-write, so keeping them is cheap.
    pub fn apply(&self, db: &mut Database) -> Result<(u64, u64, FxHashMap<Sym, Relation>)> {
        let mut old = FxHashMap::default();
        let (mut ins, mut del) = (0u64, 0u64);
        for (rel, d) in &self.rels {
            let cur = db.relation(*rel).ok_or(MuraError::UnboundVariable(*rel))?.clone();
            old.insert(*rel, cur.clone());
            let mut next = cur;
            for row in d.delete.iter() {
                if next.remove(row) {
                    del += 1;
                }
            }
            for row in d.insert.iter() {
                if next.insert(row) {
                    ins += 1;
                }
            }
            db.insert_relation_sym(*rel, next);
        }
        Ok((ins, del, old))
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
    /// The plan reads none of the changed relations: the cached result is
    /// exact at the new version as-is.
    Unaffected,
    /// Resume state per fixpoint; re-execute the plan with it to obtain
    /// the maintained result (and fresh totals).
    Maintain(Maintenance),
    /// Maintenance would be unsound or impossible: recompute.
    Fallback(FallbackReason),
}

/// Plans incremental maintenance of `plan` under a normalized `batch`.
///
/// * `new_db` — the database **after** the batch was applied;
/// * `old_rels` — pre-delta values of the changed relations (from
///   [`DeltaBatch::apply`]);
/// * `totals` — previously captured fixpoint totals by [`term_key`]
///   (`ExecStats::fix_totals` of the run that produced the cached result).
///
/// The batch must be normalized ([`DeltaBatch::normalize`]): `insert`
/// disjoint from the old value, `delete` a subset of it.
pub fn plan_maintenance(
    plan: &Term,
    new_db: &Database,
    old_rels: &FxHashMap<Sym, Relation>,
    batch: &DeltaBatch,
    totals: &FxHashMap<u64, Relation>,
) -> Result<IvmOutcome> {
    let changed = batch.changed();
    if changed.is_empty() || !plan.free_vars().iter().any(|v| changed.contains(v)) {
        return Ok(IvmOutcome::Unaffected);
    }
    let mut m = Maintenance::default();
    match visit(plan, new_db, old_rels, batch, &changed, totals, &mut m)? {
        Some(reason) => Ok(IvmOutcome::Fallback(reason)),
        None => Ok(IvmOutcome::Maintain(m)),
    }
}

/// Walks the plan, planning every `Fix` subterm (outer and nested — nested
/// fixpoints evaluated while the driver recomputes an outer seed benefit
/// from resume state too). Returns a fallback reason as soon as any
/// affected fixpoint cannot be maintained.
fn visit(
    t: &Term,
    new_db: &Database,
    old_rels: &FxHashMap<Sym, Relation>,
    batch: &DeltaBatch,
    changed: &FxHashSet<Sym>,
    totals: &FxHashMap<u64, Relation>,
    m: &mut Maintenance,
) -> Result<Option<FallbackReason>> {
    if let Term::Fix(x, body) = t {
        if let Some(reason) = plan_fix(t, *x, body, new_db, old_rels, batch, changed, totals, m)? {
            return Ok(Some(reason));
        }
    }
    for c in t.children() {
        if let Some(reason) = visit(c, new_db, old_rels, batch, changed, totals, m)? {
            return Ok(Some(reason));
        }
    }
    Ok(None)
}

#[allow(clippy::too_many_arguments)]
fn plan_fix(
    fix_term: &Term,
    x: Sym,
    body: &Term,
    new_db: &Database,
    old_rels: &FxHashMap<Sym, Relation>,
    batch: &DeltaBatch,
    changed: &FxHashSet<Sym>,
    totals: &FxHashMap<u64, Relation>,
    m: &mut Maintenance,
) -> Result<Option<FallbackReason>> {
    let key = term_key(fix_term);
    let affected = fix_term.free_vars().iter().any(|v| changed.contains(v));
    let Some(total) = totals.get(&key) else {
        // An unaffected fixpoint without a captured total simply gets no
        // resume entry (the driver recomputes it); an affected one cannot
        // be maintained at all.
        return Ok(if affected { Some(FallbackReason::CacheCold) } else { None });
    };
    if !affected {
        // Exact as-is: empty frontier, so the resumed loop terminates
        // immediately with the old total.
        m.resume.insert(
            key,
            ResumePair { acc: total.clone(), delta: Relation::new(total.schema().clone()) },
        );
        return Ok(None);
    }
    if changed_under_antijoin_rhs(fix_term, changed) {
        return Ok(Some(FallbackReason::NonMonotone));
    }
    let reads: Vec<Sym> =
        fix_term.free_vars().iter().copied().filter(|v| changed.contains(v)).collect();
    let has_deletes = reads.iter().any(|r| batch.rels.get(r).is_some_and(|d| !d.delete.is_empty()));
    let (consts, recs) = decompose_fixpoint(x, body)?;
    if has_deletes {
        // DRed needs sound over-deletion through every branch, const
        // branches included; a nested fixpoint anywhere under this one
        // breaks the per-occurrence rewrite.
        if body.fixpoint_count() > 0 {
            return Ok(Some(FallbackReason::NestedFixpoint));
        }
        let (acc, delta, overdeleted) =
            dred(&consts, &recs, x, total, changed, batch, old_rels, new_db)?;
        m.frontier_rows += delta.len() as u64;
        m.overdeleted_rows += overdeleted;
        m.resume.insert(key, ResumePair { acc, delta });
    } else {
        let delta = insert_frontier(&recs, x, total, changed, batch, old_rels, new_db)?;
        let Some(delta) = delta else {
            return Ok(Some(FallbackReason::NestedFixpoint));
        };
        m.frontier_rows += delta.len() as u64;
        m.resume.insert(key, ResumePair { acc: total.clone(), delta });
    }
    Ok(None)
}

/// One-step insertion frontier: the per-occurrence delta rewrite over the
/// recursive branches with the recursion variable pinned at the old total.
/// Returns `None` when a nested fixpoint inside a branch reads a changed
/// relation (the rewrite would under-approximate).
fn insert_frontier(
    recs: &[&Term],
    x: Sym,
    total: &Relation,
    changed: &FxHashSet<Sym>,
    batch: &DeltaBatch,
    old_rels: &FxHashMap<Sym, Relation>,
    new_db: &Database,
) -> Result<Option<Relation>> {
    let x_total = Term::cst(total.clone());
    let mut frontier = Relation::new(total.schema().clone());
    for branch in recs {
        if nested_fix_reads(branch, changed) {
            return Ok(None);
        }
        let b = branch.substitute(x, &x_total);
        let occs = count_changed_occs(&b, changed);
        for k in 0..occs {
            let variant = subst_occs(&b, changed, &mut 0, &mut |rel, i| {
                use std::cmp::Ordering::*;
                match i.cmp(&k) {
                    // Telescoping: old values before the delta position,
                    // the inserted rows at it, new values (the plain `Var`,
                    // resolved from `new_db`) after it.
                    Less => Some(Term::cst(old_value(rel, old_rels, new_db))),
                    Equal => Some(Term::cst(batch.rels[&rel].insert.clone())),
                    Greater => None,
                }
            });
            frontier.absorb(eval(&variant, new_db)?);
        }
    }
    Ok(Some(frontier.minus(total)))
}

/// Delete-and-rederive. Returns `(survivors, frontier, overdeleted)`:
/// the accumulator `S = T \ D`, the full-step rederivation frontier
/// `φ'(S) \ S` over the new base values, and `|D|`.
#[allow(clippy::too_many_arguments)]
fn dred(
    consts: &[&Term],
    recs: &[&Term],
    x: Sym,
    total: &Relation,
    changed: &FxHashSet<Sym>,
    batch: &DeltaBatch,
    old_rels: &FxHashMap<Sym, Relation>,
    new_db: &Database,
) -> Result<(Relation, Relation, u64)> {
    let x_total = Term::cst(total.clone());
    // Over-deletion seed D₀: every branch (const and recursive), every
    // occurrence of a changed relation replaced by its deleted rows, all
    // other changed occurrences and the recursion variable at their OLD
    // values — everything derivable in the old world from a deleted fact.
    let mut d = Relation::new(total.schema().clone());
    for branch in consts.iter().chain(recs.iter()) {
        let b = branch.substitute(x, &x_total);
        let occs = count_changed_occs(&b, changed);
        for k in 0..occs {
            let variant = subst_occs(&b, changed, &mut 0, &mut |rel, i| {
                if i == k {
                    Some(Term::cst(batch.rels[&rel].delete.clone()))
                } else {
                    Some(Term::cst(old_value(rel, old_rels, new_db)))
                }
            });
            d.absorb(intersect(&eval(&variant, new_db)?, total));
        }
    }
    // Propagate: anything derivable (in the old world) from an
    // over-deleted tuple is over-deleted too.
    let mut dk = d.clone();
    while !dk.is_empty() {
        let x_dk = Term::cst(dk.clone());
        let mut next = Relation::new(total.schema().clone());
        for branch in recs {
            let variant = subst_occs(branch, changed, &mut 0, &mut |rel, _| {
                Some(Term::cst(old_value(rel, old_rels, new_db)))
            })
            .substitute(x, &x_dk);
            next.absorb(eval(&variant, new_db)?);
        }
        dk = intersect(&next, total).minus(&d);
        d.absorb(dk.clone());
    }
    let overdeleted = d.len() as u64;
    let survivors = total.minus(&d);
    // Rederive with one FULL step over the new base values. Deliberately
    // not intersected with D: with mixed batches the step also produces
    // insertion-driven derivations that never were in the old total.
    let x_s = Term::cst(survivors.clone());
    let mut frontier = Relation::new(total.schema().clone());
    for branch in recs {
        frontier.absorb(eval(&branch.substitute(x, &x_s), new_db)?);
    }
    let frontier = frontier.minus(&survivors);
    Ok((survivors, frontier, overdeleted))
}

fn old_value(rel: Sym, old_rels: &FxHashMap<Sym, Relation>, new_db: &Database) -> Relation {
    // Changed relations come from the pre-delta snapshot; anything else is
    // identical in both worlds.
    old_rels
        .get(&rel)
        .or_else(|| new_db.relation(rel))
        .cloned()
        .unwrap_or_else(|| panic!("relation {rel} disappeared during maintenance"))
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
/// against). Fixpoint binders cannot shadow relation names (`F_cond`
/// rejects shadowing), so recursing under `Fix` is safe.
fn subst_occs(
    t: &Term,
    changed: &FxHashSet<Sym>,
    next: &mut usize,
    f: &mut dyn FnMut(Sym, usize) -> Option<Term>,
) -> Term {
    match t {
        Term::Var(v) if changed.contains(v) => {
            let i = *next;
            *next += 1;
            f(*v, i).unwrap_or_else(|| t.clone())
        }
        _ => t.map_children(|c| subst_occs(c, changed, next, f)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::Value;

    /// Transitive-closure database and plan: `μ(X = E ∪ π̃(ρ(X) ⋈ ρ(E)))`.
    fn tc_setup(edges: &[(u64, u64)]) -> (Database, Term, Sym) {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let mid = db.intern("m");
        let x = db.intern("X");
        let e = db.insert_relation("E", Relation::from_pairs(src, dst, edges.iter().copied()));
        let step =
            Term::var(x).rename(dst, mid).join(Term::var(e).rename(src, mid)).antiproject(mid);
        let plan = Term::var(e).union(step).fix(x);
        (db, plan, e)
    }

    fn pair_row(a: u64, b: u64) -> Row {
        vec![Value::node(a), Value::node(b)].into_boxed_slice()
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

    fn maintain_and_check(edges: &[(u64, u64)], ins: &[(u64, u64)], del: &[(u64, u64)]) {
        let (mut db, plan, e) = tc_setup(edges);
        let total = eval(&plan, &db).unwrap();
        let mut totals = FxHashMap::default();
        totals.insert(term_key(&plan), total);
        let mut batch = DeltaBatch::new();
        for &(a, b) in ins {
            batch.push_insert(&db, e, pair_row(a, b)).unwrap();
        }
        for &(a, b) in del {
            batch.push_delete(&db, e, pair_row(a, b)).unwrap();
        }
        batch.normalize(&db).unwrap();
        let (_, _, old) = batch.apply(&mut db).unwrap();
        let outcome = plan_maintenance(&plan, &db, &old, &batch, &totals).unwrap();
        let expected = eval(&plan, &db).unwrap();
        match outcome {
            IvmOutcome::Unaffected => {
                assert!(batch.is_empty(), "a non-empty E batch must affect the plan");
            }
            IvmOutcome::Maintain(m) => {
                let pair = &m.resume[&term_key(&plan)];
                let got = resumed_lfp(&plan, pair, &db);
                assert_eq!(
                    got.sorted_rows(),
                    expected.sorted_rows(),
                    "maintained view diverged for ins={ins:?} del={del:?}"
                );
            }
            IvmOutcome::Fallback(r) => panic!("unexpected fallback: {r}"),
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

    #[test]
    fn noop_batch_is_unaffected() {
        let (mut db, plan, e) = tc_setup(&[(1, 2), (2, 3)]);
        let totals = FxHashMap::default();
        let mut batch = DeltaBatch::new();
        batch.push_insert(&db, e, pair_row(1, 2)).unwrap(); // already present
        batch.normalize(&db).unwrap();
        assert!(batch.is_empty());
        let (_, _, old) = batch.apply(&mut db).unwrap();
        let outcome = plan_maintenance(&plan, &db, &old, &batch, &totals).unwrap();
        assert!(matches!(outcome, IvmOutcome::Unaffected));
    }

    #[test]
    fn unrelated_relation_is_unaffected() {
        let (mut db, plan, _) = tc_setup(&[(1, 2)]);
        let src = db.intern("src");
        let dst = db.intern("dst");
        let other = db.insert_relation("Other", Relation::from_pairs(src, dst, [(9, 9)]));
        let mut batch = DeltaBatch::new();
        batch.push_insert(&db, other, pair_row(7, 7)).unwrap();
        batch.normalize(&db).unwrap();
        let (_, _, old) = batch.apply(&mut db).unwrap();
        let outcome = plan_maintenance(&plan, &db, &old, &batch, &FxHashMap::default()).unwrap();
        assert!(matches!(outcome, IvmOutcome::Unaffected));
    }

    #[test]
    fn cold_cache_falls_back() {
        let (mut db, plan, e) = tc_setup(&[(1, 2), (2, 3)]);
        let mut batch = DeltaBatch::new();
        batch.push_insert(&db, e, pair_row(3, 4)).unwrap();
        batch.normalize(&db).unwrap();
        let (_, _, old) = batch.apply(&mut db).unwrap();
        let outcome = plan_maintenance(&plan, &db, &old, &batch, &FxHashMap::default()).unwrap();
        assert!(matches!(outcome, IvmOutcome::Fallback(FallbackReason::CacheCold)));
    }

    #[test]
    fn changed_under_antijoin_rhs_falls_back() {
        let (mut db, _, e) = tc_setup(&[(1, 2), (2, 3)]);
        let x = db.dict().lookup("X").unwrap();
        // μ(X = E ∪ (X ▷ E)): E on an antijoin RHS inside the body.
        let plan = Term::var(e).union(Term::var(x).antijoin(Term::var(e))).fix(x);
        let total = eval(&plan, &db).unwrap();
        let mut totals = FxHashMap::default();
        totals.insert(term_key(&plan), total);
        let mut batch = DeltaBatch::new();
        batch.push_insert(&db, e, pair_row(3, 4)).unwrap();
        batch.normalize(&db).unwrap();
        let (_, _, old) = batch.apply(&mut db).unwrap();
        let outcome = plan_maintenance(&plan, &db, &old, &batch, &totals).unwrap();
        assert!(matches!(outcome, IvmOutcome::Fallback(FallbackReason::NonMonotone)));
    }

    #[test]
    fn normalize_cancels_insert_delete_pairs() {
        let (db, _, e) = tc_setup(&[(1, 2)]);
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
