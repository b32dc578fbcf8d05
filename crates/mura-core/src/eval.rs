//! Centralized evaluation of μ-RA terms.
//!
//! Fixpoints are computed with the paper's Algorithm 1 (semi-naive / delta
//! iteration): `φ` is applied to the *new* rows of each step only, which is
//! sound because `F_cond` terms distribute over union (Proposition 1).
//! A naive mode (recomputing `φ` on the whole accumulated relation each
//! step) is kept for differential testing.

use crate::analysis::{check_fcond, decompose_fixpoint};
use crate::catalog::Database;
use crate::error::{MuraError, Result};
use crate::fxhash::FxHashMap;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::term::{Pred, Term};
use crate::value::{Sym, Value};
use std::time::{Duration, Instant};

/// Evaluation options: budgets model the paper's out-of-memory failures and
/// timeouts honestly (an engine "crashes" exactly when its intermediate
/// results exceed the budget).
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Use semi-naive (delta) fixpoint iteration. Default: true.
    pub semi_naive: bool,
    /// Abort when the cumulative number of materialized rows exceeds this.
    pub max_rows: Option<u64>,
    /// Abort when wall time exceeds this.
    pub timeout: Option<Duration>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { semi_naive: true, max_rows: None, timeout: None }
    }
}

/// Counters reported after evaluation.
#[derive(Debug, Clone, Default)]
pub struct EvalStats {
    /// Total fixpoint iterations across all fixpoints in the term.
    pub fixpoint_iterations: u64,
    /// Cumulative rows materialized by all operators.
    pub produced_rows: u64,
    /// Largest single relation materialized.
    pub peak_rows: u64,
}

/// A μ-RA evaluator over a database.
pub struct Evaluator<'db> {
    db: &'db Database,
    opts: EvalOptions,
    stats: EvalStats,
    start: Instant,
    bound: FxHashMap<Sym, Relation>,
}

impl<'db> Evaluator<'db> {
    /// New evaluator with the given options.
    pub fn new(db: &'db Database, opts: EvalOptions) -> Self {
        Evaluator {
            db,
            opts,
            stats: EvalStats::default(),
            start: Instant::now(),
            bound: FxHashMap::default(),
        }
    }

    /// Evaluates a closed term (checks `F_cond` on all fixpoints first).
    pub fn eval(&mut self, term: &Term) -> Result<Relation> {
        check_fcond(term)?;
        self.start = Instant::now();
        self.eval_term(term)
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    fn account(&mut self, rel: &Relation) -> Result<()> {
        self.stats.produced_rows += rel.len() as u64;
        self.stats.peak_rows = self.stats.peak_rows.max(rel.len() as u64);
        if let Some(max) = self.opts.max_rows {
            if self.stats.produced_rows > max {
                return Err(MuraError::ResourceExhausted {
                    what: "materialized rows",
                    limit: max,
                    reached: self.stats.produced_rows,
                });
            }
        }
        if let Some(t) = self.opts.timeout {
            if self.start.elapsed() > t {
                return Err(MuraError::Timeout { millis: t.as_millis() as u64 });
            }
        }
        Ok(())
    }

    fn eval_term(&mut self, term: &Term) -> Result<Relation> {
        let rel = match term {
            Term::Var(v) => {
                if let Some(r) = self.bound.get(v) {
                    r.clone()
                } else if let Some(r) = self.db.relation(*v) {
                    r.clone()
                } else {
                    return Err(MuraError::UnboundVariable(*v));
                }
            }
            Term::Cst(r) => (**r).clone(),
            Term::Filter(preds, t) => {
                let child = self.eval_term(t)?;
                apply_filter(&child, preds)?
            }
            Term::Rename(from, to, t) => {
                let child = self.eval_term(t)?;
                if !child.schema().contains(*from) {
                    return Err(MuraError::UnknownColumn {
                        column: *from,
                        schema: child.schema().clone(),
                        context: "rename",
                    });
                }
                if child.schema().rename(*from, *to).is_none() {
                    return Err(MuraError::RenameCollision {
                        from: *from,
                        to: *to,
                        schema: child.schema().clone(),
                    });
                }
                child.rename(*from, *to)
            }
            Term::AntiProject(cols, t) => {
                let child = self.eval_term(t)?;
                for c in cols {
                    if !child.schema().contains(*c) {
                        return Err(MuraError::UnknownColumn {
                            column: *c,
                            schema: child.schema().clone(),
                            context: "antiprojection",
                        });
                    }
                }
                child.antiproject(cols)
            }
            Term::Join(a, b) => {
                let ra = self.eval_term(a)?;
                let rb = self.eval_term(b)?;
                ra.join(&rb)
            }
            Term::Antijoin(a, b) => {
                let ra = self.eval_term(a)?;
                let rb = self.eval_term(b)?;
                ra.antijoin(&rb)
            }
            Term::Union(a, b) => {
                let ra = self.eval_term(a)?;
                let rb = self.eval_term(b)?;
                if ra.schema() != rb.schema() {
                    return Err(MuraError::SchemaMismatch {
                        left: ra.schema().clone(),
                        right: rb.schema().clone(),
                        context: "union",
                    });
                }
                ra.union(&rb)
            }
            Term::Fix(x, body) => self.eval_fixpoint(*x, body)?,
        };
        self.account(&rel)?;
        Ok(rel)
    }

    /// Algorithm 1 of the paper. `X = R; new = R; while new ≠ ∅ { new =
    /// φ(new) \ X; X = X ∪ new }` — with `φ(new)` replaced by `φ(X)` in
    /// naive mode.
    fn eval_fixpoint(&mut self, x: Sym, body: &Term) -> Result<Relation> {
        let (consts, recs) = decompose_fixpoint(x, body)?;
        // Evaluate the constant part R.
        let mut acc: Option<Relation> = None;
        for c in consts {
            let r = self.eval_term(c)?;
            match &mut acc {
                None => acc = Some(r),
                Some(a) => {
                    if a.schema() != r.schema() {
                        return Err(MuraError::SchemaMismatch {
                            left: a.schema().clone(),
                            right: r.schema().clone(),
                            context: "fixpoint constant part",
                        });
                    }
                    a.absorb(r);
                }
            }
        }
        let mut xrel = acc.expect("decompose guarantees a constant part");
        if recs.is_empty() {
            return Ok(xrel);
        }
        // Hoist loop invariants: subterms of the recursive branches that do
        // not depend on `x` are evaluated once here instead of once per
        // iteration. (In the distributed plans these are exactly the
        // relations that get broadcast.)
        let recs: Vec<Term> =
            recs.iter().map(|r| self.hoist_invariants(r, x)).collect::<Result<_>>()?;
        let mut delta = xrel.clone();
        while !delta.is_empty() {
            self.stats.fixpoint_iterations += 1;
            let input = if self.opts.semi_naive { delta.clone() } else { xrel.clone() };
            let prev = self.bound.insert(x, input);
            let mut new: Option<Relation> = None;
            let step = (|| {
                for r in &recs {
                    let produced = self.eval_term(r)?;
                    if produced.schema() != xrel.schema() {
                        return Err(MuraError::SchemaMismatch {
                            left: xrel.schema().clone(),
                            right: produced.schema().clone(),
                            context: "fixpoint recursive part",
                        });
                    }
                    match &mut new {
                        None => new = Some(produced),
                        Some(n) => n.absorb(produced),
                    }
                }
                Ok(())
            })();
            match prev {
                Some(p) => {
                    self.bound.insert(x, p);
                }
                None => {
                    self.bound.remove(&x);
                }
            }
            step?;
            let new = new.expect("at least one recursive branch").minus(&xrel);
            self.account(&new)?;
            if new.is_empty() {
                break;
            }
            xrel.absorb(new.clone());
            self.account(&xrel)?;
            delta = new;
        }
        Ok(xrel)
    }
}

impl Evaluator<'_> {
    /// Replaces every maximal subterm of `t` that does not mention `x` with
    /// the constant relation it evaluates to. Sound because such subterms
    /// are loop invariants of the fixpoint on `x` (`F_cond` guarantees `x`
    /// cannot occur inside nested fixpoints, so those are hoisted whole).
    fn hoist_invariants(&mut self, t: &Term, x: Sym) -> Result<Term> {
        if !t.has_free_var(x) {
            let rel = self.eval_term(t)?;
            return Ok(Term::cst(rel));
        }
        t.try_map_children(|c| self.hoist_invariants(c, x))
    }
}

/// A predicate over operands of type `P`: row positions for a materialized
/// relation, or wherever a caller keeps the values of the row it tests.
pub enum CompiledPred<P> {
    /// The operand equals the constant.
    Eq(P, Value),
    /// The operand differs from the constant.
    Neq(P, Value),
    /// The two operands are equal.
    EqCol(P, P),
}

impl<P: Copy> CompiledPred<P> {
    /// Whether the predicate holds, reading each operand through `value`.
    pub fn matches(&self, value: impl Fn(P) -> Value) -> bool {
        match self {
            CompiledPred::Eq(p, v) => value(*p) == *v,
            CompiledPred::Neq(p, v) => value(*p) != *v,
            CompiledPred::EqCol(a, b) => value(*a) == value(*b),
        }
    }
}

/// Compiles a conjunction of predicates over `schema`, resolving every
/// column to its operand through `locate`. A column outside `schema` is an
/// [`MuraError::UnknownColumn`] reported in `context`.
pub fn compile_preds<P>(
    schema: &Schema,
    preds: &[Pred],
    context: &'static str,
    locate: impl Fn(Sym) -> P,
) -> Result<Vec<CompiledPred<P>>> {
    let mut out = Vec::with_capacity(preds.len());
    for p in preds {
        for c in p.columns() {
            if !schema.contains(c) {
                return Err(MuraError::UnknownColumn {
                    column: c,
                    schema: schema.clone(),
                    context,
                });
            }
        }
        out.push(match p {
            Pred::Eq(c, v) => CompiledPred::Eq(locate(*c), *v),
            Pred::Neq(c, v) => CompiledPred::Neq(locate(*c), *v),
            Pred::EqCol(a, b) => CompiledPred::EqCol(locate(*a), locate(*b)),
        });
    }
    Ok(out)
}

/// Applies a conjunction of predicates to a relation.
pub fn apply_filter(rel: &Relation, preds: &[Pred]) -> Result<Relation> {
    let schema = rel.schema();
    let compiled =
        compile_preds(schema, preds, "filter", |c| schema.position(c).expect("column checked"))?;
    Ok(rel.filter(|row| compiled.iter().all(|p| p.matches(|pos| row[pos]))))
}

/// Evaluates `term` against `db` with default options (semi-naive).
pub fn eval(term: &Term, db: &Database) -> Result<Relation> {
    Evaluator::new(db, EvalOptions::default()).eval(term)
}

/// Evaluates with naive fixpoint iteration (for differential testing).
pub fn eval_naive_fixpoints(term: &Term, db: &Database) -> Result<Relation> {
    let opts = EvalOptions { semi_naive: false, ..EvalOptions::default() };
    Evaluator::new(db, opts).eval(term)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the paper's Fig. 2 graph: root edges S = {(1,2),(1,4),(10,11),
    /// (10,13)} and edges E adding (2,3),(4,5),(11,5),(13,12),(5,6),(12,6)…
    /// We reproduce the exact example: the fixpoint from S over E must reach
    /// X_4 = X_3 (fixpoint after 4 steps) with the listed pairs.
    fn paper_db() -> (Database, Sym, Sym, Sym, Sym, Sym, Sym) {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let m = db.intern("m");
        let x = db.intern("X");
        let e_edges =
            [(1, 2), (1, 4), (10, 11), (10, 13), (2, 3), (4, 5), (11, 5), (13, 12), (3, 6), (5, 6)];
        let s_edges = [(1, 2), (1, 4), (10, 11), (10, 13)];
        let e = db.insert_relation("E", Relation::from_pairs(src, dst, e_edges));
        let s = db.insert_relation("S", Relation::from_pairs(src, dst, s_edges));
        (db, e, s, src, dst, m, x)
    }

    fn reach_term(e: Sym, s: Sym, src: Sym, dst: Sym, m: Sym, x: Sym) -> Term {
        let step = Term::var(x).rename(dst, m).join(Term::var(e).rename(src, m)).antiproject(m);
        Term::var(s).union(step).fix(x)
    }

    #[test]
    fn example2_fixpoint_matches_paper() {
        let (db, e, s, src, dst, m, x) = paper_db();
        let t = reach_term(e, s, src, dst, m, x);
        let result = eval(&t, &db).unwrap();
        // Paper's X_3: S plus {(1,3),(1,5),(10,5),(10,12),(1,6),(10,6)}.
        let expected = Relation::from_pairs(
            src,
            dst,
            [
                (1, 2),
                (1, 4),
                (10, 11),
                (10, 13),
                (1, 3),
                (1, 5),
                (10, 5),
                (10, 12),
                (1, 6),
                (10, 6),
            ],
        );
        assert_eq!(result.sorted_rows(), expected.sorted_rows());
    }

    #[test]
    fn naive_equals_semi_naive() {
        let (db, e, s, src, dst, m, x) = paper_db();
        let t = reach_term(e, s, src, dst, m, x);
        let a = eval(&t, &db).unwrap();
        let b = eval_naive_fixpoints(&t, &db).unwrap();
        assert_eq!(a.sorted_rows(), b.sorted_rows());
    }

    #[test]
    fn fixpoint_counts_iterations() {
        let (db, e, s, src, dst, m, x) = paper_db();
        let t = reach_term(e, s, src, dst, m, x);
        let mut ev = Evaluator::new(&db, EvalOptions::default());
        ev.eval(&t).unwrap();
        // Paper: X_1 = S (before the loop), then two productive φ steps and
        // one empty step detecting the fixpoint (X_4 = X_3) — 3 loop turns.
        assert_eq!(ev.stats().fixpoint_iterations, 3);
    }

    #[test]
    fn filter_and_antijoin_eval() {
        let (db, e, _s, src, dst, _m, _x) = paper_db();
        // σ_src=1(E) has two rows.
        let t = Term::var(e).filter_eq(src, 1i64);
        assert_eq!(eval(&t, &db).unwrap().len(), 2);
        // E ▷ σ_src=1(E) on full schema removes exactly those two rows.
        let t2 = Term::var(e).antijoin(Term::var(e).filter_eq(src, 1i64));
        assert_eq!(eval(&t2, &db).unwrap().len(), 8);
        let _ = dst;
    }

    #[test]
    fn row_budget_aborts() {
        let (db, e, s, src, dst, m, x) = paper_db();
        let t = reach_term(e, s, src, dst, m, x);
        let opts = EvalOptions { max_rows: Some(5), ..Default::default() };
        let err = Evaluator::new(&db, opts).eval(&t).unwrap_err();
        assert!(matches!(err, MuraError::ResourceExhausted { .. }));
    }

    #[test]
    fn unbound_variable_error() {
        let (db, ..) = paper_db();
        let t = Term::var(Sym(4242));
        assert!(matches!(eval(&t, &db), Err(MuraError::UnboundVariable(_))));
    }

    #[test]
    fn union_schema_mismatch_error() {
        let (db, e, _s, _src, dst, _m, _x) = paper_db();
        let t = Term::var(e).union(Term::var(e).antiproject(dst));
        assert!(matches!(eval(&t, &db), Err(MuraError::SchemaMismatch { .. })));
    }

    #[test]
    fn constant_relation_evaluates() {
        let (db, _e, _s, src, dst, _m, _x) = paper_db();
        let t = Term::cst(Relation::from_pairs(src, dst, [(7, 8)]));
        let r = eval(&t, &db).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn cyclic_graph_terminates() {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let m = db.intern("m");
        let x = db.intern("X");
        // 3-cycle: TC is all 9 pairs.
        let e = db.insert_relation("E", Relation::from_pairs(src, dst, [(0, 1), (1, 2), (2, 0)]));
        let step = Term::var(x).rename(dst, m).join(Term::var(e).rename(src, m)).antiproject(m);
        let t = Term::var(e).union(step).fix(x);
        let r = eval(&t, &db).unwrap();
        assert_eq!(r.len(), 9);
    }

    #[test]
    fn empty_schema_relation_fixpoint() {
        // A fixpoint over a 0-ary relation degenerates gracefully.
        let mut db = Database::new();
        let x = db.intern("X");
        let unit = Relation::from_rows(Schema::empty(), [Vec::new().into_boxed_slice()]);
        let t = Term::cst(unit).union(Term::var(x)).fix(x);
        let r = eval(&t, &db).unwrap();
        assert_eq!(r.len(), 1);
    }
}
