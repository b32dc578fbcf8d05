//! Cardinality estimation and plan costing.
//!
//! A light-weight reimplementation of the estimator the paper relies on
//! (\[20\], CIKM'20): per-relation row counts and per-column distinct counts
//! are propagated through the operators; fixpoints are estimated from their
//! constant part and the expansion factor of one recursive step, capped by
//! the cross product of column domains. The absolute numbers are rough —
//! what matters is the *ordering* of alternative plans.

use mura_core::analysis::decompose_fixpoint;
use mura_core::fxhash::FxHashMap;
use mura_core::{canon_key, Database, MuraError, Pred, Result, Sym, Term};
use std::cell::Cell;

/// Observed fixpoint totals keyed by [`canon_key`] of the `Fix` subterm
/// (pinned-free): the server's feedback store hands these to
/// [`CostModel::with_observed`] so repeated queries are costed from
/// measured reality.
pub type ObservedCards = FxHashMap<u64, f64>;

/// Per-column statistics of a base relation.
#[derive(Debug, Clone, Default)]
pub struct ColStats {
    /// Estimated number of distinct values.
    pub distinct: f64,
}

/// Statistics of the base relations of a database.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    rels: FxHashMap<Sym, RelStats>,
}

#[derive(Debug, Clone, Default)]
struct RelStats {
    rows: f64,
    cols: FxHashMap<Sym, ColStats>,
}

impl Stats {
    /// The statistics of every relation of `db`: exact row and per-column
    /// distinct counts, as the catalog keeps them with each stored relation
    /// ([`Database::relation_stats`]) — a gather, not a scan, except for a
    /// relation registered or replaced since it was last asked about.
    pub fn from_db(db: &Database) -> Stats {
        let mut rels = FxHashMap::default();
        for (name, rel) in db.relations() {
            let kept = db.relation_stats(name).expect("`relations` yields registered names");
            let cols = rel
                .schema()
                .columns()
                .iter()
                .zip(kept.distinct.iter())
                .map(|(c, d)| (*c, ColStats { distinct: *d as f64 }))
                .collect();
            rels.insert(name, RelStats { rows: kept.rows as f64, cols });
        }
        Stats { rels }
    }

    /// Row estimate currently held for a base relation.
    pub fn rows(&self, rel: Sym) -> Option<f64> {
        self.rels.get(&rel).map(|r| r.rows)
    }

    /// Distinct-count estimate currently held for a column of a base
    /// relation.
    pub fn distinct(&self, rel: Sym, col: Sym) -> Option<f64> {
        self.rels.get(&rel).and_then(|r| r.cols.get(&col)).map(|c| c.distinct)
    }
}

/// Estimated cardinality of a (sub)term: row count and per-column distinct
/// counts.
#[derive(Debug, Clone, Default)]
pub struct Card {
    /// Estimated rows.
    pub rows: f64,
    /// Estimated distinct count per column.
    pub distinct: FxHashMap<Sym, f64>,
}

impl Card {
    fn clamp(mut self) -> Card {
        self.rows = self.rows.max(0.0);
        for d in self.distinct.values_mut() {
            *d = d.max(1.0).min(self.rows.max(1.0));
        }
        self
    }
}

/// Cost model: estimates cardinalities and sums intermediate result sizes.
pub struct CostModel<'s> {
    stats: &'s Stats,
    /// Observed fixpoint totals (canonical key → measured rows).
    observed: Option<&'s ObservedCards>,
    /// How many fixpoints were costed from an observation during the last
    /// `cost`/`card` call(s).
    observed_hits: Cell<usize>,
}

/// Number of recursive-step expansions assumed when a fixpoint's one-step
/// fanout is ≥ 1 (i.e. the closure keeps growing until the domain cap).
const FIX_EXPANSION_STEPS: f64 = 8.0;

/// Fixed per-step growth rate assumed for non-shrinking closures (see the
/// comment at the use site).
const GROWTH_RATE: f64 = 1.25;

impl<'s> CostModel<'s> {
    /// New cost model over base-relation statistics.
    pub fn new(stats: &'s Stats) -> Self {
        CostModel { stats, observed: None, observed_hits: Cell::new(0) }
    }

    /// Cost model that overrides fixpoint estimates with *observed* totals
    /// from previous executions: a `Fix` subterm whose [`canon_key`] is in
    /// `cards` is costed at its measured size instead of the static
    /// expansion estimate.
    pub fn with_observed(stats: &'s Stats, cards: &'s ObservedCards) -> Self {
        CostModel { stats, observed: Some(cards), observed_hits: Cell::new(0) }
    }

    /// Number of fixpoints costed from an observation since construction.
    pub fn observed_hits(&self) -> usize {
        self.observed_hits.get()
    }

    /// Total plan cost: the sum of estimated intermediate result sizes over
    /// all operators (fixpoints weighted by their iteration behaviour).
    pub fn cost(&self, term: &Term) -> Result<f64> {
        let mut total = 0.0;
        let mut env: FxHashMap<Sym, Card> = FxHashMap::default();
        self.cost_rec(term, &mut env, &mut total)?;
        Ok(total)
    }

    /// Estimated output cardinality of `term`.
    pub fn card(&self, term: &Term) -> Result<Card> {
        let mut total = 0.0;
        let mut env: FxHashMap<Sym, Card> = FxHashMap::default();
        self.cost_rec(term, &mut env, &mut total)
    }

    fn base(&self, v: Sym) -> Option<Card> {
        self.stats.rels.get(&v).map(|r| Card {
            rows: r.rows,
            distinct: r.cols.iter().map(|(c, s)| (*c, s.distinct)).collect(),
        })
    }

    fn cost_rec(
        &self,
        term: &Term,
        env: &mut FxHashMap<Sym, Card>,
        total: &mut f64,
    ) -> Result<Card> {
        let card = match term {
            Term::Var(v) => {
                if let Some(c) = env.get(v) {
                    c.clone()
                } else {
                    self.base(*v).ok_or(MuraError::UnboundVariable(*v))?
                }
            }
            Term::Cst(r) => {
                let rows = r.len() as f64;
                Card {
                    rows,
                    distinct: r
                        .schema()
                        .columns()
                        .iter()
                        .map(|&c| (c, rows.max(1.0).sqrt().max(1.0).min(rows.max(1.0))))
                        .collect(),
                }
            }
            Term::Filter(preds, t) => {
                let child = self.cost_rec(t, env, total)?;
                let mut sel = 1.0;
                for p in preds {
                    sel *= match p {
                        Pred::Eq(c, _) => {
                            1.0 / child.distinct.get(c).copied().unwrap_or(10.0).max(1.0)
                        }
                        Pred::Neq(_, _) => 0.9,
                        Pred::EqCol(a, b) => {
                            let da = child.distinct.get(a).copied().unwrap_or(10.0);
                            let db = child.distinct.get(b).copied().unwrap_or(10.0);
                            1.0 / da.max(db).max(1.0)
                        }
                    };
                }
                let rows = child.rows * sel;
                let mut distinct = child.distinct.clone();
                for p in preds {
                    if let Pred::Eq(c, _) = p {
                        distinct.insert(*c, 1.0);
                    }
                }
                Card { rows, distinct }.clamp()
            }
            Term::Rename(from, to, t) => {
                let mut child = self.cost_rec(t, env, total)?;
                if let Some(d) = child.distinct.remove(from) {
                    child.distinct.insert(*to, d);
                }
                child
            }
            Term::AntiProject(cols, t) => {
                let child = self.cost_rec(t, env, total)?;
                let mut distinct = child.distinct.clone();
                for c in cols {
                    distinct.remove(c);
                }
                // Dedup after dropping columns: cap by product of remaining
                // domains.
                let cap: f64 = distinct.values().product::<f64>().max(1.0);
                Card { rows: child.rows.min(cap), distinct }.clamp()
            }
            Term::Join(a, b) => {
                let ca = self.cost_rec(a, env, total)?;
                let cb = self.cost_rec(b, env, total)?;
                let common: Vec<Sym> =
                    ca.distinct.keys().filter(|c| cb.distinct.contains_key(*c)).copied().collect();
                let mut rows = ca.rows * cb.rows;
                for c in &common {
                    let da = ca.distinct[c];
                    let db = cb.distinct[c];
                    rows /= da.max(db).max(1.0);
                }
                let mut distinct = ca.distinct.clone();
                for (c, d) in &cb.distinct {
                    let e = distinct.entry(*c).or_insert(*d);
                    *e = e.min(*d);
                }
                Card { rows, distinct }.clamp()
            }
            Term::Antijoin(a, b) => {
                let ca = self.cost_rec(a, env, total)?;
                let _ = self.cost_rec(b, env, total)?;
                Card { rows: ca.rows * 0.5, distinct: ca.distinct }.clamp()
            }
            Term::Union(a, b) => {
                let ca = self.cost_rec(a, env, total)?;
                let cb = self.cost_rec(b, env, total)?;
                let mut distinct = ca.distinct.clone();
                for (c, d) in &cb.distinct {
                    let e = distinct.entry(*c).or_insert(0.0);
                    *e = (*e + d).max(*d);
                }
                Card { rows: ca.rows + cb.rows, distinct }.clamp()
            }
            Term::Fix(x, body) => {
                let (consts, recs) = decompose_fixpoint(*x, body)?;
                let mut seed: Option<Card> = None;
                for c in &consts {
                    let cc = self.cost_rec(c, env, total)?;
                    seed = Some(match seed {
                        None => cc,
                        Some(s) => Card {
                            rows: s.rows + cc.rows,
                            distinct: {
                                let mut d = s.distinct;
                                for (c, v) in cc.distinct {
                                    let e = d.entry(c).or_insert(0.0);
                                    *e = (*e).max(v);
                                }
                                d
                            },
                        },
                    });
                }
                let seed = seed.expect("decompose guarantees a constant part");
                if recs.is_empty() {
                    seed
                } else {
                    // One recursive step from the seed.
                    let prev = env.insert(*x, seed.clone());
                    let mut step_rows = 0.0;
                    let mut step_distinct = seed.distinct.clone();
                    for r in &recs {
                        // Step estimates contribute to cost via recursion
                        // but are accounted once (the semi-naive loop reuses
                        // deltas).
                        let cr = self.cost_rec(r, env, total)?;
                        step_rows += cr.rows;
                        for (c, d) in cr.distinct {
                            let e = step_distinct.entry(c).or_insert(0.0);
                            *e = (*e).max(d);
                        }
                    }
                    match prev {
                        Some(p) => {
                            env.insert(*x, p);
                        }
                        None => {
                            env.remove(x);
                        }
                    }
                    let fanout = step_rows / seed.rows.max(1.0);
                    // Domain cap: at most the cross product of column
                    // domains reachable by the closure.
                    let cap: f64 = step_distinct.values().product::<f64>().max(seed.rows);
                    let mut rows = if fanout >= 0.95 {
                        // Non-shrinking step: the closure grows by roughly
                        // the expected path length. We deliberately use a
                        // *fixed* growth rate rather than the one-step
                        // fanout: plans mainly differ in their *seed* size
                        // (pushed filters/joins, merged seeds), and raw
                        // fanout would double-count multi-branch (merged)
                        // fixpoints whose branches saturate the same
                        // domain.
                        (seed.rows * GROWTH_RATE.powf(FIX_EXPANSION_STEPS)).min(cap)
                    } else {
                        (seed.rows / (1.0 - fanout).max(0.05)).min(cap)
                    };
                    // Observed totals beat any static estimate: a previous
                    // execution measured this exact (canonicalized) fixpoint.
                    if let Some(&obs) = self.observed.and_then(|c| c.get(&canon_key(term, &[]))) {
                        rows = obs.max(1.0);
                        self.observed_hits.set(self.observed_hits.get() + 1);
                    }
                    let distinct =
                        step_distinct.into_iter().map(|(c, d)| (c, d.min(rows))).collect();
                    // Fixpoints are iterated: weight their output in the
                    // total cost more heavily than a one-shot operator.
                    *total += rows;
                    Card { rows, distinct }.clamp()
                }
            }
        };
        *total += card.rows;
        Ok(card)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::{Database, Relation};

    fn db_chain(n: u64) -> Database {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation("E", Relation::from_pairs(src, dst, (0..n - 1).map(|i| (i, i + 1))));
        db
    }

    #[test]
    fn base_relation_card() {
        let db = db_chain(100);
        let stats = Stats::from_db(&db);
        let cm = CostModel::new(&stats);
        let e = db.dict().lookup("E").unwrap();
        let c = cm.card(&Term::var(e)).unwrap();
        assert_eq!(c.rows, 99.0);
    }

    #[test]
    fn filter_reduces_estimate() {
        let db = db_chain(100);
        let stats = Stats::from_db(&db);
        let cm = CostModel::new(&stats);
        let e = db.dict().lookup("E").unwrap();
        let src = db.dict().lookup("src").unwrap();
        let filtered = Term::var(e).filter_eq(src, 5i64);
        let full = cm.card(&Term::var(e)).unwrap().rows;
        let f = cm.card(&filtered).unwrap().rows;
        assert!(f < full / 10.0, "filtered {f} vs full {full}");
    }

    #[test]
    fn fixpoint_estimate_exceeds_seed() {
        let mut db = db_chain(50);
        let stats = Stats::from_db(&db);
        let e = db.intern("E");
        let src = db.intern("src");
        let dst = db.intern("dst");
        let x = db.intern("X");
        let m = db.intern("m");
        let step = Term::var(x).rename(dst, m).join(Term::var(e).rename(src, m)).antiproject(m);
        let fix = Term::var(e).union(step).fix(x);
        let cm = CostModel::new(&stats);
        let seed = cm.card(&Term::var(e)).unwrap().rows;
        let tc = cm.card(&fix).unwrap().rows;
        assert!(tc > seed, "tc {tc} vs seed {seed}");
    }

    #[test]
    fn filtered_fixpoint_cheaper_than_filter_after() {
        // cost(μ starting from σ(E)) must be < cost(σ(μ from E)):
        // this ordering is what makes the push-filter rewrite win.
        let mut db = db_chain(200);
        let stats = Stats::from_db(&db);
        let e = db.intern("E");
        let src = db.intern("src");
        let dst = db.intern("dst");
        let x = db.intern("X");
        let m = db.intern("m");
        let step = |seed: Term, db_e: Term| {
            let s = Term::var(x).rename(dst, m).join(db_e.rename(src, m)).antiproject(m);
            seed.union(s).fix(x)
        };
        let cm = CostModel::new(&stats);
        let pushed = step(Term::var(e).filter_eq(src, 3i64), Term::var(e));
        let unpushed = step(Term::var(e), Term::var(e)).filter_eq(src, 3i64);
        let cp = cm.cost(&pushed).unwrap();
        let cu = cm.cost(&unpushed).unwrap();
        assert!(cp < cu, "pushed {cp} vs unpushed {cu}");
    }

    #[test]
    fn gathered_statistics_equal_a_count_by_hand() {
        let mut db = db_chain(100);
        let (e, src, dst) = (db.intern("E"), db.intern("src"), db.intern("dst"));
        let by_hand = |db: &Database, col: Sym| {
            let rel = db.relation(e).unwrap();
            let at = rel.schema().position(col).unwrap();
            rel.iter().map(|row| row[at]).collect::<std::collections::BTreeSet<_>>().len() as f64
        };
        let stats = Stats::from_db(&db);
        assert_eq!(stats.rows(e), Some(99.0));
        assert_eq!(stats.distinct(e, src), Some(by_hand(&db, src)));
        // A clone gathers the same values; a replaced relation gathers its own.
        let copy = db.clone();
        db.insert_relation_sym(e, Relation::from_pairs(src, dst, (0..40).map(|i| (i % 4, i))));
        let stats = Stats::from_db(&db);
        assert_eq!((stats.rows(e), stats.distinct(e, src)), (Some(40.0), Some(4.0)));
        assert_eq!(stats.distinct(e, dst), Some(by_hand(&db, dst)));
        assert_eq!(Stats::from_db(&copy).distinct(e, src), Some(99.0));
    }

    #[test]
    fn unbound_var_errors() {
        let db = Database::new();
        let stats = Stats::from_db(&db);
        let cm = CostModel::new(&stats);
        assert!(cm.cost(&Term::var(Sym(777))).is_err());
    }
}
