//! The rewrite driver: memoized enumeration with a greedy-pipeline floor.
//!
//! Mirrors the paper's architecture (§III): `MuRewriter` explores
//! semantically equivalent plans; the `CostEstimator` selects the best
//! recursive plan. Always-profitable rules (filter / antiprojection /
//! rename / join pushing, §[`crate::rules`]) are applied greedily; plans
//! genuinely diverge only at *closure decisions* — merging two fixpoints,
//! pushing a composition into a fixpoint, or reversing a fixpoint to expose
//! the other side.
//!
//! Two strategies resolve those decisions:
//!
//! * [`Rewriter::optimize_pipeline`] — the original greedy sweep: at each
//!   decision point, pick the locally cheapest alternative and move on.
//! * [`Rewriter::optimize`] / [`Rewriter::optimize_report`] — memoized
//!   enumeration ([`crate::enumerate`]): keep the competing alternatives in
//!   a plan-space memo, cost every surviving candidate, and extract the
//!   globally cheapest plan. The pipeline's plan is part of the space and
//!   acts as a floor, so enumeration never returns a plan costed worse
//!   than the greedy one.
//!
//! With [`Rewriter::with_observations`], fixpoints whose sizes were
//! measured by a previous execution are costed from those observations
//! instead of static estimates (the server's feedback loop).
//!
//! Every derivation mints fresh symbols (`X#…`, `m#…`), numbers the
//! dictionary hands out and does not store. A search runs inside
//! [`bracketed`]: when the winner is known the numbering goes back to where
//! the search found it and the winner's own generated symbols are numbered
//! from 0 in order of first occurrence, so the plan a search returns is a
//! function of the term, the catalog and the statistics, and of nothing
//! that was planned before.

use crate::closure::Decision;
use crate::cost::{CostModel, ObservedCards, Stats};
use crate::enumerate::{EnumReport, Enumerator};
use crate::rules;
use mura_core::analysis::{infer_schema, TypeEnv};
use mura_core::{canon_key, Database, Result, Sym, Term};
use std::sync::Arc;

/// Maximum normalize+closure sweeps. A roll-out stops at the first sweep
/// that changes nothing (up to generated symbols), so this is a safety bound
/// rather than a tuning knob.
const MAX_PASSES: usize = 5;

/// The enumeration budget. Members kept per group when it is sealed.
pub(crate) const BEAM: usize = 6;
/// Members of an operand's group considered when building parent plans.
pub(crate) const PAIR_LIMIT: usize = 3;
/// Cap on live members across all groups (tripping it is reported as
/// `budget_hit`).
pub(crate) const MAX_MEMBERS: usize = 320;
/// Expansion sweeps per group.
pub(crate) const MAX_ROUNDS: usize = 3;

/// Required relative improvement to adopt an alternative plan (guards
/// against oscillation between reversible forms of equal cost).
const IMPROVEMENT: f64 = 0.999;

/// Cost-based μ-RA optimizer.
pub struct Rewriter {
    stats: Stats,
    src: Sym,
    dst: Sym,
    observed: Option<Arc<ObservedCards>>,
}

impl Rewriter {
    /// Builds a rewriter for a database: gathers the statistics the
    /// catalog keeps with each stored relation ([`Stats::from_db`]; only a
    /// relation replaced since it was last asked is scanned).
    pub fn new(db: &mut Database) -> Self {
        let stats = Stats::from_db(db);
        let src = db.intern("src");
        let dst = db.intern("dst");
        Rewriter { stats, src, dst, observed: None }
    }

    /// Supplies observed fixpoint cardinalities (canonical key → measured
    /// rows); fixpoints found in the map are costed from measurement.
    pub fn with_observations(mut self, observed: Arc<ObservedCards>) -> Self {
        self.observed = Some(observed);
        self
    }

    /// True when observed cardinalities were supplied (and non-empty).
    pub fn has_observations(&self) -> bool {
        self.observed.as_ref().is_some_and(|o| !o.is_empty())
    }

    pub(crate) fn src(&self) -> Sym {
        self.src
    }

    pub(crate) fn dst(&self) -> Sym {
        self.dst
    }

    /// Optimizes a term: returns a semantically equivalent, estimated-cheaper
    /// plan (memoized enumeration with the greedy pipeline as a floor).
    pub fn optimize(&self, term: &Term, db: &mut Database) -> Result<Term> {
        Ok(self.optimize_report(term, db)?.0)
    }

    /// Like [`Rewriter::optimize`], also returning the enumeration report
    /// (benchmarking, the server's counters).
    pub fn optimize_report(&self, term: &Term, db: &mut Database) -> Result<(Term, EnumReport)> {
        bracketed(db, |db| self.search(term, db, false))
    }

    /// Like [`Rewriter::optimize_report`], with the per-group digest
    /// `.explain` prints ([`EnumReport::group_summaries`], rendered while
    /// the groups' symbols still resolve).
    pub fn optimize_explained(&self, term: &Term, db: &mut Database) -> Result<(Term, EnumReport)> {
        bracketed(db, |db| self.search(term, db, true))
    }

    /// The search proper: the greedy plan as a floor, then enumeration.
    /// One type environment serves every sweep and every group.
    fn search(&self, term: &Term, db: &mut Database, explain: bool) -> Result<(Term, EnumReport)> {
        let mut env = start(term, db);
        let (pipeline, sweeps) = self.pipeline_sweeps(term, db, &mut env)?;
        let pipeline_cost = self.cost_with(&pipeline).map(|(c, _)| c).unwrap_or(f64::INFINITY);
        let mut en = Enumerator::new(self, sweeps);
        let gid = en.explore(term, db, &mut env, &mut Vec::new())?;
        let group_summaries = if explain { en.group_summaries(db.dict()) } else { Vec::new() };
        let (winner, mut report) = en.finish(gid, pipeline, pipeline_cost, IMPROVEMENT);
        report.group_summaries = group_summaries;
        Ok((winner, report))
    }

    /// Every plan the enumerator can extract for `term` (the surviving
    /// members of the root group plus the pipeline plan), cheapest first.
    /// All of them are semantically equivalent to `term` — the property
    /// tests exercise exactly this set. Not bracketed: the plans keep the
    /// symbols the search gave them.
    pub fn candidates(&self, term: &Term, db: &mut Database) -> Result<Vec<Term>> {
        let mut env = start(term, db);
        let mut en = Enumerator::new(self, 0);
        let gid = en.explore(term, db, &mut env, &mut Vec::new())?;
        let mut out = en.members(gid);
        out.push(self.pipeline_sweeps(term, db, &mut env)?.0);
        Ok(out)
    }

    /// The original greedy strategy: repeated closure-decision sweeps with
    /// local cost-based picks, then normalization, until a fixpoint.
    pub fn optimize_pipeline(&self, term: &Term, db: &mut Database) -> Result<Term> {
        bracketed(db, |db| {
            let mut env = start(term, db);
            self.pipeline_sweeps(term, db, &mut env)
        })
        .map(|(plan, _sweeps)| plan)
    }

    /// The greedy roll-out and the number of sweeps it ran. A sweep that
    /// returns its input up to generated symbols has converged: `compose`
    /// mints a new `m#…` for every composition it rebuilds, so plain
    /// equality would never hold for a term that keeps one.
    pub(crate) fn pipeline_sweeps(
        &self,
        term: &Term,
        db: &mut Database,
        env: &mut TypeEnv,
    ) -> Result<(Term, usize)> {
        // Closure decisions run *before* normalization in each sweep: the
        // frontend emits pristine composition patterns, and normalization
        // (e.g. pushing a rename into a fixpoint's seed) can obscure them.
        let mut t = term.clone();
        let mut key = canon_key(&t, &[]);
        let mut sweeps = 0;
        while sweeps < MAX_PASSES {
            sweeps += 1;
            let t2 = self.closure_pass(&t, db, env, &mut Vec::new())?;
            t = rules::normalize(&t2, env);
            let key2 = canon_key(&t, &[]);
            if key2 == key {
                break;
            }
            key = key2;
        }
        Ok((t, sweeps))
    }

    /// Estimated cost of a plan under static statistics (exposed for
    /// benchmarking/ablation).
    pub fn cost(&self, term: &Term) -> Result<f64> {
        CostModel::new(&self.stats).cost(term)
    }

    /// Cost under the active model (observed cardinalities when supplied);
    /// returns the cost and how many fixpoints were costed from an
    /// observation, or `None` when the plan cannot be costed.
    pub(crate) fn cost_with(&self, term: &Term) -> Option<(f64, usize)> {
        let cm = match self.observed.as_deref() {
            Some(cards) => CostModel::with_observed(&self.stats, cards),
            None => CostModel::new(&self.stats),
        };
        cm.cost(term).ok().map(|c| (c, cm.observed_hits()))
    }

    /// One bottom-up sweep taking a cost-based pick at every closure
    /// [`Decision`]. `bound` tracks enclosing fixpoint variables: a decision
    /// with an operand mentioning one is not taken (its alternatives cannot
    /// be costed independently) and the walk goes on into the children.
    fn closure_pass(
        &self,
        t: &Term,
        db: &mut Database,
        env: &mut TypeEnv,
        bound: &mut Vec<Sym>,
    ) -> Result<Term> {
        if let Some((original, alts)) = self.choices(t, db, env, bound)? {
            return self.pick(original, alts);
        }
        if let Term::Fix(x, body) = t {
            bound.push(*x);
            let body = self.closure_pass(body, db, env, bound);
            bound.pop();
            return Ok(Term::Fix(*x, Box::new(body?)));
        }
        t.try_map_children(|c| self.closure_pass(c, db, env, bound))
    }

    /// What the greedy pass picks from at the root of `t`, if a decision
    /// is taken there: the term rebuilt over its optimized operands, and
    /// the alternatives, normalized so their costs reflect final shape.
    pub(crate) fn choices(
        &self,
        t: &Term,
        db: &mut Database,
        env: &mut TypeEnv,
        bound: &mut Vec<Sym>,
    ) -> Result<Option<(Term, Vec<Term>)>> {
        let Some(d) = Decision::at(t, self.src, self.dst).filter(|d| d.closed(bound)) else {
            return Ok(None);
        };
        let plans: Vec<Term> =
            d.operands().map(|o| self.closure_pass(o, db, env, bound)).collect::<Result<_>>()?;
        let original = d.rebuild(&plans, db.dict_mut());
        let mut alts = d.alternatives(&plans, env, db.dict_mut());
        for alt in &mut alts {
            *alt = rules::normalize(alt, env);
        }
        Ok(Some((original, alts)))
    }

    /// Picks the cheapest among the original and the alternatives (with a
    /// strict-improvement margin). Costed from static statistics, whatever
    /// was observed: the greedy plan is the floor of every search and the
    /// roll-out of every expanded member, and stays the same plan while the
    /// memo around it is re-costed from measurements.
    fn pick(&self, original: Term, alts: Vec<Term>) -> Result<Term> {
        let cm = CostModel::new(&self.stats);
        let mut best = original;
        let mut best_cost = match cm.cost(&best) {
            Ok(c) => c,
            // Un-costable (e.g. constants only known upstream): keep as is.
            Err(_) => return Ok(best),
        };
        for alt in alts {
            // Alternatives whose cost cannot be estimated are skipped.
            if let Ok(c) = cm.cost(&alt) {
                if c < best_cost * IMPROVEMENT {
                    best = alt;
                    best_cost = c;
                }
            }
        }
        Ok(best)
    }
}

/// The type environment of a search over `term`, whose fresh symbols will
/// number above every generated symbol `term` already holds.
fn start(term: &Term, db: &mut Database) -> TypeEnv {
    db.dict_mut().number_above(highest_generated(term));
    TypeEnv::from_db(db)
}

fn highest_generated(t: &Term) -> u32 {
    let mut highest = 0;
    t.for_each_symbol(&mut |s| highest = highest.max(s.number().unwrap_or(0)));
    highest
}

/// Runs `search`, puts `db`'s numbering of generated symbols back to where
/// `search` found it and returns the plan in [`canonical`] form. What a
/// derivation minted for a plan that lost was never stored, and the next
/// search mints the same numbers again: planning leaves in the dictionary
/// the user's names the query brought (`?x`, …) and nothing else.
///
/// The numbering is left above the plan's own symbols, so a caller that
/// goes on to build a term around the plan with fresh symbols gets none
/// the plan already uses.
pub fn bracketed<R>(
    db: &mut Database,
    search: impl FnOnce(&mut Database) -> Result<(Term, R)>,
) -> Result<(Term, R)> {
    let mark = db.dict().mark();
    let found = search(db);
    db.dict_mut().truncate(mark);
    let (plan, rest) = found?;
    let plan = canonical(plan, db)?;
    db.dict_mut().number_above(highest_generated(&plan));
    Ok((plan, rest))
}

/// `plan` with its *bound* generated symbols — fixpoint binders, and
/// columns that do not reach the plan's output schema — numbered from 0 in
/// order of first occurrence. Free variables and output columns keep their
/// symbols (and their numbers are skipped). The renumbering is a bijection,
/// so the plan computes what it computed; and since the numbers no longer
/// record which search minted them, two plans equal up to generated symbols
/// ([`canon_key`]) become one plan, with one [`mura_core::term_key`].
fn canonical(mut plan: Term, db: &Database) -> Result<Term> {
    let mut kept = plan.free_vars();
    kept.extend_from_slice(infer_schema(&plan, &mut TypeEnv::from_db(db))?.columns());
    let taken: Vec<u32> = kept.iter().filter_map(|s| s.number()).collect();
    let mut renumbered: Vec<(Sym, Sym)> = Vec::new();
    let mut next = 0;
    plan.rename_symbols(&mut |s| {
        if !s.is_generated() || kept.contains(&s) {
            return s;
        }
        if let Some((_, to)) = renumbered.iter().find(|(from, _)| *from == s) {
            return *to;
        }
        while taken.contains(&next) {
            next += 1;
        }
        let to = s.with_number(next);
        next += 1;
        renumbered.push((s, to));
        to
    });
    Ok(plan)
}

/// Optimizes `term` against `db` (convenience wrapper).
pub fn optimize(term: &Term, db: &mut Database) -> Result<Term> {
    Rewriter::new(db).optimize(term, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::recognize_compose;
    use mura_core::{eval, Database, Relation};
    use mura_datagen::SplitMix64;
    use mura_datagen::{erdos_renyi, with_random_labels};
    use mura_ucrpq::{parse_ucrpq, to_mura};

    /// Labeled random graph database for end-to-end rewrite tests.
    fn test_db() -> Database {
        let mut rng = SplitMix64::seed_from_u64(11);
        let g = erdos_renyi(300, 0.01, 4);
        let lg = with_random_labels(&g, 3, &mut rng);
        let mut db = lg.to_database();
        db.bind_constant("C", mura_core::Value::node(7));
        db
    }

    fn check(query: &str) -> (Term, Term, Database) {
        let mut db = test_db();
        let q = parse_ucrpq(query).unwrap();
        let naive = to_mura(&q, &mut db).unwrap();
        let opt = optimize(&naive, &mut db).unwrap();
        let a = eval(&naive, &db).unwrap();
        let b = eval(&opt, &db).unwrap();
        assert_eq!(a.sorted_rows(), b.sorted_rows(), "optimized plan changed semantics");
        (naive, opt, db)
    }

    #[test]
    fn c1_unchanged_semantics() {
        check("?x, ?y <- ?x a1+ ?y");
    }

    #[test]
    fn c2_filter_right_reverses() {
        let (_, opt, db) = check("?x <- ?x a1+ C");
        // The optimized plan must contain no filter above a fixpoint: the
        // reversal pushed it into a seed.
        fn filter_over_fix(t: &Term) -> bool {
            match t {
                Term::Filter(_, inner) => {
                    matches!(**inner, Term::Fix(_, _)) || filter_over_fix(inner)
                }
                _ => t.children().iter().any(|c| filter_over_fix(c)),
            }
        }
        assert!(!filter_over_fix(&opt), "{}", opt.display(db.dict()));
    }

    #[test]
    fn c3_filter_left_pushes() {
        let (_, opt, db) = check("?x <- C a1+ ?x");
        fn filter_over_fix(t: &Term) -> bool {
            match t {
                Term::Filter(_, inner) => {
                    matches!(**inner, Term::Fix(_, _)) || filter_over_fix(inner)
                }
                _ => t.children().iter().any(|c| filter_over_fix(c)),
            }
        }
        assert!(!filter_over_fix(&opt), "{}", opt.display(db.dict()));
    }

    #[test]
    fn c4_concat_right_optimizes() {
        check("?x, ?y <- ?x a1+/a2 ?y");
    }

    #[test]
    fn c5_concat_left_pushes_join() {
        let (naive, opt, _) = check("?x, ?y <- ?x a2/a1+ ?y");
        // Pushing the join into the fixpoint removes the top-level compose:
        // the optimized term has no more fixpoints than the naive one and
        // the join moved inside.
        assert!(opt.fixpoint_count() <= naive.fixpoint_count());
    }

    #[test]
    fn c6_merge_fixpoints() {
        let (naive, opt, _) = check("?x, ?y <- ?x a1+/a2+ ?y");
        // Naive: two fixpoints joined. Merged: a single two-branch fixpoint.
        assert_eq!(naive.fixpoint_count(), 2);
        assert!(opt.fixpoint_count() <= 1, "expected merged fixpoint");
    }

    #[test]
    fn mixed_classes_still_correct() {
        check("?x <- C a2/a1+ ?x");
        check("?x <- ?x a1+/a2 C");
        check("?x, ?y <- ?x a1/a2+/a3+ ?y");
    }

    #[test]
    fn conjunction_correct() {
        check("?x, ?z <- ?x a1+ ?y, ?y a2+ ?z");
    }

    #[test]
    fn optimized_cost_not_worse() {
        let mut db = test_db();
        let rw = Rewriter::new(&mut db);
        for q in ["?x <- ?x a1+ C", "?x, ?y <- ?x a1+/a2+ ?y", "?x <- C a1+ ?x"] {
            let parsed = parse_ucrpq(q).unwrap();
            let naive = to_mura(&parsed, &mut db).unwrap();
            let opt = rw.optimize(&naive, &mut db).unwrap();
            let cn = rw.cost(&naive).unwrap();
            let co = rw.cost(&opt).unwrap();
            assert!(co <= cn, "{q}: cost went up ({co} > {cn})");
        }
    }

    #[test]
    fn recognize_compose_matches_frontend_output() {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation("a", Relation::from_pairs(src, dst, [(0, 1)]));
        db.insert_relation("b", Relation::from_pairs(src, dst, [(1, 2)]));
        let q = parse_ucrpq("?x, ?y <- ?x a/b ?y").unwrap();
        let t = to_mura(&q, &mut db).unwrap();
        // Strip the outer renames (?x, ?y) to reach the compose node.
        fn find_compose(t: &Term, src: Sym, dst: Sym) -> bool {
            if recognize_compose(t, src, dst).is_some() {
                return true;
            }
            t.children().iter().any(|c| find_compose(c, src, dst))
        }
        assert!(find_compose(&t, src, dst));
    }

    #[test]
    fn rollout_that_keeps_a_composition_stops_before_the_bound() {
        fn has_compose(t: &Term, src: Sym, dst: Sym) -> bool {
            recognize_compose(t, src, dst).is_some()
                || t.children().iter().any(|c| has_compose(c, src, dst))
        }
        let mut db = test_db();
        let rw = Rewriter::new(&mut db);
        let mut env = TypeEnv::from_db(&db);
        for q in ["?x, ?y <- ?x a1/a2 ?y", "?x, ?y <- ?x a1/a2/a3 ?y", "?x <- ?x a1+/a2 C"] {
            let term = to_mura(&parse_ucrpq(q).unwrap(), &mut db).unwrap();
            let (plan, sweeps) = rw.pipeline_sweeps(&term, &mut db, &mut env).unwrap();
            // Every sweep re-mints the composition's middle column: the
            // plan never equals the sweep before it, only up to that symbol.
            assert!(has_compose(&plan, rw.src(), rw.dst()), "{q}: {}", plan.display(db.dict()));
            assert!(sweeps < MAX_PASSES, "{q}: ran all {sweeps} sweeps");
        }
    }

    /// The numbers of `t`'s generated symbols, in order of first occurrence.
    fn generated_numbers(t: &Term) -> Vec<u32> {
        let mut numbers = Vec::new();
        t.for_each_symbol(&mut |s| numbers.extend(s.number().filter(|n| !numbers.contains(n))));
        numbers
    }

    #[test]
    fn a_search_leaves_the_names_of_its_plan_and_no_others() {
        let mut db = test_db();
        let rw = Rewriter::new(&mut db);
        let plan_text = |text: &str, db: &mut Database| {
            let query = parse_ucrpq(text).unwrap();
            bracketed(db, |db| rw.optimize_report(&to_mura(&query, db)?, db)).unwrap()
        };
        let before: Vec<String> = db.dict().names().map(str::to_string).collect();
        let (plan, report) = plan_text("?x <- ?x a1+/a2+ C", &mut db);
        assert!(report.candidates > 10, "a search with scratch to forget");
        // One name came with the query; no generated symbol was stored.
        let names: Vec<&str> = db.dict().names().collect();
        assert_eq!(names[..before.len()], before[..]);
        assert_eq!(names[before.len()..], ["?x"]);
        // The plan's symbols are 0..k in order of first occurrence, and
        // the numbering stands just above them.
        let numbers = generated_numbers(&plan);
        assert!(numbers.len() >= 2 && numbers.iter().copied().eq(0..numbers.len() as u32));
        assert_eq!(db.dict().clone().fresh("X").number(), Some(numbers.len() as u32));
        // Planned again after something larger: the same plan, term for
        // term, and a dictionary that remembers neither search.
        let (other, _) = plan_text("?x, ?y <- ?x a1+/a2+/a3+ ?y", &mut db);
        assert!(generated_numbers(&other).len() > numbers.len());
        let (names_then, mark_then) = (db.dict().len(), db.dict().mark());
        let (again, report_again) = plan_text("?x <- ?x a1+/a2+ C", &mut db);
        assert_eq!(again, plan);
        assert_eq!(mura_core::term_key(&again), mura_core::term_key(&plan));
        assert_eq!(
            (report_again.candidates, report_again.sweeps),
            (report.candidates, report.sweeps)
        );
        assert_eq!((db.dict().len(), db.dict().mark()), (names_then, mark_then));
        // A failed search leaves the numbering where it found it.
        let failed = bracketed(&mut db, |db| {
            db.dict_mut().fresh("X");
            Err::<(Term, ()), _>(mura_core::MuraError::Frontend("unknown constant".into()))
        });
        assert!(failed.is_err());
        assert_eq!(db.dict().mark(), mark_then);
        eval(&plan, &db).unwrap();
    }

    #[test]
    fn renumbering_keeps_outputs_and_free_variables_and_captures_nothing() {
        let mut db = test_db();
        let (src, dst) = (db.intern("src"), db.intern("dst"));
        let a1 = db.relation_by_name("a1").unwrap().clone();
        // A generated output column and a generated relation name survive
        // the search; the binder and the middle column between them in the
        // numbering move out of their way.
        let out = db.dict_mut().fresh("t");
        let (x, m) = (db.dict_mut().fresh("X"), db.dict_mut().fresh("m"));
        let rel = db.dict_mut().fresh("n");
        db.insert_relation_sym(rel, a1);
        let step = Term::var(x).rename(dst, m).join(Term::var(rel).rename(src, m)).antiproject(m);
        let raw = Term::var(rel).union(step).fix(x).rename(dst, out);
        let plan = optimize(&raw, &mut db).unwrap();
        assert_eq!(plan.free_vars(), [rel]);
        assert_eq!(infer_schema(&plan, &mut TypeEnv::from_db(&db)).unwrap().columns(), [src, out]);
        let mut numbers = generated_numbers(&plan);
        numbers.sort_unstable();
        assert_eq!(numbers, [0, 1, 2, 4], "t#1 and n#4 kept, X and m renumbered around them");
        assert_eq!(eval(&raw, &db).unwrap().sorted_rows(), eval(&plan, &db).unwrap().sorted_rows());

        // A finished plan inside a new term, with fresh frontend symbols
        // around it: the symbols are none of the plan's, and the search
        // mints none of either.
        let query = parse_ucrpq("?x, ?y <- ?x a1+/a2 ?y").unwrap();
        let finished = optimize(&to_mura(&query, &mut db).unwrap(), &mut db).unwrap();
        let (qx, qy) = (db.intern("?x"), db.intern("?y"));
        let path = finished.rename(qx, src).rename(qy, dst);
        let (x, m) = (db.dict_mut().fresh("X"), db.dict_mut().fresh("m"));
        path.for_each_symbol(&mut |s| assert!(s != x && s != m, "{s} aliases the plan's"));
        let closure = |x: Sym, m: Sym| {
            let step = Term::var(x).rename(dst, m).join(path.clone().rename(src, m)).antiproject(m);
            path.clone().union(step).fix(x)
        };
        let expected = eval(&closure(x, m), &db).unwrap().sorted_rows();
        assert_eq!(
            eval(&optimize(&closure(x, m), &mut db).unwrap(), &db).unwrap().sorted_rows(),
            expected
        );
        // Also from a dictionary that numbers from 0 again (a restored
        // one): the search starts above what the term holds, the frontend
        // has to ask for the same.
        let mut restored = db.clone();
        restored.dict_mut().truncate(Database::new().dict().mark());
        restored.dict_mut().number_above(highest_generated(&path));
        let (x, m) = (restored.dict_mut().fresh("X"), restored.dict_mut().fresh("m"));
        restored.dict_mut().truncate(Database::new().dict().mark());
        let replanned = optimize(&closure(x, m), &mut restored).unwrap();
        assert_eq!(eval(&replanned, &restored).unwrap().sorted_rows(), expected);
        assert!(generated_numbers(&replanned)
            .iter()
            .copied()
            .eq(0..generated_numbers(&replanned).len() as u32));
    }

    #[test]
    fn idempotent_on_nonrecursive() {
        let mut db = test_db();
        let q = parse_ucrpq("?x, ?y <- ?x a1/a2 ?y").unwrap();
        let t = to_mura(&q, &mut db).unwrap();
        let o1 = optimize(&t, &mut db).unwrap();
        let o2 = optimize(&o1, &mut db).unwrap();
        assert_eq!(eval(&o1, &db).unwrap().sorted_rows(), eval(&o2, &db).unwrap().sorted_rows());
    }
}
