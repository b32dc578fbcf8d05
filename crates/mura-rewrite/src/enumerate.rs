//! Memoized transformation-based enumeration of the recursive plan space.
//!
//! Where the greedy pipeline ([`crate::rewriter`]) commits to one
//! alternative at every closure decision, the enumerator keeps the
//! competing rewritings alive in a [`Memo`]: every closed subterm owns a
//! group of semantically equivalent plans, built bottom-up (children are
//! enumerated first, parents combine the children's surviving members) and
//! expanded by the closure rule families until a fixpoint, a rule-mask
//! blocks re-derivation, or the budget trips. Costing every member with the
//! (possibly observation-backed) [`CostModel`] and extracting the group's
//! cheapest member yields the winner; the greedy pipeline's plan is always
//! part of the space (via the rollout family) and is used as a floor, so
//! the enumerated plan is never costed worse than the pipeline's.
//!
//! Budget policy: groups are beam-truncated (`beam`) when sealed, parents
//! combine at most `pair_limit` members per child, expansion stops after
//! `max_rounds` sweeps, and a global `max_members` cap bounds the whole
//! space (reported as `budget_hit`).
//!
//! [`CostModel`]: crate::cost::CostModel

use crate::closure::{compose, compose_alternatives, recognize, reversal_alternatives};
use crate::memo::{
    GroupId, Memo, RuleMask, RULE_ALL, RULE_COMPOSE, RULE_JOIN_PUSH, RULE_REVERSE, RULE_ROLLOUT,
};
use crate::rewriter::{recognize_compose, Rewriter};
use crate::rules;
use mura_core::analysis::TypeEnv;
use mura_core::{canon_key, Database, Result, Sym, Term};

/// Enumeration budget knobs.
#[derive(Debug, Clone)]
pub struct EnumConfig {
    /// Members kept per group when it is sealed.
    pub beam: usize,
    /// Child members considered per operand when building parent plans.
    pub pair_limit: usize,
    /// Global cap on live members across all groups.
    pub max_members: usize,
    /// Expansion sweeps per group.
    pub max_rounds: usize,
}

impl Default for EnumConfig {
    fn default() -> Self {
        EnumConfig { beam: 6, pair_limit: 3, max_members: 320, max_rounds: 3 }
    }
}

/// Per-group digest for `.explain`.
#[derive(Debug, Clone)]
pub struct GroupSummary {
    /// Rendering of the group's cheapest member (truncated).
    pub label: String,
    /// Surviving members.
    pub members: usize,
    /// Cost of the cheapest member.
    pub best_cost: f64,
}

/// What the enumeration did, for `.explain` and benchmarking.
#[derive(Debug, Clone, Default)]
pub struct EnumReport {
    /// Equivalence groups in the memo.
    pub groups: usize,
    /// Distinct candidate plans admitted across all groups (before beam
    /// truncation).
    pub candidates: usize,
    /// Cost of the extracted plan.
    pub winner_cost: f64,
    /// Cost of the greedy pipeline's plan under the same model.
    pub pipeline_cost: f64,
    /// True when the enumerated plan beat the pipeline's (strictly, with
    /// the improvement margin).
    pub enumerated_won: bool,
    /// The global member budget tripped (space was truncated).
    pub budget_hit: bool,
    /// Fixpoints of the winner costed from an observed total.
    pub observed_fixpoints: usize,
    /// Observed-cardinality feedback was available to the cost model.
    pub used_observed: bool,
    /// Closure-decision sweeps run by the greedy roll-outs (the floor plan
    /// and one roll-out per expanded member). With `candidates`, the work
    /// the search did: a function of the term and the statistics, not of
    /// what was planned before.
    pub sweeps: usize,
    /// Digest of every group, cheapest member first. Filled by
    /// [`Rewriter::optimize_explained`] only — nothing else reads it.
    pub group_summaries: Vec<GroupSummary>,
}

/// One enumeration run over a term.
pub(crate) struct Enumerator<'r> {
    rw: &'r Rewriter,
    cfg: EnumConfig,
    memo: Memo,
    budget_hit: bool,
    candidates: usize,
    sweeps: usize,
}

fn closed(t: &Term, bound: &[Sym]) -> bool {
    !bound.iter().any(|v| t.has_free_var(*v))
}

/// True when every symbol of `t` resolves in `dict` (terms planned against
/// a database other than the one they were translated with may carry
/// foreign symbols, which `Term::display` cannot render).
fn displayable(t: &Term, dict: &mura_core::Dictionary) -> bool {
    let ok = |s: Sym| s.is_generated() || s.index() < dict.len();
    let syms_ok = match t {
        Term::Var(v) => ok(*v),
        Term::Cst(r) => r.schema().columns().iter().all(|c| ok(*c)),
        Term::Filter(ps, _) => ps.iter().all(|p| p.columns().iter().all(|c| ok(*c))),
        Term::Rename(a, b, _) => ok(*a) && ok(*b),
        Term::AntiProject(cs, _) => cs.iter().all(|c| ok(*c)),
        Term::Fix(x, _) => ok(*x),
        Term::Join(..) | Term::Antijoin(..) | Term::Union(..) => true,
    };
    syms_ok && t.children().iter().all(|c| displayable(c, dict))
}

impl<'r> Enumerator<'r> {
    /// `sweeps`: what the caller's own roll-out already ran.
    pub(crate) fn new(rw: &'r Rewriter, cfg: EnumConfig, sweeps: usize) -> Self {
        Enumerator { rw, cfg, memo: Memo::new(), budget_hit: false, candidates: 0, sweeps }
    }

    /// Enumerates the plan space of `t` bottom-up. Returns the (sealed)
    /// group holding `t`'s alternatives.
    pub(crate) fn explore(
        &mut self,
        t: &Term,
        db: &mut Database,
        env: &mut TypeEnv,
        bound: &mut Vec<Sym>,
    ) -> Result<GroupId> {
        let key0 = canon_key(t, bound);
        if let Some(gid) = self.memo.lookup(key0) {
            return Ok(gid);
        }
        let gid = self.memo.create(key0);
        let (src, dst) = (self.rw.src(), self.rw.dst());
        // The term itself is always a member.
        self.add(gid, t.clone(), env, bound, 0, false);

        // Decision points mirror the greedy pass, but instead of picking one
        // alternative we combine the children's surviving members and keep
        // every derived plan.
        if let Some((a, b, _m)) = recognize_compose(t, src, dst) {
            if closed(&a, bound) && closed(&b, bound) {
                let ga = self.explore(&a, db, env, bound)?;
                let gb = self.explore(&b, db, env, bound)?;
                let tops_a = self.memo.top_terms(ga, self.cfg.pair_limit);
                let tops_b = self.memo.top_terms(gb, self.cfg.pair_limit);
                for (i, ta) in tops_a.iter().enumerate() {
                    for (j, tb) in tops_b.iter().enumerate() {
                        if i > 0 && j > 0 {
                            continue; // vary one operand at a time
                        }
                        let original = compose(ta.clone(), tb.clone(), src, dst, db.dict_mut());
                        self.add(gid, original, env, bound, 0, false);
                        for alt in compose_alternatives(ta, tb, src, dst, env, db.dict_mut()) {
                            self.add(gid, alt, env, bound, RULE_COMPOSE, true);
                        }
                    }
                }
            }
        } else if let Term::Filter(preds, inner) = t {
            if matches!(&**inner, Term::Fix(_, _)) && closed(inner, bound) {
                let gi = self.explore(inner, db, env, bound)?;
                for it in self.memo.top_terms(gi, self.cfg.pair_limit) {
                    let original = Term::Filter(preds.clone(), Box::new(it.clone()));
                    self.add(gid, original, env, bound, 0, false);
                    if let Some(form) = recognize(&it, src, dst, env) {
                        for alt in reversal_alternatives(preds, &form, db.dict_mut()) {
                            self.add(gid, alt, env, bound, RULE_REVERSE, true);
                        }
                    }
                }
            } else {
                self.rebuild_unary(gid, t, db, env, bound)?;
            }
        } else if let Term::Join(a, b) = t {
            let ga = self.explore(a, db, env, bound)?;
            let gb = self.explore(b, db, env, bound)?;
            let both_closed = closed(a, bound) && closed(b, bound);
            let tops_a = self.memo.top_terms(ga, self.cfg.pair_limit);
            let tops_b = self.memo.top_terms(gb, self.cfg.pair_limit);
            for (i, ta) in tops_a.iter().enumerate() {
                for (j, tb) in tops_b.iter().enumerate() {
                    if i > 0 && j > 0 {
                        continue;
                    }
                    self.add(gid, ta.clone().join(tb.clone()), env, bound, 0, false);
                    if both_closed {
                        if let Some(alt) = rules::join_into_fix_through_renames(ta, tb, env) {
                            self.add(gid, alt, env, bound, RULE_JOIN_PUSH, true);
                        }
                        if let Some(alt) = rules::join_into_fix_through_renames(tb, ta, env) {
                            self.add(gid, alt, env, bound, RULE_JOIN_PUSH, true);
                        }
                    }
                }
            }
        } else {
            self.rebuild_generic(gid, t, db, env, bound)?;
        }

        self.expand(gid, db, env, bound)?;
        self.memo.seal(gid, self.cfg.beam);
        Ok(gid)
    }

    /// Rebuild for unary operators: wrap each surviving child member.
    fn rebuild_unary(
        &mut self,
        gid: GroupId,
        t: &Term,
        db: &mut Database,
        env: &mut TypeEnv,
        bound: &mut Vec<Sym>,
    ) -> Result<()> {
        let (inner, wrap): (&Term, Box<dyn Fn(Term) -> Term>) = match t {
            Term::Filter(ps, inner) => {
                let ps = ps.clone();
                (inner, Box::new(move |c| Term::Filter(ps.clone(), Box::new(c))))
            }
            Term::Rename(a, b, inner) => {
                let (a, b) = (*a, *b);
                (inner, Box::new(move |c| Term::Rename(a, b, Box::new(c))))
            }
            Term::AntiProject(cs, inner) => {
                let cs = cs.clone();
                (inner, Box::new(move |c| Term::AntiProject(cs.clone(), Box::new(c))))
            }
            _ => return Ok(()),
        };
        let gi = self.explore(inner, db, env, bound)?;
        for it in self.memo.top_terms(gi, self.cfg.pair_limit) {
            self.add(gid, wrap(it), env, bound, 0, false);
        }
        Ok(())
    }

    /// Rebuild for the remaining shapes (binary set operators, fixpoints).
    fn rebuild_generic(
        &mut self,
        gid: GroupId,
        t: &Term,
        db: &mut Database,
        env: &mut TypeEnv,
        bound: &mut Vec<Sym>,
    ) -> Result<()> {
        match t {
            Term::Var(_) | Term::Cst(_) => {}
            Term::Filter(..) | Term::Rename(..) | Term::AntiProject(..) => {
                self.rebuild_unary(gid, t, db, env, bound)?;
            }
            Term::Join(..) => {} // handled at the decision point
            Term::Antijoin(a, b) | Term::Union(a, b) => {
                let ga = self.explore(a, db, env, bound)?;
                let gb = self.explore(b, db, env, bound)?;
                let tops_a = self.memo.top_terms(ga, self.cfg.pair_limit);
                let tops_b = self.memo.top_terms(gb, self.cfg.pair_limit);
                for (i, ta) in tops_a.iter().enumerate() {
                    for (j, tb) in tops_b.iter().enumerate() {
                        if i > 0 && j > 0 {
                            continue;
                        }
                        let rebuilt = match t {
                            Term::Antijoin(..) => {
                                Term::Antijoin(Box::new(ta.clone()), Box::new(tb.clone()))
                            }
                            _ => Term::Union(Box::new(ta.clone()), Box::new(tb.clone())),
                        };
                        self.add(gid, rebuilt, env, bound, 0, false);
                    }
                }
            }
            Term::Fix(x, body) => {
                bound.push(*x);
                let gb = self.explore(body, db, env, bound);
                bound.pop();
                let gb = gb?;
                for bt in self.memo.top_terms(gb, self.cfg.pair_limit) {
                    self.add(gid, Term::Fix(*x, Box::new(bt)), env, bound, 0, false);
                }
            }
        }
        Ok(())
    }

    /// Expansion sweeps: apply the rule families still unset in each
    /// member's mask, including the greedy-pipeline rollout (which both
    /// guarantees the pipeline's plan is in the space and resolves nested
    /// decision points that normalization exposed).
    fn expand(
        &mut self,
        gid: GroupId,
        db: &mut Database,
        env: &mut TypeEnv,
        bound: &[Sym],
    ) -> Result<()> {
        let (src, dst) = (self.rw.src(), self.rw.dst());
        for _ in 0..self.cfg.max_rounds {
            if self.budget_hit {
                break;
            }
            let pending: Vec<(Term, RuleMask)> = self
                .memo
                .group(gid)
                .members
                .iter()
                .filter(|m| m.mask != RULE_ALL)
                .map(|m| (m.term.clone(), m.mask))
                .collect();
            if pending.is_empty() {
                break;
            }
            for m in self.memo.members_mut(gid) {
                m.mask = RULE_ALL;
            }
            let mut added = false;
            for (term, mask) in pending {
                if !closed(&term, bound) {
                    continue;
                }
                if mask & RULE_COMPOSE == 0 {
                    if let Some((a, b, _m)) = recognize_compose(&term, src, dst) {
                        for alt in compose_alternatives(&a, &b, src, dst, env, db.dict_mut()) {
                            added |= self.add(gid, alt, env, bound, RULE_COMPOSE, true);
                        }
                    }
                }
                if mask & RULE_REVERSE == 0 {
                    if let Term::Filter(preds, inner) = &term {
                        if let Some(form) = recognize(inner, src, dst, env) {
                            for alt in reversal_alternatives(preds, &form, db.dict_mut()) {
                                added |= self.add(gid, alt, env, bound, RULE_REVERSE, true);
                            }
                        }
                    }
                }
                if mask & RULE_JOIN_PUSH == 0 {
                    if let Term::Join(a, b) = &term {
                        if let Some(alt) = rules::join_into_fix_through_renames(a, b, env) {
                            added |= self.add(gid, alt, env, bound, RULE_JOIN_PUSH, true);
                        }
                        if let Some(alt) = rules::join_into_fix_through_renames(b, a, env) {
                            added |= self.add(gid, alt, env, bound, RULE_JOIN_PUSH, true);
                        }
                    }
                }
                if mask & RULE_ROLLOUT == 0 {
                    if let Ok((rolled, sweeps)) = self.rw.pipeline_sweeps(&term, db, env) {
                        self.sweeps += sweeps;
                        // Rollout output is the greedy pipeline's fixpoint:
                        // fully derived, nothing left to expand from it.
                        added |= self.add(gid, rolled, env, bound, RULE_ALL, true);
                    }
                }
            }
            if !added {
                break;
            }
            // Re-focus the next sweep on the cheapest members.
            self.memo.seal(gid, self.cfg.beam);
        }
        Ok(())
    }

    /// Admits a candidate into a group: normalize (closed terms only),
    /// canonicalize, cost, dedup, respect the global budget. Returns
    /// whether the member was new.
    fn add(
        &mut self,
        gid: GroupId,
        t: Term,
        env: &mut TypeEnv,
        bound: &[Sym],
        mask: RuleMask,
        require_cost: bool,
    ) -> bool {
        if self.memo.member_count() >= self.cfg.max_members {
            self.budget_hit = true;
            return false;
        }
        let t = if bound.is_empty() { rules::normalize(&t, env) } else { t };
        let key = canon_key(&t, bound);
        let cost = match self.rw.cost_with(&t) {
            Some((c, _)) => c,
            None if require_cost => return false,
            None => f64::INFINITY,
        };
        let new = self.memo.add(gid, t, cost, key, mask);
        if new {
            self.candidates += 1;
        }
        new
    }

    /// All surviving member terms of a group (cheapest first).
    pub(crate) fn members(&self, gid: GroupId) -> Vec<Term> {
        self.memo.top_terms(gid, usize::MAX)
    }

    /// Extracts the cheapest member and builds the report. `pipeline` /
    /// `pipeline_cost` give the greedy plan as a floor: the enumerated
    /// member is adopted only when strictly cheaper (by `improvement`), so
    /// the result never costs worse than the pipeline's.
    pub(crate) fn finish(
        self,
        gid: GroupId,
        pipeline: Term,
        pipeline_cost: f64,
        improvement: f64,
    ) -> (Term, EnumReport) {
        let best = self.memo.group(gid).members.first().cloned();
        let (winner, winner_cost, won) = match best {
            Some(m) if m.cost.is_finite() && m.cost < pipeline_cost * improvement => {
                (m.term, m.cost, true)
            }
            _ => (pipeline, pipeline_cost, false),
        };
        let observed_fixpoints = self.rw.cost_with(&winner).map(|(_, h)| h).unwrap_or(0);
        let report = EnumReport {
            groups: self.memo.group_count(),
            candidates: self.candidates,
            winner_cost,
            pipeline_cost,
            enumerated_won: won,
            budget_hit: self.budget_hit,
            observed_fixpoints,
            used_observed: self.rw.has_observations(),
            sweeps: self.sweeps,
            group_summaries: Vec::new(),
        };
        (winner, report)
    }

    /// The per-group digest `.explain` prints: each group's cheapest
    /// member (rendered, truncated), its size and that member's cost.
    pub(crate) fn group_summaries(&self, dict: &mura_core::Dictionary) -> Vec<GroupSummary> {
        let mut out = Vec::with_capacity(self.memo.group_count());
        for g in 0..self.memo.group_count() {
            let group = self.memo.group(g);
            let Some(first) = group.members.first() else { continue };
            let mut label = if displayable(&first.term, dict) {
                format!("{}", first.term.display(dict))
            } else {
                "(foreign symbols)".to_string()
            };
            if label.chars().count() > 72 {
                label = label.chars().take(69).collect::<String>() + "...";
            }
            out.push(GroupSummary { label, members: group.members.len(), best_cost: first.cost });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::eval;
    use mura_datagen::{erdos_renyi, with_random_labels, SplitMix64};
    use mura_ucrpq::{parse_ucrpq, to_mura};

    fn test_db() -> Database {
        let mut rng = SplitMix64::seed_from_u64(11);
        let g = erdos_renyi(300, 0.01, 4);
        let lg = with_random_labels(&g, 3, &mut rng);
        let mut db = lg.to_database();
        db.bind_constant("C", mura_core::Value::node(7));
        db
    }

    #[test]
    fn report_is_populated_and_winner_correct() {
        let mut db = test_db();
        let rw = Rewriter::new(&mut db);
        for q in [
            "?x <- ?x a1+ C",
            "?x, ?y <- ?x a1+/a2+ ?y",
            "?x <- ?x a1+/a2+ C",
            "?x, ?z <- ?x a1+ ?y, ?y a2+ ?z",
        ] {
            let parsed = parse_ucrpq(q).unwrap();
            let naive = to_mura(&parsed, &mut db).unwrap();
            let (winner, report) = rw.optimize_report(&naive, &mut db).unwrap();
            assert!(report.groups > 0, "{q}: no groups");
            assert!(report.candidates > 0, "{q}: no candidates");
            assert!(
                report.winner_cost <= report.pipeline_cost,
                "{q}: winner {} worse than pipeline {}",
                report.winner_cost,
                report.pipeline_cost
            );
            let a = eval(&naive, &db).unwrap();
            let b = eval(&winner, &db).unwrap();
            assert_eq!(a.sorted_rows(), b.sorted_rows(), "{q}: semantics changed");
            eprintln!(
                "{q}: groups={} candidates={} pipeline={:.0} winner={:.0} won={}",
                report.groups,
                report.candidates,
                report.pipeline_cost,
                report.winner_cost,
                report.enumerated_won
            );
        }
    }

    #[test]
    fn enumeration_beats_pipeline_on_filtered_merged_closure() {
        // `?x <- ?x a1+/a2+ C`: the greedy sweep merges a1+/a2+ first
        // (locally cheapest) and then cannot push the dst filter — the
        // merged closure has no stable column. The enumerator keeps the
        // unmerged composition alive, where the filter reaches a2+ and a
        // reversal turns it into a small-seed closure.
        let mut db = test_db();
        let rw = Rewriter::new(&mut db);
        let parsed = parse_ucrpq("?x <- ?x a1+/a2+ C").unwrap();
        let naive = to_mura(&parsed, &mut db).unwrap();
        let (winner, report) = rw.optimize_report(&naive, &mut db).unwrap();
        assert!(
            report.enumerated_won,
            "enumeration should beat the pipeline here: winner {} pipeline {}",
            report.winner_cost, report.pipeline_cost
        );
        let a = eval(&naive, &db).unwrap();
        let b = eval(&winner, &db).unwrap();
        assert_eq!(a.sorted_rows(), b.sorted_rows());
    }

    #[test]
    fn all_candidates_semantically_equivalent() {
        let mut db = test_db();
        let rw = Rewriter::new(&mut db);
        for q in ["?x <- ?x a1+ C", "?x, ?y <- ?x a1+/a2+ ?y", "?x <- ?x a1+/a2+ C"] {
            let parsed = parse_ucrpq(q).unwrap();
            let naive = to_mura(&parsed, &mut db).unwrap();
            let expected = eval(&naive, &db).unwrap().sorted_rows();
            let cands = rw.candidates(&naive, &mut db).unwrap();
            assert!(cands.len() >= 2, "{q}: expected several candidates");
            for (i, c) in cands.iter().enumerate() {
                let got = eval(c, &db).unwrap().sorted_rows();
                assert_eq!(got, expected, "{q}: candidate {i} diverges");
            }
        }
    }

    #[test]
    fn observed_cardinalities_steer_costs() {
        let mut db = test_db();
        let parsed = parse_ucrpq("?x, ?y <- ?x a1+ ?y").unwrap();
        let naive = to_mura(&parsed, &mut db).unwrap();
        let rw = Rewriter::new(&mut db);
        let (winner, _) = rw.optimize_report(&naive, &mut db).unwrap();
        // Record an absurdly large observation for the winner's fixpoint.
        let mut cards = crate::cost::ObservedCards::default();
        fn first_fix(t: &Term) -> Option<&Term> {
            if matches!(t, Term::Fix(_, _)) {
                return Some(t);
            }
            t.children().iter().find_map(|c| first_fix(c))
        }
        let fix = first_fix(&winner).expect("winner has a fixpoint");
        cards.insert(canon_key(fix, &[]), 1e9);
        let rw2 = Rewriter::new(&mut db).with_observations(cards.into());
        let (static_cost, _) = rw.cost_with(&winner).unwrap();
        let (obs_cost, hits) = rw2.cost_with(&winner).unwrap();
        assert!(hits >= 1, "observation must be hit");
        assert!(obs_cost > static_cost * 100.0, "observed {obs_cost} vs static {static_cost}");
    }
}
