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
//! Budget policy (four constants in [`crate::rewriter`]): groups are
//! beam-truncated (`BEAM`) when sealed, parents combine at most
//! `PAIR_LIMIT` members per operand, expansion stops after `MAX_ROUNDS`
//! sweeps, and a global `MAX_MEMBERS` cap bounds the whole space (reported
//! as `budget_hit`).
//!
//! [`CostModel`]: crate::cost::CostModel

use crate::closure::{closed, Decision};
use crate::memo::{GroupId, Memo, RuleMask, RULE_ALL, RULE_ROLLOUT};
use crate::rewriter::{Rewriter, BEAM, MAX_MEMBERS, MAX_ROUNDS, PAIR_LIMIT};
use crate::rules;
use mura_core::analysis::TypeEnv;
use mura_core::{canon_key, Database, Result, Sym, Term};

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
    memo: Memo,
    budget_hit: bool,
    candidates: usize,
    sweeps: usize,
}

/// One plan per operand out of each operand's cheapest-first `tops`: the
/// cheapest of every operand first, then one operand at a time taken
/// through its other members, the last operand first. Nothing when there
/// are no operands or one has no member.
fn one_varied(tops: &[Vec<Term>]) -> Vec<Vec<&Term>> {
    if tops.is_empty() || tops.iter().any(Vec::is_empty) {
        return Vec::new();
    }
    let cheapest: Vec<&Term> = tops.iter().map(|members| &members[0]).collect();
    let mut out = vec![cheapest.clone()];
    for (k, members) in tops.iter().enumerate().rev() {
        for member in &members[1..] {
            let mut plans = cheapest.clone();
            plans[k] = member;
            out.push(plans);
        }
    }
    out
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
    pub(crate) fn new(rw: &'r Rewriter, sweeps: usize) -> Self {
        Enumerator { rw, memo: Memo::new(), budget_hit: false, candidates: 0, sweeps }
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
        // The term itself is always a member.
        self.add(gid, t.clone(), env, bound, 0, false);
        self.combine(gid, t, db, env, bound)?;
        self.expand(gid, db, env, bound)?;
        self.memo.seal(gid, BEAM);
        Ok(gid)
    }

    /// Rebuilds `t` over the surviving members of its operands' groups —
    /// the operands of the [`Decision`] at `t`, or else `t`'s children —
    /// varying one operand at a time, and where a decision is taken admits
    /// every alternative over the same members instead of picking one. A
    /// decision is taken when its operands are closed. When they are not,
    /// the filter and the join are still rebuilt over their operands'
    /// members, and the composition stays as it is.
    fn combine(
        &mut self,
        gid: GroupId,
        t: &Term,
        db: &mut Database,
        env: &mut TypeEnv,
        bound: &mut Vec<Sym>,
    ) -> Result<()> {
        let point = Decision::at(t, self.rw.src(), self.rw.dst());
        let taken = point.filter(|d| d.closed(bound));
        if taken.is_none() && point.is_some_and(|d| d.is_composition()) {
            return Ok(());
        }
        let operands = point.map_or_else(|| t.children(), |d| d.operands().collect());
        let binder = if let Term::Fix(x, _) = t { Some(*x) } else { None };
        bound.extend(binder);
        let groups: Result<Vec<GroupId>> =
            operands.iter().map(|o| self.explore(o, db, env, bound)).collect();
        if binder.is_some() {
            bound.pop();
        }
        let tops: Vec<Vec<Term>> =
            groups?.iter().map(|g| self.memo.top_terms(*g, PAIR_LIMIT)).collect();
        for plans in one_varied(&tops) {
            let rebuilt = match &point {
                Some(d) => d.rebuild(&plans, db.dict_mut()),
                None => {
                    let mut plans = plans.iter();
                    t.map_children(|_| (*plans.next().expect("one plan per child")).clone())
                }
            };
            self.add(gid, rebuilt, env, bound, 0, false);
            if let Some(d) = &taken {
                for alt in d.alternatives(&plans, env, db.dict_mut()) {
                    self.add(gid, alt, env, bound, d.rule(), true);
                }
            }
        }
        Ok(())
    }

    /// Expansion sweeps: apply the rule families still unset in each
    /// member's mask — the alternatives of the [`Decision`] at the member,
    /// and the greedy-pipeline rollout (which both guarantees the
    /// pipeline's plan is in the space and resolves nested decision points
    /// that normalization exposed).
    fn expand(
        &mut self,
        gid: GroupId,
        db: &mut Database,
        env: &mut TypeEnv,
        bound: &[Sym],
    ) -> Result<()> {
        for _ in 0..MAX_ROUNDS {
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
                let decision = Decision::at(&term, self.rw.src(), self.rw.dst());
                if let Some(d) = decision.filter(|d| mask & d.rule() == 0) {
                    let plans: Vec<&Term> = d.operands().collect();
                    for alt in d.alternatives(&plans, env, db.dict_mut()) {
                        added |= self.add(gid, alt, env, bound, d.rule(), true);
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
            self.memo.seal(gid, BEAM);
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
        if self.memo.member_count() >= MAX_MEMBERS {
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

    /// One term per decision kind over the two chains of `closure.rs`'s
    /// tests (`a`: 0→1→2, `b`: 2→3→4): `a+ ∘ b+`, `σ_dst=2(a+)` and
    /// `ρ(a+) ⋈ π̃(ρ(b))` sharing the closure's stable column. Operands are
    /// in normal form, as the members the enumerator combines are: the
    /// greedy pass builds its alternatives over operands as it finds them.
    fn decision_fixtures() -> (Database, Vec<(&'static str, Term)>) {
        use crate::closure::{compose, ClosureForm};
        use mura_core::{Pred, Relation, Value};
        let mut db = Database::new();
        let (src, dst) = (db.intern("src"), db.intern("dst"));
        let a = db.insert_relation("a", Relation::from_pairs(src, dst, [(0, 1), (1, 2)]));
        let b = db.insert_relation("b", Relation::from_pairs(src, dst, [(2, 3), (3, 4)]));
        let (qx, qy) = (db.intern("?x"), db.intern("?y"));
        let mut plus = |r: Sym| {
            ClosureForm::right_linear(Term::var(r), Term::var(r), src, dst).emit(db.dict_mut())
        };
        let (a_plus, b_plus) = (plus(a), plus(b));
        let composed = compose(a_plus.clone(), b_plus, src, dst, db.dict_mut());
        let filtered = a_plus.clone().filter(Pred::Eq(dst, Value::node(2)));
        let mut env = TypeEnv::from_db(&db);
        let joined = rules::normalize(&a_plus.rename(src, qx).rename(dst, qy), &mut env)
            .join(Term::var(b).rename(src, qx).antiproject(dst));
        (db, vec![("compose", composed), ("reverse", filtered), ("join", joined)])
    }

    #[test]
    fn the_greedy_pass_and_the_enumerator_see_the_same_alternatives() {
        use std::collections::BTreeSet;
        let (mut db, fixtures) = decision_fixtures();
        let rw = Rewriter::new(&mut db);
        let mut env = TypeEnv::from_db(&db);
        for (kind, t) in fixtures {
            let rule = Decision::at(&t, rw.src(), rw.dst()).expect(kind).rule();
            // What `closure_pass` picks from…
            let (original, alts) =
                rw.choices(&t, &mut db, &mut env, &mut Vec::new()).unwrap().expect(kind);
            assert!(!alts.is_empty(), "{kind}: a decision with nothing to decide");
            let greedy: BTreeSet<u64> = alts.iter().map(|alt| canon_key(alt, &[])).collect();
            // …is what `explore` admits under the decision's family…
            let mut en = Enumerator::new(&rw, 0);
            let gid = en.memo.create(canon_key(&t, &[]));
            en.combine(gid, &t, &mut db, &mut env, &mut Vec::new()).unwrap();
            let members = &en.memo.group(gid).members;
            let explored: BTreeSet<u64> =
                members.iter().filter(|m| m.mask == rule).map(|m| m.key).collect();
            assert_eq!(explored, greedy, "{kind}: explore");
            // …and what `expand` derives from the rebuilt original alone
            // (filed as it is: normalized, a composition of closures is
            // no composition any more).
            let mut en = Enumerator::new(&rw, 0);
            let key = canon_key(&original, &[]);
            let gid = en.memo.create(key);
            assert!(en.memo.add(gid, original, 0.0, key, 0));
            en.expand(gid, &mut db, &mut env, &[]).unwrap();
            for alt in alts {
                let (key, shown) = (canon_key(&alt, &[]), alt.display(db.dict()).to_string());
                assert!(!en.memo.add(gid, alt, 0.0, key, RULE_ALL), "{kind}: expand, {shown}");
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
