//! Closure forms: recognition and emission of path-closure fixpoints.
//!
//! UCRPQ translation produces fixpoints of a canonical shape over the
//! binary path schema `{src, dst}`. We abstract them as
//!
//! ```text
//! ClosureForm { seed: S, left: L?, right: R? }   ≐   L* ∘ S ∘ R*
//! ```
//!
//! * `right`-only (`S ∘ R*`) is the **right-linear** closure `RL(S, R)`:
//!   `μ(X = S ∪ π̃_m(ρ_dst→m(X) ⋈ ρ_src→m(R)))` — appends `R` at `dst`;
//!   its `src` column is stable.
//! * `left`-only (`L* ∘ S`) is the **left-linear** closure `LL(S, L)` —
//!   prepends `L` at `src`; its `dst` column is stable.
//! * both (`L* ∘ S ∘ R*`) is the **merged** form the paper's
//!   *merge fixpoints* rule produces for `a+/b+` (= `BL(a∘b, a, b)`);
//!   no column is stable.
//!
//! On these forms the paper's structural rules become algebra on small
//! records: *reversing* `a+` converts `RL(a,a) ↔ LL(a,a)`; *pushing a join*
//! composes into the seed; *merging* combines an `LL`-able left operand with
//! an `RL`-able right operand.
//!
//! Where those rules apply is a [`Decision`]: the one definition of each
//! point at which plans diverge, walked by the greedy pass and by the
//! enumerator alike.

use crate::memo::{RuleMask, RULE_COMPOSE, RULE_JOIN_PUSH, RULE_REVERSE};
use crate::rules::join_into_fix_through_renames;
use mura_core::analysis::{decompose_fixpoint, infer_schema, TypeEnv};
use mura_core::{Dictionary, Pred, Sym, Term};
use std::borrow::Borrow;

/// A recognized (or synthesized) closure fixpoint `L* ∘ seed ∘ R*` over the
/// binary path schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosureForm {
    /// Constant part of the fixpoint.
    pub seed: Term,
    /// Step relation prepended at `src` each iteration, if any.
    pub left: Option<Term>,
    /// Step relation appended at `dst` each iteration, if any.
    pub right: Option<Term>,
    /// The closure's source column.
    pub src: Sym,
    /// The closure's destination column.
    pub dst: Sym,
}

impl ClosureForm {
    /// Right-linear closure `seed ∘ step*`.
    pub fn right_linear(seed: Term, step: Term, src: Sym, dst: Sym) -> Self {
        ClosureForm { seed, left: None, right: Some(step), src, dst }
    }

    /// Left-linear closure `step* ∘ seed`.
    pub fn left_linear(seed: Term, step: Term, src: Sym, dst: Sym) -> Self {
        ClosureForm { seed, left: Some(step), right: None, src, dst }
    }

    /// True if this is a *pure* closure `r+` (seed equals the step
    /// relation), which is reversible between left- and right-linear form.
    pub fn is_pure(&self) -> bool {
        match (&self.left, &self.right) {
            (None, Some(r)) => *r == self.seed,
            (Some(l), None) => *l == self.seed,
            _ => false,
        }
    }

    /// Converts to left-linear form if semantically possible:
    /// already left-only, or a pure right-linear closure (`a+`), or no
    /// recursion at all.
    pub fn to_left_linear(&self) -> Option<ClosureForm> {
        match (&self.left, &self.right) {
            (_, None) => Some(self.clone()),
            (None, Some(r)) if self.is_pure() => {
                Some(ClosureForm::left_linear(r.clone(), r.clone(), self.src, self.dst))
            }
            _ => None,
        }
    }

    /// Converts to right-linear form if semantically possible.
    pub fn to_right_linear(&self) -> Option<ClosureForm> {
        match (&self.left, &self.right) {
            (None, _) => Some(self.clone()),
            (Some(l), None) if self.is_pure() => {
                Some(ClosureForm::right_linear(l.clone(), l.clone(), self.src, self.dst))
            }
            _ => None,
        }
    }

    /// Emits the μ-RA fixpoint term for this closure.
    pub fn emit(&self, dict: &mut Dictionary) -> Term {
        if self.left.is_none() && self.right.is_none() {
            return self.seed.clone();
        }
        let x = dict.fresh("X");
        let mut branches = vec![self.seed.clone()];
        if let Some(l) = &self.left {
            let m = dict.fresh("m");
            branches.push(
                l.clone().rename(self.dst, m).join(Term::var(x).rename(self.src, m)).antiproject(m),
            );
        }
        if let Some(r) = &self.right {
            let m = dict.fresh("m");
            branches.push(
                Term::var(x).rename(self.dst, m).join(r.clone().rename(self.src, m)).antiproject(m),
            );
        }
        Term::union_all(branches).fix(x)
    }
}

/// Composition `a ∘ b` over the binary path schema:
/// `π̃_m(ρ_dst→m(a) ⋈ ρ_src→m(b))`.
pub fn compose(a: Term, b: Term, src: Sym, dst: Sym, dict: &mut Dictionary) -> Term {
    let m = dict.fresh("m");
    a.rename(dst, m).join(b.rename(src, m)).antiproject(m)
}

/// Matches the composition pattern `π̃_m(ρ_dst→m(A) ⋈ ρ_src→m(B))` that
/// [`compose`] builds, returning `(A, B)`.
pub fn recognize_compose(t: &Term, src: Sym, dst: Sym) -> Option<(&Term, &Term)> {
    let Term::AntiProject(cols, inner) = t else { return None };
    let [m] = cols.as_slice() else { return None };
    let Term::Join(l, r) = &**inner else { return None };
    for (x, y) in [(l, r), (r, l)] {
        let Term::Rename(fa, ma, a) = &**x else { continue };
        let Term::Rename(fb, mb, b) = &**y else { continue };
        if *fa == dst && *ma == *m && *fb == src && *mb == *m {
            return Some((a, b));
        }
    }
    None
}

/// Tries to recognize `term` as a closure fixpoint over columns
/// `{src, dst}`. The seed may be any `x`-free term of the right schema; the
/// step branches must have the canonical append/prepend shape the frontend
/// (and [`ClosureForm::emit`]) produce.
pub fn recognize(term: &Term, src: Sym, dst: Sym, env: &mut TypeEnv) -> Option<ClosureForm> {
    let Term::Fix(x, body) = term else { return None };
    let (consts, recs) = decompose_fixpoint(*x, body).ok()?;
    // Closure schema must be exactly {src, dst}.
    let schema = infer_schema(term, env).ok()?;
    if schema.columns() != [src.min(dst), src.max(dst)] {
        return None;
    }
    let mut seed: Option<Term> = None;
    for c in consts {
        seed = Some(match seed {
            None => c.clone(),
            Some(s) => s.union(c.clone()),
        });
    }
    let seed = seed.expect("decompose guarantees a constant part");
    let mut left: Option<Term> = None;
    let mut right: Option<Term> = None;
    for rec in recs {
        let (grow_col, step) = match_step_branch(rec, *x)?;
        // Step relation must itself have schema {src, dst} and be x-free.
        if step.has_free_var(*x) {
            return None;
        }
        let step_schema = infer_schema(&step, env).ok()?;
        if step_schema.columns() != [src.min(dst), src.max(dst)] {
            return None;
        }
        if grow_col == dst {
            // Appends at dst: right step. Two right branches union into one
            // step relation.
            right = Some(match right {
                None => step,
                Some(r) => r.union(step),
            });
        } else if grow_col == src {
            left = Some(match left {
                None => step,
                Some(l) => l.union(step),
            });
        } else {
            return None;
        }
    }
    Some(ClosureForm { seed, left, right, src, dst })
}

/// Matches one recursive branch of a closure:
/// `π̃_m(ρ_g→m(X) ⋈ ρ_h→m(step))` where `g` is the growing column of `X`
/// and `h` is the opposite column of the step relation. Returns
/// `(grow_col, step)`.
fn match_step_branch(branch: &Term, x: Sym) -> Option<(Sym, Term)> {
    let Term::AntiProject(cols, inner) = branch else { return None };
    let [m] = cols.as_slice() else { return None };
    let Term::Join(a, b) = &**inner else { return None };
    for (xa, sb) in [(a, b), (b, a)] {
        let Term::Rename(gx, mx, xv) = &**xa else { continue };
        if mx != m || **xv != Term::Var(x) {
            continue;
        }
        let Term::Rename(hs, ms, step) = &**sb else { continue };
        if ms != m {
            continue;
        }
        // grow col gx of X is joined against column hs of the step; for an
        // append (gx = dst) the step joins at its src (hs = src), i.e. hs
        // must be the opposite column of gx. The caller validates schemas;
        // here we only require gx != hs.
        if gx == hs {
            continue;
        }
        return Some((*gx, (**step).clone()));
    }
    None
}

/// Alternatives for a composition `a ∘ b` (the caller keeps the original as
/// alternative 0). Each alternative is a complete replacement term.
///
/// Generated (when the operands have the required forms):
///
/// 1. **merge / push-join** — left operand convertible to `L* ∘ S_a`, right
///    operand convertible to `S_b ∘ R*`: `L* ∘ (S_a∘S_b) ∘ R*`. With a
///    plain (non-closure) operand this degenerates to the paper's
///    *pushing joins into fixpoints*; with two pure closures it is
///    *merging fixpoints*.
/// 2. **reverse-then-push (right)** — `RL(S,R) ∘ b  →  S ∘ LL(b, R)`:
///    re-orients the closure so it grows from `b`'s side (profitable when
///    `b` is small, e.g. filtered by a constant).
/// 3. **reverse-then-push (left)** — `a ∘ LL(S,L)  →  RL(a, L) ∘ S`.
pub fn compose_alternatives(
    a: &Term,
    b: &Term,
    src: Sym,
    dst: Sym,
    env: &mut TypeEnv,
    dict: &mut Dictionary,
) -> Vec<Term> {
    let mut out = Vec::new();
    let fa = recognize(a, src, dst, env);
    let fb = recognize(b, src, dst, env);
    let plain = |t: &Term| ClosureForm { seed: t.clone(), left: None, right: None, src, dst };
    let ca = fa.clone().unwrap_or_else(|| plain(a));
    let cb = fb.clone().unwrap_or_else(|| plain(b));
    // 1. merge / push-join: combine an LL-able left with an RL-able right.
    // A non-convertible closure operand can still participate *as a plain
    // term* (its emitted fixpoint becomes part of the seed) — this is how
    // chains like (a1+∘a2+)∘a3+ keep merging.
    let left_options: Vec<ClosureForm> = {
        let mut v = Vec::new();
        if let Some(la) = ca.to_left_linear() {
            v.push(la);
        } else {
            v.push(plain(a));
        }
        v
    };
    let right_options: Vec<ClosureForm> = {
        let mut v = Vec::new();
        if let Some(rb) = cb.to_right_linear() {
            v.push(rb);
        } else {
            v.push(plain(b));
        }
        v
    };
    for la in &left_options {
        for rb in &right_options {
            if la.left.is_none() && rb.right.is_none() {
                continue; // no recursion to merge — plain composition
            }
            let seed = compose(la.seed.clone(), rb.seed.clone(), src, dst, dict);
            let merged =
                ClosureForm { seed, left: la.left.clone(), right: rb.right.clone(), src, dst };
            out.push(merged.emit(dict));
        }
    }
    // 2. RL(S,R) ∘ b → S ∘ LL(b, R).
    if let Some(f) = &fa {
        if let (None, Some(r)) = (&f.left, &f.right) {
            if !f.is_pure() {
                let ll = ClosureForm::left_linear(b.clone(), r.clone(), src, dst);
                out.push(compose(f.seed.clone(), ll.emit(dict), src, dst, dict));
            }
        }
    }
    // 3. a ∘ LL(S,L) → RL(a, L) ∘ S.
    if let Some(f) = &fb {
        if let (Some(l), None) = (&f.left, &f.right) {
            if !f.is_pure() {
                let rl = ClosureForm::right_linear(a.clone(), l.clone(), src, dst);
                out.push(compose(rl.emit(dict), f.seed.clone(), src, dst, dict));
            }
        }
    }
    out
}

/// Reversal alternatives for `σ_preds(closure)` when the predicates sit on
/// the closure's non-stable end (the paper's *reversing a fixpoint*,
/// needed by classes C2/C4):
///
/// * pure `RL(r,r)` with a `dst` filter → `LL(σ(r), r)` (and the symmetric
///   case);
/// * impure `RL(S,R)` with a `dst` filter → `σ(S) ∪ S ∘ LL(σ(R), R)`
///   (the filter reaches the seed of the reversed tail closure).
pub fn reversal_alternatives(
    preds: &[Pred],
    form: &ClosureForm,
    dict: &mut Dictionary,
) -> Vec<Term> {
    let mut out = Vec::new();
    let on = |col: Sym| preds.iter().all(|p| p.columns().iter().all(|c| *c == col));
    match (&form.left, &form.right) {
        // Right-linear, filter on dst.
        (None, Some(r)) if on(form.dst) => {
            let filtered_r = Term::Filter(preds.to_vec(), Box::new(r.clone()));
            if form.is_pure() {
                out.push(
                    ClosureForm::left_linear(filtered_r, r.clone(), form.src, form.dst).emit(dict),
                );
            } else {
                let tail =
                    ClosureForm::left_linear(filtered_r, r.clone(), form.src, form.dst).emit(dict);
                let seed_filtered = Term::Filter(preds.to_vec(), Box::new(form.seed.clone()));
                let extended = compose(form.seed.clone(), tail, form.src, form.dst, dict);
                out.push(seed_filtered.union(extended));
            }
        }
        // Left-linear, filter on src.
        (Some(l), None) if on(form.src) => {
            let filtered_l = Term::Filter(preds.to_vec(), Box::new(l.clone()));
            if form.is_pure() {
                out.push(
                    ClosureForm::right_linear(filtered_l, l.clone(), form.src, form.dst).emit(dict),
                );
            } else {
                let head =
                    ClosureForm::right_linear(filtered_l, l.clone(), form.src, form.dst).emit(dict);
                let seed_filtered = Term::Filter(preds.to_vec(), Box::new(form.seed.clone()));
                let extended = compose(head, form.seed.clone(), form.src, form.dst, dict);
                out.push(seed_filtered.union(extended));
            }
        }
        _ => {}
    }
    out
}

/// True when `t` mentions no variable of `bound`.
pub(crate) fn closed(t: &Term, bound: &[Sym]) -> bool {
    !bound.iter().any(|v| t.has_free_var(*v))
}

/// Where a closure decision is taken, with its operands.
#[derive(Debug, Clone, Copy)]
enum Point<'t> {
    /// A composition `a ∘ b`: merge the operands' fixpoints, push one
    /// into the other's seed, or reverse one and push
    /// ([`compose_alternatives`]).
    Compose(&'t Term, &'t Term),
    /// A filter over a fixpoint, `σ_preds(μ…)`: reverse the closure so the
    /// filter reaches a seed ([`reversal_alternatives`]).
    Reverse(&'t [Pred], &'t Term),
    /// A join `a ⋈ b`: push one operand into the other's fixpoint through
    /// its rename chain ([`join_into_fix_through_renames`], both ways).
    /// Cost decides — carrying extra columns through the iteration is not
    /// always a win.
    Join(&'t Term, &'t Term),
}

/// A closure decision: a point of a term at which equivalent plans
/// genuinely diverge, said once. The greedy pass optimizes the operands and
/// picks the cheapest of the rebuilt original and the alternatives; the
/// enumerator rebuilds over the operands' surviving members and admits
/// everything, and later expands members by the families their
/// [`RuleMask`] lacks. All three walk this definition.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decision<'t> {
    point: Point<'t>,
    src: Sym,
    dst: Sym,
}

impl<'t> Decision<'t> {
    /// The decision taken at the root of `t`, if its shape is one of the
    /// three. Shape only: whether the operands are closed, and what to do
    /// when they are not, is the walker's business.
    pub(crate) fn at(t: &'t Term, src: Sym, dst: Sym) -> Option<Decision<'t>> {
        let point = match t {
            Term::AntiProject(..) => {
                recognize_compose(t, src, dst).map(|(a, b)| Point::Compose(a, b))
            }
            Term::Filter(preds, inner) if matches!(**inner, Term::Fix(..)) => {
                Some(Point::Reverse(preds, inner))
            }
            Term::Join(a, b) => Some(Point::Join(a, b)),
            _ => None,
        };
        point.map(|point| Decision { point, src, dst })
    }

    /// The subterms planned on their own before the decision is taken.
    pub(crate) fn operands(&self) -> impl Iterator<Item = &'t Term> {
        let (first, second) = match self.point {
            Point::Compose(a, b) | Point::Join(a, b) => (a, Some(b)),
            Point::Reverse(_, inner) => (inner, None),
        };
        std::iter::once(first).chain(second)
    }

    /// True for a composition, the one point whose operands are not the
    /// term's children (they sit under renames to a minted column).
    pub(crate) fn is_composition(&self) -> bool {
        matches!(self.point, Point::Compose(..))
    }

    /// The rule family [`Decision::alternatives`] applies.
    pub(crate) fn rule(&self) -> RuleMask {
        match self.point {
            Point::Compose(..) => RULE_COMPOSE,
            Point::Reverse(..) => RULE_REVERSE,
            Point::Join(..) => RULE_JOIN_PUSH,
        }
    }

    /// True when no operand mentions a variable of `bound` (the enclosing
    /// fixpoints' binders): only then can alternatives be costed on their
    /// own.
    pub(crate) fn closed(&self, bound: &[Sym]) -> bool {
        self.operands().all(|o| closed(o, bound))
    }

    /// The term at the point, rebuilt over one plan per operand.
    pub(crate) fn rebuild<P: Borrow<Term>>(&self, plans: &[P], dict: &mut Dictionary) -> Term {
        let plan = |i: usize| plans[i].borrow().clone();
        match (self.point, plans.len()) {
            (Point::Compose(..), 2) => compose(plan(0), plan(1), self.src, self.dst, dict),
            (Point::Reverse(preds, _), 1) => Term::Filter(preds.to_vec(), Box::new(plan(0))),
            (Point::Join(..), 2) => plan(0).join(plan(1)),
            _ => unreachable!("one plan per operand"),
        }
    }

    /// Every replacement for [`Decision::rebuild`] over the same plans, in
    /// the order the rules produce them.
    pub(crate) fn alternatives<P: Borrow<Term>>(
        &self,
        plans: &[P],
        env: &mut TypeEnv,
        dict: &mut Dictionary,
    ) -> Vec<Term> {
        let plan = |i: usize| plans[i].borrow();
        match (self.point, plans.len()) {
            (Point::Compose(..), 2) => {
                compose_alternatives(plan(0), plan(1), self.src, self.dst, env, dict)
            }
            (Point::Reverse(preds, _), 1) => recognize(plan(0), self.src, self.dst, env)
                .map_or_else(Vec::new, |form| reversal_alternatives(preds, &form, dict)),
            (Point::Join(..), 2) => {
                let (a, b) = (plan(0), plan(1));
                let pushes = [
                    join_into_fix_through_renames(a, b, env),
                    join_into_fix_through_renames(b, a, env),
                ];
                pushes.into_iter().flatten().collect()
            }
            _ => unreachable!("one plan per operand"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::{eval, Database, Relation, Schema};

    struct Fx {
        db: Database,
        src: Sym,
        dst: Sym,
        a: Sym,
        b: Sym,
    }

    fn fixture() -> Fx {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        // a: chain 0→1→2; b: chain 2→3→4.
        let a = db.insert_relation("a", Relation::from_pairs(src, dst, [(0, 1), (1, 2)]));
        let b = db.insert_relation("b", Relation::from_pairs(src, dst, [(2, 3), (3, 4)]));
        Fx { db, src, dst, a, b }
    }

    fn env(f: &Fx) -> TypeEnv {
        TypeEnv::from_db(&f.db)
    }

    #[test]
    fn emit_then_recognize_round_trips() {
        let mut f = fixture();
        for form in [
            ClosureForm::right_linear(Term::var(f.a), Term::var(f.a), f.src, f.dst),
            ClosureForm::left_linear(Term::var(f.a), Term::var(f.a), f.src, f.dst),
            ClosureForm {
                seed: Term::var(f.a),
                left: Some(Term::var(f.a)),
                right: Some(Term::var(f.b)),
                src: f.src,
                dst: f.dst,
            },
        ] {
            let term = form.emit(f.db.dict_mut());
            let mut e = env(&f);
            let back = recognize(&term, f.src, f.dst, &mut e).expect("recognize");
            assert_eq!(back.seed, form.seed);
            assert_eq!(back.left, form.left);
            assert_eq!(back.right, form.right);
        }
    }

    #[test]
    fn rl_and_ll_compute_same_pure_closure() {
        let mut f = fixture();
        let rl = ClosureForm::right_linear(Term::var(f.a), Term::var(f.a), f.src, f.dst)
            .emit(f.db.dict_mut());
        let ll = ClosureForm::left_linear(Term::var(f.a), Term::var(f.a), f.src, f.dst)
            .emit(f.db.dict_mut());
        let ra = eval(&rl, &f.db).unwrap();
        let rb = eval(&ll, &f.db).unwrap();
        assert_eq!(ra.sorted_rows(), rb.sorted_rows());
        assert_eq!(ra.len(), 3); // (0,1) (1,2) (0,2)
    }

    #[test]
    fn pure_conversion() {
        let f = fixture();
        let rl = ClosureForm::right_linear(Term::var(f.a), Term::var(f.a), f.src, f.dst);
        assert!(rl.is_pure());
        let ll = rl.to_left_linear().unwrap();
        assert_eq!(ll.left, Some(Term::var(f.a)));
        assert_eq!(ll.right, None);
        // Non-pure RL cannot convert.
        let rl2 = ClosureForm::right_linear(Term::var(f.b), Term::var(f.a), f.src, f.dst);
        assert!(rl2.to_left_linear().is_none());
    }

    #[test]
    fn merged_closure_equals_composed_closures() {
        // a+ ∘ b+ (composed) vs merged BL(a∘b, a, b).
        let mut f = fixture();
        let a_plus = ClosureForm::right_linear(Term::var(f.a), Term::var(f.a), f.src, f.dst)
            .emit(f.db.dict_mut());
        let b_plus = ClosureForm::right_linear(Term::var(f.b), Term::var(f.b), f.src, f.dst)
            .emit(f.db.dict_mut());
        let composed = compose(a_plus.clone(), b_plus.clone(), f.src, f.dst, f.db.dict_mut());
        let mut e = env(&f);
        let alts = compose_alternatives(&a_plus, &b_plus, f.src, f.dst, &mut e, f.db.dict_mut());
        assert!(!alts.is_empty(), "merge alternative must be generated");
        let expected = eval(&composed, &f.db).unwrap();
        for alt in &alts {
            let got = eval(alt, &f.db).unwrap();
            assert_eq!(got.sorted_rows(), expected.sorted_rows());
        }
        // The merged fixpoint has both a left and a right branch.
        let merged = &alts[0];
        let mut e2 = env(&f);
        let form = recognize(merged, f.src, f.dst, &mut e2).unwrap();
        assert!(form.left.is_some() && form.right.is_some());
    }

    #[test]
    fn push_join_into_rl() {
        // b ∘ a+ → RL(b∘a, a): same result, seed is the composition.
        let mut f = fixture();
        let a_plus = ClosureForm::right_linear(Term::var(f.a), Term::var(f.a), f.src, f.dst)
            .emit(f.db.dict_mut());
        let composed = compose(Term::var(f.b), a_plus.clone(), f.src, f.dst, f.db.dict_mut());
        let mut e = env(&f);
        let alts =
            compose_alternatives(&Term::var(f.b), &a_plus, f.src, f.dst, &mut e, f.db.dict_mut());
        assert!(!alts.is_empty());
        let expected = eval(&composed, &f.db).unwrap();
        for alt in &alts {
            assert_eq!(eval(alt, &f.db).unwrap().sorted_rows(), expected.sorted_rows());
        }
    }

    #[test]
    fn reverse_push_on_impure_rl() {
        // RL(b, a) ∘ b  →  b ∘ LL(b, a): alternative 2 fires.
        let mut f = fixture();
        let rl = ClosureForm::right_linear(Term::var(f.b), Term::var(f.a), f.src, f.dst)
            .emit(f.db.dict_mut());
        let composed = compose(rl.clone(), Term::var(f.b), f.src, f.dst, f.db.dict_mut());
        let mut e = env(&f);
        let alts =
            compose_alternatives(&rl, &Term::var(f.b), f.src, f.dst, &mut e, f.db.dict_mut());
        assert!(!alts.is_empty());
        let expected = eval(&composed, &f.db).unwrap();
        for alt in &alts {
            assert_eq!(eval(alt, &f.db).unwrap().sorted_rows(), expected.sorted_rows());
        }
    }

    #[test]
    fn recognize_rejects_non_binary_schema() {
        let mut f = fixture();
        let c = f.db.intern("c");
        // Ternary relation fixpoint is not a closure.
        let schema = Schema::new(vec![f.src, f.dst, c]);
        let tern = Relation::new(schema);
        f.db.insert_relation("T", tern);
        let t = f.db.dict().lookup("T").unwrap();
        let x = f.db.dict_mut().fresh("X");
        let term = Term::var(t).union(Term::var(x)).fix(x);
        let mut e = env(&f);
        assert!(recognize(&term, f.src, f.dst, &mut e).is_none());
    }

    #[test]
    fn recognize_rejects_same_generation_shape() {
        // Same-generation's step is not a simple append/prepend.
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation("R", Relation::from_pairs(src, dst, [(0, 1), (0, 2)]));
        let t = mura_ucrpq::suites::same_generation_term(&mut db, "R").unwrap();
        let mut e = TypeEnv::from_db(&db);
        assert!(recognize(&t, src, dst, &mut e).is_none());
    }
}
