//! Greedy normalization rules.
//!
//! These rules are always beneficial (or neutral) and are applied to a
//! fixpoint: classical filter/antiprojection pushdown, plus the μ-RA rules
//! that push operations *into* fixpoints when the stabilizer allows it.
//! Cost-based decisions (orientation, merging) live in
//! [`crate::closure`]/[`crate::rewriter`].

use mura_core::analysis::{decompose_fixpoint, infer_schema, stable_columns, TypeEnv};
use mura_core::{Pred, Sym, Term};

/// Which rule families may fire. Used to model baseline systems: per the
/// paper (§VI), Magic Sets / Demand Transformation — the core of Datalog
/// optimizers like BigDatalog — are equivalent to pushing *selections and
/// projections* into fixpoints, but cannot push joins (and the
/// merge/reverse rules of the cost-based pass are beyond any of them).
#[derive(Debug, Clone, Copy)]
pub struct NormalizeOpts {
    /// Allow σ to move into fixpoint constant parts (stabilizer rule).
    pub push_filters_into_fix: bool,
    /// Allow π̃ to move into fixpoint constant parts.
    pub push_antiprojections_into_fix: bool,
    /// Allow ρ to move into fixpoint constant parts.
    pub push_renames_into_fix: bool,
    /// Allow ⋈ to move into fixpoint constant parts.
    pub push_joins_into_fix: bool,
}

impl Default for NormalizeOpts {
    fn default() -> Self {
        NormalizeOpts {
            push_filters_into_fix: true,
            push_antiprojections_into_fix: true,
            push_renames_into_fix: true,
            push_joins_into_fix: true,
        }
    }
}

impl NormalizeOpts {
    /// BigDatalog's envelope: selections and projections only.
    pub fn magic_sets() -> Self {
        NormalizeOpts {
            push_filters_into_fix: true,
            push_antiprojections_into_fix: true,
            push_renames_into_fix: true,
            push_joins_into_fix: false,
        }
    }

    /// No recursion-aware rewriting at all (the paper's description of
    /// Myria: incremental evaluation but no logical optimization of the
    /// recursive operator).
    pub fn none_into_fix() -> Self {
        NormalizeOpts {
            push_filters_into_fix: false,
            push_antiprojections_into_fix: false,
            push_renames_into_fix: false,
            push_joins_into_fix: false,
        }
    }
}

/// Applies one normalization step anywhere in the term (top-down, first
/// match). Returns `None` when no rule fires.
pub fn step(term: &Term, env: &mut TypeEnv) -> Option<Term> {
    step_with(term, env, &NormalizeOpts::default())
}

/// [`step`] with an explicit rule-family selection.
pub fn step_with(term: &Term, env: &mut TypeEnv, opts: &NormalizeOpts) -> Option<Term> {
    if let Some(t) = step_here(term, env, opts) {
        return Some(t);
    }
    // Recurse into children, rebuilding on the first change.
    match term {
        Term::Var(_) | Term::Cst(_) => None,
        Term::Filter(ps, t) => {
            step_with(t, env, opts).map(|t2| Term::Filter(ps.clone(), Box::new(t2)))
        }
        Term::Rename(a, b, t) => {
            step_with(t, env, opts).map(|t2| Term::Rename(*a, *b, Box::new(t2)))
        }
        Term::AntiProject(cs, t) => {
            step_with(t, env, opts).map(|t2| Term::AntiProject(cs.clone(), Box::new(t2)))
        }
        Term::Join(a, b) => {
            step2(a, b, env, opts).map(|(a2, b2)| Term::Join(Box::new(a2), Box::new(b2)))
        }
        Term::Antijoin(a, b) => {
            step2(a, b, env, opts).map(|(a2, b2)| Term::Antijoin(Box::new(a2), Box::new(b2)))
        }
        Term::Union(a, b) => {
            step2(a, b, env, opts).map(|(a2, b2)| Term::Union(Box::new(a2), Box::new(b2)))
        }
        Term::Fix(x, body) => step_with(body, env, opts).map(|b2| Term::Fix(*x, Box::new(b2))),
    }
}

fn step2(a: &Term, b: &Term, env: &mut TypeEnv, opts: &NormalizeOpts) -> Option<(Term, Term)> {
    if let Some(a2) = step_with(a, env, opts) {
        return Some((a2, b.clone()));
    }
    step_with(b, env, opts).map(|b2| (a.clone(), b2))
}

/// Applies `step` until no rule fires (bounded).
pub fn normalize(term: &Term, env: &mut TypeEnv) -> Term {
    normalize_with(term, env, &NormalizeOpts::default())
}

/// [`normalize`] with an explicit rule-family selection.
pub fn normalize_with(term: &Term, env: &mut TypeEnv, opts: &NormalizeOpts) -> Term {
    let mut t = term.clone();
    for _ in 0..10_000 {
        match step_with(&t, env, opts) {
            Some(t2) => t = t2,
            None => break,
        }
    }
    t
}

fn step_here(term: &Term, env: &mut TypeEnv, opts: &NormalizeOpts) -> Option<Term> {
    match term {
        Term::Filter(preds, inner) => filter_rules(preds, inner, env, opts),
        Term::AntiProject(cols, inner) => antiproject_rules(cols, inner, env, opts),
        Term::Rename(from, to, inner) => {
            if opts.push_renames_into_fix {
                rename_rules(*from, *to, inner, env)
            } else {
                None
            }
        }
        Term::Join(a, b) => {
            if opts.push_joins_into_fix {
                join_rules(a, b, env)
            } else {
                None
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------- filters

fn filter_rules(
    preds: &[Pred],
    inner: &Term,
    env: &mut TypeEnv,
    opts: &NormalizeOpts,
) -> Option<Term> {
    match inner {
        // σ_p(σ_q(t)) → σ_{p∧q}(t)
        Term::Filter(qs, t) => {
            let mut all = preds.to_vec();
            all.extend(qs.iter().cloned());
            Some(Term::Filter(all, t.clone()))
        }
        // σ_p(a ∪ b) → σ_p(a) ∪ σ_p(b)
        Term::Union(a, b) => Some(
            Term::Filter(preds.to_vec(), a.clone()).union(Term::Filter(preds.to_vec(), b.clone())),
        ),
        // σ_p(ρ_a→b(t)) → ρ_a→b(σ_p'(t)) with b renamed back to a in p.
        Term::Rename(from, to, t) => {
            let renamed: Vec<Pred> =
                preds.iter().map(|p| rename_pred(p, *to, *from)).collect::<Option<_>>()?;
            Some(Term::Rename(*from, *to, Box::new(Term::Filter(renamed, t.clone()))))
        }
        // σ_p(π̃_c(t)) → π̃_c(σ_p(t)) (p cannot mention dropped columns).
        Term::AntiProject(cols, t) => {
            Some(Term::AntiProject(cols.clone(), Box::new(Term::Filter(preds.to_vec(), t.clone()))))
        }
        // σ_p(a ⋈ b): push each predicate into the side(s) whose schema
        // covers its columns; keep the rest on top.
        Term::Join(a, b) => {
            let sa = infer_schema(a, env).ok()?;
            let sb = infer_schema(b, env).ok()?;
            let mut pa = Vec::new();
            let mut pb = Vec::new();
            let mut rest = Vec::new();
            for p in preds {
                let cols = p.columns();
                let in_a = cols.iter().all(|c| sa.contains(*c));
                let in_b = cols.iter().all(|c| sb.contains(*c));
                match (in_a, in_b) {
                    (true, true) => {
                        pa.push(p.clone());
                        pb.push(p.clone());
                    }
                    (true, false) => pa.push(p.clone()),
                    (false, true) => pb.push(p.clone()),
                    (false, false) => rest.push(p.clone()),
                }
            }
            if pa.is_empty() && pb.is_empty() {
                return None;
            }
            let mut ja = (**a).clone();
            if !pa.is_empty() {
                ja = Term::Filter(pa, Box::new(ja));
            }
            let mut jb = (**b).clone();
            if !pb.is_empty() {
                jb = Term::Filter(pb, Box::new(jb));
            }
            let j = ja.join(jb);
            Some(if rest.is_empty() { j } else { Term::Filter(rest, Box::new(j)) })
        }
        // σ_p(a ▷ b) → σ_p(a) ▷ b.
        Term::Antijoin(a, b) => {
            Some(Term::Filter(preds.to_vec(), a.clone()).antijoin((**b).clone()))
        }
        // σ_p(μ(X = R ∪ φ)) → μ(X = σ_p(R) ∪ φ) when p's columns are stable.
        Term::Fix(x, body) => {
            if !opts.push_filters_into_fix {
                return None;
            }
            let stable = stable_columns(*x, body, env).ok()?;
            let pushable = preds.iter().all(|p| p.columns().iter().all(|c| stable.contains(c)));
            if !pushable {
                return None;
            }
            let (consts, recs) = decompose_fixpoint(*x, body).ok()?;
            let mut branches: Vec<Term> = consts
                .into_iter()
                .map(|c| Term::Filter(preds.to_vec(), Box::new(c.clone())))
                .collect();
            branches.extend(recs.into_iter().cloned());
            Some(Term::union_all(branches).fix(*x))
        }
        _ => None,
    }
}

fn rename_pred(p: &Pred, from: Sym, to: Sym) -> Option<Pred> {
    let map = |c: Sym| if c == from { to } else { c };
    Some(match p {
        Pred::Eq(c, v) => Pred::Eq(map(*c), *v),
        Pred::Neq(c, v) => Pred::Neq(map(*c), *v),
        Pred::EqCol(a, b) => Pred::EqCol(map(*a), map(*b)),
    })
}

// ---------------------------------------------------------- antiprojection

fn antiproject_rules(
    cols: &[Sym],
    inner: &Term,
    env: &mut TypeEnv,
    opts: &NormalizeOpts,
) -> Option<Term> {
    if cols.is_empty() {
        return Some(inner.clone());
    }
    match inner {
        // π̃_c(π̃_d(t)) → π̃_{c∪d}(t)
        Term::AntiProject(ds, t) => {
            let mut all = cols.to_vec();
            all.extend(ds.iter().copied());
            Some(Term::AntiProject(all, t.clone()))
        }
        // π̃_c(a ∪ b) → π̃_c(a) ∪ π̃_c(b)
        Term::Union(a, b) => Some(
            Term::AntiProject(cols.to_vec(), a.clone())
                .union(Term::AntiProject(cols.to_vec(), b.clone())),
        ),
        // π̃_c(μ(…)) → μ(π̃_c(R) ∪ φ) when each c is stable and untouched by
        // the recursive branches.
        Term::Fix(x, body) => {
            if !opts.push_antiprojections_into_fix {
                return None;
            }
            let stable = stable_columns(*x, body, env).ok()?;
            if !cols.iter().all(|c| stable.contains(c)) {
                return None;
            }
            let (consts, recs) = decompose_fixpoint(*x, body).ok()?;
            let fix_schema = infer_schema(&Term::Fix(*x, body.clone()), env).ok()?;
            for r in &recs {
                for &c in cols {
                    if column_used_in_branch(r, c, *x, &fix_schema, env)? {
                        return None;
                    }
                }
            }
            let mut branches: Vec<Term> = consts
                .into_iter()
                .map(|c| Term::AntiProject(cols.to_vec(), Box::new(c.clone())))
                .collect();
            branches.extend(recs.into_iter().cloned());
            Some(Term::union_all(branches).fix(*x))
        }
        _ => None,
    }
}

// ------------------------------------------------------------------ rename

fn rename_rules(from: Sym, to: Sym, inner: &Term, env: &mut TypeEnv) -> Option<Term> {
    match inner {
        // ρ(μ(…)) → μ(ρ(R) ∪ φ) when the renamed column is stable and
        // untouched by the recursion, and the new name cannot be captured.
        Term::Fix(x, body) => {
            let stable = stable_columns(*x, body, env).ok()?;
            if !stable.contains(&from) {
                return None;
            }
            let (consts, recs) = decompose_fixpoint(*x, body).ok()?;
            let fix_schema = infer_schema(&Term::Fix(*x, body.clone()), env).ok()?;
            for r in &recs {
                if column_used_in_branch(r, from, *x, &fix_schema, env)? {
                    return None;
                }
                // `to` must not collide with anything inside the branch.
                if column_mentioned(r, to) {
                    return None;
                }
            }
            let mut branches: Vec<Term> =
                consts.into_iter().map(|c| c.clone().rename(from, to)).collect();
            branches.extend(recs.into_iter().cloned());
            Some(Term::union_all(branches).fix(*x))
        }
        _ => None,
    }
}

// -------------------------------------------------------------------- join

fn join_rules(a: &Term, b: &Term, env: &mut TypeEnv) -> Option<Term> {
    // T ⋈ μ(X = R ∪ φ) → μ(X = (T ⋈ R) ∪ φ) when the join columns are all
    // stable and T's extra columns cannot be captured inside φ.
    // Only the *bare* fixpoint case is greedy; pushing through rename
    // chains is a cost-based decision taken by the rewriter
    // ([`join_into_fix_through_renames`]), since carrying extra columns
    // through the iteration is not always a win.
    if let Some(t) = join_into_fix(a, b, env) {
        return Some(t);
    }
    join_into_fix(b, a, env)
}

/// `T ⋈ ρ…ρ(μ(…))`: commutes the join under the rename chain —
/// `T ⋈ ρ_f→t(W) = ρ_f→t(T' ⋈ W)` with `T' = ρ_t→f(T)` — then applies the
/// ordinary join push. Bails whenever a rename's source column exists in
/// `T` (the commuted join would suddenly match on it). Used by the
/// cost-based rewriter pass.
pub fn join_into_fix_through_renames(
    t_other: &Term,
    wrapped: &Term,
    env: &mut TypeEnv,
) -> Option<Term> {
    // Unwrap the rename chain (outermost first).
    let mut chain: Vec<(Sym, Sym)> = Vec::new();
    let mut cur = wrapped;
    while let Term::Rename(f, t, inner) = cur {
        chain.push((*f, *t));
        cur = inner;
    }
    if chain.is_empty() || !matches!(cur, Term::Fix(_, _)) {
        return None;
    }
    // Map T's columns back through the chain.
    let mut other = t_other.clone();
    let mut other_schema = infer_schema(&other, env).ok()?;
    for &(f, t) in &chain {
        if other_schema.contains(t) {
            if other_schema.contains(f) {
                return None; // both names present: commuting is ambiguous
            }
            other = other.rename(t, f);
            other_schema = other_schema.rename(t, f)?;
        } else if other_schema.contains(f) {
            // The original join did not match on f (the fixpoint side had
            // renamed it away); commuting would create a spurious join key.
            return None;
        }
    }
    let pushed = join_into_fix(&other, cur, env)?;
    // Reapply the chain, innermost first.
    let mut result = pushed;
    for &(f, t) in chain.iter().rev() {
        result = result.rename(f, t);
    }
    Some(result)
}

fn join_into_fix(t: &Term, fix: &Term, env: &mut TypeEnv) -> Option<Term> {
    let Term::Fix(x, body) = fix else { return None };
    if t.has_free_var(*x) {
        return None;
    }
    let st = infer_schema(t, env).ok()?;
    let sfix = infer_schema(fix, env).ok()?;
    let common: Vec<Sym> = st.intersection(&sfix);
    if common.is_empty() {
        // Cartesian products are not worth pushing.
        return None;
    }
    let stable = stable_columns(*x, body, env).ok()?;
    if !common.iter().all(|c| stable.contains(c)) {
        return None;
    }
    let extra: Vec<Sym> = st.columns().iter().copied().filter(|c| !sfix.contains(*c)).collect();
    let (consts, recs) = decompose_fixpoint(*x, body).ok()?;
    for r in &recs {
        // Join columns must be untouched (they are pass-through baggage of
        // the recursion), and extra columns must not be captured.
        for &c in &common {
            if column_used_in_branch(r, c, *x, &sfix, env)? {
                return None;
            }
        }
        for &c in &extra {
            if column_mentioned(r, c) || branch_has_schema_col(r, c, *x, &sfix, env) {
                return None;
            }
        }
    }
    let mut branches: Vec<Term> = consts.into_iter().map(|c| t.clone().join(c.clone())).collect();
    branches.extend(recs.into_iter().cloned());
    Some(Term::union_all(branches).fix(*x))
}

// ------------------------------------------------------------- conditions

/// True if column `c` of the recursive variable `x` is *used* by the
/// branch: mentioned by a filter/rename/antiprojection on the `x`-derived
/// dataflow path, or acting as a (anti)join key. Usage of the same column
/// name inside `x`-free subterms is irrelevant — those subterms never see
/// `X`'s tuples (e.g. `ρ_src→m(E)` does not block dropping `src` from `X`).
fn column_used_in_branch(
    branch: &Term,
    c: Sym,
    x: Sym,
    x_schema: &mura_core::Schema,
    env: &mut TypeEnv,
) -> Option<bool> {
    let prev = env.bind(x, x_schema.clone());
    let result = used_rec(branch, c, x, env);
    env.unbind(x, prev);
    result
}

fn used_rec(t: &Term, c: Sym, x: Sym, env: &mut TypeEnv) -> Option<bool> {
    if !t.has_free_var(x) {
        return Some(false);
    }
    match t {
        Term::Var(_) | Term::Cst(_) => Some(false),
        Term::Filter(ps, inner) => {
            if ps.iter().any(|p| p.columns().contains(&c)) {
                return Some(true);
            }
            used_rec(inner, c, x, env)
        }
        Term::Rename(a, b, inner) => {
            if *a == c || *b == c {
                return Some(true);
            }
            used_rec(inner, c, x, env)
        }
        Term::AntiProject(cols, inner) => {
            if cols.contains(&c) {
                return Some(true);
            }
            used_rec(inner, c, x, env)
        }
        Term::Join(a, b) | Term::Antijoin(a, b) => {
            let sa = infer_schema(a, env).ok()?;
            let sb = infer_schema(b, env).ok()?;
            if sa.contains(c) && sb.contains(c) {
                return Some(true);
            }
            Some(used_rec(a, c, x, env)? || used_rec(b, c, x, env)?)
        }
        Term::Union(a, b) => Some(used_rec(a, c, x, env)? || used_rec(b, c, x, env)?),
        Term::Fix(_, body) => used_rec(body, c, x, env),
    }
}

/// True if column `c` appears syntactically anywhere in the term (renames,
/// filters, antiprojections). Leaf schemas are not inspected.
fn column_mentioned(t: &Term, c: Sym) -> bool {
    match t {
        Term::Var(_) | Term::Cst(_) => false,
        Term::Filter(ps, inner) => {
            ps.iter().any(|p| p.columns().contains(&c)) || column_mentioned(inner, c)
        }
        Term::Rename(a, b, inner) => *a == c || *b == c || column_mentioned(inner, c),
        Term::AntiProject(cols, inner) => cols.contains(&c) || column_mentioned(inner, c),
        Term::Join(a, b) | Term::Antijoin(a, b) | Term::Union(a, b) => {
            column_mentioned(a, c) || column_mentioned(b, c)
        }
        Term::Fix(_, body) => column_mentioned(body, c),
    }
}

/// True if any `x`-free subterm of the branch has `c` in its schema
/// (capture hazard for pushed-join extra columns).
fn branch_has_schema_col(
    t: &Term,
    c: Sym,
    x: Sym,
    x_schema: &mura_core::Schema,
    env: &mut TypeEnv,
) -> bool {
    let prev = env.bind(x, x_schema.clone());
    fn go(t: &Term, c: Sym, x: Sym, env: &mut TypeEnv) -> bool {
        if !t.has_free_var(x) {
            return infer_schema(t, env).map(|s| s.contains(c)).unwrap_or(true);
        }
        t.children().iter().any(|child| go(child, c, x, env))
    }
    let r = go(t, c, x, env);
    env.unbind(x, prev);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::{eval, Database, Relation};

    struct Fx {
        db: Database,
        src: Sym,
        dst: Sym,
        e: Sym,
        x: Sym,
        m: Sym,
    }

    fn fixture() -> Fx {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let e = db
            .insert_relation("E", Relation::from_pairs(src, dst, [(0, 1), (1, 2), (2, 3), (5, 6)]));
        let x = db.intern("X");
        let m = db.intern("m");
        Fx { db, src, dst, e, x, m }
    }

    /// Right-linear closure of E.
    fn e_plus(f: &Fx) -> Term {
        let step = Term::var(f.x)
            .rename(f.dst, f.m)
            .join(Term::var(f.e).rename(f.src, f.m))
            .antiproject(f.m);
        Term::var(f.e).union(step).fix(f.x)
    }

    fn check_equiv(before: &Term, after: &Term, db: &Database) {
        let a = eval(before, db).unwrap();
        let b = eval(after, db).unwrap();
        assert_eq!(a.sorted_rows(), b.sorted_rows(), "rewrite changed semantics");
    }

    #[test]
    fn filter_merges_and_pushes_through_union() {
        let f = fixture();
        let t = Term::var(f.e).union(Term::var(f.e)).filter_eq(f.src, 0i64).filter_eq(f.dst, 1i64);
        let mut env = TypeEnv::from_db(&f.db);
        let n = normalize(&t, &mut env);
        check_equiv(&t, &n, &f.db);
        // After normalization no filter sits above a union.
        fn no_filter_over_union(t: &Term) -> bool {
            match t {
                Term::Filter(_, inner) => !matches!(**inner, Term::Union(_, _)),
                _ => t.children().iter().all(|c| no_filter_over_union(c)),
            }
        }
        assert!(no_filter_over_union(&n), "{n:?}");
    }

    #[test]
    fn filter_pushes_into_fixpoint_on_stable_column() {
        let f = fixture();
        let t = e_plus(&f).filter_eq(f.src, 0i64);
        let mut env = TypeEnv::from_db(&f.db);
        let n = normalize(&t, &mut env);
        check_equiv(&t, &n, &f.db);
        // The fixpoint must now be the outermost operator (filter consumed
        // by the seed).
        assert!(matches!(n, Term::Fix(_, _)), "{n:?}");
    }

    #[test]
    fn filter_on_unstable_column_stays() {
        let f = fixture();
        let t = e_plus(&f).filter_eq(f.dst, 3i64);
        let mut env = TypeEnv::from_db(&f.db);
        let n = normalize(&t, &mut env);
        check_equiv(&t, &n, &f.db);
        assert!(matches!(n, Term::Filter(_, _)), "dst filter must not push into RL: {n:?}");
    }

    #[test]
    fn antiprojection_pushes_into_fixpoint() {
        // π̃_src(E+) → closure over {dst} only (the paper's C-example for
        // pushing antiprojections).
        let f = fixture();
        let t = e_plus(&f).antiproject(f.src);
        let mut env = TypeEnv::from_db(&f.db);
        let n = normalize(&t, &mut env);
        check_equiv(&t, &n, &f.db);
        assert!(matches!(n, Term::Fix(_, _)), "{n:?}");
    }

    #[test]
    fn antiprojection_of_dst_does_not_push() {
        let f = fixture();
        let t = e_plus(&f).antiproject(f.dst);
        let mut env = TypeEnv::from_db(&f.db);
        let n = normalize(&t, &mut env);
        check_equiv(&t, &n, &f.db);
        assert!(matches!(n, Term::AntiProject(_, _)), "{n:?}");
    }

    #[test]
    fn rename_pushes_into_fixpoint_on_stable_column() {
        let mut f = fixture();
        let a = f.db.dict_mut().fresh("t");
        let t = e_plus(&f).rename(f.src, a);
        let mut env = TypeEnv::from_db(&f.db);
        let n = normalize(&t, &mut env);
        check_equiv(&t, &n, &f.db);
        assert!(matches!(n, Term::Fix(_, _)), "{n:?}");
    }

    #[test]
    fn join_pushes_into_fixpoint_on_stable_column() {
        // T(src) ⋈ E+ : join on stable src → seed becomes T ⋈ E.
        let f = fixture();
        let schema_src = mura_core::Schema::new(vec![f.src]);
        let t_rel =
            Relation::from_rows(schema_src, [vec![mura_core::Value::node(0)].into_boxed_slice()]);
        let t = Term::cst(t_rel).join(e_plus(&f));
        let mut env = TypeEnv::from_db(&f.db);
        let n = normalize(&t, &mut env);
        check_equiv(&t, &n, &f.db);
        assert!(matches!(n, Term::Fix(_, _)), "{n:?}");
    }

    #[test]
    fn join_on_unstable_column_not_pushed() {
        let f = fixture();
        let schema_dst = mura_core::Schema::new(vec![f.dst]);
        let t_rel =
            Relation::from_rows(schema_dst, [vec![mura_core::Value::node(3)].into_boxed_slice()]);
        let t = Term::cst(t_rel).join(e_plus(&f));
        let mut env = TypeEnv::from_db(&f.db);
        let n = normalize(&t, &mut env);
        check_equiv(&t, &n, &f.db);
        assert!(matches!(n, Term::Join(_, _)), "{n:?}");
    }

    #[test]
    fn filter_splits_across_join() {
        let mut f = fixture();
        let other = f.db.dict_mut().fresh("t");
        let right = Term::var(f.e).rename(f.src, other);
        let t = Term::var(f.e).join(right).filter_eq(f.src, 0i64).filter_eq(other, 1i64);
        let mut env = TypeEnv::from_db(&f.db);
        let n = normalize(&t, &mut env);
        check_equiv(&t, &n, &f.db);
        assert!(!matches!(n, Term::Filter(_, _)), "filters should be inside the join: {n:?}");
    }

    #[test]
    fn normalization_is_idempotent() {
        let f = fixture();
        let t = e_plus(&f).filter_eq(f.src, 0i64).antiproject(f.src);
        let mut env = TypeEnv::from_db(&f.db);
        let n1 = normalize(&t, &mut env);
        let n2 = normalize(&n1, &mut env);
        assert_eq!(n1, n2);
    }
}
