//! `Query2Mu`: translation of UCRPQs into μ-RA terms.
//!
//! Following the μ-RA paper's scheme:
//!
//! * a regular path denotes a binary relation over canonical columns
//!   `src`/`dst`;
//! * `a` is the database relation `a`; `-a` swaps its columns;
//! * `p/q` is `π̃_m(ρ_dst→m(P) ⋈ ρ_src→m(Q))` with a fresh middle column;
//! * `p|q` is a union;
//! * `p+` is the right-linear fixpoint
//!   `μ(X = P ∪ π̃_m(ρ_dst→m(X) ⋈ ρ_src→m(P)))`;
//! * `p*` is desugared during normalization (`ε | p+`; a path that can match
//!   the empty word at the top level of an atom is rejected — it would need
//!   a node-domain relation);
//! * an atom `?x p ?y` renames `src/dst` to columns named after the
//!   variables; a constant endpoint becomes a filter plus antiprojection;
//! * a conjunction is a natural join of its atoms (shared variables join);
//! * the head antiprojects all non-head variables; unions of branches map
//!   to μ-RA unions.
//!
//! The produced terms are *unoptimized* — `mura-rewrite` is responsible for
//! pushing filters/joins into fixpoints, merging and reversing them.

use crate::ast::{Atom, Crpq, Endpoint, Path, Ucrpq};
use mura_core::{Database, MuraError, Pred, Result, Sym, Term, Value};

/// Normalizes a path: inverses pushed down to labels, `*` desugared.
/// Returns the ε-free core (`None` if the path matches only ε) and whether
/// the path can match the empty word.
pub fn normalize(path: &Path) -> (Option<Path>, bool) {
    fn push_inv(p: &Path, inv: bool) -> Path {
        match p {
            Path::Label(_) => {
                if inv {
                    Path::Inverse(Box::new(p.clone()))
                } else {
                    p.clone()
                }
            }
            Path::Inverse(q) => push_inv(q, !inv),
            Path::Concat(a, b) => {
                if inv {
                    Path::Concat(Box::new(push_inv(b, true)), Box::new(push_inv(a, true)))
                } else {
                    Path::Concat(Box::new(push_inv(a, false)), Box::new(push_inv(b, false)))
                }
            }
            Path::Alt(a, b) => Path::Alt(Box::new(push_inv(a, inv)), Box::new(push_inv(b, inv))),
            Path::Plus(q) => Path::Plus(Box::new(push_inv(q, inv))),
            Path::Star(q) => Path::Star(Box::new(push_inv(q, inv))),
            Path::Optional(q) => Path::Optional(Box::new(push_inv(q, inv))),
        }
    }
    fn elim_star(p: &Path) -> (Option<Path>, bool) {
        match p {
            Path::Label(_) | Path::Inverse(_) => (Some(p.clone()), false),
            Path::Concat(a, b) => {
                let (ca, ea) = elim_star(a);
                let (cb, eb) = elim_star(b);
                let mut alts: Vec<Path> = Vec::new();
                if let (Some(x), Some(y)) = (&ca, &cb) {
                    alts.push(x.clone().then(y.clone()));
                }
                if eb {
                    if let Some(x) = &ca {
                        alts.push(x.clone());
                    }
                }
                if ea {
                    if let Some(y) = &cb {
                        alts.push(y.clone());
                    }
                }
                (alts_to_path(alts), ea && eb)
            }
            Path::Alt(a, b) => {
                let (ca, ea) = elim_star(a);
                let (cb, eb) = elim_star(b);
                let alts = ca.into_iter().chain(cb).collect();
                (alts_to_path(alts), ea || eb)
            }
            Path::Plus(q) => {
                let (cq, eq) = elim_star(q);
                (cq.map(|c| c.plus()), eq)
            }
            Path::Star(q) => {
                let (cq, _) = elim_star(q);
                (cq.map(|c| c.plus()), true)
            }
            Path::Optional(q) => {
                let (cq, _) = elim_star(q);
                (cq, true)
            }
        }
    }
    elim_star(&push_inv(path, false))
}

fn alts_to_path(mut alts: Vec<Path>) -> Option<Path> {
    let first = alts.pop()?;
    Some(alts.into_iter().fold(first, |acc, p| acc.or(p)))
}

/// Flattens a top-level alternation into its branches.
pub fn alt_list(p: &Path) -> Vec<&Path> {
    match p {
        Path::Alt(a, b) => {
            let mut v = alt_list(a);
            v.extend(alt_list(b));
            v
        }
        _ => vec![p],
    }
}

/// Flattens a top-level concatenation into its elements.
pub fn concat_list(p: &Path) -> Vec<&Path> {
    match p {
        Path::Concat(a, b) => {
            let mut v = concat_list(a);
            v.extend(concat_list(b));
            v
        }
        _ => vec![p],
    }
}

fn label_term(l: &str, db: &mut Database) -> Result<Term> {
    if db.relation_by_name(l).is_none() {
        return Err(MuraError::Frontend(format!("unknown edge label '{l}'")));
    }
    Ok(Term::var(db.intern(l)))
}

/// Translates a normalized path into a μ-RA term over the columns `src`/`dst`.
fn path_term(p: &Path, db: &mut Database, src: Sym, dst: Sym) -> Result<Term> {
    match p {
        Path::Label(l) => label_term(l, db),
        Path::Inverse(q) => {
            let Path::Label(l) = &**q else {
                unreachable!("normalize() pushes inverses to labels")
            };
            let t = label_term(l, db)?;
            let tmp = db.dict_mut().fresh("swap");
            Ok(t.rename(src, tmp).rename(dst, src).rename(tmp, dst))
        }
        Path::Concat(a, b) => {
            let ta = path_term(a, db, src, dst)?;
            let tb = path_term(b, db, src, dst)?;
            let m = db.dict_mut().fresh("m");
            Ok(ta.rename(dst, m).join(tb.rename(src, m)).antiproject(m))
        }
        Path::Alt(a, b) => {
            let ta = path_term(a, db, src, dst)?;
            let tb = path_term(b, db, src, dst)?;
            Ok(ta.union(tb))
        }
        Path::Plus(q) => {
            let inner = path_term(q, db, src, dst)?;
            let x = db.dict_mut().fresh("X");
            let m = db.dict_mut().fresh("m");
            let step =
                Term::var(x).rename(dst, m).join(inner.clone().rename(src, m)).antiproject(m);
            Ok(inner.union(step).fix(x))
        }
        Path::Star(_) | Path::Optional(_) => Err(MuraError::Frontend(
            "internal: '*'/'?' must be desugared before translation".into(),
        )),
    }
}

/// Resolves a constant endpoint to a value: named constant from the
/// database registry, else an integer literal. The protocol's
/// `.insert`/`.delete` read their values through here too, so a row can
/// be deleted in the spelling it was inserted in.
pub fn resolve_const(name: &str, db: &Database) -> Result<Value> {
    if let Some(v) = db.constant(name) {
        return Ok(v);
    }
    let i = name
        .parse::<i64>()
        .map_err(|_| MuraError::Frontend(format!("unknown constant '{name}'")))?;
    Value::try_int(i)
        .ok_or_else(|| MuraError::Frontend(format!("integer {i} is outside the value domain")))
}

/// Column symbol for a query variable (`?x` → column `?x`, which cannot
/// collide with `src`/`dst` or edge labels).
pub fn var_column(v: &str, db: &mut Database) -> Sym {
    db.intern(&format!("?{v}"))
}

fn atom_term(atom: &Atom, db: &mut Database) -> Result<Term> {
    let (core, eps) = normalize(&atom.path);
    if eps {
        return Err(MuraError::Frontend(format!(
            "path '{}' can match the empty word; bind it through a node relation instead",
            atom.path
        )));
    }
    let core = core.ok_or_else(|| {
        MuraError::Frontend(format!("path '{}' denotes only the empty word", atom.path))
    })?;
    let src = db.intern("src");
    let dst = db.intern("dst");
    let mut t = path_term(&core, db, src, dst)?;
    // Endpoints. Handle the ?x p ?x self-join with an explicit equality.
    match (&atom.left, &atom.right) {
        (Endpoint::Var(l), Endpoint::Var(r)) if l == r => {
            let col = var_column(l, db);
            let aux = db.dict_mut().fresh("self");
            t = t.rename(src, col).rename(dst, aux).filter(Pred::EqCol(col, aux)).antiproject(aux);
        }
        _ => {
            t = match &atom.left {
                Endpoint::Var(l) => t.rename(src, var_column(l, db)),
                Endpoint::Const(c) => {
                    let v = resolve_const(c, db)?;
                    t.filter(Pred::Eq(src, v)).antiproject(src)
                }
            };
            t = match &atom.right {
                Endpoint::Var(r) => t.rename(dst, var_column(r, db)),
                Endpoint::Const(c) => {
                    let v = resolve_const(c, db)?;
                    t.filter(Pred::Eq(dst, v)).antiproject(dst)
                }
            };
        }
    }
    Ok(t)
}

fn crpq_term(crpq: &Crpq, db: &mut Database) -> Result<Term> {
    if crpq.atoms.is_empty() {
        return Err(MuraError::Frontend("empty query body".into()));
    }
    // Join all atoms.
    let mut atoms = crpq.atoms.iter();
    let mut t = atom_term(atoms.next().expect("nonempty"), db)?;
    for a in atoms {
        t = t.join(atom_term(a, db)?);
    }
    // Collect body variables; project the head.
    let mut body_vars: Vec<&str> = Vec::new();
    for a in &crpq.atoms {
        for e in [&a.left, &a.right] {
            if let Endpoint::Var(v) = e {
                if !body_vars.contains(&v.as_str()) {
                    body_vars.push(v);
                }
            }
        }
    }
    for h in &crpq.head {
        if !body_vars.contains(&h.as_str()) {
            return Err(MuraError::Frontend(format!("head variable ?{h} not in body")));
        }
    }
    let drop: Vec<Sym> = body_vars
        .iter()
        .filter(|v| !crpq.head.iter().any(|h| h == *v))
        .map(|v| var_column(v, db))
        .collect();
    if !drop.is_empty() {
        t = t.antiproject_all(drop);
    }
    Ok(t)
}

/// Translates a UCRPQ into a μ-RA term. The output schema has one column
/// per head variable, named `?v`.
pub fn to_mura(q: &Ucrpq, db: &mut Database) -> Result<Term> {
    let mut terms = Vec::with_capacity(q.branches.len());
    for b in &q.branches {
        terms.push(crpq_term(b, db)?);
    }
    Ok(Term::union_all(terms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_ucrpq;
    use mura_core::{eval, Relation, Schema};

    /// 0 -a-> 1 -a-> 2 -b-> 3; constant "C" = node 3.
    fn db() -> Database {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation("a", Relation::from_pairs(src, dst, [(0, 1), (1, 2)]));
        db.insert_relation("b", Relation::from_pairs(src, dst, [(2, 3)]));
        db.bind_constant("C", Value::node(3));
        db
    }

    fn run(query: &str, db: &mut Database) -> Relation {
        let q = parse_ucrpq(query).unwrap();
        let t = to_mura(&q, db).unwrap();
        eval(&t, db).unwrap()
    }

    #[test]
    fn single_label() {
        let mut d = db();
        let r = run("?x, ?y <- ?x a ?y", &mut d);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn plus_closure() {
        let mut d = db();
        let r = run("?x, ?y <- ?x a+ ?y", &mut d);
        assert_eq!(r.len(), 3); // (0,1) (1,2) (0,2)
    }

    #[test]
    fn concat_and_constant_right() {
        let mut d = db();
        // a+/b reaching C=3: sources 0 and 1.
        let r = run("?x <- ?x a+/b C", &mut d);
        assert_eq!(r.len(), 2);
        let schema = r.schema().clone();
        assert_eq!(schema.arity(), 1);
    }

    #[test]
    fn constant_left() {
        let mut d = db();
        let r = run("?y <- 0 a+ ?y", &mut d);
        assert_eq!(r.len(), 2); // 1 and 2
    }

    #[test]
    fn inverse_edges() {
        let mut d = db();
        let r = run("?x, ?y <- ?x -a ?y", &mut d);
        // reversed a: (1,0) (2,1)
        assert_eq!(r.len(), 2);
        let q = parse_ucrpq("?x, ?y <- ?x -a ?y").unwrap();
        let t = to_mura(&q, &mut d).unwrap();
        let rel = eval(&t, &d).unwrap();
        let x = d.dict().lookup("?x").unwrap();
        let y = d.dict().lookup("?y").unwrap();
        assert_eq!(rel.schema(), &Schema::new(vec![x, y]));
    }

    #[test]
    fn alternation_union() {
        let mut d = db();
        let r = run("?x, ?y <- ?x (a|b) ?y", &mut d);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn conjunction_joins_on_shared_var() {
        let mut d = db();
        let r = run("?x, ?z <- ?x a ?y, ?y a ?z", &mut d);
        assert_eq!(r.len(), 1); // 0->1->2
    }

    #[test]
    fn union_branches() {
        let mut d = db();
        let r = run("?x, ?y <- ?x a ?y ; ?x, ?y <- ?x b ?y", &mut d);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn star_desugars_in_concat() {
        let mut d = db();
        // a/b* = a | a/b+ : pairs (0,1),(1,2),(2,3 via b? no a first): a/b+ = (1,3). So 3 rows.
        let r = run("?x, ?y <- ?x a/b* ?y", &mut d);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn top_level_epsilon_rejected() {
        let mut d = db();
        let q = parse_ucrpq("?x, ?y <- ?x a* ?y").unwrap();
        assert!(to_mura(&q, &mut d).is_err());
    }

    #[test]
    fn self_join_variable() {
        let mut d = db();
        // add a cycle edge 2 -c-> 2
        let src = d.dict().lookup("src").unwrap();
        let dst = d.dict().lookup("dst").unwrap();
        d.insert_relation("c", Relation::from_pairs(src, dst, [(2, 2), (0, 1)]));
        let r = run("?x <- ?x c ?x", &mut d);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn unknown_label_and_constant_errors() {
        let mut d = db();
        let q = parse_ucrpq("?x, ?y <- ?x nope ?y").unwrap();
        assert!(to_mura(&q, &mut d).is_err());
        let q = parse_ucrpq("?x <- ?x a Nowhere").unwrap();
        assert!(to_mura(&q, &mut d).is_err());
        // An integer that symbols' words take is no constant either.
        let q = parse_ucrpq("?x <- ?x a 9223372036854775807").unwrap();
        assert!(matches!(to_mura(&q, &mut d), Err(MuraError::Frontend(_))));
    }

    #[test]
    fn head_var_must_occur() {
        let mut d = db();
        let q = parse_ucrpq("?z <- ?x a ?y").and_then(|q| to_mura(&q, &mut d));
        assert!(q.is_err());
    }

    #[test]
    fn numeric_constants_work() {
        let mut d = db();
        let r = run("?y <- 1 a ?y", &mut d);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn inverse_of_group_normalizes() {
        let (core, eps) = normalize(&Path::label("a").then(Path::label("b")).inverse());
        assert!(!eps);
        assert_eq!(core.unwrap().to_string(), "-b/-a");
    }

    #[test]
    fn inverse_of_plus_normalizes() {
        let (core, _) = normalize(&Path::label("a").plus().inverse());
        assert_eq!(core.unwrap().to_string(), "-a+");
    }

    #[test]
    fn optional_in_concat_evaluates() {
        let mut d = db();
        // a/b? = a ∪ a/b: (0,1),(1,2) plus a/b = (1,3): 3 rows.
        let r = run("?x, ?y <- ?x a/b? ?y", &mut d);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn bounded_repetition_evaluates() {
        let mut d = db();
        // a{1,2} on the chain 0→1→2: a = 2 rows, a/a = (0,2): 3 rows.
        let r = run("?x, ?y <- ?x a{1,2} ?y", &mut d);
        assert_eq!(r.len(), 3);
        // a{2,} = a/a+ : only (0,2).
        let r2 = run("?x, ?y <- ?x a{2,} ?y", &mut d);
        assert_eq!(r2.len(), 1);
    }

    #[test]
    fn top_level_optional_rejected() {
        let mut d = db();
        let q = parse_ucrpq("?x, ?y <- ?x a? ?y").unwrap();
        assert!(to_mura(&q, &mut d).is_err(), "ε-matching path must be rejected");
    }

    #[test]
    fn kevin_bacon_style_query() {
        // (a/-a)+ from a constant: co-source closure.
        let mut d = db();
        d.bind_constant("N0", Value::node(0));
        let r = run("?x <- ?x (a/-a)+ N0", &mut d);
        // a/-a pairs: {(0,0),(1,1)} from edges (0,1),(1,2) sharing targets…
        // (0,1),(1,2): a/-a = {(0,0),(1,1)}: only reflexive here, so ?x = 0.
        assert_eq!(r.len(), 1);
    }
}
