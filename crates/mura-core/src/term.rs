//! The μ-RA term language.
//!
//! Terms follow the paper's grammar (Fig. 1). Variables are a single
//! constructor: a variable is *recursive* when bound by an enclosing
//! [`Term::Fix`], otherwise it denotes a database relation. Constant
//! relations embed a materialized [`Relation`] behind an `Arc` so that plan
//! rewriting can clone terms cheaply.

use crate::relation::Relation;
use crate::value::{Sym, Value};
use std::sync::Arc;

/// A filter predicate (conjunctions are a `Vec<Pred>` on [`Term::Filter`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pred {
    /// Column equals a constant.
    Eq(Sym, Value),
    /// Column differs from a constant.
    Neq(Sym, Value),
    /// Two columns are equal.
    EqCol(Sym, Sym),
}

impl Pred {
    /// Columns referenced by the predicate.
    pub fn columns(&self) -> Vec<Sym> {
        match self {
            Pred::Eq(c, _) | Pred::Neq(c, _) => vec![*c],
            Pred::EqCol(a, b) => vec![*a, *b],
        }
    }
}

/// A μ-RA term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// Relation variable: a database relation if free, or the recursion
    /// variable of an enclosing fixpoint.
    Var(Sym),
    /// Constant relation.
    Cst(Arc<Relation>),
    /// σ_preds(t): keep rows satisfying every predicate.
    Filter(Vec<Pred>, Box<Term>),
    /// ρ_from^to(t): rename column `from` to `to`.
    Rename(Sym, Sym, Box<Term>),
    /// π̃_cols(t): drop the listed columns.
    AntiProject(Vec<Sym>, Box<Term>),
    /// Natural join.
    Join(Box<Term>, Box<Term>),
    /// Antijoin (left rows without a match in right on common columns).
    Antijoin(Box<Term>, Box<Term>),
    /// Set union.
    Union(Box<Term>, Box<Term>),
    /// μ(X = body): least fixpoint.
    Fix(Sym, Box<Term>),
}

impl Term {
    /// Database/recursion variable reference.
    pub fn var(v: Sym) -> Term {
        Term::Var(v)
    }

    /// Constant relation.
    pub fn cst(r: Relation) -> Term {
        Term::Cst(Arc::new(r))
    }

    /// σ with a single predicate. Merges into an existing filter.
    pub fn filter(self, p: Pred) -> Term {
        match self {
            Term::Filter(mut ps, t) => {
                ps.push(p);
                Term::Filter(ps, t)
            }
            t => Term::Filter(vec![p], Box::new(t)),
        }
    }

    /// σ_{col = v}.
    pub fn filter_eq(self, col: Sym, v: impl Into<Value>) -> Term {
        self.filter(Pred::Eq(col, v.into()))
    }

    /// ρ_from^to.
    pub fn rename(self, from: Sym, to: Sym) -> Term {
        Term::Rename(from, to, Box::new(self))
    }

    /// π̃ of one column.
    pub fn antiproject(self, col: Sym) -> Term {
        Term::AntiProject(vec![col], Box::new(self))
    }

    /// π̃ of several columns.
    pub fn antiproject_all(self, cols: Vec<Sym>) -> Term {
        Term::AntiProject(cols, Box::new(self))
    }

    /// Natural join.
    pub fn join(self, other: Term) -> Term {
        Term::Join(Box::new(self), Box::new(other))
    }

    /// Antijoin.
    pub fn antijoin(self, other: Term) -> Term {
        Term::Antijoin(Box::new(self), Box::new(other))
    }

    /// Union.
    pub fn union(self, other: Term) -> Term {
        Term::Union(Box::new(self), Box::new(other))
    }

    /// μ(X = self).
    pub fn fix(self, var: Sym) -> Term {
        Term::Fix(var, Box::new(self))
    }

    /// Union of a non-empty list of terms (right-leaning).
    ///
    /// # Panics
    /// Panics on an empty list.
    pub fn union_all(mut terms: Vec<Term>) -> Term {
        assert!(!terms.is_empty(), "union of zero terms");
        let mut acc = terms.pop().unwrap();
        while let Some(t) = terms.pop() {
            acc = t.union(acc);
        }
        acc
    }

    /// Immediate children of the term.
    pub fn children(&self) -> Vec<&Term> {
        match self {
            Term::Var(_) | Term::Cst(_) => vec![],
            Term::Filter(_, t)
            | Term::Rename(_, _, t)
            | Term::AntiProject(_, t)
            | Term::Fix(_, t) => {
                vec![t]
            }
            Term::Join(a, b) | Term::Antijoin(a, b) | Term::Union(a, b) => vec![a, b],
        }
    }

    /// Number of AST nodes; used as a rewrite budget metric.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
    }

    /// Number of fixpoint operators in the term.
    pub fn fixpoint_count(&self) -> usize {
        let me = matches!(self, Term::Fix(_, _)) as usize;
        me + self.children().iter().map(|c| c.fixpoint_count()).sum::<usize>()
    }

    /// True if variable `v` occurs free in the term.
    pub fn has_free_var(&self, v: Sym) -> bool {
        match self {
            Term::Var(x) => *x == v,
            Term::Cst(_) => false,
            Term::Fix(x, body) => *x != v && body.has_free_var(v),
            Term::Filter(_, t) | Term::Rename(_, _, t) | Term::AntiProject(_, t) => {
                t.has_free_var(v)
            }
            Term::Join(a, b) | Term::Antijoin(a, b) | Term::Union(a, b) => {
                a.has_free_var(v) || b.has_free_var(v)
            }
        }
    }

    /// All free variables of the term (sorted, deduplicated).
    pub fn free_vars(&self) -> Vec<Sym> {
        fn go(t: &Term, bound: &mut Vec<Sym>, out: &mut Vec<Sym>) {
            match t {
                Term::Var(x) => {
                    if !bound.contains(x) && !out.contains(x) {
                        out.push(*x);
                    }
                }
                Term::Cst(_) => {}
                Term::Fix(x, body) => {
                    bound.push(*x);
                    go(body, bound, out);
                    bound.pop();
                }
                _ => {
                    for c in t.children() {
                        go(c, bound, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut Vec::new(), &mut out);
        out.sort_unstable();
        out
    }

    /// This node rebuilt over `f` of each child, left to right; a leaf is
    /// cloned. The one structural rebuild every term-to-term walk shares.
    pub fn map_children(&self, mut f: impl FnMut(&Term) -> Term) -> Term {
        let mapped = self.try_map_children(|c| Ok::<_, std::convert::Infallible>(f(c)));
        mapped.unwrap_or_else(|never| match never {})
    }

    /// [`Term::map_children`] for a fallible `f`: the first error stops the
    /// rebuild.
    pub fn try_map_children<E>(
        &self,
        mut f: impl FnMut(&Term) -> Result<Term, E>,
    ) -> Result<Term, E> {
        let mut boxed = |t: &Term| f(t).map(Box::new);
        Ok(match self {
            Term::Var(_) | Term::Cst(_) => self.clone(),
            Term::Filter(ps, t) => Term::Filter(ps.clone(), boxed(t)?),
            Term::Rename(a, b, t) => Term::Rename(*a, *b, boxed(t)?),
            Term::AntiProject(cs, t) => Term::AntiProject(cs.clone(), boxed(t)?),
            Term::Join(a, b) => Term::Join(boxed(a)?, boxed(b)?),
            Term::Antijoin(a, b) => Term::Antijoin(boxed(a)?, boxed(b)?),
            Term::Union(a, b) => Term::Union(boxed(a)?, boxed(b)?),
            Term::Fix(x, body) => Term::Fix(*x, boxed(body)?),
        })
    }

    /// Capture-avoiding substitution of variable `v` by term `by`.
    ///
    /// `by` must not contain free occurrences of any fixpoint variable bound
    /// along the path (we assert this instead of alpha-renaming: all our
    /// frontends generate globally fresh fixpoint variables).
    pub fn substitute(&self, v: Sym, by: &Term) -> Term {
        match self {
            Term::Var(x) if *x == v => by.clone(),
            // v is shadowed: no free occurrences below.
            Term::Fix(x, _) if *x == v => self.clone(),
            _ => {
                if let Term::Fix(x, _) = self {
                    assert!(!by.has_free_var(*x), "substitution would capture fixpoint variable");
                }
                self.map_children(|c| c.substitute(v, by))
            }
        }
    }

    /// Renders the term with resolved names via the dictionary.
    pub fn display<'a>(&'a self, dict: &'a crate::catalog::Dictionary) -> TermDisplay<'a> {
        TermDisplay { term: self, dict }
    }
}

/// Canonical 64-bit structural key of a term.
///
/// `Term` deliberately does not implement `Hash` (constant relations embed
/// `Arc<Relation>`), so the key is computed by a structural walk that hashes
/// constant relations through their schema and sorted rows —
/// order-insensitive, like relation equality. Two structurally equal terms
/// (including equal constant contents) get the same key. The serving layer
/// keys its result cache and circuit breakers on this, and the incremental
/// view maintenance layer uses it to match captured fixpoint totals to the
/// `Fix` subterms of a cached plan.
pub fn term_key(t: &Term) -> u64 {
    use std::hash::{Hash, Hasher};
    fn go(t: &Term, h: &mut crate::fxhash::FxHasher) {
        match t {
            Term::Var(v) => {
                0u8.hash(h);
                v.hash(h);
            }
            Term::Cst(r) => {
                1u8.hash(h);
                r.schema().columns().hash(h);
                for row in r.iter_sorted() {
                    row.hash(h);
                }
            }
            Term::Filter(ps, inner) => {
                2u8.hash(h);
                ps.hash(h);
                go(inner, h);
            }
            Term::Rename(a, b, inner) => {
                3u8.hash(h);
                a.hash(h);
                b.hash(h);
                go(inner, h);
            }
            Term::AntiProject(cs, inner) => {
                4u8.hash(h);
                cs.hash(h);
                go(inner, h);
            }
            Term::Join(a, b) => {
                5u8.hash(h);
                go(a, h);
                go(b, h);
            }
            Term::Antijoin(a, b) => {
                6u8.hash(h);
                go(a, h);
                go(b, h);
            }
            Term::Union(a, b) => {
                7u8.hash(h);
                go(a, h);
                go(b, h);
            }
            Term::Fix(x, body) => {
                8u8.hash(h);
                x.hash(h);
                go(body, h);
            }
        }
    }
    let mut h = crate::fxhash::FxHasher::default();
    go(t, &mut h);
    h.finish()
}

/// Pretty printer for terms (see [`Term::display`]).
pub struct TermDisplay<'a> {
    term: &'a Term,
    dict: &'a crate::catalog::Dictionary,
}

impl std::fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn val(dict: &crate::catalog::Dictionary, v: &Value) -> String {
            match v {
                Value::Int(i) => i.to_string(),
                Value::Str(s) => dict.resolve(*s).to_string(),
            }
        }
        fn go(
            t: &Term,
            dict: &crate::catalog::Dictionary,
            f: &mut std::fmt::Formatter<'_>,
        ) -> std::fmt::Result {
            match t {
                Term::Var(v) => write!(f, "{}", dict.resolve(*v)),
                Term::Cst(r) => write!(f, "<const:{} rows>", r.len()),
                Term::Filter(ps, t) => {
                    write!(f, "σ[")?;
                    for (i, p) in ps.iter().enumerate() {
                        if i > 0 {
                            write!(f, " ∧ ")?;
                        }
                        match p {
                            Pred::Eq(c, v) => write!(f, "{}={}", dict.resolve(*c), val(dict, v))?,
                            Pred::Neq(c, v) => write!(f, "{}≠{}", dict.resolve(*c), val(dict, v))?,
                            Pred::EqCol(a, b) => {
                                write!(f, "{}={}", dict.resolve(*a), dict.resolve(*b))?
                            }
                        }
                    }
                    write!(f, "](")?;
                    go(t, dict, f)?;
                    write!(f, ")")
                }
                Term::Rename(a, b, t) => {
                    write!(f, "ρ[{}→{}](", dict.resolve(*a), dict.resolve(*b))?;
                    go(t, dict, f)?;
                    write!(f, ")")
                }
                Term::AntiProject(cs, t) => {
                    write!(f, "π̃[")?;
                    for (i, c) in cs.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{}", dict.resolve(*c))?;
                    }
                    write!(f, "](")?;
                    go(t, dict, f)?;
                    write!(f, ")")
                }
                Term::Join(a, b) => {
                    write!(f, "(")?;
                    go(a, dict, f)?;
                    write!(f, " ⋈ ")?;
                    go(b, dict, f)?;
                    write!(f, ")")
                }
                Term::Antijoin(a, b) => {
                    write!(f, "(")?;
                    go(a, dict, f)?;
                    write!(f, " ▷ ")?;
                    go(b, dict, f)?;
                    write!(f, ")")
                }
                Term::Union(a, b) => {
                    write!(f, "(")?;
                    go(a, dict, f)?;
                    write!(f, " ∪ ")?;
                    go(b, dict, f)?;
                    write!(f, ")")
                }
                Term::Fix(x, body) => {
                    write!(f, "μ({} = ", dict.resolve(*x))?;
                    go(body, dict, f)?;
                    write!(f, ")")
                }
            }
        }
        go(self.term, self.dict, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Dictionary;

    fn s(i: u32) -> Sym {
        Sym(i)
    }

    #[test]
    fn free_vars_respect_binders() {
        // μ(X = E ∪ (X ⋈ E)) has free var E only.
        let x = s(0);
        let e = s(1);
        let t = Term::var(e).union(Term::var(x).join(Term::var(e))).fix(x);
        assert_eq!(t.free_vars(), vec![e]);
        assert!(!t.has_free_var(x));
        assert!(t.has_free_var(e));
    }

    #[test]
    fn substitute_avoids_bound() {
        let x = s(0);
        let e = s(1);
        let r = s(2);
        let t = Term::var(e).union(Term::var(x)).fix(x);
        // Substituting x outside the binder does nothing inside.
        let t2 = t.substitute(x, &Term::var(r));
        assert_eq!(t, t2);
        // Substituting e does rewrite inside.
        let t3 = t.substitute(e, &Term::var(r));
        assert_eq!(t3.free_vars(), vec![r]);
    }

    #[test]
    fn size_and_counts() {
        let x = s(0);
        let e = s(1);
        let t = Term::var(e).union(Term::var(x).join(Term::var(e))).fix(x);
        assert_eq!(t.size(), 6);
        assert_eq!(t.fixpoint_count(), 1);
    }

    #[test]
    fn filter_builder_merges() {
        let e = s(1);
        let t = Term::var(e).filter_eq(s(2), 5i64).filter(Pred::Neq(s(3), Value::Int(1)));
        match t {
            Term::Filter(ps, _) => assert_eq!(ps.len(), 2),
            _ => panic!("expected merged filter"),
        }
    }

    #[test]
    fn display_smoke() {
        let mut d = Dictionary::new();
        let x = d.intern("X");
        let e = d.intern("E");
        let src = d.intern("src");
        let t = Term::var(e).filter_eq(src, 3i64).union(Term::var(x)).fix(x);
        let out = format!("{}", t.display(&d));
        assert!(out.contains("μ(X ="), "{out}");
        assert!(out.contains("σ[src=3](E)"), "{out}");
    }
}
