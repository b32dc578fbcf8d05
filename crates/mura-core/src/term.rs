//! The μ-RA term language.
//!
//! Terms follow the paper's grammar (Fig. 1). Variables are a single
//! constructor: a variable is *recursive* when bound by an enclosing
//! [`Term::Fix`], otherwise it denotes a database relation. Constant
//! relations embed a materialized [`Relation`] behind an `Arc` so that plan
//! rewriting can clone terms cheaply.

use crate::fxhash::{FxHashMap, FxHasher};
use crate::relation::Relation;
use crate::value::{Sym, Value, ValueKind};
use std::hash::{Hash, Hasher};
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

    /// Calls `f` on every name of the term, in the order the term renders:
    /// variables, binders, the columns operators and constant relations
    /// name. String *values* in predicates are data and are not visited.
    pub fn for_each_symbol(&self, f: &mut impl FnMut(Sym)) {
        match self {
            Term::Var(v) | Term::Fix(v, _) => f(*v),
            Term::Cst(r) => r.schema().columns().iter().for_each(|c| f(*c)),
            Term::Filter(ps, _) => ps.iter().flat_map(Pred::columns).for_each(&mut *f),
            Term::Rename(a, b, _) => [*a, *b].into_iter().for_each(&mut *f),
            Term::AntiProject(cs, _) => cs.iter().for_each(|c| f(*c)),
            Term::Join(..) | Term::Antijoin(..) | Term::Union(..) => {}
        }
        for child in self.children() {
            child.for_each_symbol(f);
        }
    }

    /// Replaces every name [`Term::for_each_symbol`] visits by `f` of it.
    ///
    /// # Panics
    /// Panics if `f` renames a column of a constant relation: no rule and
    /// no frontend builds one over names that are not the user's.
    pub fn rename_symbols(&mut self, f: &mut impl FnMut(Sym) -> Sym) {
        match self {
            Term::Var(v) => *v = f(*v),
            Term::Cst(r) => assert!(
                r.schema().columns().iter().all(|c| f(*c) == *c),
                "renaming a column of a constant relation"
            ),
            Term::Filter(ps, inner) => {
                for p in ps {
                    match p {
                        Pred::Eq(c, _) | Pred::Neq(c, _) => *c = f(*c),
                        Pred::EqCol(a, b) => (*a, *b) = (f(*a), f(*b)),
                    }
                }
                inner.rename_symbols(f);
            }
            Term::Rename(a, b, inner) => {
                (*a, *b) = (f(*a), f(*b));
                inner.rename_symbols(f);
            }
            Term::AntiProject(cs, inner) => {
                cs.iter_mut().for_each(|c| *c = f(*c));
                inner.rename_symbols(f);
            }
            Term::Fix(x, body) => {
                *x = f(*x);
                body.rename_symbols(f);
            }
            Term::Join(a, b) | Term::Antijoin(a, b) | Term::Union(a, b) => {
                a.rename_symbols(f);
                b.rename_symbols(f);
            }
        }
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

    /// The term with every predicate constant `from[i]` replaced by `to[i]`,
    /// all at once (`[a, b] → [b, a]` swaps). `from` and `to` are two
    /// bindings of one [`shape_key`]; a constant outside `from` stays.
    ///
    /// # Panics
    /// Panics if the bindings differ in length.
    pub fn rebind(mut self, from: &[Value], to: &[Value]) -> Term {
        fn go(t: &mut Term, from: &[Value], to: &[Value]) {
            match t {
                Term::Var(_) | Term::Cst(_) => {}
                Term::Filter(ps, inner) => {
                    for p in ps {
                        if let Pred::Eq(_, v) | Pred::Neq(_, v) = p {
                            if let Some(i) = from.iter().position(|f| f == v) {
                                *v = to[i];
                            }
                        }
                    }
                    go(inner, from, to);
                }
                Term::Rename(_, _, inner) | Term::AntiProject(_, inner) | Term::Fix(_, inner) => {
                    go(inner, from, to)
                }
                Term::Join(a, b) | Term::Antijoin(a, b) | Term::Union(a, b) => {
                    go(a, from, to);
                    go(b, from, to);
                }
            }
        }
        assert_eq!(from.len(), to.len(), "two bindings of one shape");
        if from != to {
            go(&mut self, from, to);
        }
        self
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
/// (including equal constant contents) get the same key. This is *the* key
/// of a plan: the serving layer files results and circuit breakers under
/// it, and the incremental view maintenance layer matches captured fixpoint
/// totals to the `Fix` subterms of a cached plan with it — which is why it
/// tells apart two sibling fixpoints that differ in their binders only.
pub fn term_key(t: &Term) -> u64 {
    let mut h = FxHasher::default();
    hash_term(t, &mut h, &mut |s, h| s.hash(h), &mut |v, h| v.hash(h));
    h.finish()
}

/// [`term_key`] modulo generated symbols: each generated symbol hashes as
/// the index of its first occurrence in the walk, so terms that differ only
/// in which fresh symbols a derivation minted get the same key, while
/// interned names keep their identity. Distinct symbols stay distinct (the
/// numbering is injective). The planner's memo and its observed
/// cardinalities are keyed by this; nothing that outlives a search is.
///
/// `pinned` symbols — recursion variables bound by an *enclosing* fixpoint
/// — hash by identity even when generated: a subterm mentioning an outer
/// `X` must not be conflated with an equal-shaped subterm mentioning a
/// different outer variable.
pub fn canon_key(t: &Term, pinned: &[Sym]) -> u64 {
    let mut h = FxHasher::default();
    hash_term(t, &mut h, &mut canon_symbols(pinned), &mut |v, h| v.hash(h));
    h.finish()
}

/// How [`canon_key`] hashes one symbol.
fn canon_symbols(pinned: &[Sym]) -> impl FnMut(Sym, &mut FxHasher) + '_ {
    let mut ids: FxHashMap<Sym, u64> = FxHashMap::default();
    move |s, h| {
        if s.is_generated() && !pinned.contains(&s) {
            let next = ids.len() as u64;
            0xF5u8.hash(h);
            ids.entry(s).or_insert(next).hash(h);
        } else {
            0x5Fu8.hash(h);
            s.hash(h);
        }
    }
}

/// The *shape* of a term and its *binding*: [`canon_key`] with every
/// constant a predicate compares a column with (`Pred::Eq` / `Pred::Neq`)
/// hashed as the ordinal of its first occurrence in the walk plus its kind
/// (integer or interned string), and those constants, distinct, in that
/// order. Two terms have one shape iff they differ in nothing but which
/// constants they name — `A p+ A` and `A p+ B` are two shapes, an integer
/// and a string in one position are two shapes — and then
/// [`Term::rebind`] over their bindings turns one into the other. The
/// serving tier searches a plan once per shape: the planner prices and
/// moves a constant filter without reading its value. Should a rewrite
/// rule ever read one, the property it reads belongs in this key.
pub fn shape_key(t: &Term) -> (u64, Vec<Value>) {
    let mut binding: Vec<Value> = Vec::new();
    let mut h = FxHasher::default();
    hash_term(t, &mut h, &mut canon_symbols(&[]), &mut |v, h| {
        let ordinal = binding.iter().position(|b| *b == v).unwrap_or_else(|| {
            binding.push(v);
            binding.len() - 1
        });
        ordinal.hash(h);
        std::mem::discriminant(&v.kind()).hash(h);
    });
    (h.finish(), binding)
}

/// The walk the keys share; `sym` hashes one symbol, `val` one predicate
/// constant.
fn hash_term(
    t: &Term,
    h: &mut FxHasher,
    sym: &mut impl FnMut(Sym, &mut FxHasher),
    val: &mut impl FnMut(Value, &mut FxHasher),
) {
    match t {
        Term::Var(v) => {
            0u8.hash(h);
            sym(*v, h);
        }
        Term::Cst(r) => {
            1u8.hash(h);
            r.schema().arity().hash(h);
            for c in r.schema().columns() {
                sym(*c, h);
            }
            for row in r.iter_sorted() {
                row.hash(h);
            }
        }
        Term::Filter(ps, inner) => {
            2u8.hash(h);
            // Length, then per predicate its discriminant as `isize`: what
            // the derived `Hash` of `Vec<Pred>` feeds the hasher, so
            // `term_key` is the value it was when it hashed `ps` whole.
            ps.len().hash(h);
            for p in ps {
                match p {
                    Pred::Eq(c, v) => {
                        0isize.hash(h);
                        sym(*c, h);
                        val(*v, h);
                    }
                    Pred::Neq(c, v) => {
                        1isize.hash(h);
                        sym(*c, h);
                        val(*v, h);
                    }
                    Pred::EqCol(a, b) => {
                        2isize.hash(h);
                        sym(*a, h);
                        sym(*b, h);
                    }
                }
            }
            hash_term(inner, h, sym, val);
        }
        Term::Rename(a, b, inner) => {
            3u8.hash(h);
            sym(*a, h);
            sym(*b, h);
            hash_term(inner, h, sym, val);
        }
        Term::AntiProject(cs, inner) => {
            4u8.hash(h);
            cs.len().hash(h);
            for c in cs {
                sym(*c, h);
            }
            hash_term(inner, h, sym, val);
        }
        Term::Join(a, b) | Term::Antijoin(a, b) | Term::Union(a, b) => {
            let tag: u8 = match t {
                Term::Join(..) => 5,
                Term::Antijoin(..) => 6,
                _ => 7,
            };
            tag.hash(h);
            hash_term(a, h, sym, val);
            hash_term(b, h, sym, val);
        }
        Term::Fix(x, body) => {
            8u8.hash(h);
            sym(*x, h);
            hash_term(body, h, sym, val);
        }
    }
}

/// Pretty printer for terms (see [`Term::display`]).
pub struct TermDisplay<'a> {
    term: &'a Term,
    dict: &'a crate::catalog::Dictionary,
}

impl std::fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn val(dict: &crate::catalog::Dictionary, v: &Value) -> String {
            match v.kind() {
                ValueKind::Int(i) => i.to_string(),
                ValueKind::Str(s) => dict.resolve(s).to_string(),
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
        let t = Term::var(e).filter_eq(s(2), 5i64).filter(Pred::Neq(s(3), Value::int(1)));
        match t {
            Term::Filter(ps, _) => assert_eq!(ps.len(), 2),
            _ => panic!("expected merged filter"),
        }
    }

    #[test]
    fn term_key_is_structural() {
        let e = Sym(1);
        let x = Sym(2);
        let t1 = Term::var(e).union(Term::var(x).join(Term::var(e))).fix(x);
        let t2 = Term::var(e).union(Term::var(x).join(Term::var(e))).fix(x);
        assert_eq!(term_key(&t1), term_key(&t2));
        let t3 = Term::var(e).union(Term::var(e).join(Term::var(x))).fix(x);
        assert_ne!(term_key(&t1), term_key(&t3), "join order must matter");
    }

    #[test]
    fn term_key_sees_constant_rows_order_insensitively() {
        let (a, b) = (Sym(3), Sym(4));
        let r1 = Relation::from_pairs(a, b, [(1, 2), (3, 4)]);
        let r2 = Relation::from_pairs(a, b, [(3, 4), (1, 2)]);
        let r3 = Relation::from_pairs(a, b, [(1, 2), (3, 5)]);
        assert_eq!(term_key(&Term::cst(r1)), term_key(&Term::cst(r2)));
        assert_ne!(
            term_key(&Term::cst(Relation::from_pairs(a, b, [(1, 2)]))),
            term_key(&Term::cst(r3))
        );
    }

    /// `σ[src=a ∧ dst≠b](E)`.
    fn filtered(a: Value, b: Value) -> Term {
        Term::var(Sym(1)).filter(Pred::Eq(Sym(2), a)).filter(Pred::Neq(Sym(3), b))
    }

    #[test]
    fn shape_keys_the_constants_out_and_rebind_puts_others_in() {
        let [a, b, c] = [7, 8, 9].map(Value::int);
        let (shape, binding) = shape_key(&filtered(a, b));
        assert_eq!(binding, [a, b], "distinct constants in walk order");
        assert_eq!(shape_key(&filtered(c, a)), (shape, vec![c, a]), "which constants: not shape");
        assert_eq!(shape_key(&filtered(a, a)).1, [a]);
        assert_ne!(shape_key(&filtered(a, a)).0, shape, "the equality pattern is shape");
        assert_ne!(shape_key(&filtered(a, Value::sym(Sym(8)))).0, shape, "the kind is shape");
        let swapped = Term::var(Sym(1)).filter(Pred::Neq(Sym(2), a)).filter(Pred::Eq(Sym(3), b));
        assert_ne!(shape_key(&swapped).0, shape, "the rest of the term is shape");
        // Generated symbols hash as in `canon_key`.
        let closure = |x: Sym| Term::var(Sym(1)).union(Term::var(x)).fix(x).filter(Pred::Eq(x, a));
        let (x, y) = (Sym::generated("X", 1), Sym::generated("X", 5));
        assert_eq!(shape_key(&closure(x)), shape_key(&closure(y)));

        assert_eq!(filtered(a, b).rebind(&[a, b], &[c, a]), filtered(c, a));
        assert_eq!(filtered(a, b).rebind(&[a, b], &[b, a]), filtered(b, a), "all at once");
        assert_eq!(filtered(a, b).rebind(&[a], &[c]), filtered(c, b), "others stay");
        assert_eq!(term_key(&filtered(a, b).rebind(&[a, b], &[a, b])), term_key(&filtered(a, b)));
    }

    #[test]
    fn symbols_are_visited_in_rendering_order_and_renamed_in_place() {
        let mut d = Dictionary::new();
        let (e, src, dst) = (d.intern("E"), d.intern("src"), d.intern("dst"));
        let (x, m) = (d.fresh("X"), d.fresh("m"));
        let step = Term::var(x).rename(dst, m).join(Term::var(e).rename(src, m)).antiproject(m);
        let mut t = Term::var(e).filter(Pred::EqCol(src, dst)).union(step).fix(x);
        let mut seen = Vec::new();
        t.for_each_symbol(&mut |s| seen.push(s));
        assert_eq!(seen, [x, src, dst, e, m, dst, m, x, src, m, e]);
        let before = t.display(&d).to_string();
        t.rename_symbols(&mut |s| match s.number() {
            Some(n) => s.with_number(n + 10),
            None => s,
        });
        assert_eq!(t.display(&d).to_string(), before.replace("X#1", "X#11").replace("m#2", "m#12"));
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
