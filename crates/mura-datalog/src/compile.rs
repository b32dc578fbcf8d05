//! Datalog → μ-RA compilation.
//!
//! Each rule body is a conjunctive query (joins on shared variables,
//! filters for constant arguments); a self-recursive predicate becomes a
//! fixpoint whose constant part is the union of its non-recursive rules.
//! IDB predicates use positional columns `#0..#k`; extensional predicates
//! are the database's binary graph relations over `src`/`dst`.

use crate::ast::{DlAtom, DlTerm, Program, Rule};
use mura_core::{Database, MuraError, Pred, Result, Sym, Term};
use std::collections::BTreeMap;

/// Positional column symbol `#i`.
fn pos_col(i: usize, db: &mut Database) -> Sym {
    db.intern(&format!("#{i}"))
}

/// Column symbol for a Datalog variable.
fn var_col(v: &str, db: &mut Database) -> Sym {
    db.intern(&format!("?{v}"))
}

/// Positional columns of a body atom's base relation: `src`/`dst` for
/// binary EDB relations, `#i` for IDB predicates.
fn base_cols(pred_is_edb: bool, arity: usize, db: &mut Database) -> Result<Vec<Sym>> {
    if pred_is_edb {
        if arity != 2 {
            return Err(MuraError::Frontend(format!(
                "extensional predicates must be binary graph relations (got arity {arity})"
            )));
        }
        Ok(vec![db.intern("src"), db.intern("dst")])
    } else {
        Ok((0..arity).map(|i| pos_col(i, db)).collect())
    }
}

struct Compiler<'a> {
    db: &'a mut Database,
    compiled: BTreeMap<String, Term>,
}

impl Compiler<'_> {
    /// Compiles one body atom into a term whose columns are the variable
    /// columns `?v` of its arguments (constants filtered out).
    fn compile_atom(&mut self, atom: &DlAtom, self_var: Option<(&str, Sym)>) -> Result<Term> {
        let is_self = self_var.is_some_and(|(p, _)| p == atom.pred);
        let is_edb = !is_self && !self.compiled.contains_key(&atom.pred);
        let mut term = if is_self {
            Term::var(self_var.expect("checked").1)
        } else if is_edb {
            if self.db.relation_by_name(&atom.pred).is_none() {
                return Err(MuraError::Frontend(format!(
                    "unknown extensional predicate '{}'",
                    atom.pred
                )));
            }
            Term::var(self.db.intern(&atom.pred))
        } else {
            self.compiled[&atom.pred].clone()
        };
        let cols = base_cols(is_edb, atom.args.len(), self.db)?;
        // First pass: constants become filters (dropped afterwards).
        let mut drop_cols = Vec::new();
        for (i, arg) in atom.args.iter().enumerate() {
            if let DlTerm::Cst(v) = arg {
                term = term.filter(Pred::Eq(cols[i], *v));
                drop_cols.push(cols[i]);
            }
        }
        // Second pass: variables. A repeated variable within the atom adds
        // an equality filter on an auxiliary column.
        let mut assigned: BTreeMap<&str, Sym> = BTreeMap::new();
        for (i, arg) in atom.args.iter().enumerate() {
            let DlTerm::Var(v) = arg else { continue };
            match assigned.get(v.as_str()) {
                None => {
                    let target = var_col(v, self.db);
                    if cols[i] != target {
                        term = term.rename(cols[i], target);
                    }
                    assigned.insert(v, target);
                }
                Some(&first) => {
                    let aux = self.db.dict_mut().fresh("dup");
                    term = term.rename(cols[i], aux).filter(Pred::EqCol(first, aux));
                    drop_cols.push(aux);
                }
            }
        }
        if !drop_cols.is_empty() {
            term = term.antiproject_all(drop_cols);
        }
        Ok(term)
    }

    /// Compiles one rule into a term with the head's positional columns.
    fn compile_rule(&mut self, rule: &Rule, self_var: Option<(&str, Sym)>) -> Result<Term> {
        let mut atoms = rule.body.iter();
        let mut term =
            self.compile_atom(atoms.next().expect("validated: nonempty body"), self_var)?;
        for a in atoms {
            term = term.join(self.compile_atom(a, self_var)?);
        }
        // Project to head variables, then rename to positional columns.
        let head_vars: Vec<&str> = rule
            .head
            .args
            .iter()
            .map(|t| match t {
                DlTerm::Var(v) => v.as_str(),
                DlTerm::Cst(_) => unreachable!("validated: no constants in heads"),
            })
            .collect();
        let mut body_vars: Vec<&str> = Vec::new();
        for a in &rule.body {
            for v in a.vars() {
                if !body_vars.contains(&v) {
                    body_vars.push(v);
                }
            }
        }
        let drop: Vec<Sym> = body_vars
            .iter()
            .filter(|v| !head_vars.contains(*v))
            .map(|v| var_col(v, self.db))
            .collect();
        if !drop.is_empty() {
            term = term.antiproject_all(drop);
        }
        for (i, v) in head_vars.iter().enumerate() {
            let from = var_col(v, self.db);
            let to = pos_col(i, self.db);
            if from != to {
                term = term.rename(from, to);
            }
        }
        Ok(term)
    }

    /// Compiles one predicate (its rules are given) to a term over `#i`
    /// columns.
    fn compile_pred(&mut self, pred: &str, rules: &[&Rule]) -> Result<Term> {
        let recursive = rules.iter().any(|r| r.body.iter().any(|a| a.pred == pred));
        if !recursive {
            let terms =
                rules.iter().map(|r| self.compile_rule(r, None)).collect::<Result<Vec<_>>>()?;
            return Ok(Term::union_all(terms));
        }
        let x = self.db.dict_mut().fresh("DL");
        let mut branches = Vec::new();
        // Constant part first (decomposition-friendly ordering).
        for r in rules.iter().filter(|r| !r.body.iter().any(|a| a.pred == pred)) {
            branches.push(self.compile_rule(r, None)?);
        }
        for r in rules.iter().filter(|r| r.body.iter().any(|a| a.pred == pred)) {
            branches.push(self.compile_rule(r, Some((pred, x)))?);
        }
        Ok(Term::union_all(branches).fix(x))
    }
}

/// Compiles a validated program into a μ-RA term for its query predicate.
/// The output schema uses positional columns `#0..`; callers typically
/// rename them to the query's variable names.
pub fn compile_program(program: &Program, db: &mut Database) -> Result<Term> {
    program.validate()?;
    let mut rules_by_pred: BTreeMap<&str, Vec<&Rule>> = BTreeMap::new();
    for r in &program.rules {
        rules_by_pred.entry(&r.head.pred).or_default().push(r);
    }
    // Topological compilation order over IDB dependencies (self-loops
    // excluded; validate() guarantees acyclicity).
    let mut compiler = Compiler { db, compiled: BTreeMap::new() };
    let mut remaining: Vec<&str> = rules_by_pred.keys().copied().collect();
    while !remaining.is_empty() {
        let ready = remaining
            .iter()
            .position(|p| {
                rules_by_pred[p].iter().all(|r| {
                    r.body.iter().all(|a| {
                        a.pred == *p
                            || !rules_by_pred.contains_key(a.pred.as_str())
                            || compiler.compiled.contains_key(&a.pred)
                    })
                })
            })
            .expect("validated: acyclic dependency graph");
        let pred = remaining.remove(ready);
        let term = compiler.compile_pred(pred, &rules_by_pred[pred])?;
        compiler.compiled.insert(pred.to_string(), term);
    }
    Ok(compiler.compiled[&program.query.pred].clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{DlAtom, DlTerm};
    use crate::translate::ucrpq_to_program;
    use mura_core::{eval, Relation, Value};
    use mura_ucrpq::{parse_ucrpq, to_mura};

    fn db() -> Database {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation("a", Relation::from_pairs(src, dst, [(0, 1), (1, 2), (2, 0), (3, 4)]));
        db.insert_relation("b", Relation::from_pairs(src, dst, [(2, 3), (4, 5)]));
        db.bind_constant("C", Value::node(2));
        db
    }

    /// End-to-end: the Datalog route must agree with the μ-RA route.
    #[test]
    fn datalog_route_matches_mura_route() {
        for q in [
            "?x, ?y <- ?x a+ ?y",
            "?x <- ?x a+ C",
            "?y <- C a+ ?y",
            "?x, ?y <- ?x a+/b ?y",
            "?x, ?y <- ?x (a|b)+ ?y",
            "?x, ?z <- ?x a ?y, ?y b ?z",
            "?x, ?y <- ?x (a/-a)+ ?y",
        ] {
            let mut d = db();
            let parsed = parse_ucrpq(q).unwrap();
            let program = ucrpq_to_program(&parsed, &d).unwrap();
            let dl_term = compile_program(&program, &mut d).unwrap();
            let dl_res = eval(&dl_term, &d).unwrap();
            let mura_term = to_mura(&parsed, &mut d).unwrap();
            let mura_res = eval(&mura_term, &d).unwrap();
            // Schemas differ (#i vs ?v) but cardinalities and value sets
            // must match; compare sorted row multisets.
            let mut a: Vec<_> = dl_res.sorted_rows();
            let mut b: Vec<_> = mura_res.sorted_rows();
            a.sort();
            b.sort();
            assert_eq!(a, b, "query {q} diverged");
        }
    }

    #[test]
    fn repeated_variable_in_atom() {
        // goal(X) :- a(X, X): self loops. None in `a` except… none: add one.
        let mut d = db();
        let src = d.dict().lookup("src").unwrap();
        let dst = d.dict().lookup("dst").unwrap();
        d.insert_relation("loops", Relation::from_pairs(src, dst, [(7, 7), (1, 2)]));
        let program = Program {
            rules: vec![Rule {
                head: DlAtom::new("goal", &["x"]),
                body: vec![DlAtom::new("loops", &["x", "x"])],
            }],
            query: DlAtom::new("goal", &["x"]),
        };
        let t = compile_program(&program, &mut d).unwrap();
        let r = eval(&t, &d).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[Value::node(7)]));
    }

    #[test]
    fn constants_in_body() {
        let mut d = db();
        let program = Program {
            rules: vec![Rule {
                head: DlAtom::new("goal", &["y"]),
                body: vec![DlAtom {
                    pred: "a".into(),
                    args: vec![DlTerm::Cst(Value::node(1)), DlTerm::Var("y".into())],
                }],
            }],
            query: DlAtom::new("goal", &["y"]),
        };
        let t = compile_program(&program, &mut d).unwrap();
        let r = eval(&t, &d).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[Value::node(2)]));
    }

    #[test]
    fn non_recursive_multi_pred_program() {
        // path2(X,Z) :- a(X,Y), b(Y,Z). goal(X,Z) :- path2(X,Z).
        let mut d = db();
        let program = Program {
            rules: vec![
                Rule {
                    head: DlAtom::new("path2", &["x", "z"]),
                    body: vec![DlAtom::new("a", &["x", "y"]), DlAtom::new("b", &["y", "z"])],
                },
                Rule {
                    head: DlAtom::new("goal", &["x", "z"]),
                    body: vec![DlAtom::new("path2", &["x", "z"])],
                },
            ],
            query: DlAtom::new("goal", &["x", "z"]),
        };
        let t = compile_program(&program, &mut d).unwrap();
        let r = eval(&t, &d).unwrap();
        // a∘b: (1,3) via 2, (3,5) via 4.
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn unknown_edb_rejected() {
        let mut d = db();
        let program = Program {
            rules: vec![Rule {
                head: DlAtom::new("goal", &["x", "y"]),
                body: vec![DlAtom::new("ghost", &["x", "y"])],
            }],
            query: DlAtom::new("goal", &["x", "y"]),
        };
        assert!(compile_program(&program, &mut d).is_err());
    }

    #[test]
    fn same_generation_program() {
        // sg(X,Y) :- parent(P,X), parent(P,Y).
        // sg(X,Y) :- parent(P,X), sg(P,Q), parent(Q,Y).
        let mut d = Database::new();
        let src = d.intern("src");
        let dst = d.intern("dst");
        d.insert_relation(
            "parent",
            Relation::from_pairs(src, dst, [(0, 1), (0, 2), (1, 3), (2, 4)]),
        );
        let program = Program {
            rules: vec![
                Rule {
                    head: DlAtom::new("sg", &["x", "y"]),
                    body: vec![
                        DlAtom::new("parent", &["p", "x"]),
                        DlAtom::new("parent", &["p", "y"]),
                    ],
                },
                Rule {
                    head: DlAtom::new("sg", &["x", "y"]),
                    body: vec![
                        DlAtom::new("parent", &["p", "x"]),
                        DlAtom::new("sg", &["p", "q"]),
                        DlAtom::new("parent", &["q", "y"]),
                    ],
                },
            ],
            query: DlAtom::new("sg", &["x", "y"]),
        };
        let t = compile_program(&program, &mut d).unwrap();
        let r = eval(&t, &d).unwrap();
        // Same pairs as the μ-RA same-generation term.
        let sg = mura_ucrpq::suites::same_generation_term(&mut d, "parent").unwrap();
        let expected = eval(&sg, &d).unwrap();
        assert_eq!(r.len(), expected.len());
    }
}
