//! μ-RA → SQL translation (PostgreSQL dialect).
//!
//! The paper's `P_plw^pg` plan ships each worker's local fixpoint to a
//! per-worker PostgreSQL instance; its centralized baseline runs μ-RA on
//! PostgreSQL outright. This module is that translation layer: it renders
//! a μ-RA term as a SQL query, with fixpoints becoming `WITH RECURSIVE`
//! CTEs.
//!
//! PostgreSQL restricts a recursive CTE to reference itself **once** in
//! the recursive term, so:
//!
//! * single-recursive-branch fixpoints translate directly;
//! * two-branch *merged* fixpoints (`L* ∘ S ∘ R*`, produced by the
//!   merge-fixpoints rewrite) are re-nested as `LL(RL(S, R), L)` — two
//!   stacked CTEs, each singly recursive;
//! * anything else multi-branch is reported as unsupported.

use crate::analysis::{decompose_fixpoint, infer_schema, TypeEnv};
use crate::catalog::Dictionary;
use crate::error::{MuraError, Result};
use crate::term::{Pred, Term};
use crate::value::{Sym, Value, ValueKind};

/// SQL generation context.
pub struct SqlGen<'d> {
    dict: &'d Dictionary,
    env: TypeEnv,
    cte_counter: u32,
    /// Completed CTE definitions, in dependency order.
    ctes: Vec<(String, String)>,
}

/// Renders a closed μ-RA term as one SQL statement.
///
/// `env` must bind every free relation variable to its schema (e.g. via
/// [`TypeEnv::from_db`](crate::analysis::TypeEnv::from_db)).
pub fn to_sql(term: &Term, dict: &Dictionary, env: TypeEnv) -> Result<String> {
    let mut g = SqlGen { dict, env, cte_counter: 0, ctes: Vec::new() };
    let body = g.select_of(term)?;
    if g.ctes.is_empty() {
        return Ok(body);
    }
    let mut out = String::from("WITH RECURSIVE\n");
    let defs: Vec<String> =
        g.ctes.iter().map(|(name, def)| format!("{name} AS (\n{def}\n)")).collect();
    out.push_str(&defs.join(",\n"));
    out.push('\n');
    out.push_str(&body);
    Ok(out)
}

impl SqlGen<'_> {
    fn col(&self, c: Sym) -> String {
        // Quote: μ-RA column names may contain '?', '#' etc.
        format!("\"{}\"", self.dict.resolve(c).replace('"', "\"\""))
    }

    fn val(&self, v: &Value) -> String {
        match v.kind() {
            ValueKind::Int(i) => i.to_string(),
            ValueKind::Str(s) => format!("'{}'", self.dict.resolve(s).replace('\'', "''")),
        }
    }

    fn fresh_cte(&mut self, hint: &str) -> String {
        self.cte_counter += 1;
        format!("{hint}_{}", self.cte_counter)
    }

    fn schema_cols(&mut self, t: &Term) -> Result<Vec<Sym>> {
        Ok(infer_schema(t, &mut self.env)?.columns().to_vec())
    }

    /// A full `SELECT …` statement for the term, with output columns named
    /// by the term's schema (sorted order).
    fn select_of(&mut self, t: &Term) -> Result<String> {
        let cols = self.schema_cols(t)?;
        self.select_with_cols(t, &cols)
    }

    fn select_with_cols(&mut self, t: &Term, out_cols: &[Sym]) -> Result<String> {
        match t {
            Term::Var(v) => {
                let table = self.dict.resolve(*v);
                let cols: Vec<String> = out_cols.iter().map(|c| self.col(*c)).collect();
                Ok(format!(
                    "SELECT DISTINCT {} FROM \"{}\"",
                    cols.join(", "),
                    table.replace('"', "\"\"")
                ))
            }
            Term::Cst(r) => {
                // Inline VALUES list.
                if r.is_empty() {
                    let cols: Vec<String> =
                        out_cols.iter().map(|c| format!("NULL AS {}", self.col(*c))).collect();
                    return Ok(format!("SELECT {} WHERE FALSE", cols.join(", ")));
                }
                let mut rows: Vec<String> = r
                    .sorted_rows()
                    .iter()
                    .map(|row| {
                        let vals: Vec<String> = row.iter().map(|v| self.val(v)).collect();
                        format!("({})", vals.join(", "))
                    })
                    .collect();
                rows.sort();
                let cols: Vec<String> = out_cols.iter().map(|c| self.col(*c)).collect();
                Ok(format!("SELECT * FROM (VALUES {}) AS t({})", rows.join(", "), cols.join(", ")))
            }
            Term::Filter(preds, inner) => {
                let sub = self.subquery(inner)?;
                let conds: Vec<String> = preds
                    .iter()
                    .map(|p| match p {
                        Pred::Eq(c, v) => format!("{} = {}", self.col(*c), self.val(v)),
                        Pred::Neq(c, v) => format!("{} <> {}", self.col(*c), self.val(v)),
                        Pred::EqCol(a, b) => format!("{} = {}", self.col(*a), self.col(*b)),
                    })
                    .collect();
                let cols: Vec<String> = out_cols.iter().map(|c| self.col(*c)).collect();
                let alias = self.fresh_cte("t");
                Ok(format!(
                    "SELECT {} FROM {sub} AS {alias} WHERE {}",
                    cols.join(", "),
                    conds.join(" AND ")
                ))
            }
            Term::Rename(from, to, inner) => {
                let sub = self.subquery(inner)?;
                // Emit in out_cols order: UNION arms align positionally.
                let projected: Vec<String> = out_cols
                    .iter()
                    .map(|c| {
                        if c == to {
                            format!("{} AS {}", self.col(*from), self.col(*to))
                        } else {
                            self.col(*c)
                        }
                    })
                    .collect();
                let alias = self.fresh_cte("t");
                Ok(format!("SELECT {} FROM {sub} AS {alias}", projected.join(", ")))
            }
            Term::AntiProject(_, inner) => {
                let sub = self.subquery(inner)?;
                let cols: Vec<String> = out_cols.iter().map(|c| self.col(*c)).collect();
                let alias = self.fresh_cte("t");
                Ok(format!("SELECT DISTINCT {} FROM {sub} AS {alias}", cols.join(", ")))
            }
            Term::Join(a, b) => {
                let sa = self.schema_cols(a)?;
                let sb = self.schema_cols(b)?;
                let common: Vec<Sym> = sa.iter().copied().filter(|c| sb.contains(c)).collect();
                let qa = self.subquery(a)?;
                let qb = self.subquery(b)?;
                let select: Vec<String> = out_cols
                    .iter()
                    .map(|c| {
                        let side = if sa.contains(c) { "l" } else { "r" };
                        format!("{side}.{}", self.col(*c))
                    })
                    .collect();
                let using: Vec<String> =
                    common.iter().map(|c| format!("l.{0} = r.{0}", self.col(*c))).collect();
                let cond = if using.is_empty() { "TRUE".to_string() } else { using.join(" AND ") };
                Ok(format!("SELECT {} FROM {qa} AS l JOIN {qb} AS r ON {cond}", select.join(", ")))
            }
            Term::Antijoin(a, b) => {
                let sa = self.schema_cols(a)?;
                let sb = self.schema_cols(b)?;
                let common: Vec<Sym> = sa.iter().copied().filter(|c| sb.contains(c)).collect();
                let qa = self.subquery(a)?;
                let qb = self.subquery(b)?;
                let select: Vec<String> =
                    out_cols.iter().map(|c| format!("l.{}", self.col(*c))).collect();
                let cond: Vec<String> =
                    common.iter().map(|c| format!("l.{0} = r.{0}", self.col(*c))).collect();
                let cond = if cond.is_empty() { "TRUE".to_string() } else { cond.join(" AND ") };
                Ok(format!(
                    "SELECT {} FROM {qa} AS l WHERE NOT EXISTS (SELECT 1 FROM {qb} AS r WHERE {cond})",
                    select.join(", ")
                ))
            }
            Term::Union(a, b) => {
                let qa = self.select_with_cols(a, out_cols)?;
                let qb = self.select_with_cols(b, out_cols)?;
                Ok(format!("{qa}\nUNION\n{qb}"))
            }
            Term::Fix(x, body) => {
                let cte = self.fixpoint_cte(*x, body)?;
                let cols: Vec<String> = out_cols.iter().map(|c| self.col(*c)).collect();
                Ok(format!("SELECT {} FROM {cte}", cols.join(", ")))
            }
        }
    }

    /// A FROM-able rendering: a parenthesized subquery, or a CTE name for
    /// fixpoints. Callers must attach their own alias.
    fn subquery(&mut self, t: &Term) -> Result<String> {
        if let Term::Fix(x, body) = t {
            return self.fixpoint_cte(*x, body);
        }
        Ok(format!("({})", self.select_of(t)?))
    }

    /// Emits the CTE(s) for a fixpoint; returns the name to select from.
    fn fixpoint_cte(&mut self, x: Sym, body: &Term) -> Result<String> {
        let fix = Term::Fix(x, Box::new(body.clone()));
        let cols = self.schema_cols(&fix)?;
        let (consts, recs) = decompose_fixpoint(x, body)?;
        if recs.len() > 1 {
            return Err(MuraError::Other(
                "PostgreSQL allows one self-reference per recursive CTE; re-nest \
                 multi-branch fixpoints (e.g. L*∘S∘R* as LL(RL(S,R),L)) before \
                 SQL generation"
                    .into(),
            ));
        }
        let name = self.fresh_cte("fix");
        // Bind X to the CTE name while rendering the recursive branch.
        let schema = infer_schema(&fix, &mut self.env)?;
        let prev = self.env.bind(x, schema);
        // Temporarily register x's "table name" by mapping the variable's
        // dictionary entry — the recursive branch renders Var(x) as a table
        // scan of the CTE. We exploit that Var rendering uses dict.resolve;
        // so x must resolve to the CTE name. Instead of mutating the
        // dictionary we post-replace the placeholder.
        let placeholder = format!("\"{}\"", self.dict.resolve(x).replace('"', "\"\""));
        let mut seed_parts = Vec::new();
        for cpart in &consts {
            seed_parts.push(self.select_with_cols(cpart, &cols)?);
        }
        let rec_sql =
            if let Some(r) = recs.first() { Some(self.select_with_cols(r, &cols)?) } else { None };
        self.env.unbind(x, prev);
        let mut def = seed_parts.join("\nUNION\n");
        if let Some(rec) = rec_sql {
            let rec = rec.replace(&placeholder, &format!("\"{name}\""));
            def.push_str("\nUNION\n");
            def.push_str(&rec);
        }
        self.ctes.push((format!("\"{name}\""), def));
        Ok(format!("\"{name}\""))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::relation::Relation;

    fn setup() -> (Database, Term) {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let e = db.insert_relation("edge", Relation::from_pairs(src, dst, [(0, 1), (1, 2)]));
        let m = db.intern("m");
        let x = db.intern("tcvar");
        let step = Term::var(x).rename(dst, m).join(Term::var(e).rename(src, m)).antiproject(m);
        let fix = Term::var(e).union(step).fix(x);
        (db, fix)
    }

    #[test]
    fn transitive_closure_becomes_recursive_cte() {
        let (db, fix) = setup();
        let env = TypeEnv::from_db(&db);
        let sql = to_sql(&fix, db.dict(), env).unwrap();
        assert!(sql.starts_with("WITH RECURSIVE"), "{sql}");
        assert!(sql.contains("\"fix_"), "{sql}");
        assert!(sql.contains("FROM \"edge\""), "{sql}");
        assert!(sql.contains("UNION"), "{sql}");
        // The recursive branch references the CTE, not the variable name.
        assert!(!sql.contains("\"tcvar\""), "{sql}");
    }

    #[test]
    fn filter_and_rename_render() {
        let (db, _) = setup();
        let e = db.dict().lookup("edge").unwrap();
        let src = db.dict().lookup("src").unwrap();
        let t = Term::var(e).filter_eq(src, 5i64);
        let sql = to_sql(&t, db.dict(), TypeEnv::from_db(&db)).unwrap();
        assert!(sql.contains("WHERE \"src\" = 5"), "{sql}");
        let m = db.dict().lookup("m").unwrap();
        let t2 = Term::var(e).rename(src, m);
        let sql2 = to_sql(&t2, db.dict(), TypeEnv::from_db(&db)).unwrap();
        assert!(sql2.contains("\"src\" AS \"m\""), "{sql2}");
    }

    #[test]
    fn antijoin_renders_not_exists() {
        let (db, _) = setup();
        let e = db.dict().lookup("edge").unwrap();
        let t = Term::var(e).antijoin(Term::var(e));
        let sql = to_sql(&t, db.dict(), TypeEnv::from_db(&db)).unwrap();
        assert!(sql.contains("NOT EXISTS"), "{sql}");
    }

    #[test]
    fn merged_fixpoint_rejected_with_hint() {
        // Two recursive branches: unsupported by a single CTE.
        let (mut db, _) = setup();
        let src = db.dict().lookup("src").unwrap();
        let dst = db.dict().lookup("dst").unwrap();
        let e = db.dict().lookup("edge").unwrap();
        let m1 = db.intern("m1");
        let m2 = db.intern("m2");
        let x = db.intern("X2");
        let append =
            Term::var(x).rename(dst, m1).join(Term::var(e).rename(src, m1)).antiproject(m1);
        let prepend =
            Term::var(x).rename(src, m2).join(Term::var(e).rename(dst, m2)).antiproject(m2);
        let fix = Term::var(e).union(append).union(prepend).fix(x);
        let err = to_sql(&fix, db.dict(), TypeEnv::from_db(&db)).unwrap_err();
        assert!(err.to_string().contains("re-nest"), "{err}");
    }

    #[test]
    fn constants_render_as_values() {
        let (db, _) = setup();
        let src = db.dict().lookup("src").unwrap();
        let dst = db.dict().lookup("dst").unwrap();
        let t = Term::cst(Relation::from_pairs(src, dst, [(7, 8)]));
        let sql = to_sql(&t, db.dict(), TypeEnv::from_db(&db)).unwrap();
        assert!(sql.contains("VALUES (7, 8)"), "{sql}");
    }

    #[test]
    fn quoting_is_safe() {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let e = db.insert_relation("weird\"name", Relation::from_pairs(src, dst, [(1, 2)]));
        let odd = db.intern("it's");
        let t = Term::var(e).filter(crate::term::Pred::Eq(src, Value::sym(odd)));
        let sql = to_sql(&t, db.dict(), TypeEnv::from_db(&db)).unwrap();
        assert!(sql.contains("\"weird\"\"name\""), "{sql}");
        assert!(sql.contains("'it''s'"), "{sql}");
    }
}
