//! A parser for textual Datalog programs.
//!
//! Accepts the classic notation used throughout the literature (and this
//! workspace's `Display` output round-trips through it):
//!
//! ```text
//! tc(X, Y) :- edge(X, Y).
//! tc(X, Y) :- tc(X, Z), edge(Z, Y).
//! ?- tc(X, Y).
//! ```
//!
//! Uppercase-initial identifiers are variables; integers are node
//! constants; lowercase identifiers in argument position are named
//! constants resolved by the engine at compile time (kept symbolic here).

use crate::ast::{DlAtom, DlTerm, Program, Rule};
use mura_core::{MuraError, Result, Value};

/// Parses a Datalog program (rules plus exactly one `?- goal(...)` query).
pub fn parse_program(input: &str) -> Result<Program> {
    let mut p = Parser { input: input.as_bytes(), pos: 0 };
    let mut rules = Vec::new();
    let mut query = None;
    loop {
        p.skip_ws_and_comments();
        if p.pos >= p.input.len() {
            break;
        }
        if p.peek_str("?-") {
            p.pos += 2;
            let atom = p.atom()?;
            p.expect(b'.')?;
            if query.replace(atom).is_some() {
                return Err(MuraError::Frontend("multiple queries".into()));
            }
            continue;
        }
        let head = p.atom()?;
        p.skip_ws_and_comments();
        if p.peek_str(":-") {
            p.pos += 2;
            let mut body = vec![p.atom()?];
            while p.eat(b',') {
                body.push(p.atom()?);
            }
            p.expect(b'.')?;
            rules.push(Rule { head, body });
        } else {
            return Err(p.err("facts are not supported; load data as relations"));
        }
    }
    let query = query.ok_or_else(|| MuraError::Frontend("missing '?- goal(...)' query".into()))?;
    let program = Program { rules, query };
    program.validate()?;
    Ok(program)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> MuraError {
        let around: String = String::from_utf8_lossy(
            &self.input[self.pos.min(self.input.len())..(self.pos + 24).min(self.input.len())],
        )
        .into_owned();
        MuraError::Frontend(format!(
            "datalog parse error at byte {}: {msg} (near '{around}')",
            self.pos
        ))
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.pos < self.input.len() && self.input[self.pos] == b'%' {
                while self.pos < self.input.len() && self.input[self.pos] != b'\n' {
                    self.pos += 1;
                }
                continue;
            }
            break;
        }
    }

    fn peek_str(&mut self, s: &str) -> bool {
        self.skip_ws_and_comments();
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws_and_comments();
        if self.input.get(self.pos) == Some(&c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<()> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn ident(&mut self) -> Result<String> {
        self.skip_ws_and_comments();
        let start = self.pos;
        while self.pos < self.input.len() {
            let c = self.input[self.pos];
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected identifier"));
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn atom(&mut self) -> Result<DlAtom> {
        let pred = self.ident()?;
        if pred.starts_with(|c: char| c.is_ascii_uppercase()) {
            return Err(self.err("predicate names must start lowercase"));
        }
        self.expect(b'(')?;
        let mut args = vec![self.term()?];
        while self.eat(b',') {
            args.push(self.term()?);
        }
        self.expect(b')')?;
        Ok(DlAtom { pred, args })
    }

    fn term(&mut self) -> Result<DlTerm> {
        self.skip_ws_and_comments();
        let c = *self.input.get(self.pos).ok_or_else(|| self.err("unexpected end"))?;
        if c.is_ascii_digit() || c == b'-' {
            let start = self.pos;
            if c == b'-' {
                self.pos += 1;
            }
            while self.pos < self.input.len() && self.input[self.pos].is_ascii_digit() {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.input[start..self.pos]).expect("ascii");
            let n: i64 = text.parse().map_err(|_| self.err("invalid integer"))?;
            let v =
                Value::try_int(n).ok_or_else(|| self.err("integer outside the value domain"))?;
            return Ok(DlTerm::Cst(v));
        }
        let id = self.ident()?;
        if id.starts_with(|ch: char| ch.is_ascii_uppercase()) || id.starts_with('_') {
            // Prolog-style variable: normalize to lowercase for the AST.
            Ok(DlTerm::Var(id.to_lowercase()))
        } else {
            Err(self.err("named constants in arguments are not supported; use node ids"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::{eval_naive_fixpoints, Database, Relation};

    const TC: &str = "
        % transitive closure
        tc(X, Y) :- edge(X, Y).
        tc(X, Y) :- tc(X, Z), edge(Z, Y).
        ?- tc(X, Y).
    ";

    #[test]
    fn parses_tc() {
        let p = parse_program(TC).unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.query.pred, "tc");
    }

    #[test]
    fn round_trips_with_display() {
        let p = parse_program(TC).unwrap();
        let text = p.to_string();
        let p2 = parse_program(&text).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn parses_constants() {
        let p = parse_program(
            "reach(Y) :- edge(0, Y).\nreach(Y) :- reach(X), edge(X, Y).\n?- reach(Y).",
        )
        .unwrap();
        assert_eq!(p.rules[0].body[0].args[0], DlTerm::Cst(Value::int(0)));
    }

    #[test]
    fn parse_then_compile_then_eval() {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation("edge", Relation::from_pairs(src, dst, [(0, 1), (1, 2), (2, 3)]));
        let p = parse_program(TC).unwrap();
        let term = crate::compile::compile_program(&p, &mut db).unwrap();
        let rel = eval_naive_fixpoints(&term, &db).unwrap();
        assert_eq!(rel.len(), 6);
    }

    #[test]
    fn error_cases() {
        assert!(parse_program("tc(X) :-").is_err());
        assert!(parse_program("tc(X, Y).").is_err(), "facts rejected");
        assert!(parse_program("tc(X, Y) :- edge(X, Y).").is_err(), "missing query");
        assert!(parse_program("Tc(X) :- e(X, X). ?- Tc(X).").is_err(), "uppercase pred");
        assert!(parse_program("tc(X, Y) :- e(X, Y). ?- tc(X, Y). ?- tc(X, Y).").is_err());
        let reserved = parse_program("r(X) :- e(9223372036854775807, X). ?- r(X).");
        assert!(matches!(reserved, Err(MuraError::Frontend(_))), "{reserved:?}");
    }
}
