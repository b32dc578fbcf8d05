//! The paper's experimental query suites.
//!
//! * [`yago_queries`] — Q1..Q25 (Fig. 5), written against the predicate
//!   names of `mura_datagen::yago_like` (abbreviations from the paper
//!   expanded: `isL` → `isLocatedIn`, `dw` → `dealsWith`, `haa` →
//!   `hasAcademicAdvisor`, `SA` → `Shannon_Airport`, `JLT` →
//!   `John_Lawrence_Toole`, `wce` → `wikicat_Capitals_in_Europe`).
//! * [`uniprot_queries`] — Q26..Q50 (Fig. 6) against
//!   `mura_datagen::uniprot_like` (`int` → `interacts`, `enc` → `encodes`,
//!   `occ` → `occurs`, `hKw` → `hasKeyword`, `ref` → `reference`, `auth` →
//!   `authoredBy`, `pub` → `publishes`; the per-query constant `C` is the
//!   appropriate hub entity).
//! * [`concat_closure_query`] — `a1+/a2+/…/an+` (§V-D b).
//! * [`anbn_term`], [`same_generation_term`], [`reach_term`] — the
//!   non-regular μ-RA terms of §V-D c, built directly in the algebra.

use mura_core::{Database, Result, Term, Value};

/// A query with its paper identifier.
#[derive(Debug, Clone, Copy)]
pub struct NamedQuery {
    /// Paper identifier, e.g. `Q9`.
    pub id: &'static str,
    /// UCRPQ text, parseable by [`crate::parse_ucrpq`].
    pub text: &'static str,
}

/// Q1..Q25 — the Yago suite (paper Fig. 5).
pub fn yago_queries() -> Vec<NamedQuery> {
    vec![
        NamedQuery {
            id: "Q1",
            text: "?x <- ?x isMarriedTo/livesIn/isLocatedIn+/dealsWith+ Argentina",
        },
        NamedQuery { id: "Q2", text: "?x <- ?x hasChild/livesIn/isLocatedIn+/dealsWith+ Japan" },
        NamedQuery { id: "Q3", text: "?x <- ?x influences/livesIn/isLocatedIn+/dealsWith+ Sweden" },
        NamedQuery { id: "Q4", text: "?x <- ?x livesIn/isLocatedIn+/dealsWith+ United_States" },
        NamedQuery {
            id: "Q5",
            text: "?x <- ?x hasSuccessor/livesIn/isLocatedIn+/dealsWith+ India",
        },
        NamedQuery {
            id: "Q6",
            text: "?x <- ?x hasPredecessor/livesIn/isLocatedIn+/dealsWith+ Germany",
        },
        NamedQuery {
            id: "Q7",
            text: "?x <- ?x hasAcademicAdvisor/livesIn/isLocatedIn+/dealsWith+ Netherlands",
        },
        NamedQuery { id: "Q8", text: "?x <- ?x isLocatedIn+/dealsWith+ United_States" },
        NamedQuery { id: "Q9", text: "?x <- ?x (actedIn/-actedIn)+ Kevin_Bacon" },
        NamedQuery {
            id: "Q10",
            text:
                "?area <- wikicat_Capitals_in_Europe -type/(isLocatedIn+/dealsWith|dealsWith) ?area",
        },
        NamedQuery {
            id: "Q11",
            text: "?person <- ?person (isMarriedTo+/owns/isLocatedIn+|owns/isLocatedIn+) USA",
        },
        NamedQuery { id: "Q12", text: "?a, ?b <- ?a isLocatedIn+/dealsWith ?b" },
        NamedQuery { id: "Q13", text: "?a, ?b <- ?a isLocatedIn+/dealsWith+ ?b" },
        NamedQuery {
            id: "Q14",
            text: "?a, ?b, ?c <- ?a wasBornIn/isLocatedIn+ ?b, ?b isConnectedTo+ ?c",
        },
        NamedQuery {
            id: "Q15",
            text: "?a, ?b, ?c <- ?a (isLocatedIn|isConnectedTo)+ ?b, ?a wasBornIn ?c",
        },
        NamedQuery {
            id: "Q16",
            text: "?a, ?b, ?c <- ?a wasBornIn/isLocatedIn+ Japan, ?b isConnectedTo+ ?c",
        },
        NamedQuery { id: "Q17", text: "?a <- ?a isLocatedIn+/(isConnectedTo|dealsWith)+ Japan" },
        NamedQuery { id: "Q18", text: "?a, ?c <- ?a isLocatedIn+ Japan, ?a isConnectedTo+ ?c" },
        NamedQuery { id: "Q19", text: "?a <- ?a isLocatedIn+/isLocatedIn Japan" },
        NamedQuery { id: "Q20", text: "?a <- ?a isLocatedIn+/isConnectedTo+/dealsWith+ Japan" },
        NamedQuery {
            id: "Q21",
            text: "?a, ?b <- ?a (isLocatedIn|dealsWith|subClassOf|isConnectedTo)+ ?b",
        },
        NamedQuery { id: "Q22", text: "?a <- ?a (isConnectedTo/-isConnectedTo)+ Shannon_Airport" },
        NamedQuery {
            id: "Q23",
            text: "?a <- ?a (wasBornIn/isLocatedIn/-wasBornIn)+ John_Lawrence_Toole",
        },
        NamedQuery { id: "Q24", text: "?x <- Jay_Kappraff (livesIn/isLocatedIn/-livesIn)+ ?x" },
        NamedQuery { id: "Q25", text: "?a, ?b <- ?a (actedIn/-actedIn)+/hasChild+ ?b" },
    ]
}

/// Q26..Q50 — the Uniprot suite (paper Fig. 6). The paper's dataset
/// constant `C` is instantiated with the hub entity of the appropriate kind
/// (`HubProtein`, `HubReference`, `HubJournal`) exported by
/// `mura_datagen::uniprot_like`.
pub fn uniprot_queries() -> Vec<NamedQuery> {
    vec![
        NamedQuery { id: "Q26", text: "?x, ?y <- ?x -hasKeyword/(reference/-reference)+ ?y" },
        NamedQuery { id: "Q27", text: "?x, ?y <- ?x -hasKeyword/(encodes/-encodes)+ ?y" },
        NamedQuery { id: "Q28", text: "?x, ?y <- ?x -hasKeyword/(occurs/-occurs)+ ?y" },
        NamedQuery { id: "Q29", text: "?x, ?y <- ?x interacts/(encodes/-encodes)+ ?y" },
        NamedQuery { id: "Q30", text: "?x, ?y <- ?x interacts/(occurs/-occurs)+ ?y" },
        NamedQuery { id: "Q31", text: "?x, ?y <- ?x interacts+/(occurs/-occurs)+ ?y" },
        NamedQuery { id: "Q32", text: "?x, ?y <- ?x interacts+/(encodes/-encodes)+ ?y" },
        NamedQuery { id: "Q33", text: "?x, ?y <- ?x interacts+/(occurs/-occurs)+/(hasKeyword/-hasKeyword)+ ?y" },
        NamedQuery { id: "Q34", text: "?x, ?y <- ?x -hasKeyword/interacts/reference/(authoredBy/-authoredBy)+ ?y" },
        NamedQuery { id: "Q35", text: "?x, ?y <- ?x (encodes/-encodes)+/hasKeyword ?y" },
        NamedQuery { id: "Q36", text: "?x <- ?x (encodes/-encodes)+ HubProtein" },
        NamedQuery { id: "Q37", text: "?x, ?y, ?z, ?t <- ?x (encodes/-encodes)+ ?y, ?x interacts+ ?z, ?x reference ?t" },
        NamedQuery { id: "Q38", text: "?x, ?y <- ?x (interacts|encodes/-encodes)+ ?y, HubProtein (occurs/-occurs)+ ?y" },
        NamedQuery { id: "Q39", text: "?x <- ?x interacts+/reference ?y, HubReference (authoredBy/-authoredBy)+ ?y" },
        NamedQuery { id: "Q40", text: "?x <- ?x interacts+/reference ?y, HubJournal -publishes/(authoredBy/-authoredBy)+ ?y" },
        NamedQuery { id: "Q41", text: "?x <- HubJournal -publishes/(authoredBy/-authoredBy)+ ?x" },
        NamedQuery { id: "Q42", text: "?x, ?y <- ?x -occurs/interacts+/occurs ?y" },
        NamedQuery { id: "Q43", text: "?x, ?y <- ?x (-reference/reference)+ ?y" },
        NamedQuery { id: "Q44", text: "?x, ?y <- ?x interacts/reference/(-reference/reference)+ ?y" },
        NamedQuery { id: "Q45", text: "?x <- HubProtein (reference/-reference)+ ?x" },
        NamedQuery { id: "Q46", text: "?x, ?y <- ?x (-reference/reference)+/(authoredBy|publishes) ?y" },
        NamedQuery { id: "Q47", text: "?x <- ?x (encodes/-encodes|occurs/-occurs)+ HubProtein" },
        NamedQuery { id: "Q48", text: "?x <- HubProtein interacts/(encodes/-encodes|occurs/-occurs)+ ?x" },
        NamedQuery { id: "Q49", text: "?x <- HubProtein (encodes/-encodes)+ ?x" },
        NamedQuery { id: "Q50", text: "?x <- HubProtein (occurs/-occurs)+ ?x" },
    ]
}

/// Concatenated closure query `?x, ?y <- ?x a1+/a2+/…/an+ ?y` (all in C6).
pub fn concat_closure_query(n: usize) -> String {
    assert!(n >= 1);
    let path: Vec<String> = (1..=n).map(|i| format!("a{i}+")).collect();
    format!("?x, ?y <- ?x {} ?y", path.join("/"))
}

/// The paper's aⁿbⁿ term: pairs of nodes connected by a path of `n` edges
/// labeled `a` followed by `n` edges labeled `b` (not expressible as a
/// UCRPQ).
///
/// ```text
/// μ(X = a∘b ∪ a∘X∘b)
/// ```
pub fn anbn_term(db: &mut Database, label_a: &str, label_b: &str) -> Result<Term> {
    let src = db.intern("src");
    let dst = db.intern("dst");
    let a = Term::var(db.intern(label_a));
    let b = Term::var(db.intern(label_b));
    let x = db.dict_mut().fresh("X");
    let m = db.dict_mut().fresh("m");
    let n = db.dict_mut().fresh("n");
    // Seed: a ∘ b.
    let seed = a.clone().rename(dst, m).join(b.clone().rename(src, m)).antiproject(m);
    // Step: a ∘ X ∘ b  (paper's nested antiprojection form).
    let left = a.rename(dst, m).join(Term::var(x).rename(src, m).rename(dst, n)).antiproject(m);
    let step = left.join(b.rename(src, n)).antiproject(n);
    Ok(seed.union(step).fix(x))
}

/// The paper's *same generation* term over a parent relation `R(src,dst)`
/// (`src` is the parent of `dst`): pairs of nodes at equal depth below a
/// common ancestor.
///
/// ```text
/// SG = μ(X = sibling ∪ R⁻∘X∘R)   — seed: share a parent;
///                                   step: parents are same-generation.
/// ```
pub fn same_generation_term(db: &mut Database, parent_label: &str) -> Result<Term> {
    let src = db.intern("src");
    let dst = db.intern("dst");
    let r = Term::var(db.intern(parent_label));
    let x = db.dict_mut().fresh("X");
    let m = db.dict_mut().fresh("m");
    let n = db.dict_mut().fresh("n");
    let tmp = db.dict_mut().fresh("t");
    // R with columns {m, src}: parent → m, child → src.
    let r_left = r.clone().rename(dst, tmp).rename(src, m).rename(tmp, src);
    // R with columns {m, dst}: parent → m, child → dst.
    let r_right = r.clone().rename(src, m);
    // Seed: siblings (children of the same parent).
    let seed = r_left.clone().join(r_right.clone()).antiproject(m);
    // Step: R(p, x) ∧ X(p, q) ∧ R(q, y).
    // X with columns {m, n}.
    let x_mid = Term::var(x).rename(src, m).rename(dst, n);
    let left = r_left.join(x_mid).antiproject(m); // {src, n}
    let right = r.rename(src, n); // {n, dst}
    let step = left.join(right).antiproject(n);
    Ok(seed.union(step).fix(x))
}

/// The paper's *reach* term: nodes reachable from `source` in `R`.
///
/// ```text
/// π̃_src(μ(X = σ_src=N(R) ∪ π̃_m(ρ_dst→m(X) ⋈ ρ_src→m(R))))
/// ```
pub fn reach_term(db: &mut Database, edge_label: &str, source: Value) -> Result<Term> {
    let src = db.intern("src");
    let dst = db.intern("dst");
    let r = Term::var(db.intern(edge_label));
    let x = db.dict_mut().fresh("X");
    let m = db.dict_mut().fresh("m");
    let seed = r.clone().filter_eq(src, source);
    let step = Term::var(x).rename(dst, m).join(r.rename(src, m)).antiproject(m);
    Ok(seed.union(step).fix(x).antiproject(src))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::parser::parse_ucrpq;
    use mura_core::{eval, Relation};

    #[test]
    fn all_suite_queries_parse() {
        for q in yago_queries().iter().chain(uniprot_queries().iter()) {
            parse_ucrpq(q.text).unwrap_or_else(|e| panic!("{}: {e}", q.id));
        }
    }

    #[test]
    fn suite_covers_all_classes() {
        use crate::classify::QueryClass::*;
        let mut seen = std::collections::BTreeSet::new();
        for q in yago_queries().iter().chain(uniprot_queries().iter()) {
            for c in classify(&parse_ucrpq(q.text).unwrap()) {
                seen.insert(c);
            }
        }
        for c in [C1, C2, C3, C4, C5, C6] {
            assert!(seen.contains(&c), "suite misses class {c}");
        }
    }

    #[test]
    fn concat_closure_text() {
        assert_eq!(concat_closure_query(2), "?x, ?y <- ?x a1+/a2+ ?y");
        assert_eq!(concat_closure_query(3), "?x, ?y <- ?x a1+/a2+/a3+ ?y");
    }

    fn chain_db() -> Database {
        // a-chain 0→1→2 and b-chain 2→3→4 (so aabb path 0→4, ab path 1→3).
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation("a", Relation::from_pairs(src, dst, [(0, 1), (1, 2)]));
        db.insert_relation("b", Relation::from_pairs(src, dst, [(2, 3), (3, 4)]));
        db
    }

    #[test]
    fn anbn_on_chain() {
        let mut db = chain_db();
        let t = anbn_term(&mut db, "a", "b").unwrap();
        let r = eval(&t, &db).unwrap();
        // n=1: a∘b = (1,3); n=2: aabb = (0,4).
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn same_generation_on_tree() {
        // Tree: 0 -> {1, 2}; 1 -> {3}; 2 -> {4}. Same generation: (1,2),
        // (2,1), (3,4), (4,3) and reflexive pairs of siblings' children…
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation("R", Relation::from_pairs(src, dst, [(0, 1), (0, 2), (1, 3), (2, 4)]));
        let t = same_generation_term(&mut db, "R").unwrap();
        let r = eval(&t, &db).unwrap();
        // Siblings of same parent include (x,x); generation-2: 3 with 4.
        // Pairs: (1,1),(1,2),(2,1),(2,2),(3,3),(4,4),(3,4),(4,3).
        assert_eq!(r.len(), 8);
    }

    #[test]
    fn reach_from_source() {
        let mut db = chain_db();
        let t = reach_term(&mut db, "a", Value::node(0)).unwrap();
        let r = eval(&t, &db).unwrap();
        assert_eq!(r.len(), 2); // 1, 2
        assert_eq!(r.schema().arity(), 1);
    }
}
