//! # mura-ucrpq — UCRPQ frontend for Dist-μ-RA
//!
//! UCRPQs (unions of conjunctions of regular path queries) are the paper's
//! query language frontend. This crate provides:
//!
//! * the query AST ([`ast`]) and a parser ([`parser`]) for the paper's
//!   notation, e.g. `?x <- ?x isMarriedTo/livesIn/isLocatedIn+/dealsWith+
//!   Argentina`;
//! * the `Query2Mu` translation to μ-RA terms ([`translate`]), following the
//!   scheme of the μ-RA paper: each regular path maps to a binary term over
//!   columns `src`/`dst`, Kleene-plus maps to a (right-linear) fixpoint,
//!   conjunctions map to natural joins on shared variables;
//! * the paper's query classification `C1..C6` ([`classify`](mod@classify), §V-D);
//! * the full experimental query suites of the paper ([`suites`]):
//!   Q1–Q25 (Yago), Q26–Q50 (Uniprot), concatenated closures, and the
//!   non-regular μ-RA specials (aⁿbⁿ, same generation, reach).

pub mod ast;
pub mod classify;
pub mod parser;
pub mod suites;
pub mod translate;

pub use ast::{Atom, Crpq, Endpoint, Path, Ucrpq};
pub use classify::{classify, QueryClass};
pub use parser::parse_ucrpq;
pub use translate::to_mura;
