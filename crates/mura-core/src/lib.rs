//! # mura-core — recursive relational algebra (μ-RA)
//!
//! This crate implements the μ-RA algebra of Jachiet et al. (SIGMOD'20) as
//! used by the Dist-μ-RA system (Chlyah, Genevès, Layaïda): Codd's relational
//! algebra extended with a fixpoint operator `μ(X = Ψ)`.
//!
//! The grammar (paper Fig. 1):
//!
//! ```text
//! φ, ψ ::=  X                   relation variable (free: database relation,
//!                               bound: recursive variable of a fixpoint)
//!        |  |c₁ → v₁, …|        constant relation
//!        |  σ_p(φ)              filter
//!        |  ρ_a^b(φ)            rename column a to b
//!        |  π̃_c(φ)              antiprojection (drop column c)
//!        |  φ ⋈ ψ               natural join
//!        |  φ ∪ ψ               union
//!        |  φ ▷ ψ               antijoin
//!        |  μ(X = φ)            fixpoint
//! ```
//!
//! Provided here:
//!
//! * the data model ([`value`], [`schema`], [`relation`]): relations are sets
//!   of tuples mapping column names to values;
//! * the term language ([`term`]) with builder helpers;
//! * static analysis ([`analysis`]): free variables, the `F_cond` conditions
//!   (positive / linear / non-mutually-recursive), decomposition of a fixpoint
//!   body into constant part `R` and variable part `φ`, and the *stabilizer*
//!   (the set of columns left unchanged by the recursive step — the key to
//!   both filter pushing and the `P_plw` distributed plan);
//! * centralized evaluation ([`eval`](mod@eval)): naive and semi-naive (Algorithm 1)
//!   fixpoint computation;
//! * a named-relation [`catalog`] with string interning.
//!
//! Higher layers build on this: `mura-rewrite` (logical optimization),
//! `mura-dist` (distributed physical plans), `mura-ucrpq` (query frontend).

pub mod analysis;
pub mod cancel;
pub mod catalog;
pub mod codec;
pub mod crc;
pub mod error;
pub mod eval;
pub mod fxhash;
pub mod index;
pub mod kernel;
pub mod mem;
pub mod relation;
pub mod schema;
pub mod sql;
pub mod term;
pub mod value;

pub use cancel::CancellationToken;
pub use catalog::{Database, DictMark, Dictionary, RelationStats};
pub use crc::{crc32, Crc32};
pub use error::{MuraError, Result};
pub use eval::{eval, eval_naive_fixpoints, EvalStats, Evaluator};
pub use index::{JoinIndex, KeyIndex};
pub use kernel::{kernel_stats, KernelSnapshot, KernelStats};
pub use mem::{mem_gauge, rel_bytes, MemCharge, MemGauge};
pub use relation::{Relation, Row, Rows};
pub use schema::Schema;
pub use term::{canon_key, shape_key, term_key, Pred, Term};
pub use value::{Sym, Value, ValueKind};

/// SplitMix64 for this crate's seeded tests (`mura-core` sits below
/// `mura-datagen`, whose generator this restates).
#[cfg(test)]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
