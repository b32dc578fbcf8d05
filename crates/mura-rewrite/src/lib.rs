//! # mura-rewrite — logical optimization of μ-RA terms (`MuRewriter`)
//!
//! Implements the rewrite rules the paper leverages from the μ-RA work
//! (§III) together with classical relational-algebra rules, and a
//! cardinality-based cost model in the spirit of the CIKM'20 estimator
//! ([20]) used by the paper's `CostEstimator`:
//!
//! * **Pushing filters into fixpoints** — a filter on a *stable* column
//!   commutes with the fixpoint and is applied to the constant part.
//! * **Pushing joins into fixpoints** — a join on stable columns restarts
//!   the fixpoint from the joined constant part (e.g. `?x isMarriedTo/knows+
//!   ?y` starts from `isMarriedTo/knows`).
//! * **Pushing antiprojections into fixpoints** — unused stable columns are
//!   dropped before iterating.
//! * **Merging fixpoints** — `a+/b+` becomes one fixpoint seeded with `a∘b`
//!   that grows `a` to the left or `b` to the right.
//! * **Reversing fixpoints** — a right-linear closure is re-expressed
//!   left-linearly (and vice versa) so filters/joins on the *other* side
//!   become pushable.
//!
//! The rewriter applies cheap normalization rules greedily
//! ([`rules`]) and resolves the decisions where plans genuinely diverge
//! (closure orientation, merging, join pushing — [`closure`], [`rewriter`])
//! by **memoized enumeration** of the plan space: alternatives live in
//! equivalence groups keyed by a canonical term hash ([`memo`]), are
//! expanded under rule masks and a beam budget ([`enumerate`]), and the
//! globally cheapest candidate wins — with the original greedy pipeline
//! kept both as a member of the space and as a cost floor. Observed
//! fixpoint cardinalities from previous executions feed back into the cost
//! model ([`feedback`], [`cost::CostModel::with_observed`]).

pub mod closure;
pub mod cost;
pub mod enumerate;
pub mod feedback;
pub mod memo;
pub mod rewriter;
pub mod rules;

pub use closure::ClosureForm;
pub use cost::{CostModel, ObservedCards, Stats};
pub use enumerate::{EnumReport, GroupSummary};
pub use feedback::{FeedbackState, FeedbackStore};
pub use rewriter::{bracketed, optimize, Rewriter};
