//! Error types shared across the workspace's core layers.

use crate::schema::Schema;
use crate::value::Sym;
use std::fmt;

/// Result alias for μ-RA operations.
pub type Result<T> = std::result::Result<T, MuraError>;

/// Errors raised by term analysis and evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MuraError {
    /// A free variable has no binding in the catalog or environment.
    UnboundVariable(Sym),
    /// Union (or fixpoint branches) over incompatible schemas.
    SchemaMismatch { left: Schema, right: Schema, context: &'static str },
    /// A column referenced by filter/rename/antiprojection is missing.
    UnknownColumn { column: Sym, schema: Schema, context: &'static str },
    /// Rename target already exists in the schema.
    RenameCollision { from: Sym, to: Sym, schema: Schema },
    /// The fixpoint violates one of the `F_cond` conditions.
    NotPositive(Sym),
    /// The fixpoint is not linear in its recursive variable.
    NotLinear(Sym),
    /// Mutual recursion between fixpoint variables.
    MutuallyRecursive(Sym),
    /// The same variable is bound twice by nested fixpoints.
    ShadowedVariable(Sym),
    /// A resource budget was exceeded (used to model the paper's
    /// "system crashed" outcomes honestly).
    ResourceExhausted { what: &'static str, limit: u64, reached: u64 },
    /// The per-query byte budget (`ResourceLimits.max_bytes`) was exceeded.
    /// Reported instead of letting the evaluation run the process out of
    /// memory; `used` is the charged footprint when the budget tripped.
    /// Not retryable: re-running the same plan allocates the same bytes.
    MemoryExceeded { used: u64, limit: u64 },
    /// Evaluation exceeded the configured timeout.
    Timeout { millis: u64 },
    /// The query was cancelled through its
    /// [`CancellationToken`](crate::cancel::CancellationToken).
    Cancelled,
    /// A per-request deadline passed; `millis` is the granted budget.
    /// Distinct from [`MuraError::Timeout`], which reports the engine-level
    /// resource limit rather than a client deadline.
    DeadlineExceeded { millis: u64 },
    /// A cluster worker panicked while running a partition task. The panic
    /// is captured (it no longer aborts the process); `payload` carries the
    /// panic message. Retryable: the supervisor re-runs the task.
    WorkerFailed { worker: usize, payload: String },
    /// A transient task error (injected by the fault plan, or any failure a
    /// retry may fix). Retryable.
    TransientFault { worker: usize },
    /// Frontend (parser / translation) error.
    Frontend(String),
    /// Anything else.
    Other(String),
}

impl fmt::Display for MuraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MuraError::UnboundVariable(v) => write!(f, "unbound relation variable {v}"),
            MuraError::SchemaMismatch { left, right, context } => {
                write!(f, "schema mismatch in {context}: {left} vs {right}")
            }
            MuraError::UnknownColumn { column, schema, context } => {
                write!(f, "unknown column {column} in {context} over {schema}")
            }
            MuraError::RenameCollision { from, to, schema } => {
                write!(f, "rename {from}->{to} collides in {schema}")
            }
            MuraError::NotPositive(v) => {
                write!(f, "fixpoint on {v} is not positive (recursion under antijoin right side)")
            }
            MuraError::NotLinear(v) => write!(f, "fixpoint on {v} is not linear"),
            MuraError::MutuallyRecursive(v) => write!(f, "fixpoint on {v} is mutually recursive"),
            MuraError::ShadowedVariable(v) => write!(f, "fixpoint variable {v} is shadowed"),
            MuraError::ResourceExhausted { what, limit, reached } => {
                write!(f, "resource exhausted: {what} reached {reached} (limit {limit})")
            }
            MuraError::MemoryExceeded { used, limit } => {
                write!(f, "memory budget exceeded: {used} bytes used (limit {limit})")
            }
            MuraError::Timeout { millis } => write!(f, "evaluation timed out after {millis} ms"),
            MuraError::Cancelled => write!(f, "query cancelled"),
            MuraError::DeadlineExceeded { millis } => {
                write!(f, "deadline exceeded (budget {millis} ms)")
            }
            MuraError::WorkerFailed { worker, payload } => {
                write!(f, "worker {worker} failed: {payload}")
            }
            MuraError::TransientFault { worker } => {
                write!(f, "transient task failure on worker {worker}")
            }
            MuraError::Frontend(s) => write!(f, "frontend error: {s}"),
            MuraError::Other(s) => write!(f, "{s}"),
        }
    }
}

impl MuraError {
    /// True for failures a task retry or a checkpoint restore may fix:
    /// captured worker panics and transient task errors. Budget, deadline
    /// and cancellation errors are final — retrying a cancelled query is
    /// never correct.
    pub fn is_retryable(&self) -> bool {
        matches!(self, MuraError::WorkerFailed { .. } | MuraError::TransientFault { .. })
    }
}

impl std::error::Error for MuraError {}
