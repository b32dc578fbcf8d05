//! mura-serve: concurrent query serving over the Dist-μ-RA engine.
//!
//! The engine crates answer *one query at a time for one caller*. This
//! crate turns an engine into a long-lived, shared **query service**:
//!
//! * [`Server`] owns a pool of executor threads over one
//!   [`QueryEngine`](mura_dist::QueryEngine) behind a read/write lock:
//!   planning (which interns symbols) takes the write lock, executions
//!   share read locks and run concurrently. It derefs to [`Client`], the
//!   one handle for queries, mutations, loads and telemetry.
//! * Five modules each own one part of the shared state, its locks and
//!   the policy that goes with it — admission, planning, views,
//!   durability, telemetry; [`server`] has the map and the lock order.
//! * **Admission control** — a bounded queue in front of the pool. When
//!   full, [`Client::submit`] fails *immediately* with
//!   [`ServeError::Busy`] instead of queueing without bound.
//! * **Overload protection** — a degradation ladder past the queue:
//!   cost-aware memory shedding (live [`mura_core::mem_gauge`] plus a
//!   cost-model byte estimate against a watermark), a per-plan circuit
//!   breaker that opens after repeated `MemoryExceeded`/`WorkerFailed`
//!   and half-opens on a cooldown, and graceful drain
//!   ([`Server::drain`], the `.drain` verb). Shed queries get a
//!   structured [`ServeError::Overloaded`] with a machine-parseable
//!   `retry-after-ms` hint; every admitted query terminates in exactly
//!   one of answer or typed error.
//! * **Caching** — an LRU result cache keyed by the canonical key of the
//!   *optimized plan* plus the database *epoch* (bumped by
//!   [`Client::load`] calls that change the catalog's shape), and an LRU
//!   plan cache keyed by query text plus epoch. Cached answers also carry
//!   the database *version* — bumped by every mutation — and only hit
//!   while current.
//! * **Incremental view maintenance** — [`Client::apply_delta`] (the
//!   `.insert`/`.delete` verbs) applies an edge-level [`DeltaBatch`]
//!   without a reload and logs it; the next read of a cached fixpoint
//!   answer brings it forward over the batches it missed: insertions
//!   resume the drivers' semi-naive delta loop from the captured totals,
//!   deletions run DRed (over-delete, rederive). Views the maintenance
//!   planner cannot or should not maintain are executed fresh — see
//!   [`mura_ivm`] and the `ivm_*` fields of [`ServeStats`].
//! * **Cancellation & deadlines** — every query carries a
//!   [`CancellationToken`](mura_core::CancellationToken) checked at each
//!   fixpoint superstep; deadlines start at submission.
//! * **Telemetry** — log-spaced latency histograms (wall, queue wait,
//!   execution, planning) and communication totals feed `.stats`
//!   quantile lines and a `.metrics` Prometheus text-exposition page;
//!   [`Client::profile`] (the `.profile` verb) runs a query with
//!   per-superstep tracing and returns its timeline.
//! * A **line protocol** ([`protocol`]) with one interpreter, which TCP
//!   connections and the `murash` shell both go through.
//!
//! ```
//! use mura_core::{Database, Relation};
//! use mura_dist::QueryEngine;
//! use mura_serve::{ServeConfig, Server};
//!
//! let mut db = Database::new();
//! let src = db.intern("src");
//! let dst = db.intern("dst");
//! db.insert_relation("a", Relation::from_pairs(src, dst, [(0, 1), (1, 2)]));
//!
//! let server = Server::start(QueryEngine::new(db), ServeConfig::default());
//! let client = server.client();
//! let out = client.query("?x, ?y <- ?x a+ ?y").unwrap();
//! assert_eq!(out.relation.len(), 3);
//! // Early runs feed observed cardinalities back into the planner and
//! // may replan; once converged, repeats hit the result cache.
//! client.query("?x, ?y <- ?x a+ ?y").unwrap();
//! client.query("?x, ?y <- ?x a+ ?y").unwrap();
//! assert!(server.stats().result_hits >= 1);
//! server.shutdown();
//! ```

mod admission;
pub mod cache;
mod client;
mod durability;
pub mod error;
mod planning;
pub mod protocol;
pub mod server;
mod telemetry;
mod views;

pub use admission::Pending;
pub use cache::LruCache;
pub use client::{Client, Server};
pub use error::{OverloadReason, ServeError, ServeResult};
pub use mura_durable::SyncPolicy;
pub use mura_ivm::{DeltaBatch, RelDelta};
pub use protocol::{read_response, serve_tcp, FrameError, TcpServeHandle, MAX_LINE};
pub use server::{ClusterMode, DeltaSummary, ServeConfig};
pub use telemetry::ServeStats;

/// Poison-tolerant locking, for every mutex of the tier: a worker that
/// panicked mid-query must not take the whole server down with
/// `PoisonError`s.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
