//! # mura-obs — observability primitives for Dist-μ-RA
//!
//! The paper's central claim — `P_plw` repartitions once while `P_gld`
//! shuffles every iteration — is a statement about *when* communication
//! happens inside a fixpoint, not just how much of it there is in total.
//! This crate provides the telemetry types that make that (and delta
//! growth, kernel work and fault recovery) observable per superstep:
//!
//! * [`trace`] — a lightweight span/event recorder ([`TraceSink`]) fed by
//!   the fixpoint drivers with one event per superstep, producing a
//!   per-query [`QueryTrace`] with Chrome-trace / JSON exporters and an
//!   aligned-table timeline renderer;
//! * [`counters`] — the one counter idiom: [`counter_set!`] declares a set
//!   of counters once and generates its live struct, snapshot, `since`,
//!   wire form and the rows every renderer works from;
//! * [`histogram`] — fixed log-spaced latency [`Histogram`]s from which
//!   p50/p95/p99 are derivable without storing samples;
//! * [`prometheus`] — Prometheus text-exposition rendering
//!   ([`PromText`]) for counters, gauges and histograms;
//! * [`json`] — a minimal JSON value codec ([`json::Json`]) used by the
//!   exporters and by CI to validate emitted traces offline (the
//!   workspace builds without external dependencies, so there is no serde).
//!
//! The crate is deliberately a **leaf**: it depends on nothing, so every
//! other crate (core, dist, serve, bench, the CLI) can depend on it.
//! Instrumentation cost is governed by a per-query [`TraceLevel`]: at
//! [`TraceLevel::Off`] the drivers skip all recording (a `None` check),
//! and at [`TraceLevel::Superstep`] each superstep appends one `Copy`
//! struct to a pre-sized ring buffer under a short mutex hold.

pub mod counters;
pub mod histogram;
pub mod json;
pub mod prometheus;
pub mod trace;

pub use counters::{Counter, Field, Kind, Row};
pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use prometheus::PromText;
pub use trace::{
    EventKind, FixpointSkew, PlanKind, QueryTrace, RecoveryKind, TraceEvent, TraceLevel, TraceSink,
};
