//! # mura-dist — distributed evaluation of μ-RA terms
//!
//! This crate is the Rust substitute for the Spark substrate the paper
//! deploys on: an in-process cluster simulator with explicit partitions,
//! hash shuffles, broadcasts and **communication accounting**, plus the
//! paper's two distributed fixpoint plans:
//!
//! * `P_gld` — *global loop on the driver*: each semi-naive
//!   iteration runs as distributed dataset operations; the union/distinct
//!   forces **at least one shuffle per iteration** (paper §IV-A1);
//! * `P_plw` — *parallel local loops on the workers*: the constant
//!   part is partitioned across workers (by a **stable column** when one
//!   exists — then local results are provably disjoint and the final
//!   `distinct` is skipped, paper §IV-A2) and every worker runs its own
//!   semi-naive loop against broadcast step relations — **no communication
//!   during the recursion**.
//!
//! `P_plw` has two worker-local engines, mirroring the paper's two
//! implementations (§IV-B): [`localfix::LocalEngine::SetRdd`] (hash-based,
//! after BigDatalog's SetRDD) and [`localfix::LocalEngine::Sorted`]
//! (standing in for the per-worker PostgreSQL instances of `P_plw^pg`).
//! Both run the same hash-indexed chains; the sorted engine accumulates
//! into sorted, duplicate-free buffers instead of a hash table, and on
//! SetRDD a closure-shaped fixpoint runs the closure kernel instead
//! ([`reach`]).
//!
//! The top-level entry point is [`QueryEngine`]: UCRPQ → μ-RA → rewrite →
//! physical plan → distributed execution with [`CommStats`].

pub mod cluster;
pub mod distrel;
pub mod engine;
pub mod exec;
pub mod fault;
pub mod fixloop;
pub mod localfix;
pub mod metrics;
pub mod proc;
pub mod reach;
pub mod sorted;
pub mod wire;
pub mod worker;

pub use cluster::{
    Cluster, ClusterHealth, CommBackend, ExchangeCtx, ReplicaId, SimBackend, SupervisorEvent,
    SupervisorEventKind,
};
pub use distrel::DistRel;
pub use engine::{explain_plan, PlannedQuery, QueryEngine, QueryOutput, Search, SearchFn};
pub use exec::{DistEvaluator, ExecConfig, ExecStats, FixResume, FixpointPlan, ResourceLimits};
pub use fault::{FaultConfig, FaultPlan, FaultSnapshot, FaultStats, RecoveryPolicy};
pub use localfix::LocalEngine;
pub use metrics::{CommSnapshot, CommStats};
pub use mura_obs::{QueryTrace, TraceLevel};
pub use proc::{ProcCluster, ProcClusterConfig};
pub use wire::{TraceCtx, WorkerSnapshot, WorkerSpan};
