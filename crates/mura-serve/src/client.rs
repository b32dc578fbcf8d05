//! The public handles: [`Server`] owns the worker threads, [`Client`] is
//! everything a caller can ask of a running server.

use crate::admission::Pending;
use crate::error::{ServeError, ServeResult};
use crate::server::{DeltaSummary, ServeConfig, ServerInner};
use crate::telemetry::{self, ServeStats};
use crate::views::Answer;
use mura_core::Database;
use mura_dist::{ClusterHealth, QueryEngine, TraceLevel};
use mura_durable::Wal;
use mura_ivm::DeltaBatch;
use mura_obs::Row;
use std::ops::Deref;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running query server: the worker pool plus the [`Client`] it derefs
/// to — everything but starting and stopping is a `Client` method.
/// Dropping (or [`Server::shutdown`]) stops the pool after draining queued
/// queries.
pub struct Server {
    client: Client,
    workers: Vec<JoinHandle<()>>,
}

impl Deref for Server {
    type Target = Client;

    fn deref(&self) -> &Client {
        &self.client
    }
}

impl Server {
    /// Starts the worker pool over an engine. The engine's `ExecConfig`
    /// (worker count, plan policy, local engine) is used for every query;
    /// `config.limits` and the per-query cancellation token override the
    /// corresponding fields per execution.
    ///
    /// Panics when [`ClusterMode::Processes`](crate::ClusterMode::Processes)
    /// is configured and the worker fleet cannot be spawned — use
    /// [`Server::try_start`] to handle that failure gracefully.
    pub fn start(engine: QueryEngine, config: ServeConfig) -> Server {
        Server::try_start(engine, config).expect("spawn process cluster")
    }

    /// Like [`Server::start`], surfacing process-cluster spawn failures
    /// (missing `mura-worker` binary, exhausted ports) and recovery
    /// failures as an error instead of panicking. With a
    /// [`ServeConfig::data_dir`], the newest valid snapshot is restored and
    /// the WAL tail replayed before any worker thread can observe (or
    /// mutate) anything.
    pub fn try_start(engine: QueryEngine, config: ServeConfig) -> ServeResult<Server> {
        let (inner, queue) = ServerInner::start(engine, config)?;
        let workers = (0..inner.config.workers.max(1))
            .map(|i| {
                let (inner, queue) = (Arc::clone(&inner), Arc::clone(&queue));
                std::thread::Builder::new()
                    .name(format!("mura-serve-{i}"))
                    .spawn(move || inner.admission.work(&queue, |job| inner.process(job)))
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(Server { client: Client { inner }, workers })
    }

    /// Starts a server against a durable data directory, recovering any
    /// state a previous process left there: the newest valid snapshot is
    /// restored and the WAL tail replayed to the exact pre-crash version
    /// (database, cached views, planner feedback). Equivalent to
    /// [`Server::try_start`] except that it *requires*
    /// [`ServeConfig::data_dir`] to be set — call it when restart-safety is
    /// the point, so a misconfigured caller fails loudly instead of
    /// silently serving volatile state.
    pub fn recover(engine: QueryEngine, config: ServeConfig) -> ServeResult<Server> {
        if config.data_dir.is_none() {
            return Err(ServeError::Durability(
                "Server::recover requires ServeConfig::data_dir".into(),
            ));
        }
        Server::try_start(engine, config)
    }

    /// A cheap, cloneable client handle. Clients stay valid for the
    /// server's lifetime; after shutdown they get [`ServeError::Closed`].
    pub fn client(&self) -> Client {
        self.client.clone()
    }

    /// Stops accepting queries, drains the queue and joins the workers —
    /// what dropping the server does.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Graceful shutdown: stop accepting, let queued and in-flight
    /// queries finish within `config.drain_grace` (stragglers are
    /// cancelled, their replies still delivered — no response is ever
    /// dropped), join the workers and return the final counters.
    pub fn drain(mut self) -> ServeStats {
        let stats = self.request_drain();
        self.join();
        stats
    }

    /// Joins the workers, and only then — once every in-flight execution
    /// has finished — stops the process fleet: it is shared, and an
    /// exchange against dead workers would be a spurious failure instead
    /// of a served answer. (`ProcCluster::shutdown` is idempotent.)
    fn join(&mut self) {
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(proc) = &self.inner.proc {
            proc.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.inner.admission.stop();
        }
        self.join();
    }
}

/// The handle to a running [`Server`]: queries, mutations, loads and
/// telemetry. Cloneable and sendable across threads.
#[derive(Clone)]
pub struct Client {
    pub(crate) inner: Arc<ServerInner>,
}

impl Client {
    /// Submits a query and blocks for the answer, under the server's
    /// default deadline (if any).
    pub fn query(&self, query: &str) -> ServeResult<Arc<Answer>> {
        self.submit(query, self.inner.config.default_deadline)?.wait()
    }

    /// Submits a query and blocks for the answer under an explicit
    /// deadline. The deadline clock starts now — queue time counts.
    pub fn query_with_deadline(&self, query: &str, deadline: Duration) -> ServeResult<Arc<Answer>> {
        self.submit(query, Some(deadline))?.wait()
    }

    /// Runs a query with per-superstep tracing forced on, bypassing the
    /// result cache, and blocks for the answer. The output's
    /// `stats.trace` then carries the full [`mura_dist::QueryTrace`]
    /// (superstep timeline, communication per iteration) — see the
    /// `.profile` protocol command.
    pub fn profile(&self, query: &str) -> ServeResult<Arc<Answer>> {
        self.submit_traced(query, self.inner.config.default_deadline, TraceLevel::Superstep)?.wait()
    }

    /// Plans `query` without executing it and renders the planner's
    /// decision procedure — candidate counts, per-group best costs, the
    /// chosen plan, and whether costing used observed cardinalities. The
    /// `.explain` protocol verb lands here.
    pub fn explain(&self, query: &str) -> ServeResult<String> {
        self.inner.planning.explain(query)
    }

    /// Non-blocking submission. Returns a [`Pending`] on admission, or
    /// [`ServeError::Busy`] immediately when the queue is full.
    pub fn submit(&self, query: &str, deadline: Option<Duration>) -> ServeResult<Pending> {
        self.submit_traced(query, deadline, TraceLevel::Off)
    }

    fn submit_traced(
        &self,
        query: &str,
        deadline: Option<Duration>,
        trace: TraceLevel,
    ) -> ServeResult<Pending> {
        let inner = &*self.inner;
        inner.admission.open()?;
        // Overload gates, best effort before queueing: a cached plan gives
        // this query's canonical key (breaker) and byte estimate; a cold
        // query is gated on the live gauge alone and re-checked
        // authoritatively in `process` once planned.
        let cached = inner.planning.peek(query);
        let estimate = || cached.as_ref().map_or(0, |(_, plan)| inner.planning.try_estimate(plan));
        inner.admission.gate(cached.as_ref().map(|(key, _)| *key), estimate, false)?;
        inner.admission.enqueue(query, deadline, trace)
    }

    /// Initiates and completes a graceful drain from any client handle
    /// (the `.drain` protocol verb lands here): stop admissions, let
    /// queued and in-flight queries finish within the configured grace,
    /// cancel stragglers (their replies are still delivered), and stop
    /// the workers. Worker threads stay joinable by the [`Server`] owner.
    /// Returns the final counters; concurrent callers return immediately
    /// with the current counters.
    pub fn request_drain(&self) -> ServeStats {
        self.inner.admission.drain();
        self.stats()
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServeStats {
        telemetry::stats_of(&self.inner)
    }

    /// The `.stats` report: every counter set the server exposes, one line
    /// per family, and the latency quantiles.
    pub fn stats_text(&self) -> String {
        telemetry::stats_text_of(&self.inner)
    }

    /// The full telemetry as a Prometheus text-exposition page.
    pub fn metrics(&self) -> String {
        telemetry::metrics_of(&self.inner)
    }

    /// Every declared counter the server exposes — its own set and those
    /// of the layers below — with its current value: what `.stats` and
    /// `.metrics` are rendered from.
    pub fn counter_rows(&self) -> Vec<Row> {
        telemetry::rows_of(&self.inner)
    }

    /// Supervisor health of the process cluster, if one is configured
    /// ([`ClusterMode::Processes`](crate::ClusterMode::Processes)); `None`
    /// for the in-process simulator.
    pub fn cluster_health(&self) -> Option<ClusterHealth> {
        self.inner.proc.as_ref().map(|p| p.health_snapshot())
    }

    /// Current database epoch (bumped by [`Client::load`] calls that
    /// change the catalog's shape).
    pub fn epoch(&self) -> u64 {
        self.inner.clocks.epoch()
    }

    /// Current database version (bumped by every mutation and load).
    pub fn version(&self) -> u64 {
        self.inner.clocks.version()
    }

    /// Applies an edge-level [`DeltaBatch`] without a reload: logged,
    /// applied, acknowledged. No cached view is touched — the next read of
    /// one brings it forward over the batches it missed (insertions seed
    /// the drivers' semi-naive delta loop from the old total, deletions run
    /// DRed — see `mura_ivm`) or, where the maintenance planner cannot or
    /// should not, executes it fresh. The `.insert` and `.delete` protocol
    /// verbs land here.
    pub fn apply_delta(&self, batch: DeltaBatch) -> ServeResult<DeltaSummary> {
        self.inner.apply_delta(batch)
    }

    /// Mutates the database (load relations, bind constants) and bumps the
    /// version so cached results for the old contents are never served
    /// again. Blocks until in-flight executions finish. A load that changes
    /// the catalog's *shape* also bumps the epoch; a same-shape load (data
    /// refresh) keeps plans, breakers and cost history — see
    /// `ServerInner::install`.
    ///
    /// Panics if the load cannot be logged; see [`Client::try_load`].
    pub fn load(&self, f: impl FnOnce(&mut Database)) {
        self.try_load(f).expect("durable load");
    }

    /// Like [`Client::load`], surfacing durability failures (the WAL
    /// append of the post-load database) instead of panicking; the server
    /// is then exactly as it was before the call. Without a
    /// [`ServeConfig::data_dir`] this cannot fail.
    pub fn try_load(&self, f: impl FnOnce(&mut Database)) -> ServeResult<()> {
        self.inner.load_with(f, Wal::append_load)
    }

    /// Read access to the database (resolve symbols, list relations).
    pub fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(self.inner.planning.read_engine().db())
    }
}
