//! Distributed evaluation of μ-RA terms: physical plan selection and the
//! `P_gld` / `P_plw` fixpoint plans (paper §IV).
//!
//! Non-recursive operators map to partitioned dataset operations (the role
//! Spark's Dataset API plays in the paper). For every fixpoint the
//! `PhysicalPlanGenerator` logic applies (§IV-B c): *if the fixpoint has a
//! stable column, repartition the constant part by it and run `P_plw`
//! (parallel local loops, no communication during recursion, no final
//! distinct); otherwise run `P_gld` (global driver loop, one shuffle per
//! iteration).*

use crate::cluster::{Cluster, CommBackend, ReplicaId};
use crate::distrel::{split_by_key, DistRel};
use crate::fault::{FaultConfig, FaultPlan, FaultSnapshot, RecoveryPolicy};
use crate::fixloop::{self, Superstep, Supervision};
use crate::localfix::{eval_branch, prepare_all, prepare_local, Budget, LocalEngine, Prepared};
use crate::metrics::CommSnapshot;
use crate::wire::TraceCtx;
use mura_core::analysis::{check_fcond, decompose_fixpoint, stable_columns, TypeEnv};
use mura_core::fxhash::FxHashMap;
use mura_core::kernel::kernel_stats;
use mura_core::{
    CancellationToken, Database, KernelSnapshot, MuraError, Relation, Result, Rows, Schema, Sym,
    Term,
};
use mura_obs::trace::{EventKind, PlanKind, QueryTrace, TraceEvent, TraceLevel, TraceSink};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixpoint plan selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FixpointPlan {
    /// The paper's policy: `P_plw` when a stable column exists, else
    /// `P_gld`.
    #[default]
    Auto,
    /// Always use the global driver loop (the paper's "Dist-μ-RA with
    /// P_gld" configuration of Fig. 9).
    ForceGld,
    /// Always use parallel local loops (without a stable column this adds
    /// a final global distinct, per Proposition 3).
    ForcePlw,
}

/// Row/byte/time budgets; exceeding them aborts with
/// [`MuraError::ResourceExhausted`] / [`MuraError::MemoryExceeded`] /
/// [`MuraError::Timeout`] — how the paper's "system crashed" and "timeout"
/// outcomes are reproduced honestly.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResourceLimits {
    pub max_rows: Option<u64>,
    /// Estimated-byte budget for materialized state (deltas, accumulators,
    /// cached join indexes and folded constants). Enforced in both
    /// fixpoint plans; a breach yields [`MuraError::MemoryExceeded`]
    /// instead of letting the query run the process out of memory.
    pub max_bytes: Option<u64>,
    pub timeout: Option<Duration>,
}

/// Relations up to this many rows are broadcast instead of shuffled.
const BROADCAST_THRESHOLD: usize = 1_000_000;

/// Execution configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Number of workers (the paper's cluster has 4).
    pub workers: usize,
    /// Fixpoint plan policy.
    pub plan: FixpointPlan,
    /// Local engine for `P_plw` loops.
    pub local_engine: LocalEngine,
    /// Budgets.
    pub limits: ResourceLimits,
    /// Cooperative cancellation / per-request deadline, checked at every
    /// fixpoint superstep and inside every recovery/retry loop.
    pub cancel: Option<CancellationToken>,
    /// Deterministic fault injection (all probabilities zero by default:
    /// nothing is injected).
    pub fault: FaultConfig,
    /// Task retry / checkpoint restore policy.
    pub recovery: RecoveryPolicy,
    /// Checkpoint fixpoint state every this many supersteps (`0` = off).
    /// Checkpoints are cheap (`Relation` is copy-on-write) but not free, so
    /// the fault-free default leaves them off.
    pub checkpoint_every: u64,
    /// Per-query trace level. At [`TraceLevel::Off`] (the default) no sink
    /// exists and the fixpoint hot loops pay only a `None` check.
    pub trace: TraceLevel,
    /// Serving-layer job id propagated in the wire trace context (0 when
    /// the query runs outside the server).
    pub query_id: u64,
    /// Capture every fixpoint's final total into
    /// [`ExecStats::fix_totals`], keyed by the structural
    /// [`mura_core::term_key`] of its `Fix` subterm. The serving layer
    /// enables this for cacheable queries so incremental view maintenance
    /// can later resume the semi-naive loop from the captured total
    /// instead of recomputing from the seed. The captured copy is charged
    /// against the byte budget.
    pub capture_fixpoints: bool,
    /// Resume state per fixpoint (same keying as `capture_fixpoints`).
    /// When a `Fix` subterm's key is present, the driver starts its
    /// semi-naive loop from `acc ∪ seed ∪ delta` with frontier
    /// `delta ∪ (seed \ acc)` instead of from the seed — the incremental
    /// maintenance path after a database delta.
    pub resume: Option<Arc<FxHashMap<u64, FixResume>>>,
    /// Process fleet. `None` (the default) keeps every row in process;
    /// `Some` plugs in a
    /// [`crate::proc::ProcCluster`] so exchanges and broadcasts cross real
    /// sockets. The worker count must match [`ExecConfig::workers`].
    pub backend: Option<Arc<dyn CommBackend>>,
}

/// Resumable fixpoint state for incremental view maintenance (see
/// [`ExecConfig::resume`]): `acc` is the maintained total (survivors after
/// delete-rederive over-deletion, or the prior total for insert-only
/// deltas) and `delta` is the maintenance frontier — the one-step
/// derivations a database delta introduced, from which the ordinary
/// semi-naive loop continues. Invariant: `delta ⊆ acc` is **not** required
/// here; the driver unions the frontier into the accumulator itself.
#[derive(Debug, Clone)]
pub struct FixResume {
    /// Starting accumulator.
    pub acc: Relation,
    /// Starting frontier.
    pub delta: Relation,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            workers: 4,
            plan: FixpointPlan::Auto,
            local_engine: LocalEngine::SetRdd,
            limits: ResourceLimits::default(),
            cancel: None,
            fault: FaultConfig::default(),
            recovery: RecoveryPolicy::default(),
            checkpoint_every: 0,
            trace: TraceLevel::Off,
            query_id: 0,
            capture_fixpoints: false,
            resume: None,
            backend: None,
        }
    }
}

/// Counters reported after a distributed evaluation.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Fixpoint iterations across all fixpoints.
    pub fixpoint_iterations: u64,
    /// Fixpoints executed with `P_plw`.
    pub plw_fixpoints: u64,
    /// Fixpoints executed with `P_gld`.
    pub gld_fixpoints: u64,
    /// Total rows materialized (budget meter).
    pub produced_rows: u64,
    /// Kernel-level counters (index builds, probes, folds, per-iteration
    /// timings) accumulated during this evaluation. Note: the underlying
    /// counters are process-wide, so concurrent evaluations overlap.
    pub kernel: KernelSnapshot,
    /// Fault-injection and recovery counters for this evaluation. All-zero
    /// on a clean run; [`FaultSnapshot::recovered`] marks a degraded (but
    /// correct) execution.
    pub fault: FaultSnapshot,
    /// Per-query trace, recorded when [`ExecConfig::trace`] is above
    /// [`TraceLevel::Off`]. Present even when evaluation failed, so partial
    /// timelines of aborted queries can be inspected.
    pub trace: Option<QueryTrace>,
    /// Final totals of every fixpoint evaluated with
    /// [`ExecConfig::capture_fixpoints`] set, keyed by the structural
    /// [`mura_core::term_key`] of the `Fix` subterm. `None` when capture
    /// was off.
    pub fix_totals: Option<FxHashMap<u64, Relation>>,
}

/// A value during distributed evaluation: partitioned, or replicated to
/// every worker (a Spark broadcast variable).
#[derive(Clone)]
enum DVal {
    Dist(DistRel),
    Repl(Arc<Relation>),
}

impl DVal {
    fn schema(&self) -> &Schema {
        match self {
            DVal::Dist(d) => d.schema(),
            DVal::Repl(r) => r.schema(),
        }
    }

    fn len(&self) -> usize {
        match self {
            DVal::Dist(d) => d.len(),
            DVal::Repl(r) => r.len(),
        }
    }

    fn into_dist(self, cluster: &Cluster) -> DistRel {
        match self {
            DVal::Dist(d) => d,
            // Materializing a replicated value into partitions drops the
            // extra copies — a local operation, no communication.
            DVal::Repl(r) => DistRel::from_relation(&r, cluster),
        }
    }
}

/// A gathered loop invariant a fixpoint broadcasts in its `Setup` window,
/// with its identity across queries.
type Owed = (Arc<Relation>, Option<ReplicaId>);

/// Distributed evaluator for μ-RA terms.
pub struct DistEvaluator<'db> {
    db: &'db Database,
    cluster: Cluster,
    config: ExecConfig,
    stats: ExecStats,
    budget: Budget,
    /// Kernel counters at construction time; `stats.kernel` reports the
    /// delta accumulated by this evaluator.
    kernel_base: KernelSnapshot,
    /// Event recorder, present when [`ExecConfig::trace`] is above `Off`.
    sink: Option<Arc<TraceSink>>,
}

/// Counter baselines captured at the start of a traced window.
struct Probe {
    comm: CommSnapshot,
    kernel: KernelSnapshot,
    faults: u64,
    t_us: u64,
}

impl<'db> DistEvaluator<'db> {
    /// New evaluator over a database with the given configuration.
    pub fn new(db: &'db Database, config: ExecConfig) -> Self {
        let fault = Arc::new(FaultPlan::new(config.fault));
        let mut cluster = Cluster::new(config.workers)
            .with_faults(fault, config.recovery)
            .with_cancel(config.cancel.clone());
        if let Some(backend) = &config.backend {
            cluster = cluster.with_backend(Arc::clone(backend));
        }
        let budget = Budget::new(config.limits.max_rows, None)
            .with_timeout(config.limits.timeout)
            .with_max_bytes(config.limits.max_bytes)
            .with_cancel(config.cancel.clone());
        let sink = (config.trace > TraceLevel::Off).then(|| Arc::new(TraceSink::new(config.trace)));
        if let Some(s) = &sink {
            // Publish the query's wire trace context up front so even
            // pre-fixpoint exchanges (e.g. a distinct) carry it.
            cluster.set_trace_ctx(TraceCtx {
                trace_id: s.trace_id(),
                query_id: config.query_id,
                fixpoint: 0,
                superstep: 0,
                level: config.trace as u8,
            });
        }
        DistEvaluator {
            db,
            cluster,
            config,
            stats: ExecStats::default(),
            budget,
            kernel_base: kernel_stats().snapshot(),
            sink,
        }
    }

    /// The underlying cluster (for communication metrics).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Execution counters.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Evaluates a closed term and collects the result on the driver.
    pub fn eval_collect(&mut self, term: &Term) -> Result<Relation> {
        check_fcond(term)?;
        let v = self.eval(term);
        self.stats.kernel = kernel_stats().snapshot().since(&self.kernel_base);
        self.stats.fault = self.cluster.fault().snapshot();
        // Attach the trace before the `?` so aborted queries keep theirs
        // (including whatever worker-side spans made it back so far).
        self.flush_worker_trace();
        self.stats.trace = self.sink.as_ref().map(|s| s.finish());
        let out = match v? {
            DVal::Dist(d) => d.distinct(&self.cluster)?.into_relation(),
            DVal::Repl(r) => (*r).clone(),
        };
        self.stats.fault = self.cluster.fault().snapshot();
        self.flush_worker_trace();
        self.stats.trace = self.sink.as_ref().map(|s| s.finish());
        Ok(out)
    }

    fn charge(&mut self, rows: usize, arity: usize) -> Result<()> {
        charge(&self.budget, &mut self.stats.produced_rows, rows, arity)
    }

    fn eval(&mut self, term: &Term) -> Result<DVal> {
        let out = match term {
            Term::Var(v) => match self.db.relation(*v) {
                Some(rel) => DVal::Dist(DistRel::from_relation(rel, &self.cluster)),
                None => return Err(MuraError::UnboundVariable(*v)),
            },
            Term::Cst(r) => {
                if r.len() <= BROADCAST_THRESHOLD {
                    // Driver-side constant shipped to every worker; no
                    // catalog version names its rows.
                    self.cluster.broadcast_rel(r, None)?;
                    DVal::Repl(r.clone())
                } else {
                    DVal::Dist(DistRel::from_relation(r, &self.cluster))
                }
            }
            Term::Filter(preds, t) => match self.eval(t)? {
                DVal::Dist(d) => DVal::Dist(d.filter_preds(preds, &self.cluster)?),
                DVal::Repl(r) => DVal::Repl(Arc::new(mura_core::eval::apply_filter(&r, preds)?)),
            },
            Term::Rename(from, to, t) => {
                let child = self.eval(t)?;
                self.check_rename(child.schema(), *from, *to)?;
                match child {
                    DVal::Dist(d) => DVal::Dist(d.rename(*from, *to, &self.cluster)?),
                    DVal::Repl(r) => DVal::Repl(Arc::new(r.rename(*from, *to))),
                }
            }
            Term::AntiProject(cols, t) => {
                let child = self.eval(t)?;
                for c in cols {
                    if !child.schema().contains(*c) {
                        return Err(MuraError::UnknownColumn {
                            column: *c,
                            schema: child.schema().clone(),
                            context: "antiprojection",
                        });
                    }
                }
                match child {
                    DVal::Dist(d) => {
                        // Dropping columns can create duplicates across
                        // partitions; dedup before further use.
                        DVal::Dist(d.antiproject(cols, &self.cluster)?.distinct(&self.cluster)?)
                    }
                    DVal::Repl(r) => DVal::Repl(Arc::new(r.antiproject(cols))),
                }
            }
            Term::Join(a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                self.join((a, va), (b, vb))?
            }
            Term::Antijoin(a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                self.antijoin(va, (b, vb))?
            }
            Term::Union(a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                if va.schema() != vb.schema() {
                    return Err(MuraError::SchemaMismatch {
                        left: va.schema().clone(),
                        right: vb.schema().clone(),
                        context: "union",
                    });
                }
                match (va, vb) {
                    (DVal::Repl(x), DVal::Repl(y)) => DVal::Repl(Arc::new(x.union(&y))),
                    (x, y) => {
                        let dx = x.into_dist(&self.cluster);
                        let dy = y.into_dist(&self.cluster);
                        DVal::Dist(dx.union(&dy, &self.cluster)?)
                    }
                }
            }
            Term::Fix(x, body) => DVal::Dist(self.eval_fixpoint(term, *x, body)?),
        };
        self.charge(out.len(), out.schema().arity())?;
        Ok(out)
    }

    fn check_rename(&self, schema: &Schema, from: Sym, to: Sym) -> Result<()> {
        if !schema.contains(from) {
            return Err(MuraError::UnknownColumn {
                column: from,
                schema: schema.clone(),
                context: "rename",
            });
        }
        if schema.rename(from, to).is_none() {
            return Err(MuraError::RenameCollision { from, to, schema: schema.clone() });
        }
        Ok(())
    }

    /// The identity across queries of the value of closed subterm `t`
    /// ([`ReplicaId`]); `None` when `t` holds a constant relation, whose
    /// rows no catalog version names.
    fn replica_id(&self, t: &Term) -> Option<ReplicaId> {
        fn holds_cst(t: &Term) -> bool {
            matches!(t, Term::Cst(_)) || t.children().into_iter().any(holds_cst)
        }
        if holds_cst(t) {
            return None;
        }
        let mut version = 0;
        for v in t.free_vars() {
            version = version.max(self.db.relation_version(v)?);
        }
        Some(ReplicaId { term: mura_core::term_key(t), version })
    }

    /// The join of the values `va` and `vb` of subterms `a` and `b`.
    fn join(&mut self, (a, va): (&Term, DVal), (b, vb): (&Term, DVal)) -> Result<DVal> {
        Ok(match (va, vb) {
            (DVal::Repl(x), DVal::Repl(y)) => DVal::Repl(Arc::new(x.join(&y))),
            // A replicated side joins locally on every worker (the
            // broadcast was already charged when the value was created).
            (DVal::Dist(d), DVal::Repl(r)) | (DVal::Repl(r), DVal::Dist(d)) => {
                DVal::Dist(d.join_local(&r, &self.cluster)?)
            }
            (DVal::Dist(x), DVal::Dist(y)) => {
                let common = x.schema().intersection(y.schema());
                if x.len().min(y.len()) <= BROADCAST_THRESHOLD || common.is_empty() {
                    let (small, big, t) = if x.len() <= y.len() { (x, y, a) } else { (y, x, b) };
                    let rel = small.into_relation();
                    self.cluster.broadcast_rel(&rel, self.replica_id(t))?;
                    DVal::Dist(big.join_local(&rel, &self.cluster)?)
                } else {
                    DVal::Dist(x.join_shuffle(&y, &self.cluster)?)
                }
            }
        })
    }

    /// The antijoin of `va` by the value `vb` of subterm `b`.
    fn antijoin(&mut self, va: DVal, (b, vb): (&Term, DVal)) -> Result<DVal> {
        Ok(match (va, vb) {
            (DVal::Repl(x), DVal::Repl(y)) => DVal::Repl(Arc::new(x.antijoin(&y))),
            (DVal::Dist(d), DVal::Repl(r)) => DVal::Dist(d.antijoin_local(&r, &self.cluster)?),
            (DVal::Repl(x), DVal::Dist(y)) => {
                let dx = DistRel::from_relation(&x, &self.cluster);
                self.antijoin(DVal::Dist(dx), (b, DVal::Dist(y)))?
            }
            (DVal::Dist(x), DVal::Dist(y)) => {
                let common = x.schema().intersection(y.schema());
                if y.len() <= BROADCAST_THRESHOLD || common.is_empty() {
                    let rel = y.into_relation();
                    self.cluster.broadcast_rel(&rel, self.replica_id(b))?;
                    DVal::Dist(x.antijoin_local(&rel, &self.cluster)?)
                } else {
                    DVal::Dist(x.antijoin_shuffle(&y, &self.cluster)?)
                }
            }
        })
    }

    // ------------------------------------------------------------- tracing

    /// Baseline for a traced window; `None` when tracing is off, so the
    /// untraced cost is a single `Option` check.
    fn probe(&self) -> Option<Probe> {
        self.sink.as_ref().map(|s| Probe {
            comm: self.cluster.metrics().snapshot(),
            kernel: kernel_stats().snapshot(),
            faults: self.cluster.fault().snapshot().injected(),
            t_us: s.now_us(),
        })
    }

    /// Like [`Self::probe`], but only at [`TraceLevel::Superstep`].
    fn probe_superstep(&self) -> Option<Probe> {
        if self.sink.as_deref().is_some_and(|s| s.superstep_enabled()) {
            self.probe()
        } else {
            None
        }
    }

    /// Records `ev` carrying the comm/kernel/fault deltas accumulated since
    /// `probe` and the window's wall time. No-op when `probe` is `None`.
    fn record_window(&self, probe: &Option<Probe>, mut ev: TraceEvent) {
        let (Some(sink), Some(p)) = (self.sink.as_deref(), probe.as_ref()) else { return };
        let comm = self.cluster.metrics().snapshot().since(&p.comm);
        let kernel = kernel_stats().snapshot().since(&p.kernel);
        ev.shuffles = comm.shuffles;
        ev.rows_shuffled = comm.rows_shuffled;
        ev.broadcasts = comm.broadcasts;
        ev.rows_broadcast = comm.rows_broadcast;
        ev.wire_exchange_bytes = comm.wire_exchange_bytes;
        ev.index_builds = kernel.index_builds + kernel.key_index_builds;
        ev.join_probes = kernel.join_probes;
        ev.antijoin_probes = kernel.antijoin_probes;
        ev.faults = self.cluster.fault().snapshot().injected().saturating_sub(p.faults);
        ev.t_us = p.t_us;
        ev.dur_us = sink.now_us().saturating_sub(p.t_us);
        sink.record(ev);
    }

    /// Records a point event (fixpoint start/end, recovery): timestamped
    /// but without a counter window.
    fn record_point(&self, mut ev: TraceEvent) {
        if let Some(sink) = &self.sink {
            ev.t_us = sink.now_us();
            sink.record(ev);
        }
    }

    /// Publishes `(fixpoint, superstep)` into the wire trace context so
    /// data-plane frames sent by subsequent exchanges/broadcasts carry
    /// the position that caused them. No-op when tracing is off.
    fn set_trace_step(&self, fixpoint: u32, superstep: u32) {
        let Some(sink) = self.sink.as_deref() else { return };
        self.cluster.set_trace_ctx(TraceCtx {
            trace_id: sink.trace_id(),
            query_id: self.config.query_id,
            fixpoint,
            superstep,
            level: sink.level() as u8,
        });
    }

    /// Drains worker-side spans (process fleet) into the coordinator sink
    /// as clock-aligned worker-lane events. No-op when tracing is off or
    /// there is no fleet.
    fn flush_worker_trace(&self) {
        let Some(sink) = self.sink.as_deref() else { return };
        let (events, dropped) = self.cluster.flush_trace(sink.trace_id(), sink.start_instant());
        for ev in events {
            sink.record(ev);
        }
        sink.add_dropped(dropped);
    }

    // ------------------------------------------------------------ fixpoint

    fn eval_fixpoint(&mut self, fix_term: &Term, x: Sym, body: &Term) -> Result<DistRel> {
        // The structural key ties this `Fix` subterm to captured totals and
        // resume state; only computed when either feature is on.
        let key = (self.config.capture_fixpoints || self.config.resume.is_some())
            .then(|| mura_core::term_key(fix_term));
        let resume: Option<FixResume> =
            key.and_then(|k| self.config.resume.as_ref().and_then(|m| m.get(&k))).cloned();
        let (consts, recs) = decompose_fixpoint(x, body)?;
        // Constant part.
        let mut seed: Option<DVal> = None;
        for c in &consts {
            let v = self.eval(c)?;
            seed = Some(match seed {
                None => v,
                Some(s) => {
                    if s.schema() != v.schema() {
                        return Err(MuraError::SchemaMismatch {
                            left: s.schema().clone(),
                            right: v.schema().clone(),
                            context: "fixpoint constant part",
                        });
                    }
                    let ds = s.into_dist(&self.cluster);
                    let dv = v.into_dist(&self.cluster);
                    DVal::Dist(ds.union(&dv, &self.cluster)?)
                }
            });
        }
        let seed = seed.expect("decompose guarantees a constant part").into_dist(&self.cluster);
        let seed = seed.distinct(&self.cluster)?;
        if recs.is_empty() {
            return self.capture_total(key, seed);
        }
        // Fold the (possibly changed) seed into the maintained state:
        // acc₀ = acc ∪ seed ∪ delta and delta₀ = delta ∪ (seed \ acc), so
        // the drivers below iterate only over what the mutation could have
        // changed while the accumulator already holds everything known.
        let initial: Option<(Relation, Relation)> = match resume {
            Some(r) => {
                let seed_rel = seed.collect();
                if seed_rel.schema() != r.acc.schema() || seed_rel.schema() != r.delta.schema() {
                    return Err(MuraError::SchemaMismatch {
                        left: seed_rel.schema().clone(),
                        right: r.acc.schema().clone(),
                        context: "fixpoint resume state",
                    });
                }
                let mut delta0 = r.delta.clone();
                for row in seed_rel.iter() {
                    if !r.acc.contains(row) {
                        delta0.insert(row);
                    }
                }
                let mut acc0 = r.acc;
                for row in delta0.iter() {
                    // acc ∪ seed ∪ delta = acc ∪ delta₀ (seed rows outside
                    // acc were just folded into delta₀).
                    acc0.insert(row);
                }
                self.charge(acc0.len() + delta0.len(), acc0.schema().arity())?;
                Some((acc0, delta0))
            }
            None => None,
        };
        // Hoist loop invariants: x-free subterms of the recursive branches
        // are evaluated once, here, and become constants.
        let mut owed = Vec::new();
        let recs: Vec<Term> =
            recs.iter().map(|r| self.hoist(r, x, &mut owed)).collect::<Result<_>>()?;
        // Plan selection (§IV-B c): stable column → P_plw, else P_gld.
        let stable = stable_columns(x, body, &mut TypeEnv::from_db(self.db))?;
        let plw = match self.config.plan {
            FixpointPlan::Auto => !stable.is_empty(),
            plan => plan == FixpointPlan::ForcePlw,
        };
        let out = if plw {
            self.stats.plw_fixpoints += 1;
            self.eval_plw(x, seed, (&recs, &owed), &stable, initial)?
        } else {
            self.stats.gld_fixpoints += 1;
            self.eval_gld(x, seed, (&recs, &owed), initial)?
        };
        self.capture_total(key, out)
    }

    /// Collects `rel` into [`ExecStats::fix_totals`] under `key` when
    /// capture is enabled, and hands the fixpoint's value back. A
    /// hash-placed value is gathered by moving its rows and goes on whole
    /// (placement is a function of the key, so its partitions come back
    /// the same if anything asks for them); the captured total is then the
    /// same storage, not a copy. The driver-side total is charged against
    /// the byte budget like any other materialized state.
    fn capture_total(&mut self, key: Option<u64>, rel: DistRel) -> Result<DistRel> {
        let Some(k) = key.filter(|_| self.config.capture_fixpoints) else { return Ok(rel) };
        let (total, rel) = match rel.partitioned_by().map(<[Sym]>::to_vec) {
            Some(by) => {
                let total = rel.into_relation();
                (total.clone(), DistRel::placed(total, by, self.cluster.workers()))
            }
            None => (rel.collect(), rel),
        };
        self.budget
            .charge_bytes(mura_core::rel_bytes(total.len() as u64, total.schema().arity()))?;
        self.stats.fix_totals.get_or_insert_with(FxHashMap::default).insert(k, total);
        Ok(rel)
    }

    /// Replaces the maximal `x`-free subterms of a recursive branch by the
    /// constants they evaluate to, once per fixpoint. Workers need a loop
    /// invariant whole: a partitioned value is gathered here and added to
    /// `owed` with its identity, the relations [`Self::in_bracket`]
    /// broadcasts inside the fixpoint's `Setup` window.
    fn hoist(&mut self, t: &Term, x: Sym, owed: &mut Vec<Owed>) -> Result<Term> {
        if t.has_free_var(x) {
            return t.try_map_children(|c| self.hoist(c, x, owed));
        }
        Ok(Term::Cst(match self.eval(t)? {
            DVal::Repl(r) => r,
            DVal::Dist(d) => {
                let rel = Arc::new(d.into_relation());
                owed.push((Arc::clone(&rel), self.replica_id(t)));
                rel
            }
        }))
    }

    /// What the loops of fixpoint `fx` run under; `site` is the fault site
    /// of its worker loops.
    fn supervision(&self, fx: u32, plan: PlanKind, site: u64) -> Supervision<'_> {
        Supervision {
            budget: &self.budget,
            fault: self.cluster.fault(),
            site,
            recovery: self.config.recovery,
            checkpoint_every: self.config.checkpoint_every,
            trace: self.sink.as_deref(),
            fixpoint: fx,
            plan,
        }
    }

    /// Runs one fixpoint inside its trace bracket: `FixpointStart`, then
    /// the `Setup` window — the plan's own `setup` and the broadcast of the
    /// gathered invariants `owed`, all the communication a `P_plw` fixpoint
    /// ever does — then `run`, which returns the fixpoint and the iteration
    /// it was reached in, and `FixpointEnd`.
    fn in_bracket<S>(
        &mut self,
        plan: PlanKind,
        seed_rows: usize,
        owed: &[Owed],
        setup: impl FnOnce(&mut Self) -> Result<S>,
        run: impl FnOnce(&mut Self, u32, S) -> Result<(DistRel, u64)>,
    ) -> Result<DistRel> {
        let fx = self.sink.as_ref().map_or(0, |s| s.next_fixpoint());
        self.set_trace_step(fx, 0);
        let mut start_ev = TraceEvent::new(EventKind::FixpointStart, fx, plan);
        start_ev.delta_rows = seed_rows as u64;
        self.record_point(start_ev);
        let window = self.probe();
        let ready = setup(self)?;
        for (rel, id) in owed {
            self.cluster.broadcast_rel(rel, *id)?;
        }
        self.record_window(&window, TraceEvent::new(EventKind::Setup, fx, plan));
        let (out, iterations) = run(self, fx, ready)?;
        self.set_trace_step(fx, 0);
        self.flush_worker_trace();
        let mut end_ev = TraceEvent::new(EventKind::FixpointEnd, fx, plan);
        end_ev.iteration = iterations;
        end_ev.delta_rows = out.len() as u64;
        self.record_point(end_ev);
        Ok(out)
    }

    /// `P_gld`: the driver iterates; every step applies the prepared
    /// branch kernels partition-wise to the delta (loop invariants folded
    /// and indexed once, before the loop starts), and accumulating what
    /// they produced forces a shuffle of the new tuples each iteration
    /// (paper §IV-A1). The loop is [`fixloop::run`] over [`DriverStep`].
    fn eval_gld(
        &mut self,
        x: Sym,
        seed: DistRel,
        (recs, owed): (&[Term], &[Owed]),
        initial: Option<(Relation, Relation)>,
    ) -> Result<DistRel> {
        // Compile the branches once per fixpoint: constant folding and
        // join-index builds happen here, not inside the driver loop.
        // Branch-wise evaluation distributes over delta partitions because
        // F_cond guarantees linear recursion with `x` in monotone positions.
        let setup = |ev: &mut Self| prepare_all(recs, x, seed.schema(), &ev.budget);
        self.in_bracket(PlanKind::Gld, seed.len(), owed, setup, |ev, fx, prepared| {
            let sup = ev.supervision(fx, PlanKind::Gld, 0);
            let mut step = DriverStep { ev, prepared: &prepared, produced_rows: 0 };
            // A resumed fixpoint starts from the maintained accumulator and
            // frontier instead of the seed.
            let fixed = fixloop::run(&sup, &mut step, || match &initial {
                Some((a, d)) => {
                    (DistRel::from_relation(a, &ev.cluster), DistRel::from_relation(d, &ev.cluster))
                }
                None => (seed.clone(), seed.clone()),
            });
            ev.stats.produced_rows += step.produced_rows;
            let fixed = fixed?;
            ev.stats.fixpoint_iterations += fixed.supersteps;
            Ok((fixed.total, fixed.iterations))
        })
    }

    /// `P_plw`: repartition the constant part (by the stable columns when
    /// available), broadcast the loop invariants, and let every worker run
    /// its own local fixpoint. With a stable-column partitioning the local
    /// results are disjoint, so no final distinct is needed (§IV-A2).
    fn eval_plw(
        &mut self,
        x: Sym,
        seed: DistRel,
        (recs, owed): (&[Term], &[Owed]),
        stable: &[Sym],
        initial: Option<(Relation, Relation)>,
    ) -> Result<DistRel> {
        let seed_rows = seed.len();
        // Resumed state is partitioned exactly like the seed (by the stable
        // columns when they exist), so every worker's local loop sees the
        // accumulator and frontier rows of its own key range. Without a
        // stable column the partitioning is arbitrary: local loops may
        // re-derive rows another partition already holds, which the final
        // distinct removes (the Prop. 3 general case).
        let setup = |ev: &mut Self| -> Result<(DistRel, Option<(DistRel, DistRel)>)> {
            let cluster = &ev.cluster;
            let place = |rel: DistRel| match stable {
                [] => Ok(rel),
                _ => rel.repartition(stable, cluster),
            };
            let seed = place(seed)?;
            let placed = |rel: &Relation| place(DistRel::from_relation(rel, cluster));
            let resumed =
                initial.as_ref().map(|(a, d)| Ok((placed(a)?, placed(d)?))).transpose()?;
            Ok((seed, resumed))
        };
        self.in_bracket(PlanKind::Plw, seed_rows, owed, setup, |ev, fx, (seed, resumed)| {
            let resumed = resumed.as_ref().map(|(a, d)| (a, d));
            let parts = ev.run_plw(&seed, recs, x, fx, resumed)?;
            ev.stats.fixpoint_iterations += 1; // the parallel local loops count once globally
            let by = (!stable.is_empty()).then(|| stable.to_vec());
            let out = DistRel::from_parts(seed.schema().clone(), parts, by);
            // Prop. 3 general case: local fixpoints may overlap.
            let out = if stable.is_empty() { out.distinct(&ev.cluster)? } else { out };
            Ok((out, 0))
        })
    }

    /// Runs the per-worker local loops of `P_plw`. The branches are
    /// prepared **once per fixpoint** — constant folding and the join-index
    /// or adjacency build are shared by every worker, so `index_builds`
    /// counts fixpoints, not workers or iterations — and not at all when
    /// there is no seed and nothing to resume: every worker then returns
    /// its empty part, in a stage that still runs, so that fault sites and
    /// rolls stay where they are.
    ///
    /// Every worker runs [`LocalLoops::run`](crate::localfix::LocalLoops::run);
    /// all workers of one fixpoint share one fault site, allocated
    /// driver-side.
    fn run_plw(
        &self,
        seed: &DistRel,
        recs: &[Term],
        x: Sym,
        fx: u32,
        resumed: Option<(&DistRel, &DistRel)>,
    ) -> Result<Vec<Relation>> {
        let no_seed = resumed.is_none() && seed.is_empty();
        // A resumed fixpoint iterates from its maintained state, which only
        // the chains take.
        let kernel = resumed.is_none().then(|| seed.len());
        let engine = self.config.local_engine;
        let loops = if no_seed {
            None
        } else {
            Some(prepare_local(recs, x, seed.schema(), engine, kernel, &self.budget)?)
        };
        let sup = self.supervision(fx, PlanKind::Plw, self.cluster.fault().next_site());
        // A local fixpoint costs what it derives, which its seed does not
        // bound — unless there is no seed (and no frontier to resume).
        let idle = |part: &Relation| resumed.is_none() && part.is_empty();
        let rows = |part: &Relation| if idle(part) { 0 } else { usize::MAX };
        self.cluster.try_par_map_sized(seed.parts(), rows, |w, part| {
            let Some(loops) = &loops else { return Ok(part.clone()) };
            // This worker's slice of the maintained accumulator/frontier,
            // co-partitioned with the seed above.
            let initial = resumed.map(|(a, d)| (&a.parts()[w], &d.parts()[w]));
            loops.run(part, &sup, w, initial)
        })
    }
}

/// Charges a materialized value of `rows` rows against `budget`, tallying
/// it in `produced`.
fn charge(budget: &Budget, produced: &mut u64, rows: usize, arity: usize) -> Result<()> {
    *produced += rows as u64;
    charge_budget(budget, rows, arity)
}

/// Charges `rows` rows of `arity` columns against `budget`'s row and byte
/// caps.
fn charge_budget(budget: &Budget, rows: usize, arity: usize) -> Result<()> {
    budget.charge(rows as u64)?;
    budget.charge_bytes(mura_core::rel_bytes(rows as u64, arity))
}

/// The `P_gld` superstep, two stages around one exchange: every worker
/// applies the branches to its delta partition and routes what they
/// produced by the accumulator's key, the full row; the exchange delivers
/// each worker its rows; every worker accumulates them into its partition
/// of the accumulator in place.
struct DriverStep<'a, 'db> {
    ev: &'a DistEvaluator<'db>,
    prepared: &'a [Prepared],
    /// Rows charged by the supersteps so far, owed to
    /// [`ExecStats::produced_rows`].
    produced_rows: u64,
}

impl Superstep for DriverStep<'_, '_> {
    type State = DistRel;

    fn rows(state: &DistRel) -> u64 {
        state.len() as u64
    }

    fn step(
        &mut self,
        sup: &Supervision<'_>,
        acc: &mut DistRel,
        delta: &DistRel,
        iteration: u64,
        _attempt: u32,
    ) -> Result<DistRel> {
        let (ev, cluster) = (self.ev, &self.ev.cluster);
        let window = ev.probe_superstep();
        // Frames shuffled by this superstep carry its 1-based number.
        ev.set_trace_step(sup.fixpoint, iteration as u32);
        let (schema, workers) = (acc.schema().clone(), cluster.workers());
        if let Some(p) = self.prepared.iter().find(|p| *p.schema() != schema) {
            return Err(MuraError::SchemaMismatch {
                left: schema,
                right: p.schema().clone(),
                context: "fixpoint recursive part",
            });
        }
        let (arity, budget) = (schema.arity(), sup.budget);
        let full_row: Vec<usize> = (0..arity).collect();
        let prepared = self.prepared;
        let start = Instant::now();
        // No stage-level rerun for the branch evaluation: a hard task
        // failure here goes to the loop, which restores the last
        // checkpoint (or restarts). Every attempt draws a fresh site.
        let site = sup.fault.next_site();
        let routed = cluster.try_par_map_at(site, 0, delta.parts(), Relation::len, |_, part| {
            // Per branch the rows it produced, deduplicated: the rows the
            // communication model counts as shuffled.
            let mut produced = Vec::with_capacity(prepared.len());
            let mut buckets: Vec<Rows> = Vec::new();
            for p in prepared {
                let rows = eval_branch(p, part);
                // Charged as soon as it exists: a superstep over its budget
                // stops every worker before its next branch.
                charge_budget(budget, rows.len(), arity)?;
                produced.push(rows.len());
                let split = split_by_key(rows.rows(), &full_row, workers);
                if buckets.is_empty() {
                    buckets = split;
                } else {
                    buckets.iter_mut().zip(&split).for_each(|(b, s)| b.append(s));
                }
            }
            Ok((produced, buckets))
        })?;
        kernel_stats().record_eval_time(start.elapsed());
        let (produced, buckets): (Vec<Vec<usize>>, Vec<Vec<Rows>>) = routed.into_iter().unzip();
        for branch in 0..prepared.len() {
            let rows: usize = produced.iter().map(|w| w[branch]).sum();
            self.produced_rows += rows as u64;
            if workers > 1 {
                cluster.metrics().record_shuffle(rows as u64);
            }
        }
        let bags = if workers > 1 {
            cluster.exchange_bags_at(sup.fault.next_site(), &schema, buckets)?
        } else {
            buckets.into_iter().flatten().collect()
        };
        let new = acc.absorb_new(bags, cluster)?;
        charge(sup.budget, &mut self.produced_rows, new.len(), new.schema().arity())?;
        let mut step_ev = TraceEvent::new(EventKind::Superstep, sup.fixpoint, sup.plan);
        step_ev.iteration = iteration;
        step_ev.delta_rows = new.len() as u64;
        ev.record_window(&window, step_ev);
        Ok(new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::eval as eval_central;

    /// The paper's Fig. 2 graph.
    fn paper_db() -> (Database, Term) {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let m = db.intern("m");
        let x = db.intern("X");
        let e = db.insert_relation(
            "E",
            Relation::from_pairs(
                src,
                dst,
                [
                    (1, 2),
                    (1, 4),
                    (10, 11),
                    (10, 13),
                    (2, 3),
                    (4, 5),
                    (11, 5),
                    (13, 12),
                    (3, 6),
                    (5, 6),
                ],
            ),
        );
        let s = db.insert_relation(
            "S",
            Relation::from_pairs(src, dst, [(1, 2), (1, 4), (10, 11), (10, 13)]),
        );
        let step = Term::var(x).rename(dst, m).join(Term::var(e).rename(src, m)).antiproject(m);
        let term = Term::var(s).union(step).fix(x);
        (db, term)
    }

    fn run(plan: FixpointPlan, engine: LocalEngine) -> (Relation, ExecStats, crate::CommSnapshot) {
        let (db, term) = paper_db();
        let config = ExecConfig { plan, local_engine: engine, ..Default::default() };
        let mut ev = DistEvaluator::new(&db, config);
        let rel = ev.eval_collect(&term).unwrap();
        let stats = ev.stats().clone();
        let comm = ev.cluster().metrics().snapshot();
        (rel, stats, comm)
    }

    #[test]
    fn all_plans_match_centralized() {
        let (db, term) = paper_db();
        let expected = eval_central(&term, &db).unwrap();
        for plan in [FixpointPlan::Auto, FixpointPlan::ForceGld, FixpointPlan::ForcePlw] {
            for engine in [LocalEngine::SetRdd, LocalEngine::Sorted] {
                let (got, _, _) = run(plan, engine);
                assert_eq!(
                    got.sorted_rows(),
                    expected.sorted_rows(),
                    "{plan:?}/{engine:?} diverged"
                );
            }
        }
    }

    #[test]
    fn auto_selects_plw_for_stable_fixpoint() {
        let (_, stats, _) = run(FixpointPlan::Auto, LocalEngine::SetRdd);
        assert_eq!(stats.plw_fixpoints, 1);
        assert_eq!(stats.gld_fixpoints, 0);
    }

    #[test]
    fn plw_shuffles_less_than_gld() {
        let (_, _, comm_plw) = run(FixpointPlan::ForcePlw, LocalEngine::SetRdd);
        let (_, _, comm_gld) = run(FixpointPlan::ForceGld, LocalEngine::SetRdd);
        assert!(
            comm_plw.shuffles < comm_gld.shuffles,
            "P_plw {comm_plw:?} must shuffle less than P_gld {comm_gld:?}"
        );
    }

    #[test]
    fn gld_counts_iterations() {
        let (_, stats, _) = run(FixpointPlan::ForceGld, LocalEngine::SetRdd);
        assert_eq!(stats.fixpoint_iterations, 3);
    }

    #[test]
    fn budget_aborts_distributed_eval() {
        let (db, term) = paper_db();
        let config = ExecConfig {
            limits: ResourceLimits { max_rows: Some(5), max_bytes: None, timeout: None },
            ..Default::default()
        };
        let mut ev = DistEvaluator::new(&db, config);
        assert!(matches!(ev.eval_collect(&term), Err(MuraError::ResourceExhausted { .. })));
    }

    #[test]
    fn same_generation_runs_gld_under_auto() {
        // No stable column → auto must choose P_gld.
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation("R", Relation::from_pairs(src, dst, [(0, 1), (0, 2), (1, 3), (2, 4)]));
        let term = mura_ucrpq::suites::same_generation_term(&mut db, "R").unwrap();
        let expected = eval_central(&term, &db).unwrap();
        let mut ev = DistEvaluator::new(&db, ExecConfig::default());
        let got = ev.eval_collect(&term).unwrap();
        assert_eq!(got.sorted_rows(), expected.sorted_rows());
        assert_eq!(ev.stats().gld_fixpoints, 1);
        assert_eq!(ev.stats().plw_fixpoints, 0);
    }

    #[test]
    fn plw_without_stable_column_still_correct() {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation(
            "R",
            Relation::from_pairs(src, dst, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]),
        );
        let term = mura_ucrpq::suites::same_generation_term(&mut db, "R").unwrap();
        let expected = eval_central(&term, &db).unwrap();
        let config = ExecConfig { plan: FixpointPlan::ForcePlw, ..Default::default() };
        let mut ev = DistEvaluator::new(&db, config);
        let got = ev.eval_collect(&term).unwrap();
        assert_eq!(got.sorted_rows(), expected.sorted_rows());
    }

    #[test]
    fn nested_fixpoints_evaluate() {
        // (a+)∘(b+)-style nested term where the inner fixpoint is hoisted.
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation("a", Relation::from_pairs(src, dst, [(0, 1), (1, 2)]));
        db.insert_relation("b", Relation::from_pairs(src, dst, [(2, 3), (3, 4)]));
        let q = mura_ucrpq::parse_ucrpq("?x, ?y <- ?x a+/b+ ?y").unwrap();
        let term = mura_ucrpq::to_mura(&q, &mut db).unwrap();
        let expected = eval_central(&term, &db).unwrap();
        let mut ev = DistEvaluator::new(&db, ExecConfig::default());
        let got = ev.eval_collect(&term).unwrap();
        assert_eq!(got.sorted_rows(), expected.sorted_rows());
    }
}
