//! The multi-process cluster backend: workers are separate OS processes.
//!
//! [`ProcCluster`] spawns `n` copies of the `mura-worker` binary, learns
//! their ephemeral loopback ports from stdout, and connects a control
//! socket plus a dedicated heartbeat socket to each. It implements
//! [`CommBackend`], so both fixpoint plans run **unchanged** — only
//! the exchange/broadcast data plane moves:
//!
//! * `exchange`: [`crate::Cluster::exchange_bags_at`] keeps a bucket that
//!   stays on its worker on the coordinator and decides how many copies of
//!   every other one are shipped and decoded. Each crossing bucket is
//!   encoded once, straight into its destination's [`Msg::Exchange`]
//!   frame, its further copies repeated as bytes; the frames go out to
//!   every destination before any reply is awaited (scatter/gather,
//!   `ProcInner::round`), each worker sends its frame straight back, and the
//!   coordinator decodes the reply straight into the destination's bag,
//!   skipping a copy lost in transit. A destination whose echo failed is
//!   sent the same sealed frame again, and no other; rows are never encoded
//!   twice. Every bucket that changes worker genuinely crosses a socket out
//!   and back, so the [`crate::metrics::CommStats`] wire counters measure
//!   real traffic — the basis of the paper's `P_plw` zero-communication
//!   claim, asserted in measured bytes.
//! * `broadcast`: a worker keeps every replica it is sent under the value's
//!   [`ReplicaId`], and the coordinator records in each worker's control
//!   slot what that process holds. The relation is encoded into one
//!   [`Msg::Bcast`] frame only if some worker lacks it, and shipped to
//!   those workers alone, again scatter/gather: the paper's broadcast per
//!   query is paid once per data version.
//!
//! Computation stays on the coordinator's task threads (partition tasks
//! are Rust closures and cannot cross a process boundary); the workers are
//! the communication fabric, and they can *really die*. A supervisor
//! thread heartbeats every worker; a worker that misses its liveness
//! deadline (killed, or its connection dropped) is detected and respawned
//! when dead. Exchanges and broadcasts share one at-least-once retry loop
//! (`ProcInner::with_retries`) that sends again only what failed, and
//! failures that out-live the local repair budget escalate as retryable
//! [`mura_core::MuraError::WorkerFailed`] into the existing recovery
//! ladder (task retry → stage rerun → checkpoint restore → restart).
//!
//! Fault injection: an exchange's drops and duplicates are rolled by the
//! [`crate::Cluster`], which hands over their copies; the fleet draws the
//! [`FaultPlan`] process-mode decisions, which map to real damage, per
//! worker and attempt before its request goes out —
//! [`FaultPlan::delay_socket`] stalls, [`FaultPlan::drop_connection`]
//! severs the control socket, [`FaultPlan::corrupt_frame`] ships a frame
//! with bit rot, and [`FaultPlan::kill_worker`] is an actual `SIGKILL` of
//! the worker process, which fails exactly that worker's request (at once:
//! a request to a worker whose process has exited is not connected).
//! Orphans are impossible: each worker holds the read end of its stdin
//! pipe and exits on EOF, so coordinator death (clean or not) reaps it.

use crate::cluster::{
    ClusterCounters, ClusterHealth, CommBackend, ExchangeCtx, ReplicaId, SupervisorEvent,
    SupervisorEventKind,
};
use crate::fault::FaultPlan;
use crate::wire::{
    bcast_frame, decode_rows_into, framed, read_frame, write_corrupted_frame, write_frame,
    BucketFrame, Msg, WireError, WireResult, WorkerCounters, WorkerSnapshot, WorkerSpan,
    REPLICA_CAP, SPAN_BCAST, SPAN_EXCHANGE,
};
use mura_core::{Relation, Result, Rows};
use mura_obs::histogram::HistogramSnapshot;
use mura_obs::{EventKind, Histogram, TraceEvent};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU16, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`ProcCluster`].
#[derive(Debug, Clone)]
pub struct ProcClusterConfig {
    /// Number of worker processes.
    pub workers: usize,
    /// Supervisor heartbeat period.
    pub heartbeat: Duration,
    /// A worker that does not answer a heartbeat within this deadline is
    /// declared suspect (respawned if its process is dead).
    pub liveness_timeout: Duration,
    /// Read/write timeout on control sockets.
    pub io_timeout: Duration,
    /// Bounded connection attempts (exponential backoff between them).
    pub connect_attempts: u32,
    /// Worker binary path override. Default resolution: `MURA_WORKER_BIN`
    /// env var, then a `mura-worker` sibling of the current executable.
    pub worker_bin: Option<PathBuf>,
}

impl Default for ProcClusterConfig {
    fn default() -> Self {
        ProcClusterConfig {
            workers: 4,
            heartbeat: Duration::from_millis(50),
            liveness_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(5),
            connect_attempts: 5,
            worker_bin: None,
        }
    }
}

/// Mutable control-plane state of one worker, behind one lock so spawn,
/// kill and send never race. Only a round holds two workers' `ctl` locks
/// at once (see `ProcInner::round`).
#[derive(Debug, Default)]
struct CtlSlot {
    child: Option<Child>,
    conn: Option<TcpStream>,
    /// Every reply on `conn` is read into this one buffer.
    read_buf: Vec<u8>,
    /// What `child` holds of broadcast replicas; cleared wherever `child`
    /// is killed or replaced.
    replicas: Replicas,
}

/// Replicas a worker holds at most, however small: a serving fleet that
/// sees new data versions for days would otherwise fill 64 MiB with
/// near-empty replicas, and every broadcast scans the record.
const HELD_REPLICAS: usize = 4096;

/// What one worker process holds of broadcast replicas, as the coordinator
/// recorded it: what the worker acknowledged keeping, and what it is still
/// to drop.
#[derive(Debug, Default)]
struct Replicas {
    /// Held replicas with their payload bytes, least recently used first.
    held: Vec<(ReplicaId, u64)>,
    bytes: u64,
    /// To name in the next broadcast this worker is sent: replicas evicted
    /// to make room, and any whose broadcast went unacknowledged (the
    /// worker may or may not have kept it).
    evict: Vec<ReplicaId>,
}

impl Replicas {
    /// Whether the worker holds `id`; if so, it is now the most recently
    /// used.
    fn touch(&mut self, id: ReplicaId) -> bool {
        let Some(i) = self.held.iter().position(|&(h, _)| h == id) else { return false };
        let entry = self.held.remove(i);
        self.held.push(entry);
        true
    }

    /// Evicts the least recently used replicas until one more of `bytes`
    /// fits — under [`REPLICA_CAP`] (one payload always fits an empty
    /// store) and within [`HELD_REPLICAS`] — and returns everything the
    /// worker is to drop; `None` adds nothing.
    fn make_room(&mut self, bytes: Option<u64>) -> &[ReplicaId] {
        if let Some(bytes) = bytes {
            while self.bytes + bytes > REPLICA_CAP || self.held.len() >= HELD_REPLICAS {
                let (id, size) = self.held.remove(0);
                self.bytes -= size;
                self.evict.push(id);
            }
        }
        &self.evict
    }

    /// The worker answered a broadcast of `id` that named every eviction
    /// owed: it dropped them and keeps `bytes` of payload under `id`.
    fn acknowledged(&mut self, id: Option<ReplicaId>, bytes: u64) {
        self.evict.clear();
        if let Some(id) = id {
            self.held.push((id, bytes));
            self.bytes += bytes;
        }
    }
}

/// One worker as seen by the coordinator.
#[derive(Debug)]
struct Slot {
    ctl: Mutex<CtlSlot>,
    /// The worker process's listen port; replaced on respawn.
    port: AtomicU16,
    /// Dedicated heartbeat connection: PING/PONG never interleaves with an
    /// exchange round trip on the control socket.
    hb: Mutex<Option<TcpStream>>,
    /// Answered the most recent heartbeat.
    live: AtomicBool,
    /// Estimated offset of this worker's monotonic clock from the
    /// coordinator's epoch, in µs: `worker_us − coordinator_us` at the
    /// same wall instant, from the RTT-midpoint of the best (lowest-RTT)
    /// heartbeat. Subtracting it re-bases worker span timestamps onto the
    /// coordinator's clock.
    offset_us: AtomicI64,
    /// Lowest heartbeat RTT observed so far (µs); its midpoint sample is
    /// the tightest clock-offset bound. `u64::MAX` = no sample yet.
    min_rtt_us: AtomicU64,
    /// The replica gauges of the worker's last trace batch; zeroed with its
    /// process.
    reported: Mutex<Held>,
}

/// Broadcast replicas a worker holds, and their payload bytes.
pub type Held = (u64, u64);

impl Default for Slot {
    fn default() -> Self {
        Slot {
            ctl: Mutex::new(CtlSlot::default()),
            port: AtomicU16::new(0),
            hb: Mutex::new(None),
            live: AtomicBool::new(false),
            offset_us: AtomicI64::new(0),
            min_rtt_us: AtomicU64::new(u64::MAX),
            reported: Mutex::new((0, 0)),
        }
    }
}

/// Cap on the supervisor event journal (drop-oldest; sequence numbers keep
/// ordering observable across eviction).
const JOURNAL_CAPACITY: usize = 1024;

/// A trace id no sink has (they count up from 1): a flush under it takes
/// the workers' counters and drains no span.
const NO_TRACE: u64 = u64::MAX;

#[derive(Debug)]
struct ProcInner {
    n: usize,
    cfg: ProcClusterConfig,
    slots: Vec<Slot>,
    /// Held by a broadcast from deciding who lacks the replica to recording
    /// what was acknowledged, so two queries' broadcasts never interleave
    /// their updates of a worker's [`Replicas`].
    broadcasting: Mutex<()>,
    /// Lifetime supervision counters.
    counters: ClusterCounters,
    /// Zero point of the coordinator's span clock (backend startup).
    epoch: Instant,
    /// Heartbeat round-trip latencies.
    rtt_hist: Histogram,
    /// Bounded drop-oldest supervisor event journal.
    journal: Mutex<VecDeque<SupervisorEvent>>,
    journal_seq: AtomicU64,
    /// Per-trace journal read cursors (`trace_id → last merged seq`), so
    /// each query's merge sees every supervisor event exactly once.
    journal_cursor: Mutex<Vec<(u64, u64)>>,
    /// Lifetime sum of what the workers counted, from their trace-flush
    /// batches (a worker takes its counters on every flush, so each batch
    /// is added exactly once).
    worker: WorkerCounters,
    /// Startup handshake complete; connection (re)establishments from here
    /// on count as reconnects.
    started: AtomicBool,
    shutdown: AtomicBool,
}

/// Resolves the worker binary: explicit config, `MURA_WORKER_BIN`, then a
/// sibling of the current executable (tests run from `target/*/deps/`, so
/// one extra `deps` component is stripped).
fn worker_bin(cfg: &ProcClusterConfig) -> PathBuf {
    if let Some(p) = &cfg.worker_bin {
        return p.clone();
    }
    if let Ok(p) = std::env::var("MURA_WORKER_BIN") {
        if !p.is_empty() {
            return PathBuf::from(p);
        }
    }
    let mut p = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("mura-worker"));
    p.pop();
    if p.file_name().is_some_and(|d| d == "deps") {
        p.pop();
    }
    p.push("mura-worker");
    p
}

/// Spawns one worker process and waits (bounded) for its `PORT <n>`
/// announcement. The child keeps its stdin pipe: dropping the `Child`
/// closes the write end and the worker exits on EOF.
fn spawn_worker(cfg: &ProcClusterConfig) -> std::result::Result<(Child, u16), WireError> {
    let bin = worker_bin(cfg);
    let mut child = Command::new(&bin)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| {
            WireError::Io(std::io::Error::other(format!("spawn {}: {e}", bin.display())))
        })?;
    let stdout = child.stdout.take().expect("worker stdout is piped");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let _ = reader.read_line(&mut line);
        let _ = tx.send(line);
        // Keep draining so later worker writes to stdout can never block.
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(k) if k > 0) {
            sink.clear();
        }
    });
    let line = rx.recv_timeout(Duration::from_secs(10)).map_err(|_| {
        child.kill().ok();
        child.wait().ok();
        WireError::Io(std::io::Error::other("worker did not announce a port"))
    })?;
    match line.trim().strip_prefix("PORT ").and_then(|p| p.parse::<u16>().ok()) {
        Some(port) => Ok((child, port)),
        None => {
            child.kill().ok();
            child.wait().ok();
            Err(WireError::Io(std::io::Error::other(format!("bad port announcement {line:?}"))))
        }
    }
}

/// Whether a worker's process is gone: never started, killed, or exited
/// (and now reaped).
fn exited(child: &mut Option<Child>) -> bool {
    child.as_mut().is_none_or(|c| c.try_wait().map_or(true, |status| status.is_some()))
}

/// Connects to a worker port with bounded exponential backoff.
fn connect(
    port: u16,
    timeout: Duration,
    attempts: u32,
) -> std::result::Result<TcpStream, WireError> {
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    let mut backoff = Duration::from_millis(10);
    let mut last: Option<std::io::Error> = None;
    for i in 0..attempts.max(1) {
        if i > 0 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_millis(200));
        }
        match TcpStream::connect_timeout(&addr, timeout) {
            Ok(s) => {
                s.set_nodelay(true).ok();
                s.set_read_timeout(Some(timeout)).ok();
                s.set_write_timeout(Some(timeout)).ok();
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.map(WireError::Io).unwrap_or(WireError::Malformed("no connection attempts")))
}

impl ProcInner {
    /// Appends a supervisor event to the bounded journal.
    fn journal_push(&self, worker: usize, kind: SupervisorEventKind) {
        let seq = self.journal_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let ev = SupervisorEvent { seq, at: Instant::now(), worker: worker as u32, kind };
        let mut journal = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        if journal.len() >= JOURNAL_CAPACITY {
            journal.pop_front();
        }
        journal.push_back(ev);
    }

    /// Opens worker `w`'s control connection with a [`Msg::Hello`]
    /// handshake. Returns the bytes `(written, read)`.
    fn hello(&self, w: usize, slot: &mut CtlSlot) -> WireResult<(u64, u64)> {
        let port = self.slots[w].port.load(Ordering::Relaxed);
        let mut conn = connect(port, self.cfg.io_timeout, self.cfg.connect_attempts)?;
        let tx = write_frame(&mut conn, &Msg::Hello)?;
        let (reply, rx) = read_frame(&mut conn, &mut slot.read_buf)?;
        if reply != Msg::Ok {
            return Err(WireError::Malformed("hello rejected"));
        }
        if self.started.load(Ordering::Relaxed) {
            self.counters.reconnects.inc();
            self.journal_push(w, SupervisorEventKind::Reconnect);
        }
        slot.conn = Some(conn);
        Ok((tx, rx))
    }

    /// Writes the request `frame` on worker `w`'s control socket,
    /// (re)connecting as needed. Returns the bytes `(written, read)`,
    /// handshake traffic included. A worker whose process has exited fails
    /// at once instead of backing off against a refused port: the caller
    /// respawns it.
    fn send(&self, w: usize, slot: &mut CtlSlot, frame: &[u8]) -> WireResult<(u64, u64)> {
        let (tx, rx) = match slot.conn {
            Some(_) => (0, 0),
            None if exited(&mut slot.child) => return Err(WireError::WorkerExited),
            None => self.hello(w, slot)?,
        };
        slot.conn.as_mut().expect("just connected").write_all(frame)?;
        Ok((tx + frame.len() as u64, rx))
    }

    /// One scatter/gather round on the control sockets: every request frame
    /// `(worker, bytes)` is written before any reply is awaited, so the
    /// workers answer concurrently; the replies are then read in request
    /// order and handed to `on_reply(worker, reply, tx, rx)` — the reply
    /// borrows the slot's read buffer, `tx`/`rx` are the bytes this request
    /// put on and took off the wire. Requests name distinct workers in
    /// ascending order: the round holds all their control locks (taken in
    /// that order, so concurrent rounds cannot deadlock; everything else
    /// takes one control lock at a time), which keeps any other request
    /// from interleaving with a pending reply.
    ///
    /// It cannot deadlock on the sockets either: a worker reads a request
    /// frame whole before it writes a byte of its reply, so every write of
    /// the coordinator's completes, and each reply is read in its turn.
    ///
    /// Returns each request's worker with its outcome. A request that
    /// failed — on the socket or in `on_reply` — has had its connection
    /// dropped (the next use reconnects); the others' replies were still
    /// read, so their connections stay in step.
    fn round(
        &self,
        requests: &[(usize, &[u8])],
        mut on_reply: impl FnMut(usize, Msg<'_>, u64, u64) -> WireResult<()>,
    ) -> Vec<(usize, WireResult<()>)> {
        debug_assert!(requests.windows(2).all(|p| p[0].0 < p[1].0), "one request per worker");
        let mut slots: Vec<_> =
            requests.iter().map(|&(w, _)| self.slots[w].ctl.lock().unwrap()).collect();
        let sent: Vec<_> = requests
            .iter()
            .zip(&mut slots)
            .map(|(&(w, frame), slot)| self.send(w, slot, frame))
            .collect();
        let replies = requests.iter().zip(&mut slots).zip(sent);
        replies
            .map(|((&(w, _), slot), sent)| {
                let CtlSlot { conn, read_buf, .. } = &mut **slot;
                let outcome = sent.and_then(|(tx, handshake_rx)| {
                    let conn = conn.as_mut().expect("a sent request has its connection");
                    let (reply, rx) = read_frame(conn, read_buf)?;
                    on_reply(w, reply, tx, handshake_rx + rx)
                });
                if outcome.is_err() {
                    *conn = None;
                }
                (w, outcome)
            })
            .collect()
    }

    /// Runs `attempt` until no request it makes fails. `attempt` is handed
    /// the workers still pending — every worker at first — sends requests
    /// to those it has something for, and returns their outcomes (a round's
    /// result); only the workers whose request failed go round again, each
    /// with its own attempt count. Before every attempt each pending worker
    /// gets the injections due at `(site, worker, attempt)` — a stall, a
    /// severed connection, a corrupted frame, then a kill — whether or not
    /// it is sent anything, so what is injected does not depend on the
    /// data; a kill fails exactly that worker's request. A failed worker is
    /// repaired (connection dropped, process respawned if dead). One that
    /// fails past the budget fails the call with the retryable
    /// [`mura_core::MuraError::WorkerFailed`], for the recovery ladder; a
    /// cancelled query stops between attempts.
    fn with_retries(
        &self,
        ctx: &ExchangeCtx<'_>,
        site: u64,
        mut attempt: impl FnMut(&[usize]) -> Result<Vec<(usize, WireResult<()>)>>,
    ) -> Result<()> {
        let max_attempts = ctx.recovery.max_retries + ctx.fault.config().failures_per_site + 2;
        let mut attempts = vec![0; self.n];
        let mut pending: Vec<usize> = (0..self.n).collect();
        loop {
            if let Some(c) = ctx.cancel {
                c.check()?;
            }
            for &w in &pending {
                self.inject_socket_faults(ctx.fault, site, w, attempts[w]);
                if ctx.fault.kill_worker(site, w, attempts[w]) {
                    self.kill(w);
                }
            }
            let mut failed = Vec::new();
            for (w, outcome) in attempt(&pending)? {
                let Err(e) = outcome else { continue };
                attempts[w] += 1;
                if attempts[w] >= max_attempts {
                    return Err(e.into_mura_error(w));
                }
                let _ = self.repair(w, Some(ctx.fault), true);
                failed.push(w);
            }
            if failed.is_empty() {
                return Ok(());
            }
            pending = failed;
        }
    }

    /// Asks every worker for its spans of `trace_id` and the counters it
    /// took since its last flush, adds the counters to the lifetime totals,
    /// keeps the replica gauges, and hands each batch to `on_batch(worker,
    /// spans, counters)`. Best effort per worker: one that cannot answer
    /// keeps its spans.
    fn flush_workers(
        &self,
        trace_id: u64,
        mut on_batch: impl FnMut(usize, Vec<WorkerSpan>, &WorkerSnapshot),
    ) {
        let flush =
            framed(&Msg::TraceFlush { trace_id }).expect("a flush request is a small frame");
        let everyone: Vec<(usize, &[u8])> = (0..self.n).map(|w| (w, &flush[..])).collect();
        self.round(&everyone, |w, reply, _, _| {
            let Msg::TraceBatch { spans, counters } = reply else {
                return Err(WireError::Malformed("unexpected trace-flush reply"));
            };
            self.worker.add(&counters);
            *self.slots[w].reported.lock().unwrap() =
                (counters.replicas_held, counters.replica_bytes_held);
            on_batch(w, spans, &counters);
            Ok(())
        });
    }

    /// Drops worker `w`'s control connection (next use reconnects).
    fn sever(&self, w: usize) {
        self.slots[w].ctl.lock().unwrap().conn = None;
    }

    /// Fault injection: ships a frame with seeded bit rot on worker `w`'s
    /// live control connection. The worker's frame reader surfaces
    /// [`WireError::BadChecksum`] and closes its end, so the next control
    /// round-trip on this slot fails exactly like a dropped connection and
    /// rides the standard repair ladder — the corrupted frame itself is
    /// never acted on. No-op when the slot is not connected.
    fn corrupt_control_frame(&self, w: usize, entropy: u64) {
        let mut guard = self.slots[w].ctl.lock().unwrap();
        if let Some(conn) = guard.conn.as_mut() {
            let _ = write_corrupted_frame(conn, &Msg::Ping, entropy);
        }
    }

    /// Applies the socket-level injections due at `(site, w, attempt)`
    /// before a request goes out: a stall, a severed control connection
    /// (the send re-establishes it), a frame with seeded bit rot.
    fn inject_socket_faults(&self, fault: &FaultPlan, site: u64, w: usize, attempt: u32) {
        if let Some(d) = fault.delay_socket(site, w, attempt) {
            std::thread::sleep(d);
        }
        if fault.drop_connection(site, w, attempt) {
            self.sever(w);
            fault.stats.reconnects.inc();
        }
        if let Some(entropy) = fault.corrupt_frame(site, w, attempt) {
            self.corrupt_control_frame(w, entropy);
        }
    }

    /// Real `SIGKILL` of worker `w`'s process (fault injection / tests).
    fn kill(&self, w: usize) {
        let mut guard = self.slots[w].ctl.lock().unwrap();
        if let Some(child) = &mut guard.child {
            child.kill().ok();
            child.wait().ok();
        }
        self.forget_process(w, &mut guard);
    }

    /// What the coordinator knew of worker `w`'s process goes with it: the
    /// connection, the replicas it held, its last report, its liveness.
    fn forget_process(&self, w: usize, slot: &mut CtlSlot) {
        slot.conn = None;
        slot.replicas = Replicas::default();
        *self.slots[w].reported.lock().unwrap() = (0, 0);
        self.slots[w].live.store(false, Ordering::Relaxed);
    }

    /// Repairs worker `w`: drops its control connection when `sever` is
    /// set, and respawns the process if it is dead. `fault` (when given)
    /// receives the recovery accounting.
    fn repair(
        &self,
        w: usize,
        fault: Option<&FaultPlan>,
        sever: bool,
    ) -> std::result::Result<(), WireError> {
        let respawned = {
            let mut guard = self.slots[w].ctl.lock().unwrap();
            if sever {
                guard.conn = None;
            }
            if exited(&mut guard.child) {
                if self.shutdown.load(Ordering::Relaxed) {
                    return Ok(());
                }
                self.forget_process(w, &mut guard);
                guard.child = None;
                let (child, port) = spawn_worker(&self.cfg)?;
                guard.child = Some(child);
                self.slots[w].port.store(port, Ordering::Relaxed);
                self.counters.respawns.inc();
                self.journal_push(w, SupervisorEventKind::Respawn);
                // A fresh process is a fresh monotonic clock: invalidate the
                // offset estimate until a new heartbeat samples it.
                self.slots[w].offset_us.store(0, Ordering::Relaxed);
                self.slots[w].min_rtt_us.store(u64::MAX, Ordering::Relaxed);
                if let Some(f) = fault {
                    f.stats.worker_respawns.inc();
                }
                true
            } else {
                false
            }
        };
        if respawned {
            // Re-establish the clock offset right away instead of waiting a
            // supervisor period; spans recorded before the next heartbeat
            // would otherwise be merged with a stale (zero) offset.
            self.heartbeat(w);
        }
        Ok(())
    }

    /// One PING/PONG on the dedicated heartbeat connection. The reply
    /// carries the worker's monotonic clock; the RTT midpoint gives a
    /// clock-offset sample (Cristian's algorithm), and the sample from the
    /// lowest RTT observed so far — the tightest bound — is kept as the
    /// worker's offset estimate for span merging. A worker that answers is
    /// live.
    fn heartbeat(&self, w: usize) -> bool {
        let mut hb = self.slots[w].hb.lock().unwrap();
        if hb.is_none() {
            let port = self.slots[w].port.load(Ordering::Relaxed);
            match connect(port, self.cfg.liveness_timeout, 1) {
                Ok(conn) => {
                    if self.started.load(Ordering::Relaxed) {
                        self.counters.reconnects.inc();
                        self.journal_push(w, SupervisorEventKind::Reconnect);
                    }
                    *hb = Some(conn);
                }
                Err(_) => return false,
            }
        }
        let conn = hb.as_mut().expect("just connected");
        let t0 = self.epoch.elapsed().as_micros() as u64;
        let mut reply = Vec::new();
        let pong = write_frame(conn, &Msg::Ping)
            .ok()
            .and_then(|_| read_frame(conn, &mut reply).map(|(m, _)| m).ok());
        let ok = match pong {
            Some(Msg::Pong { t_us }) => {
                let t1 = self.epoch.elapsed().as_micros() as u64;
                let rtt = t1.saturating_sub(t0);
                self.rtt_hist.record_us(rtt);
                let slot = &self.slots[w];
                if rtt <= slot.min_rtt_us.load(Ordering::Relaxed) {
                    slot.min_rtt_us.store(rtt, Ordering::Relaxed);
                    // The worker read its clock ~halfway through the RTT.
                    let midpoint = t0 + rtt / 2;
                    slot.offset_us.store(t_us as i64 - midpoint as i64, Ordering::Relaxed);
                }
                slot.live.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        };
        if !ok {
            *hb = None;
        }
        ok
    }

    /// Supervisor loop: heartbeat every worker each period; a worker that
    /// misses its liveness deadline is marked down, journaled, and repaired
    /// (respawn if the process died; connections re-establish on next use).
    fn supervise(self: &Arc<Self>) {
        while !self.shutdown.load(Ordering::Relaxed) {
            for w in 0..self.n {
                if self.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if !self.heartbeat(w) {
                    self.slots[w].live.store(false, Ordering::Relaxed);
                    self.counters.liveness_misses.inc();
                    self.journal_push(w, SupervisorEventKind::LivenessMiss);
                    let _ = self.repair(w, None, false);
                }
            }
            std::thread::sleep(self.cfg.heartbeat);
        }
    }

    fn health(&self) -> ClusterHealth {
        let live = self.slots.iter().filter(|s| s.live.load(Ordering::Relaxed)).count() as u64;
        ClusterHealth { workers: self.n as u64, live, ..self.counters.snapshot() }
    }
}

/// A cluster of real worker OS processes behind the [`CommBackend`] seam.
/// See the module docs for the architecture.
#[derive(Debug)]
pub struct ProcCluster {
    inner: Arc<ProcInner>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

impl ProcCluster {
    /// Spawns `workers` worker processes with default timings.
    pub fn spawn(workers: usize) -> Result<Arc<ProcCluster>> {
        Self::spawn_with(ProcClusterConfig { workers, ..Default::default() })
    }

    /// Spawns the cluster described by `cfg`: starts every worker and opens
    /// its control connection, then starts the heartbeat supervisor.
    pub fn spawn_with(cfg: ProcClusterConfig) -> Result<Arc<ProcCluster>> {
        assert!(cfg.workers >= 1, "need at least one worker");
        let n = cfg.workers;
        let inner = Arc::new(ProcInner {
            n,
            cfg,
            slots: (0..n).map(|_| Slot::default()).collect(),
            broadcasting: Mutex::new(()),
            counters: ClusterCounters::new(),
            epoch: Instant::now(),
            rtt_hist: Histogram::new(),
            journal: Mutex::new(VecDeque::new()),
            journal_seq: AtomicU64::new(0),
            journal_cursor: Mutex::new(Vec::new()),
            worker: WorkerCounters::new(),
            started: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let cluster = Arc::new(ProcCluster { inner, supervisor: Mutex::new(None) });
        for (w, slot) in cluster.inner.slots.iter().enumerate() {
            let started = spawn_worker(&cluster.inner.cfg).and_then(|(child, port)| {
                slot.port.store(port, Ordering::Relaxed);
                let mut ctl = slot.ctl.lock().unwrap();
                ctl.child = Some(child);
                cluster.inner.hello(w, &mut ctl)
            });
            if let Err(e) = started {
                cluster.shutdown();
                return Err(e.into_mura_error(w));
            }
        }
        // Seed every worker's clock-offset estimate before the first query
        // (and before `started`, so these handshakes do not count as
        // reconnects); the supervisor keeps the estimates fresh after.
        for w in 0..n {
            cluster.inner.heartbeat(w);
        }
        cluster.inner.started.store(true, Ordering::Relaxed);
        let sup = {
            let inner = Arc::clone(&cluster.inner);
            std::thread::Builder::new()
                .name("mura-proc-supervisor".into())
                .spawn(move || inner.supervise())
                .expect("spawn supervisor thread")
        };
        *cluster.supervisor.lock().unwrap() = Some(sup);
        Ok(cluster)
    }

    /// Current supervisor view.
    pub fn health_snapshot(&self) -> ClusterHealth {
        self.inner.health()
    }

    /// What the workers counted themselves, summed over every trace flush
    /// so far, with the replicas they held at their last one.
    pub fn worker_snapshot(&self) -> WorkerSnapshot {
        let (mut replicas_held, mut replica_bytes_held) = (0, 0);
        for slot in &self.inner.slots {
            let (n, bytes) = *slot.reported.lock().unwrap();
            replicas_held += n;
            replica_bytes_held += bytes;
        }
        WorkerSnapshot { replicas_held, replica_bytes_held, ..self.inner.worker.snapshot() }
    }

    /// Per worker, what it holds of broadcast replicas, twice: as this
    /// coordinator recorded it, and as the worker reports it when asked now
    /// (`None` if it did not answer). The ask is a trace flush that drains
    /// no spans, so the counters it takes land in
    /// [`ProcCluster::worker_snapshot`] as usual.
    pub fn replica_audit(&self) -> Vec<(Held, Option<Held>)> {
        let mut reported = vec![None; self.inner.n];
        self.inner.flush_workers(NO_TRACE, |w, _, counters| {
            reported[w] = Some((counters.replicas_held, counters.replica_bytes_held));
        });
        let recorded = self.inner.slots.iter().map(|slot| {
            let ctl = slot.ctl.lock().unwrap();
            (ctl.replicas.held.len() as u64, ctl.replicas.bytes)
        });
        recorded.zip(reported).collect()
    }

    /// Snapshot of the heartbeat round-trip latency histogram.
    pub fn rtt_snapshot(&self) -> HistogramSnapshot {
        self.inner.rtt_hist.snapshot()
    }

    /// Test hook: really `SIGKILL` worker `w`'s process. Returns whether a
    /// process was there to kill. The supervisor (or the next exchange)
    /// detects the death and respawns it.
    pub fn kill_worker_process(&self, w: usize) -> bool {
        let had = self.inner.slots[w].ctl.lock().unwrap().child.is_some();
        self.inner.kill(w);
        had
    }

    /// Test hook: sever worker `w`'s coordinator connections (control and
    /// heartbeat). The worker process stays up; connections re-establish
    /// on next use.
    pub fn sever_connection(&self, w: usize) {
        self.inner.sever(w);
        *self.inner.slots[w].hb.lock().unwrap() = None;
    }

    /// Stops the supervisor, asks workers to exit, and reaps them. Called
    /// by `Drop`; safe to call more than once.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.supervisor.lock().unwrap().take() {
            h.join().ok();
        }
        for (w, slot) in self.inner.slots.iter().enumerate() {
            let mut guard = slot.ctl.lock().unwrap();
            let CtlSlot { conn, read_buf, .. } = &mut *guard;
            if let Some(conn) = conn.as_mut() {
                // Best-effort residual drain so what the workers counted
                // since the last per-fixpoint flush still lands in the
                // lifetime totals.
                if write_frame(conn, &Msg::TraceFlush { trace_id: 0 }).is_ok() {
                    if let Ok((Msg::TraceBatch { counters, .. }, _)) = read_frame(conn, read_buf) {
                        self.inner.worker.add(&counters);
                    }
                }
                let _ = write_frame(conn, &Msg::Exit);
            }
            if let Some(mut child) = guard.child.take() {
                child.kill().ok();
                child.wait().ok();
            }
            self.inner.forget_process(w, &mut guard);
            *slot.hb.lock().unwrap() = None;
        }
    }
}

/// The reply to a request that has nothing to say but yes or no.
fn expect_ok(reply: Msg<'_>) -> WireResult<()> {
    match reply {
        Msg::Ok => Ok(()),
        Msg::Err(e) => Err(WireError::Io(std::io::Error::other(e))),
        _ => Err(WireError::Malformed("unexpected reply")),
    }
}

impl CommBackend for ProcCluster {
    fn worker_count(&self) -> usize {
        self.inner.n
    }

    fn exchange(
        &self,
        ctx: &ExchangeCtx<'_>,
        crossing: Vec<(usize, usize, Rows, u32, u32)>,
        bags: &mut [Rows],
    ) -> Result<()> {
        let n = self.inner.n;
        // Each bucket is encoded once, straight into its destination's
        // frame; its further copies are the encoded bytes again. Per
        // destination, whether each bucket of the frame reaches the bag.
        let mut frames: Vec<BucketFrame> =
            (0..n).map(|_| BucketFrame::exchange(ctx.trace)).collect();
        let mut kept: Vec<Vec<bool>> = vec![Vec::new(); n];
        for (from, to, rows, shipped, decoded) in crossing {
            frames[to].push_rows(from as u32, rows.arity(), &rows);
            self.inner.counters.rows_encoded.add(rows.len() as u64);
            (1..shipped).for_each(|_| frames[to].repeat_last());
            kept[to].extend((0..shipped).map(|copy| copy < decoded));
        }
        // A destination whose buckets cannot go out in one frame: final.
        for (to, frame) in frames.iter_mut().enumerate() {
            frame.seal().map_err(|e| e.into_mura_error(to))?;
        }
        let inner = &self.inner;
        inner.with_retries(ctx, ctx.site, |pending| {
            let requests: Vec<(usize, &[u8])> = pending
                .iter()
                .filter(|&&to| frames[to].count() > 0)
                .map(|&to| (to, frames[to].bytes()))
                .collect();
            Ok(inner.round(&requests, |to, reply, tx, rx| {
                ctx.metrics.record_wire_tx(tx, frames[to].payload_bytes());
                let Msg::Exchange { buckets, .. } = reply else {
                    return Err(WireError::Malformed("unexpected exchange reply"));
                };
                if buckets.len() != kept[to].len() {
                    return Err(WireError::Malformed("exchange echo of another frame"));
                }
                let payload = buckets.iter().map(|(_, payload)| payload.len() as u64).sum();
                ctx.metrics.record_wire_rx(rx, payload);
                let bag = &mut bags[to];
                let before = bag.len();
                let mut kept_payloads = buckets.iter().zip(&kept[to]).filter(|(_, &keep)| keep);
                let decoded =
                    kept_payloads.try_for_each(|((_, payload), _)| decode_rows_into(payload, bag));
                if decoded.is_err() {
                    bag.truncate(before);
                }
                decoded
            }))
        })
    }

    fn broadcast(
        &self,
        ctx: &ExchangeCtx<'_>,
        rel: &Relation,
        id: Option<ReplicaId>,
    ) -> Result<()> {
        let inner = &self.inner;
        // The broadcast allocates its own fault site whether or not anything
        // ships, so the sites a query draws do not depend on what the fleet
        // holds.
        let site = ctx.fault.next_site();
        let _one_at_a_time = inner.broadcasting.lock().unwrap();
        // Encoded and checksummed once, when a worker first lacks the
        // replica. Too large for a frame is final.
        let mut shared: Option<(Vec<u8>, Range<usize>)> = None;
        // Every worker still owed the replica is sent it. A worker's faults
        // are rolled whether or not it lacks the replica: what is injected
        // does not depend on what the fleet holds.
        inner.with_retries(ctx, site, |pending| {
            let lacking: Vec<usize> = pending
                .iter()
                .copied()
                .filter(|&w| {
                    let held =
                        id.is_some_and(|id| inner.slots[w].ctl.lock().unwrap().replicas.touch(id));
                    if held {
                        inner.counters.rows_resident.add(rel.len() as u64);
                    }
                    !held
                })
                .collect();
            if lacking.is_empty() {
                return Ok(Vec::new());
            }
            if shared.is_none() {
                shared = Some(bcast_frame(ctx.trace, id, rel).map_err(|e| e.into_mura_error(0))?);
                inner.counters.rows_encoded.add(rel.len() as u64);
            }
            let (frame, payload) = shared.as_ref().expect("encoded above");
            let size = payload.len() as u64;
            // A worker with replicas to drop gets the payload in a frame of
            // its own that names them.
            let frames = lacking.iter().map(|&w| {
                let mut slot = inner.slots[w].ctl.lock().unwrap();
                let evict = slot.replicas.make_room(id.map(|_| size));
                if evict.is_empty() {
                    return Ok(Cow::Borrowed(&frame[..]));
                }
                let payload = &frame[payload.clone()];
                let msg = Msg::Bcast { ctx: ctx.trace, id, evict: evict.to_vec(), payload };
                framed(&msg).map(Cow::Owned)
            });
            let frames: Vec<Cow<[u8]>> =
                frames.collect::<WireResult<_>>().map_err(|e| e.into_mura_error(0))?;
            let requests: Vec<(usize, &[u8])> =
                lacking.iter().zip(&frames).map(|(&w, f)| (w, &f[..])).collect();
            let acks = inner.round(&requests, |_, reply, tx, rx| {
                ctx.metrics.record_wire_tx(tx, size);
                ctx.metrics.record_wire_rx(rx, 0);
                expect_ok(reply)
            });
            for (w, ack) in &acks {
                let mut slot = inner.slots[*w].ctl.lock().unwrap();
                match ack {
                    Ok(()) => slot.replicas.acknowledged(id, size),
                    // The worker may or may not have kept it: it is told to
                    // drop it with the next broadcast it is sent.
                    Err(_) => slot.replicas.evict.extend(id),
                }
            }
            Ok(acks)
        })
    }

    /// Drains every worker's span ring and converts the spans into
    /// coordinator-clock [`TraceEvent`]s on that worker's lane. Clock
    /// alignment: a span at `t_us` on worker `w`'s clock maps to
    /// `t_us − offset(w)` µs after the coordinator's epoch, where
    /// `offset(w)` is the RTT-midpoint estimate kept by the heartbeat.
    /// Supervisor journal entries newer than this trace's cursor ride
    /// along (respawns/reconnects/liveness misses show up in the merged
    /// timeline exactly once per trace).
    fn flush_trace(&self, trace_id: u64, base: Instant) -> (Vec<TraceEvent>, u64) {
        let inner = &self.inner;
        let mut events = Vec::new();
        let mut dropped = 0u64;
        inner.flush_workers(trace_id, |w, spans, counters| {
            dropped += counters.trace_dropped;
            let offset = inner.slots[w].offset_us.load(Ordering::Relaxed);
            for s in spans {
                if s.ctx.trace_id != trace_id {
                    continue;
                }
                let kind = match s.kind {
                    SPAN_EXCHANGE => EventKind::ExchangeRecv,
                    SPAN_BCAST => EventKind::BroadcastRecv,
                    _ => continue,
                };
                // Re-base onto the coordinator clock, then onto the trace
                // sink's start. Clamped, not dropped: a slightly-off
                // offset estimate must not lose events.
                let coord_us = (s.t_us as i64 - offset).max(0) as u64;
                let at = inner.epoch + Duration::from_micros(coord_us);
                let t_us = at.saturating_duration_since(base).as_micros() as u64;
                events.push(TraceEvent {
                    kind,
                    worker: w as i32,
                    iteration: s.ctx.superstep as u64,
                    wire_exchange_bytes: s.bytes,
                    t_us,
                    dur_us: s.dur_us,
                    ..TraceEvent::new(kind, s.ctx.fixpoint, mura_obs::PlanKind::None)
                });
            }
        });
        // Merge supervisor events this trace has not seen yet.
        let mut cursors = inner.journal_cursor.lock().unwrap_or_else(|e| e.into_inner());
        let last = cursors.iter().find(|(t, _)| *t == trace_id).map_or(0, |&(_, s)| s);
        let mut newest = last;
        {
            let journal = inner.journal.lock().unwrap_or_else(|e| e.into_inner());
            for ev in journal.iter().filter(|ev| ev.seq > last) {
                newest = newest.max(ev.seq);
                // Events from before the trace began belong to earlier
                // queries (or startup): advance past them silently.
                let Some(rel) = ev.at.checked_duration_since(base) else { continue };
                let kind = match ev.kind {
                    SupervisorEventKind::Respawn => EventKind::Respawn,
                    SupervisorEventKind::Reconnect => EventKind::Reconnect,
                    SupervisorEventKind::LivenessMiss => EventKind::LivenessMiss,
                };
                events.push(TraceEvent {
                    worker: ev.worker as i32,
                    t_us: rel.as_micros() as u64,
                    ..TraceEvent::new(kind, 0, mura_obs::PlanKind::None)
                });
            }
        }
        if let Some(c) = cursors.iter_mut().find(|(t, _)| *t == trace_id) {
            c.1 = newest;
        } else {
            if cursors.len() >= 16 {
                cursors.remove(0);
            }
            cursors.push((trace_id, newest));
        }
        (events, dropped)
    }
}

impl Drop for ProcCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_bin_resolves_to_sibling() {
        let cfg = ProcClusterConfig::default();
        let p = worker_bin(&cfg);
        assert_eq!(p.file_name().unwrap(), "mura-worker");
        // Unit tests run from target/*/deps/<test-bin>; the resolved path
        // must not point inside deps/.
        assert!(p.parent().is_some_and(|d| d.file_name().is_none_or(|f| f != "deps")));
    }

    #[test]
    fn explicit_worker_bin_wins() {
        let cfg = ProcClusterConfig {
            worker_bin: Some(PathBuf::from("/x/y/mura-worker")),
            ..Default::default()
        };
        assert_eq!(worker_bin(&cfg), PathBuf::from("/x/y/mura-worker"));
    }

    #[test]
    fn the_record_evicts_the_least_recently_used_within_both_bounds() {
        let id = |term| ReplicaId { term, version: 1 };
        let mut record = Replicas::default();
        for term in 0..HELD_REPLICAS as u64 {
            assert!(record.make_room(Some(10)).is_empty());
            record.acknowledged(Some(id(term)), 10);
        }
        assert!(record.touch(id(0)), "held, and now the most recently used");
        assert_eq!(record.make_room(None), [], "an unnamed broadcast adds nothing");
        assert_eq!(record.make_room(Some(10)), [id(1)], "one past the count");
        record.acknowledged(Some(id(u64::MAX)), 10);
        assert!(record.evict.is_empty() && !record.touch(id(1)));
        let held = record.held.len();
        assert_eq!((held, record.bytes), (HELD_REPLICAS, 10 * HELD_REPLICAS as u64));
        // A payload as large as the cap leaves room for nothing else.
        assert_eq!(record.make_room(Some(REPLICA_CAP)).len(), held);
        assert_eq!(record.bytes, 0);
    }

    #[test]
    fn config_timings_are_ordered() {
        let cfg = ProcClusterConfig::default();
        assert!(cfg.heartbeat < cfg.liveness_timeout);
        assert!(cfg.liveness_timeout < cfg.io_timeout, "a dead worker is missed before a timeout");
    }
}
