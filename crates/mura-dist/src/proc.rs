//! The multi-process cluster backend: workers are separate OS processes.
//!
//! [`ProcCluster`] spawns `n` copies of the `mura-worker` binary, learns
//! their ephemeral loopback ports from stdout, and connects a control
//! socket plus a dedicated heartbeat socket to each. It implements
//! [`CommBackend`], so both fixpoint plans run **unchanged** — only
//! the exchange/broadcast data plane moves:
//!
//! * `exchange`: a bucket that stays on its worker (`buckets[w][w]`) is
//!   merged into partition `w` on the coordinator and never encoded. Every
//!   other bucket is encoded once, straight into its source's [`Msg::Relay`]
//!   frame; the relays go out to all source workers before any
//!   acknowledgement is awaited (scatter/gather, `ProcInner::round`),
//!   each worker forwards every bucket to its destination peer over a
//!   worker↔worker connection, and the coordinator collects every
//!   destination's inbox the same way ([`Msg::Take`]), decoding each reply
//!   straight into the destination partition. On the first attempt the
//!   take travels right behind the relay — one round trip per exchange
//!   (`ProcInner::pipeline`). A retry re-seals the same frames under a
//!   fresh exchange id; rows are never encoded twice. Every bucket that
//!   changes worker genuinely crosses sockets, so the
//!   [`crate::metrics::CommStats`] wire counters measure real traffic —
//!   the basis of the paper's `P_plw` zero-communication claim, asserted
//!   in measured bytes.
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
//! deadline (killed, or its connection dropped) is detected, respawned
//! when dead, and re-announced to its peers. Exchanges ride an
//! at-least-once retry loop with fresh exchange ids (stale buffers are
//! pruned by watermark), and failures that out-live the local repair
//! budget escalate as retryable [`mura_core::MuraError::WorkerFailed`] into the
//! existing recovery ladder (task retry → stage rerun → checkpoint restore
//! → restart).
//!
//! Fault injection: [`FaultPlan`] process-mode decisions map to real
//! damage — [`FaultPlan::kill_worker`] is an actual `SIGKILL` of the
//! worker process between the relay and collect phases (buffered data is
//! genuinely lost), [`FaultPlan::drop_connection`] severs the control
//! socket, [`FaultPlan::delay_socket`] stalls before the operation.
//! Orphans are impossible: each worker holds the read end of its stdin
//! pipe and exits on EOF, so coordinator death (clean or not) reaps it.

use crate::cluster::{
    ClusterCounters, ClusterHealth, CommBackend, ExchangeCtx, ReplicaId, SupervisorEvent,
    SupervisorEventKind,
};
use crate::fault::FaultPlan;
use crate::wire::{
    bcast_frame, decode_rows_into, framed, read_frame, write_corrupted_frame, write_frame,
    BucketFrame, Msg, WireError, WireResult, WorkerCounters, WorkerSnapshot, WorkerSpan, MAX_FRAME,
    REPLICA_CAP, SPAN_BCAST, SPAN_DELIVER, SPAN_RELAY, SPAN_TAKE, TAKE_REPLY_HEAD,
};
use mura_core::{Relation, Result, Rows, Schema};
use mura_obs::histogram::HistogramSnapshot;
use mura_obs::{EventKind, Histogram, TraceEvent};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
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
    /// How long a worker blocks a [`Msg::Take`] waiting for in-flight
    /// exchange buckets before handing back a short count (the coordinator
    /// then retries the whole exchange). Must stay below
    /// [`ProcClusterConfig::io_timeout`].
    pub take_timeout: Duration,
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
            take_timeout: Duration::from_millis(2000),
            connect_attempts: 5,
            worker_bin: None,
        }
    }
}

/// Mutable control-plane state of one worker, behind one lock so spawn,
/// kill and send never race. Never acquire two workers' `ctl` locks at
/// once (peer-table refreshes go worker by worker).
#[derive(Debug, Default)]
struct CtlSlot {
    child: Option<Child>,
    conn: Option<TcpStream>,
    port: u16,
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
    /// Dedicated heartbeat connection: PING/PONG never interleaves with a
    /// RELAY/TAKE round-trip on the control socket.
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
    /// Current listen ports (index = worker); refreshed on respawn.
    ports: Mutex<Vec<u16>>,
    /// Exchange id generator.
    next_xid: AtomicU64,
    /// Exchange ids currently in flight. The prune watermark sent with a
    /// relay is the *minimum* in-flight id, so concurrent queries sharing
    /// this backend never evict each other's buffered buckets.
    inflight: Mutex<std::collections::BTreeSet<u64>>,
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

    /// Writes the request `frame` on worker `w`'s control socket,
    /// (re)connecting — with a fresh [`Msg::Hello`] — as needed. Returns
    /// the bytes `(written, read)`, handshake traffic included.
    fn send(&self, w: usize, slot: &mut CtlSlot, frame: &[u8]) -> WireResult<(u64, u64)> {
        let (mut tx, mut rx) = (0u64, 0u64);
        if slot.conn.is_none() {
            let port = self.ports.lock().unwrap()[w];
            let mut conn = connect(port, self.cfg.io_timeout, self.cfg.connect_attempts)?;
            tx = write_frame(&mut conn, &Msg::Hello { id: w as u32, n: self.n as u32 })?;
            let (reply, k) = read_frame(&mut conn, &mut slot.read_buf)?;
            rx = k;
            if reply != Msg::Ok {
                return Err(WireError::Malformed("hello rejected"));
            }
            if self.started.load(Ordering::Relaxed) {
                self.counters.reconnects.inc();
                self.journal_push(w, SupervisorEventKind::Reconnect);
            }
            slot.conn = Some(conn);
        }
        slot.conn.as_mut().expect("just connected").write_all(frame)?;
        Ok((tx + frame.len() as u64, rx))
    }

    /// One scatter/gather round on the control sockets: every request frame
    /// `(worker, bytes)` is written before any reply is awaited, so the
    /// workers verify, forward and answer concurrently; the replies are
    /// then read in request order and handed to `on_reply(worker, reply,
    /// tx, rx)` — the reply borrows the slot's read buffer, `tx`/`rx` are
    /// the bytes this request put on and took off the wire. Requests must
    /// name workers in ascending order: the round holds all their control
    /// locks (taken in that order, so concurrent rounds cannot deadlock;
    /// everything else takes one control lock at a time), which keeps any
    /// other request from interleaving with a pending reply.
    ///
    /// It cannot deadlock on the sockets either: a worker reads a request
    /// frame whole before acting on it, forwards to peers over connections
    /// that separate peer threads drain unconditionally, and writes a reply
    /// that is either tiny (`Ok`) or read by the coordinator as soon as the
    /// earlier workers' replies are in — nobody waits on a reader that
    /// waits on them.
    ///
    /// Returns one outcome per request. A request that failed — on the
    /// socket or in `on_reply` — has had its connection dropped (the next
    /// use reconnects); the others' replies were still read, so their
    /// connections stay in step.
    fn round(
        &self,
        requests: &[(usize, &[u8])],
        mut on_reply: impl FnMut(usize, Msg<'_>, u64, u64) -> WireResult<()>,
    ) -> Vec<WireResult<()>> {
        debug_assert!(requests.windows(2).all(|p| p[0].0 < p[1].0), "one request per worker");
        self.pipeline(requests, false, |i, reply, tx, rx| on_reply(requests[i].0, reply, tx, rx))
    }

    /// [`ProcInner::round`] with any number of requests per worker (still
    /// in ascending worker order): a worker answers its requests in the
    /// order they were written, so a request that needs no word from the
    /// coordinator in between — a take behind a relay — goes out with the
    /// one before it and costs no round trip of its own. The replies are
    /// read rank by rank — every worker's first, then every worker's
    /// second — and `on_reply` is given the index of the request answered.
    ///
    /// A failed request takes the later requests to the same worker with
    /// it (their replies are behind a connection that is gone). When
    /// `abandon` is set it takes the rest of the round too: the replies not
    /// yet read are left unread and their connections dropped. That is for
    /// requests that wait on each other's workers — a take waits for what
    /// the other workers were told to relay — where the answer to a failure
    /// elsewhere is a timeout; reading by rank finds the failure (a relay's
    /// acknowledgement) before anything is asked to wait for it.
    fn pipeline(
        &self,
        requests: &[(usize, &[u8])],
        abandon: bool,
        mut on_reply: impl FnMut(usize, Msg<'_>, u64, u64) -> WireResult<()>,
    ) -> Vec<WireResult<()>> {
        debug_assert!(requests.windows(2).all(|p| p[0].0 <= p[1].0), "ascending workers");
        // One lock per worker; request `i` is the `rank[i]`-th to its
        // worker and finds the lock at `slot_of[i]`.
        let mut slots = Vec::new();
        let (mut slot_of, mut rank) = (Vec::new(), Vec::new());
        for (i, &(w, _)) in requests.iter().enumerate() {
            let again = i > 0 && requests[i - 1].0 == w;
            if !again {
                slots.push(self.slots[w].ctl.lock().unwrap());
            }
            slot_of.push(slots.len() - 1);
            rank.push(if again { rank[i - 1] + 1 } else { 0 });
        }
        let lost = || WireError::Io(std::io::Error::other("connection lost earlier in the round"));
        let mut sent: Vec<Option<WireResult<(u64, u64)>>> = Vec::with_capacity(requests.len());
        for (i, &(w, frame)) in requests.iter().enumerate() {
            let follows_failure = rank[i] > 0 && !matches!(sent[i - 1], Some(Ok(_)));
            sent.push(Some(if follows_failure {
                Err(lost())
            } else {
                self.send(w, &mut slots[slot_of[i]], frame)
            }));
        }
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| rank[i]);
        let mut outcomes: Vec<WireResult<()>> = requests.iter().map(|_| Ok(())).collect();
        let mut failed = false;
        for i in order {
            let CtlSlot { conn, read_buf, .. } = &mut *slots[slot_of[i]];
            let sent = sent[i].take().expect("every request is gathered once");
            outcomes[i] = sent.and_then(|(tx, handshake_rx)| {
                let Some(conn) = conn.as_mut().filter(|_| !(abandon && failed)) else {
                    return Err(lost());
                };
                let (reply, rx) = read_frame(conn, read_buf)?;
                on_reply(i, reply, tx, handshake_rx + rx)
            });
            if outcomes[i].is_err() {
                failed = true;
                *conn = None;
            }
        }
        outcomes
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

    /// Sends the control message `msg` to every worker in one round;
    /// returns, per worker, whether it answered [`Msg::Ok`].
    fn tell_all(&self, msg: &Msg<'_>) -> Vec<WireResult<()>> {
        let frame = framed(msg).expect("a control message is a small frame");
        let everyone: Vec<(usize, &[u8])> = (0..self.n).map(|w| (w, &frame[..])).collect();
        self.round(&everyone, |_, reply, _, _| expect_ok(reply))
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
    /// set, and respawns the process if it is dead — then re-announces the
    /// refreshed peer table to every worker (one control lock at a time).
    /// `fault` (when given) receives the recovery accounting.
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
            let dead = match &mut guard.child {
                None => true,
                Some(c) => c.try_wait().map(|s| s.is_some()).unwrap_or(true),
            };
            if dead {
                if self.shutdown.load(Ordering::Relaxed) {
                    return Ok(());
                }
                self.forget_process(w, &mut guard);
                guard.child = None;
                let (child, port) = spawn_worker(&self.cfg)?;
                guard.child = Some(child);
                guard.port = port;
                self.ports.lock().unwrap()[w] = port;
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
            self.sync_peers();
            // Re-establish the clock offset right away instead of waiting a
            // supervisor period; spans recorded before the next heartbeat
            // would otherwise be merged with a stale (zero) offset.
            self.heartbeat(w);
        }
        Ok(())
    }

    /// Re-announces the current port map to every worker and returns who
    /// took it. Best-effort per worker: one being down does not stop the
    /// sync — its own repair re-syncs. Called after every respawn and
    /// after every failed exchange attempt, because a worker that missed a
    /// respawn announcement (e.g. it was itself down at the time) would
    /// otherwise keep delivering to the dead peer's old port forever.
    fn sync_peers(&self) -> Vec<WireResult<()>> {
        let ports = self.ports.lock().unwrap().clone();
        let told = self.tell_all(&Msg::Peers(ports));
        for (slot, outcome) in self.slots.iter().zip(&told) {
            if outcome.is_ok() {
                slot.live.store(true, Ordering::Relaxed);
            }
        }
        told
    }

    /// One PING/PONG on the dedicated heartbeat connection. The reply
    /// carries the worker's monotonic clock; the RTT midpoint gives a
    /// clock-offset sample (Cristian's algorithm), and the sample from the
    /// lowest RTT observed so far — the tightest bound — is kept as the
    /// worker's offset estimate for span merging.
    fn heartbeat(&self, w: usize) -> bool {
        let mut hb = self.slots[w].hb.lock().unwrap();
        if hb.is_none() {
            let port = self.ports.lock().unwrap()[w];
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
                if self.heartbeat(w) {
                    self.slots[w].live.store(true, Ordering::Relaxed);
                } else {
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

    /// Spawns the cluster described by `cfg`: starts every worker, runs
    /// the HELLO/PEERS handshake, then starts the heartbeat supervisor.
    pub fn spawn_with(cfg: ProcClusterConfig) -> Result<Arc<ProcCluster>> {
        assert!(cfg.workers >= 1, "need at least one worker");
        let n = cfg.workers;
        let inner = Arc::new(ProcInner {
            n,
            cfg,
            slots: (0..n).map(|_| Slot::default()).collect(),
            ports: Mutex::new(vec![0; n]),
            next_xid: AtomicU64::new(1),
            inflight: Mutex::new(std::collections::BTreeSet::new()),
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
        for w in 0..n {
            let (child, port) = spawn_worker(&cluster.inner.cfg).map_err(|e| {
                cluster.shutdown();
                e.into_mura_error(w)
            })?;
            let mut guard = cluster.inner.slots[w].ctl.lock().unwrap();
            guard.child = Some(child);
            guard.port = port;
            drop(guard);
            cluster.inner.ports.lock().unwrap()[w] = port;
        }
        for (w, told) in cluster.inner.sync_peers().into_iter().enumerate() {
            if let Err(e) = told {
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

    /// The supervisor event journal, oldest first (bounded; evicted
    /// entries leave a gap in the `seq` numbering).
    pub fn journal(&self) -> Vec<SupervisorEvent> {
        self.inner.journal.lock().unwrap_or_else(|e| e.into_inner()).iter().copied().collect()
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

    /// Best-effort CANCEL to every worker of the exchange attempts `xids`:
    /// what their relays left buffered goes now, not when the prune
    /// watermark passes them — which waits for every older exchange in
    /// flight, and on an idle fleet for the next query. Other exchanges'
    /// buckets stay; an exchange cancelled before its first attempt has
    /// nothing to say.
    fn cancel(&self, xids: Vec<u64>) {
        if !xids.is_empty() {
            self.inner.tell_all(&Msg::Cancel { xids });
        }
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

    /// One attempt of an exchange: seal every source's relay under the
    /// fresh exchange id `xid`, send the relays and the takes, and decode
    /// every destination's inbox into its partition in `parts` (which holds
    /// the buckets that stayed on their worker; rows a failed attempt
    /// decoded are absorbed again by the next). It is handed frames, not
    /// rows: nothing is encoded here, whichever attempt this is. Errors
    /// name the worker so the caller can repair it.
    ///
    /// The first attempt of an exchange no fault plan is aimed at sends each
    /// worker its take right behind its relay ([`ProcInner::pipeline`]): the
    /// worker forwards, acknowledges and goes on to wait for its own inbox
    /// without hearing from the coordinator in between, which sleeps once
    /// per exchange instead of twice. Under a fault plan, and on every
    /// retry, the two phases are two rounds, with the kill injection in
    /// between (buffered data is genuinely lost) and no take sent to
    /// workers that wait for a relay that failed.
    fn try_exchange(
        &self,
        ctx: &ExchangeCtx<'_>,
        (xid, attempt): (u64, u32),
        parts: &mut [Relation],
        relays: &mut [BucketFrame],
        expect: &[u32],
    ) -> std::result::Result<(), (usize, WireError)> {
        let inner = &self.inner;
        let watermark = {
            let mut inflight = inner.inflight.lock().unwrap();
            inflight.insert(xid);
            *inflight.iter().next().expect("just inserted")
        };
        // Deregister the xid however this attempt ends.
        struct Deregister<'a>(&'a ProcInner, u64);
        impl Drop for Deregister<'_> {
            fn drop(&mut self) {
                self.0.inflight.lock().unwrap().remove(&self.1);
            }
        }
        let _dereg = Deregister(inner, xid);
        for w in 0..inner.n {
            inject_socket_faults(inner, ctx.fault, ctx.site, w, attempt);
        }
        for (from, relay) in relays.iter_mut().enumerate() {
            relay.seal_relay(xid, watermark).map_err(|e| (from, e))?;
        }
        let relays = &*relays;
        let takes: Vec<Option<Vec<u8>>> = (0..inner.n)
            .map(|to| {
                let take = Msg::Take {
                    xid,
                    expect: expect[to],
                    timeout_ms: inner.cfg.take_timeout.as_millis() as u64,
                    ctx: ctx.trace,
                };
                (expect[to] > 0).then(|| framed(&take).expect("a take request is a small frame"))
            })
            .collect();
        let relay_of =
            |from: usize| (relays[from].count() > 0).then(|| (from, relays[from].bytes()));
        let take_of = |to: usize| takes[to].as_deref().map(|frame| (to, frame));
        let acked = |from: usize, reply: Msg<'_>, tx: u64, rx: u64| {
            ctx.metrics.record_wire_tx(tx, relays[from].payload_bytes());
            ctx.metrics.record_wire_rx(rx, 0);
            expect_ok(reply)
        };
        let mut taken = |to: usize, reply: Msg<'_>, tx: u64, rx: u64| {
            ctx.metrics.record_wire_tx(tx, 0);
            let Msg::TakeReply(got) = reply else {
                return Err(WireError::Malformed("unexpected take reply"));
            };
            let payload: u64 = got.iter().map(|(_, p)| p.len() as u64).sum();
            ctx.metrics.record_wire_rx(rx, payload);
            if (got.len() as u32) < expect[to] {
                return Err(WireError::Io(std::io::Error::other(format!(
                    "short exchange: {} of {} buckets",
                    got.len(),
                    expect[to]
                ))));
            }
            got.iter().try_for_each(|(_, payload)| decode_rows_into(payload, &mut parts[to]))
        };
        if attempt == 0 && !ctx.fault.is_active() {
            // Per worker its relay, then its take.
            let (mut requests, mut is_take) = (Vec::new(), Vec::new());
            for w in 0..inner.n {
                if let Some(relay) = relay_of(w) {
                    requests.push(relay);
                    is_take.push(false);
                }
                if let Some(take) = take_of(w) {
                    requests.push(take);
                    is_take.push(true);
                }
            }
            let outcomes = inner.pipeline(&requests, true, |i, reply, tx, rx| {
                let w = requests[i].0;
                if is_take[i] {
                    taken(w, reply, tx, rx)
                } else {
                    acked(w, reply, tx, rx)
                }
            });
            first_failure(&requests, outcomes)?;
        } else {
            let sources: Vec<(usize, &[u8])> = (0..inner.n).filter_map(relay_of).collect();
            first_failure(&sources, inner.round(&sources, acked))?;
            // Injection point: between relay and collect, so a killed
            // worker takes its buffered buckets down with it.
            for w in 0..inner.n {
                if ctx.fault.kill_worker(ctx.site, w, attempt) {
                    inner.kill(w);
                }
            }
            let destinations: Vec<(usize, &[u8])> = (0..inner.n).filter_map(take_of).collect();
            first_failure(&destinations, inner.round(&destinations, taken))?;
        }
        Ok(())
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

/// The first failed request of a round, with the worker it was sent to.
fn first_failure(
    requests: &[(usize, &[u8])],
    outcomes: Vec<WireResult<()>>,
) -> std::result::Result<(), (usize, WireError)> {
    requests.iter().zip(outcomes).try_for_each(|(&(w, _), outcome)| outcome.map_err(|e| (w, e)))
}

/// Applies the socket-level injections due at `(site, w, attempt)` before a
/// request goes out: a stall, a severed control connection (the send
/// re-establishes it), a frame with seeded bit rot.
fn inject_socket_faults(inner: &ProcInner, fault: &FaultPlan, site: u64, w: usize, attempt: u32) {
    if let Some(d) = fault.delay_socket(site, w, attempt) {
        std::thread::sleep(d);
    }
    if fault.drop_connection(site, w, attempt) {
        inner.sever(w);
        fault.stats.reconnects.inc();
    }
    if let Some(entropy) = fault.corrupt_frame(site, w, attempt) {
        inner.corrupt_control_frame(w, entropy);
    }
}

impl CommBackend for ProcCluster {
    fn name(&self) -> &'static str {
        "proc"
    }

    fn worker_count(&self) -> Option<usize> {
        Some(self.inner.n)
    }

    fn exchange(
        &self,
        ctx: &ExchangeCtx<'_>,
        schema: &Schema,
        buckets: Vec<Vec<Rows>>,
    ) -> Result<Vec<Relation>> {
        let n = self.inner.n;
        assert_eq!(ctx.workers, n, "exchange shape must match the process cluster");
        let arity = schema.arity();
        // Take the injection decisions once, up front, for every bucket as
        // the simulator does: retries of the same exchange must not re-roll
        // (or re-count) the same fault coordinates. A bucket that stays on
        // its worker never leaves the coordinator: it is merged into its
        // partition here, an injected duplicate absorbed like the
        // simulator's. Every other bucket is encoded once, straight into
        // its source's relay frame; an injected drop is a first copy lost in
        // transit — we ship the retransmission too, so it costs real extra
        // bytes; an injected duplicate ships twice. Both extra copies are
        // the encoded bytes again, and both are absorbed by the set merge.
        let mut parts: Vec<Relation> = (0..n).map(|_| Relation::new(schema.clone())).collect();
        let mut relays: Vec<BucketFrame> = (0..n).map(|_| BucketFrame::relay(ctx.trace)).collect();
        let mut expect = vec![0u32; n];
        let mut inbound = vec![TAKE_REPLY_HEAD; n];
        for (from, worker_buckets) in buckets.into_iter().enumerate() {
            for (to, bucket) in worker_buckets.into_iter().enumerate() {
                if bucket.is_empty() {
                    continue;
                }
                let active = ctx.fault.is_active();
                let dropped = active && ctx.fault.drop_exchange(ctx.site, from, to);
                let duplicated = active && ctx.fault.duplicate_exchange(ctx.site, from, to);
                if dropped {
                    ctx.fault.record_time_lost(Duration::from_micros(bucket.len() as u64));
                }
                if from == to {
                    if duplicated {
                        parts[to].absorb_rows(bucket.clone());
                    }
                    parts[to].absorb_rows(bucket);
                    continue;
                }
                let before = relays[from].wire_len();
                relays[from].push_rows(to as u32, arity, &bucket);
                self.inner.counters.rows_encoded.add(bucket.len() as u64);
                let copies = 1 + u32::from(dropped) + u32::from(duplicated);
                for _ in 1..copies {
                    relays[from].repeat_last();
                }
                expect[to] += copies;
                inbound[to] += relays[from].wire_len() - before;
            }
        }
        // A destination whose inbox cannot come back in one frame: final,
        // like a relay that cannot go out in one (see `try_exchange`).
        if let Some((to, &len)) = inbound.iter().enumerate().find(|(_, &len)| len > MAX_FRAME) {
            return Err(WireError::FrameTooLarge { len: len as u64 }.into_mura_error(to));
        }
        let max_attempts = ctx.recovery.max_retries + ctx.fault.config().failures_per_site + 2;
        let mut last: (usize, WireError) = (0, WireError::Malformed("exchange never attempted"));
        let mut xids = Vec::new();
        for attempt in 0..max_attempts {
            if let Some(c) = ctx.cancel {
                if let Err(e) = c.check() {
                    self.cancel(xids);
                    return Err(e);
                }
            }
            let xid = self.inner.next_xid.fetch_add(1, Ordering::Relaxed);
            xids.push(xid);
            match self.try_exchange(ctx, (xid, attempt), &mut parts, &mut relays, &expect) {
                Ok(()) => return Ok(parts),
                Err((w, e @ WireError::FrameTooLarge { .. })) => return Err(e.into_mura_error(w)),
                Err((w, e)) => {
                    last = (w, e);
                    // Respawn whatever died, then re-announce the port map
                    // to everyone: the failure may be a live worker still
                    // delivering to a dead peer's old port (it missed the
                    // respawn announcement while it was itself down).
                    // Retry the whole exchange under a fresh xid.
                    for v in 0..n {
                        let sever = v == w;
                        let _ = self.inner.repair(v, Some(ctx.fault), sever);
                    }
                    self.inner.sync_peers();
                }
            }
        }
        // Retryable: escalates into the recovery ladder (stage rerun,
        // checkpoint restore, restart) exactly like a task failure.
        Err(last.1.into_mura_error(last.0))
    }

    fn broadcast(
        &self,
        ctx: &ExchangeCtx<'_>,
        rel: &Relation,
        id: Option<ReplicaId>,
    ) -> Result<()> {
        let inner = &self.inner;
        // The broadcast allocates its own fault site whether or not anything
        // ships: the simulator backend never consumes one here, and site
        // streams must stay aligned.
        let site = ctx.fault.next_site();
        let max_attempts = ctx.recovery.max_retries + ctx.fault.config().failures_per_site + 2;
        let _one_at_a_time = inner.broadcasting.lock().unwrap();
        // Encoded and checksummed once, when a worker first lacks the
        // replica. Too large for a frame is final.
        let mut shared: Option<(Vec<u8>, Range<usize>)> = None;
        // Scatter to every worker still owed the replica, gather the
        // acknowledgements, repair and retry the ones that failed — each
        // with its own attempt count, so a fault coordinate is rolled once.
        // A worker's faults are rolled whether or not it lacks the replica:
        // what is injected does not depend on what the fleet holds.
        let mut pending: Vec<(usize, u32)> = (0..inner.n).map(|w| (w, 0)).collect();
        while !pending.is_empty() {
            if let Some(c) = ctx.cancel {
                c.check()?;
            }
            for &(w, attempt) in &pending {
                inject_socket_faults(inner, ctx.fault, site, w, attempt);
                if ctx.fault.kill_worker(site, w, attempt) {
                    inner.kill(w);
                }
            }
            pending.retain(|&(w, _)| {
                let held =
                    id.is_some_and(|id| inner.slots[w].ctl.lock().unwrap().replicas.touch(id));
                if held {
                    inner.counters.rows_resident.add(rel.len() as u64);
                }
                !held
            });
            if pending.is_empty() {
                break;
            }
            if shared.is_none() {
                shared = Some(bcast_frame(ctx.trace, id, rel).map_err(|e| e.into_mura_error(0))?);
                inner.counters.rows_encoded.add(rel.len() as u64);
            }
            let (frame, payload) = shared.as_ref().expect("encoded above");
            let size = payload.len() as u64;
            // A worker with replicas to drop gets the payload in a frame of
            // its own that names them.
            let frames = pending.iter().map(|&(w, _)| {
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
                pending.iter().zip(&frames).map(|(&(w, _), f)| (w, &f[..])).collect();
            let acks = inner.round(&requests, |_, reply, tx, rx| {
                ctx.metrics.record_wire_tx(tx, size);
                ctx.metrics.record_wire_rx(rx, 0);
                expect_ok(reply)
            });
            let mut failed = Vec::new();
            for ((w, attempt), ack) in pending.into_iter().zip(acks) {
                let mut slot = inner.slots[w].ctl.lock().unwrap();
                let Err(e) = ack else {
                    slot.replicas.acknowledged(id, size);
                    continue;
                };
                // The worker may or may not have kept it: it is told to
                // drop it with the next broadcast it is sent.
                slot.replicas.evict.extend(id);
                drop(slot);
                if attempt + 1 >= max_attempts {
                    return Err(e.into_mura_error(w));
                }
                let _ = inner.repair(w, Some(ctx.fault), true);
                failed.push((w, attempt + 1));
            }
            if !failed.is_empty() {
                inner.sync_peers();
            }
            pending = failed;
        }
        Ok(())
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
                    SPAN_RELAY => EventKind::ExchangeSend,
                    SPAN_DELIVER => EventKind::ExchangeRecv,
                    SPAN_TAKE => EventKind::ExchangeWait,
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
        assert!(cfg.take_timeout < cfg.io_timeout, "collect wait must fit inside socket timeout");
        assert!(cfg.heartbeat < cfg.liveness_timeout);
    }
}
