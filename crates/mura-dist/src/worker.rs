//! The `mura-worker` process: a data-exchange node of the multi-process
//! cluster backend ([`crate::proc::ProcCluster`]).
//!
//! A worker never decodes rows — exchange payloads are opaque byte blobs.
//! Its whole job is the data plane:
//!
//! * on [`Msg::Relay`], forward each `(to, payload)` bucket to the
//!   destination peer over a direct worker↔worker TCP connection
//!   ([`Msg::Deliver`]) — the coordinator keeps the buckets that stay on
//!   their worker, so every bucket relayed changes worker;
//! * on [`Msg::Deliver`] from a peer, buffer the bucket under its
//!   exchange id and wake any pending [`Msg::Take`];
//! * on [`Msg::Take`], block (bounded) until the expected number of
//!   buckets arrived, then hand them to the coordinator;
//! * on [`Msg::Bcast`], drop the replicas it names for eviction and keep
//!   the payload under its [`ReplicaId`] (within [`REPLICA_CAP`]), so the
//!   coordinator does not ship that value to this process again.
//!
//! A payload is copied once per hop and no more: a frame is read into the
//! connection's reusable buffer and checksummed there; a forwarded bucket
//! goes from that buffer into the peer connection's reusable frame buffer;
//! a buffered bucket goes from it into the exchange's inbox, which *is* the
//! [`Msg::TakeReply`] frame under construction ([`BucketFrame`]), so
//! answering a `Take` seals and sends the inbox as it stands.
//!
//! The coordinator keeps computation (the fixpoint drivers run its task
//! threads unchanged); the workers make the *communication* real: every
//! bucket that changes worker genuinely crosses two sockets, and every
//! broadcast replica one, so bytes-on-the-wire accounting measures actual
//! traffic.
//!
//! Telemetry: each worker is a first-class trace source. Data-plane frames
//! carry a [`TraceCtx`]; at `TraceCtx::level >= 2` the worker records a
//! [`WorkerSpan`] per relay/deliver/take/broadcast into a bounded
//! drop-oldest ring, timestamped on its own monotonic clock. Per-opcode
//! frame counters run unconditionally. [`Msg::TraceFlush`] drains the ring
//! (and the counter deltas) back to the coordinator as a
//! [`Msg::TraceBatch`]; the coordinator re-bases the timestamps onto its
//! clock using the heartbeat RTT-midpoint offset estimate.
//!
//! Liveness: the worker exits when its stdin reaches EOF (the coordinator
//! holds the write end, so coordinator death reaps the worker — no orphan
//! processes), or when it receives [`Msg::Exit`].

use crate::cluster::ReplicaId;
use crate::wire::{
    frame, read_frame, write_frame, BucketFrame, Msg, TraceCtx, WireError, WorkerCounters,
    WorkerSnapshot, WorkerSpan, REPLICA_CAP, SPAN_BCAST, SPAN_DELIVER, SPAN_RELAY, SPAN_TAKE,
};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Buffered exchange buckets awaiting a [`Msg::Take`]: `xid →` the reply
/// frame they are appended to as they arrive.
type Inbox = HashMap<u64, BucketFrame>;

/// The longest a [`Msg::Take`] waits, whatever its `timeout_ms` says: the
/// coordinator asks for seconds, and a wait off the wire is capped before
/// it is added to the clock, so no value can overflow the deadline.
const MAX_TAKE_WAIT: Duration = Duration::from_secs(60);

/// The broadcast replicas this worker holds, by identity: never more than
/// [`REPLICA_CAP`] payload bytes.
#[derive(Debug, Default)]
struct ReplicaStore {
    held: HashMap<ReplicaId, Box<[u8]>>,
    bytes: u64,
}

/// Outgoing peer connections and the frame buffer every forwarded bucket
/// is built in (one lock covers both: a forward holds it for the write).
#[derive(Debug, Default)]
struct PeerLinks {
    conns: HashMap<u32, TcpStream>,
    frame: Vec<u8>,
}

/// Cap on the worker-side span ring. A long fixpoint at
/// `TraceLevel::Superstep` keeps producing spans between flushes; beyond
/// this many the oldest are evicted (counted, surfaced in the merge as
/// `dropped_events`) rather than growing without bound.
pub const WORKER_SPAN_CAPACITY: usize = 8192;

/// Shared state of one worker process.
#[derive(Debug)]
struct WorkerState {
    /// This worker's index, set by [`Msg::Hello`].
    id: AtomicU32,
    /// Peer listen ports (index = worker id), refreshed by [`Msg::Peers`]
    /// after every respawn.
    peers: Mutex<Vec<u16>>,
    /// Cached outgoing peer connections, invalidated on [`Msg::Peers`].
    peer_links: Mutex<PeerLinks>,
    /// Buffered exchange buckets, by exchange id.
    inbox: Mutex<Inbox>,
    /// Wakes [`Msg::Take`] waiters when a bucket arrives.
    arrived: Condvar,
    /// Broadcast replicas kept across queries.
    replicas: Mutex<ReplicaStore>,
    /// Zero point of this worker's monotonic clock (process start).
    epoch: Instant,
    /// Bounded drop-oldest ring of recorded spans awaiting a flush.
    spans: Mutex<VecDeque<WorkerSpan>>,
    /// Ring evictions and per-opcode data-plane frames since the last flush.
    counters: WorkerCounters,
}

impl WorkerState {
    fn new() -> Self {
        WorkerState {
            id: AtomicU32::new(0),
            peers: Mutex::new(Vec::new()),
            peer_links: Mutex::new(PeerLinks::default()),
            inbox: Mutex::new(Inbox::new()),
            arrived: Condvar::new(),
            replicas: Mutex::new(ReplicaStore::default()),
            epoch: Instant::now(),
            spans: Mutex::new(VecDeque::new()),
            counters: WorkerCounters::new(),
        }
    }

    /// µs since process start on this worker's monotonic clock — the
    /// timescale of every span and of the [`Msg::Pong`] heartbeat reply.
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records a span if the propagated context asks for superstep-level
    /// tracing. The ring is bounded: at capacity the oldest span is
    /// evicted and counted.
    fn record_span(&self, kind: u8, ctx: TraceCtx, xid: u64, bytes: u64, t_us: u64, dur_us: u64) {
        if ctx.level < 2 || ctx.trace_id == 0 {
            return;
        }
        let span = WorkerSpan { kind, ctx, xid, bytes, t_us, dur_us };
        let mut ring = self.spans.lock().unwrap();
        if ring.len() >= WORKER_SPAN_CAPACITY {
            ring.pop_front();
            self.counters.trace_dropped.inc();
        }
        ring.push_back(span);
    }

    /// Drains spans of `trace_id` (0 = everything) plus the counters into
    /// a [`Msg::TraceBatch`]. The counters are taken, not read, so repeated
    /// per-fixpoint flushes add up correctly coordinator-side; the replica
    /// gauges are what the store holds now.
    fn flush_trace(&self, trace_id: u64) -> Msg<'static> {
        let (replicas_held, replica_bytes_held) = {
            let store = self.replicas.lock().unwrap();
            (store.held.len() as u64, store.bytes)
        };
        let drained: Vec<WorkerSpan> = {
            let mut ring = self.spans.lock().unwrap();
            if trace_id == 0 {
                ring.drain(..).collect()
            } else {
                let (matched, rest): (Vec<_>, Vec<_>) =
                    ring.drain(..).partition(|s| s.ctx.trace_id == trace_id);
                ring.extend(rest);
                matched
            }
        };
        let counters = WorkerSnapshot { replicas_held, replica_bytes_held, ..self.counters.take() };
        Msg::TraceBatch { spans: drained, counters }
    }

    fn buffer(&self, xid: u64, from: u32, payload: &[u8]) {
        let mut inbox = self.inbox.lock().unwrap();
        inbox.entry(xid).or_insert_with(BucketFrame::take_reply).push(from, payload);
        self.arrived.notify_all();
    }

    /// Waits (at most `timeout_ms`, at most [`MAX_TAKE_WAIT`]) until
    /// `expect` buckets of exchange `xid` arrived, then hands over the
    /// inbox as it stands; the coordinator checks the count and retries the
    /// whole exchange (fresh xid) if short.
    fn take(&self, xid: u64, expect: u32, timeout_ms: u64) -> BucketFrame {
        let deadline = Instant::now() + Duration::from_millis(timeout_ms).min(MAX_TAKE_WAIT);
        let mut inbox = self.inbox.lock().unwrap();
        loop {
            let have = inbox.get(&xid).map_or(0, BucketFrame::count);
            let left = deadline.saturating_duration_since(Instant::now());
            if have >= expect || left.is_zero() {
                break;
            }
            inbox = self.arrived.wait_timeout(inbox, left).unwrap().0;
        }
        inbox.remove(&xid).unwrap_or_else(BucketFrame::take_reply)
    }

    /// Discards what is buffered under the exchange ids `xids`, and nothing
    /// else: other queries' exchanges keep their buckets.
    fn cancel(&self, xids: &[u64]) {
        self.inbox.lock().unwrap().retain(|xid, _| !xids.contains(xid));
        self.arrived.notify_all();
    }

    /// Drops the replicas `evict` names, then keeps `payload` under `id` if
    /// it has one. Refuses, keeping nothing new, what would take the store
    /// past [`REPLICA_CAP`] — the coordinator evicts before that happens.
    fn keep_replica(
        &self,
        id: Option<ReplicaId>,
        evict: &[ReplicaId],
        payload: &[u8],
    ) -> Result<(), String> {
        let mut store = self.replicas.lock().unwrap();
        for gone in evict {
            if let Some(old) = store.held.remove(gone) {
                store.bytes -= old.len() as u64;
                self.counters.replica_evictions.inc();
            }
        }
        let Some(id) = id else { return Ok(()) };
        let replaced = store.held.get(&id).map_or(0, |p| p.len() as u64);
        let bytes = store.bytes - replaced + payload.len() as u64;
        if bytes > REPLICA_CAP {
            return Err(format!("replica store full: {bytes} bytes past a cap of {REPLICA_CAP}"));
        }
        store.held.insert(id, payload.into());
        store.bytes = bytes;
        Ok(())
    }

    /// Sends `msg` to peer `to` as one frame in one write, reconnecting
    /// once on a stale cached connection (the peer may have been respawned
    /// on a new port).
    fn deliver(&self, to: u32, msg: &Msg<'_>) -> Result<(), WireError> {
        let mut links = self.peer_links.lock().unwrap();
        let PeerLinks { conns, frame: buf } = &mut *links;
        frame(buf, msg)?;
        if let Some(conn) = conns.get_mut(&to) {
            if conn.write_all(buf).is_ok() {
                return Ok(());
            }
            conns.remove(&to);
        }
        let port = {
            let peers = self.peers.lock().unwrap();
            *peers.get(to as usize).ok_or(WireError::Malformed("unknown peer"))?
        };
        let addr = std::net::SocketAddr::from(([127, 0, 0, 1], port));
        let mut conn = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        conn.set_nodelay(true).ok();
        conn.set_write_timeout(Some(Duration::from_secs(5))).ok();
        conn.write_all(buf)?;
        conns.insert(to, conn);
        Ok(())
    }
}

/// Serves one accepted connection until EOF. Any connection may carry any
/// message: the coordinator's control and heartbeat connections and peers'
/// `Deliver` streams all land here.
fn handle_conn(state: &Arc<WorkerState>, mut conn: TcpStream) {
    conn.set_nodelay(true).ok();
    let mut read_buf = Vec::new();
    loop {
        let msg = match read_frame(&mut conn, &mut read_buf) {
            Ok((msg, _)) => msg,
            Err(_) => return, // EOF or a bad frame: close this connection.
        };
        let reply = match msg {
            Msg::Hello { id, .. } => {
                state.id.store(id, Ordering::SeqCst);
                Some(Msg::Ok)
            }
            Msg::Peers(ports) => {
                *state.peers.lock().unwrap() = ports;
                // Ports may have changed (respawn): cached streams are stale.
                state.peer_links.lock().unwrap().conns.clear();
                Some(Msg::Ok)
            }
            Msg::Ping => Some(Msg::Pong { t_us: state.now_us() }),
            Msg::Relay { xid, watermark, ctx, entries } => {
                state.counters.relays.inc();
                let t0 = state.now_us();
                // Prune abandoned exchange attempts before buffering new ones.
                state.inbox.lock().unwrap().retain(|&k, _| k >= watermark);
                let me = state.id.load(Ordering::SeqCst);
                let mut failed: Option<String> = None;
                let mut bytes = 0u64;
                for (to, payload) in entries {
                    bytes += payload.len() as u64;
                    // Propagate the trace context onto the forwarded frame:
                    // the receiving peer's span stays query-attributed.
                    let deliver = Msg::Deliver { xid, from: me, ctx, payload };
                    if let Err(e) = state.deliver(to, &deliver) {
                        failed = Some(format!("deliver to {to}: {e}"));
                        break;
                    }
                }
                state.record_span(SPAN_RELAY, ctx, xid, bytes, t0, state.now_us() - t0);
                Some(match failed {
                    None => Msg::Ok,
                    Some(e) => Msg::Err(e),
                })
            }
            Msg::Deliver { xid, from, ctx, payload } => {
                state.counters.delivers.inc();
                state.record_span(SPAN_DELIVER, ctx, xid, payload.len() as u64, state.now_us(), 0);
                state.buffer(xid, from, payload);
                None // One-way: peers do not wait for acks.
            }
            Msg::Take { xid, expect, timeout_ms, ctx } => {
                state.counters.takes.inc();
                let t0 = state.now_us();
                let mut buckets = state.take(xid, expect, timeout_ms);
                let bytes = buckets.payload_bytes();
                state.record_span(SPAN_TAKE, ctx, xid, bytes, t0, state.now_us() - t0);
                // The inbox is the reply frame: seal it and send it as it is.
                let sent = match buckets.seal() {
                    Ok(()) => conn.write_all(buckets.bytes()).is_ok(),
                    Err(e) => write_frame(&mut conn, &Msg::Err(e.to_string())).is_ok(),
                };
                if !sent {
                    return;
                }
                None
            }
            Msg::Bcast { ctx, id, evict, payload } => {
                state.counters.bcasts.inc();
                state.record_span(SPAN_BCAST, ctx, 0, payload.len() as u64, state.now_us(), 0);
                Some(state.keep_replica(id, &evict, payload).map_or_else(Msg::Err, |()| Msg::Ok))
            }
            Msg::TraceFlush { trace_id } => Some(state.flush_trace(trace_id)),
            Msg::Cancel { xids } => {
                state.cancel(&xids);
                Some(Msg::Ok)
            }
            Msg::Exit => std::process::exit(0),
            // Replies arriving as requests: protocol error, drop the conn.
            Msg::Pong { .. }
            | Msg::Ok
            | Msg::Err(_)
            | Msg::TakeReply(_)
            | Msg::TraceBatch { .. } => return,
        };
        if let Some(reply) = reply {
            if write_frame(&mut conn, &reply).is_err() {
                return;
            }
        }
    }
}

/// Runs a worker: binds a loopback listener, reports the port through
/// `on_port`, and serves connections until [`Msg::Exit`] (which exits the
/// process). Used by the `mura-worker` binary.
pub fn run_worker(on_port: impl FnOnce(u16)) -> std::io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    on_port(listener.local_addr()?.port());
    let state = Arc::new(WorkerState::new());
    for conn in listener.incoming() {
        let Ok(conn) = conn else { continue };
        let state = Arc::clone(&state);
        std::thread::spawn(move || handle_conn(&state, conn));
    }
    Ok(())
}

/// Exits the process when stdin reaches EOF: the coordinator holds the
/// write end of the pipe, so its death (clean or not) reaps this worker.
/// Spawned as a daemon thread by the `mura-worker` binary.
pub fn exit_on_stdin_eof() {
    std::thread::spawn(|| {
        let mut buf = [0u8; 64];
        let mut stdin = std::io::stdin();
        loop {
            match stdin.read(&mut buf) {
                Ok(0) | Err(_) => std::process::exit(0),
                Ok(_) => {}
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WorkerSnapshot;

    #[test]
    fn the_span_ring_is_bounded_and_counts_what_it_evicts() {
        let state = WorkerState::new();
        let ctx = TraceCtx { trace_id: 9, level: 2, ..Default::default() };
        for i in 0..WORKER_SPAN_CAPACITY as u64 + 5 {
            state.record_span(SPAN_RELAY, ctx, i, 0, i, 1);
        }
        let Msg::TraceBatch { spans, counters } = state.flush_trace(9) else {
            panic!("a flush answers with a batch");
        };
        assert_eq!(spans.len(), WORKER_SPAN_CAPACITY);
        assert_eq!(spans[0].xid, 5, "the oldest five went");
        assert_eq!(counters.trace_dropped, 5);
        // Taken, not read: the next batch starts from zero.
        let Msg::TraceBatch { counters, .. } = state.flush_trace(9) else { unreachable!() };
        assert_eq!(counters, WorkerSnapshot::default());
    }

    #[test]
    fn a_take_asking_to_wait_forever_is_answered() {
        // Over a real connection: the old deadline arithmetic panicked the
        // connection's thread, and the coordinator read an EOF.
        let state = Arc::new(WorkerState::new());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        let server = std::thread::spawn(move || handle_conn(&state, served));
        let take = Msg::Take { xid: 1, expect: 0, timeout_ms: u64::MAX, ctx: TraceCtx::default() };
        write_frame(&mut conn, &take).unwrap();
        let mut buf = Vec::new();
        assert_eq!(read_frame(&mut conn, &mut buf).unwrap().0, Msg::TakeReply(vec![]));
        drop(conn);
        server.join().expect("the connection's thread ends at EOF, not in a panic");
    }

    #[test]
    fn a_cancel_discards_its_own_exchanges_only() {
        let state = WorkerState::new();
        state.buffer(7, 0, b"cancelled");
        state.buffer(8, 1, b"another query's");
        state.buffer(9, 1, b"cancelled too");
        state.cancel(&[7, 9]);
        let inbox = state.inbox.lock().unwrap();
        assert_eq!(inbox.keys().copied().collect::<Vec<_>>(), vec![8]);
        assert_eq!(inbox[&8].count(), 1);
    }

    #[test]
    fn replicas_are_kept_by_identity_and_dropped_when_named() {
        let state = WorkerState::new();
        let id = |term| ReplicaId { term, version: 1 };
        let held = |state: &WorkerState| {
            let Msg::TraceBatch { counters, .. } = state.flush_trace(0) else { unreachable!() };
            (counters.replicas_held, counters.replica_bytes_held, counters.replica_evictions)
        };
        state.keep_replica(Some(id(1)), &[], &[1; 10]).unwrap();
        state.keep_replica(Some(id(2)), &[], &[2; 20]).unwrap();
        state.keep_replica(None, &[], &[3; 30]).unwrap();
        assert_eq!(held(&state), (2, 30, 0), "an unnamed broadcast is not kept");
        // Shipped again (its acknowledgement was lost): replaced, not added.
        state.keep_replica(Some(id(2)), &[id(1), id(5)], &[2; 20]).unwrap();
        assert_eq!(held(&state), (1, 20, 1), "one named replica was there to drop");
        // Past the cap: refused whole, the store as it was. (A zeroed
        // buffer the refusal never reads costs no memory.)
        let huge = vec![0; REPLICA_CAP as usize - 19];
        assert!(state.keep_replica(Some(id(3)), &[], &huge).is_err());
        assert_eq!(held(&state), (1, 20, 0));
    }
}
