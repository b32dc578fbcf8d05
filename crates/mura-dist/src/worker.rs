//! The `mura-worker` process: a data-exchange node of the multi-process
//! cluster backend ([`crate::proc::ProcCluster`]).
//!
//! A worker never decodes rows — exchange payloads are opaque byte blobs.
//! Its whole job is the data plane:
//!
//! * on [`Msg::Exchange`] — the buckets of one exchange bound for this
//!   worker — send the frame straight back as it was read: checksummed on
//!   the way in, not rebuilt, copied into nothing. Every bucket that
//!   changes worker crosses this worker's socket out and back; the
//!   coordinator keeps the buckets that stay on their worker. Nothing is
//!   kept between requests;
//! * on [`Msg::Bcast`], drop the replicas it names for eviction and keep
//!   the payload under its [`ReplicaId`] (within [`REPLICA_CAP`]), so the
//!   coordinator does not ship that value to this process again.
//!
//! The coordinator keeps computation (the fixpoint drivers run its task
//! threads unchanged); the workers make the *communication* real: every
//! bucket that changes worker genuinely crosses a socket twice, and every
//! broadcast replica once, so bytes-on-the-wire accounting measures actual
//! traffic.
//!
//! Telemetry: each worker is a first-class trace source. Data-plane frames
//! carry a [`TraceCtx`]; at `TraceCtx::level >= 2` the worker records a
//! [`WorkerSpan`] per exchange echoed and broadcast kept into a bounded
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
    read_frame, write_frame, Msg, TraceCtx, WorkerCounters, WorkerSnapshot, WorkerSpan,
    REPLICA_CAP, SPAN_BCAST, SPAN_EXCHANGE,
};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The broadcast replicas this worker holds, by identity: never more than
/// [`REPLICA_CAP`] payload bytes.
#[derive(Debug, Default)]
struct ReplicaStore {
    held: HashMap<ReplicaId, Box<[u8]>>,
    bytes: u64,
}

/// Cap on the worker-side span ring. A long fixpoint at
/// `TraceLevel::Superstep` keeps producing spans between flushes; beyond
/// this many the oldest are evicted (counted, surfaced in the merge as
/// `dropped_events`) rather than growing without bound.
pub const WORKER_SPAN_CAPACITY: usize = 8192;

/// Shared state of one worker process.
#[derive(Debug)]
struct WorkerState {
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
    fn record_span(&self, kind: u8, ctx: TraceCtx, bytes: u64, t_us: u64, dur_us: u64) {
        if ctx.level < 2 || ctx.trace_id == 0 {
            return;
        }
        let span = WorkerSpan { kind, ctx, bytes, t_us, dur_us };
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
}

/// Serves one accepted connection until EOF: the coordinator's control and
/// heartbeat connections both land here.
fn handle_conn(state: &Arc<WorkerState>, mut conn: TcpStream) {
    conn.set_nodelay(true).ok();
    let mut read_buf = Vec::new();
    loop {
        let msg = match read_frame(&mut conn, &mut read_buf) {
            Ok((msg, _)) => msg,
            Err(_) => return, // EOF or a bad frame: close this connection.
        };
        let reply = match msg {
            Msg::Hello => Msg::Ok,
            Msg::Ping => Msg::Pong { t_us: state.now_us() },
            Msg::Exchange { ctx, buckets } => {
                state.counters.exchanges.inc();
                let bytes = buckets.iter().map(|(_, payload)| payload.len() as u64).sum();
                let t0 = state.now_us();
                // The reply is the request: the frame goes back as it came.
                if conn.write_all(&read_buf).is_err() {
                    return;
                }
                state.record_span(SPAN_EXCHANGE, ctx, bytes, t0, state.now_us() - t0);
                continue;
            }
            Msg::Bcast { ctx, id, evict, payload } => {
                state.counters.bcasts.inc();
                state.record_span(SPAN_BCAST, ctx, payload.len() as u64, state.now_us(), 0);
                state.keep_replica(id, &evict, payload).map_or_else(Msg::Err, |()| Msg::Ok)
            }
            Msg::TraceFlush { trace_id } => state.flush_trace(trace_id),
            Msg::Exit => std::process::exit(0),
            // Replies arriving as requests: protocol error, drop the conn.
            Msg::Pong { .. } | Msg::Ok | Msg::Err(_) | Msg::TraceBatch { .. } => return,
        };
        if write_frame(&mut conn, &reply).is_err() {
            return;
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
            state.record_span(SPAN_EXCHANGE, ctx, 0, i, 1);
        }
        let Msg::TraceBatch { spans, counters } = state.flush_trace(9) else {
            panic!("a flush answers with a batch");
        };
        assert_eq!(spans.len(), WORKER_SPAN_CAPACITY);
        assert_eq!(spans[0].t_us, 5, "the oldest five went");
        assert_eq!(counters.trace_dropped, 5);
        // Taken, not read: the next batch starts from zero.
        let Msg::TraceBatch { counters, .. } = state.flush_trace(9) else { unreachable!() };
        assert_eq!(counters, WorkerSnapshot::default());
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
