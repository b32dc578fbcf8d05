//! Length-delimited wire protocol for the multi-process cluster backend.
//!
//! Every frame on a coordinator↔worker connection is
//! `[u32 len LE][u8 opcode][body][u32 crc LE]` where `len` counts the
//! opcode byte plus the body, and `crc` is the CRC-32 (IEEE) of exactly
//! those `len` bytes. Frames are capped at [`MAX_FRAME`] on both sides: a
//! sender refuses to build a larger one ([`WireError::FrameTooLarge`],
//! final, before a byte reaches the socket), a corrupt or hostile length
//! prefix yields a typed [`WireError::Oversized`] instead of an unbounded
//! allocation, a connection that ends mid-frame yields
//! [`WireError::Truncated`] instead of a partial read being interpreted
//! as data, and a body whose trailer does not match yields
//! [`WireError::BadChecksum`] — the receiver closes the connection, so
//! in-flight bit rot is handled by the same supervisor ladder as a
//! dropped connection and corrupted rows are never delivered.
//!
//! A frame is built in **one buffer** — prefix, opcode, header, payload and
//! trailer — and leaves in one `write_all`; a frame is read whole into a
//! buffer the connection reuses, checksummed once, and decoded as a [`Msg`]
//! that *borrows* its payloads from that buffer. Rows are encoded once, as
//! [`mura_core::codec`] row blocks written straight into the outgoing frame
//! ([`BucketFrame::push_rows`], [`bcast_frame`]), and decoded once, straight
//! onto the destination's bag ([`decode_rows_into`]).
//!
//! Exchange payloads (partition buckets, broadcast relations) are opaque
//! byte blobs to the workers — only the coordinator encodes and decodes
//! rows. A worker sends each `Exchange` frame (the buckets bound for it)
//! straight back as it read it, and keeps each named broadcast (`Bcast`
//! with a [`ReplicaId`]) until the coordinator names it for eviction. This
//! keeps both fixpoint plans unchanged (computation stays with the
//! coordinator's task threads) while making hash-exchange and broadcast
//! traffic *real* socket bytes.

use crate::cluster::ReplicaId;
use mura_core::codec::{self, put_bytes_with, put_u32, put_u64, CodecError, Cur};
use mura_core::{MuraError, Relation, Rows, Schema, Value};
use std::fmt;
use std::io::{Read, Write};
use std::ops::Range;

/// Hard cap on a single frame (64 MiB). Large relations are split across
/// per-destination buckets long before this; a frame claiming more is
/// corrupt or hostile.
pub const MAX_FRAME: usize = 64 << 20;

/// What a worker holds of broadcast replicas, in payload bytes, at most:
/// over 100 times the largest broadcast of any committed workload. The
/// coordinator picks what to evict to stay under it; any one broadcast
/// fits, since a frame cannot carry more.
pub const REPLICA_CAP: u64 = 64 << 20;
const _: () = assert!(REPLICA_CAP >= MAX_FRAME as u64);

/// A connection's frame buffers keep their allocation from frame to frame
/// up to this size; one large frame does not pin its megabytes for the
/// connection's lifetime.
const RETAINED_FRAME_BUFFER: usize = 1 << 20;

/// Empties `buf` for the next frame.
fn recycle(buf: &mut Vec<u8>) {
    if buf.capacity() > RETAINED_FRAME_BUFFER {
        *buf = Vec::new();
    } else {
        buf.clear();
    }
}

/// Typed failures of the frame layer.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection mid-frame (or before one started).
    Truncated,
    /// A frame header claimed more than [`MAX_FRAME`] bytes.
    Oversized { len: u64 },
    /// This side was asked to send a frame of more than [`MAX_FRAME`]
    /// bytes. Nothing was written; sending the same data again cannot
    /// succeed, so this is final (see [`WireError::into_mura_error`]).
    FrameTooLarge { len: u64 },
    /// An unknown opcode byte.
    BadOpcode(u8),
    /// The CRC-32 trailer did not match the frame body: the bytes were
    /// damaged in flight. The frame is discarded undelivered.
    BadChecksum { expected: u32, got: u32 },
    /// A structurally invalid frame body.
    Malformed(&'static str),
    /// An underlying socket error.
    Io(std::io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "connection closed mid-frame"),
            WireError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds cap of {MAX_FRAME}")
            }
            WireError::FrameTooLarge { len } => {
                write!(f, "refusing to send a frame of {len} bytes (cap {MAX_FRAME})")
            }
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            WireError::BadChecksum { expected, got } => {
                write!(f, "frame checksum mismatch: expected {expected:#010x}, got {got:#010x}")
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Malformed(match e {
            CodecError::Truncated { .. } => "field extends past frame end",
            CodecError::BadUtf8 { .. } => "string is not utf-8",
            CodecError::BadTag { what, .. } | CodecError::Invalid { what, .. } => what,
        })
    }
}

impl WireError {
    /// Maps a wire failure on worker `w`'s connection into the engine's
    /// error space. Everything a fresh connection or a respawned worker may
    /// fix becomes the retryable [`MuraError::WorkerFailed`], so the
    /// exchange layer's repair loop and the existing recovery ladder (task
    /// retry → stage rerun → checkpoint restore → restart) handle it like
    /// any other worker death; a frame this side refused to build is
    /// [`MuraError::ResourceExhausted`], which nothing retries.
    pub fn into_mura_error(self, worker: usize) -> MuraError {
        match self {
            WireError::FrameTooLarge { len } => MuraError::ResourceExhausted {
                what: "wire frame bytes",
                limit: MAX_FRAME as u64,
                reached: len,
            },
            other => MuraError::WorkerFailed { worker, payload: format!("wire: {other}") },
        }
    }
}

/// Result alias for the frame layer.
pub type WireResult<T> = std::result::Result<T, WireError>;

// Opcodes: coordinator → worker requests and worker replies (an `Exchange`
// is both).
const OP_HELLO: u8 = 1;
const OP_PING: u8 = 2;
const OP_PONG: u8 = 3;
const OP_EXCHANGE: u8 = 4;
const OP_BCAST: u8 = 5;
const OP_EXIT: u8 = 6;
const OP_OK: u8 = 7;
const OP_ERR: u8 = 8;
const OP_TRACE_FLUSH: u8 = 9;
const OP_TRACE: u8 = 10;

/// Trace context propagated on every data-plane frame (Dapper-style): the
/// coordinator stamps EXCHANGE/BCAST requests, so a worker's span knows
/// which query/fixpoint/superstep produced the bytes. All-zero when
/// tracing is off (`level == 0`); workers record spans only at
/// `level >= 2` (superstep granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Process-unique id of the coordinator's trace sink.
    pub trace_id: u64,
    /// Serving-layer job id (0 outside the server).
    pub query_id: u64,
    /// Which fixpoint of the query is communicating.
    pub fixpoint: u32,
    /// Superstep number (0 = setup / outside the recursion loop).
    pub superstep: u32,
    /// Numeric `TraceLevel` (0 = off, 1 = fixpoint, 2 = superstep).
    pub level: u8,
}

/// Encoded size of a [`TraceCtx`] in bytes.
const TRACE_CTX_BYTES: usize = 25;

impl TraceCtx {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, self.trace_id);
        put_u64(out, self.query_id);
        put_u32(out, self.fixpoint);
        put_u32(out, self.superstep);
        out.push(self.level);
    }

    fn get(c: &mut Cur<'_>) -> WireResult<TraceCtx> {
        Ok(TraceCtx {
            trace_id: c.u64()?,
            query_id: c.u64()?,
            fixpoint: c.u32()?,
            superstep: c.u32()?,
            level: c.u8()?,
        })
    }
}

/// Span kinds recorded worker-side (the `kind` byte of a [`WorkerSpan`]):
/// an exchange frame echoed, duration = the echo's write.
pub const SPAN_EXCHANGE: u8 = 1;
/// A broadcast replica received.
pub const SPAN_BCAST: u8 = 2;

mura_obs::counter_set! {
    /// What a worker process counts about itself. The worker `take`s the
    /// set into every [`Msg::TraceBatch`]; the coordinator adds the batches
    /// up, so its totals are what the workers themselves saw — a count of
    /// the data plane that does not pass through the coordinator's own
    /// accounting.
    pub struct WorkerCounters => WorkerSnapshot {
        counter "mura_trace_dropped_spans_total",
            "Worker-side trace spans dropped to the bounded per-worker sink." {
            /// Spans evicted from a worker's bounded ring before a flush.
            trace_dropped,
        }
        counter "mura_worker_frames_total",
            "Data-plane frames handled by workers, counted worker-side." {
            exchanges {op = "exchange"},
            bcasts {op = "bcast"},
        }
        counter "mura_worker_replica_evictions_total",
            "Broadcast replicas workers dropped because the coordinator named them." {
            replica_evictions,
        }
        supplied {
            gauge "mura_worker_replicas_held",
                "Broadcast replicas the workers hold, as each last reported." {
                replicas_held {unit = "replicas"},
                replica_bytes_held {unit = "bytes"},
            }
        }
    }
}

/// One worker-side span, timestamped on the **worker's** monotonic clock
/// (µs since its process start). The coordinator's merger re-bases these
/// onto its own clock using the PING/PONG RTT-midpoint offset estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerSpan {
    /// [`SPAN_EXCHANGE`] or [`SPAN_BCAST`].
    pub kind: u8,
    /// Trace context propagated on the frame that caused this span.
    pub ctx: TraceCtx,
    /// Data-plane payload bytes handled by this span.
    pub bytes: u64,
    /// Start, in µs on the worker's clock.
    pub t_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
}

/// Encoded size of a [`WorkerSpan`] in bytes.
const SPAN_BYTES: usize = 1 + TRACE_CTX_BYTES + 24;

impl WorkerSpan {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.kind);
        self.ctx.put(out);
        put_u64(out, self.bytes);
        put_u64(out, self.t_us);
        put_u64(out, self.dur_us);
    }

    fn get(c: &mut Cur<'_>) -> WireResult<WorkerSpan> {
        Ok(WorkerSpan {
            kind: c.u8()?,
            ctx: TraceCtx::get(c)?,
            bytes: c.u64()?,
            t_us: c.u64()?,
            dur_us: c.u64()?,
        })
    }
}

/// One protocol message. A decoded message borrows its payloads from the
/// frame buffer it was read into; nothing is copied out of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg<'a> {
    /// The coordinator opens a fresh control connection.
    Hello,
    /// Heartbeat request (supervisor liveness probe).
    Ping,
    /// Heartbeat reply, carrying the worker's monotonic clock (µs since
    /// its process start) for RTT-midpoint clock alignment.
    Pong { t_us: u64 },
    /// The `(from, payload)` buckets of one exchange bound for this
    /// worker. The worker answers with the frame as it read it.
    Exchange { ctx: TraceCtx, buckets: Vec<(u32, &'a [u8])> },
    /// A broadcast relation payload replicated to this worker, kept under
    /// `id` when it has one, after dropping the replicas `evict` names.
    Bcast { ctx: TraceCtx, id: Option<ReplicaId>, evict: Vec<ReplicaId>, payload: &'a [u8] },
    /// Orderly shutdown request; the worker process exits.
    Exit,
    /// Generic success reply.
    Ok,
    /// Generic failure reply (e.g. a replica that does not fit).
    Err(String),
    /// Coordinator → worker: hand over buffered spans of `trace_id`
    /// (0 = everything), plus the worker's counters since the last flush.
    TraceFlush { trace_id: u64 },
    /// Reply to [`Msg::TraceFlush`]: drained spans and what the worker
    /// counted since its last flush.
    TraceBatch { spans: Vec<WorkerSpan>, counters: WorkerSnapshot },
}

fn get_buckets<'a>(c: &mut Cur<'a>) -> WireResult<Vec<(u32, &'a [u8])>> {
    // A bucket is at least its two `u32`s: a count the frame cannot hold
    // is refused before anything is allocated for it.
    let n = c.seq_len(8)?;
    let mut buckets = Vec::with_capacity(n);
    for _ in 0..n {
        buckets.push((c.u32()?, c.bytes()?));
    }
    Ok(buckets)
}

fn put_replica(out: &mut Vec<u8>, id: ReplicaId) {
    put_u64(out, id.term);
    put_u64(out, id.version);
}

fn get_replica(c: &mut Cur<'_>) -> WireResult<ReplicaId> {
    Ok(ReplicaId { term: c.u64()?, version: c.u64()? })
}

/// The head of a broadcast body, behind its opcode: trace context, the
/// identity (a flag byte, then the id if the flag is 1), the evictions.
fn put_bcast_head(out: &mut Vec<u8>, ctx: TraceCtx, id: Option<ReplicaId>, evict: &[ReplicaId]) {
    ctx.put(out);
    out.push(u8::from(id.is_some()));
    id.into_iter().for_each(|id| put_replica(out, id));
    put_u32(out, evict.len() as u32);
    evict.iter().for_each(|&id| put_replica(out, id));
}

impl<'a> Msg<'a> {
    /// Appends the frame body (opcode byte included, length prefix and
    /// trailer not) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Hello => out.push(OP_HELLO),
            Msg::Ping => out.push(OP_PING),
            Msg::Pong { t_us } => {
                out.push(OP_PONG);
                put_u64(out, *t_us);
            }
            Msg::Exchange { ctx, buckets } => {
                out.push(OP_EXCHANGE);
                ctx.put(out);
                put_u32(out, buckets.len() as u32);
                for &(from, payload) in buckets {
                    put_u32(out, from);
                    put_bytes_with(out, |out| out.extend_from_slice(payload));
                }
            }
            Msg::Bcast { ctx, id, evict, payload } => {
                out.push(OP_BCAST);
                put_bcast_head(out, *ctx, *id, evict);
                put_bytes_with(out, |out| out.extend_from_slice(payload));
            }
            Msg::Exit => out.push(OP_EXIT),
            Msg::Ok => out.push(OP_OK),
            Msg::Err(msg) => {
                out.push(OP_ERR);
                codec::put_string(out, msg);
            }
            Msg::TraceFlush { trace_id } => {
                out.push(OP_TRACE_FLUSH);
                put_u64(out, *trace_id);
            }
            Msg::TraceBatch { spans, counters } => {
                out.push(OP_TRACE);
                for value in counters.encode() {
                    put_u64(out, value);
                }
                put_u32(out, spans.len() as u32);
                for s in spans {
                    s.put(out);
                }
            }
        }
    }

    /// The frame body as a buffer of its own (tests and diagnostics).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_into(&mut out);
        out
    }

    /// Decodes a frame body produced by [`Msg::encode_into`]; payloads stay
    /// where they are in `buf`.
    pub fn decode(buf: &'a [u8]) -> WireResult<Msg<'a>> {
        let mut c = Cur::new(buf);
        let msg = match c.u8()? {
            OP_HELLO => Msg::Hello,
            OP_PING => Msg::Ping,
            OP_PONG => Msg::Pong { t_us: c.u64()? },
            OP_EXCHANGE => {
                Msg::Exchange { ctx: TraceCtx::get(&mut c)?, buckets: get_buckets(&mut c)? }
            }
            OP_BCAST => Msg::Bcast {
                ctx: TraceCtx::get(&mut c)?,
                id: match c.u8()? {
                    0 => None,
                    1 => Some(get_replica(&mut c)?),
                    _ => return Err(WireError::Malformed("replica flag")),
                },
                evict: (0..c.seq_len(16)?)
                    .map(|_| get_replica(&mut c))
                    .collect::<WireResult<_>>()?,
                payload: c.bytes()?,
            },
            OP_EXIT => Msg::Exit,
            OP_OK => Msg::Ok,
            OP_ERR => Msg::Err(c.string()?),
            OP_TRACE_FLUSH => Msg::TraceFlush { trace_id: c.u64()? },
            OP_TRACE => {
                let mut values = [0; WorkerSnapshot::N];
                for value in &mut values {
                    *value = c.u64()?;
                }
                let n = c.seq_len(SPAN_BYTES)?;
                let mut spans = Vec::with_capacity(n);
                for _ in 0..n {
                    spans.push(WorkerSpan::get(&mut c)?);
                }
                Msg::TraceBatch { spans, counters: WorkerSnapshot::decode(values) }
            }
            other => return Err(WireError::BadOpcode(other)),
        };
        Ok(msg)
    }
}

// ----------------------------------------------------------------- frames

/// Bytes a frame adds around its body: length prefix and CRC-32 trailer.
const FRAME_OVERHEAD: usize = 8;

/// Completes the frame whose prefix starts `buf` and whose body follows
/// it: checks the body against `cap`, writes the length into the prefix and
/// appends the CRC-32 of the body — the one pass over the frame's bytes on
/// the sending side.
fn end_frame(buf: &mut Vec<u8>, cap: usize) -> WireResult<()> {
    let len = buf.len() - 4;
    if len > cap {
        return Err(WireError::FrameTooLarge { len: len as u64 });
    }
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = mura_core::crc32(&buf[4..]);
    put_u32(buf, crc);
    Ok(())
}

fn framed_within(msg: &Msg<'_>, cap: usize) -> WireResult<Vec<u8>> {
    let mut buf = Vec::new();
    put_u32(&mut buf, 0);
    msg.encode_into(&mut buf);
    end_frame(&mut buf, cap)?;
    Ok(buf)
}

/// The complete frame of `msg` as a buffer of its own. Fails with
/// [`WireError::FrameTooLarge`] when the body exceeds [`MAX_FRAME`].
pub fn framed(msg: &Msg<'_>) -> WireResult<Vec<u8>> {
    framed_within(msg, MAX_FRAME)
}

/// Writes `msg` as one frame in one `write_all`. Returns the total bytes
/// put on the wire (prefix and trailer included) for traffic accounting.
/// An over-large message is refused before the writer is touched.
pub fn write_frame(w: &mut impl Write, msg: &Msg<'_>) -> WireResult<u64> {
    let buf = framed(msg)?;
    w.write_all(&buf)?;
    w.flush()?;
    Ok(buf.len() as u64)
}

/// Fault injection only: writes `msg` as a frame whose body has one byte
/// flipped *after* the CRC trailer was computed, modeling in-flight bit
/// rot. `entropy` seeds which byte and which bit. The receiver must
/// surface [`WireError::BadChecksum`] and drop the connection rather than
/// act on the damaged frame.
pub fn write_corrupted_frame(w: &mut impl Write, msg: &Msg<'_>, entropy: u64) -> WireResult<u64> {
    let mut buf = framed(msg)?;
    let body = buf.len() - FRAME_OVERHEAD;
    let idx = 4 + (entropy as usize) % body;
    let bit = ((entropy >> 32) % 8) as u8;
    buf[idx] ^= 1 << bit;
    w.write_all(&buf)?;
    w.flush()?;
    Ok(buf.len() as u64)
}

/// Reads one frame into `buf` (the connection's reusable read buffer),
/// enforcing [`MAX_FRAME`] and the CRC-32 trailer — the one pass over the
/// frame's bytes on the receiving side. Returns the decoded message, which
/// borrows its payloads from `buf`, and the total bytes read (prefix and
/// trailer included). `buf` then holds the whole frame as it came off the
/// wire, so it can be sent back unchanged.
pub fn read_frame<'b>(r: &mut impl Read, buf: &'b mut Vec<u8>) -> WireResult<(Msg<'b>, u64)> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized { len: len as u64 });
    }
    if len == 0 {
        return Err(WireError::Malformed("empty frame"));
    }
    let rest = len + 4;
    recycle(buf);
    buf.extend_from_slice(&len_buf);
    // Straight into the spare capacity, grown as the bytes arrive rather
    // than reserved for what the prefix claims: a lying prefix costs what
    // was sent, not up to `MAX_FRAME`. A connection's buffer keeps its
    // capacity from frame to frame, so in steady state nothing grows.
    if r.by_ref().take(rest as u64).read_to_end(buf)? < rest {
        return Err(WireError::Truncated);
    }
    let (body, trailer) = buf[4..].split_at(len);
    let expected = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    let got = mura_core::crc32(body);
    if got != expected {
        return Err(WireError::BadChecksum { expected, got });
    }
    Ok((Msg::decode(body)?, (FRAME_OVERHEAD + len) as u64))
}

/// A [`Msg::Exchange`] frame under construction: a frame whose body ends in
/// a counted list of `[u32 from][u32 len][payload]` buckets, each encoded
/// from rows exactly once, in place. Sealing patches the count and the
/// length prefix and appends the trailer, so the bytes that go to the
/// socket — on every attempt — are the buffer itself.
#[derive(Debug)]
pub struct BucketFrame {
    buf: Vec<u8>,
    /// Where the `u32` bucket count sits in `buf`.
    count_at: usize,
    count: u32,
    /// Where the most recent bucket starts.
    last_at: usize,
    payload_bytes: u64,
    sealed: bool,
}

impl BucketFrame {
    /// An empty [`Msg::Exchange`] frame stamped with `ctx`.
    pub fn exchange(ctx: TraceCtx) -> BucketFrame {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0);
        buf.push(OP_EXCHANGE);
        ctx.put(&mut buf);
        let count_at = buf.len();
        put_u32(&mut buf, 0);
        BucketFrame { buf, count_at, count: 0, last_at: 0, payload_bytes: 0, sealed: false }
    }

    fn pushed(&mut self) {
        self.count += 1;
        self.payload_bytes += (self.buf.len() - self.last_at - 8) as u64;
    }

    /// Encodes `rows` as the bucket from worker `from`, straight into the
    /// frame.
    pub fn push_rows<I>(&mut self, from: u32, arity: usize, rows: I)
    where
        I: IntoIterator + Clone,
        I::Item: AsRef<[Value]>,
    {
        debug_assert!(!self.sealed, "bucket pushed into a sealed frame");
        self.last_at = self.buf.len();
        put_u32(&mut self.buf, from);
        put_bytes_with(&mut self.buf, |buf| codec::put_rows(buf, arity, rows));
        self.pushed();
    }

    /// Appends a copy of the most recent bucket (an injected duplicate or
    /// retransmission: the same bytes again, not the rows encoded again).
    pub fn repeat_last(&mut self) {
        assert!(self.count > 0, "no bucket to repeat");
        let from = self.last_at;
        self.last_at = self.buf.len();
        self.buf.extend_from_within(from..self.last_at);
        self.pushed();
    }

    /// Buckets in the frame.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Payload bytes of all buckets (entry heads and framing excluded) —
    /// what [`crate::CommStats`] counts as exchange bytes.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    fn seal_within(&mut self, cap: usize) -> WireResult<()> {
        debug_assert!(!self.sealed, "a frame is sealed once");
        self.buf[self.count_at..self.count_at + 4].copy_from_slice(&self.count.to_le_bytes());
        end_frame(&mut self.buf, cap)?;
        self.sealed = true;
        Ok(())
    }

    /// Completes the frame: patches the bucket count and the length prefix
    /// and appends the trailer. Fails with [`WireError::FrameTooLarge`]
    /// beyond [`MAX_FRAME`].
    pub fn seal(&mut self) -> WireResult<()> {
        self.seal_within(MAX_FRAME)
    }

    /// The sealed frame, ready for one `write_all`.
    ///
    /// # Panics
    /// Panics if the frame was not sealed (it has no trailer yet).
    pub fn bytes(&self) -> &[u8] {
        assert!(self.sealed, "frame read before it was sealed");
        &self.buf
    }
}

/// Builds the complete [`Msg::Bcast`] frame of `rel` under `id`, with no
/// evictions, its rows encoded straight into the frame. Returns the frame
/// and where the row-block payload sits in it: a worker that has replicas
/// to drop is sent the same payload in a frame of its own.
pub fn bcast_frame(
    ctx: TraceCtx,
    id: Option<ReplicaId>,
    rel: &Relation,
) -> WireResult<(Vec<u8>, Range<usize>)> {
    let mut buf = Vec::new();
    put_u32(&mut buf, 0);
    buf.push(OP_BCAST);
    put_bcast_head(&mut buf, ctx, id, &[]);
    let payload_at = buf.len() + 4;
    put_bytes_with(&mut buf, |buf| codec::put_rows(buf, rel.schema().arity(), rel));
    let payload = payload_at..buf.len();
    end_frame(&mut buf, MAX_FRAME)?;
    Ok((buf, payload))
}

// ------------------------------------------------------------- row codec

/// Encodes a bucket of rows as one [`mura_core::codec`] row block.
pub fn encode_rows<I>(arity: usize, rows: I) -> Vec<u8>
where
    I: IntoIterator + Clone,
    I::Item: AsRef<[Value]>,
{
    let mut out = Vec::new();
    codec::put_rows(&mut out, arity, rows);
    out
}

fn row_block(buf: &[u8], arity: usize) -> WireResult<codec::RowBlock<'_>> {
    let mut cur = Cur::new(buf);
    let block = codec::get_rows(&mut cur, arity)?;
    cur.expect_done()?;
    Ok(block)
}

/// Decodes a bucket — a block of rows of `dest`'s arity — onto the end of
/// `dest`. Nothing is deduplicated: the bag's consumer does that.
pub fn decode_rows_into(buf: &[u8], dest: &mut Rows) -> WireResult<()> {
    let rows = row_block(buf, dest.arity())?.decode();
    if dest.is_empty() {
        *dest = rows;
    } else {
        dest.append(&rows);
    }
    Ok(())
}

/// Encodes a whole relation (broadcast payloads).
pub fn encode_relation(rel: &Relation) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_rows(&mut out, rel.schema().arity(), rel);
    out
}

/// Decodes a relation payload against `schema`.
pub fn decode_relation(buf: &[u8], schema: &Schema) -> WireResult<Relation> {
    let mut rows = Rows::new(schema.arity());
    decode_rows_into(buf, &mut rows)?;
    Ok(Relation::from_distinct(schema.clone(), rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::{Row, Sym, Value};

    fn round_trip(msg: Msg<'_>) {
        let body = msg.encode();
        assert_eq!(Msg::decode(&body).unwrap(), msg);
        // And through a stream.
        let mut wire = Vec::new();
        write_frame(&mut wire, &msg).unwrap();
        let mut buf = Vec::new();
        let (back, n) = read_frame(&mut wire.as_slice(), &mut buf).unwrap();
        assert_eq!(back, msg);
        assert_eq!(n as usize, wire.len());
    }

    /// A broadcast frame standing for any payload-carrying message.
    fn bcast(ctx: TraceCtx, payload: &[u8]) -> Msg<'_> {
        Msg::Bcast { ctx, id: None, evict: vec![], payload }
    }

    fn test_ctx() -> TraceCtx {
        TraceCtx { trace_id: 0xDEAD_BEEF, query_id: 42, fixpoint: 3, superstep: 7, level: 2 }
    }

    #[test]
    fn messages_round_trip() {
        round_trip(Msg::Hello);
        round_trip(Msg::Ping);
        round_trip(Msg::Pong { t_us: 123_456_789 });
        round_trip(Msg::Exchange {
            ctx: test_ctx(),
            buckets: vec![(0, &[1, 2, 3][..]), (3, &[][..])],
        });
        round_trip(Msg::Exchange { ctx: TraceCtx::default(), buckets: vec![] });
        round_trip(bcast(TraceCtx::default(), &[5; 100]));
        round_trip(Msg::Bcast {
            ctx: test_ctx(),
            id: Some(ReplicaId { term: 0xFEED, version: 12 }),
            evict: vec![ReplicaId { term: 1, version: 2 }, ReplicaId { term: 3, version: 4 }],
            payload: &[6; 10],
        });
        round_trip(Msg::Exit);
        round_trip(Msg::Ok);
        round_trip(Msg::Err("replica store full".into()));
        round_trip(Msg::TraceFlush { trace_id: 0xDEAD_BEEF });
        round_trip(Msg::TraceBatch {
            spans: vec![
                WorkerSpan {
                    kind: SPAN_EXCHANGE,
                    ctx: test_ctx(),
                    bytes: 4096,
                    t_us: 1_000_000,
                    dur_us: 250,
                },
                WorkerSpan::default(),
            ],
            counters: WorkerSnapshot::decode([5, 8, 2, 3, 4, 4096]),
        });
    }

    #[test]
    fn one_read_buffer_serves_frame_after_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &bcast(test_ctx(), &[7; 300])).unwrap();
        write_frame(&mut wire, &Msg::Ok).unwrap();
        let exchange = Msg::Exchange { ctx: test_ctx(), buckets: vec![(2, &[1; 40][..])] };
        write_frame(&mut wire, &exchange).unwrap();
        let mut stream = wire.as_slice();
        let mut buf = Vec::new();
        let (first, _) = read_frame(&mut stream, &mut buf).unwrap();
        assert_eq!(first, bcast(test_ctx(), &[7; 300]));
        let cap = buf.capacity();
        assert_eq!(read_frame(&mut stream, &mut buf).unwrap().0, Msg::Ok);
        let (third, _) = read_frame(&mut stream, &mut buf).unwrap();
        assert_eq!(third, exchange);
        assert_eq!(buf.capacity(), cap, "smaller frames reuse the allocation");
        assert!(stream.is_empty());
        // A frame past the retention limit does not stay allocated.
        let big = vec![3u8; RETAINED_FRAME_BUFFER + 1];
        let mut wire = Vec::new();
        write_frame(&mut wire, &bcast(test_ctx(), &big)).unwrap();
        write_frame(&mut wire, &Msg::Ok).unwrap();
        let mut stream = wire.as_slice();
        read_frame(&mut stream, &mut buf).unwrap();
        assert!(buf.capacity() > RETAINED_FRAME_BUFFER);
        read_frame(&mut stream, &mut buf).unwrap();
        assert!(buf.capacity() <= RETAINED_FRAME_BUFFER);
    }

    fn pair(a: i64, b: i64) -> Row {
        vec![Value::int(a), Value::int(b)].into_boxed_slice()
    }

    #[test]
    fn bucket_frames_are_the_messages_they_stand_for() {
        let rows = [pair(1, 2), pair(3, 4)];
        let block = encode_rows(2, &rows);
        let mut exchange = BucketFrame::exchange(test_ctx());
        exchange.push_rows(1, 2, &rows);
        exchange.repeat_last();
        exchange.push_rows(0, 2, &rows[..1]);
        let single = encode_rows(2, &rows[..1]);
        assert_eq!(exchange.count(), 3);
        assert_eq!(exchange.payload_bytes(), (2 * block.len() + single.len()) as u64);
        exchange.seal().unwrap();
        let wire = exchange.bytes().to_vec();
        let mut buf = Vec::new();
        let (msg, n) = read_frame(&mut wire.as_slice(), &mut buf).unwrap();
        assert_eq!(n as usize, wire.len());
        let expected = Msg::Exchange {
            ctx: test_ctx(),
            buckets: vec![(1, &block[..]), (1, &block[..]), (0, &single[..])],
        };
        assert_eq!(msg, expected);
        // Byte for byte what the generic encoder writes.
        assert_eq!(wire, framed(&expected).unwrap());
        let mut empty = BucketFrame::exchange(test_ctx());
        empty.seal().unwrap();
        let (msg, _) = read_frame(&mut empty.bytes(), &mut buf).unwrap();
        assert_eq!(msg, Msg::Exchange { ctx: test_ctx(), buckets: vec![] });

        let rel = Relation::from_rows(Schema::new(vec![Sym(0), Sym(1)]), rows.iter().cloned());
        let id = Some(ReplicaId { term: 5, version: 6 });
        let (wire, payload) = bcast_frame(test_ctx(), id, &rel).unwrap();
        let (msg, _) = read_frame(&mut wire.as_slice(), &mut buf).unwrap();
        let bytes = &wire[payload];
        let generic = Msg::Bcast { ctx: test_ctx(), id, evict: vec![], payload: bytes };
        assert_eq!(msg, generic);
        assert_eq!(wire, framed(&generic).unwrap(), "byte for byte the generic encoding");
        assert_eq!(decode_relation(bytes, rel.schema()).unwrap(), rel);
        // The frame a worker with a replica to drop is sent instead.
        let evict = vec![ReplicaId { term: 7, version: 8 }];
        let evicting = Msg::Bcast { ctx: test_ctx(), id, evict, payload: bytes };
        let wire = framed(&evicting).unwrap();
        assert_eq!(read_frame(&mut wire.as_slice(), &mut buf).unwrap().0, evicting);
    }

    #[test]
    fn a_frame_read_is_in_its_buffer_byte_for_byte() {
        // What a worker echoes: the read buffer, not a frame built again.
        let mut exchange = BucketFrame::exchange(test_ctx());
        exchange.push_rows(1, 2, &[pair(10, 20), pair(30, 40)]);
        exchange.push_rows(0, 2, &[pair(50, 60)]);
        exchange.seal().unwrap();
        let mut wire = exchange.bytes().to_vec();
        write_frame(&mut wire, &Msg::Ok).unwrap();
        let mut stream = wire.as_slice();
        let mut buf = Vec::new();
        let (msg, n) = read_frame(&mut stream, &mut buf).unwrap();
        assert!(matches!(msg, Msg::Exchange { ref buckets, .. } if buckets.len() == 2));
        assert_eq!(n as usize, exchange.bytes().len());
        assert_eq!(buf, exchange.bytes());
        let (msg, _) = read_frame(&mut stream, &mut buf).unwrap();
        assert_eq!(msg, Msg::Ok);
        assert_eq!(buf, framed(&Msg::Ok).unwrap());
    }

    #[test]
    fn an_oversized_frame_is_refused_before_the_socket_is_touched() {
        // Lowered cap: the production path differs only in the constant.
        let msg = bcast(test_ctx(), &[1; 64]);
        match framed_within(&msg, 32) {
            Err(WireError::FrameTooLarge { len }) => assert_eq!(len as usize, msg.encode().len()),
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        framed_within(&msg, 128).unwrap();
        let rows: Vec<Row> = (0..20).map(|i| pair(i, i)).collect();
        let mut exchange = BucketFrame::exchange(test_ctx());
        exchange.push_rows(0, 2, &rows);
        assert!(matches!(exchange.seal_within(64), Err(WireError::FrameTooLarge { .. })));
        let mut exchange = BucketFrame::exchange(test_ctx());
        exchange.push_rows(0, 2, &rows);
        assert!(exchange.seal_within(4096).is_ok());
        // Final, not retryable: resending the same rows cannot fit either.
        let err = WireError::FrameTooLarge { len: 1 << 30 }.into_mura_error(2);
        assert!(!err.is_retryable(), "{err:?}");
        assert!(matches!(err, MuraError::ResourceExhausted { reached, .. } if reached == 1 << 30));
        // Whereas a length prefix the *peer* sent is a connection fault.
        assert!(WireError::Oversized { len: 1 << 30 }.into_mura_error(2).is_retryable());
    }

    #[test]
    fn span_count_lie_is_rejected() {
        // A TRACE body claiming 2^30 spans in a tiny frame must not allocate.
        let mut buf = vec![OP_TRACE];
        for _ in 0..WorkerSnapshot::N {
            buf.extend_from_slice(&0u64.to_le_bytes());
        }
        buf.extend_from_slice(&(1u32 << 30).to_le_bytes());
        assert!(matches!(Msg::decode(&buf), Err(WireError::Malformed(_))));
        // Likewise a bucket count.
        let mut buf = vec![OP_EXCHANGE];
        buf.extend_from_slice(&[0; TRACE_CTX_BYTES]);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0; 64]);
        assert!(matches!(Msg::decode(&buf), Err(WireError::Malformed(_))));
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocating() {
        // A header claiming 4 GiB must fail fast with a typed error.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&[0; 16]);
        let mut buf = Vec::new();
        match read_frame(&mut wire.as_slice(), &mut buf) {
            Err(WireError::Oversized { len }) => assert_eq!(len, u32::MAX as u64),
            other => panic!("expected Oversized, got {other:?}"),
        }
        assert_eq!(buf.capacity(), 0);
    }

    #[test]
    fn truncated_frame_is_typed() {
        let body = Msg::Pong { t_us: 2 }.encode();
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32 + 10).to_le_bytes());
        wire.extend_from_slice(&body); // 10 bytes short of the claim
        let mut buf = Vec::new();
        assert!(matches!(read_frame(&mut wire.as_slice(), &mut buf), Err(WireError::Truncated)));
        // Cut mid-header too.
        let short = vec![3u8, 0];
        assert!(matches!(read_frame(&mut short.as_slice(), &mut buf), Err(WireError::Truncated)));
    }

    #[test]
    fn flipped_bit_fails_the_checksum() {
        let msg = Msg::Exchange { ctx: test_ctx(), buckets: vec![(1, &[0xAB; 64][..])] };
        let mut wire = Vec::new();
        write_frame(&mut wire, &msg).unwrap();
        // Flip one payload bit (past the length prefix, before the CRC).
        let mut buf = Vec::new();
        for idx in [4usize, 20, wire.len() - 6] {
            let mut damaged = wire.clone();
            damaged[idx] ^= 0x10;
            match read_frame(&mut damaged.as_slice(), &mut buf) {
                Err(WireError::BadChecksum { expected, got }) => assert_ne!(expected, got),
                other => panic!("flip at {idx}: expected BadChecksum, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_frame_helper_is_detected() {
        let msg = bcast(test_ctx(), &[7; 128]);
        let mut buf = Vec::new();
        for entropy in [0u64, 1, 0xDEAD_BEEF_0000_0005, u64::MAX] {
            let mut wire = Vec::new();
            let n = write_corrupted_frame(&mut wire, &msg, entropy).unwrap();
            assert_eq!(n as usize, wire.len());
            assert!(
                matches!(
                    read_frame(&mut wire.as_slice(), &mut buf),
                    Err(WireError::BadChecksum { .. })
                ),
                "entropy {entropy:#x} must yield a checksum mismatch"
            );
        }
    }

    #[test]
    fn garbage_bytes_never_panic() {
        // Deterministic pseudo-random garbage: every prefix must produce a
        // typed error (or a valid small message), never a panic or a huge
        // allocation.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut garbage = Vec::with_capacity(4096);
        for _ in 0..4096 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            garbage.push((state >> 33) as u8);
        }
        let mut buf = Vec::new();
        for start in 0..64 {
            let mut slice = &garbage[start..];
            // Read frames until the garbage runs out or errors — both fine.
            for _ in 0..8 {
                if read_frame(&mut slice, &mut buf).is_err() {
                    break;
                }
            }
        }
        // Decoding raw garbage as a body or as a row block is equally
        // safe, and what a block yields is bounded by its input.
        let mut bag = Rows::new(2);
        for start in 0..64 {
            let input = &garbage[start..];
            let _ = Msg::decode(input);
            for arity in [0, 1, 2, 5] {
                if let Ok(rows) = decoded(input, arity) {
                    assert!(rows.len() <= input.len());
                }
            }
            let before = bag.len();
            let _ = decode_rows_into(input, &mut bag);
            assert!(bag.len() - before <= input.len());
            // A well-formed header in front of the garbage: the claimed
            // row count is checked against what is actually there.
            let mut block = Vec::new();
            put_u32(&mut block, 2);
            put_u64(&mut block, u64::from_le_bytes(input[..8].try_into().unwrap()));
            block.extend_from_slice(&[0, 1]);
            block.extend_from_slice(&input[8..40]);
            assert!(decoded(&block, 2).is_err());
        }
        // Every garbage suffix decoded onto one bag: as a set, no more
        // rows than the garbage has bytes.
        let rel = Relation::from_bag(Schema::new(vec![Sym(0), Sym(1)]), bag);
        assert!(rel.len() <= garbage.len());
    }

    /// `buf` decoded as a block of `arity`-column rows.
    fn decoded(buf: &[u8], arity: usize) -> WireResult<Relation> {
        let mut bag = Rows::new(arity);
        decode_rows_into(buf, &mut bag)?;
        Ok(Relation::from_bag(Schema::new((0..arity as u32).map(Sym).collect()), bag))
    }

    #[test]
    fn rows_round_trip() {
        let rows: Vec<Row> = vec![
            vec![Value::int(-5), Value::sym(Sym(7))].into_boxed_slice(),
            vec![Value::int(mura_core::value::SYM_BASE - 1), Value::sym(Sym(0))].into_boxed_slice(),
        ];
        let buf = encode_rows(2, &rows);
        assert_eq!(decoded(&buf, 2).unwrap().sorted_rows(), rows);
        assert!(matches!(decoded(&buf, 3), Err(WireError::Malformed(_))));
        // Bytes after the block are not silently ignored.
        let mut long = buf.clone();
        long.push(0);
        assert!(matches!(decoded(&long, 2), Err(WireError::Malformed("trailing bytes"))));
    }

    #[test]
    fn relation_round_trip() {
        let mut db = mura_core::Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let rel = Relation::from_pairs(src, dst, [(1, 2), (3, 4), (5, 6)]);
        let buf = encode_relation(&rel);
        // Node ids that fit 32 bits cost 4 bytes each.
        assert_eq!(buf.len(), 12 + 2 + 3 * 8);
        let back = decode_relation(&buf, rel.schema()).unwrap();
        assert_eq!(back.sorted_rows(), rel.sorted_rows());
        // Decoding onto a bag that already holds rows appends.
        let mut dest = Relation::from_pairs(src, dst, [(1, 2), (7, 8)]).rows().clone();
        decode_rows_into(&buf, &mut dest).unwrap();
        assert_eq!(dest.len(), 5);
        assert_eq!(Relation::from_bag(rel.schema().clone(), dest).len(), 4);
    }

    #[test]
    fn nullary_relations_cross_the_wire() {
        // The relation of no columns is `false` (no row) or `true` (the
        // empty row): its block is a header and a count, no row bytes.
        let no = Relation::new(Schema::empty());
        let yes = Relation::from_rows(Schema::empty(), [[]]);
        for rel in [&no, &yes] {
            let buf = encode_relation(rel);
            assert_eq!(buf.len(), 12);
            assert_eq!(&decode_relation(&buf, rel.schema()).unwrap(), rel);
            assert_eq!(decoded(&buf, 0).unwrap().len(), rel.len());
            let (frame, payload) = bcast_frame(TraceCtx::default(), None, rel).unwrap();
            assert_eq!(payload.len(), 12);
            let mut read = Vec::new();
            let (msg, _) = read_frame(&mut frame.as_slice(), &mut read).unwrap();
            let Msg::Bcast { payload, .. } = msg else { panic!("not a broadcast: {msg:?}") };
            assert_eq!(&decode_relation(payload, rel.schema()).unwrap(), rel);
        }
        // Decoding `true` onto `true` is a bag of two empty rows, one once
        // deduplicated; a block of two rows is a lie.
        let mut dest = yes.rows().clone();
        decode_rows_into(&encode_relation(&yes), &mut dest).unwrap();
        assert_eq!(dest.len(), 2);
        assert_eq!(Relation::from_bag(Schema::empty(), dest), yes);
        let mut lie = encode_relation(&yes);
        lie[4..12].copy_from_slice(&2u64.to_le_bytes());
        assert!(decode_relation(&lie, yes.schema()).is_err());
    }

    #[test]
    fn row_count_lie_is_rejected() {
        // A bucket claiming 2^40 rows in a tiny frame must not allocate.
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 40).to_le_bytes());
        buf.extend_from_slice(&[0; 32]);
        let mut bag = Rows::new(2);
        assert!(matches!(decode_rows_into(&buf, &mut bag), Err(WireError::Malformed(_))));
        assert!(bag.is_empty());
    }
}
