//! The worker-frame reader is total: over seeded mutations of one valid
//! frame of every opcode — bit flips, truncation at every length, and every
//! four bytes of a body taken for a length or count field and set to 0,
//! its value ± 1 and `u32::MAX` — `read_frame` and `Msg::decode` return a
//! typed `WireError` or a message, never panic, and never ask the
//! allocator for more than a small multiple of the input's length. A
//! mutated body gets its length prefix and CRC trailer recomputed, so the
//! body decoder is reached instead of the checksum stopping it. A private
//! global allocator records the largest request; this binary holds nothing
//! else, and the record is per thread, so the harness's own threads do not
//! disturb it.

use mura_core::{Relation, Schema, Sym};
use mura_datagen::SplitMix64;
use mura_dist::wire::{self, decode_rows_into, framed, read_frame, Msg, TraceCtx, WireError};
use mura_dist::{ReplicaId, WorkerSnapshot, WorkerSpan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Recording;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a store to a thread-local integer, which neither
// allocates nor has a destructor.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|n| n.set(n.get().max(layout.size())));
        // SAFETY: `layout` is the caller's, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|n| n.set(n.get().max(new_size)));
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Recording = Recording;

/// The largest single allocation `f` requests on this thread.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|n| n.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// One valid frame of every opcode, with a real row block wherever a
/// payload goes.
fn valid_frames() -> Vec<Vec<u8>> {
    let ctx = TraceCtx { trace_id: 7, query_id: 9, fixpoint: 2, superstep: 3, level: 2 };
    let id = |term| ReplicaId { term, version: term + 1 };
    let rel = Relation::from_pairs(Sym(0), Sym(1), (0..12).map(|i| (i, i + 1)));
    let block = wire::encode_relation(&rel);
    let span = WorkerSpan { kind: 1, ctx, xid: 3, bytes: 40, t_us: 9, dur_us: 2 };
    let msgs = [
        Msg::Hello { id: 1, n: 2 },
        Msg::Peers(vec![4000, 4001]),
        Msg::Ping,
        Msg::Pong { t_us: 5 },
        Msg::Relay { xid: 3, watermark: 2, ctx, entries: vec![(1, &block), (0, &block[..4])] },
        Msg::Take { xid: 3, expect: 2, timeout_ms: 2000, ctx },
        Msg::TakeReply(vec![(0, &block), (1, &block)]),
        Msg::Bcast { ctx, id: Some(id(1)), evict: vec![id(2), id(3)], payload: &block },
        Msg::Cancel { xids: vec![3, 4] },
        Msg::Exit,
        Msg::Ok,
        Msg::Err("deliver to 1: connection refused".into()),
        Msg::Deliver { xid: 3, from: 1, ctx, payload: &block },
        Msg::TraceFlush { trace_id: 7 },
        Msg::TraceBatch {
            spans: vec![span, span],
            counters: WorkerSnapshot::decode([1; WorkerSnapshot::N]),
        },
    ];
    msgs.iter()
        .map(|msg| {
            let frame = framed(msg).unwrap();
            let mut buf = Vec::new();
            assert_eq!(&read_frame(&mut frame.as_slice(), &mut buf).unwrap().0, msg);
            frame
        })
        .collect()
}

/// `body` as a complete frame: length prefix and CRC trailer recomputed.
fn sealed(body: &[u8]) -> Vec<u8> {
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(body);
    frame.extend_from_slice(&mura_core::crc32(body).to_le_bytes());
    frame
}

/// Reads `frame` — a panic fails the test — and decodes the bucket
/// payloads of a relay or take reply the way the coordinator decodes a
/// take reply, holding the largest request against the bound.
fn reads_within_bounds(frame: &[u8], what: &str) -> Result<(), WireError> {
    let (result, largest) = largest_allocation(|| {
        let mut buf = Vec::new();
        let msg = read_frame(&mut &frame[..], &mut buf)?.0;
        if let Msg::TakeReply(buckets) | Msg::Relay { entries: buckets, .. } = &msg {
            let mut part = Relation::new(Schema::new(vec![Sym(0), Sym(1)]));
            for (_, payload) in buckets {
                let _ = decode_rows_into(payload, &mut part);
            }
        }
        Ok(())
    });
    let bound = ALLOCATION_FACTOR * frame.len() + ALLOCATION_SLACK;
    assert!(largest <= bound, "{what}: {largest} bytes asked for {} of input", frame.len());
    result
}

/// Reads the resealed `body`, which the checksum must let through to the
/// body decoder, and decodes the bare body with `Msg::decode`, which must
/// agree; true when a message came out.
fn decodes_within_bounds(body: &[u8], what: &str) -> bool {
    let read = reads_within_bounds(&sealed(body), what);
    assert!(
        !matches!(read, Err(WireError::BadChecksum { .. } | WireError::Truncated)),
        "{what}: stopped before the body decoder: {read:?}"
    );
    let (decoded, largest) = largest_allocation(|| Msg::decode(body).map(|_| ()));
    let bound = ALLOCATION_FACTOR * body.len() + ALLOCATION_SLACK;
    assert!(largest <= bound, "{what}: {largest} bytes asked for {} of body", body.len());
    assert_eq!(read.is_ok(), decoded.is_ok(), "{what}: read_frame and Msg::decode disagree");
    read.is_ok()
}

#[test]
fn mutated_worker_frames_read_to_a_typed_error_or_a_message() {
    let mut rng = SplitMix64::seed_from_u64(0xf2a3_e5fe);
    let (mut mutations, mut messages) = (0u64, 0u64);
    for (op, frame) in valid_frames().into_iter().enumerate() {
        let body = &frame[4..frame.len() - 4];
        // Cut anywhere: as the stream delivers it, and as a body resealed.
        for at in 0..frame.len() {
            let cut = reads_within_bounds(&frame[..at], &format!("op {op} cut at {at}"));
            assert!(matches!(cut, Err(WireError::Truncated)), "op {op} cut at {at}: {cut:?}");
        }
        for at in 0..body.len() {
            messages +=
                u64::from(decodes_within_bounds(&body[..at], &format!("op {op} body {at}")));
            mutations += 1;
        }
        // One to eight flipped bits.
        for i in 0..200 {
            let mut bytes = body.to_vec();
            for _ in 0..rng.gen_range(1..9usize) {
                bytes[rng.gen_range(0..body.len())] ^= 1 << rng.gen_range(0..8usize);
            }
            messages += u64::from(decodes_within_bounds(&bytes, &format!("op {op} flips {i}")));
            mutations += 1;
        }
        // Every four bytes taken for a length or count field in turn.
        for at in 0..body.len().saturating_sub(3) {
            let field = u32::from_le_bytes(body[at..at + 4].try_into().unwrap());
            for value in [0, field.wrapping_sub(1), field.wrapping_add(1), u32::MAX] {
                let mut bytes = body.to_vec();
                bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
                let what = format!("op {op}: {value} at {at}");
                messages += u64::from(decodes_within_bounds(&bytes, &what));
                mutations += 1;
            }
        }
    }
    eprintln!("{mutations} mutations, {messages} of them still a message");
    assert!(mutations - messages > 2_000, "mutations that break nothing test nothing");
}

#[test]
fn a_length_prefix_is_not_an_allocation_request() {
    // A prefix claiming up to a whole frame over a few bytes of input: the
    // reader asks for what arrives, not for what the prefix promised.
    for claim in [64, 1 << 20, wire::MAX_FRAME as u32] {
        let mut frame = claim.to_le_bytes().to_vec();
        frame.extend_from_slice(&[11; 40]);
        let read = reads_within_bounds(&frame, &format!("claim {claim}"));
        assert!(matches!(read, Err(WireError::Truncated)), "claim {claim}: {read:?}");
    }
}

/// A decoded sequence reserves its elements up front after checking the
/// count against the bytes that remain at the smallest encoding of one, so
/// a request is bounded by the input's length times the largest ratio of an
/// element's size in memory to its size on the wire (a bucket entry, 24
/// bytes against 8; a decoded row value, 16 bytes against 4), and the read
/// buffer grows with what arrives.
const ALLOCATION_FACTOR: usize = 4;
/// The read buffer's first growth step and fixed-size tables.
const ALLOCATION_SLACK: usize = 1024;
