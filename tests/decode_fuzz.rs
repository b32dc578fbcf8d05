//! The decoders of untrusted bytes are total: over seeded mutations of a
//! valid input — bit flips, truncations, spliced tails, every four bytes
//! taken for a length field — each returns a typed error or what was
//! encoded, never panics, and never asks the allocator for more than a
//! multiple of the input's length. One harness, three byte sources:
//!
//! - `mura-durable`: a snapshot payload through `decode_state`, and a
//!   write-ahead log through `wal::replay_bytes`;
//! - `mura-dist`: a worker frame of every opcode through `read_frame` and
//!   `Msg::decode`;
//! - `mura-serve`: protocol lines — queries, verbs, mutations, oversized
//!   and non-UTF-8 lines — through `read_response` (the capped line reader
//!   both ends frame with), then `protocol::respond` against a small
//!   server, which must answer an `OK` or `ERR` block.
//!
//! Where a checksum guards a body (WAL records, frames) it is recomputed
//! after the mutation, so the body decoder is reached instead of the
//! checksum stopping it. Each source also gets an integer from the top
//! 2³² codes, which symbols take and no `Value` holds as an integer:
//! random mutation almost never reaches them, so it is seeded. A private global allocator records the largest
//! request; this binary holds nothing else, and the record is per thread,
//! so the harness's own threads and the server's do not disturb it.

use mura_core::value::SYM_BASE;
use mura_core::{Database, Relation, Rows, Sym, Term, Value};
use mura_datagen::SplitMix64;
use mura_dist::wire::{self, decode_rows_into, framed, read_frame, Msg, TraceCtx, WireError};
use mura_dist::{QueryEngine, ReplicaId, WorkerSnapshot, WorkerSpan};
use mura_durable::snapshot::{decode_state, encode_state};
use mura_durable::wal::{replay_bytes, WAL_MAGIC};
use mura_durable::{SnapshotState, SyncPolicy, ViewSnapshot, Wal, WalError};
use mura_ivm::DeltaBatch;
use mura_rewrite::FeedbackStore;
use mura_serve::protocol::{respond, Session};
use mura_serve::{read_response, FrameError, ServeConfig, Server, MAX_LINE};
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

/// What a decoder may ask for at once: `factor` × input length + `slack`.
struct Bound {
    factor: usize,
    slack: usize,
}

/// A decoded sequence reserves its elements up front, after checking the
/// count against the bytes that remain at the smallest encoding of one, so
/// a request is bounded by the input's length times the largest ratio of an
/// element's size in memory to its size on disk (a `ViewSnapshot` against
/// its 25 bytes, an 8-byte `Value` against a 4-byte field, either with a
/// hash table beside it); the slack covers tables that start at a fixed
/// size (the dictionary's map).
const DURABLE: Bound = Bound { factor: 16, slack: 4 * 1024 };
/// As for `DURABLE`, where the largest ratio is a bucket entry (24 bytes
/// against 8) or a decoded row value (8 bytes against 4), and the read
/// buffer grows with what arrives; the slack is its first growth step and
/// fixed-size tables.
const FRAMES: Bound = Bound { factor: 4, slack: 1024 };
/// A line is copied into the line buffer, then into the status string.
const LINES: Bound = Bound { factor: 4, slack: 1024 };

/// Runs `decode` over `bytes` — a panic fails the test — and holds the
/// largest single request on this thread against `bound`.
fn within_bounds<T>(bytes: &[u8], bound: &Bound, what: &str, decode: impl FnOnce(&[u8]) -> T) -> T {
    LARGEST.with(|n| n.set(0));
    let result = decode(bytes);
    let largest = LARGEST.with(Cell::get);
    let limit = bound.factor * bytes.len() + bound.slack;
    assert!(largest <= limit, "{what}: {largest} bytes asked for {} of input", bytes.len());
    result
}

/// One mutation of `valid`, of the kind `kind` selects.
fn mutate(valid: &[u8], kind: u64, rng: &mut SplitMix64) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    let at = rng.gen_range(0..bytes.len());
    match kind {
        // One to eight flipped bits.
        0 => {
            for _ in 0..rng.gen_range(1..9usize) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8usize);
            }
        }
        // Truncated.
        1 => bytes.truncate(at),
        // The tail replaced by one of the input's own, taken elsewhere.
        _ => {
            let from = rng.gen_range(0..bytes.len());
            bytes.truncate(at);
            bytes.extend_from_slice(&valid[from..]);
        }
    }
    bytes
}

/// `valid` with every four bytes in turn set to each of `values(field)`.
fn length_fields(valid: &[u8], values: impl Fn(u32) -> Vec<u32>) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for at in 0..valid.len().saturating_sub(3) {
        let field = u32::from_le_bytes(valid[at..at + 4].try_into().unwrap());
        for value in values(field) {
            let mut bytes = valid.to_vec();
            bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
            out.push((format!("{value} at {at}"), bytes));
        }
    }
    out
}

/// A node id that is written as an 8-byte field, for [`reserved_ints`] to
/// find in encoded bytes.
const MARKER: u64 = 0x5eed_0000_0000_0001;

/// `valid` with each 8-byte [`MARKER`] in turn replaced by the first
/// integer of the symbols' range.
fn reserved_ints(valid: &[u8]) -> Vec<(String, Vec<u8>)> {
    let seeded: Vec<_> = (0..valid.len().saturating_sub(7))
        .filter(|&at| valid[at..at + 8] == MARKER.to_le_bytes())
        .map(|at| {
            let mut bytes = valid.to_vec();
            bytes[at..at + 8].copy_from_slice(&SYM_BASE.to_le_bytes());
            (format!("reserved integer at {at}"), bytes)
        })
        .collect();
    assert!(!seeded.is_empty(), "the valid input holds no marker");
    seeded
}

/// A state with every section populated: names, a constant, two relations,
/// a view with fixpoint totals, two observations, a plan.
fn valid_payload() -> Vec<u8> {
    let mut db = Database::new();
    let (src, dst) = (db.intern("src"), db.intern("dst"));
    let edge =
        db.insert_relation("edge", Relation::from_pairs(src, dst, (0..40).map(|i| (i, i + 1))));
    db.insert_relation("other", Relation::from_pairs(src, dst, [(7, 7), (MARKER, 7)]));
    db.bind_constant("Japan", Value::node(7));
    db.bind_constant("Marker", Value::node(MARKER));
    let closure = |db: &mut Database| {
        let (x, m) = (db.dict_mut().fresh("X"), db.dict_mut().fresh("m"));
        let step = Term::var(x).rename(dst, m).join(Term::var(edge).rename(src, m)).antiproject(m);
        Term::var(edge).union(step).fix(x)
    };
    let plan = closure(&mut db).filter(mura_core::Pred::Eq(src, Value::node(3)));
    let other = closure(&mut db).rename(src, dst);
    let rel = Relation::from_pairs(src, dst, (0..30).map(|i| (3, i + 4)));
    let mut feedback = FeedbackStore::new();
    feedback.record_plan(&plan, &|_| Some(820.0));
    feedback.record_plan(&other, &|_| Some(12.0));
    let view = ViewSnapshot {
        plan: plan.clone(),
        relation: rel.clone(),
        fix_totals: vec![(mura_core::term_key(&plan), rel)],
    };
    encode_state(&SnapshotState {
        version: 17,
        epoch: 2,
        db,
        views: vec![view],
        feedback: feedback.export_state(),
        plans: vec![("?y <- 3 edge+ ?y".to_string(), plan, 2)],
    })
}

#[test]
fn mutated_snapshot_payloads_decode_to_a_typed_error_or_a_state() {
    let valid = valid_payload();
    let decoded = decode_state(&valid).expect("the unmutated payload decodes");
    assert_eq!(encode_state(&decoded), valid, "and encodes back to itself");

    let mut rng = SplitMix64::seed_from_u64(0x5eed_f022);
    let mutations =
        (0..2_400u64).map(|i| (format!("mutation {i}"), mutate(&valid, i % 3, &mut rng)));
    // Every length field absurd, as large as the input could hold, small.
    let lengths = length_fields(&valid, |_| vec![u32::MAX, valid.len() as u32, 40]);
    let (mut total, mut states) = (0, 0);
    for (what, bytes) in mutations.chain(lengths) {
        states += u64::from(within_bounds(&bytes, &DURABLE, &what, decode_state).is_ok());
        total += 1;
    }
    eprintln!("{} bytes valid; {total} mutations, {states} of them still a state", valid.len());
    assert!(total - states > 2_000, "mutations that break nothing test nothing");
    for (what, bytes) in reserved_ints(&valid) {
        let decoded = within_bounds(&bytes, &DURABLE, &what, decode_state);
        assert!(decoded.is_err(), "{what}: decoded");
    }
}

/// A log with both record kinds: the header, a load, then two deltas (one
/// inserting and deleting, one over two relations).
fn valid_log() -> Vec<u8> {
    let mut db = Database::new();
    let (src, dst) = (db.intern("src"), db.intern("dst"));
    let edge =
        db.insert_relation("edge", Relation::from_pairs(src, dst, (0..20).map(|i| (i, i + 1))));
    let other = db.insert_relation("other", Relation::from_pairs(src, dst, [(7, 7)]));
    db.bind_constant("Japan", Value::node(7));
    db.bind_constant("Marker", Value::node(MARKER));
    let row = |a, b| vec![Value::node(a), Value::node(b)].into_boxed_slice();
    let mut first = DeltaBatch::new();
    first.push_insert(&db, edge, row(30, 31)).unwrap();
    first.push_delete(&db, edge, row(0, 1)).unwrap();
    let mut second = DeltaBatch::new();
    second.push_insert(&db, edge, row(31, 32)).unwrap();
    second.push_insert(&db, other, row(8, 9)).unwrap();
    second.push_insert(&db, other, row(MARKER, 9)).unwrap();

    let dir = std::env::temp_dir().join(format!("mura-decode-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut wal, _) = Wal::open(&dir, SyncPolicy::Never).unwrap();
    wal.append_load(1, 0, &db).unwrap();
    wal.append_delta(2, &first).unwrap();
    wal.append_delta(3, &second).unwrap();
    let log = std::fs::read(wal.path()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    log
}

/// `log` with the CRC trailer of every record its length prefixes frame
/// recomputed, so a mutated body reaches the record decoder.
fn resealed(mut log: Vec<u8>) -> Vec<u8> {
    let mut pos = WAL_MAGIC.len() + 4;
    while let Some(prefix) = log.get(pos..pos + 4) {
        let end = pos + 4 + u32::from_le_bytes(prefix.try_into().unwrap()) as usize;
        if end + 4 > log.len() {
            break;
        }
        let crc = mura_core::crc32(&log[pos + 4..end]);
        log[end..end + 4].copy_from_slice(&crc.to_le_bytes());
        pos = end + 4;
    }
    log
}

#[test]
fn mutated_wal_records_replay_to_a_typed_error_or_records() {
    let valid = valid_log();
    let replay = replay_bytes(&valid).expect("the unmutated log replays");
    assert_eq!((replay.records.len(), replay.torn), (3, None));

    let mut rng = SplitMix64::seed_from_u64(0x5eed_0a1e);
    let mutations =
        (0..2_400u64).map(|i| (format!("mutation {i}"), mutate(&valid, i % 3, &mut rng)));
    let lengths = length_fields(&valid, |_| vec![u32::MAX, valid.len() as u32, 40]);
    let (mut total, mut corrupt) = (0u64, 0u64);
    for (what, bytes) in mutations.chain(lengths) {
        match within_bounds(&resealed(bytes), &DURABLE, &what, replay_bytes) {
            Err(WalError::Corrupt { .. }) => corrupt += 1,
            Err(WalError::Io(e)) => panic!("{what}: replaying bytes did i/o: {e}"),
            Err(WalError::BadHeader) | Ok(_) => {}
        }
        total += 1;
    }
    eprintln!("{} bytes valid; {total} mutations, {corrupt} of them corrupt", valid.len());
    assert!(corrupt > 1_000, "the record decoder must see the mutated bodies");
    for (what, bytes) in reserved_ints(&valid) {
        let replay = within_bounds(&resealed(bytes), &DURABLE, &what, replay_bytes);
        assert!(matches!(replay, Err(WalError::Corrupt { .. })), "{what}: {replay:?}");
    }
}

/// One valid frame of every opcode, with a real row block wherever a
/// payload goes.
fn valid_frames() -> Vec<Vec<u8>> {
    let ctx = TraceCtx { trace_id: 7, query_id: 9, fixpoint: 2, superstep: 3, level: 2 };
    let id = |term| ReplicaId { term, version: term + 1 };
    let rel =
        Relation::from_pairs(Sym(0), Sym(1), (0..12).map(|i| (i, i + 1)).chain([(MARKER, 1)]));
    let block = wire::encode_relation(&rel);
    let span = WorkerSpan { kind: 1, ctx, bytes: 40, t_us: 9, dur_us: 2 };
    let msgs = [
        Msg::Hello,
        Msg::Ping,
        Msg::Pong { t_us: 5 },
        Msg::Exchange { ctx, buckets: vec![(0, &block), (1, &block)] },
        Msg::Bcast { ctx, id: Some(id(1)), evict: vec![id(2), id(3)], payload: &block },
        Msg::Exit,
        Msg::Ok,
        Msg::Err("replica store full".into()),
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

/// Reads `frame` and decodes the bucket payloads of an exchange the way the
/// coordinator decodes an echoed one, within bounds.
fn reads_within_bounds(frame: &[u8], what: &str) -> Result<(), WireError> {
    within_bounds(frame, &FRAMES, what, |frame| {
        let mut buf = Vec::new();
        let msg = read_frame(&mut &frame[..], &mut buf)?.0;
        if let Msg::Exchange { buckets, .. } = &msg {
            let mut part = Rows::new(2);
            for (_, payload) in buckets {
                let _ = decode_rows_into(payload, &mut part);
            }
        }
        Ok(())
    })
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
    let decoded = within_bounds(body, &FRAMES, what, |body| Msg::decode(body).map(|_| ()));
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
        let cuts = (0..body.len()).map(|at| (format!("body {at}"), body[..at].to_vec()));
        let flips = (0..200).map(|i| (format!("flips {i}"), mutate(body, 0, &mut rng)));
        // Every length or count field 0, its value ± 1, and `u32::MAX`.
        let fields =
            length_fields(body, |f| vec![0, f.wrapping_sub(1), f.wrapping_add(1), u32::MAX]);
        for (what, bytes) in cuts.chain(flips).collect::<Vec<_>>().into_iter().chain(fields) {
            messages += u64::from(decodes_within_bounds(&bytes, &format!("op {op}: {what}")));
            mutations += 1;
        }
    }
    eprintln!("{mutations} mutations, {messages} of them still a message");
    assert!(mutations - messages > 2_000, "mutations that break nothing test nothing");

    // A payload is opaque to the frame: the seeded integer reaches the row
    // decoder, which refuses it.
    let mut refused = 0;
    for frame in valid_frames().iter().filter(|f| f.windows(8).any(|w| w == MARKER.to_le_bytes())) {
        for (what, body) in reserved_ints(&frame[4..frame.len() - 4]) {
            let mut buf = Vec::new();
            let msg = read_frame(&mut sealed(&body).as_slice(), &mut buf).expect(&what).0;
            let payloads = match &msg {
                Msg::Exchange { buckets, .. } => {
                    buckets.iter().map(|(_, payload)| *payload).collect()
                }
                Msg::Bcast { payload, .. } => vec![*payload],
                other => panic!("{what}: no payload in {other:?}"),
            };
            for payload in
                payloads.into_iter().filter(|p| p.windows(8).any(|w| w == SYM_BASE.to_le_bytes()))
            {
                let mut part = Rows::new(2);
                assert!(decode_rows_into(payload, &mut part).is_err(), "{what}: decoded");
                refused += 1;
            }
        }
    }
    // Two exchange buckets and one broadcast payload carry the marker.
    assert_eq!(refused, 3, "every payload opcode refuses the seeded integer");
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

/// Lines a client sends: queries, verbs with and without their argument,
/// and mutations of both relations by node id and by named constant, one
/// of them by an integer in the symbols' range.
const VALID_LINES: [&str; 13] = [
    "?x, ?y <- ?x a+ ?y",
    "?x <- 3 a/b+ ?x",
    "?x, ?y <- ?x a ?m, ?m -b+ ?y",
    ".explain ?y <- S a+ ?y",
    ".profile ?x <- ?x (a|b)+ 2",
    ".stats",
    ".rels",
    ".deadline 50",
    ".insert a 4 5",
    ".delete b 1 2",
    ".insert b S 3",
    ".delete 0 1",
    ".insert a 9223372036854775807 1",
];

#[test]
fn mutated_protocol_lines_read_to_a_reply_or_a_frame_error() {
    let mut db = Database::new();
    let (src, dst) = (db.intern("src"), db.intern("dst"));
    db.insert_relation("a", Relation::from_pairs(src, dst, (0..8).map(|i| (i, i + 1))));
    db.insert_relation("b", Relation::from_pairs(src, dst, [(1, 2), (3, 1)]));
    db.bind_constant("S", Value::node(0));
    let server = Server::start(QueryEngine::new(db), ServeConfig::default());
    let mut session = Session::default();
    let mut rng = SplitMix64::seed_from_u64(0x5eed_11e5);
    let mutations = (0..1_200u64).map(|i| {
        let valid = VALID_LINES[i as usize % VALID_LINES.len()];
        (format!("mutation {i} of {valid:?}"), mutate(valid.as_bytes(), i % 3, &mut rng))
    });
    let odd = [("oversized", vec![b'x'; MAX_LINE + 1]), ("not UTF-8", vec![0xff, 0xfe, 0x80])];
    let (mut replies, mut refused) = (0u64, 0u64);
    for (what, mut line) in mutations.chain(odd.map(|(what, line)| (what.to_string(), line))) {
        // Read as a reply, the line is its status.
        line.extend_from_slice(b"\n.\n");
        match within_bounds(&line, &LINES, &what, |bytes| read_response(&mut &bytes[..])) {
            Ok((status, _)) => {
                let reply = respond(&server, &mut session, &status);
                let first = reply.lines().next().unwrap_or_default().to_string();
                assert!(first.starts_with("OK") || first.starts_with("ERR "), "{what}: {first}");
                replies += 1;
            }
            Err(e) => {
                let frame = e.get_ref().and_then(|e| e.downcast_ref::<FrameError>());
                assert!(frame.is_some(), "{what}: untyped {e}");
                refused += 1;
            }
        }
    }
    let reply = respond(&server, &mut session, VALID_LINES[12]);
    let first = reply.lines().next().unwrap_or_default().to_string();
    assert!(first.starts_with("ERR "), "an integer in the symbols' range: {first}");
    server.shutdown();
    eprintln!("{replies} lines answered, {refused} refused by the line reader");
    assert!(replies > 600 && refused > 100, "{replies} answered, {refused} refused");
}
