//! The durable decoders are total: over seeded mutations of a valid input
//! — bit flips, truncations, spliced tails — and over every length field
//! overwritten, they return a typed error or what was encoded, never panic,
//! and never ask the allocator for more than a multiple of the input's
//! length. Two byte sources: a snapshot payload through `decode_state`, and
//! a write-ahead log through `wal::replay_bytes`, every record of a mutated
//! log getting its CRC trailer recomputed so the record decoder is reached
//! instead of the checksum stopping it. A private global allocator records
//! the largest request; this binary holds nothing else, and the record is
//! per thread, so the harness's own threads do not disturb it.

use mura_core::{Database, Relation, Term, Value};
use mura_datagen::SplitMix64;
use mura_durable::snapshot::{decode_state, encode_state};
use mura_durable::wal::{replay_bytes, WAL_MAGIC};
use mura_durable::{SnapshotState, SyncPolicy, ViewSnapshot, Wal, WalError};
use mura_ivm::DeltaBatch;
use mura_rewrite::FeedbackStore;
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

/// A state with every section populated: names, a constant, two relations,
/// a view with fixpoint totals, two observations, a plan.
fn valid_payload() -> Vec<u8> {
    let mut db = Database::new();
    let (src, dst) = (db.intern("src"), db.intern("dst"));
    let edge =
        db.insert_relation("edge", Relation::from_pairs(src, dst, (0..40).map(|i| (i, i + 1))));
    db.insert_relation("other", Relation::from_pairs(src, dst, [(7, 7)]));
    db.bind_constant("Japan", Value::node(7));
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
        // The tail replaced by one of the payload's own, taken elsewhere.
        _ => {
            let from = rng.gen_range(0..bytes.len());
            let tail = valid[from..].to_vec();
            bytes.truncate(at);
            bytes.extend_from_slice(&tail);
        }
    }
    bytes
}

/// Runs `decode` over `bytes` — a panic fails the test — and holds the
/// largest request against the bound.
fn within_bounds<T>(bytes: &[u8], what: &str, decode: impl FnOnce(&[u8]) -> T) -> T {
    let (result, largest) = largest_allocation(|| decode(bytes));
    let bound = ALLOCATION_FACTOR * bytes.len() + ALLOCATION_SLACK;
    assert!(largest <= bound, "{what}: {largest} bytes asked for {} of input", bytes.len());
    result
}

/// Decodes a snapshot payload within bounds; true when a state came out.
fn decodes_within_bounds(bytes: &[u8], what: &str) -> bool {
    within_bounds(bytes, what, decode_state).is_ok()
}

#[test]
fn mutated_snapshot_payloads_decode_to_a_typed_error_or_a_state() {
    let valid = valid_payload();
    let decoded = decode_state(&valid).expect("the unmutated payload decodes");
    assert_eq!(encode_state(&decoded), valid, "and encodes back to itself");

    let mut rng = SplitMix64::seed_from_u64(0x5eed_f022);
    let (mut mutations, mut states) = (0, 0);
    for i in 0..2_400u64 {
        let bytes = mutate(&valid, i % 3, &mut rng);
        states += u64::from(decodes_within_bounds(&bytes, &format!("mutation {i}")));
        mutations += 1;
    }
    // Every four bytes of the payload taken for a length field in turn:
    // absurd, as large as the input could possibly hold, and small.
    for at in 0..valid.len() - 3 {
        for len in [u32::MAX, valid.len() as u32, 40] {
            let mut bytes = valid.clone();
            bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
            states += u64::from(decodes_within_bounds(&bytes, &format!("length {len} at {at}")));
            mutations += 1;
        }
    }
    eprintln!("{} bytes valid; {mutations} mutations, {states} of them still a state", valid.len());
    assert!(mutations - states > 2_000, "mutations that break nothing test nothing");
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
    let row = |a, b| vec![Value::node(a), Value::node(b)].into_boxed_slice();
    let mut first = DeltaBatch::new();
    first.push_insert(&db, edge, row(30, 31)).unwrap();
    first.push_delete(&db, edge, row(0, 1)).unwrap();
    let mut second = DeltaBatch::new();
    second.push_insert(&db, edge, row(31, 32)).unwrap();
    second.push_insert(&db, other, row(8, 9)).unwrap();

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
    let (mut mutations, mut corrupt) = (0u64, 0u64);
    let mut replays = |bytes: Vec<u8>, what: &str| {
        match within_bounds(&resealed(bytes), what, replay_bytes) {
            Err(WalError::Corrupt { .. }) => corrupt += 1,
            Err(WalError::Io(e)) => panic!("{what}: replaying bytes did i/o: {e}"),
            Err(WalError::BadHeader) | Ok(_) => {}
        }
        mutations += 1;
    };
    for i in 0..2_400u64 {
        replays(mutate(&valid, i % 3, &mut rng), &format!("mutation {i}"));
    }
    for at in 0..valid.len() - 3 {
        for len in [u32::MAX, valid.len() as u32, 40] {
            let mut bytes = valid.clone();
            bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
            replays(bytes, &format!("length {len} at {at}"));
        }
    }
    eprintln!("{} bytes valid; {mutations} mutations, {corrupt} of them corrupt", valid.len());
    assert!(corrupt > 1_000, "the record decoder must see the mutated bodies");
}

/// A decoded sequence reserves its elements up front, after checking the
/// count against the bytes that remain at the smallest encoding of one, so
/// a request is bounded by the input's length times the largest ratio of an
/// element's size in memory to its size on disk (a `ViewSnapshot` against
/// its 25 bytes, a 16-byte `Value` against a 4-byte field, either with a
/// hash table beside it).
const ALLOCATION_FACTOR: usize = 16;
/// Tables that start at a fixed size (the dictionary's map).
const ALLOCATION_SLACK: usize = 4 * 1024;
