//! Length-delimited, checksummed write-ahead log.
//!
//! File layout:
//!
//! ```text
//! [8-byte magic "MURAWAL1"][u32 format version]        — header
//! [u32 len][len bytes body][u32 crc32(body)]           — record, repeated
//! ```
//!
//! A record body is `[u8 kind][u64 version][payload]`: kind 1 is a delta
//! batch (payload = encoded [`DeltaBatch`]), kind 2 a schema-changing load
//! (payload = `u64 epoch` + the full encoded post-load [`Database`]).
//! Records are appended sequentially and (under [`SyncPolicy::Always`])
//! fsync'd before the mutation is applied, so the only damage a crash can
//! produce is a *torn tail*: a final record with too few bytes or a
//! checksum mismatch. Replay detects it, reports it as a [`WalTail`], and
//! drops it — the mutation it would have carried was never acknowledged.
//! Anything else (bad header, undecodable body behind a valid checksum)
//! is real corruption and surfaces as a typed [`WalError`], never a panic
//! and never a partially applied batch.

use crate::codec::{self, Cur};
use crate::crash::{crash_armed, crash_point};
use mura_core::{crc32, Database};
use mura_ivm::DeltaBatch;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// WAL file magic.
pub const WAL_MAGIC: &[u8; 8] = b"MURAWAL1";
/// On-disk format version (2: relations are `mura_core::codec` row blocks;
/// 3: a logged database stores no fresh-symbol counter).
pub const WAL_FORMAT: u32 = 3;
/// WAL file name inside the data directory.
pub const WAL_FILE: &str = "wal.log";
/// Header size: magic + format version.
const HEADER_LEN: u64 = 12;
const KIND_DELTA: u8 = 1;
const KIND_LOAD: u8 = 2;

/// When to fsync after an append.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync every record before acknowledging (the durable default).
    #[default]
    Always,
    /// Never fsync (benchmarks measuring pure logging overhead; a crash
    /// may lose acknowledged mutations).
    Never,
}

/// WAL failure. Torn tails are NOT errors — they are reported in
/// [`WalReplay::torn`] and the clean prefix is still returned.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file exists, is at least header-sized, and does not start with
    /// the WAL magic / a supported format version.
    BadHeader,
    /// A record passed its checksum but did not decode — software bug or
    /// deliberate tampering, not a crash artifact.
    Corrupt {
        /// Byte offset of the record.
        offset: u64,
        /// What failed to decode.
        what: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o: {e}"),
            WalError::BadHeader => write!(f, "wal header is not MURAWAL1 v{WAL_FORMAT}"),
            WalError::Corrupt { offset, what } => {
                write!(f, "wal corrupt at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// One durably logged mutation.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// An `apply_delta` batch producing `version`.
    Delta {
        /// Version the batch produces when applied.
        version: u64,
        /// The normalized batch.
        batch: DeltaBatch,
    },
    /// A schema-changing load producing `version` and `epoch`; carries the
    /// complete post-load database.
    Load {
        /// Version after the load.
        version: u64,
        /// Schema epoch after the load.
        epoch: u64,
        /// Full database state after the load.
        db: Database,
    },
}

impl WalRecord {
    /// Version this record advances the database to.
    pub fn version(&self) -> u64 {
        match self {
            WalRecord::Delta { version, .. } | WalRecord::Load { version, .. } => *version,
        }
    }
}

/// A torn tail dropped during replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalTail {
    /// Byte offset of the first unusable byte.
    pub offset: u64,
    /// Why the tail was dropped.
    pub reason: String,
}

/// Result of replaying a WAL file.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Complete records, in append order.
    pub records: Vec<WalRecord>,
    /// Torn tail, if the file ended mid-record.
    pub torn: Option<WalTail>,
    /// Length of the valid prefix (header + complete records).
    pub valid_len: u64,
}

/// Append handle over the WAL file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    sync: SyncPolicy,
    appends: u64,
    bytes: u64,
}

impl Wal {
    /// Opens (creating if absent) the WAL in `dir`, replaying any existing
    /// records. A torn tail left by a crash is truncated away so new
    /// appends extend the valid prefix.
    pub fn open(dir: &Path, sync: SyncPolicy) -> Result<(Wal, WalReplay), WalError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        let mut replay = WalReplay::default();
        if path.exists() {
            let buf = std::fs::read(&path)?;
            replay = replay_bytes(&buf)?;
        }
        // Explicitly not `truncate`: the valid prefix is kept (or trimmed
        // via `set_len` below), never discarded wholesale.
        let mut file =
            OpenOptions::new().create(true).truncate(false).read(true).write(true).open(&path)?;
        if replay.valid_len < HEADER_LEN {
            // Fresh file, or a crash mid-`open` left a partial header (no
            // record can follow an unsynced header): start over.
            file.set_len(0)?;
            file.write_all(WAL_MAGIC)?;
            file.write_all(&WAL_FORMAT.to_le_bytes())?;
            file.sync_all()?;
            replay.valid_len = HEADER_LEN;
        } else {
            file.set_len(replay.valid_len)?;
            file.seek(SeekFrom::End(0))?;
        }
        let wal =
            Wal { file, path, sync, appends: replay.records.len() as u64, bytes: replay.valid_len };
        Ok((wal, replay))
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended (including replayed ones found at open).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Bytes in the valid prefix (header + records).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Logs a delta batch that will produce `version`. Returns the bytes
    /// written. Must be called (and synced) *before* the batch is applied.
    pub fn append_delta(&mut self, version: u64, batch: &DeltaBatch) -> Result<u64, WalError> {
        let mut body = vec![KIND_DELTA];
        codec::put_u64(&mut body, version);
        codec::put_delta_batch(&mut body, batch);
        self.append_record(body)
    }

    /// Logs a schema-changing load: the complete post-load database plus
    /// the version and epoch it produces.
    pub fn append_load(
        &mut self,
        version: u64,
        epoch: u64,
        db: &Database,
    ) -> Result<u64, WalError> {
        let mut body = vec![KIND_LOAD];
        codec::put_u64(&mut body, version);
        codec::put_u64(&mut body, epoch);
        codec::put_database(&mut body, db);
        self.append_record(body)
    }

    fn append_record(&mut self, body: Vec<u8>) -> Result<u64, WalError> {
        let mut frame = Vec::with_capacity(body.len() + 8);
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        let crc = crc32(&body);
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&crc.to_le_bytes());
        if crash_armed("wal_append_mid") {
            // Write (and sync!) a genuine partial record before aborting,
            // so replay faces a real torn tail, not an empty file.
            let half = frame.len() / 2;
            self.file.write_all(&frame[..half])?;
            self.file.sync_all()?;
            crash_point("wal_append_mid");
            self.file.write_all(&frame[half..])?;
        } else {
            self.file.write_all(&frame)?;
        }
        if self.sync == SyncPolicy::Always {
            self.file.sync_all()?;
        }
        crash_point("wal_append_done");
        self.appends += 1;
        self.bytes += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Drops the most recently appended record(s) by truncating back to a
    /// byte/append mark taken before the append — used when the in-memory
    /// apply of a just-logged batch fails, so the log never replays a
    /// mutation the server rejected.
    pub fn rollback_to(&mut self, bytes: u64, appends: u64) -> Result<(), WalError> {
        self.file.set_len(bytes)?;
        self.file.seek(SeekFrom::End(0))?;
        self.file.sync_all()?;
        self.bytes = bytes;
        self.appends = appends;
        Ok(())
    }

    /// Truncates the log back to a bare header — called after a successful
    /// snapshot has made the logged records redundant. A crash mid-reset
    /// leaves an empty or partial-header file, which [`Wal::open`] treats
    /// as empty: the snapshot already holds everything.
    pub fn reset(&mut self) -> Result<(), WalError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(WAL_MAGIC)?;
        self.file.write_all(&WAL_FORMAT.to_le_bytes())?;
        self.file.sync_all()?;
        self.bytes = HEADER_LEN;
        Ok(())
    }
}

/// Replays a WAL file from disk without opening an append handle.
pub fn replay_file(path: &Path) -> Result<WalReplay, WalError> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    replay_bytes(&buf)
}

/// Replays WAL bytes: validates the header, decodes complete records, and
/// reports (does not error on) a torn tail.
pub fn replay_bytes(buf: &[u8]) -> Result<WalReplay, WalError> {
    let mut out = WalReplay::default();
    if buf.is_empty() {
        return Ok(out);
    }
    if buf.len() < HEADER_LEN as usize {
        // Crash during `open` before the header sync: provably no records.
        out.torn = Some(WalTail { offset: 0, reason: "partial header".into() });
        return Ok(out);
    }
    if &buf[..8] != WAL_MAGIC || buf[8..12] != WAL_FORMAT.to_le_bytes() {
        return Err(WalError::BadHeader);
    }
    let mut pos = HEADER_LEN as usize;
    loop {
        let rest = buf.len() - pos;
        if rest == 0 {
            break;
        }
        if rest < 4 {
            out.torn = Some(WalTail { offset: pos as u64, reason: "partial length prefix".into() });
            break;
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let need = 4 + len + 4;
        if rest < need {
            out.torn = Some(WalTail {
                offset: pos as u64,
                reason: format!("partial record ({rest} of {need} bytes)"),
            });
            break;
        }
        let body = &buf[pos + 4..pos + 4 + len];
        let stored = u32::from_le_bytes(buf[pos + 4 + len..pos + need].try_into().unwrap());
        if crc32(body) != stored {
            out.torn =
                Some(WalTail { offset: pos as u64, reason: "record checksum mismatch".into() });
            break;
        }
        out.records.push(decode_record(body, pos as u64)?);
        pos += need;
    }
    out.valid_len = pos as u64;
    Ok(out)
}

fn decode_record(body: &[u8], offset: u64) -> Result<WalRecord, WalError> {
    let corrupt = |e: codec::CodecError| WalError::Corrupt { offset, what: e.to_string() };
    let mut cur = Cur::new(body);
    let kind = cur.u8().map_err(corrupt)?;
    let record = match kind {
        KIND_DELTA => {
            let version = cur.u64().map_err(corrupt)?;
            let batch = codec::get_delta_batch(&mut cur).map_err(corrupt)?;
            WalRecord::Delta { version, batch }
        }
        KIND_LOAD => {
            let version = cur.u64().map_err(corrupt)?;
            let epoch = cur.u64().map_err(corrupt)?;
            let db = codec::get_database(&mut cur).map_err(corrupt)?;
            WalRecord::Load { version, epoch, db }
        }
        k => {
            return Err(WalError::Corrupt { offset, what: format!("unknown record kind {k}") });
        }
    };
    cur.expect_done().map_err(corrupt)?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::{Relation, Value};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mura-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation("edge", Relation::from_pairs(src, dst, [(1, 2), (2, 3)]));
        db
    }

    fn sample_batch(db: &Database, a: u64, b: u64) -> DeltaBatch {
        let edge = db.dict().lookup("edge").unwrap();
        let mut batch = DeltaBatch::new();
        batch
            .push_insert(db, edge, vec![Value::node(a), Value::node(b)].into_boxed_slice())
            .unwrap();
        batch
    }

    fn rows_of(batch: &DeltaBatch, db: &Database) -> Vec<mura_core::Row> {
        let edge = db.dict().lookup("edge").unwrap();
        batch.rels[&edge].insert.sorted_rows()
    }

    #[test]
    fn append_replay_round_trip_and_reopen() {
        let dir = tmpdir("rt");
        let db = sample_db();
        {
            let (mut wal, replay) = Wal::open(&dir, SyncPolicy::Always).unwrap();
            assert!(replay.records.is_empty());
            wal.append_delta(1, &sample_batch(&db, 5, 6)).unwrap();
            wal.append_load(2, 1, &db).unwrap();
            wal.append_delta(3, &sample_batch(&db, 7, 8)).unwrap();
            assert_eq!(wal.appends(), 3);
        }
        let (mut wal, replay) = Wal::open(&dir, SyncPolicy::Always).unwrap();
        assert!(replay.torn.is_none());
        assert_eq!(replay.records.len(), 3);
        assert_eq!(
            replay.records.iter().map(WalRecord::version).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        match &replay.records[0] {
            WalRecord::Delta { batch, .. } => {
                assert_eq!(rows_of(batch, &db), rows_of(&sample_batch(&db, 5, 6), &db));
            }
            other => panic!("expected delta, got {other:?}"),
        }
        match &replay.records[1] {
            WalRecord::Load { epoch, db: loaded, .. } => {
                assert_eq!(*epoch, 1);
                assert_eq!(loaded.total_rows(), db.total_rows());
            }
            other => panic!("expected load, got {other:?}"),
        }
        // Appends after reopen extend the log.
        wal.append_delta(4, &sample_batch(&db, 9, 10)).unwrap();
        let replay = replay_file(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(replay.records.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_truncates_to_header() {
        let dir = tmpdir("reset");
        let db = sample_db();
        let (mut wal, _) = Wal::open(&dir, SyncPolicy::Never).unwrap();
        wal.append_delta(1, &sample_batch(&db, 5, 6)).unwrap();
        wal.reset().unwrap();
        wal.append_delta(2, &sample_batch(&db, 7, 8)).unwrap();
        let replay = replay_file(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].version(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_header_is_a_typed_error() {
        assert!(matches!(replay_bytes(b"NOTAWAL!\x01\x00\x00\x00"), Err(WalError::BadHeader)));
        // A version from the future, and the one before this one.
        for version in [99u32, WAL_FORMAT - 1] {
            let wrong_ver = [&WAL_MAGIC[..], &version.to_le_bytes()[..]].concat();
            assert!(matches!(replay_bytes(&wrong_ver), Err(WalError::BadHeader)));
        }
    }

    /// Satellite: truncating a valid WAL at EVERY byte offset either
    /// replays a clean prefix (with the tail reported) or fails with a
    /// typed error — never panics, never yields a partial record.
    #[test]
    fn truncation_at_every_offset_is_safe() {
        let dir = tmpdir("trunc");
        let db = sample_db();
        let mut boundaries = vec![HEADER_LEN];
        {
            let (mut wal, _) = Wal::open(&dir, SyncPolicy::Never).unwrap();
            for v in 1..=4u64 {
                wal.append_delta(v, &sample_batch(&db, v, v + 1)).unwrap();
                boundaries.push(wal.bytes());
            }
            let mut big = DeltaBatch::new();
            let edge = db.dict().lookup("edge").unwrap();
            for i in 0..50u64 {
                big.push_insert(
                    &db,
                    edge,
                    vec![Value::node(100 + i), Value::node(200 + i)].into_boxed_slice(),
                )
                .unwrap();
            }
            wal.append_load(5, 1, &db).unwrap();
            boundaries.push(wal.bytes());
            wal.append_delta(6, &big).unwrap();
            boundaries.push(wal.bytes());
        }
        let full = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert_eq!(*boundaries.last().unwrap(), full.len() as u64);
        let reference = replay_bytes(&full).unwrap();
        assert_eq!(reference.records.len(), 6);
        for cut in 0..=full.len() {
            let replay = match replay_bytes(&full[..cut]) {
                Ok(r) => r,
                // Truncation inside the header region may surface as a
                // typed BadHeader; that is an allowed outcome.
                Err(WalError::BadHeader) => {
                    assert!(cut < HEADER_LEN as usize + 1, "BadHeader at cut {cut}");
                    continue;
                }
                Err(e) => panic!("unexpected error at cut {cut}: {e}"),
            };
            // Number of complete records the prefix can possibly hold.
            let expect = boundaries.iter().filter(|&&b| b <= cut as u64).count().saturating_sub(1);
            assert_eq!(replay.records.len(), expect, "cut at {cut}");
            for (got, want) in replay.records.iter().zip(&reference.records) {
                assert_eq!(got.version(), want.version(), "cut at {cut}");
            }
            let clean = boundaries.contains(&(cut as u64)) || cut == 0;
            assert_eq!(replay.torn.is_none(), clean, "cut at {cut}: torn={:?}", replay.torn);
            assert!(replay.valid_len <= cut as u64);
        }
        // A torn tail found at open is truncated away and appending resumes.
        let cut = (*boundaries.last().unwrap() - 3) as usize;
        std::fs::write(dir.join(WAL_FILE), &full[..cut]).unwrap();
        let (mut wal, replay) = Wal::open(&dir, SyncPolicy::Never).unwrap();
        assert_eq!(replay.records.len(), 5);
        assert!(replay.torn.is_some());
        wal.append_delta(7, &sample_batch(&db, 20, 21)).unwrap();
        let replay = replay_file(&dir.join(WAL_FILE)).unwrap();
        assert!(replay.torn.is_none());
        assert_eq!(replay.records.last().unwrap().version(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_payload_byte_is_caught_by_record_checksum() {
        let dir = tmpdir("flip");
        let db = sample_db();
        {
            let (mut wal, _) = Wal::open(&dir, SyncPolicy::Never).unwrap();
            wal.append_delta(1, &sample_batch(&db, 5, 6)).unwrap();
            wal.append_delta(2, &sample_batch(&db, 7, 8)).unwrap();
        }
        let path = dir.join(WAL_FILE);
        let full = std::fs::read(&path).unwrap();
        // Flip a byte inside the LAST record's body; replay keeps record 1
        // and reports the damaged tail.
        let mut bent = full.clone();
        let idx = bent.len() - 6;
        bent[idx] ^= 0x10;
        let replay = replay_bytes(&bent).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.torn.as_ref().unwrap().reason, "record checksum mismatch");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
