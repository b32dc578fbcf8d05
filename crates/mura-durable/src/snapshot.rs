//! Atomic point-in-time snapshots of coordinator state.
//!
//! File layout: `[8-byte magic "MURASNP1"][u32 format version][payload]
//! [u32 crc32(payload)]`, named `snapshot-{version:020}.snap` so
//! lexicographic order is version order. A snapshot is written to a
//! `.tmp` file, fsync'd, and `rename`d into place — a crash mid-write
//! leaves at worst a stray temp file and the previous snapshot stays
//! authoritative. [`load_newest_snapshot`] walks candidates newest-first
//! and skips any that fail validation, so a damaged file degrades to the
//! older snapshot plus a longer WAL replay, never to wrong answers.

use crate::codec::{self, Cur};
use crate::crash::{crash_armed, crash_point};
use mura_core::{crc32, Database, Relation, Term};
use mura_rewrite::FeedbackState;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Snapshot file magic.
pub const SNAP_MAGIC: &[u8; 8] = b"MURASNP1";
/// On-disk format version (2: relations are `mura_core::codec` row blocks;
/// 3: generated symbols are numbers, the dictionary stores no counter;
/// 4: a feedback observation is `(canon_key, rows)` and nothing else).
pub const SNAP_FORMAT: u32 = 4;

/// Snapshot failure. Unlike WAL torn tails, there is no partial-snapshot
/// recovery: a file either validates end-to-end or is skipped.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A snapshot file failed validation (bad magic, checksum, decode).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed.
        what: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o: {e}"),
            SnapshotError::Corrupt { path, what } => {
                write!(f, "snapshot {} corrupt: {what}", path.display())
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// One cached materialized view: its plan, result relation, and the
/// captured per-fixpoint totals incremental maintenance needs.
#[derive(Debug, Clone)]
pub struct ViewSnapshot {
    /// The optimized plan the view was computed from (also its cache key
    /// via `term_key`).
    pub plan: Term,
    /// The materialized result.
    pub relation: Relation,
    /// Captured fixpoint totals, keyed by fixpoint subterm key.
    pub fix_totals: Vec<(u64, Relation)>,
}

/// Complete durable coordinator state at one version.
#[derive(Debug, Clone)]
pub struct SnapshotState {
    /// Database version the snapshot captures.
    pub version: u64,
    /// Schema epoch at that version.
    pub epoch: u64,
    /// Full database: dictionary, constants, relations.
    pub db: Database,
    /// Cached materialized views with their fixpoint totals.
    pub views: Vec<ViewSnapshot>,
    /// Cardinality-feedback store state.
    pub feedback: FeedbackState,
    /// Cached query plans: `(query text, optimized plan, feedback
    /// generation the plan was costed under)`. Plans must be carried, not
    /// re-derived: planning costs against *live* relation cardinalities,
    /// so a post-restore replan of a query planned at an earlier version
    /// could pick a different (equally correct) plan — which would orphan
    /// the restored view cached under the original plan's key.
    pub plans: Vec<(String, Term, u64)>,
}

/// The payload of a snapshot file (between the header and the checksum).
pub fn encode_state(state: &SnapshotState) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_u64(&mut out, state.version);
    codec::put_u64(&mut out, state.epoch);
    codec::put_database(&mut out, &state.db);
    codec::put_u32(&mut out, state.views.len() as u32);
    for v in &state.views {
        codec::put_term(&mut out, &v.plan);
        codec::put_relation(&mut out, &v.relation);
        codec::put_u32(&mut out, v.fix_totals.len() as u32);
        for (k, r) in &v.fix_totals {
            codec::put_u64(&mut out, *k);
            codec::put_relation(&mut out, r);
        }
    }
    codec::put_feedback(&mut out, &state.feedback);
    codec::put_u32(&mut out, state.plans.len() as u32);
    for (query, plan, feedback_gen) in &state.plans {
        codec::put_string(&mut out, query);
        codec::put_term(&mut out, plan);
        codec::put_u64(&mut out, *feedback_gen);
    }
    out
}

/// Decodes a snapshot payload. Total over arbitrary bytes: a typed error or
/// a state, no panic, and no allocation beyond a multiple of the input's
/// length (`tests/decode_fuzz.rs`).
pub fn decode_state(payload: &[u8]) -> Result<SnapshotState, codec::CodecError> {
    let mut cur = Cur::new(payload);
    let version = cur.u64()?;
    let epoch = cur.u64()?;
    let db = codec::get_database(&mut cur)?;
    // Smallest view: a variable (5 bytes), an empty relation (16) and no
    // totals (4).
    let n_views = cur.seq_len(25)?;
    let mut views = Vec::with_capacity(n_views);
    for _ in 0..n_views {
        let plan = codec::get_term(&mut cur)?;
        let relation = codec::get_relation(&mut cur)?;
        let nt = cur.seq_len(8)?;
        let mut fix_totals = Vec::with_capacity(nt);
        for _ in 0..nt {
            let k = cur.u64()?;
            fix_totals.push((k, codec::get_relation(&mut cur)?));
        }
        views.push(ViewSnapshot { plan, relation, fix_totals });
    }
    let feedback = codec::get_feedback(&mut cur)?;
    let n_plans = cur.seq_len(13)?;
    let mut plans = Vec::with_capacity(n_plans);
    for _ in 0..n_plans {
        let query = cur.string()?;
        let plan = codec::get_term(&mut cur)?;
        let feedback_gen = cur.u64()?;
        plans.push((query, plan, feedback_gen));
    }
    cur.expect_done()?;
    Ok(SnapshotState { version, epoch, db, views, feedback, plans })
}

/// Name of the snapshot file for `version`.
pub fn snapshot_file_name(version: u64) -> String {
    format!("snapshot-{version:020}.snap")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snapshot-")?.strip_suffix(".snap")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Writes `state` atomically into `dir`, returning the final path.
/// Temp-file-then-rename: readers never observe a partial snapshot.
pub fn write_snapshot(dir: &Path, state: &SnapshotState) -> Result<PathBuf, SnapshotError> {
    std::fs::create_dir_all(dir)?;
    let payload = encode_state(state);
    let crc = crc32(&payload);
    let final_path = dir.join(snapshot_file_name(state.version));
    let tmp_path = final_path.with_extension("tmp");
    {
        let mut f = OpenOptions::new().create(true).write(true).truncate(true).open(&tmp_path)?;
        f.write_all(SNAP_MAGIC)?;
        f.write_all(&SNAP_FORMAT.to_le_bytes())?;
        if crash_armed("snapshot_mid") {
            // Leave a genuinely half-written temp file behind.
            let half = payload.len() / 2;
            f.write_all(&payload[..half])?;
            f.sync_all()?;
            crash_point("snapshot_mid");
            f.write_all(&payload[half..])?;
        } else {
            f.write_all(&payload)?;
        }
        f.write_all(&crc.to_le_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp_path, &final_path)?;
    // fsync the directory so the rename itself is durable.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(final_path)
}

fn read_snapshot(path: &Path) -> Result<SnapshotState, SnapshotError> {
    let buf = std::fs::read(path)?;
    let corrupt = |what: String| SnapshotError::Corrupt { path: path.to_path_buf(), what };
    if buf.len() < 16 {
        return Err(corrupt(format!("{} bytes is too short", buf.len())));
    }
    if &buf[..8] != SNAP_MAGIC || buf[8..12] != SNAP_FORMAT.to_le_bytes() {
        return Err(corrupt("bad magic or format version".into()));
    }
    let payload = &buf[12..buf.len() - 4];
    let stored = u32::from_le_bytes(buf[buf.len() - 4..].try_into().unwrap());
    let got = crc32(payload);
    if got != stored {
        return Err(corrupt(format!("checksum mismatch: stored {stored:08x}, got {got:08x}")));
    }
    decode_state(payload).map_err(|e| corrupt(e.to_string()))
}

/// Loads the newest snapshot in `dir` that validates end-to-end, skipping
/// damaged candidates. Returns the state plus the paths of files that were
/// skipped as corrupt (for logging).
pub fn load_newest_snapshot(
    dir: &Path,
) -> Result<(Option<SnapshotState>, Vec<PathBuf>), SnapshotError> {
    let mut candidates: Vec<(u64, PathBuf)> = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((None, Vec::new())),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        if let Some(v) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            candidates.push((v, entry.path()));
        }
    }
    candidates.sort_unstable_by_key(|(v, _)| std::cmp::Reverse(*v));
    let mut skipped = Vec::new();
    for (_, path) in candidates {
        match read_snapshot(&path) {
            Ok(state) => return Ok((Some(state), skipped)),
            Err(SnapshotError::Corrupt { path, .. }) => skipped.push(path),
            Err(e) => return Err(e),
        }
    }
    Ok((None, skipped))
}

/// Deletes snapshot files older than `keep_version` and stray `.tmp`
/// files, returning how many were removed. Called after a successful
/// [`write_snapshot`] so exactly one snapshot remains.
pub fn prune_older_snapshots(dir: &Path, keep_version: u64) -> std::io::Result<usize> {
    let mut removed = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = match parse_snapshot_name(name) {
            Some(v) => v < keep_version,
            None => name.starts_with("snapshot-") && name.ends_with(".tmp"),
        };
        if stale && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::Value;
    use mura_rewrite::FeedbackStore;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mura-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_state(version: u64) -> SnapshotState {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let edge = db.insert_relation("edge", Relation::from_pairs(src, dst, [(1, 2), (2, 3)]));
        db.bind_constant("Japan", Value::node(7));
        let fix = db.dict_mut().fresh("fix");
        let plan = Term::var(edge).union(Term::var(fix)).fix(fix);
        let rel = Relation::from_pairs(src, dst, [(1, 2), (1, 3), (2, 3)]);
        let totals = vec![(42u64, rel.clone())];
        let mut fb = FeedbackStore::new();
        fb.record_plan(&plan, &|_| Some(3.0));
        SnapshotState {
            version,
            epoch: 1,
            db,
            views: vec![ViewSnapshot { plan: plan.clone(), relation: rel, fix_totals: totals }],
            feedback: fb.export_state(),
            plans: vec![("?x, ?y <- ?x edge+ ?y".to_string(), plan, 3)],
        }
    }

    #[test]
    fn write_load_round_trip() {
        let dir = tmpdir("rt");
        let state = sample_state(17);
        let path = write_snapshot(&dir, &state).unwrap();
        assert_eq!(path.file_name().unwrap().to_str().unwrap(), snapshot_file_name(17));
        let (loaded, skipped) = load_newest_snapshot(&dir).unwrap();
        assert!(skipped.is_empty());
        let loaded = loaded.unwrap();
        assert_eq!(loaded.version, 17);
        assert_eq!(loaded.epoch, 1);
        assert_eq!(loaded.db.total_rows(), state.db.total_rows());
        assert_eq!(loaded.views.len(), 1);
        assert_eq!(loaded.views[0].plan, state.views[0].plan);
        assert_eq!(loaded.views[0].relation.sorted_rows(), state.views[0].relation.sorted_rows());
        assert_eq!(loaded.views[0].fix_totals[0].0, 42);
        assert_eq!(loaded.feedback, state.feedback);
        assert_eq!(loaded.plans.len(), 1);
        assert_eq!(loaded.plans[0].0, state.plans[0].0);
        assert_eq!(loaded.plans[0].1, state.plans[0].1);
        assert_eq!(loaded.plans[0].2, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newest_wins_and_corrupt_falls_back() {
        let dir = tmpdir("fallback");
        write_snapshot(&dir, &sample_state(3)).unwrap();
        let newest = write_snapshot(&dir, &sample_state(9)).unwrap();
        let (loaded, _) = load_newest_snapshot(&dir).unwrap();
        assert_eq!(loaded.unwrap().version, 9);
        // Damage the newest: loader falls back to version 3.
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        let (loaded, skipped) = load_newest_snapshot(&dir).unwrap();
        assert_eq!(loaded.unwrap().version, 3);
        assert_eq!(skipped, vec![newest.clone()]);
        // Truncated file is also skipped, not fatal.
        std::fs::write(&newest, &bytes[..7]).unwrap();
        let (loaded, _) = load_newest_snapshot(&dir).unwrap();
        assert_eq!(loaded.unwrap().version, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_of_the_format_before_is_refused() {
        let dir = tmpdir("format3");
        let path = write_snapshot(&dir, &sample_state(4)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(SNAP_FORMAT - 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let refused = read_snapshot(&path).unwrap_err();
        assert!(
            matches!(&refused, SnapshotError::Corrupt { what, .. } if what.contains("format version")),
            "{refused}"
        );
        let (loaded, skipped) = load_newest_snapshot(&dir).unwrap();
        assert!(loaded.is_none());
        assert_eq!(skipped, vec![path]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_removes_older_and_stray_tmp() {
        let dir = tmpdir("prune");
        write_snapshot(&dir, &sample_state(1)).unwrap();
        write_snapshot(&dir, &sample_state(2)).unwrap();
        write_snapshot(&dir, &sample_state(5)).unwrap();
        std::fs::write(dir.join("snapshot-00000000000000000004.tmp"), b"half").unwrap();
        let removed = prune_older_snapshots(&dir, 5).unwrap();
        assert_eq!(removed, 3);
        let (loaded, _) = load_newest_snapshot(&dir).unwrap();
        assert_eq!(loaded.unwrap().version, 5);
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(left.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_and_missing_dir_load_as_none() {
        let dir = tmpdir("empty");
        let (loaded, _) = load_newest_snapshot(&dir).unwrap();
        assert!(loaded.is_none());
        let (loaded, _) = load_newest_snapshot(&dir.join("missing")).unwrap();
        assert!(loaded.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
