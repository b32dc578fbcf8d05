//! Durability: the write-ahead log and the snapshots.
//!
//! Owns the open WAL and the snapshot bookkeeping. What it hides: *a
//! mutation is in the log before it is in memory, and in the log only if
//! it is in memory* — [`Durability::logged`] is the one sequence (mark,
//! append, count, apply, truncate back to the mark if either step failed)
//! that deltas and loads both go through — and *when a snapshot is due*
//! ([`Durability::checkpoint`]). Nothing here is touched by a query.

use crate::error::{ServeError, ServeResult};
use crate::lock;
use crate::telemetry::Telemetry;
use mura_durable::{
    load_newest_snapshot, prune_older_snapshots, write_snapshot, SnapshotState, SyncPolicy, Wal,
    WalError, WalRecord,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

struct DurableState {
    wal: Wal,
    dir: PathBuf,
    /// WAL appends since the last snapshot; reaching `snapshot_every`
    /// makes the next [`Durability::checkpoint`] write one.
    appends_since_snapshot: u64,
    last_snapshot_at: Instant,
}

/// What a data directory held at startup: the newest snapshot that
/// validates, and the log records appended after it.
pub(crate) struct Recovered {
    pub(crate) snapshot: Option<SnapshotState>,
    pub(crate) tail: Vec<WalRecord>,
    wal: Wal,
    dir: PathBuf,
}

/// Opens `dir` (creating it if absent): the newest valid snapshot plus the
/// WAL tail reconstruct the exact pre-crash state.
pub(crate) fn open(dir: &Path, sync: SyncPolicy) -> ServeResult<Recovered> {
    let (snapshot, _skipped_corrupt) = load_newest_snapshot(dir)
        .map_err(|e| ServeError::Durability(format!("snapshot load: {e}")))?;
    let (wal, replay) =
        Wal::open(dir, sync).map_err(|e| ServeError::Durability(format!("wal open: {e}")))?;
    Ok(Recovered { snapshot, tail: replay.records, wal, dir: dir.to_path_buf() })
}

pub(crate) struct Durability {
    /// Empty without a data directory, and until [`attach`] — that is,
    /// while recovery replays the tail: replay must not re-log the records
    /// it reads, and must not snapshot midway (a snapshot resets the WAL,
    /// which would discard records not yet replayed if recovery itself
    /// crashed). While empty, [`logged`] only applies and [`checkpoint`]
    /// does nothing.
    ///
    /// [`attach`]: Durability::attach
    /// [`logged`]: Durability::logged
    /// [`checkpoint`]: Durability::checkpoint
    state: OnceLock<Mutex<DurableState>>,
    snapshot_every: u64,
    telemetry: Arc<Telemetry>,
}

impl Durability {
    pub(crate) fn new(snapshot_every: u64, telemetry: Arc<Telemetry>) -> Durability {
        Durability { state: OnceLock::new(), snapshot_every, telemetry }
    }

    /// Starts logging into the recovered directory.
    pub(crate) fn attach(&self, recovered: Recovered) {
        let Recovered { wal, dir, .. } = recovered;
        let state =
            DurableState { wal, dir, appends_since_snapshot: 0, last_snapshot_at: Instant::now() };
        assert!(self.state.set(Mutex::new(state)).is_ok(), "durability attaches once");
    }

    /// One durable step. `append` logs (and, per the sync policy, fsyncs)
    /// the mutation stamped with the version it will produce; only then
    /// does `apply` make it visible. A crash after the append replays the
    /// mutation at recovery; a crash before it recovers to the state
    /// before — either way the caller's ack, which only follows `Ok`,
    /// never lies. If the append fails, or `apply` rejects the mutation,
    /// the file is cut back to where it was: a partial frame would make
    /// replay drop every later, acknowledged record as a torn tail, and a
    /// whole one would replay a mutation the server refused.
    ///
    /// The caller holds the mutation lock, so no other append can land
    /// between the mark and the cut.
    pub(crate) fn logged<T>(
        &self,
        append: impl FnOnce(&mut Wal) -> Result<u64, WalError>,
        apply: impl FnOnce() -> ServeResult<T>,
    ) -> ServeResult<T> {
        let Some(state) = self.state.get() else { return apply() };
        let mut d = lock(state);
        let (bytes, appends) = (d.wal.bytes(), d.wal.appends());
        let appended = append(&mut d.wal);
        if let Ok(written) = &appended {
            self.telemetry.counters.wal_appends.inc();
            self.telemetry.counters.wal_bytes.add(*written);
            d.appends_since_snapshot += 1;
        }
        drop(d);
        let result = match &appended {
            Ok(_) => apply(),
            Err(e) => Err(ServeError::Durability(format!("wal append: {e}"))),
        };
        if result.is_err() {
            let mut d = lock(state);
            let _ = d.wal.rollback_to(bytes, appends);
            if appended.is_ok() {
                d.appends_since_snapshot -= 1;
            }
        }
        result
    }

    /// Writes a snapshot of `state()` if `force`d or if `snapshot_every`
    /// appends have accumulated since the last one, prunes older
    /// snapshots and resets the WAL, so recovery replay is bounded by one
    /// snapshot interval. The caller holds an engine lock and the mutation
    /// lock, so the state it describes is frozen.
    pub(crate) fn checkpoint(
        &self,
        force: bool,
        state: impl FnOnce() -> SnapshotState,
    ) -> ServeResult<()> {
        let Some(durable) = self.state.get() else { return Ok(()) };
        let every = self.snapshot_every;
        if !force && (every == 0 || lock(durable).appends_since_snapshot < every) {
            return Ok(());
        }
        let state = state();
        let mut d = lock(durable);
        write_snapshot(&d.dir, &state)
            .map_err(|e| ServeError::Durability(format!("snapshot write: {e}")))?;
        let _ = prune_older_snapshots(&d.dir, state.version);
        d.wal.reset().map_err(|e| ServeError::Durability(format!("wal reset: {e}")))?;
        d.appends_since_snapshot = 0;
        d.last_snapshot_at = Instant::now();
        self.telemetry.counters.snapshots_written.inc();
        Ok(())
    }

    /// Seconds since the last snapshot; 0 when durability is off.
    pub(crate) fn snapshot_age_seconds(&self) -> u64 {
        self.state.get().map_or(0, |d| lock(d).last_snapshot_at.elapsed().as_secs())
    }
}
