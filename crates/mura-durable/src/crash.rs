//! Deterministic, env-driven crash points for the chaos harness.
//!
//! `MURA_CRASH_POINT=<site>:<n>` aborts the process (via
//! [`std::process::abort`], simulating `kill -9` — no destructors, no
//! flushing) the n-th time [`crash_point`] is reached with that `site`.
//! Sites the durability layer instruments:
//!
//! * `wal_append_mid` — half the WAL record's bytes written, nothing
//!   synced: the classic torn tail.
//! * `wal_append_done` — record fully written and synced, but not yet
//!   applied: recovery must replay it.
//! * `snapshot_mid` — half the snapshot temp file written: the previous
//!   snapshot must stay authoritative.
//!
//! Unset (the normal case) the counter costs one relaxed atomic load.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

struct CrashSpec {
    site: String,
    nth: u64,
}

static SPEC: OnceLock<Option<CrashSpec>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);

fn spec() -> Option<&'static CrashSpec> {
    SPEC.get_or_init(|| {
        let raw = std::env::var("MURA_CRASH_POINT").ok()?;
        let (site, n) = raw.rsplit_once(':')?;
        let nth: u64 = n.trim().parse().ok()?;
        if site.is_empty() || nth == 0 {
            return None;
        }
        Some(CrashSpec { site: site.to_string(), nth })
    })
    .as_ref()
}

/// True when `MURA_CRASH_POINT` names this site. Callers use this to take
/// a slower instrumented path (e.g. splitting a write in two so the crash
/// leaves genuinely partial bytes) only when a crash is actually armed.
pub fn crash_armed(site: &str) -> bool {
    matches!(spec(), Some(s) if s.site == site)
}

/// Aborts the process on the n-th hit of the armed site; no-op otherwise.
pub fn crash_point(site: &str) {
    if let Some(s) = spec() {
        if s.site == site {
            let hit = HITS.fetch_add(1, Ordering::SeqCst) + 1;
            if hit == s.nth {
                eprintln!("CRASH site={site} hit={hit}");
                std::process::abort();
            }
        }
    }
}
