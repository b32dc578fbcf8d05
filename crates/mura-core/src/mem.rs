//! Process-wide byte-level memory accounting.
//!
//! The paper's evaluation shows competitor systems *failing* with
//! out-of-memory aborts on large recursive queries instead of degrading.
//! To fail typed (and observable) rather than fall over, the fixpoint
//! drivers charge an estimate of every materialized batch against two
//! accounts:
//!
//! * a per-query byte budget (`Budget.max_bytes` in `mura-dist`), which
//!   turns a breach into [`MuraError::MemoryExceeded`](crate::error::MuraError::MemoryExceeded),
//!   and
//! * the process-wide [`MemGauge`] singleton here, which tracks the live
//!   working-set across *all* in-flight queries so a serving layer can make
//!   admission decisions against the real watermark.
//!
//! Accounting is estimate-based, not allocator-hooked: a batch of `rows`
//! tuples of arity `a` is charged [`rel_bytes`]`(rows, a)` =
//! `rows × a × size_of::<Value>()` bytes. The estimate is deterministic
//! (identical across same-seed chaos runs) and deliberately ignores
//! `Arc`-sharing so copy-on-write relations are never double-charged.
//!
//! Charges are batch-granular — one atomic per superstep, not per row — so
//! the hot kernels stay allocation- and contention-free. The RAII
//! [`MemCharge`] guard ties a charge's lifetime to the owning working set:
//! dropping the guard (normally or during unwinding after a worker panic)
//! releases the bytes, keeping the gauge balanced even on failure paths.

use crate::value::Value;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide gauge of charged (live) bytes plus the high-water mark.
///
/// All methods are lock-free and callable from any worker thread.
#[derive(Debug)]
pub struct MemGauge {
    current: AtomicU64,
    high_water: AtomicU64,
}

impl MemGauge {
    /// Charges `bytes` and returns the new current total, updating the
    /// high-water mark.
    pub fn add(&self, bytes: u64) -> u64 {
        let now = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.high_water.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// Releases `bytes`. Saturates at zero so a stray double-release can
    /// never wrap the gauge.
    pub fn sub(&self, bytes: u64) {
        let mut cur = self.current.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.current.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Currently charged bytes across all live queries.
    pub fn current_bytes(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// Highest value [`current_bytes`](Self::current_bytes) has reached.
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// The process-wide gauge singleton.
pub fn mem_gauge() -> &'static MemGauge {
    static GAUGE: MemGauge = MemGauge { current: AtomicU64::new(0), high_water: AtomicU64::new(0) };
    &GAUGE
}

/// Estimated footprint of `rows` tuples of the given arity: payload values
/// only, `Arc`/hash overhead excluded so sharing is never double-counted.
///
/// Saturates at `u64::MAX`: callers feed it cost-model cardinalities that
/// can be astronomically large (joins multiply), and an oversized estimate
/// must clamp — and be shed by any byte gate — rather than wrap past it.
#[inline]
pub fn rel_bytes(rows: u64, arity: usize) -> u64 {
    rows.saturating_mul(arity as u64).saturating_mul(std::mem::size_of::<Value>() as u64)
}

/// RAII charge against the process gauge.
///
/// Holds the number of bytes currently attributed to one working set (e.g.
/// a fixpoint's accumulator). [`grow_to`](Self::grow_to) re-charges as the
/// set grows; dropping the guard releases everything — including during
/// panic unwinding, so injected worker failures cannot leak gauge bytes.
#[derive(Debug, Default)]
pub struct MemCharge {
    bytes: u64,
}

impl MemCharge {
    /// An empty charge (zero bytes held).
    pub fn new() -> Self {
        MemCharge::default()
    }

    /// Raises the held charge to `bytes` (no-op if already at or above).
    pub fn grow_to(&mut self, bytes: u64) {
        if bytes > self.bytes {
            mem_gauge().add(bytes - self.bytes);
            self.bytes = bytes;
        }
    }

    /// Sets the held charge to `bytes`, for a working set that also
    /// shrinks: the difference is charged or released.
    pub fn set(&mut self, bytes: u64) {
        self.grow_to(bytes);
        if bytes < self.bytes {
            mem_gauge().sub(self.bytes - bytes);
            self.bytes = bytes;
        }
    }

    /// Bytes currently held by this guard.
    pub fn held(&self) -> u64 {
        self.bytes
    }
}

impl Drop for MemCharge {
    fn drop(&mut self) {
        if self.bytes > 0 {
            mem_gauge().sub(self.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_round_trip() {
        let g = mem_gauge();
        let before = g.current_bytes();
        g.add(1024);
        assert!(g.current_bytes() >= before + 1024);
        assert!(g.high_water_bytes() >= before + 1024);
        g.sub(1024);
    }

    #[test]
    fn sub_saturates() {
        let g = MemGauge { current: AtomicU64::new(10), high_water: AtomicU64::new(10) };
        g.sub(100);
        assert_eq!(g.current_bytes(), 0);
    }

    #[test]
    fn rel_bytes_scales_with_arity() {
        assert_eq!(rel_bytes(10, 2), 10 * 2 * std::mem::size_of::<Value>() as u64);
        assert_eq!(rel_bytes(0, 5), 0);
    }

    #[test]
    fn rel_bytes_saturates_instead_of_wrapping() {
        // A 3-way join of 1e6-row relations estimates ~1e18 rows; the byte
        // estimate must clamp so a watermark gate always sheds it.
        assert_eq!(rel_bytes(u64::MAX, 3), u64::MAX);
        assert_eq!(rel_bytes(1 << 62, 4), u64::MAX);
    }

    #[test]
    fn charge_guard_releases_on_drop() {
        // A deliberately huge charge so concurrent tests' small charges
        // cannot confound the release assertion.
        const BIG: u64 = 1 << 40;
        let g = mem_gauge();
        let before = g.current_bytes();
        {
            let mut c = MemCharge::new();
            c.grow_to(BIG);
            c.grow_to(100); // shrink request is a no-op
            assert_eq!(c.held(), BIG);
            assert!(g.current_bytes() >= before + BIG);
        }
        assert!(g.current_bytes() < before + BIG / 2, "guard did not release");
        assert!(g.high_water_bytes() >= BIG);
    }
}
