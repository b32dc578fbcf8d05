//! Communication accounting.
//!
//! The paper's central claim is about *communication during recursion*:
//! `P_gld` shuffles every iteration, `P_plw` only repartitions once up
//! front. These counters make that observable: every shuffle, shuffled row
//! and broadcast row of the paper's model is counted here, per query and
//! the same on either backend; the `wire` counters are what actually
//! crossed a socket, which on a process fleet is less (DESIGN.md §15).

mura_obs::counter_set! {
    /// Shared, thread-safe communication counters: one set per cluster,
    /// and one in the serving tier that sums fresh executions.
    pub struct CommStats => CommSnapshot {
        counter "mura_comm_shuffles_total", "Shuffle operations (each repartition of a dataset)." {
            shuffles,
        }
        counter "mura_comm_rows_shuffled_total", "Rows written during shuffles." {
            /// Every row of a repartitioned dataset, matching Spark's
            /// shuffle-write accounting.
            rows_shuffled,
        }
        counter "mura_comm_rows_broadcast_total", "Rows replicated by broadcasts." {
            /// `rows × (workers − 1)` per broadcast, whether or not the
            /// workers already held the replica.
            rows_broadcast,
        }
        counter "mura_comm_broadcasts_total", "Broadcast operations." { broadcasts }
        counter "mura_wire_bytes_total", "Measured bytes on worker sockets, frames included." {
            /// Zero on the in-process simulator backend; real traffic on
            /// `ProcCluster`.
            wire_tx_bytes {dir = "tx"},
            wire_rx_bytes {dir = "rx"},
        }
        counter "mura_wire_exchange_bytes_total",
            "Payload bytes that crossed worker sockets: buckets that changed worker, twice, and replicas a worker lacked." {
            /// Exchange buckets that change worker (sent out, echoed
            /// back) and broadcast replicas shipped to a worker that did
            /// not hold them — the counter behind the paper's `P_plw`
            /// zero-communication claim, measured instead of simulated.
            /// Excludes framing and control traffic.
            wire_exchange_bytes,
        }
    }
}

impl CommStats {
    /// Records one shuffle of `rows` rows.
    pub fn record_shuffle(&self, rows: u64) {
        self.shuffles.inc();
        self.rows_shuffled.add(rows);
    }

    /// Records one broadcast of `rows` rows to `workers` workers.
    pub fn record_broadcast(&self, rows: u64, workers: usize) {
        self.broadcasts.inc();
        self.rows_broadcast.add(rows * workers.saturating_sub(1) as u64);
    }

    /// Records `frame` bytes written to a worker socket, `payload` of which
    /// were data-plane payload (zero for control traffic).
    pub fn record_wire_tx(&self, frame: u64, payload: u64) {
        self.wire_tx_bytes.add(frame);
        self.wire_exchange_bytes.add(payload);
    }

    /// Records `frame` bytes read from a worker socket, `payload` of which
    /// were data-plane payload.
    pub fn record_wire_rx(&self, frame: u64, payload: u64) {
        self.wire_rx_bytes.add(frame);
        self.wire_exchange_bytes.add(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let m = CommStats::default();
        m.record_shuffle(100);
        m.record_shuffle(50);
        m.record_broadcast(10, 4);
        let s = m.snapshot();
        assert_eq!(s.shuffles, 2);
        assert_eq!(s.rows_shuffled, 150);
        assert_eq!(s.rows_broadcast, 30);
        assert_eq!(s.broadcasts, 1);
    }

    #[test]
    fn broadcast_to_single_worker_is_free() {
        let m = CommStats::default();
        m.record_broadcast(100, 1);
        assert_eq!(m.snapshot().rows_broadcast, 0);
    }

    #[test]
    fn wire_bytes_accumulate() {
        let m = CommStats::default();
        m.record_wire_tx(100, 80);
        m.record_wire_rx(50, 40);
        let a = m.snapshot();
        assert_eq!(a.wire_tx_bytes, 100);
        assert_eq!(a.wire_rx_bytes, 50);
        assert_eq!(a.wire_exchange_bytes, 120);
    }
}
