//! The speed meter: how fast the machine is *right now*, so that a timing
//! can be reported as what it would have been on the undisturbed machine.
//!
//! The sandbox is a few cores of a shared host. Its speed moves with the
//! other tenants — by 30% for minutes at a time — and that moves every
//! wall time of the same code by as much, which is more than any bound a
//! regression check could use. So the benchmark takes a *reading* between
//! every two timed intervals: a fixed piece of work (hash-set inserts and
//! probes, the kind of work the engine does) on the calling thread,
//! timed. An interval's *speed factor* is the mean of the readings before
//! and after it over [`NOMINAL_S`], raised to [`SENSITIVITY`], and the
//! interval counts as `wall / factor` — its wall time at the reference
//! speed. Whatever slows the whole machine slows reading and interval
//! alike and cancels; a change to the program moves only the interval.
//!
//! The readings are the benchmark's, not the program's: no engine code
//! runs in them, so no optimisation of the engine can move them. They run
//! on one thread on purpose. A reading on two threads at once (as many as
//! the engine has workers) was tried: it corrects no better when the host
//! is what slows the machine, and when something else runs inside the
//! sandbox it waits for the scheduler, reads up to four times slow while
//! the engine is half as slow, and makes the result worse than the clock's.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Keys of one hash set. Small on purpose: the set stays inside the
/// core's own caches, so a reading follows what every piece of engine work
/// follows too — the core's speed and the share of it this machine gets —
/// and not what a neighbour does to the shared cache, which slows memory-
/// bound and compute-bound code by different amounts.
const KEYS: u64 = 2_048;

/// Hash sets a reading builds and probes, one after another.
const SETS: u64 = 40;

/// What a reading takes on the reference sandbox (a 2.1 GHz Xeon vCPU) in
/// its quiet minutes: the median reading between the queries of
/// `classes_sim` there (a reading straight after engine work finds colder
/// caches than `bench speed`'s back-to-back ones). It fixes the scale
/// only — between two runs on one machine it divides out.
pub const NOMINAL_S: f64 = 0.0044;

/// How much more the program's time moves than a reading's when the
/// machine's speed moves: a reading is compute inside one core's caches;
/// the engine also waits for memory, for the kernel and for the slower of
/// its two worker threads, and all of these suffer more from a busy host.
/// Measured on this sandbox: over 20 runs of `classes_sim` the pass wall
/// moved 1.9 times as much as the readings (slope of log on log), and
/// over the 80 runs of two complete sets of all four workloads the spread
/// of the end-to-end timings was smallest at 1.4 — 7.7% at worst, against
/// 12.9% at 1.0 and 13.2% at 1.8 (as the clock gave them: 26%).
pub const SENSITIVITY: f64 = 1.4;

/// SplitMix64 step, in-line so the reading depends on nothing else.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fixed work: [`SETS`] times, grow a hash set from empty (so it
/// re-allocates as the engine's relations do) and probe it with as many
/// keys again. Fixed hasher keys: every reading is the same work, down to
/// the collisions.
fn work() -> u64 {
    let mut state = 0u64;
    let mut hits = 0u64;
    for _ in 0..SETS {
        let mut set: HashSet<u64, BuildHasherDefault<DefaultHasher>> = HashSet::default();
        for _ in 0..KEYS {
            set.insert(mix(&mut state) % (2 * KEYS));
        }
        for _ in 0..KEYS {
            hits += u64::from(set.contains(&(mix(&mut state) % (2 * KEYS))));
        }
        hits += set.len() as u64;
    }
    hits
}

/// One reading: the fixed work, timed, in seconds.
pub fn reading() -> f64 {
    let start = Instant::now();
    black_box(work());
    start.elapsed().as_secs_f64()
}

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// Wall time as the clock gave it.
    pub raw_s: f64,
    /// Machine speed around the interval: 1 = reference, 1.3 = everything
    /// takes 30% longer than on the undisturbed machine.
    pub factor: f64,
}

impl Interval {
    /// The interval at the reference speed.
    pub fn secs(&self) -> f64 {
        self.raw_s / self.factor
    }
}

/// Takes a reading after every timed interval; the reading before it is
/// the previous interval's.
pub struct Meter {
    last: f64,
    factors: Vec<f64>,
}

impl Meter {
    pub fn start() -> Meter {
        // The first reading also pays for faulting in the allocator's
        // arenas; take it twice and keep the second.
        reading();
        Meter { last: reading(), factors: Vec::new() }
    }

    /// Runs and times `work`, then takes the reading that closes it.
    pub fn timed<T>(&mut self, work: impl FnOnce() -> T) -> (T, Interval) {
        let start = Instant::now();
        let out = work();
        let raw_s = start.elapsed().as_secs_f64();
        let after = reading();
        let factor = ((self.last + after) / 2.0 / NOMINAL_S).powf(SENSITIVITY);
        self.last = after;
        self.factors.push(factor);
        (out, Interval { raw_s, factor })
    }

    /// Speed factor of every interval so far.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }
}

/// `bench speed [seconds]`: prints readings for that long and their
/// quartiles — how [`NOMINAL_S`] was found, and how noisy the machine is.
pub fn report(seconds: f64) {
    let start = Instant::now();
    let mut all = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        all.push(reading());
    }
    let (q1, q2, q3) = super::stats::quartiles(&all);
    let min = all.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "{} readings: min {:.6} s, quartiles {q1:.6} / {q2:.6} / {q3:.6} s; NOMINAL_S is {NOMINAL_S}",
        all.len(),
        min
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reading_is_the_same_work_every_time() {
        assert_eq!(work(), work());
        assert!(reading() > 0.0);
    }

    #[test]
    fn an_interval_counts_at_the_reference_speed() {
        let mut meter = Meter { last: NOMINAL_S * 1.5, factors: Vec::new() };
        let (value, interval) = meter.timed(|| 7);
        assert_eq!(value, 7);
        assert_eq!(meter.factors(), [interval.factor]);
        // Whatever the closing reading was, the factor is the mean of the
        // two readings over the nominal one, raised to the sensitivity.
        let mean = (NOMINAL_S * 1.5 + meter.last) / 2.0 / NOMINAL_S;
        assert!((interval.factor - mean.powf(SENSITIVITY)).abs() < 1e-12);
        let slow = Interval { raw_s: 3.0, factor: 1.5 };
        assert_eq!(slow.secs(), 2.0);
    }
}
