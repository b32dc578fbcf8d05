//! Observed-cardinality feedback: measured fixpoint totals keyed by
//! canonical plan hash, with churn-based invalidation.
//!
//! After a query executes, the server folds the executor's per-fixpoint
//! totals into a [`FeedbackStore`]. On the next planning of an equal
//! (sub)term the enumerator costs fixpoints from these *measured* sizes
//! instead of the static expansion estimate ([`CostModel::with_observed`]).
//!
//! Two staleness mechanisms keep the loop honest:
//!
//! * **Churn invalidation.** Every observation remembers which base
//!   relations the fixpoint reads and each relation's cumulative churn
//!   counter at observation time. [`FeedbackStore::note_churn`] (called on
//!   every IVM delta) drops observations whose dependencies have since
//!   churned materially (more than ~10% of the relation's current size,
//!   with a small absolute floor), so feedback never outlives the data it
//!   measured.
//! * **Generation counter.** The store's generation bumps whenever the
//!   observation set changes materially (new fixpoint observed, a measured
//!   total moved by more than 25%, observations invalidated). The server's
//!   plan cache remembers the generation a plan was optimized under and
//!   replans when it moves — that is the whole adaptive loop. The
//!   contrapositive is load-bearing too: observations never change
//!   *without* a generation bump (re-observations within tolerance are
//!   confirmations, not updates), so a plan that is generation-valid was
//!   costed from exactly the store's current contents. Crash recovery
//!   leans on this to rebuild plan caches by re-planning against the
//!   restored store.
//!
//! [`CostModel::with_observed`]: crate::cost::CostModel::with_observed

use crate::cost::ObservedCards;
use mura_core::fxhash::FxHashMap;
use mura_core::{canon_key, Sym, Term};
use std::sync::{Arc, OnceLock};

/// Relative change in an observed total that counts as material (bumps the
/// generation and forces dependent plans to re-optimize).
const MATERIAL_ROWS_CHANGE: f64 = 0.25;

/// Fraction of a relation's size that must churn before observations
/// depending on it are dropped.
const MATERIAL_CHURN_FRACTION: f64 = 0.10;

/// Absolute churn floor: tiny relations invalidate after this many changed
/// rows regardless of the fraction.
const MATERIAL_CHURN_FLOOR: f64 = 8.0;

#[derive(Debug, Clone)]
struct Observation {
    /// Measured total rows of the fixpoint.
    rows: f64,
    /// How many executions have confirmed this observation.
    runs: u64,
    /// Base relations the fixpoint reads, with each relation's cumulative
    /// churn counter at observation time.
    deps: Vec<(Sym, u64)>,
}

/// Per-plan-hash store of observed fixpoint cardinalities.
#[derive(Debug, Default)]
pub struct FeedbackStore {
    entries: FxHashMap<u64, Observation>,
    /// Cumulative changed-row counter per base relation.
    churn: FxHashMap<Sym, u64>,
    /// Last known size per base relation (sets the churn threshold).
    sizes: FxHashMap<Sym, f64>,
    generation: u64,
    /// `entries` as the map the cost model reads, built by the first
    /// [`FeedbackStore::observations`] after the observed rows changed and
    /// shared by every plan miss until they change again.
    cards: OnceLock<Arc<ObservedCards>>,
}

impl FeedbackStore {
    /// An empty store.
    pub fn new() -> FeedbackStore {
        FeedbackStore::default()
    }

    /// Current generation. Plans costed under an older generation should be
    /// re-optimized.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of live observations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no observations are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The observations as a `canon_key → rows` map, the shape
    /// [`crate::cost::CostModel::with_observed`] consumes.
    pub fn observations(&self) -> Arc<ObservedCards> {
        let build = || Arc::new(self.entries.iter().map(|(k, o)| (*k, o.rows)).collect());
        Arc::clone(self.cards.get_or_init(build))
    }

    /// Folds the fixpoint totals an execution of `plan` measured into the
    /// store: `measured` gives the rows of a `Fix` subterm the executor
    /// captured (`None` for one it did not), and the store files them under
    /// the subterm's [`canon_key`], the key the cost model asks by. Returns
    /// the number of fixpoints recorded. Bumps the generation when the
    /// observation set changed materially.
    pub fn record_plan(&mut self, plan: &Term, measured: &impl Fn(&Term) -> Option<f64>) -> usize {
        let mut recorded = 0;
        let mut material = false;
        self.record_rec(plan, measured, &mut recorded, &mut material);
        if material {
            self.generation += 1;
            self.cards.take();
        }
        recorded
    }

    fn record_rec(
        &mut self,
        t: &Term,
        measured: &impl Fn(&Term) -> Option<f64>,
        recorded: &mut usize,
        material: &mut bool,
    ) {
        if let Some(rows) = matches!(t, Term::Fix(..)).then(|| measured(t)).flatten() {
            let deps: Vec<(Sym, u64)> = t
                .free_vars()
                .into_iter()
                .map(|r| (r, self.churn.get(&r).copied().unwrap_or(0)))
                .collect();
            *recorded += 1;
            let key = canon_key(t, &[]);
            match self.entries.get_mut(&key) {
                Some(obs) => {
                    // Invariant: observations only change when the
                    // generation bumps. A re-observation within
                    // tolerance *confirms* the stored value instead of
                    // drifting it — the plan cache treats "generation
                    // unchanged" as "costing inputs unchanged", and
                    // crash recovery (which rebuilds plans by
                    // re-planning against the restored store) relies on
                    // the same property to reproduce cached plans.
                    if (rows - obs.rows).abs() > MATERIAL_ROWS_CHANGE * obs.rows.max(1.0) {
                        *material = true;
                        obs.rows = rows;
                        obs.deps = deps;
                    }
                    obs.runs += 1;
                }
                None => {
                    *material = true;
                    self.entries.insert(key, Observation { rows, runs: 1, deps });
                }
            }
        }
        for c in t.children() {
            self.record_rec(c, measured, recorded, material);
        }
    }

    /// Notes that `changed` rows of `rel` (inserts + deletes) were applied
    /// and that the relation now holds `size_now` rows. Drops observations
    /// whose dependency on `rel` has churned materially since they were
    /// taken; returns how many were dropped (generation bumps when > 0).
    pub fn note_churn(&mut self, rel: Sym, changed: usize, size_now: usize) -> usize {
        *self.churn.entry(rel).or_insert(0) += changed as u64;
        self.sizes.insert(rel, size_now as f64);
        let now = self.churn[&rel];
        let threshold = (MATERIAL_CHURN_FRACTION * size_now as f64).max(MATERIAL_CHURN_FLOOR);
        let before = self.entries.len();
        self.entries.retain(|_, obs| {
            !obs.deps.iter().any(|(r, at)| *r == rel && (now - *at) as f64 > threshold)
        });
        let dropped = before - self.entries.len();
        if dropped > 0 {
            self.generation += 1;
            self.cards.take();
        }
        dropped
    }

    /// Drops everything (shape-changing or same-shape reload: the measured
    /// world is gone). The generation is *not* bumped — plans cached before
    /// the clear stay structurally valid; the next recording bumps it.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.churn.clear();
        self.sizes.clear();
        self.cards.take();
    }
}

/// One exported observation: `(canon_key, rows, runs, deps)` where `deps`
/// are `(relation, churn counter at observation time)` pairs.
pub type FeedbackEntry = (u64, f64, u64, Vec<(Sym, u64)>);

/// The serializable projection of a [`FeedbackStore`], used by the
/// durability layer to carry observed cardinalities across a restart. All
/// vectors are sorted so the export of a given store is byte-stable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeedbackState {
    /// Store generation at export time.
    pub generation: u64,
    /// Live observations.
    pub entries: Vec<FeedbackEntry>,
    /// Cumulative changed-row counter per base relation.
    pub churn: Vec<(Sym, u64)>,
    /// Last known size per base relation.
    pub sizes: Vec<(Sym, f64)>,
}

impl FeedbackStore {
    /// Exports the full store state (observations, churn counters, sizes,
    /// generation) in a deterministic order.
    pub fn export_state(&self) -> FeedbackState {
        let mut entries: Vec<FeedbackEntry> =
            self.entries.iter().map(|(k, o)| (*k, o.rows, o.runs, o.deps.clone())).collect();
        entries.sort_by_key(|e| e.0);
        let mut churn: Vec<(Sym, u64)> = self.churn.iter().map(|(s, c)| (*s, *c)).collect();
        churn.sort_by_key(|e| e.0);
        let mut sizes: Vec<(Sym, f64)> = self.sizes.iter().map(|(s, z)| (*s, *z)).collect();
        sizes.sort_by_key(|e| e.0);
        FeedbackState { generation: self.generation, entries, churn, sizes }
    }

    /// Rebuilds a store from an exported state. Canonical keys and symbol
    /// ids are only meaningful against the dictionary they were computed
    /// under, so the importer must have restored that dictionary first
    /// (the snapshot layer restores symbols by interning names in their
    /// original order).
    pub fn import_state(state: FeedbackState) -> FeedbackStore {
        let mut fb = FeedbackStore { generation: state.generation, ..Default::default() };
        for (key, rows, runs, deps) in state.entries {
            fb.entries.insert(key, Observation { rows, runs, deps });
        }
        for (rel, c) in state.churn {
            fb.churn.insert(rel, c);
        }
        for (rel, z) in state.sizes {
            fb.sizes.insert(rel, z);
        }
        fb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::Database;

    /// `E+` fixpoint over fresh symbols, plus its term key.
    fn tc_fix(db: &mut Database) -> Term {
        let src = db.intern("src");
        let dst = db.intern("dst");
        let e = db.intern("E");
        let x = db.dict_mut().fresh("X");
        let m = db.dict_mut().fresh("m");
        Term::var(e)
            .union(Term::var(x).rename(dst, m).join(Term::var(e).rename(src, m)).antiproject(m))
            .fix(x)
    }

    #[test]
    fn record_then_observe_round_trips_across_fresh_symbols() {
        let mut db = Database::new();
        let plan1 = tc_fix(&mut db);
        let plan2 = tc_fix(&mut db); // same plan, different fresh symbols
        let mut fb = FeedbackStore::new();
        assert_eq!(fb.record_plan(&plan1, &|_| Some(123.0)), 1);
        let obs = fb.observations();
        // The observation is visible under plan2's canonical key too.
        assert_eq!(obs.get(&canon_key(&plan2, &[])), Some(&123.0));
        // A fixpoint the executor did not capture records nothing.
        assert_eq!(fb.record_plan(&plan2, &|_| None), 0);
    }

    #[test]
    fn observations_are_one_map_per_change_of_the_observed_rows() {
        let mut db = Database::new();
        let plan = tc_fix(&mut db);
        let key = canon_key(&plan, &[]);
        let mut fb = FeedbackStore::new();
        fb.record_plan(&plan, &|_| Some(100.0));
        let first = fb.observations();
        assert!(Arc::ptr_eq(&first, &fb.observations()), "a second miss borrows the same map");
        // A confirmation changes no row: same map. A material move: a new one.
        fb.record_plan(&plan, &|_| Some(110.0));
        assert!(Arc::ptr_eq(&first, &fb.observations()));
        fb.record_plan(&plan, &|_| Some(300.0));
        assert_eq!((first.get(&key), fb.observations().get(&key)), (Some(&100.0), Some(&300.0)));
        fb.clear();
        assert!(fb.observations().is_empty());
    }

    #[test]
    fn generation_bumps_on_new_and_material_changes_only() {
        let mut db = Database::new();
        let plan = tc_fix(&mut db);
        let mut fb = FeedbackStore::new();
        let g0 = fb.generation();
        fb.record_plan(&plan, &|_| Some(100.0));
        assert!(fb.generation() > g0, "new observation must bump");
        let g1 = fb.generation();
        // Re-observing within tolerance: stable, no bump.
        fb.record_plan(&plan, &|_| Some(110.0));
        assert_eq!(fb.generation(), g1);
        // Material move: bump.
        fb.record_plan(&plan, &|_| Some(300.0));
        assert!(fb.generation() > g1);
    }

    #[test]
    fn churn_drops_dependent_observations() {
        let mut db = Database::new();
        let plan = tc_fix(&mut db);
        let e = db.intern("E");
        let other = db.intern("F");
        let mut fb = FeedbackStore::new();
        fb.record_plan(&plan, &|_| Some(100.0));
        // Churn on an unrelated relation: observation survives.
        assert_eq!(fb.note_churn(other, 1000, 1000), 0);
        assert_eq!(fb.len(), 1);
        // Small churn on E: below threshold, survives.
        assert_eq!(fb.note_churn(e, 2, 1000), 0);
        // Material churn on E: dropped, generation bumps.
        let g = fb.generation();
        assert_eq!(fb.note_churn(e, 200, 1000), 1);
        assert!(fb.is_empty());
        assert!(fb.generation() > g);
    }

    #[test]
    fn export_import_round_trips_and_is_deterministic() {
        let mut db = Database::new();
        let plan = tc_fix(&mut db);
        let e = db.intern("E");
        let mut fb = FeedbackStore::new();
        fb.record_plan(&plan, &|_| Some(100.0));
        fb.note_churn(e, 2, 1000);
        let state = fb.export_state();
        assert_eq!(state, fb.export_state(), "export must be byte-stable");
        let back = FeedbackStore::import_state(state);
        assert_eq!(back.generation(), fb.generation());
        assert_eq!(back.observations(), fb.observations());
        // Churn bookkeeping survives: the same material churn that would
        // drop the observation in the original drops it in the copy.
        let mut a = fb;
        let mut b = back;
        assert_eq!(a.note_churn(e, 200, 1000), b.note_churn(e, 200, 1000));
        assert_eq!(a.generation(), b.generation());
    }

    #[test]
    fn clear_keeps_generation() {
        let mut db = Database::new();
        let plan = tc_fix(&mut db);
        let mut fb = FeedbackStore::new();
        fb.record_plan(&plan, &|_| Some(100.0));
        let g = fb.generation();
        fb.clear();
        assert!(fb.is_empty());
        assert_eq!(fb.generation(), g);
    }
}
