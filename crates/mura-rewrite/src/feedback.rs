//! Observed-cardinality feedback: measured fixpoint totals keyed by
//! canonical plan hash.
//!
//! After a query executes, the server folds the executor's per-fixpoint
//! totals into a [`FeedbackStore`]. On the next planning of an equal
//! (sub)term the enumerator costs fixpoints from these *measured* sizes
//! instead of the static expansion estimate ([`CostModel::with_observed`]).
//!
//! One staleness rule: an observation is as fresh as the last execution
//! that measured it. [`FeedbackStore::record_plan`] files a fixpoint it has
//! not seen, or one measured more than 25% away from what is filed, and
//! bumps the generation; a measurement within tolerance changes nothing.
//! The server's plan cache remembers the generation a plan was costed under
//! and re-plans when it has moved — that is the whole adaptive loop. A view
//! the server maintains is re-measured by every maintenance run, so data
//! that drifts moves the observation when the drift is material and not
//! before. The store *is* the map the cost model reads plus that
//! generation, and the map is only replaced together with a bump (or
//! emptied by a load): a plan that is generation-valid was costed from the
//! store's current contents.
//!
//! [`CostModel::with_observed`]: crate::cost::CostModel::with_observed

use crate::cost::ObservedCards;
use mura_core::{canon_key, Term};
use std::sync::Arc;

/// Relative change in an observed total that counts as material (bumps the
/// generation and forces cached plans to re-optimize).
const MATERIAL_ROWS_CHANGE: f64 = 0.25;

/// Observed fixpoint cardinalities, `canon_key → rows`, and the generation
/// they are.
#[derive(Debug, Default)]
pub struct FeedbackStore {
    cards: Arc<ObservedCards>,
    generation: u64,
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
        self.cards.len()
    }

    /// True when no observations are held.
    pub fn is_empty(&self) -> bool {
        self.cards.is_empty()
    }

    /// The observations, in the shape
    /// [`crate::cost::CostModel::with_observed`] consumes: one map, shared
    /// by every plan miss until a material change replaces it.
    pub fn observations(&self) -> Arc<ObservedCards> {
        Arc::clone(&self.cards)
    }

    /// Folds the fixpoint totals an execution of `plan` measured into the
    /// store: `measured` gives the rows of a `Fix` subterm the executor
    /// captured (`None` for one it did not), and the store files them under
    /// the subterm's [`canon_key`], the key the cost model asks by. Returns
    /// the number of fixpoints measured. Bumps the generation when one of
    /// them was new or had moved materially; otherwise nothing changes.
    pub fn record_plan(&mut self, plan: &Term, measured: &impl Fn(&Term) -> Option<f64>) -> usize {
        let mut recorded = 0;
        let mut material = false;
        self.record_rec(plan, measured, &mut recorded, &mut material);
        self.generation += u64::from(material);
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
            *recorded += 1;
            let key = canon_key(t, &[]);
            let moved = |filed: &f64| (rows - filed).abs() > MATERIAL_ROWS_CHANGE * filed.max(1.0);
            if self.cards.get(&key).is_none_or(moved) {
                // Readers holding the old map keep it: they were costed
                // under the generation this change ends.
                Arc::make_mut(&mut self.cards).insert(key, rows);
                *material = true;
            }
        }
        for c in t.children() {
            self.record_rec(c, measured, recorded, material);
        }
    }

    /// Drops everything (a load: the measured world is gone). The
    /// generation is *not* bumped — plans cached before the clear stay
    /// structurally valid; the next recording bumps it.
    pub fn clear(&mut self) {
        self.cards = Arc::default();
    }

    /// Exports the store in a deterministic order.
    pub fn export_state(&self) -> FeedbackState {
        let mut entries: Vec<(u64, f64)> = self.cards.iter().map(|(k, rows)| (*k, *rows)).collect();
        entries.sort_by_key(|e| e.0);
        FeedbackState { generation: self.generation, entries }
    }

    /// Rebuilds a store from an exported state. Canonical keys hash symbol
    /// ids, which are only meaningful against the dictionary they were
    /// computed under, so the importer must have restored that dictionary
    /// first (the snapshot layer restores symbols by interning names in
    /// their original order).
    pub fn import_state(state: FeedbackState) -> FeedbackStore {
        FeedbackStore {
            cards: Arc::new(state.entries.into_iter().collect()),
            generation: state.generation,
        }
    }
}

/// The serializable projection of a [`FeedbackStore`], used by the
/// durability layer to carry observed cardinalities across a restart.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeedbackState {
    /// Store generation at export time.
    pub generation: u64,
    /// `(canon_key, rows)` of every observation, sorted by key so the
    /// export of a given store is byte-stable.
    pub entries: Vec<(u64, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::Database;

    /// `E+` fixpoint over fresh symbols.
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
    fn confirmation_changes_nothing() {
        let mut db = Database::new();
        let plan = tc_fix(&mut db);
        let mut fb = FeedbackStore::new();
        fb.record_plan(&plan, &|_| Some(100.0));
        let (map, state) = (fb.observations(), fb.export_state());
        for rows in [110.0, 80.0, 125.0, 100.0] {
            assert_eq!(fb.record_plan(&plan, &|_| Some(rows)), 1);
            assert!(Arc::ptr_eq(&map, &fb.observations()), "{rows} rows: same map");
            assert_eq!(fb.export_state(), state, "{rows} rows: same state");
        }
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
        // A material move is a new map; whoever planned from the old one
        // still holds the old rows.
        fb.record_plan(&plan, &|_| Some(300.0));
        assert_eq!((first.get(&key), fb.observations().get(&key)), (Some(&100.0), Some(&300.0)));
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
        fb.record_plan(&plan, &|_| Some(110.0));
        assert_eq!(fb.generation(), g1, "within tolerance");
        fb.record_plan(&plan, &|_| Some(300.0));
        assert!(fb.generation() > g1, "a material move");
    }

    #[test]
    fn export_import_round_trips_and_is_deterministic() {
        let mut db = Database::new();
        let plan = tc_fix(&mut db);
        let mut fb = FeedbackStore::new();
        fb.record_plan(&plan, &|_| Some(100.0));
        let state = fb.export_state();
        assert_eq!(state, fb.export_state(), "export must be byte-stable");
        assert_eq!(state.entries, [(canon_key(&plan, &[]), 100.0)]);
        let back = FeedbackStore::import_state(state.clone());
        assert_eq!(back.export_state(), state);
        assert_eq!(back.observations(), fb.observations());
    }

    #[test]
    fn clear_keeps_generation() {
        let mut db = Database::new();
        let plan = tc_fix(&mut db);
        let mut fb = FeedbackStore::new();
        fb.record_plan(&plan, &|_| Some(100.0));
        let g = fb.generation();
        fb.clear();
        assert!(fb.is_empty() && fb.observations().is_empty());
        assert_eq!(fb.generation(), g);
    }
}
