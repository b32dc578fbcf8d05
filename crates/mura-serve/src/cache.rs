//! Result and plan caching.
//!
//! The result cache is keyed by the **canonical key of the optimized
//! logical plan** plus the **database epoch** (see [`crate::Server`]): two
//! textually different queries that rewrite to the same plan share one
//! cache entry, and every database mutation bumps the epoch so stale
//! results are never served. `Term` deliberately does not implement `Hash`
//! (constant relations embed `Arc<Relation>`), so the key is computed by a
//! structural walk that hashes constant relations through their sorted
//! rows — order-insensitive, like relation equality.

use mura_core::fxhash::FxHashMap;
use mura_core::Term;
use std::hash::Hash;

/// Canonical 64-bit key of an optimized plan.
///
/// Structural over the whole term; constant relations contribute their
/// schema and sorted rows, so plans differing only in constant contents get
/// different keys while row insertion order is irrelevant. This is
/// [`mura_core::term_key`]: the incremental view maintenance layer uses the
/// same key to match captured fixpoint totals to `Fix` subterms, so the
/// serving cache and the maintenance machinery can never disagree about
/// plan identity.
pub fn plan_key(plan: &Term) -> u64 {
    mura_core::term_key(plan)
}

/// A small LRU cache.
///
/// Recency is tracked with a monotonically increasing tick per access;
/// eviction scans for the minimum tick. That is O(capacity) per eviction,
/// which is fine at serving-cache sizes (hundreds of entries) and keeps the
/// structure a single flat map. Capacity 0 disables the cache entirely.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    map: FxHashMap<K, (V, u64)>,
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    /// A cache holding up to `capacity` entries (0 disables it).
    pub fn new(capacity: usize) -> Self {
        LruCache { capacity, tick: 0, map: FxHashMap::default(), evictions: 0 }
    }

    /// Looks up `key`, marking it most-recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(v, last)| {
            *last = tick;
            v.clone()
        })
    }

    /// Inserts `key -> value`, evicting the least-recently-used entry when
    /// at capacity. A no-op when the cache is disabled.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(victim) =
                self.map.iter().min_by_key(|(_, (_, last))| *last).map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.map.insert(key, (value, self.tick));
    }

    /// Removes `key`, returning its value. Not counted as an eviction —
    /// evictions measure capacity pressure, not explicit invalidation.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|(v, _)| v)
    }

    /// Drops every entry. Like [`LruCache::remove`], not counted as
    /// evictions.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// A point-in-time snapshot of every entry (arbitrary order, recency
    /// untouched). The maintenance path iterates this outside the cache
    /// lock so queries keep hitting while views are brought up to date.
    pub fn entries(&self) -> Vec<(K, V)> {
        self.map.iter().map(|(k, (v, _))| (k.clone(), v.clone())).collect()
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total evictions since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::{Relation, Sym, Term};

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(1)); // touch a: b is now LRU
        c.insert("c", 3);
        assert_eq!(c.get(&"b"), None, "b was least recently used");
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"c"), Some(3));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn reinsert_updates_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(&"a"), Some(10));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = LruCache::new(0);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), None);
        assert!(c.is_empty());
    }

    #[test]
    fn plan_key_is_structural() {
        let e = Sym(1);
        let x = Sym(2);
        let t1 = Term::var(e).union(Term::var(x).join(Term::var(e))).fix(x);
        let t2 = Term::var(e).union(Term::var(x).join(Term::var(e))).fix(x);
        assert_eq!(plan_key(&t1), plan_key(&t2));
        let t3 = Term::var(e).union(Term::var(e).join(Term::var(x))).fix(x);
        assert_ne!(plan_key(&t1), plan_key(&t3), "join order must matter");
    }

    #[test]
    fn plan_key_sees_constant_rows_order_insensitively() {
        let (a, b) = (Sym(3), Sym(4));
        let r1 = Relation::from_pairs(a, b, [(1, 2), (3, 4)]);
        let r2 = Relation::from_pairs(a, b, [(3, 4), (1, 2)]);
        let r3 = Relation::from_pairs(a, b, [(1, 2), (3, 5)]);
        assert_eq!(plan_key(&Term::cst(r1)), plan_key(&Term::cst(r2)));
        assert_ne!(
            plan_key(&Term::cst(Relation::from_pairs(a, b, [(1, 2)]))),
            plan_key(&Term::cst(r3))
        );
    }
}
