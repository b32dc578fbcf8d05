//! The LRU both caches are: the plan cache (query text → plan) and the
//! result cache, which files an answer under
//! `(`[`mura_core::term_key`]` of the optimized plan, epoch)` — two texts
//! that rewrite to the same plan share one entry, and because a finished
//! plan is numbered canonically, so do two plannings of one text.

use mura_core::fxhash::FxHashMap;
use std::borrow::Borrow;
use std::hash::Hash;

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

    /// Looks up `key` — in any borrowed form of `K`, so a `String`-keyed
    /// cache is asked with the `&str` the caller has — marking it
    /// most-recently used on a hit.
    pub fn get<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
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

    /// Every value, in arbitrary order, recency untouched.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|(v, _)| v)
    }

    /// A point-in-time snapshot of every entry (arbitrary order, recency
    /// untouched), for exports that sort and encode outside the cache lock.
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
    fn a_string_key_is_looked_up_by_str() {
        let mut c: LruCache<String, u32> = LruCache::new(2);
        c.insert("a".to_string(), 1);
        c.insert("b".to_string(), 2);
        assert_eq!(c.get("a"), Some(1), "no String is built to ask");
        c.insert("c".to_string(), 3);
        assert_eq!((c.get("b"), c.get("a")), (None, Some(1)), "and the lookup counts as a use");
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = LruCache::new(0);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), None);
        assert!(c.is_empty());
    }
}
