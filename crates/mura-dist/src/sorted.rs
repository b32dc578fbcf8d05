//! A sorted local relational engine.
//!
//! Stands in for the per-worker PostgreSQL instances of the paper's
//! `P_plw^pg` plan (Fig. 7 compares it against the hash-based SetRDD
//! implementation). Both engines run the same prepared branches — the
//! hash-indexed chains of [`crate::localfix`] — and differ in the
//! accumulator those chains feed: here a relation is one flat [`Rows`]
//! buffer — the container the hash engine stores its rows in — kept sorted
//! and duplicate-free instead of indexed by a table. Building one sorts and
//! deduplicates; the difference and union that accumulate a superstep are
//! linear merges. Sorting orders a permutation of row ids and gathers the
//! rows once.

use mura_core::{Relation, Rows, Schema, Value};
use std::cmp::Ordering;

/// A relation stored as sorted rows (no duplicates) in one buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedRelation {
    schema: Schema,
    rows: Rows,
}

/// The rows of `bag` in order, each once.
fn sort_dedup(bag: &Rows) -> Rows {
    let ids = bag.sorted_ids();
    let mut out = Rows::with_capacity(bag.arity(), ids.len());
    let mut last: Option<&[Value]> = None;
    for &id in &ids {
        let row = bag.get(id as usize);
        if last != Some(row) {
            out.push(row);
            last = Some(row);
        }
    }
    out
}

/// Walks two sorted, duplicate-free buffers in step: `visit` sees every
/// row of either once, in order, with `Less` for a row only `a` has,
/// `Greater` for one only `b` has and `Equal` for one they share.
fn merge_walk<'a>(a: &'a Rows, b: &'a Rows, mut visit: impl FnMut(Ordering, &'a [Value])) {
    let (mut left, mut right) = (a.iter().peekable(), b.iter().peekable());
    loop {
        let side = match (left.peek(), right.peek()) {
            (Some(l), Some(r)) => l.cmp(r),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return,
        };
        let row = if side == Ordering::Greater { right.next() } else { left.next() };
        if side == Ordering::Equal {
            right.next();
        }
        visit(side, row.expect("peeked"));
    }
}

impl SortedRelation {
    /// Converts from a hash relation (sorts once).
    pub fn from_relation(rel: &Relation) -> Self {
        SortedRelation { schema: rel.schema().clone(), rows: sort_dedup(rel.rows()) }
    }

    /// Converts back to a hash relation (one copy of the buffer; the rows
    /// are distinct already, so none is looked up).
    pub fn to_relation(&self) -> Relation {
        Relation::from_distinct(self.schema.clone(), self.rows.clone())
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates rows in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> {
        self.rows.iter()
    }

    /// Builds from a bag of rows (sorts and deduplicates once).
    pub fn from_rows(schema: Schema, rows: Rows) -> Self {
        assert_eq!(rows.arity(), schema.arity(), "row arity != schema arity");
        SortedRelation { schema, rows: sort_dedup(&rows) }
    }

    /// Merge union (schemas must match).
    pub fn union(&self, other: &SortedRelation) -> SortedRelation {
        assert_eq!(self.schema, other.schema);
        if other.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        let mut rows = Rows::with_capacity(self.rows.arity(), self.len() + other.len());
        merge_walk(&self.rows, &other.rows, |_, row| rows.push(row));
        SortedRelation { schema: self.schema.clone(), rows }
    }

    /// Merge difference `self \ other`.
    pub fn minus(&self, other: &SortedRelation) -> SortedRelation {
        assert_eq!(self.schema, other.schema);
        if other.is_empty() || self.is_empty() {
            return self.clone();
        }
        let mut rows = Rows::new(self.rows.arity());
        merge_walk(&self.rows, &other.rows, |side, row| {
            if side == Ordering::Less {
                rows.push(row);
            }
        });
        SortedRelation { schema: self.schema.clone(), rows }
    }

    /// In-place accumulate: merges in the rows of `produced` that are
    /// absent and returns exactly those — the next semi-naive delta. One
    /// sort of `produced`, then two merges of flat buffers.
    pub fn absorb_new(&mut self, produced: Rows) -> SortedRelation {
        let new = SortedRelation::from_rows(self.schema.clone(), produced).minus(self);
        if !new.is_empty() {
            *self = self.union(&new);
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::Database;

    fn pair_rel(db: &mut Database, pairs: &[(u64, u64)]) -> Relation {
        let src = db.intern("src");
        let dst = db.intern("dst");
        Relation::from_pairs(src, dst, pairs.iter().copied())
    }

    /// Every sorted-engine op must agree with the hash engine.
    #[test]
    fn agrees_with_hash_engine() {
        let mut db = Database::new();
        let r1 = pair_rel(&mut db, &[(1, 2), (2, 3), (3, 4), (2, 5)]);
        let r2 = pair_rel(&mut db, &[(2, 3), (5, 6)]);
        let s1 = SortedRelation::from_relation(&r1);
        let s2 = SortedRelation::from_relation(&r2);

        assert_eq!(s1.union(&s2).to_relation().sorted_rows(), r1.union(&r2).sorted_rows());
        assert_eq!(s1.minus(&s2).to_relation().sorted_rows(), r1.minus(&r2).sorted_rows());
        let (mut acc_sorted, mut acc_hash) = (s1.clone(), r1.clone());
        let delta_sorted = acc_sorted.absorb_new(r2.rows().clone());
        let delta_hash = acc_hash.absorb_new(r2.rows());
        assert_eq!(delta_sorted.to_relation().sorted_rows(), delta_hash.sorted_rows());
        assert_eq!(acc_sorted, SortedRelation::from_relation(&acc_hash));
    }

    #[test]
    fn round_trip_and_dedup() {
        let mut db = Database::new();
        let r = pair_rel(&mut db, &[(1, 2), (1, 2), (3, 4)]);
        let s = SortedRelation::from_relation(&r);
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_relation().sorted_rows(), r.sorted_rows());
    }
}
