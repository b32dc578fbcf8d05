//! A sort-based local relational engine.
//!
//! Stands in for the per-worker PostgreSQL instances of the paper's
//! `P_plw^pg` plan (Fig. 7 compares it against the hash-based SetRDD
//! implementation): a relation is one flat [`Rows`] buffer — the container
//! the hash engine stores its rows in — kept sorted and duplicate-free
//! instead of indexed by a table; joins are sort-merge joins; unions and
//! differences are linear merges. Sorting orders a permutation of row ids
//! and gathers the rows once; keys are compared where they are, by
//! position, never copied out.

use mura_core::relation::join_plan;
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

/// Orders `a`'s values at `a_pos` against `b`'s at `b_pos`, position by
/// position.
fn cmp_keys(a: &[Value], a_pos: &[usize], b: &[Value], b_pos: &[usize]) -> Ordering {
    a_pos.iter().map(|&p| a[p]).cmp(b_pos.iter().map(|&p| b[p]))
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
    /// Empty relation.
    pub fn new(schema: Schema) -> Self {
        let rows = Rows::new(schema.arity());
        SortedRelation { schema, rows }
    }

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

    /// Rows satisfying `pred`.
    pub fn filter(&self, pred: impl Fn(&[Value]) -> bool) -> SortedRelation {
        SortedRelation { schema: self.schema.clone(), rows: self.rows.filter(pred) }
    }

    /// Sort-merge natural join on the common columns.
    pub fn join(&self, other: &SortedRelation) -> SortedRelation {
        let plan = join_plan(&self.schema, &other.schema);
        if self.is_empty() || other.is_empty() {
            return SortedRelation::new(plan.out_schema);
        }
        let (lk, rk) = (&plan.left_key[..], &plan.right_key[..]);
        // Both sides in join-key order, as permutations of their row ids.
        let left = self.rows.sorted_ids_by(|a, b| cmp_keys(a, lk, b, lk));
        let right = other.rows.sorted_ids_by(|a, b| cmp_keys(a, rk, b, rk));
        let lrow = |i: usize| self.rows.get(left[i] as usize);
        let rrow = |j: usize| other.rows.get(right[j] as usize);
        let mut out = Rows::new(plan.out_src.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < left.len() && j < right.len() {
            match cmp_keys(lrow(i), lk, rrow(j), rk) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    // Emit the cross product of the equal-key groups.
                    let same_left = |k: &usize| cmp_keys(lrow(*k), lk, lrow(i), lk).is_eq();
                    let same_right = |k: &usize| cmp_keys(rrow(*k), rk, rrow(j), rk).is_eq();
                    let i_end = i + (i..left.len()).take_while(same_left).count();
                    let j_end = j + (j..right.len()).take_while(same_right).count();
                    for l in (i..i_end).map(lrow) {
                        for r in (j..j_end).map(rrow) {
                            plan.push_joined(&mut out, l, r);
                        }
                    }
                    i = i_end;
                    j = j_end;
                }
            }
        }
        SortedRelation::from_rows(plan.out_schema, out)
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

    /// Antijoin on common columns (sorted key lookup).
    pub fn antijoin(&self, other: &SortedRelation) -> SortedRelation {
        let common = self.schema.intersection(&other.schema);
        if common.is_empty() {
            return if other.is_empty() {
                self.clone()
            } else {
                SortedRelation::new(self.schema.clone())
            };
        }
        let my_pos: Vec<usize> = common.iter().map(|&c| self.schema.position(c).unwrap()).collect();
        let their_pos: Vec<usize> =
            common.iter().map(|&c| other.schema.position(c).unwrap()).collect();
        // The other side in key order; its keys are searched where they are.
        let theirs = other.rows.sorted_ids_by(|a, b| cmp_keys(a, &their_pos, b, &their_pos));
        self.filter(|r| {
            theirs
                .binary_search_by(|&id| {
                    cmp_keys(other.rows.get(id as usize), &their_pos, r, &my_pos)
                })
                .is_err()
        })
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
        let src = db.intern("src");
        let dst = db.intern("dst");
        let m = db.intern("m");
        let r1 = pair_rel(&mut db, &[(1, 2), (2, 3), (3, 4), (2, 5)]);
        let r2 = pair_rel(&mut db, &[(2, 3), (5, 6)]);
        let s1 = SortedRelation::from_relation(&r1);
        let s2 = SortedRelation::from_relation(&r2);

        assert_eq!(s1.union(&s2).to_relation().sorted_rows(), r1.union(&r2).sorted_rows());
        assert_eq!(s1.minus(&s2).to_relation().sorted_rows(), r1.minus(&r2).sorted_rows());
        let j_sorted = SortedRelation::from_relation(&r1.rename(dst, m))
            .join(&SortedRelation::from_relation(&r2.rename(src, m)));
        let j_hash = r1.rename(dst, m).join(&r2.rename(src, m));
        assert_eq!(j_sorted.to_relation().sorted_rows(), j_hash.sorted_rows());
        assert_eq!(s1.antijoin(&s2).to_relation().sorted_rows(), r1.antijoin(&r2).sorted_rows());
        let (mut acc_sorted, mut acc_hash) = (s1.clone(), r1.clone());
        let delta_sorted = acc_sorted.absorb_new(r2.rows().clone());
        let delta_hash = acc_hash.absorb_new(r2.rows());
        assert_eq!(delta_sorted.to_relation().sorted_rows(), delta_hash.sorted_rows());
        assert_eq!(acc_sorted, SortedRelation::from_relation(&acc_hash));
    }

    #[test]
    fn join_emits_full_group_product() {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let m = db.intern("m");
        // Two rows ending at 2, two rows starting at 2 → 4 combinations.
        let left = pair_rel(&mut db, &[(1, 2), (9, 2)]);
        let right = pair_rel(&mut db, &[(2, 3), (2, 4)]);
        let j = SortedRelation::from_relation(&left.rename(dst, m))
            .join(&SortedRelation::from_relation(&right.rename(src, m)));
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn round_trip_and_dedup() {
        let mut db = Database::new();
        let r = pair_rel(&mut db, &[(1, 2), (1, 2), (3, 4)]);
        let s = SortedRelation::from_relation(&r);
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_relation().sorted_rows(), r.sorted_rows());
    }

    #[test]
    fn filter_by_position() {
        let mut db = Database::new();
        let src = db.intern("src");
        let r = pair_rel(&mut db, &[(1, 2), (2, 3)]);
        let s = SortedRelation::from_relation(&r);
        let pos = r.schema().position(src).unwrap();
        let f = s.filter(|row| row[pos] == Value::node(1));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn disjoint_antijoin_cases() {
        let mut db = Database::new();
        let a = db.intern("a");
        let r = pair_rel(&mut db, &[(1, 2)]);
        let empty_other = SortedRelation::new(Schema::new(vec![a]));
        let s = SortedRelation::from_relation(&r);
        assert_eq!(s.antijoin(&empty_other).len(), 1);
        let nonempty = SortedRelation::from_relation(&Relation::from_rows(
            Schema::new(vec![a]),
            [[Value::node(9)]],
        ));
        assert_eq!(s.antijoin(&nonempty).len(), 0);
    }
}
