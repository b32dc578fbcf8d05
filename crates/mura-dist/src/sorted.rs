//! A sort-based local relational engine.
//!
//! Stands in for the per-worker PostgreSQL instances of the paper's
//! `P_plw^pg` plan (Fig. 7 compares it against the hash-based SetRDD
//! implementation): relations are kept as sorted, deduplicated row vectors;
//! joins are sort-merge joins; unions and differences are linear merges.

use mura_core::relation::join_plan;
use mura_core::{Relation, Row, Schema, Sym, Value};

/// A relation stored as a sorted `Vec<Row>` (no duplicates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedRelation {
    schema: Schema,
    rows: Vec<Row>,
}

impl SortedRelation {
    /// Empty relation.
    pub fn new(schema: Schema) -> Self {
        SortedRelation { schema, rows: Vec::new() }
    }

    /// Converts from a hash relation (sorts once).
    pub fn from_relation(rel: &Relation) -> Self {
        let mut rows: Vec<Row> = rel.iter().cloned().collect();
        rows.sort_unstable();
        SortedRelation { schema: rel.schema().clone(), rows }
    }

    /// Converts back to a hash relation.
    pub fn to_relation(&self) -> Relation {
        Relation::from_rows(self.schema.clone(), self.rows.iter().cloned())
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
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter()
    }

    /// Builds from raw rows (sorts and deduplicates once).
    pub fn from_rows(schema: Schema, rows: Vec<Row>) -> Self {
        SortedRelation::from_sorted(schema, rows)
    }

    fn from_sorted(schema: Schema, mut rows: Vec<Row>) -> Self {
        rows.sort_unstable();
        rows.dedup();
        SortedRelation { schema, rows }
    }

    /// Rows satisfying `pred`.
    pub fn filter(&self, pred: impl Fn(&[Value]) -> bool) -> SortedRelation {
        SortedRelation {
            schema: self.schema.clone(),
            rows: self.rows.iter().filter(|r| pred(r)).cloned().collect(),
        }
    }

    /// ρ_from^to.
    pub fn rename(&self, from: Sym, to: Sym) -> SortedRelation {
        let new_schema = self.schema.rename(from, to).expect("invalid rename");
        let perm: Vec<usize> = new_schema
            .columns()
            .iter()
            .map(|&c| {
                let oc = if c == to { from } else { c };
                self.schema.position(oc).unwrap()
            })
            .collect();
        let rows: Vec<Row> =
            self.rows.iter().map(|r| perm.iter().map(|&p| r[p]).collect::<Row>()).collect();
        SortedRelation::from_sorted(new_schema, rows)
    }

    /// π̃ of the given columns (sort + dedup).
    pub fn antiproject(&self, drop: &[Sym]) -> SortedRelation {
        let new_schema = self.schema.antiproject(drop).expect("invalid antiprojection");
        let keep: Vec<usize> =
            new_schema.columns().iter().map(|&c| self.schema.position(c).unwrap()).collect();
        let rows: Vec<Row> =
            self.rows.iter().map(|r| keep.iter().map(|&p| r[p]).collect::<Row>()).collect();
        SortedRelation::from_sorted(new_schema, rows)
    }

    /// Sort-merge natural join on the common columns.
    pub fn join(&self, other: &SortedRelation) -> SortedRelation {
        let plan = join_plan(&self.schema, &other.schema);
        if self.is_empty() || other.is_empty() {
            return SortedRelation::new(plan.out_schema);
        }
        // Sort both sides by join key.
        let key_of = |row: &Row, pos: &[usize]| -> Row { pos.iter().map(|&p| row[p]).collect() };
        let mut left: Vec<(Row, &Row)> =
            self.rows.iter().map(|r| (key_of(r, &plan.left_key), r)).collect();
        let mut right: Vec<(Row, &Row)> =
            other.rows.iter().map(|r| (key_of(r, &plan.right_key), r)).collect();
        left.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        right.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < left.len() && j < right.len() {
            match left[i].0.cmp(&right[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    // Emit the cross product of the equal-key groups.
                    let key = left[i].0.clone();
                    let i_end = left[i..].iter().take_while(|(k, _)| *k == key).count() + i;
                    let j_end = right[j..].iter().take_while(|(k, _)| *k == key).count() + j;
                    for (_, lrow) in &left[i..i_end] {
                        for (_, rrow) in &right[j..j_end] {
                            let row: Row = plan
                                .out_src
                                .iter()
                                .map(|&(from_left, p)| if from_left { lrow[p] } else { rrow[p] })
                                .collect();
                            out.push(row);
                        }
                    }
                    i = i_end;
                    j = j_end;
                }
            }
        }
        SortedRelation::from_sorted(plan.out_schema, out)
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
        let mut out = Vec::with_capacity(self.rows.len() + other.rows.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.rows.len() && j < other.rows.len() {
            match self.rows[i].cmp(&other.rows[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.rows[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.rows[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.rows[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.rows[i..]);
        out.extend(other.rows[j..].iter().cloned());
        SortedRelation { schema: self.schema.clone(), rows: out }
    }

    /// Merge difference `self \ other`.
    pub fn minus(&self, other: &SortedRelation) -> SortedRelation {
        assert_eq!(self.schema, other.schema);
        if other.is_empty() || self.is_empty() {
            return self.clone();
        }
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.rows.len() {
            if j >= other.rows.len() {
                out.extend(self.rows[i..].iter().cloned());
                break;
            }
            match self.rows[i].cmp(&other.rows[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.rows[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        SortedRelation { schema: self.schema.clone(), rows: out }
    }

    /// In-place accumulate: merges in the rows of `produced` that are
    /// absent and returns exactly those — the next semi-naive delta. Rows
    /// already held are found by binary search and never copied; the merge
    /// moves rows, it does not clone them.
    pub fn absorb_new(&mut self, produced: Vec<Row>) -> SortedRelation {
        let mut new = produced;
        new.sort_unstable();
        new.dedup();
        new.retain(|row| self.rows.binary_search(row).is_err());
        if !new.is_empty() {
            let mut merged = Vec::with_capacity(self.rows.len() + new.len());
            let mut added = new.iter().cloned().peekable();
            for row in std::mem::take(&mut self.rows) {
                while let Some(n) = added.next_if(|n| *n < row) {
                    merged.push(n);
                }
                merged.push(row);
            }
            merged.extend(added);
            self.rows = merged;
        }
        SortedRelation { schema: self.schema.clone(), rows: new }
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
        let mut keys: Vec<Row> =
            other.rows.iter().map(|r| their_pos.iter().map(|&p| r[p]).collect::<Row>()).collect();
        keys.sort_unstable();
        keys.dedup();
        let rows = self
            .rows
            .iter()
            .filter(|r| {
                let k: Row = my_pos.iter().map(|&p| r[p]).collect();
                keys.binary_search(&k).is_err()
            })
            .cloned()
            .collect();
        SortedRelation { schema: self.schema.clone(), rows }
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

        assert_eq!(s1.rename(src, m).to_relation().sorted_rows(), r1.rename(src, m).sorted_rows());
        assert_eq!(
            s1.antiproject(&[src]).to_relation().sorted_rows(),
            r1.antiproject(&[src]).sorted_rows()
        );
        assert_eq!(s1.union(&s2).to_relation().sorted_rows(), r1.union(&r2).sorted_rows());
        assert_eq!(s1.minus(&s2).to_relation().sorted_rows(), r1.minus(&r2).sorted_rows());
        let j_sorted = s1.rename(dst, m).join(&s2.rename(src, m));
        let j_hash = r1.rename(dst, m).join(&r2.rename(src, m));
        assert_eq!(j_sorted.to_relation().sorted_rows(), j_hash.sorted_rows());
        assert_eq!(s1.antijoin(&s2).to_relation().sorted_rows(), r1.antijoin(&r2).sorted_rows());
        let (mut acc_sorted, mut acc_hash) = (s1.clone(), r1.clone());
        let delta_sorted = acc_sorted.absorb_new(r2.iter().cloned().collect());
        let delta_hash = acc_hash.absorb_new(r2.iter().cloned());
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
        let nonempty = SortedRelation::from_sorted(
            Schema::new(vec![a]),
            vec![vec![Value::node(9)].into_boxed_slice()],
        );
        assert_eq!(s.antijoin(&nonempty).len(), 0);
    }
}
