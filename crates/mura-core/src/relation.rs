//! Relations: sets of tuples over a schema.
//!
//! The μ-RA data model is set-based (no duplicates). A [`Relation`] stores a
//! [`Schema`] plus a hash set of rows whose fields are aligned with the
//! schema's sorted column order. All algebra operators (filter, rename,
//! antiprojection, natural join, antijoin, union, difference) are implemented
//! here on materialized relations; the distributed layer reuses these
//! per-partition.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::index::hash_key;
use crate::schema::Schema;
use crate::value::{Sym, Value};
use std::fmt;
use std::sync::Arc;

/// A tuple. Fields are ordered by the owning relation's schema.
pub type Row = Box<[Value]>;

/// A set of rows with a fixed schema.
///
/// Row storage is `Arc`-shared copy-on-write: cloning a relation, an
/// identity rename, or a union with an empty side are O(1) pointer copies.
/// Mutation goes through [`Arc::make_mut`], so the set is deep-copied only
/// when actually shared — the fixpoint kernels rely on this to keep
/// loop-invariant relations zero-copy across iterations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Relation {
    schema: Schema,
    rows: Arc<FxHashSet<Row>>,
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        Relation { schema, rows: Arc::new(FxHashSet::default()) }
    }

    /// Builds a relation from rows, deduplicating.
    ///
    /// # Panics
    /// Panics if a row's arity differs from the schema's.
    pub fn from_rows<I>(schema: Schema, rows: I) -> Self
    where
        I: IntoIterator<Item = Row>,
    {
        let mut r = Relation::new(schema);
        r.extend(rows);
        r
    }

    /// Convenience: a binary relation over `(a, b)` from integer pairs.
    pub fn from_pairs(a: Sym, b: Sym, pairs: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let schema = Schema::new(vec![a, b]);
        // Schema sorts columns; figure out which position a and b landed in.
        let pa = schema.position(a).unwrap();
        let it = pairs.into_iter();
        let mut rel = Relation::new(schema);
        rel.reserve(it.size_hint().0);
        for (x, y) in it {
            let (vx, vy) = (Value::node(x), Value::node(y));
            let row: Row = if pa == 0 { Box::new([vx, vy]) } else { Box::new([vy, vx]) };
            rel.insert(row);
        }
        rel
    }

    /// Reserves capacity for at least `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        if additional > 0 {
            Arc::make_mut(&mut self.rows).reserve(additional);
        }
    }

    /// The relation's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the relation has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row iterator (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter()
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, row: &[Value]) -> bool {
        self.rows.contains(row)
    }

    /// Inserts a row; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if the row arity differs from the schema arity.
    pub fn insert(&mut self, row: Row) -> bool {
        assert_eq!(
            row.len(),
            self.schema.arity(),
            "row arity {} != schema arity {}",
            row.len(),
            self.schema.arity()
        );
        Arc::make_mut(&mut self.rows).insert(row)
    }

    /// Removes a row; returns `true` if it was present. Like [`insert`],
    /// mutation goes through `Arc::make_mut`, so shared row sets are
    /// deep-copied only when a removal actually happens on a shared set.
    ///
    /// [`insert`]: Relation::insert
    pub fn remove(&mut self, row: &[Value]) -> bool {
        if !self.rows.contains(row) {
            return false;
        }
        Arc::make_mut(&mut self.rows).remove(row)
    }

    /// Moves all rows of `other` into `self` (schemas must match). When one
    /// side is empty this is an O(1) pointer move; otherwise the smaller row
    /// set is drained into the larger one.
    pub fn absorb(&mut self, other: Relation) {
        assert_eq!(self.schema, other.schema, "union of incompatible schemas");
        if other.rows.is_empty() {
            return;
        }
        if self.rows.is_empty() {
            self.rows = other.rows;
            return;
        }
        let mut other = other;
        if other.rows.len() > self.rows.len() {
            std::mem::swap(&mut self.rows, &mut other.rows);
        }
        let dst = Arc::make_mut(&mut self.rows);
        dst.reserve(other.rows.len());
        match Arc::try_unwrap(other.rows) {
            Ok(set) => dst.extend(set),
            Err(shared) => dst.extend(shared.iter().cloned()),
        }
    }

    /// In-place accumulate, the update of BigDatalog's SetRDD: inserts every
    /// row of `produced` that is absent and returns exactly those rows — the
    /// next semi-naive delta. Costs O(|produced|) whatever the size of
    /// `self`, as long as the row set is not shared; a set a checkpoint
    /// still references is deep-copied once, by the first row that is new.
    ///
    /// # Panics
    /// Panics if a row's arity differs from the schema's.
    pub fn absorb_new(&mut self, produced: impl IntoIterator<Item = Row>) -> Relation {
        let arity = self.schema.arity();
        let mut produced = produced.into_iter().inspect(|row| {
            assert_eq!(row.len(), arity, "row arity {} != schema arity {arity}", row.len());
        });
        let mut delta = FxHashSet::default();
        // Shared storage is left alone until a row actually is new.
        if let Some(first) = produced.by_ref().find(|row| !self.rows.contains(row)) {
            let acc = Arc::make_mut(&mut self.rows);
            acc.insert(first.clone());
            delta.insert(first);
            for row in produced {
                if !acc.contains(&row) {
                    acc.insert(row.clone());
                    delta.insert(row);
                }
            }
        }
        Relation { schema: self.schema.clone(), rows: Arc::new(delta) }
    }

    /// Consumes the relation, yielding its rows (clones only if shared).
    pub fn into_rows(self) -> FxHashSet<Row> {
        Arc::try_unwrap(self.rows).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Rows kept only when `pred` holds.
    pub fn filter(&self, pred: impl Fn(&[Value]) -> bool) -> Relation {
        Relation {
            schema: self.schema.clone(),
            rows: Arc::new(self.rows.iter().filter(|r| pred(r)).cloned().collect()),
        }
    }

    /// ρ_from^to: renames a column. The schema stays sorted, so row fields are
    /// permuted accordingly.
    ///
    /// # Panics
    /// Panics if `from` is absent or `to` already exists.
    pub fn rename(&self, from: Sym, to: Sym) -> Relation {
        let new_schema = self
            .schema
            .rename(from, to)
            .unwrap_or_else(|| panic!("invalid rename {from:?} -> {to:?} on {}", self.schema));
        // For each position in the new schema, the source position in the old.
        let perm: Vec<usize> = new_schema
            .columns()
            .iter()
            .map(|&c| {
                let oc = if c == to { from } else { c };
                self.schema.position(oc).unwrap()
            })
            .collect();
        let identity = perm.iter().enumerate().all(|(i, &p)| i == p);
        let rows = if identity {
            // Identity permutation: share the row set, O(1).
            Arc::clone(&self.rows)
        } else {
            let mut out = FxHashSet::default();
            out.reserve(self.rows.len());
            out.extend(self.rows.iter().map(|r| perm.iter().map(|&p| r[p]).collect::<Row>()));
            Arc::new(out)
        };
        Relation { schema: new_schema, rows }
    }

    /// π̃_cols: drops the given columns, deduplicating the result.
    ///
    /// # Panics
    /// Panics if a dropped column is absent.
    pub fn antiproject(&self, drop: &[Sym]) -> Relation {
        let new_schema = self
            .schema
            .antiproject(drop)
            .unwrap_or_else(|| panic!("invalid antiprojection of {drop:?} on {}", self.schema));
        if new_schema.arity() == self.schema.arity() {
            // Nothing actually dropped: share the row set, O(1).
            return Relation { schema: new_schema, rows: Arc::clone(&self.rows) };
        }
        let keep: Vec<usize> =
            new_schema.columns().iter().map(|&c| self.schema.position(c).unwrap()).collect();
        let mut rows = FxHashSet::default();
        rows.reserve(self.rows.len());
        rows.extend(self.rows.iter().map(|r| keep.iter().map(|&p| r[p]).collect::<Row>()));
        Relation { schema: new_schema, rows: Arc::new(rows) }
    }

    /// Natural join on all common columns. If there are no common columns the
    /// result is the cartesian product.
    pub fn join(&self, other: &Relation) -> Relation {
        join_plan(&self.schema, &other.schema).execute(self, other)
    }

    /// φ ▷ ψ: rows of `self` with **no** match in `other` on the common
    /// columns. With no common columns, returns `self` if `other` is empty
    /// and the empty relation otherwise (standard antijoin semantics).
    pub fn antijoin(&self, other: &Relation) -> Relation {
        let common = self.schema.intersection(&other.schema);
        if common.is_empty() {
            return if other.is_empty() {
                self.clone()
            } else {
                Relation::new(self.schema.clone())
            };
        }
        if other.is_empty() {
            return self.clone();
        }
        let my_pos: Vec<usize> = common.iter().map(|&c| self.schema.position(c).unwrap()).collect();
        let their_pos: Vec<usize> =
            common.iter().map(|&c| other.schema.position(c).unwrap()).collect();
        // Bucket the right side by key hash; probe without building key rows.
        let mut keys: FxHashMap<u64, Vec<&Row>> = FxHashMap::default();
        for r in other.rows.iter() {
            keys.entry(hash_key(r, &their_pos)).or_default().push(r);
        }
        let rows = self
            .rows
            .iter()
            .filter(|r| {
                keys.get(&hash_key(r, &my_pos)).is_none_or(|bucket| {
                    !bucket
                        .iter()
                        .any(|o| my_pos.iter().zip(&their_pos).all(|(&mp, &tp)| r[mp] == o[tp]))
                })
            })
            .cloned()
            .collect();
        Relation { schema: self.schema.clone(), rows: Arc::new(rows) }
    }

    /// Set union (schemas must match). O(1) when either side is empty.
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(self.schema, other.schema, "union of incompatible schemas");
        if other.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        let (big, small) = if self.len() >= other.len() { (self, other) } else { (other, self) };
        let mut rows = (*big.rows).clone();
        rows.reserve(small.len());
        rows.extend(small.rows.iter().cloned());
        Relation { schema: self.schema.clone(), rows: Arc::new(rows) }
    }

    /// Set difference `self \ other` (schemas must match). O(1) when `other`
    /// is empty.
    pub fn minus(&self, other: &Relation) -> Relation {
        assert_eq!(self.schema, other.schema, "difference of incompatible schemas");
        if other.is_empty() || self.is_empty() {
            return self.clone();
        }
        let rows = self.rows.iter().filter(|r| !other.rows.contains(*r)).cloned().collect();
        Relation { schema: self.schema.clone(), rows: Arc::new(rows) }
    }

    /// Sorted list of rows; useful for deterministic test assertions.
    pub fn sorted_rows(&self) -> Vec<Row> {
        let mut v: Vec<Row> = self.rows.iter().cloned().collect();
        v.sort();
        v
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Row;
    type IntoIter = std::collections::hash_set::Iter<'a, Row>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

impl Extend<Row> for Relation {
    /// Inserts every row, deduplicating; the row set is made unique and
    /// grown once for the whole batch.
    ///
    /// # Panics
    /// Panics if a row's arity differs from the schema's.
    fn extend<I: IntoIterator<Item = Row>>(&mut self, rows: I) {
        let arity = self.schema.arity();
        let mut rows = rows.into_iter().peekable();
        if rows.peek().is_none() {
            return; // leave a shared row set shared
        }
        let set = Arc::make_mut(&mut self.rows);
        set.reserve(rows.size_hint().0);
        for row in rows {
            assert_eq!(row.len(), arity, "row arity {} != schema arity {arity}", row.len());
            set.insert(row);
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} rows]", self.schema, self.len())?;
        for row in self.sorted_rows().iter().take(20) {
            write!(f, "  (")?;
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            writeln!(f, ")")?;
        }
        if self.len() > 20 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

/// Precomputed positional plan for a natural join between two schemas.
/// The distributed layer builds this once per join and reuses it per
/// partition.
#[derive(Debug, Clone)]
pub struct JoinPlan {
    /// Output schema (union of inputs).
    pub out_schema: Schema,
    /// Positions of the join key in the left input.
    pub left_key: Vec<usize>,
    /// Positions of the join key in the right input.
    pub right_key: Vec<usize>,
    /// For each output position: (from_left, source position).
    pub out_src: Vec<(bool, usize)>,
}

/// Computes the join plan between two schemas.
pub fn join_plan(left: &Schema, right: &Schema) -> JoinPlan {
    let common = left.intersection(right);
    let left_key = common.iter().map(|&c| left.position(c).unwrap()).collect();
    let right_key = common.iter().map(|&c| right.position(c).unwrap()).collect();
    let out_schema = left.union(right);
    let out_src = out_schema
        .columns()
        .iter()
        .map(|&c| match left.position(c) {
            Some(p) => (true, p),
            None => (false, right.position(c).unwrap()),
        })
        .collect();
    JoinPlan { out_schema, left_key, right_key, out_src }
}

impl JoinPlan {
    /// Hash join of two relations with this plan. Builds on the smaller
    /// side. The table is keyed by a 64-bit hash of the join-key positions
    /// (no boxed key rows on either build or probe path); bucket entries are
    /// verified by positional equality.
    pub fn execute(&self, left: &Relation, right: &Relation) -> Relation {
        let mut out = Relation::new(self.out_schema.clone());
        if left.is_empty() || right.is_empty() {
            return out;
        }
        // Build a hash table keyed by the join key on the smaller input.
        let build_left = left.len() <= right.len();
        let (build, probe) = if build_left { (left, right) } else { (right, left) };
        let (build_key, probe_key) = if build_left {
            (&self.left_key, &self.right_key)
        } else {
            (&self.right_key, &self.left_key)
        };
        let mut table: FxHashMap<u64, Vec<&Row>> = FxHashMap::default();
        table.reserve(build.len());
        for row in build.iter() {
            table.entry(hash_key(row, build_key)).or_default().push(row);
        }
        out.reserve(probe.len());
        for prow in probe.iter() {
            let Some(matches) = table.get(&hash_key(prow, probe_key)) else {
                continue;
            };
            for brow in matches {
                if !probe_key.iter().zip(build_key).all(|(&pp, &bp)| prow[pp] == brow[bp]) {
                    continue;
                }
                let (lrow, rrow): (&Row, &Row) =
                    if build_left { (brow, prow) } else { (prow, brow) };
                let out_row: Row = self
                    .out_src
                    .iter()
                    .map(|&(from_left, p)| if from_left { lrow[p] } else { rrow[p] })
                    .collect();
                out.insert(out_row);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: u32) -> Sym {
        Sym(i)
    }

    fn rel(cols: &[u32], rows: &[&[i64]]) -> Relation {
        let schema = Schema::new(cols.iter().map(|&c| sym(c)).collect());
        // Caller gives rows in the *given* column order; permute to schema order.
        let perm: Vec<usize> = schema
            .columns()
            .iter()
            .map(|c| cols.iter().position(|&x| sym(x) == *c).unwrap())
            .collect();
        Relation::from_rows(
            schema,
            rows.iter().map(|r| perm.iter().map(|&p| Value::Int(r[p])).collect::<Row>()),
        )
    }

    #[test]
    fn dedup_on_insert() {
        let r = rel(&[1, 2], &[&[1, 2], &[1, 2], &[3, 4]]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn filter_keeps_matching() {
        let r = rel(&[1], &[&[1], &[2], &[3]]);
        let f = r.filter(|row| row[0].as_int().unwrap() >= 2);
        assert_eq!(f.len(), 2);
        assert!(f.contains(&[Value::Int(2)]));
    }

    #[test]
    fn rename_permutes_fields() {
        // schema (1,2); rename 1 -> 5 gives sorted schema (2,5): fields swap.
        let r = rel(&[1, 2], &[&[10, 20]]);
        let rn = r.rename(sym(1), sym(5));
        assert_eq!(rn.schema().columns(), &[sym(2), sym(5)]);
        assert!(rn.contains(&[Value::Int(20), Value::Int(10)]));
    }

    #[test]
    fn antiproject_dedups() {
        let r = rel(&[1, 2], &[&[1, 10], &[1, 20]]);
        let p = r.antiproject(&[sym(2)]);
        assert_eq!(p.len(), 1);
        assert!(p.contains(&[Value::Int(1)]));
    }

    #[test]
    fn natural_join_basic() {
        // R(a=1,b=2), S(b=2,c=3): join on b.
        let r = rel(&[1, 2], &[&[1, 10], &[2, 20]]);
        let s = rel(&[2, 3], &[&[10, 100], &[10, 101], &[30, 300]]);
        let j = r.join(&s);
        assert_eq!(j.schema().columns(), &[sym(1), sym(2), sym(3)]);
        assert_eq!(j.len(), 2);
        assert!(j.contains(&[Value::Int(1), Value::Int(10), Value::Int(100)]));
        assert!(j.contains(&[Value::Int(1), Value::Int(10), Value::Int(101)]));
    }

    #[test]
    fn join_no_common_is_product() {
        let r = rel(&[1], &[&[1], &[2]]);
        let s = rel(&[2], &[&[10], &[20]]);
        assert_eq!(r.join(&s).len(), 4);
    }

    #[test]
    fn join_same_schema_is_intersection() {
        let r = rel(&[1], &[&[1], &[2]]);
        let s = rel(&[1], &[&[2], &[3]]);
        let j = r.join(&s);
        assert_eq!(j.len(), 1);
        assert!(j.contains(&[Value::Int(2)]));
    }

    #[test]
    fn antijoin_filters_matches() {
        let r = rel(&[1, 2], &[&[1, 10], &[2, 20]]);
        let s = rel(&[2], &[&[10]]);
        let a = r.antijoin(&s);
        assert_eq!(a.len(), 1);
        assert!(a.contains(&[Value::Int(2), Value::Int(20)]));
    }

    #[test]
    fn antijoin_disjoint_schemas() {
        let r = rel(&[1], &[&[1]]);
        let empty = rel(&[9], &[]);
        let nonempty = rel(&[9], &[&[5]]);
        assert_eq!(r.antijoin(&empty).len(), 1);
        assert_eq!(r.antijoin(&nonempty).len(), 0);
    }

    #[test]
    fn union_minus() {
        let r = rel(&[1], &[&[1], &[2]]);
        let s = rel(&[1], &[&[2], &[3]]);
        assert_eq!(r.union(&s).len(), 3);
        let d = r.minus(&s);
        assert_eq!(d.len(), 1);
        assert!(d.contains(&[Value::Int(1)]));
    }

    #[test]
    fn absorb_new_returns_exactly_the_new_rows() {
        let mut acc = rel(&[1], &[&[1], &[2]]);
        let checkpoint = acc.clone();
        let produced = rel(&[1], &[&[2], &[3], &[4]]);
        let delta = acc.absorb_new(produced.into_rows());
        assert_eq!(delta.sorted_rows(), rel(&[1], &[&[3], &[4]]).sorted_rows());
        assert_eq!(acc.len(), 4);
        // The clone taken before is a snapshot, not a view of the update.
        assert_eq!(checkpoint.len(), 2);
        // Nothing new: empty delta, accumulator untouched.
        assert!(acc.absorb_new(rel(&[1], &[&[1], &[4]]).into_rows()).is_empty());
        assert_eq!(acc.len(), 4);
    }

    #[test]
    fn from_pairs_respects_column_order() {
        // (b, a) given in that order: schema sorts to (a, b) but the pair
        // (x, y) must still mean b=x, a=y.
        let r = Relation::from_pairs(sym(2), sym(1), [(10, 20)]);
        assert_eq!(r.schema().columns(), &[sym(1), sym(2)]);
        assert!(r.contains(&[Value::Int(20), Value::Int(10)]));
    }
}
