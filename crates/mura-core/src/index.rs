//! Cached build-side indexes for loop-invariant joins.
//!
//! Inside a semi-naive fixpoint the recursive step typically joins the small
//! per-iteration *delta* against a large loop-invariant constant (the edge
//! relation, a filtered subgraph, …). Rebuilding the build-side hash table on
//! every iteration — as a plain hash join does — makes the loop quadratic in
//! practice. A [`JoinIndex`] is constructed **once per fixpoint** over the
//! constant side and probed with each iteration's delta; [`KeyIndex`] is the
//! analogous cached key-set for antijoins.
//!
//! An index is a second view of storage that already exists: it keeps the
//! build relation by `Arc` (no row is copied into it) and chains its rows by
//! key hash through two `u32` arrays (`Buckets`) — no allocation per key.
//! Probing is allocation-free too: the chains are entered by a 64-bit hash
//! computed directly over the join-key values (no boxed key tuples), with
//! entries verified by positional equality. Neither index builds output
//! rows: a probe hands back the matching build rows (or a yes/no), and the
//! caller — the fused recursive step in `mura-dist` — projects straight
//! into whatever it materialises next.

use crate::fxhash::FxHasher;
use crate::kernel::kernel_stats;
use crate::relation::{join_plan, Relation, Rows};
use crate::schema::Schema;
use crate::value::Value;
use std::hash::{Hash, Hasher};

/// Hashes a sequence of values to a single `u64`. Both sides of a join must
/// feed their key values in the same column order so equal keys collide.
#[inline]
pub fn hash_values(values: impl IntoIterator<Item = Value>) -> u64 {
    let mut h = FxHasher::default();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

/// Hashes the values of `row` at `positions` (in order); see [`hash_values`].
#[inline]
pub fn hash_key(row: &[Value], positions: &[usize]) -> u64 {
    hash_values(positions.iter().map(|&p| row[p]))
}

/// The rows of a [`Rows`] buffer chained by the hash of their key: `heads`
/// is a power-of-two array entered by the top bits of a [`hash_key`] (an Fx
/// hash ends in a multiply, so its top bits are the mixed ones — and they
/// are not the bits a hash placement took its worker from), `next` links
/// the rows of a chain. Both hold `id + 1`, `0` ending a chain. A chain
/// mixes every key that shares its head: whoever walks it verifies.
#[derive(Debug, Clone)]
pub(crate) struct Buckets {
    heads: Vec<u32>,
    next: Vec<u32>,
    shift: u32,
}

impl Buckets {
    fn empty_for(rows: &Rows) -> Buckets {
        let bits = crate::relation::slot_bits(rows.len());
        Buckets { heads: vec![0; 1 << bits], next: vec![0; rows.len()], shift: 64 - bits }
    }

    #[inline]
    fn link(&mut self, hash: u64, id: usize) {
        let head = &mut self.heads[(hash >> self.shift) as usize];
        self.next[id] = *head;
        *head = id as u32 + 1;
    }

    /// Chains every row of `rows` under the hash of its `key` positions.
    pub(crate) fn of_rows(rows: &Rows, key: &[usize]) -> Buckets {
        let mut buckets = Buckets::empty_for(rows);
        for (id, row) in rows.iter().enumerate() {
            buckets.link(hash_key(row, key), id);
        }
        buckets
    }

    /// Chains one row per distinct `key` of `rows` (the first that carries
    /// it) and returns the chains with the number of distinct keys.
    pub(crate) fn of_distinct_keys(rows: &Rows, key: &[usize]) -> (Buckets, u64) {
        let mut buckets = Buckets::empty_for(rows);
        let mut distinct = 0;
        for (id, row) in rows.iter().enumerate() {
            let hash = hash_key(row, key);
            let seen =
                buckets.chain(hash).any(|other| key.iter().all(|&p| rows.get(other)[p] == row[p]));
            if !seen {
                buckets.link(hash, id);
                distinct += 1;
            }
        }
        (buckets, distinct)
    }

    /// Ids of the rows chained under `hash`'s head — candidates only.
    #[inline]
    pub(crate) fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.heads[(hash >> self.shift) as usize];
        std::iter::from_fn(move || {
            let id = at.checked_sub(1)? as usize;
            at = self.next[id];
            Some(id)
        })
    }
}

/// A build-side hash index for a natural join with a fixed probe schema.
///
/// Built once from the loop-invariant side; probed with delta rows each
/// iteration. The build relation is shared, not copied; its rows are
/// chained by [`hash_key`] over the build-side key positions.
#[derive(Debug, Clone)]
pub struct JoinIndex {
    out_schema: Schema,
    /// For each output position: (take from probe row?, source position).
    out_src: Vec<(bool, usize)>,
    probe_key: Vec<usize>,
    build_key: Vec<usize>,
    build: Relation,
    buckets: Buckets,
}

impl JoinIndex {
    /// Builds the index over a materialized relation, for probes with
    /// `probe_schema`.
    pub fn build(probe_schema: &Schema, build: &Relation) -> JoinIndex {
        // join_plan(left=probe, right=build): left_key/out_src booleans then
        // refer to the probe side directly.
        let plan = join_plan(probe_schema, build.schema());
        let buckets = Buckets::of_rows(build.rows(), &plan.right_key);
        kernel_stats().index_builds.inc();
        JoinIndex {
            out_schema: plan.out_schema,
            out_src: plan.out_src,
            probe_key: plan.left_key,
            build_key: plan.right_key,
            build: build.clone(),
            buckets,
        }
    }

    /// Schema of the join output.
    pub fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// Number of build-side rows.
    pub fn build_len(&self) -> usize {
        self.build.len()
    }

    /// Estimated footprint of the cached build side (payload values only),
    /// charged against byte budgets by the fixpoint drivers.
    pub fn approx_bytes(&self) -> u64 {
        crate::mem::rel_bytes(self.build.len() as u64, self.build.schema().arity())
    }

    /// Positions of the join key in the probe schema (join-key order).
    pub fn probe_key(&self) -> &[usize] {
        &self.probe_key
    }

    /// Positions of the join key in a build row (join-key order).
    pub fn build_key(&self) -> &[usize] {
        &self.build_key
    }

    /// For each output position: `(true, p)` takes position `p` of the
    /// probe row, `(false, p)` position `p` of the matched build row.
    pub fn out_src(&self) -> &[(bool, usize)] {
        &self.out_src
    }

    /// The build rows chained where `hash` (a [`hash_values`] of the
    /// probe's key values in join-key order) enters. Candidates only: the
    /// caller verifies equality on [`JoinIndex::build_key`].
    #[inline]
    pub fn bucket(&self, hash: u64) -> impl Iterator<Item = &[Value]> {
        let rows = self.build.rows();
        self.buckets.chain(hash).map(move |id| rows.get(id))
    }
}

/// A cached antijoin key-set: the distinct join keys of the loop-invariant
/// side, hashed by position. `φ ▷ ψ` keeps the probe rows whose key is
/// *absent* from the set.
#[derive(Debug, Clone)]
pub struct KeyIndex {
    probe_key: Vec<usize>,
    build_key: Vec<usize>,
    build: Relation,
    /// One build row per distinct key, so that a walk reads each key once.
    buckets: Buckets,
    distinct_keys: u64,
}

impl KeyIndex {
    /// Builds the key-set over a materialized relation, for probes with
    /// `probe_schema`. With no common column the antijoin degenerates to
    /// all-or-nothing: the one (empty) key is present iff `build` has a row.
    pub fn build(probe_schema: &Schema, build: &Relation) -> KeyIndex {
        let common = probe_schema.intersection(build.schema());
        let probe_key: Vec<usize> =
            common.iter().map(|&c| probe_schema.position(c).unwrap()).collect();
        let build_key: Vec<usize> =
            common.iter().map(|&c| build.schema().position(c).unwrap()).collect();
        let (buckets, distinct_keys) = Buckets::of_distinct_keys(build.rows(), &build_key);
        kernel_stats().key_index_builds.inc();
        KeyIndex { probe_key, build_key, build: build.clone(), buckets, distinct_keys }
    }

    /// Estimated footprint of the cached key-set (payload values only).
    pub fn approx_bytes(&self) -> u64 {
        crate::mem::rel_bytes(self.distinct_keys, self.build_key.len())
    }

    /// Positions of the antijoin key in the probe schema (join-key order).
    pub fn probe_key(&self) -> &[usize] {
        &self.probe_key
    }

    /// True if the key whose `i`-th value (join-key order) is `key(i)`
    /// appears in the build side, i.e. the antijoin drops the probing row.
    /// With disjoint schemas this is "is the build side non-empty",
    /// matching standard antijoin semantics.
    #[inline]
    pub fn contains_key(&self, key: impl Fn(usize) -> Value) -> bool {
        let hash = hash_values((0..self.probe_key.len()).map(&key));
        let rows = self.build.rows();
        self.buckets
            .chain(hash)
            .any(|id| self.build_key.iter().enumerate().all(|(i, &p)| rows.get(id)[p] == key(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Row;
    use crate::value::Sym;

    fn sym(i: u32) -> Sym {
        Sym(i)
    }

    /// Probes one row laid out in the probe schema the way the fused step
    /// does: hash the key, verify candidates, project through `out_src`.
    fn probe_row(idx: &JoinIndex, prow: &[Value], mut emit: impl FnMut(Row)) -> u64 {
        let mut emitted = 0;
        for brow in idx.bucket(hash_key(prow, idx.probe_key())) {
            if idx.probe_key().iter().zip(idx.build_key()).all(|(&pp, &bp)| prow[pp] == brow[bp]) {
                emit(
                    idx.out_src()
                        .iter()
                        .map(|&(from_probe, p)| if from_probe { prow[p] } else { brow[p] })
                        .collect(),
                );
                emitted += 1;
            }
        }
        emitted
    }

    fn contains(idx: &KeyIndex, prow: &[Value]) -> bool {
        idx.contains_key(|i| prow[idx.probe_key()[i]])
    }

    fn rel(cols: &[u32], rows: &[&[i64]]) -> Relation {
        let schema = Schema::new(cols.iter().map(|&c| sym(c)).collect());
        let perm: Vec<usize> = schema
            .columns()
            .iter()
            .map(|c| cols.iter().position(|&x| sym(x) == *c).unwrap())
            .collect();
        Relation::from_rows(
            schema,
            rows.iter().map(|r| perm.iter().map(|&p| Value::int(r[p])).collect::<Row>()),
        )
    }

    #[test]
    fn indexed_join_matches_plain_join() {
        let probe = rel(&[1, 2], &[&[1, 10], &[2, 20], &[3, 10]]);
        let build = rel(&[2, 3], &[&[10, 100], &[10, 101], &[30, 300]]);
        let idx = JoinIndex::build(probe.schema(), &build);
        let mut out = Relation::new(idx.out_schema().clone());
        for prow in probe.iter() {
            probe_row(&idx, prow, |row| {
                out.insert(row);
            });
        }
        assert_eq!(out.sorted_rows(), probe.join(&build).sorted_rows());
    }

    #[test]
    fn indexed_join_handles_cartesian_product() {
        let probe = rel(&[1], &[&[1], &[2]]);
        let build = rel(&[2], &[&[10], &[20]]);
        let idx = JoinIndex::build(probe.schema(), &build);
        let mut n = 0;
        for prow in probe.iter() {
            n += probe_row(&idx, prow, |_| {});
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn indexed_join_empty_build() {
        let probe = rel(&[1], &[&[1]]);
        let build = rel(&[1], &[]);
        let idx = JoinIndex::build(probe.schema(), &build);
        assert_eq!(idx.build_len(), 0);
        assert_eq!(probe_row(&idx, &[Value::int(1)], |_| panic!("no match expected")), 0);
    }

    #[test]
    fn key_index_matches_antijoin() {
        let probe = rel(&[1, 2], &[&[1, 10], &[2, 20]]);
        let build = rel(&[2], &[&[10]]);
        let idx = KeyIndex::build(probe.schema(), &build);
        let kept = probe.iter().filter(|r| !contains(&idx, r));
        assert_eq!(Relation::from_rows(probe.schema().clone(), kept), probe.antijoin(&build));
    }

    #[test]
    fn key_index_disjoint_schemas() {
        let probe = rel(&[1], &[&[1]]);
        let empty = rel(&[9], &[]);
        let nonempty = rel(&[9], &[&[5]]);
        assert!(!contains(&KeyIndex::build(probe.schema(), &empty), &[Value::int(1)]));
        assert!(contains(&KeyIndex::build(probe.schema(), &nonempty), &[Value::int(1)]));
    }

    #[test]
    fn probe_verifies_on_hash_collision_shape() {
        // Same bucket only matters when keys actually match; rows with
        // different keys must never be emitted even if hashed together.
        let probe = rel(&[1, 2], &[&[7, 1]]);
        let build = rel(&[2, 3], &[&[2, 9]]);
        let idx = JoinIndex::build(probe.schema(), &build);
        let mut n = 0;
        for prow in probe.iter() {
            n += probe_row(&idx, prow, |_| {});
        }
        assert_eq!(n, 0);
    }

    #[test]
    fn build_counts_once() {
        let s = crate::kernel::kernel_stats();
        let before = s.snapshot();
        let probe = rel(&[1, 2], &[&[1, 10]]);
        let build = rel(&[2, 3], &[&[10, 100]]);
        let _ = JoinIndex::build(probe.schema(), &build);
        let _ = KeyIndex::build(probe.schema(), &build);
        let d = s.snapshot().since(&before);
        assert!(d.index_builds >= 1);
        assert!(d.key_index_builds >= 1);
    }
}
