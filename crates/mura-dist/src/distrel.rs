//! Distributed (partitioned) relations — the simulator's RDD/Dataset.
//!
//! A [`DistRel`] is a relation split into one partition per worker.
//! Operators either run partition-wise (free) or require data movement
//! (charged to [`CommStats`](crate::metrics::CommStats)):
//!
//! * `filter` / `rename` / `antiproject` — partition-wise;
//! * `repartition` — a shuffle (all rows written, like Spark's
//!   shuffle-write);
//! * `join` — broadcast join (small side replicated) or shuffle join
//!   (both sides co-partitioned on the join key);
//! * `union` / `minus` / `distinct` — partition-wise when both sides are
//!   co-partitioned on a common key (equal rows then colocate), otherwise
//!   preceded by a shuffle.
//!
//! Partitioning metadata (`partitioned_by`) is an *ordered* column list:
//! the hash is computed over key values in that order, so the metadata
//! stays valid under renames (values don't move) and is compared
//! positionally when deciding whether a shuffle can be skipped.
//!
//! Placement is **lazy**: [`DistRel::from_relation`] keeps the relation
//! whole and splits it on the first [`DistRel::parts`] call. Row-local
//! operators (`rename`, `filter_preds`) and the driver-side reads (`len`,
//! `collect`, `into_relation`) work on the whole relation, so a value that
//! is only ever renamed and then broadcast — every hoisted loop invariant —
//! is never partitioned at all. Because the lazy split hashes the
//! `partitioned_by` key in key order, every row lands where the eager split
//! would have put it, and every shuffle decision is the same.

use crate::cluster::Cluster;
use mura_core::eval::apply_filter;
use mura_core::index::hash_key;
use mura_core::relation::check_room;
use mura_core::{Pred, Relation, Result, Rows, Schema, Sym};
use std::sync::OnceLock;

/// A relation partitioned across the workers of a [`Cluster`].
#[derive(Debug, Clone)]
pub struct DistRel {
    schema: Schema,
    /// The relation as loaded, for as long as every operator applied since
    /// could work on it whole. Always hash-placed: `partitioned_by` is set.
    whole: Option<Relation>,
    /// One partition per worker; split from `whole` on first use.
    parts: OnceLock<Vec<Relation>>,
    workers: usize,
    /// Ordered hash key this relation is partitioned by, if any.
    partitioned_by: Option<Vec<Sym>>,
}

/// Positions of the ordered `key` columns in `schema`.
fn key_positions(schema: &Schema, key: &[Sym]) -> Vec<usize> {
    key.iter().map(|&c| schema.position(c).expect("partitioning key must be in schema")).collect()
}

/// Cuts `rows` into `n` buffers, row `r` going to `hash(key(r)) mod n`.
/// Every row is hashed once and copied once, into a buffer allocated at
/// its final size.
pub(crate) fn split_by_key(rows: &Rows, key_pos: &[usize], n: usize) -> Vec<Rows> {
    let targets: Vec<u32> =
        rows.iter().map(|row| ((hash_key(row, key_pos) as usize) % n) as u32).collect();
    let mut sizes = vec![0usize; n];
    targets.iter().for_each(|&t| sizes[t as usize] += 1);
    let mut out: Vec<Rows> =
        sizes.iter().map(|&size| Rows::with_capacity(rows.arity(), size)).collect();
    for (row, &t) in rows.iter().zip(&targets) {
        out[t as usize].push(row);
    }
    out
}

/// The items of a stage whose tasks read nothing: against an empty
/// broadcast side a local join or antijoin knows its answer, but it still
/// runs its stage, so that the fault sites after it stay where they were.
fn no_rows(cluster: &Cluster) -> Vec<()> {
    vec![(); cluster.workers()]
}

/// What a task over a pair of partitions reads (see
/// [`Cluster::par_map_sized`]).
fn pair_rows((x, y): &(Relation, Relation)) -> usize {
    x.len() + y.len()
}

impl DistRel {
    /// Empty distributed relation.
    pub fn empty(schema: Schema, cluster: &Cluster) -> Self {
        DistRel::from_relation(&Relation::new(schema), cluster)
    }

    /// Loads a relation into the cluster, partitioned by full-row hash.
    /// (Initial placement of base data — not charged as a shuffle, and not
    /// carried out before something asks for [`DistRel::parts`].)
    pub fn from_relation(rel: &Relation, cluster: &Cluster) -> Self {
        DistRel::placed(rel.clone(), rel.schema().columns().to_vec(), cluster.workers())
    }

    /// A whole relation hash-placed by the ordered `key` over `workers`
    /// partitions: row `r` belongs to partition `hash(key(r)) mod workers`,
    /// which is where every exchange on `key` puts it too.
    pub(crate) fn placed(rel: Relation, key: Vec<Sym>, workers: usize) -> Self {
        DistRel {
            schema: rel.schema().clone(),
            whole: Some(rel),
            parts: OnceLock::new(),
            workers,
            partitioned_by: Some(key),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows across partitions.
    pub fn len(&self) -> usize {
        match &self.whole {
            Some(rel) => rel.len(),
            None => self.parts().iter().map(|p| p.len()).sum(),
        }
    }

    /// True if all partitions are empty.
    pub fn is_empty(&self) -> bool {
        match &self.whole {
            Some(rel) => rel.is_empty(),
            None => self.parts().iter().all(|p| p.is_empty()),
        }
    }

    /// The partitions, one per worker.
    pub fn parts(&self) -> &[Relation] {
        self.parts.get_or_init(|| {
            let rel = self.whole.as_ref().expect("a DistRel is whole or split");
            let key_pos = key_positions(&self.schema, self.whole_key());
            // Pieces of a set are sets: no row is looked up.
            split_by_key(rel.rows(), &key_pos, self.workers)
                .into_iter()
                .map(|rows| Relation::from_distinct(self.schema.clone(), rows))
                .collect()
        })
    }

    /// The key a whole relation is placed by.
    fn whole_key(&self) -> &[Sym] {
        self.partitioned_by.as_deref().expect("a whole relation is hash-placed")
    }

    /// Current partitioning key (ordered), if known.
    pub fn partitioned_by(&self) -> Option<&[Sym]> {
        self.partitioned_by.as_deref()
    }

    /// Gathers all partitions into one local relation (a driver collect),
    /// copying the rows; [`DistRel::into_relation`] moves them instead.
    pub fn collect(&self) -> Relation {
        self.clone().into_relation()
    }

    /// Gathers all partitions into one local relation, consuming `self`:
    /// rows this value alone owns are moved, not copied, and a relation
    /// that was never split is handed back as it is.
    pub fn into_relation(self) -> Relation {
        if let Some(rel) = self.whole {
            return rel;
        }
        let parts = self.parts.into_inner().expect("a DistRel is whole or split");
        let mut out = Relation::new(self.schema);
        out.reserve(parts.iter().map(Relation::len).sum());
        for p in parts {
            if self.partitioned_by.is_some() {
                // Hash-placed: equal rows share a partition, so the
                // partitions are disjoint and merge without a lookup.
                out.extend_distinct(p.rows());
            } else {
                out.absorb(p);
            }
        }
        out
    }

    /// Partition-wise filter.
    pub fn filter_preds(&self, preds: &[Pred], cluster: &Cluster) -> Result<DistRel> {
        if let Some(rel) = &self.whole {
            let kept = apply_filter(rel, preds)?;
            return Ok(DistRel::placed(kept, self.whole_key().to_vec(), self.workers));
        }
        let parts = cluster
            .try_par_map_sized(self.parts(), Relation::len, |_, p| apply_filter(p, preds))?;
        Ok(DistRel::from_parts(self.schema.clone(), parts, self.partitioned_by.clone()))
    }

    /// Partition-wise rename. Keeps partitioning metadata (values do not
    /// move; the ordered key is renamed in place).
    pub fn rename(&self, from: Sym, to: Sym, cluster: &Cluster) -> Result<DistRel> {
        let renamed = |key: &[Sym]| -> Vec<Sym> {
            key.iter().map(|&c| if c == from { to } else { c }).collect()
        };
        if let Some(rel) = &self.whole {
            let key = renamed(self.whole_key());
            return Ok(DistRel::placed(rel.rename(from, to), key, self.workers));
        }
        let partitioned_by = self.partitioned_by.as_deref().map(renamed);
        let parts =
            cluster.par_map_sized(self.parts(), Relation::len, |_, p| p.rename(from, to))?;
        let schema = parts[0].schema().clone();
        Ok(DistRel::from_parts(schema, parts, partitioned_by))
    }

    /// Partition-wise antiprojection. Partitioning survives only if no key
    /// column is dropped.
    pub fn antiproject(&self, cols: &[Sym], cluster: &Cluster) -> Result<DistRel> {
        let parts =
            cluster.par_map_sized(self.parts(), Relation::len, |_, p| p.antiproject(cols))?;
        let schema = parts[0].schema().clone();
        let partitioned_by = match &self.partitioned_by {
            Some(key) if key.iter().all(|c| !cols.contains(c)) => Some(key.clone()),
            _ => None,
        };
        Ok(DistRel::from_parts(schema, parts, partitioned_by))
    }

    /// Repartitions by the given ordered key. Skipped (free) when the data
    /// is already partitioned exactly this way; otherwise one shuffle of
    /// every row is charged.
    ///
    /// This is the exchange the fault plan targets for message drops and
    /// duplications: a dropped bucket is detected and retransmitted
    /// (at-least-once delivery — counted, no data lost), a duplicated
    /// bucket is delivered twice and squeezed out by the destination's
    /// task, which builds its partition from the bag it received.
    pub fn repartition(&self, key: &[Sym], cluster: &Cluster) -> Result<DistRel> {
        if self.partitioned_by.as_deref() == Some(key) {
            return Ok(self.clone());
        }
        if cluster.workers() == 1 {
            // Nothing can move between workers; only the metadata changes.
            let mut out = self.clone();
            out.partitioned_by = Some(key.to_vec());
            return Ok(out);
        }
        let key_pos = key_positions(&self.schema, key);
        let n = cluster.workers();
        cluster.metrics().record_shuffle(self.len() as u64);
        let exchange_site = cluster.fault().next_site();
        // Each worker buckets its partition; the cluster moves the buckets
        // (driver-side in process, over real sockets with a ProcCluster).
        let bucketed: Vec<Vec<Rows>> =
            cluster.par_map_sized(self.parts(), Relation::len, |_, p| {
                split_by_key(p.rows(), &key_pos, n)
            })?;
        let parts = cluster.exchange_at(exchange_site, &self.schema, bucketed)?;
        Ok(DistRel::from_parts(self.schema.clone(), parts, Some(key.to_vec())))
    }

    /// Global distinct: partitions are sets already, so colocating equal
    /// rows (full-row repartition) suffices. Free when already partitioned
    /// by any key (equal rows already colocate).
    pub fn distinct(&self, cluster: &Cluster) -> Result<DistRel> {
        if self.partitioned_by.is_some() {
            return Ok(self.clone());
        }
        let key: Vec<Sym> = self.schema.columns().to_vec();
        self.repartition(&key, cluster)
    }

    /// Set union. Partition-wise (free) when both sides share a
    /// partitioning key; otherwise both sides are repartitioned by full
    /// row first.
    pub fn union(&self, other: &DistRel, cluster: &Cluster) -> Result<DistRel> {
        assert_eq!(self.schema, other.schema, "union of incompatible schemas");
        let (a, b) = self.copartition(other, cluster)?;
        let parts = cluster.par_map_sized(&a.zip_parts(&b), pair_rows, |_, (x, y)| x.union(y))?;
        Ok(DistRel::from_parts(a.schema, parts, a.partitioned_by))
    }

    /// The accumulate step of `P_gld`: `self ∪= bags` in place, returning
    /// the rows that were new — the next delta — partitioned like the
    /// accumulator. `bags[w]` is what an exchange delivered to worker `w`,
    /// routed by the hash of the full row, duplicates and all. An
    /// accumulator not yet placed by the full row moves once; in the plan of
    /// §IV-A1 the difference and the union each co-partition it, so the
    /// communication model charges that move twice. Then every worker runs
    /// [`Relation::absorb_new`] on its own partition, so the step costs
    /// O(|bag|) whatever the accumulator holds.
    ///
    /// On an error `self` is left empty: its partitions were moved into
    /// the failed tasks. The superstep supervisor resets the accumulator
    /// from its checkpoint (or the seed) before it iterates again.
    pub fn absorb_new(&mut self, bags: Vec<Rows>, cluster: &Cluster) -> Result<DistRel> {
        let key: Vec<Sym> = self.schema.columns().to_vec();
        if self.partitioned_by.as_deref() != Some(&key[..]) {
            *self = self.repartition(&key, cluster)?;
            if cluster.workers() > 1 {
                cluster.metrics().record_shuffle(self.len() as u64);
            }
        }
        let schema = self.schema.clone();
        let emptied = DistRel::from_relation(&Relation::new(schema.clone()), cluster);
        let acc_parts = std::mem::replace(self, emptied).into_parts();
        let pairs: Vec<(Relation, Rows)> = acc_parts.into_iter().zip(bags).collect();
        let site = cluster.fault().next_site();
        // Sized by what is absorbed: only the first absorb of a fixpoint
        // also builds the accumulator's table.
        let bag_rows = |(_, bag): &(Relation, Rows)| bag.len();
        let absorbed =
            cluster.try_par_map_owned_at(site, 0, pairs, bag_rows, |_, (mut acc, bag)| {
                check_room(acc.len(), bag.len())?;
                let delta = acc.absorb_new(&bag);
                Ok((acc, delta))
            })?;
        let (acc_parts, delta_parts): (Vec<Relation>, Vec<Relation>) = absorbed.into_iter().unzip();
        *self = DistRel::from_parts(schema.clone(), acc_parts, Some(key.clone()));
        Ok(DistRel::from_parts(schema, delta_parts, Some(key)))
    }

    /// The partitions, owned.
    fn into_parts(self) -> Vec<Relation> {
        self.parts();
        self.parts.into_inner().expect("just split")
    }

    /// Partition pairs of two co-partitioned relations.
    fn zip_parts(&self, other: &DistRel) -> Vec<(Relation, Relation)> {
        self.parts().iter().cloned().zip(other.parts().iter().cloned()).collect()
    }

    /// Ensures both relations are partitioned by the same key (equal rows
    /// colocated). Free if they already share one.
    fn copartition(&self, other: &DistRel, cluster: &Cluster) -> Result<(DistRel, DistRel)> {
        if self.partitioned_by.is_some() && self.partitioned_by == other.partitioned_by {
            return Ok((self.clone(), other.clone()));
        }
        let key: Vec<Sym> = self.schema.columns().to_vec();
        Ok((self.repartition(&key, cluster)?, other.repartition(&key, cluster)?))
    }

    /// Shuffle (co-partitioned) natural join on the common columns.
    pub fn join_shuffle(&self, other: &DistRel, cluster: &Cluster) -> Result<DistRel> {
        let common: Vec<Sym> = self.schema.intersection(&other.schema);
        assert!(!common.is_empty(), "shuffle join requires common columns");
        let a = self.repartition(&common, cluster)?;
        let b = other.repartition(&common, cluster)?;
        let plan = mura_core::relation::join_plan(&a.schema, &b.schema);
        let parts =
            cluster.par_map_sized(&a.zip_parts(&b), pair_rows, |_, (x, y)| plan.execute(x, y))?;
        Ok(DistRel::from_parts(plan.out_schema, parts, Some(common)))
    }

    /// Joins against a relation every worker already holds (an existing
    /// broadcast variable) — no communication charged.
    pub fn join_local(&self, other: &Relation, cluster: &Cluster) -> Result<DistRel> {
        let plan = mura_core::relation::join_plan(&self.schema, other.schema());
        let parts = if other.is_empty() {
            let empty = Relation::new(plan.out_schema.clone());
            cluster.par_map_sized(&no_rows(cluster), |_| 0, |_, _| empty.clone())?
        } else {
            cluster.par_map_sized(
                self.parts(),
                |p| p.len() + other.len(),
                |_, p| plan.execute(p, other),
            )?
        };
        // Output keeps big-side placement; metadata survives if the key is
        // still part of the output schema (it always is for natural joins).
        Ok(DistRel::from_parts(plan.out_schema, parts, self.partitioned_by.clone()))
    }

    /// Antijoin against a relation every worker already holds — no
    /// communication charged.
    pub fn antijoin_local(&self, other: &Relation, cluster: &Cluster) -> Result<DistRel> {
        if other.is_empty() {
            cluster.par_map_sized(&no_rows(cluster), |_| 0, |_, _| ())?;
            return Ok(self.clone());
        }
        let parts = cluster.par_map_sized(
            self.parts(),
            |p| p.len() + other.len(),
            |_, p| p.antijoin(other),
        )?;
        Ok(DistRel::from_parts(self.schema.clone(), parts, self.partitioned_by.clone()))
    }

    /// Antijoin via co-partitioning on the common columns.
    pub fn antijoin_shuffle(&self, other: &DistRel, cluster: &Cluster) -> Result<DistRel> {
        let common: Vec<Sym> = self.schema.intersection(&other.schema);
        assert!(!common.is_empty(), "shuffle antijoin requires common columns");
        let a = self.repartition(&common, cluster)?;
        let b = other.repartition(&common, cluster)?;
        let parts =
            cluster.par_map_sized(&a.zip_parts(&b), pair_rows, |_, (x, y)| x.antijoin(y))?;
        Ok(DistRel::from_parts(a.schema, parts, a.partitioned_by))
    }

    /// Builds a `DistRel` from explicit partitions (used by the local
    /// fixpoint plans).
    pub fn from_parts(
        schema: Schema,
        parts: Vec<Relation>,
        partitioned_by: Option<Vec<Sym>>,
    ) -> Self {
        DistRel { schema, whole: None, workers: parts.len(), parts: parts.into(), partitioned_by }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::Value;

    fn cluster() -> Cluster {
        Cluster::new(4)
    }

    fn rel(db: &mut mura_core::Database, pairs: &[(u64, u64)]) -> Relation {
        let src = db.intern("src");
        let dst = db.intern("dst");
        Relation::from_pairs(src, dst, pairs.iter().copied())
    }

    #[test]
    fn round_trip_collect() {
        let mut db = mura_core::Database::new();
        let r = rel(&mut db, &[(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]);
        let c = cluster();
        let d = DistRel::from_relation(&r, &c);
        assert_eq!(d.len(), 5);
        assert_eq!(d.collect().sorted_rows(), r.sorted_rows());
    }

    #[test]
    fn repartition_counts_shuffle_once() {
        let mut db = mura_core::Database::new();
        let src = db.intern("src");
        let r = rel(&mut db, &[(1, 2), (1, 3), (2, 4), (3, 5)]);
        let c = cluster();
        let d = DistRel::from_relation(&r, &c);
        let before = c.metrics().snapshot();
        let d2 = d.repartition(&[src], &c).unwrap();
        let after = c.metrics().snapshot().since(&before);
        assert_eq!(after.shuffles, 1);
        assert_eq!(after.rows_shuffled, 4);
        // Idempotent: same key again is free.
        let d3 = d2.repartition(&[src], &c).unwrap();
        let after2 = c.metrics().snapshot().since(&before);
        assert_eq!(after2.shuffles, 1);
        assert_eq!(d3.collect().sorted_rows(), r.sorted_rows());
    }

    #[test]
    fn repartition_colocates_by_key() {
        let mut db = mura_core::Database::new();
        let src = db.intern("src");
        let r = rel(&mut db, &[(1, 2), (1, 3), (1, 4), (2, 5)]);
        let c = cluster();
        let d = DistRel::from_relation(&r, &c).repartition(&[src], &c).unwrap();
        // All rows with src=1 must be in a single partition.
        let mut found = None;
        for (i, p) in d.parts().iter().enumerate() {
            for row in p.iter() {
                if row[p.schema().position(src).unwrap()] == Value::node(1) {
                    match found {
                        None => found = Some(i),
                        Some(j) => assert_eq!(i, j, "src=1 rows scattered"),
                    }
                }
            }
        }
        assert!(found.is_some());
    }

    #[test]
    fn union_partitionwise_when_copartitioned() {
        let mut db = mura_core::Database::new();
        let r1 = rel(&mut db, &[(1, 2), (3, 4)]);
        let r2 = rel(&mut db, &[(3, 4), (5, 6)]);
        let c = cluster();
        let a = DistRel::from_relation(&r1, &c);
        let b = DistRel::from_relation(&r2, &c);
        let before = c.metrics().snapshot();
        let u = a.union(&b, &c).unwrap();
        // Both loaded with the same full-row key → no shuffle.
        assert_eq!(c.metrics().snapshot().since(&before).shuffles, 0);
        assert_eq!(u.len(), 3);
    }

    /// `r` routed by the hash of the full row, as a `P_gld` superstep
    /// routes what its branches produced.
    fn routed(r: &Relation, n: usize) -> Vec<Rows> {
        split_by_key(r.rows(), &(0..r.schema().arity()).collect::<Vec<_>>(), n)
    }

    #[test]
    fn absorb_new_accumulates_in_place_and_returns_the_new_rows() {
        let mut db = mura_core::Database::new();
        let r1 = rel(&mut db, &[(1, 2), (3, 4), (5, 6)]);
        let r2 = rel(&mut db, &[(3, 4), (7, 8), (9, 10)]);
        let c = cluster();
        let mut acc = DistRel::from_relation(&r1, &c);
        let checkpoint = acc.clone();
        let before = c.metrics().snapshot();
        // A row delivered twice is absorbed once.
        let mut bags = routed(&r2, 4);
        bags.iter_mut().for_each(|bag| bag.append(&bag.clone()));
        let delta = acc.absorb_new(bags, &c).unwrap();
        // Loaded with the full-row key → no shuffle.
        assert_eq!(c.metrics().snapshot().since(&before).shuffles, 0);
        assert_eq!(delta.collect().sorted_rows(), rel(&mut db, &[(7, 8), (9, 10)]).sorted_rows());
        assert_eq!(delta.len(), 2);
        assert_eq!(acc.collect().sorted_rows(), r1.union(&r2).sorted_rows());
        assert_eq!(delta.partitioned_by(), acc.partitioned_by());
        // Every new row sits in the accumulator partition it was absorbed by.
        for (d, a) in delta.parts().iter().zip(acc.parts()) {
            assert!(d.iter().all(|row| a.contains(row)));
        }
        // The clone taken before is a snapshot, not a view of the update.
        assert_eq!(checkpoint.collect().sorted_rows(), r1.sorted_rows());
    }

    #[test]
    fn absorb_new_charges_what_difference_then_union_charged() {
        // An accumulator keyed in another order moves once and is charged
        // twice: once for the difference, once for the union (see
        // `DistRel::absorb_new`). The rows absorbed arrive routed: they are
        // the exchange's, not the accumulator's, to charge.
        let mut db = mura_core::Database::new();
        let (src, dst) = (db.intern("src"), db.intern("dst"));
        let r1 = rel(&mut db, &[(1, 2), (3, 4), (5, 6)]);
        let r2 = rel(&mut db, &[(3, 4), (7, 8)]);
        let c = cluster();
        let mut acc = DistRel::from_relation(&r1, &c);
        let before = c.metrics().snapshot();
        let delta = acc.absorb_new(routed(&r2, 4), &c).unwrap();
        let moved = c.metrics().snapshot().since(&before);
        assert_eq!((moved.shuffles, moved.rows_shuffled), (0, 0));
        assert_eq!(delta.len(), 1);

        let mut acc = DistRel::from_relation(&r1, &c).repartition(&[dst, src], &c).unwrap();
        let before = c.metrics().snapshot();
        let delta = acc.absorb_new(routed(&r2, 4), &c).unwrap();
        let moved = c.metrics().snapshot().since(&before);
        assert_eq!((moved.shuffles, moved.rows_shuffled), (2, 3 + 3));
        assert_eq!(delta.len(), 1);
        assert_eq!(acc.collect().sorted_rows(), r1.union(&r2).sorted_rows());
    }

    /// The eager split `from_relation` used to perform: every row placed by
    /// the hash of its fields in schema order.
    fn eager_parts(r: &Relation, n: usize) -> Vec<Relation> {
        let all: Vec<usize> = (0..r.schema().arity()).collect();
        let mut parts: Vec<Relation> = (0..n).map(|_| Relation::new(r.schema().clone())).collect();
        for row in r.iter() {
            parts[(hash_key(row, &all) as usize) % n].insert(row);
        }
        parts
    }

    #[test]
    fn lazy_placement_equals_eager_placement() {
        let mut db = mura_core::Database::new();
        // Interned first, `aa` sorts before both columns, and `zz` after
        // them: two of the renames below permute the row's fields, so
        // hashing in schema order would move rows.
        let aa = db.intern("aa");
        let (src, dst, zz) = (db.intern("src"), db.intern("dst"), db.intern("zz"));
        let pairs: Vec<(u64, u64)> = (0..200).map(|i| (i % 17, i * 7 % 31)).collect();
        let r = rel(&mut db, &pairs);
        let c = cluster();
        let eager = eager_parts(&r, c.workers());
        let check = |lazy: &DistRel, map: &dyn Fn(&Relation) -> Relation| {
            for (l, e) in lazy.parts().iter().zip(&eager) {
                assert_eq!(l.sorted_rows(), map(e).sorted_rows());
            }
        };
        let d = DistRel::from_relation(&r, &c);
        check(&d, &|e| e.clone());
        for (from, to) in [(src, aa), (dst, aa), (src, zz), (dst, zz)] {
            let renamed = DistRel::from_relation(&r, &c).rename(from, to, &c).unwrap();
            let key: Vec<Sym> =
                r.schema().columns().iter().map(|&k| if k == from { to } else { k }).collect();
            assert_eq!(renamed.partitioned_by(), Some(&key[..]));
            check(&renamed, &|e| e.rename(from, to));
        }
        let pred = [Pred::Neq(src, Value::node(3))];
        let filtered = DistRel::from_relation(&r, &c)
            .rename(dst, aa, &c)
            .unwrap()
            .filter_preds(&pred, &c)
            .unwrap();
        check(&filtered, &|e| apply_filter(&e.rename(dst, aa), &pred).unwrap());
    }

    #[test]
    fn lazy_values_skip_and_charge_the_same_shuffles() {
        let mut db = mura_core::Database::new();
        let (src, dst, m) = (db.intern("src"), db.intern("dst"), db.intern("m"));
        let r = rel(&mut db, &[(1, 2), (1, 3), (2, 4), (3, 5), (4, 1)]);
        let c = cluster();
        let shuffled = |f: &dyn Fn() -> DistRel| {
            let before = c.metrics().snapshot();
            let out = f();
            let d = c.metrics().snapshot().since(&before);
            (d.shuffles, d.rows_shuffled, out)
        };
        let lazy = DistRel::from_relation(&r, &c).rename(dst, m, &c).unwrap();
        // Already keyed (by the renamed full row): distinct and a
        // repartition on that very key are free, and stay lazy.
        let (n, rows, out) = shuffled(&|| lazy.distinct(&c).unwrap());
        assert_eq!((n, rows), (0, 0));
        assert_eq!(out.partitioned_by(), lazy.partitioned_by());
        let key = lazy.partitioned_by().unwrap().to_vec();
        assert_eq!(shuffled(&|| lazy.repartition(&key, &c).unwrap()).0, 0);
        // Any other key — the same columns in another order included — is
        // one shuffle of every row.
        let (n, rows, out) = shuffled(&|| lazy.repartition(&[src], &c).unwrap());
        assert_eq!((n, rows), (1, 5));
        assert_eq!(out.collect().sorted_rows(), r.rename(dst, m).sorted_rows());
        let reversed: Vec<Sym> = key.iter().rev().copied().collect();
        assert_eq!(shuffled(&|| lazy.repartition(&reversed, &c).unwrap()).0, 1);
        // Two lazy loads share the full-row key: a union moves nothing.
        let other = DistRel::from_relation(&r, &c);
        let (n, _, out) = shuffled(&|| other.union(&DistRel::from_relation(&r, &c), &c).unwrap());
        assert_eq!((n, out.len()), (0, 5));
        // A renamed side no longer shares it: both sides are co-partitioned.
        let back = lazy.rename(m, dst, &c).unwrap();
        let swapped = DistRel::from_relation(&r, &c).repartition(&[dst, src], &c).unwrap();
        let (n, rows, out) = shuffled(&|| back.union(&swapped, &c).unwrap());
        assert_eq!((n, rows, out.len()), (1, 5, 5));
    }

    #[test]
    fn shuffle_join_matches_local_join() {
        let mut db = mura_core::Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let m = db.intern("m");
        let r = rel(&mut db, &[(1, 2), (2, 3), (3, 4), (2, 5)]);
        let c = cluster();
        // r renamed (dst→m) joined with r renamed (src→m): length-2 paths.
        let left = DistRel::from_relation(&r, &c).rename(dst, m, &c).unwrap();
        let right = DistRel::from_relation(&r, &c).rename(src, m, &c).unwrap();
        let j = left.join_shuffle(&right, &c).unwrap();
        let expected = r.rename(dst, m).join(&r.rename(src, m));
        assert_eq!(j.collect().sorted_rows(), expected.sorted_rows());
        assert_eq!(j.partitioned_by(), Some(&[m][..]));
    }

    #[test]
    fn broadcast_join_matches_and_counts() {
        let mut db = mura_core::Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let m = db.intern("m");
        let r = rel(&mut db, &[(1, 2), (2, 3), (3, 4)]);
        let c = cluster();
        let left = DistRel::from_relation(&r, &c).rename(dst, m, &c).unwrap();
        let small = r.rename(src, m);
        let before = c.metrics().snapshot();
        c.broadcast_rel(&small, None).unwrap();
        let j = left.join_local(&small, &c).unwrap();
        let d = c.metrics().snapshot().since(&before);
        assert_eq!(d.broadcasts, 1);
        assert_eq!(d.rows_broadcast, 3 * 3);
        let expected = r.rename(dst, m).join(&r.rename(src, m));
        assert_eq!(j.collect().sorted_rows(), expected.sorted_rows());
    }

    #[test]
    fn an_empty_broadcast_side_leaves_the_other_whole() {
        let mut db = mura_core::Database::new();
        let (src, m) = (db.intern("src"), db.intern("m"));
        let r = rel(&mut db, &[(1, 2), (2, 3), (3, 4), (4, 5)]);
        let none = Relation::new(Schema::new(vec![src, m]));
        let c = cluster();
        let whole = DistRel::from_relation(&r, &c);
        let sites = || c.fault().next_site();
        let before = sites();
        let joined = whole.join_local(&none, &c).unwrap();
        let kept = whole.antijoin_local(&none, &c).unwrap();
        // One stage each, as against rows that do join.
        assert_eq!(sites(), before + 3);
        assert!(whole.parts.get().is_none(), "the big side was split");
        assert_eq!(joined.collect(), r.join(&none));
        assert_eq!(joined.schema(), r.join(&none).schema());
        assert_eq!(joined.parts().len(), c.workers());
        assert_eq!(kept.collect(), r.antijoin(&none));
        assert!(kept.parts.get().is_none());
    }

    #[test]
    fn antijoin_variants_match_local() {
        let mut db = mura_core::Database::new();
        let src = db.intern("src");
        let r1 = rel(&mut db, &[(1, 2), (2, 3), (3, 4)]);
        let schema = Schema::new(vec![src]);
        let filt = Relation::from_rows(schema, [vec![Value::node(2)].into_boxed_slice()]);
        let c = cluster();
        let a = DistRel::from_relation(&r1, &c);
        let expected = r1.antijoin(&filt);
        let before = c.metrics().snapshot();
        c.broadcast_rel(&filt, None).unwrap();
        let via_broadcast = a.antijoin_local(&filt, &c).unwrap();
        let d = c.metrics().snapshot().since(&before);
        assert_eq!((d.broadcasts, d.rows_broadcast), (1, 3));
        assert_eq!(via_broadcast.collect().sorted_rows(), expected.sorted_rows());
        let b = DistRel::from_relation(&filt, &c);
        let via_shuffle = a.antijoin_shuffle(&b, &c).unwrap();
        assert_eq!(via_shuffle.collect().sorted_rows(), expected.sorted_rows());
    }

    #[test]
    fn rename_keeps_colocation_usable() {
        // After renaming the key column, a repartition on the renamed key
        // must be skipped only if positionally identical — and results must
        // still be correct either way.
        let mut db = mura_core::Database::new();
        let src = db.intern("src");
        let q = db.intern("q");
        let r = rel(&mut db, &[(1, 2), (1, 3), (2, 4)]);
        let c = cluster();
        let d = DistRel::from_relation(&r, &c).repartition(&[src], &c).unwrap();
        let d2 = d.rename(src, q, &c).unwrap();
        assert_eq!(d2.partitioned_by(), Some(&[q][..]));
        let d3 = d2.repartition(&[q], &c).unwrap();
        assert_eq!(d3.collect().sorted_rows(), r.rename(src, q).sorted_rows());
    }

    #[test]
    fn antiproject_drops_partitioning_when_key_dropped() {
        let mut db = mura_core::Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let r = rel(&mut db, &[(1, 2), (2, 3)]);
        let c = cluster();
        let d = DistRel::from_relation(&r, &c).repartition(&[src], &c).unwrap();
        let dropped = d.antiproject(&[src], &c).unwrap();
        assert_eq!(dropped.partitioned_by(), None);
        let kept = d.antiproject(&[dst], &c).unwrap();
        assert_eq!(kept.partitioned_by(), Some(&[src][..]));
    }

    #[test]
    fn distinct_dedups_across_partitions() {
        // Build parts with duplicates across partitions explicitly.
        let mut db = mura_core::Database::new();
        let r1 = rel(&mut db, &[(1, 2)]);
        let r2 = rel(&mut db, &[(1, 2), (3, 4)]);
        let c = Cluster::new(2);
        let d = DistRel::from_parts(r1.schema().clone(), vec![r1.clone(), r2.clone()], None);
        assert_eq!(d.len(), 3, "duplicate present before distinct");
        let dd = d.distinct(&c).unwrap();
        assert_eq!(dd.len(), 2);
    }
}
