//! The sorted local engine's accumulator.
//!
//! Stands in for the per-worker PostgreSQL instances of the paper's
//! `P_plw^pg` plan (Fig. 7 compares it against the hash-based SetRDD
//! implementation). Both engines run the same prepared branches over the
//! same [`Relation`]s — the hash-indexed chains of [`crate::localfix`] —
//! and differ only in how a superstep's output is accumulated: here the
//! accumulator is a relation whose rows are kept in order and never
//! tabled ([`Relation::from_distinct`]), and absorbing a bag sorts it once
//! and merges it in, instead of probing a table per row. Sorting orders a
//! permutation of row ids and gathers the rows once.

use mura_core::{Relation, Rows, Value};
use std::cmp::Ordering;

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

/// A sorted accumulator holding the rows of `seed`: one sort, no table.
pub fn from_seed(seed: &Relation) -> Relation {
    Relation::from_distinct(seed.schema().clone(), sort_dedup(seed.rows()))
}

/// The merge form of [`Relation::absorb_new`] over an accumulator built by
/// [`from_seed`]: merges in the rows of `produced` that are absent and returns
/// exactly those — the next semi-naive delta, itself in order. One sort of
/// `produced`, then two merges of flat buffers; `acc` is replaced, never
/// written, so a checkpoint sharing it is not copied.
pub fn absorb_new(acc: &mut Relation, produced: &Rows) -> Relation {
    let schema = acc.schema().clone();
    let mut new = Rows::new(schema.arity());
    merge_walk(&sort_dedup(produced), acc.rows(), |side, row| {
        if side == Ordering::Less {
            new.push(row);
        }
    });
    if !new.is_empty() {
        let mut merged = Rows::with_capacity(schema.arity(), acc.len() + new.len());
        merge_walk(acc.rows(), &new, |_, row| merged.push(row));
        *acc = Relation::from_distinct(schema.clone(), merged);
    }
    Relation::from_distinct(schema, new)
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

    fn in_order(rel: &Relation) -> bool {
        let rows: Vec<&[Value]> = rel.iter().collect();
        rows.windows(2).all(|w| w[0] < w[1])
    }

    /// The merge absorb must agree with the hash engine's and keep the
    /// accumulator in order.
    #[test]
    fn agrees_with_hash_engine() {
        let mut db = Database::new();
        let r1 = pair_rel(&mut db, &[(3, 4), (1, 2), (2, 5), (2, 3)]);
        let r2 = pair_rel(&mut db, &[(5, 6), (2, 3)]);
        let mut produced = r2.rows().clone();
        produced.append(r2.rows());
        let (mut acc_sorted, mut acc_hash) = (from_seed(&r1), r1.clone());
        assert!(in_order(&acc_sorted));
        let delta_sorted = absorb_new(&mut acc_sorted, &produced);
        let delta_hash = acc_hash.absorb_new(&produced);
        assert_eq!(delta_sorted.sorted_rows(), delta_hash.sorted_rows());
        assert_eq!(acc_sorted, acc_hash);
        assert!(in_order(&acc_sorted) && in_order(&delta_sorted));
    }
}
