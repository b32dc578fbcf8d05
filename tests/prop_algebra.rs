//! Randomized tests of the relational algebra core: classical algebra laws
//! over seeded randomly generated relations (64 cases per law, each case
//! reproducible from its printed seed).

use mura_core::{Relation, Schema, Sym, Value};
use mura_datagen::SplitMix64;

const A: Sym = Sym(0);
const B: Sym = Sym(1);
const C: Sym = Sym(2);
const CASES: u64 = 64;

/// Random binary relation with small-domain values.
fn rel(rng: &mut SplitMix64, x: Sym, y: Sym) -> Relation {
    let len = rng.gen_range(0..25usize);
    let pairs: Vec<(u64, u64)> =
        (0..len).map(|_| (rng.gen_range(0..8u64), rng.gen_range(0..8u64))).collect();
    Relation::from_pairs(x, y, pairs)
}

fn for_each_case(f: impl Fn(&mut SplitMix64, u64)) {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x0a16_eb7a ^ case);
        f(&mut rng, case);
    }
}

#[test]
fn union_is_commutative_and_idempotent() {
    for_each_case(|rng, case| {
        let r = rel(rng, A, B);
        let s = rel(rng, A, B);
        assert_eq!(r.union(&s).sorted_rows(), s.union(&r).sorted_rows(), "case {case}");
        assert_eq!(r.union(&r).sorted_rows(), r.sorted_rows(), "case {case}");
    });
}

#[test]
fn join_is_commutative_up_to_schema() {
    for_each_case(|rng, case| {
        let r = rel(rng, A, B);
        let s = rel(rng, B, C);
        let rs = r.join(&s);
        let sr = s.join(&r);
        assert_eq!(rs.schema(), sr.schema(), "case {case}");
        assert_eq!(rs.sorted_rows(), sr.sorted_rows(), "case {case}");
    });
}

#[test]
fn join_with_self_is_identity() {
    for_each_case(|rng, case| {
        let r = rel(rng, A, B);
        assert_eq!(r.join(&r).sorted_rows(), r.sorted_rows(), "case {case}");
    });
}

#[test]
fn minus_and_union_partition() {
    for_each_case(|rng, case| {
        // (r \ s) ∪ (r ⋂ s) == r, and (r \ s) ⋂ s == ∅.
        let r = rel(rng, A, B);
        let s = rel(rng, A, B);
        let diff = r.minus(&s);
        let inter = r.join(&s); // same schema: intersection
        assert_eq!(diff.union(&inter).sorted_rows(), r.sorted_rows(), "case {case}");
        for row in diff.iter() {
            assert!(!s.contains(row), "case {case}");
        }
    });
}

#[test]
fn antijoin_is_minus_of_matching() {
    for_each_case(|rng, case| {
        // r ▷ s keeps exactly rows whose B value has no match in s.
        let r = rel(rng, A, B);
        let s = rel(rng, B, C);
        let aj = r.antijoin(&s);
        let b_pos = r.schema().position(B).unwrap();
        let s_b = s.schema().position(B).unwrap();
        let s_keys: std::collections::HashSet<Value> = s.iter().map(|row| row[s_b]).collect();
        for row in r.iter() {
            let keep = !s_keys.contains(&row[b_pos]);
            assert_eq!(aj.contains(row), keep, "case {case}");
        }
        assert!(aj.len() <= r.len(), "case {case}");
    });
}

#[test]
fn rename_round_trips() {
    for_each_case(|rng, case| {
        let r = rel(rng, A, B);
        let rn = r.rename(A, C).rename(C, A);
        assert_eq!(rn.sorted_rows(), r.sorted_rows(), "case {case}");
    });
}

#[test]
fn antiproject_shrinks_schema_not_rows_beyond() {
    for_each_case(|rng, case| {
        let r = rel(rng, A, B);
        let p = r.antiproject(&[B]);
        assert_eq!(p.schema(), &Schema::new(vec![A]), "case {case}");
        assert!(p.len() <= r.len(), "case {case}");
        // Every projected value came from some row.
        let a_pos = r.schema().position(A).unwrap();
        for row in p.iter() {
            assert!(r.iter().any(|orig| orig[a_pos] == row[0]), "case {case}");
        }
    });
}

#[test]
fn filter_is_monotone_and_exact() {
    for_each_case(|rng, case| {
        let r = rel(rng, A, B);
        let target = Value::node(rng.gen_range(0..8u64));
        let a_pos = r.schema().position(A).unwrap();
        let f = r.filter(|row| row[a_pos] == target);
        assert!(f.len() <= r.len(), "case {case}");
        for row in r.iter() {
            assert_eq!(f.contains(row), row[a_pos] == target, "case {case}");
        }
    });
}

#[test]
fn join_distributes_over_union() {
    for_each_case(|rng, case| {
        let r = rel(rng, A, B);
        let s = rel(rng, B, C);
        let t = rel(rng, B, C);
        let left = r.join(&s.union(&t));
        let right = r.join(&s).union(&r.join(&t));
        assert_eq!(left.sorted_rows(), right.sorted_rows(), "case {case}");
    });
}

#[test]
fn sorted_engine_matches_hash_engine() {
    for_each_case(|rng, case| {
        use mura_dist::sorted;
        let r = rel(rng, A, B);
        let s = rel(rng, A, B);
        // A superstep's output: a bag with repeats, partly old rows.
        let mut produced = s.rows().clone();
        r.iter().chain(s.iter()).for_each(|row| produced.push(row));
        let (mut acc_sorted, mut acc_hash) = (sorted::from_seed(&r), r.clone());
        let new_sorted = sorted::absorb_new(&mut acc_sorted, &produced);
        let new_hash = acc_hash.absorb_new(&produced);
        assert_eq!(new_sorted.sorted_rows(), new_hash.sorted_rows(), "case {case}");
        assert_eq!(acc_sorted.sorted_rows(), acc_hash.sorted_rows(), "case {case}");
        let in_order = acc_sorted.iter().zip(acc_sorted.iter().skip(1)).all(|(a, b)| a < b);
        assert!(in_order, "case {case}: the accumulator stays in order");
    });
}
