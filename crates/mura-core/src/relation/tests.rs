use super::*;
use std::collections::BTreeSet;

fn sym(i: u32) -> Sym {
    Sym(i)
}

fn rel(cols: &[u32], rows: &[&[i64]]) -> Relation {
    let schema = Schema::new(cols.iter().map(|&c| sym(c)).collect());
    // Caller gives rows in the *given* column order; permute to schema order.
    let perm: Vec<usize> =
        schema.columns().iter().map(|c| cols.iter().position(|&x| sym(x) == *c).unwrap()).collect();
    Relation::from_rows(
        schema,
        rows.iter().map(|r| perm.iter().map(|&p| Value::int(r[p])).collect::<Row>()),
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
    assert!(f.contains(&[Value::int(2)]));
}

#[test]
fn rename_permutes_fields() {
    // schema (1,2); rename 1 -> 5 gives sorted schema (2,5): fields swap.
    let r = rel(&[1, 2], &[&[10, 20]]);
    let rn = r.rename(sym(1), sym(5));
    assert_eq!(rn.schema().columns(), &[sym(2), sym(5)]);
    assert!(rn.contains(&[Value::int(20), Value::int(10)]));
}

#[test]
fn antiproject_dedups() {
    let r = rel(&[1, 2], &[&[1, 10], &[1, 20]]);
    let p = r.antiproject(&[sym(2)]);
    assert_eq!(p.len(), 1);
    assert!(p.contains(&[Value::int(1)]));
}

#[test]
fn natural_join_basic() {
    // R(a=1,b=2), S(b=2,c=3): join on b.
    let r = rel(&[1, 2], &[&[1, 10], &[2, 20]]);
    let s = rel(&[2, 3], &[&[10, 100], &[10, 101], &[30, 300]]);
    let j = r.join(&s);
    assert_eq!(j.schema().columns(), &[sym(1), sym(2), sym(3)]);
    assert_eq!(j.len(), 2);
    assert!(j.contains(&[Value::int(1), Value::int(10), Value::int(100)]));
    assert!(j.contains(&[Value::int(1), Value::int(10), Value::int(101)]));
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
    assert!(j.contains(&[Value::int(2)]));
}

#[test]
fn antijoin_filters_matches() {
    let r = rel(&[1, 2], &[&[1, 10], &[2, 20]]);
    let s = rel(&[2], &[&[10]]);
    let a = r.antijoin(&s);
    assert_eq!(a.len(), 1);
    assert!(a.contains(&[Value::int(2), Value::int(20)]));
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
    assert!(d.contains(&[Value::int(1)]));
}

#[test]
fn absorb_new_returns_exactly_the_new_rows() {
    let mut acc = rel(&[1], &[&[1], &[2]]);
    let checkpoint = acc.clone();
    let produced = rel(&[1], &[&[2], &[3], &[4]]);
    let delta = acc.absorb_new(produced.rows());
    assert_eq!(delta, rel(&[1], &[&[3], &[4]]));
    assert_eq!(acc.len(), 4);
    // The clone taken before is a snapshot, not a view of the update.
    assert_eq!(checkpoint.len(), 2);
    // Nothing new: empty delta, accumulator untouched.
    assert!(acc.absorb_new(rel(&[1], &[&[1], &[4]]).rows()).is_empty());
    assert_eq!(acc.len(), 4);
}

#[test]
fn from_pairs_respects_column_order() {
    // (b, a) given in that order: schema sorts to (a, b) but the pair
    // (x, y) must still mean b=x, a=y.
    let r = Relation::from_pairs(sym(2), sym(1), [(10, 20)]);
    assert_eq!(r.schema().columns(), &[sym(1), sym(2)]);
    assert!(r.contains(&[Value::int(20), Value::int(10)]));
}

#[test]
fn row_id_space_is_a_typed_limit() {
    let r = rel(&[1], &[&[1], &[2]]);
    assert!(check_room(r.len(), MAX_ROWS - 2).is_ok());
    for over in [MAX_ROWS - 1, usize::MAX] {
        match check_room(r.len(), over) {
            Err(MuraError::ResourceExhausted { what, limit, .. }) => {
                assert_eq!((what, limit), ("rows in one relation", MAX_ROWS as u64));
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }
}

// ---------------------------------------------------- differential model

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        crate::splitmix64(&mut self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A row over a domain small enough that draws repeat.
    fn row(&mut self, arity: usize, domain: u64) -> Vec<Value> {
        (0..arity)
            .map(|_| {
                let r = self.next();
                if r & 1 == 0 {
                    Value::int((r >> 8) as i64 % domain as i64 - 3)
                } else {
                    Value::sym(Sym(((r >> 8) % domain) as u32))
                }
            })
            .collect()
    }
}

type Model = BTreeSet<Vec<Value>>;

/// The slots of `group` that hold a row: their control byte's top bit is
/// clear. A `DELETED` byte is the one other byte whose bit below is clear.
fn full_slots(group: &Group) -> usize {
    (!group.ctrl & HI).count_ones() as usize
}

/// Slots, full slots and `DELETED` slots of the relation's table, if one
/// was built.
fn occupancy(rel: &Relation) -> Option<(usize, usize, usize)> {
    let table = rel.store.table.get()?;
    let (full, deleted) = table.groups.iter().fold((0, 0), |(full, deleted), g| {
        (full + full_slots(g), deleted + (g.ctrl & HI & !(g.ctrl << 1)).count_ones() as usize)
    });
    Some((table.slots(), full, deleted))
}

/// Rows and tombstones together take at most 7/8 of the slots, and every
/// row has its own full slot. Returns the tombstones.
fn check_load(rel: &Relation, what: &str) -> usize {
    let Some((slots, full, deleted)) = occupancy(rel) else { return 0 };
    assert_eq!(full, rel.len(), "{what}: one full slot per row");
    assert!(
        (full + deleted) * 8 <= slots * 7,
        "{what}: {full} rows + {deleted} tombstones in {slots}"
    );
    deleted
}

/// Every live row is iterated exactly once, and membership, length and
/// sorted order agree with the model.
fn check(rel: &Relation, model: &Model, what: &str) {
    assert_eq!(rel.len(), model.len(), "{what}: length");
    let seen: Vec<Vec<Value>> = rel.iter().map(<[Value]>::to_vec).collect();
    assert_eq!(seen.len(), model.len(), "{what}: rows iterated");
    assert_eq!(&seen.iter().cloned().collect::<Model>(), model, "{what}: row set");
    assert!(model.iter().all(|r| rel.contains(r)), "{what}: contains");
    let sorted: Vec<Vec<Value>> = rel.sorted_rows().iter().map(|r| r.to_vec()).collect();
    assert!(sorted.iter().eq(model.iter()), "{what}: sorted order");
}

fn differential(arity: usize, seed: u64) {
    let schema = Schema::new((0..arity as u32).map(sym).collect());
    let mut rng = Rng(seed);
    // Few distinct rows are possible at low arity; higher ones run long
    // enough to take the table through several doublings.
    let (steps, domain) = match arity {
        0 => (60, 1),
        1 => (400, 90),
        _ => (1_200, 40),
    };
    let mut rel = Relation::new(schema.clone());
    let mut model = Model::new();
    let mut growths = 0;
    let mut slots = 0;
    for step in 0..steps {
        let what = format!("arity {arity} seed {seed} step {step}");
        match rng.below(10) {
            0..=3 => {
                let row = rng.row(arity, domain);
                assert_eq!(rel.insert(&row), model.insert(row), "{what}: insert");
            }
            4 => {
                // Mostly rows that are there: removal is the case to stress.
                let row = match model.iter().nth(rng.below(model.len().max(1))) {
                    Some(row) if rng.below(4) > 0 => row.clone(),
                    _ => rng.row(arity, domain),
                };
                assert_eq!(rel.remove(&row), model.remove(&row), "{what}: remove");
                // Remove-then-reinsert must find the row gone, then back.
                if rng.below(2) == 0 {
                    assert!(!rel.contains(&row), "{what}: removed row still found");
                    assert!(rel.insert(&row), "{what}: reinsert");
                    model.insert(row);
                }
            }
            5 => {
                let row = rng.row(arity, domain);
                assert_eq!(rel.contains(&row), model.contains(&row), "{what}: contains");
            }
            6 => {
                let mut produced = Rows::new(arity);
                for _ in 0..rng.below(30) {
                    produced.push(&rng.row(arity, domain));
                }
                let delta = rel.absorb_new(&produced);
                let expected: Model =
                    produced.iter().map(<[Value]>::to_vec).filter(|r| !model.contains(r)).collect();
                assert!(!delta.has_table(), "{what}: a delta is appended, never looked up");
                check(&delta, &expected, &format!("{what}: delta"));
                model.extend(expected);
            }
            7 => {
                // Rows known to be absent and distinct go in unprobed.
                let fresh: Model = (0..rng.below(20))
                    .map(|_| rng.row(arity, domain))
                    .filter(|r| !model.contains(r))
                    .collect();
                let mut rows = Rows::new(arity);
                fresh.iter().for_each(|r| rows.push(r));
                rel.extend_distinct(&rows);
                model.extend(fresh);
            }
            8 => {
                // The clone must not see what happens to the original.
                let (snapshot, before) = (rel.clone(), model.clone());
                let row = rng.row(arity, domain);
                rel.insert(&row);
                model.insert(row);
                if let Some(victim) = before.iter().next() {
                    rel.remove(victim);
                    model.remove(victim);
                }
                check(&snapshot, &before, &format!("{what}: snapshot"));
            }
            _ => {
                // Equality is independent of insertion order.
                let mut rows: Vec<&Vec<Value>> = model.iter().collect();
                rows.reverse();
                let rebuilt = Relation::from_rows(schema.clone(), rows);
                assert_eq!(rel, rebuilt, "{what}: equality");
                let mut other = model.clone();
                let row = rng.row(arity, domain);
                if !other.remove(&row) {
                    other.insert(row);
                }
                assert_ne!(rel, Relation::from_rows(schema.clone(), &other), "{what}");
            }
        }
        if step % 50 == 0 {
            check(&rel, &model, &what);
        }
        check_load(&rel, &what);
        let now = occupancy(&rel).map_or(0, |(slots, ..)| slots);
        growths += usize::from(now > slots && slots > 0);
        slots = slots.max(now);
    }
    check(&rel, &model, &format!("arity {arity} seed {seed} end"));
    if arity >= 2 {
        assert!(growths >= 4, "arity {arity} seed {seed}: table grew {growths} times");
    }
    churn(&schema, &mut rng, &format!("arity {arity} seed {seed} churn"));
}

/// Churn over a small domain: a table filled to its 7/8, most rows
/// removed, put back and removed again. Removals from full groups leave
/// tombstones, which later probes pass over and later inserts reuse.
fn churn(schema: &Schema, rng: &mut Rng, what: &str) {
    let arity = schema.arity();
    let (mut rel, mut model) = (Relation::new(schema.clone()), Model::new());
    // 112 rows fill a table of 128 slots to 7/8.
    let mut pool: Vec<Vec<Value>> = Vec::new();
    for _ in 0..10_000 {
        if pool.len() == 112 {
            break;
        }
        let row = rng.row(arity, 90);
        if !pool.contains(&row) {
            pool.push(row);
        }
    }
    let mut tombstones = 0;
    let mut step = |rel: &mut Relation, model: &mut Model, row: &Vec<Value>, insert: bool| {
        let changed = if insert { rel.insert(row) } else { rel.remove(row) };
        let expected = if insert { model.insert(row.clone()) } else { model.remove(row) };
        assert_eq!(
            changed,
            expected,
            "{what}: {} {row:?}",
            if insert { "insert" } else { "remove" }
        );
        for r in &pool {
            assert_eq!(rel.contains(r), model.contains(r), "{what}: contains {r:?}");
        }
        tombstones = tombstones.max(check_load(rel, what));
    };
    for row in &pool {
        step(&mut rel, &mut model, row, true);
    }
    let mut most: Vec<Vec<Value>> = pool.iter().filter(|_| rng.below(8) > 0).cloned().collect();
    for round in 0..3 {
        // Each round in a fresh order.
        for i in (1..most.len()).rev() {
            most.swap(i, rng.below(i + 1));
        }
        for row in &most {
            step(&mut rel, &mut model, row, round == 1);
        }
        check(&rel, &model, &format!("{what} round {round}"));
    }
    if arity > 0 {
        assert!(tombstones > 0, "{what}: no removal left a tombstone");
    }
}

#[test]
fn random_operations_match_a_set_model() {
    for arity in [0, 1, 2, 5] {
        for seed in [1, 7, 42] {
            differential(arity, seed);
        }
    }
}

#[test]
fn load_stays_at_or_under_seven_eighths() {
    let mut r = Relation::new(Schema::new(vec![sym(0), sym(1)]));
    for i in 0..5_000i64 {
        r.insert([Value::int(i % 700), Value::int(i / 3)]);
        let (slots, ..) = occupancy(&r).expect("insert builds the table");
        assert!(r.len() * 8 <= slots * 7, "{} rows in {slots}", r.len());
    }
    // Rows that agree modulo a worker count on the placement hash — one
    // partition of a hash split — still spread over the whole table.
    let all = [0, 1];
    let part: Vec<&[Value]> = r.iter().filter(|row| hash_key(row, &all) % 4 == 1).collect();
    let part = Relation::from_rows(r.schema().clone(), part);
    let table = part.store.table.get().unwrap();
    let low = &table.groups[..table.groups.len() / 2];
    let used_low: usize = low.iter().map(full_slots).sum();
    assert!(
        used_low * 10 >= part.len() * 3 && used_low * 10 <= part.len() * 7,
        "{used_low} of {} rows in the lower half",
        part.len()
    );
}

#[test]
fn relations_that_are_only_built_and_iterated_never_build_a_table() {
    let schema = Schema::new(vec![sym(1), sym(2)]);
    let mut rows = Rows::new(2);
    (0..1_000i64).for_each(|i| rows.push(&[Value::int(i), Value::int(i % 37)]));
    let r = Relation::from_distinct(schema, rows);
    let mut edges = Rows::new(2);
    [[1, 100], [5, 500], [5, 501]].iter().for_each(|e| edges.push(&e.map(Value::int)));
    let edges = Relation::from_distinct(Schema::new(vec![sym(2), sym(3)]), edges);
    let renamed = r.rename(sym(1), sym(9));
    let filtered = r.filter(|row| row[1] == Value::int(5));
    let joined = r.join(&edges);
    let kept = r.antijoin(&edges);
    assert_eq!((renamed.len(), filtered.len(), joined.len()), (1_000, 27, 2 * 27 + 27));
    assert_eq!(kept.len(), 1_000 - 2 * 27);
    let mut merged = filtered.clone();
    merged.extend_distinct(kept.rows());
    for (name, rel) in [
        ("source", &r),
        ("join build side", &edges),
        ("rename", &renamed),
        ("filter", &filtered),
        ("join", &joined),
        ("antijoin", &kept),
        ("distinct merge", &merged),
        ("clone", &r.clone()),
    ] {
        assert_eq!(rel.iter().count(), rel.len());
        assert!(!rel.has_table(), "{name} built a table");
    }
    // The first question does; set operations ask it of the right side.
    assert!(r.contains(&[Value::int(3), Value::int(3)]));
    assert!(r.has_table());
    let _ = filtered.minus(&renamed.rename(sym(9), sym(1)));
    assert!(!filtered.has_table());
}

#[test]
fn nullary_relations_are_true_and_false() {
    let unit = |present: bool| {
        let mut r = Relation::new(Schema::empty());
        if present {
            assert!(r.insert([]));
            assert!(!r.insert([]), "the empty row is there once");
        }
        r
    };
    let (yes, no) = (unit(true), unit(false));
    assert_eq!((yes.len(), no.len()), (1, 0));
    assert_eq!(yes.iter().collect::<Vec<_>>(), vec![&[] as &[Value]]);
    assert!(yes.contains(&[]) && !no.contains(&[]));
    assert_ne!(yes, no);
    let r = rel(&[1], &[&[1], &[2]]);
    // Join: true is the identity, false annihilates.
    assert_eq!(r.join(&yes), r);
    assert_eq!(yes.join(&r), r);
    assert!(r.join(&no).is_empty() && no.join(&r).is_empty());
    assert_eq!(yes.join(&yes), yes);
    // Antijoin: nothing survives true, everything survives false.
    assert!(r.antijoin(&yes).is_empty());
    assert_eq!(r.antijoin(&no), r);
    assert!(yes.antijoin(&yes).is_empty());
    assert_eq!(yes.antijoin(&no), yes);
    // Union and difference are the boolean ones.
    assert_eq!(yes.union(&no), yes);
    assert_eq!(no.union(&no), no);
    assert_eq!(yes.minus(&yes), no);
    assert_eq!(yes.minus(&no), yes);
    // A projection onto no columns asks "is there a row".
    assert_eq!(r.antiproject(&[sym(1)]), yes);
    assert_eq!(rel(&[1], &[]).antiproject(&[sym(1)]), no);
    let mut gone = yes.clone();
    assert!(gone.remove(&[]) && !gone.remove(&[]));
    assert_eq!(gone, no);
}
