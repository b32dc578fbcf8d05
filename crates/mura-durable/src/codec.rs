//! Binary codec for the engine types, on top of [`mura_core::codec`].
//!
//! The bounds-checked reader, the primitive writers and the row block are
//! the workspace's one codec in `mura-core`; this module adds the layouts
//! of the types only the durability layer persists (schemas, terms, delta
//! batches, databases, feedback state): `u32`-length-prefixed sequences,
//! one tag byte per enum variant. Every decode returns a typed
//! [`CodecError`] — decoding untrusted bytes never panics.
//! Encoding is canonical: maps are emitted in sorted key order and
//! relation rows in sorted row order, so equal states produce equal bytes
//! (checksums and tests can compare encodings directly).

use mura_core::codec::{get_rows, put_rows};
pub use mura_core::codec::{put_f64, put_i64, put_string, put_u32, put_u64, CodecError, Cur};
use mura_core::{Database, Pred, Relation, Schema, Sym, Term, Value, ValueKind};
use mura_ivm::{DeltaBatch, RelDelta};
use mura_rewrite::FeedbackState;
use std::sync::Arc;

/// Guards against stack exhaustion when decoding adversarial nesting.
const MAX_TERM_DEPTH: usize = 512;

/// Encodes a symbol (its dictionary index).
pub fn put_sym(out: &mut Vec<u8>, s: Sym) {
    put_u32(out, s.0);
}

/// Decodes a symbol.
pub fn get_sym(cur: &mut Cur) -> Result<Sym, CodecError> {
    Ok(Sym(cur.u32()?))
}

/// Encodes a value (tag 0 = `Int`, 1 = `Str`).
pub fn put_value(out: &mut Vec<u8>, v: Value) {
    match v.kind() {
        ValueKind::Int(i) => {
            out.push(0);
            put_i64(out, i);
        }
        ValueKind::Str(s) => {
            out.push(1);
            put_sym(out, s);
        }
    }
}

/// Decodes a value.
pub fn get_value(cur: &mut Cur) -> Result<Value, CodecError> {
    let at = cur.pos();
    match cur.u8()? {
        0 => Value::try_int(cur.i64()?)
            .ok_or(CodecError::Invalid { at, what: "integer outside the value domain" }),
        1 => Ok(Value::sym(get_sym(cur)?)),
        tag => Err(CodecError::BadTag { at, tag, what: "Value" }),
    }
}

/// Encodes a schema (column symbols; already sorted by construction).
pub fn put_schema(out: &mut Vec<u8>, s: &Schema) {
    put_u32(out, s.arity() as u32);
    for &c in s.columns() {
        put_sym(out, c);
    }
}

/// Decodes a schema.
pub fn get_schema(cur: &mut Cur) -> Result<Schema, CodecError> {
    let at = cur.pos();
    let n = cur.seq_len(4)?;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        cols.push(get_sym(cur)?);
    }
    let mut sorted = cols.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted != cols {
        return Err(CodecError::Invalid { at, what: "schema columns (unsorted or duplicated)" });
    }
    Ok(Schema::new(cols))
}

/// Encodes a relation: schema, then one row block of the rows in sorted
/// order so the encoding is canonical. The order is a permutation of row
/// ids; the rows are read where they are.
pub fn put_relation(out: &mut Vec<u8>, r: &Relation) {
    put_schema(out, r.schema());
    let (rows, ids) = (r.rows(), r.sorted_ids());
    put_rows(out, r.schema().arity(), ids.iter().map(|&id| rows.get(id as usize)));
}

/// Decodes a relation. The block is deduplicated as it is taken over: the
/// bytes come from a file, which need not hold what [`put_relation`] wrote.
pub fn get_relation(cur: &mut Cur) -> Result<Relation, CodecError> {
    let schema = get_schema(cur)?;
    let rows = get_rows(cur, schema.arity())?.decode();
    Ok(Relation::from_bag(schema, rows))
}

/// Encodes a filter predicate.
pub fn put_pred(out: &mut Vec<u8>, p: &Pred) {
    match p {
        Pred::Eq(c, v) => {
            out.push(0);
            put_sym(out, *c);
            put_value(out, *v);
        }
        Pred::Neq(c, v) => {
            out.push(1);
            put_sym(out, *c);
            put_value(out, *v);
        }
        Pred::EqCol(a, b) => {
            out.push(2);
            put_sym(out, *a);
            put_sym(out, *b);
        }
    }
}

/// Decodes a filter predicate.
pub fn get_pred(cur: &mut Cur) -> Result<Pred, CodecError> {
    let at = cur.pos();
    match cur.u8()? {
        0 => Ok(Pred::Eq(get_sym(cur)?, get_value(cur)?)),
        1 => Ok(Pred::Neq(get_sym(cur)?, get_value(cur)?)),
        2 => Ok(Pred::EqCol(get_sym(cur)?, get_sym(cur)?)),
        tag => Err(CodecError::BadTag { at, tag, what: "Pred" }),
    }
}

/// Encodes a μ-RA term (one tag byte per constructor, recursive).
pub fn put_term(out: &mut Vec<u8>, t: &Term) {
    match t {
        Term::Var(v) => {
            out.push(0);
            put_sym(out, *v);
        }
        Term::Cst(r) => {
            out.push(1);
            put_relation(out, r);
        }
        Term::Filter(ps, inner) => {
            out.push(2);
            put_u32(out, ps.len() as u32);
            for p in ps {
                put_pred(out, p);
            }
            put_term(out, inner);
        }
        Term::Rename(from, to, inner) => {
            out.push(3);
            put_sym(out, *from);
            put_sym(out, *to);
            put_term(out, inner);
        }
        Term::AntiProject(cols, inner) => {
            out.push(4);
            put_u32(out, cols.len() as u32);
            for &c in cols {
                put_sym(out, c);
            }
            put_term(out, inner);
        }
        Term::Join(a, b) => {
            out.push(5);
            put_term(out, a);
            put_term(out, b);
        }
        Term::Antijoin(a, b) => {
            out.push(6);
            put_term(out, a);
            put_term(out, b);
        }
        Term::Union(a, b) => {
            out.push(7);
            put_term(out, a);
            put_term(out, b);
        }
        Term::Fix(v, body) => {
            out.push(8);
            put_sym(out, *v);
            put_term(out, body);
        }
    }
}

/// Decodes a μ-RA term.
pub fn get_term(cur: &mut Cur) -> Result<Term, CodecError> {
    get_term_at(cur, 0)
}

fn get_term_at(cur: &mut Cur, depth: usize) -> Result<Term, CodecError> {
    let at = cur.pos();
    if depth > MAX_TERM_DEPTH {
        return Err(CodecError::Invalid { at, what: "term nesting depth" });
    }
    match cur.u8()? {
        0 => Ok(Term::Var(get_sym(cur)?)),
        1 => Ok(Term::Cst(Arc::new(get_relation(cur)?))),
        2 => {
            let n = cur.seq_len(5)?;
            let mut ps = Vec::with_capacity(n);
            for _ in 0..n {
                ps.push(get_pred(cur)?);
            }
            Ok(Term::Filter(ps, Box::new(get_term_at(cur, depth + 1)?)))
        }
        3 => {
            let from = get_sym(cur)?;
            let to = get_sym(cur)?;
            Ok(Term::Rename(from, to, Box::new(get_term_at(cur, depth + 1)?)))
        }
        4 => {
            let n = cur.seq_len(4)?;
            let mut cols = Vec::with_capacity(n);
            for _ in 0..n {
                cols.push(get_sym(cur)?);
            }
            Ok(Term::AntiProject(cols, Box::new(get_term_at(cur, depth + 1)?)))
        }
        5 => Ok(Term::Join(
            Box::new(get_term_at(cur, depth + 1)?),
            Box::new(get_term_at(cur, depth + 1)?),
        )),
        6 => Ok(Term::Antijoin(
            Box::new(get_term_at(cur, depth + 1)?),
            Box::new(get_term_at(cur, depth + 1)?),
        )),
        7 => Ok(Term::Union(
            Box::new(get_term_at(cur, depth + 1)?),
            Box::new(get_term_at(cur, depth + 1)?),
        )),
        8 => {
            let v = get_sym(cur)?;
            Ok(Term::Fix(v, Box::new(get_term_at(cur, depth + 1)?)))
        }
        tag => Err(CodecError::BadTag { at, tag, what: "Term" }),
    }
}

/// Encodes a delta batch. Relations are emitted in sorted symbol order.
pub fn put_delta_batch(out: &mut Vec<u8>, batch: &DeltaBatch) {
    let mut keys: Vec<Sym> = batch.rels.keys().copied().collect();
    keys.sort_unstable();
    put_u32(out, keys.len() as u32);
    for k in keys {
        let d = &batch.rels[&k];
        put_sym(out, k);
        put_relation(out, &d.insert);
        put_relation(out, &d.delete);
    }
}

/// Decodes a delta batch. Relations must come as [`put_delta_batch`]
/// writes them, sorted and unique: one named twice is not two deltas.
pub fn get_delta_batch(cur: &mut Cur) -> Result<DeltaBatch, CodecError> {
    let n = cur.seq_len(4)?;
    let mut batch = DeltaBatch::new();
    let mut last = None;
    for _ in 0..n {
        let at = cur.pos();
        let k = get_sym(cur)?;
        if last.is_some_and(|l| l >= k) {
            return Err(CodecError::Invalid {
                at,
                what: "delta batch relations (unsorted or duplicated)",
            });
        }
        last = Some(k);
        let insert = get_relation(cur)?;
        let delete = get_relation(cur)?;
        batch.rels.insert(k, RelDelta { insert, delete });
    }
    Ok(batch)
}

/// Encodes a full database: dictionary (names in symbol order — generated
/// symbols are numbers and have no entry), constants, and relations, both
/// in sorted symbol order.
pub fn put_database(out: &mut Vec<u8>, db: &Database) {
    let dict = db.dict();
    put_u32(out, dict.len() as u32);
    for name in dict.names() {
        put_string(out, name);
    }

    let mut consts: Vec<(Sym, Value)> = db.constants().collect();
    consts.sort_unstable_by_key(|(s, _)| *s);
    put_u32(out, consts.len() as u32);
    for (s, v) in consts {
        put_sym(out, s);
        put_value(out, v);
    }

    let mut rels: Vec<(Sym, &Relation)> = db.relations().collect();
    rels.sort_unstable_by_key(|(s, _)| *s);
    put_u32(out, rels.len() as u32);
    for (s, r) in rels {
        put_sym(out, s);
        put_relation(out, r);
    }
}

/// Decodes a database. Symbols resolve identically to the encoded one:
/// names are re-interned in symbol order.
pub fn get_database(cur: &mut Cur) -> Result<Database, CodecError> {
    let mut db = Database::new();
    let n_names = cur.seq_len(4)?;
    for _ in 0..n_names {
        let name = cur.string()?;
        db.intern(&name);
    }

    let n_consts = cur.seq_len(5)?;
    for _ in 0..n_consts {
        let at = cur.pos();
        let s = get_sym(cur)?;
        let v = get_value(cur)?;
        if s.index() >= db.dict().len() {
            return Err(CodecError::Invalid { at, what: "constant symbol" });
        }
        let name = db.dict().resolve(s).to_string();
        db.bind_constant(&name, v);
    }

    let n_rels = cur.seq_len(5)?;
    for _ in 0..n_rels {
        let at = cur.pos();
        let s = get_sym(cur)?;
        if s.index() >= db.dict().len() {
            return Err(CodecError::Invalid { at, what: "relation symbol" });
        }
        let r = get_relation(cur)?;
        db.insert_relation_sym(s, r);
    }
    Ok(db)
}

/// Encodes feedback-store state (already sorted by
/// [`FeedbackStore::export_state`](mura_rewrite::FeedbackStore::export_state)).
pub fn put_feedback(out: &mut Vec<u8>, fb: &FeedbackState) {
    put_u64(out, fb.generation);
    put_u32(out, fb.entries.len() as u32);
    for (key, rows) in &fb.entries {
        put_u64(out, *key);
        put_f64(out, *rows);
    }
}

/// Decodes feedback-store state.
pub fn get_feedback(cur: &mut Cur) -> Result<FeedbackState, CodecError> {
    let generation = cur.u64()?;
    let n = cur.seq_len(16)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push((cur.u64()?, cur.f64()?));
    }
    Ok(FeedbackState { generation, entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN_RELATION_HEX: &str = concat!(
        "0200000003000000050000000200000005000000000000000303",
        "00feffffffffffffff000500000000000000",
        "000c0000000000000000d8ffffffffffffff",
        "000c0000000000000000fcffffffffffffff",
        "007011010000000000010900000000000000",
        "010100000000000000000c00000000000000",
    );
    const GOLDEN_TERM_KEY: u64 = 320_078_368_045_480_595;
    use mura_rewrite::FeedbackStore;

    fn sample_db() -> Database {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        db.insert_relation("edge", Relation::from_pairs(src, dst, [(1, 2), (2, 3), (3, 1)]));
        db.insert_relation("empty", Relation::new(Schema::new(vec![src])));
        db.bind_constant("Japan", Value::node(7));
        db.dict_mut().fresh("X");
        db
    }

    #[test]
    fn value_and_relation_round_trip() {
        let db = sample_db();
        let r = db.relation_by_name("edge").unwrap();
        let mut out = Vec::new();
        put_relation(&mut out, r);
        let mut cur = Cur::new(&out);
        let back = get_relation(&mut cur).unwrap();
        cur.expect_done().unwrap();
        assert_eq!(back.schema(), r.schema());
        assert_eq!(back.sorted_rows(), r.sorted_rows());
    }

    #[test]
    fn term_round_trip() {
        let mut db = sample_db();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let x = db.dict_mut().fresh("fix");
        let t = Term::var(db.intern("edge"))
            .filter(Pred::Eq(src, Value::node(1)))
            .filter(Pred::EqCol(src, dst))
            .join(Term::cst(Relation::from_pairs(src, dst, [(4, 5)])))
            .union(Term::var(x).rename(src, dst).antiproject(dst))
            .antijoin(Term::var(db.intern("edge")))
            .fix(x);
        let mut out = Vec::new();
        put_term(&mut out, &t);
        let mut cur = Cur::new(&out);
        let back = get_term(&mut cur).unwrap();
        cur.expect_done().unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn relation_bytes_and_term_keys_are_the_recorded_ones() {
        // Canonical forms other state depends on: snapshot bytes and the
        // term keys caches and views are filed under (formats 3 and 4
        // changed neither: they dropped the dictionary's counter and the
        // feedback store's churn bookkeeping).
        // Rows go in unsorted and mixed; what comes out was recorded when
        // both were produced from a sorted vector of boxed rows.
        assert_eq!(crate::snapshot::SNAP_FORMAT, 4);
        let rel = Relation::from_rows(
            Schema::new(vec![Sym(3), Sym(5)]),
            [
                [Value::int(70_000), Value::sym(Sym(9))],
                [Value::int(-2), Value::int(5)],
                [Value::int(12), Value::int(-40)],
                [Value::sym(Sym(1)), Value::int(12)],
                [Value::int(12), Value::int(-4)],
            ],
        );
        let mut out = Vec::new();
        put_relation(&mut out, &rel);
        let hex: String = out.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_RELATION_HEX);
        let term = Term::cst(rel).rename(Sym(3), Sym(4)).union(Term::var(Sym(8))).fix(Sym(8));
        assert_eq!(mura_core::term_key(&term), GOLDEN_TERM_KEY);
    }

    #[test]
    fn database_round_trip_preserves_symbols() {
        let db = sample_db();
        let mut out = Vec::new();
        put_database(&mut out, &db);
        let mut cur = Cur::new(&out);
        let back = get_database(&mut cur).unwrap();
        cur.expect_done().unwrap();
        assert_eq!(back.dict().len(), db.dict().len());
        for (i, name) in db.dict().names().enumerate() {
            assert_eq!(back.dict().resolve(Sym(i as u32)), name);
        }
        assert_eq!(back.constant("Japan"), Some(Value::node(7)));
        assert_eq!(
            back.relation_by_name("edge").unwrap().sorted_rows(),
            db.relation_by_name("edge").unwrap().sorted_rows()
        );
        assert_eq!(back.relation_count(), db.relation_count());
        // Re-encoding is byte-identical (canonical form).
        let mut out2 = Vec::new();
        put_database(&mut out2, &back);
        assert_eq!(out, out2);
    }

    #[test]
    fn delta_batch_round_trip() {
        let db = sample_db();
        let edge = db.dict().lookup("edge").unwrap();
        let src = db.dict().lookup("src").unwrap();
        let dst = db.dict().lookup("dst").unwrap();
        let mut batch = DeltaBatch::new();
        batch
            .push_insert(&db, edge, vec![Value::node(9), Value::node(10)].into_boxed_slice())
            .unwrap();
        batch
            .push_delete(&db, edge, vec![Value::node(1), Value::node(2)].into_boxed_slice())
            .unwrap();
        let _ = (src, dst);
        let mut out = Vec::new();
        put_delta_batch(&mut out, &batch);
        let mut cur = Cur::new(&out);
        let back = get_delta_batch(&mut cur).unwrap();
        cur.expect_done().unwrap();
        assert_eq!(back.rels.len(), 1);
        let d = &back.rels[&edge];
        assert_eq!(d.insert.sorted_rows(), batch.rels[&edge].insert.sorted_rows());
        assert_eq!(d.delete.sorted_rows(), batch.rels[&edge].delete.sorted_rows());
    }

    #[test]
    fn delta_batch_naming_a_relation_twice_is_invalid() {
        let db = sample_db();
        let mut keys = [db.dict().lookup("edge").unwrap(), db.dict().lookup("empty").unwrap()];
        keys.sort_unstable();
        let [lo, hi] = keys;
        let encoded = |keys: [Sym; 2]| {
            let mut out = Vec::new();
            put_u32(&mut out, 2);
            for k in keys {
                put_sym(&mut out, k);
                put_relation(&mut out, db.relation(k).unwrap());
                put_relation(&mut out, db.relation(k).unwrap());
            }
            out
        };
        assert_eq!(get_delta_batch(&mut Cur::new(&encoded([lo, hi]))).unwrap().rels.len(), 2);
        for keys in [[lo, lo], [hi, lo]] {
            let got = get_delta_batch(&mut Cur::new(&encoded(keys)));
            assert!(matches!(got, Err(CodecError::Invalid { .. })), "{keys:?}: {got:?}");
        }
    }

    #[test]
    fn feedback_round_trip() {
        let mut fb = FeedbackStore::new();
        let db = sample_db();
        let edge = db.dict().lookup("edge").unwrap();
        let fix = Term::var(edge).union(Term::var(Sym(90))).fix(Sym(90));
        fb.record_plan(&fix, &|_| Some(40.0));
        let state = fb.export_state();
        assert_eq!(state.entries.len(), 1);
        let mut out = Vec::new();
        put_feedback(&mut out, &state);
        let mut cur = Cur::new(&out);
        let back = get_feedback(&mut cur).unwrap();
        cur.expect_done().unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn truncated_and_garbage_inputs_fail_typed_not_panic() {
        let db = sample_db();
        let mut out = Vec::new();
        put_database(&mut out, &db);
        for cut in 0..out.len() {
            let mut cur = Cur::new(&out[..cut]);
            assert!(get_database(&mut cur).is_err(), "cut at {cut} decoded");
        }
        // Bad value tag.
        let mut cur = Cur::new(&[9, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(get_value(&mut cur), Err(CodecError::BadTag { .. })));
        // An integer in the symbols' range.
        let mut reserved = vec![0];
        put_i64(&mut reserved, mura_core::value::SYM_BASE);
        assert!(matches!(
            get_value(&mut Cur::new(&reserved)),
            Err(CodecError::Invalid { at: 0, .. })
        ));
        // Absurd sequence length cannot allocate.
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        let mut cur = Cur::new(&huge);
        assert!(get_database(&mut cur).is_err());
    }
}
