//! String interning and the database catalog.

use crate::fxhash::{hash_u64, FxHashMap, FxHasher};
use crate::relation::Relation;
use crate::value::{Sym, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Hasher of the dictionary's name map: [`FxHasher`]'s word loop followed
/// by the [`hash_u64`] finaliser. A bare Fx hash of a short string leaves
/// its low bits a function of the first word's top five bits only — the
/// 65,536 names `m#100000..m#165535` share 32 probe starts — and the
/// table picks its bucket from the low bits. (Not a change to
/// `FxHasher::finish`: row placement hashes through that.)
#[derive(Default, Clone)]
struct NameHasher(FxHasher);

impl Hasher for NameHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn finish(&self) -> u64 {
        hash_u64(self.0.finish())
    }
}

/// Interns strings to [`Sym`]s and resolves them back; numbers the
/// generated symbols, which it does not store.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    map: HashMap<Box<str>, Sym, BuildHasherDefault<NameHasher>>,
    names: Vec<Box<str>>,
    /// Number of the last generated symbol handed out.
    generated: u32,
}

/// Where a dictionary's numbering of generated symbols stood
/// ([`Dictionary::mark`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DictMark(u32);

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Interns `s`, returning its symbol (stable across calls).
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Sym(self.names.len() as u32);
        assert!(!sym.is_generated(), "the name table is full");
        self.names.push(s.into());
        self.map.insert(s.into(), sym);
        sym
    }

    /// Looks up an already-interned string.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.map.get(s).copied()
    }

    /// The name of a symbol: the interned string, or `prefix#number` for a
    /// generated one.
    ///
    /// # Panics
    /// Panics if an interned symbol comes from another dictionary.
    pub fn resolve(&self, sym: Sym) -> Cow<'_, str> {
        if sym.is_generated() {
            Cow::Owned(sym.to_string())
        } else {
            Cow::Borrowed(&self.names[sym.index()])
        }
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Interned names in symbol order (`Sym(i)` is the `i`-th name). A
    /// dictionary rebuilt by interning these names in order resolves every
    /// existing symbol identically — the basis of snapshot restore.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|n| n.as_ref())
    }

    /// The next generated symbol, numbered one above the last — for
    /// fixpoint variables and intermediate columns, which must collide
    /// neither with anything user-visible nor with each other inside one
    /// term. Nothing is stored: the symbol is its number, `prefix` what it
    /// prints with.
    pub fn fresh(&mut self, prefix: &str) -> Sym {
        self.generated += 1;
        Sym::generated(prefix, self.generated)
    }

    /// Where the numbering stands, to come back to with
    /// [`Dictionary::truncate`].
    pub fn mark(&self) -> DictMark {
        DictMark(self.generated)
    }

    /// Puts the numbering back to `mark`: the next fresh symbols are the
    /// ones that followed it before. The caller must hold no symbol handed
    /// out since, or have moved its numbers out of the way — the rewriter
    /// renumbers the plan it keeps.
    pub fn truncate(&mut self, mark: DictMark) {
        self.generated = mark.0;
    }

    /// Makes the next fresh symbols number above `number`: what a caller
    /// does before it mints symbols into a term that already holds
    /// generated ones.
    pub fn number_above(&mut self, number: u32) {
        self.generated = self.generated.max(number);
    }
}

/// Exact statistics of one stored relation, kept with its catalog entry:
/// computed by the first [`Database::relation_stats`] that asks, shared by
/// clones of the database, dropped when the relation is replaced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationStats {
    /// Number of rows.
    pub rows: usize,
    /// Number of distinct values per column, in schema order.
    pub distinct: Box<[usize]>,
}

impl RelationStats {
    fn scan(rel: &Relation) -> RelationStats {
        #[cfg(test)]
        tests::STATS_SCANS.with(|n| n.set(n.get() + 1));
        let mut seen = crate::fxhash::FxHashSet::<Value>::default();
        let distinct = (0..rel.schema().arity())
            .map(|i| {
                seen.clear();
                seen.extend(rel.iter().map(|row| row[i]));
                seen.len()
            })
            .collect();
        RelationStats { rows: rel.len(), distinct }
    }
}

/// Where catalog entry versions are drawn from: one counter for the whole
/// process, so a version names one relation value in every database here.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

fn next_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

#[derive(Debug, Clone)]
struct Entry {
    rel: Relation,
    stats: OnceLock<RelationStats>,
    /// Drawn whenever the contents may change, kept by clones: see
    /// [`Database::relation_version`].
    version: u64,
}

impl Entry {
    fn new(rel: Relation) -> Entry {
        Entry { rel, stats: OnceLock::new(), version: next_version() }
    }
}

/// A named-relation catalog plus its dictionary.
///
/// Free variables of μ-RA terms are resolved against the catalog during
/// evaluation. `Database` also records the standard `src`/`dst` column
/// symbols used by the graph frontends.
#[derive(Debug, Default, Clone)]
pub struct Database {
    dict: Dictionary,
    rels: FxHashMap<Sym, Entry>,
    constants: FxHashMap<Sym, crate::value::Value>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Shared dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Mutable dictionary (interning query constants, fresh columns…).
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        &mut self.dict
    }

    /// Interns a string in the database dictionary.
    pub fn intern(&mut self, s: &str) -> Sym {
        self.dict.intern(s)
    }

    /// Registers (or replaces) relation `name`.
    pub fn insert_relation(&mut self, name: &str, rel: Relation) -> Sym {
        let sym = self.dict.intern(name);
        self.rels.insert(sym, Entry::new(rel));
        sym
    }

    /// Registers a relation under an existing symbol.
    pub fn insert_relation_sym(&mut self, name: Sym, rel: Relation) {
        self.rels.insert(name, Entry::new(rel));
    }

    /// Resolves a relation by symbol.
    pub fn relation(&self, name: Sym) -> Option<&Relation> {
        self.rels.get(&name).map(|e| &e.rel)
    }

    /// The stored relation, to be changed in place. Its statistics and its
    /// version go with the old contents: the next
    /// [`Database::relation_stats`] rescans it, and it has a new
    /// [`Database::relation_version`].
    pub fn relation_mut(&mut self, name: Sym) -> Option<&mut Relation> {
        let entry = self.rels.get_mut(&name)?;
        entry.stats = OnceLock::new();
        entry.version = next_version();
        Some(&mut entry.rel)
    }

    /// The version of relation `name`, drawn from one process-wide counter
    /// when it was registered and whenever [`Database::relation_mut`] hands
    /// it out, and kept by clones of the database: equal versions mean
    /// equal contents, in any database of this process. A version drawn
    /// later is larger than every version drawn before it.
    pub fn relation_version(&self, name: Sym) -> Option<u64> {
        self.rels.get(&name).map(|e| e.version)
    }

    /// Resolves a relation by name.
    pub fn relation_by_name(&self, name: &str) -> Option<&Relation> {
        self.dict.lookup(name).and_then(|s| self.relation(s))
    }

    /// Iterates over (name, relation) pairs.
    pub fn relations(&self) -> impl Iterator<Item = (Sym, &Relation)> {
        self.rels.iter().map(|(k, v)| (*k, &v.rel))
    }

    /// Row count and per-column distinct counts of relation `name`, exact.
    /// The first call after the relation was registered scans it; later
    /// calls, also on clones of the database, read the kept value.
    pub fn relation_stats(&self, name: Sym) -> Option<&RelationStats> {
        let entry = self.rels.get(&name)?;
        Some(entry.stats.get_or_init(|| RelationStats::scan(&entry.rel)))
    }

    /// Number of registered relations.
    pub fn relation_count(&self) -> usize {
        self.rels.len()
    }

    /// Total number of rows across all relations.
    pub fn total_rows(&self) -> usize {
        self.rels.values().map(|e| e.rel.len()).sum()
    }

    /// Registers a named constant (e.g. `Japan` → node id). Query frontends
    /// resolve bare identifiers in queries against this registry.
    pub fn bind_constant(&mut self, name: &str, value: crate::value::Value) -> Sym {
        let sym = self.dict.intern(name);
        self.constants.insert(sym, value);
        sym
    }

    /// Looks up a named constant by string.
    pub fn constant(&self, name: &str) -> Option<crate::value::Value> {
        self.dict.lookup(name).and_then(|s| self.constants.get(&s)).copied()
    }

    /// Iterates over registered constants.
    pub fn constants(&self) -> impl Iterator<Item = (Sym, crate::value::Value)> + '_ {
        self.constants.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use std::cell::Cell;
    use std::hash::BuildHasher;

    thread_local! {
        /// Relation scans [`RelationStats::scan`] ran on this thread.
        pub(super) static STATS_SCANS: Cell<usize> = const { Cell::new(0) };
    }

    fn scans() -> usize {
        STATS_SCANS.with(Cell::get)
    }

    #[test]
    fn generated_names_spread_over_the_low_hash_bits() {
        // A random function leaves 0.63 x 65,536 of the low-16-bit values
        // taken; the unfinalised hash took 32 (1,024 for 9-character names).
        let hasher = BuildHasherDefault::<NameHasher>::default();
        for (prefix, first) in
            [("m", 100_000u32), ("X", 100_000), ("m", 1_000_000), ("X", 1_000_000)]
        {
            let mut taken = vec![false; 1 << 16];
            for n in first..first + (1 << 16) {
                taken[(hasher.hash_one(format!("{prefix}#{n}").as_str()) & 0xffff) as usize] = true;
            }
            let distinct = taken.iter().filter(|t| **t).count();
            assert!(
                distinct * 100 >= 55 * (1 << 16),
                "{prefix}#{first}..: {distinct} distinct low-16-bit values"
            );
        }
    }

    #[test]
    fn truncate_returns_to_the_mark() {
        let mut d = Dictionary::new();
        let a = d.intern("a");
        let kept = d.fresh("X");
        let mark = d.mark();
        let scratch = d.fresh("X");
        d.intern("b");
        assert!(kept < scratch && a < kept, "by number, after every name");
        d.truncate(mark);
        assert_eq!(d.mark(), mark);
        // Names stay; generated symbols were never stored.
        assert_eq!((d.len(), d.lookup("b")), (2, Some(Sym(1))));
        assert_eq!((d.resolve(a), d.resolve(kept)), ("a".into(), "X#1".into()));
        // The symbols that followed the mark follow it again.
        assert_eq!(d.fresh("X"), scratch);
        // Numbering above a term's symbols only ever moves forward.
        d.number_above(1);
        assert_eq!(d.fresh("m").number(), Some(3));
        d.number_above(40);
        assert_eq!(d.fresh("m").number(), Some(41));
    }

    #[test]
    fn statistics_are_kept_with_the_relation_and_dropped_with_it() {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let e = db.insert_relation("E", Relation::from_pairs(src, dst, [(1, 2), (1, 3), (2, 3)]));
        let f = db.insert_relation("F", Relation::from_pairs(src, dst, [(7, 7)]));
        let before = scans();
        let expect_e = RelationStats { rows: 3, distinct: [2, 2].into() };
        assert_eq!(db.relation_stats(e), Some(&expect_e));
        assert_eq!(db.relation_stats(f), Some(&RelationStats { rows: 1, distinct: [1, 1].into() }));
        assert_eq!(scans() - before, 2);
        // Asked again, here or on a clone: read, not scanned.
        let copy = db.clone();
        assert_eq!(db.relation_stats(e), Some(&expect_e));
        assert_eq!(copy.relation_stats(e), Some(&expect_e));
        assert_eq!(copy.relation_stats(f), db.relation_stats(f));
        assert_eq!(scans() - before, 2);
        // Replacing E rescans E and nothing else; the clone keeps its own.
        db.insert_relation_sym(e, Relation::from_pairs(src, dst, [(1, 2), (4, 5), (6, 5), (8, 9)]));
        assert_eq!(db.relation_stats(e), Some(&RelationStats { rows: 4, distinct: [4, 3].into() }));
        assert!(db.relation_stats(f).is_some());
        assert_eq!(scans() - before, 3);
        assert_eq!(copy.relation_stats(e), Some(&expect_e));
        assert_eq!(scans() - before, 3);
        // Changing F in place rescans F; the clone keeps rows and statistics.
        let row = [Value::node(7), Value::node(8)];
        assert!(db.relation_mut(f).unwrap().insert(row));
        assert_eq!(db.relation_stats(f), Some(&RelationStats { rows: 2, distinct: [1, 2].into() }));
        assert_eq!(
            copy.relation_stats(f),
            Some(&RelationStats { rows: 1, distinct: [1, 1].into() })
        );
        assert_eq!(scans() - before, 4);
        assert_eq!(db.relation_stats(Sym(999)), None);
        db.insert_relation("nullary", Relation::new(Schema::empty()));
        let nullary = db.dict().lookup("nullary").unwrap();
        assert_eq!(
            db.relation_stats(nullary),
            Some(&RelationStats { rows: 0, distinct: [].into() })
        );
    }

    #[test]
    fn versions_are_drawn_on_every_change_and_kept_by_clones() {
        let mut db = Database::new();
        let (src, dst) = (db.intern("src"), db.intern("dst"));
        let e = db.insert_relation("E", Relation::from_pairs(src, dst, [(1, 2)]));
        let f = db.insert_relation("F", Relation::from_pairs(src, dst, [(3, 4)]));
        let (ve, vf) = (db.relation_version(e).unwrap(), db.relation_version(f).unwrap());
        assert!(ve < vf, "later draws are larger");
        let copy = db.clone();
        assert_eq!(copy.relation_version(e), Some(ve));
        // Handed out to change: a new version, above every earlier one, on
        // this database only.
        db.relation_mut(e).unwrap();
        let ve2 = db.relation_version(e).unwrap();
        assert!(ve2 > vf);
        assert_eq!((copy.relation_version(e), db.relation_version(f)), (Some(ve), Some(vf)));
        db.insert_relation_sym(f, Relation::from_pairs(src, dst, [(3, 4)]));
        assert!(db.relation_version(f).unwrap() > ve2, "replaced, even by equal rows");
        assert_eq!(db.relation_version(Sym(999)), None);
    }

    #[test]
    fn intern_is_stable() {
        let mut d = Dictionary::new();
        let a1 = d.intern("a");
        let b = d.intern("b");
        let a2 = d.intern("a");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(d.resolve(a1), "a");
        assert_eq!(d.lookup("b"), Some(b));
        assert_eq!(d.lookup("zzz"), None);
    }

    #[test]
    fn fresh_never_collides() {
        let mut d = Dictionary::new();
        // A name that looks generated is a name.
        let named = d.intern("X#1");
        let f1 = d.fresh("X");
        let f2 = d.fresh("X");
        assert_ne!(f1, f2);
        assert_eq!((d.resolve(f1), d.resolve(named)), ("X#1".into(), "X#1".into()));
        assert!(f1 != named && f1.is_generated() && !named.is_generated());
        assert_eq!(d.len(), 1, "generated symbols enter no table");
    }

    #[test]
    fn database_round_trip() {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let e = db.insert_relation("E", Relation::from_pairs(src, dst, [(1, 2)]));
        assert_eq!(db.relation(e).unwrap().len(), 1);
        assert_eq!(db.relation_by_name("E").unwrap().len(), 1);
        assert!(db.relation_by_name("missing").is_none());
        db.insert_relation("empty", Relation::new(Schema::empty()));
        assert_eq!(db.relation_count(), 2);
        assert_eq!(db.total_rows(), 1);
    }
}
