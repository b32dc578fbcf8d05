//! Values and interned symbols.
//!
//! μ-RA tuples map column names to values. Values in graph workloads are
//! overwhelmingly node identifiers and interned strings (labels, constants
//! such as `Japan`), so [`Value`] is one `Copy` word holding a 64-bit
//! integer or an interned symbol. Symbols take the top 2³² words of the
//! `i64` range, from [`SYM_BASE`] up; an integer at or above it is outside
//! the domain, and every reader of outside input (query and Datalog
//! constants, edge lists, row blocks, durable values) refuses it with a
//! typed error. Strings are interned once in a
//! [`Dictionary`](crate::catalog::Dictionary) and referenced by [`Sym`].

use std::fmt;

/// A name: an interned string (index into a
/// [`Dictionary`](crate::catalog::Dictionary)) or a *generated* symbol, a
/// number from a space of its own.
///
/// `Sym` is used for column names, relation names, recursion variable names
/// and string-valued tuple fields. Two interned `Sym`s from the same
/// dictionary are equal iff their strings are equal. A generated symbol —
/// what [`Dictionary::fresh`](crate::catalog::Dictionary::fresh) hands out
/// for fixpoint binders and intermediate columns — has no entry in any name
/// table: the top bit says it is one, the bits below hold its number and,
/// lowest, which prefix it prints with. Generated symbols therefore sort
/// after every interned name and among themselves by number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

const GENERATED: u32 = 1 << 31;
const PREFIX_BITS: u32 = 4;
const PREFIX_MASK: u32 = (1 << PREFIX_BITS) - 1;

/// What a generated symbol prints before its `#number`. A prefix is for
/// the reader only; one that is not listed prints as the first.
const PREFIXES: [&str; 10] = ["g", "X", "m", "n", "t", "swap", "self", "dup", "fix", "DL"];

impl Sym {
    /// Raw index of this symbol in its dictionary.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The generated symbol `prefix#number`.
    ///
    /// # Panics
    /// Panics if `number` does not fit the 27 bits a symbol has for it.
    pub fn generated(prefix: &str, number: u32) -> Sym {
        let prefix = PREFIXES.iter().position(|p| *p == prefix).unwrap_or(0) as u32;
        Sym(GENERATED | prefix).with_number(number)
    }

    /// True for a generated symbol, false for an interned name.
    #[inline]
    pub fn is_generated(self) -> bool {
        self.0 & GENERATED != 0
    }

    /// The number of a generated symbol, `None` for an interned name.
    #[inline]
    pub fn number(self) -> Option<u32> {
        self.is_generated().then_some((self.0 & !GENERATED) >> PREFIX_BITS)
    }

    /// This generated symbol under another number, its prefix kept.
    ///
    /// # Panics
    /// Panics if `number` does not fit the 27 bits a symbol has for it.
    pub fn with_number(self, number: u32) -> Sym {
        debug_assert!(self.is_generated(), "an interned name has no number");
        assert!(number < GENERATED >> PREFIX_BITS, "generated symbol number {number} out of range");
        Sym(self.0 & (GENERATED | PREFIX_MASK) | number << PREFIX_BITS)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.number() {
            Some(n) => {
                // Decoded bytes may name a prefix the table does not have.
                let prefix = PREFIXES.get((self.0 & PREFIX_MASK) as usize).unwrap_or(&PREFIXES[0]);
                write!(f, "{prefix}#{n}")
            }
            None => write!(f, "s{}", self.0),
        }
    }
}

/// First word of the symbol range: symbol `s` is stored as `SYM_BASE + s`,
/// so the top 2³² words of the `i64` range hold the symbols and every
/// integer a [`Value`] holds is below it.
pub const SYM_BASE: i64 = i64::MAX - u32::MAX as i64;

/// A tuple field value: a 64-bit integer of the domain
/// `i64::MIN..SYM_BASE`, or an interned symbol, in one word.
///
/// Integers and symbols order as [`ValueKind`] does — every integer, then
/// every symbol, each ascending — and hash as it does, so a `Value` sorts,
/// hashes and prints exactly like the enum it packs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Value(i64);

// Hot type: rows are flat buffers of `Value`s.
const _: () = assert!(std::mem::size_of::<Value>() == 8);

/// What a [`Value`] holds, for matching on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueKind {
    /// 64-bit integer, used for graph node identifiers.
    Int(i64),
    /// Interned string (named constants such as `Japan`, RDF IRIs, …).
    Str(Sym),
}

impl Value {
    /// The integer `i`.
    ///
    /// # Panics
    /// Panics if `i` is outside the domain (at or above [`SYM_BASE`]). For
    /// literals and generated ids; input goes through [`try_int`](Self::try_int).
    #[inline]
    pub fn int(i: i64) -> Self {
        Self::try_int(i).unwrap_or_else(|| panic!("integer {i} is outside the value domain"))
    }

    /// The integer `i`, or `None` if it is outside the domain.
    #[inline]
    pub fn try_int(i: i64) -> Option<Self> {
        (i < SYM_BASE).then_some(Value(i))
    }

    /// The symbol `s`.
    #[inline]
    pub fn sym(s: Sym) -> Self {
        Value(SYM_BASE + i64::from(s.0))
    }

    /// Convenience constructor for node identifiers.
    ///
    /// # Panics
    /// Panics if `id` is outside the integer domain.
    #[inline]
    pub fn node(id: u64) -> Self {
        i64::try_from(id)
            .ok()
            .and_then(Self::try_int)
            .unwrap_or_else(|| panic!("node id {id} is outside the value domain"))
    }

    /// What this value holds.
    #[inline]
    pub fn kind(self) -> ValueKind {
        if self.0 < SYM_BASE {
            ValueKind::Int(self.0)
        } else {
            ValueKind::Str(Sym((self.0 - SYM_BASE) as u32))
        }
    }

    /// The packed word, which the in-memory tables hash.
    #[inline]
    pub(crate) fn word(self) -> i64 {
        self.0
    }

    /// Returns the integer payload, if this is an integer.
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        (self.0 < SYM_BASE).then_some(self.0)
    }

    /// Returns the symbol payload, if this is a symbol.
    #[inline]
    pub fn as_sym(self) -> Option<Sym> {
        (self.0 >= SYM_BASE).then(|| Sym((self.0 - SYM_BASE) as u32))
    }
}

impl std::hash::Hash for Value {
    /// Feeds the hasher what the enum's derived hash fed it, so placements
    /// and plan keys do not depend on the packing.
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.kind().hash(h)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.kind().fmt(f)
    }
}

impl From<i64> for Value {
    /// # Panics
    /// Panics if `i` is outside the domain, as [`Value::int`].
    fn from(i: i64) -> Self {
        Value::int(i)
    }
}

impl From<u64> for Value {
    /// # Panics
    /// Panics if `i` is outside the domain, as [`Value::node`].
    fn from(i: u64) -> Self {
        Value::node(i)
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value(i64::from(i))
    }
}

impl From<Sym> for Value {
    fn from(s: Sym) -> Self {
        Value::sym(s)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            ValueKind::Int(i) => write!(f, "{i}"),
            ValueKind::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3u32).kind(), ValueKind::Int(3));
        assert_eq!(Value::from(-7i64).kind(), ValueKind::Int(-7));
        assert_eq!(Value::from(Sym(4)).kind(), ValueKind::Str(Sym(4)));
        assert_eq!(Value::node(9), Value::int(9));
        assert_eq!(Value::from(9u64), Value::node(9));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::int(5).as_int(), Some(5));
        assert_eq!(Value::int(5).as_sym(), None);
        assert_eq!(Value::sym(Sym(2)).as_sym(), Some(Sym(2)));
        assert_eq!(Value::sym(Sym(2)).as_int(), None);
        assert_eq!(format!("{:?} {:?}", Value::int(-1), Value::sym(Sym(2))), "Int(-1) Str(Sym(2))");
    }

    #[test]
    #[should_panic(expected = "outside the value domain")]
    fn int_refuses_the_symbol_range() {
        Value::int(SYM_BASE);
    }

    #[test]
    #[should_panic(expected = "outside the value domain")]
    fn node_refuses_ids_past_the_domain() {
        Value::node(u64::MAX);
    }

    fn fx<T: Hash>(t: T) -> u64 {
        let mut h = crate::fxhash::FxHasher::default();
        t.hash(&mut h);
        h.finish()
    }

    /// Boundary values and a few hundred random draws of each kind.
    fn samples() -> Vec<Value> {
        let mut vs: Vec<Value> = [i64::MIN, i64::MIN + 1, -1, 0, 1, SYM_BASE - 1]
            .into_iter()
            .map(Value::int)
            .chain([0, 1, u32::MAX - 1, u32::MAX].map(|s| Value::sym(Sym(s))))
            .collect();
        let mut state = 34;
        for _ in 0..300 {
            let r = crate::splitmix64(&mut state);
            vs.push(match r % 3 {
                0 => Value::sym(Sym((r >> 32) as u32)),
                1 => Value::int((r >> 2) as i64 % 1_000),
                _ => Value::try_int(r as i64).unwrap_or(Value::int(i64::MIN)),
            });
        }
        vs
    }

    #[test]
    fn the_word_orders_and_hashes_as_its_kind() {
        let vs = samples();
        for &a in &vs {
            assert_eq!(fx(a), fx(a.kind()), "{a:?}");
            assert_eq!(fx([a, a].as_slice()), fx([a.kind(), a.kind()].as_slice()));
            let back = match a.kind() {
                ValueKind::Int(i) => Value::int(i),
                ValueKind::Str(s) => Value::sym(s),
            };
            assert_eq!(back, a);
            for &b in &vs {
                assert_eq!(a.cmp(&b), a.kind().cmp(&b.kind()), "{a:?} vs {b:?}");
                assert_eq!(a == b, a.kind() == b.kind());
            }
        }
    }

    #[test]
    fn try_int_round_trips_exactly_the_domain() {
        for i in [i64::MIN, -1, 0, SYM_BASE - 1] {
            assert_eq!(Value::try_int(i).and_then(Value::as_int), Some(i));
        }
        for i in [SYM_BASE, SYM_BASE + 1, i64::MAX - 1, i64::MAX] {
            assert_eq!(Value::try_int(i), None, "{i} is a symbol's word");
        }
        let mut state = 7;
        for _ in 0..300 {
            let i = crate::splitmix64(&mut state) as i64;
            assert_eq!(
                Value::try_int(i).map(Value::kind),
                (i < SYM_BASE).then_some(ValueKind::Int(i))
            );
        }
    }

    #[test]
    fn generated_symbols_sort_after_names_and_by_number() {
        let (x3, m3, m7) = (Sym::generated("X", 3), Sym::generated("m", 3), Sym::generated("m", 7));
        assert_eq!((x3.to_string(), m7.to_string()), ("X#3".to_string(), "m#7".to_string()));
        assert_eq!(Sym::generated("no such prefix", 1).to_string(), "g#1");
        assert!(x3.is_generated() && !Sym(u32::MAX >> 1).is_generated());
        assert_eq!((m7.number(), Sym(4).number()), (Some(7), None));
        assert_ne!(x3, m3, "the prefix is part of the symbol");
        assert!(Sym(u32::MAX >> 1) < x3 && x3 < m3 && m3 < m7 && m7 < Sym::generated("X", 8));
        assert_eq!(m3.with_number(7), m7);
    }

    #[test]
    fn ordering_is_total() {
        let (s0, s1) = (Value::sym(Sym(0)), Value::sym(Sym(1)));
        let mut vs = vec![s1, Value::int(2), Value::int(1), s0];
        vs.sort();
        assert_eq!(vs, vec![Value::int(1), Value::int(2), s0, s1]);
    }
}
