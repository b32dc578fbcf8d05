//! Values and interned symbols.
//!
//! μ-RA tuples map column names to values. Values in graph workloads are
//! overwhelmingly node identifiers and interned strings (labels, constants
//! such as `Japan`), so [`Value`] is a compact `Copy` enum: 64-bit integers
//! and interned symbols. Strings are interned once in a
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

/// A tuple field value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// 64-bit integer, used for graph node identifiers.
    Int(i64),
    /// Interned string (named constants such as `Japan`, RDF IRIs, …).
    Str(Sym),
}

impl Value {
    /// Convenience constructor for node identifiers.
    #[inline]
    pub fn node(id: u64) -> Self {
        Value::Int(id as i64)
    }

    /// Returns the integer payload, if this is an `Int`.
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(i),
            Value::Str(_) => None,
        }
    }

    /// Returns the symbol payload, if this is a `Str`.
    #[inline]
    pub fn as_sym(self) -> Option<Sym> {
        match self {
            Value::Str(s) => Some(s),
            Value::Int(_) => None,
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<u64> for Value {
    fn from(i: u64) -> Self {
        Value::Int(i as i64)
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i as i64)
    }
}

impl From<Sym> for Value {
    fn from(s: Sym) -> Self {
        Value::Str(s)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_is_small() {
        // Hot type: rows are slices of Value. Keep it two words max.
        assert!(std::mem::size_of::<Value>() <= 16);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(-7i64), Value::Int(-7));
        assert_eq!(Value::from(Sym(4)), Value::Str(Sym(4)));
        assert_eq!(Value::node(9), Value::Int(9));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Int(5).as_sym(), None);
        assert_eq!(Value::Str(Sym(2)).as_sym(), Some(Sym(2)));
        assert_eq!(Value::Str(Sym(2)).as_int(), None);
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
        let mut vs = vec![Value::Str(Sym(1)), Value::Int(2), Value::Int(1), Value::Str(Sym(0))];
        vs.sort();
        assert_eq!(vs, vec![Value::Int(1), Value::Int(2), Value::Str(Sym(0)), Value::Str(Sym(1))]);
    }
}
