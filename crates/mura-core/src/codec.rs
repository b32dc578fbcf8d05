//! The one binary codec: a bounds-checked reader, little-endian primitive
//! writers, and the compact row block that every layer moving rows shares —
//! exchange and broadcast frames (`mura-dist::wire`), WAL records and
//! snapshots (`mura-durable`).
//!
//! Hand-rolled (the workspace builds offline, no serde): little-endian
//! fixed-width integers and `u32`-length-prefixed sequences. Every decode is
//! bounds-checked against the buffer and returns a typed [`CodecError`] —
//! decoding untrusted bytes never panics, and a length read from the input
//! is checked against the bytes that remain before anything is allocated
//! for it.
//!
//! # Row block
//!
//! ```text
//! [u32 arity][u64 nrows][u8 kind × arity][row × nrows]
//! ```
//!
//! A row is its fields back to back, each at the width its column's kind
//! fixes for the whole block, so every row of a block has the same stride:
//!
//! | kind | column holds | field |
//! |---|---|---|
//! | `0` | integers, all within `0..=u32::MAX` | `u32` |
//! | `1` | integers | `i64` |
//! | `2` | symbols | `u32` |
//! | `3` | integers and symbols | `u8` tag (`0` int, `1` symbol) + `i64` |
//!
//! The encoder picks, per column, the first kind in that order that holds
//! every value of the column — a function of the set of rows, not of their
//! order. A node id of the benchmark graphs costs 4 bytes instead of the 9
//! a tag byte per value cost.

use crate::relation::Rows;
use crate::value::{Sym, Value, ValueKind, SYM_BASE};

/// Decoding failure. Carries the buffer offset where decoding stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// Offset at which more bytes were needed.
        at: usize,
        /// How many bytes the decoder wanted.
        want: usize,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// Offset of the offending tag byte.
        at: usize,
        /// The tag value read.
        tag: u8,
        /// Which type was being decoded.
        what: &'static str,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8 {
        /// Offset of the string payload.
        at: usize,
    },
    /// A decoded value violated an invariant (row arity, term depth…).
    Invalid {
        /// Offset where the violation was detected.
        at: usize,
        /// Human-readable description.
        what: &'static str,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { at, want } => {
                write!(f, "truncated at byte {at}: wanted {want} more bytes")
            }
            CodecError::BadTag { at, tag, what } => {
                write!(f, "bad {what} tag {tag} at byte {at}")
            }
            CodecError::BadUtf8 { at } => write!(f, "invalid utf-8 at byte {at}"),
            CodecError::Invalid { at, what } => write!(f, "invalid {what} at byte {at}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Decoder position over a byte buffer.
pub struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    /// Starts decoding at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    /// Current offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails with [`CodecError::Invalid`] if bytes remain.
    pub fn expect_done(&self) -> Result<(), CodecError> {
        if self.done() {
            Ok(())
        } else {
            Err(CodecError::Invalid { at: self.pos, what: "trailing bytes" })
        }
    }

    /// Consumes the next `n` bytes, borrowed from the buffer (no copy).
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { at: self.pos, want: n });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returned exactly N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32`-length-prefixed byte string, borrowed from the buffer.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, CodecError> {
        let at = self.pos + 4;
        let bytes = self.bytes()?;
        std::str::from_utf8(bytes).map(|s| s.to_string()).map_err(|_| CodecError::BadUtf8 { at })
    }

    /// Reads a sequence length, sanity-capped against the bytes remaining
    /// (`min_elem_bytes` is the smallest possible encoded element size) so
    /// a corrupt length cannot trigger a huge allocation.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        let want = n.saturating_mul(min_elem_bytes.max(1));
        if want > self.remaining() {
            return Err(CodecError::Truncated { at: self.pos, want });
        }
        Ok(n)
    }
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a `u32`-length-prefixed byte string whose content `fill` writes
/// straight into `out` (the length is patched in afterwards, so the content
/// is never staged in a buffer of its own).
pub fn put_bytes_with(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    put_u32(out, 0);
    fill(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_bytes_with(out, |out| out.extend_from_slice(s.as_bytes()));
}

// ------------------------------------------------------------- row block

/// Integers, all within `0..=u32::MAX`; 4 bytes a field.
const COL_U32: u8 = 0;
/// Integers; 8 bytes a field.
const COL_I64: u8 = 1;
/// Symbols; 4 bytes a field.
const COL_SYM: u8 = 2;
/// Integers and symbols in one column; a tag byte and 8 bytes a field.
const COL_ANY: u8 = 3;

/// The narrowest column kind that holds `v`.
fn kind_of(v: Value) -> u8 {
    match v.kind() {
        ValueKind::Int(i) if u32::try_from(i).is_ok() => COL_U32,
        ValueKind::Int(_) => COL_I64,
        ValueKind::Str(_) => COL_SYM,
    }
}

/// The narrowest column kind that holds whatever `a` and `b` hold.
fn widen(a: u8, b: u8) -> u8 {
    match (a, b) {
        _ if a == b => a,
        (COL_U32, COL_I64) | (COL_I64, COL_U32) => COL_I64,
        _ => COL_ANY,
    }
}

fn field_width(kind: u8) -> Option<usize> {
    match kind {
        COL_U32 | COL_SYM => Some(4),
        COL_I64 => Some(8),
        COL_ANY => Some(9),
        _ => None,
    }
}

/// Appends `rows` as one row block (layout in the module docs). Each row is
/// read once and written once, straight into `out`: the encoder starts from
/// the kinds of the first row and, the first time a later value does not
/// fit its column, widens that column and starts the block over (at most
/// twice per column, and never on graphs whose ids fit `u32`).
///
/// # Panics
/// Panics if a row's arity differs from `arity`.
pub fn put_rows<I>(out: &mut Vec<u8>, arity: usize, rows: I)
where
    I: IntoIterator + Clone,
    I::Item: AsRef<[Value]>,
{
    let start = out.len();
    let mut kinds: Vec<u8> = match rows.clone().into_iter().next() {
        Some(first) => first.as_ref().iter().map(|&v| kind_of(v)).collect(),
        None => vec![COL_U32; arity],
    };
    'block: loop {
        out.truncate(start);
        put_u32(out, arity as u32);
        put_u64(out, 0);
        out.extend_from_slice(&kinds);
        let stride: usize = kinds.iter().map(|&k| field_width(k).expect("own kind")).sum();
        let it = rows.clone().into_iter();
        out.reserve(it.size_hint().0.saturating_mul(stride));
        let mut nrows = 0u64;
        for row in it {
            let row = row.as_ref();
            assert_eq!(row.len(), arity, "row arity {} != block arity {arity}", row.len());
            for (kind, &v) in kinds.iter_mut().zip(row.iter()) {
                match (*kind, v.kind()) {
                    (COL_U32, ValueKind::Int(i)) if u32::try_from(i).is_ok() => {
                        put_u32(out, i as u32)
                    }
                    (COL_I64, ValueKind::Int(i)) => put_i64(out, i),
                    (COL_SYM, ValueKind::Str(s)) => put_u32(out, s.0),
                    (COL_ANY, ValueKind::Int(i)) => {
                        out.push(0);
                        put_i64(out, i);
                    }
                    (COL_ANY, ValueKind::Str(s)) => {
                        out.push(1);
                        put_i64(out, i64::from(s.0));
                    }
                    _ => {
                        *kind = widen(*kind, kind_of(v));
                        continue 'block;
                    }
                }
            }
            nrows += 1;
        }
        out[start + 4..start + 12].copy_from_slice(&nrows.to_le_bytes());
        return;
    }
}

/// One row block, bounds- and tag-checked by [`get_rows`] but not yet
/// decoded: [`RowBlock::decode_into`] cannot fail, reserves once for the
/// block's row count and writes the values straight into the destination
/// buffer — no row is built on the way.
#[derive(Debug, Clone)]
pub struct RowBlock<'a> {
    kinds: &'a [u8],
    data: &'a [u8],
    stride: usize,
    nrows: usize,
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

fn le_i64(b: &[u8]) -> i64 {
    i64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

impl RowBlock<'_> {
    /// Rows in the block.
    pub fn len(&self) -> usize {
        self.nrows
    }

    /// True if the block holds no row.
    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// Appends the block's rows to `dest`.
    ///
    /// # Panics
    /// Panics if `dest` is not of the block's arity.
    pub fn decode_into(&self, dest: &mut Rows) {
        assert_eq!(dest.arity(), self.kinds.len(), "row block decoded into another arity");
        dest.reserve(self.nrows);
        if self.stride == 0 {
            // Rows of no columns take no bytes.
            for _ in 0..self.nrows {
                dest.push(&[]);
            }
            return;
        }
        for mut fields in self.data.chunks_exact(self.stride) {
            dest.push_values(self.kinds.iter().map(|&kind| {
                // `get_rows` checked every integer to be in the domain
                // and every mixed-column symbol to be a `u32`.
                let (v, width) = match kind {
                    COL_U32 => (Value::from(le_u32(fields)), 4),
                    COL_I64 => (Value::int(le_i64(fields)), 8),
                    COL_SYM => (Value::sym(Sym(le_u32(fields))), 4),
                    _ if fields[0] == 0 => (Value::int(le_i64(&fields[1..])), 9),
                    _ => (Value::sym(Sym(le_i64(&fields[1..]) as u32)), 9),
                };
                fields = &fields[width..];
                v
            }));
        }
    }

    /// The block's rows as a buffer of their own.
    pub fn decode(&self) -> Rows {
        let mut rows = Rows::new(self.kinds.len());
        self.decode_into(&mut rows);
        rows
    }
}

/// Reads one row block written by [`put_rows`], which must be of `arity`
/// columns. The row count is checked against the bytes that remain before
/// it is believed (a row of no columns can occur at most once in a set),
/// so the rows a caller decodes are bounded by the input's length.
pub fn get_rows<'a>(cur: &mut Cur<'a>, arity: usize) -> Result<RowBlock<'a>, CodecError> {
    let at = cur.pos();
    if cur.u32()? as usize != arity {
        return Err(CodecError::Invalid { at, what: "row block arity" });
    }
    let nrows = cur.u64()?;
    let kinds_at = cur.pos();
    let kinds = cur.take(arity)?;
    let mut stride = 0usize;
    for (i, &kind) in kinds.iter().enumerate() {
        stride += field_width(kind).ok_or(CodecError::BadTag {
            at: kinds_at + i,
            tag: kind,
            what: "row block column kind",
        })?;
    }
    let bytes = usize::try_from(nrows)
        .ok()
        .filter(|&n| stride > 0 || n <= 1)
        .and_then(|n| n.checked_mul(stride))
        .filter(|&b| b <= cur.remaining())
        .ok_or(CodecError::Invalid { at, what: "row block row count" })?;
    let data_at = cur.pos();
    let data = cur.take(bytes)?;
    // Mixed columns carry the only per-value tags, and 8-byte integers can
    // name a word of the symbol range: check them here so that decoding
    // stays infallible.
    let mut offset = 0;
    for &kind in kinds {
        if kind == COL_I64 || kind == COL_ANY {
            for (r, row) in data.chunks_exact(stride).enumerate() {
                let at = data_at + r * stride + offset;
                let (tag, int) = match kind {
                    COL_I64 => (0, le_i64(&row[offset..])),
                    _ => (row[offset], le_i64(&row[offset + 1..])),
                };
                return Err(match tag {
                    0 if int < SYM_BASE => continue,
                    1 if u32::try_from(int).is_ok() => continue,
                    0 => CodecError::Invalid { at, what: "integer outside the value domain" },
                    _ => CodecError::BadTag { at, tag, what: "Value" },
                });
            }
        }
        offset += field_width(kind).expect("checked above");
    }
    Ok(RowBlock { kinds, data, stride, nrows: nrows as usize })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Row;

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            crate::splitmix64(&mut self.0)
        }
    }

    fn round_trip(arity: usize, rows: &[Row]) -> Vec<u8> {
        let mut out = vec![0xEE; 3]; // blocks are appended, not written at 0
        put_rows(&mut out, arity, rows);
        let mut cur = Cur::new(&out[3..]);
        let block = get_rows(&mut cur, arity).expect("decodes");
        cur.expect_done().expect("block consumed exactly");
        assert_eq!(block.len(), rows.len());
        // Decoded behind whatever the destination already holds.
        let mut dest = Rows::new(arity);
        if let Some(first) = rows.first() {
            dest.push(first);
        }
        let held = dest.len();
        block.decode_into(&mut dest);
        let decoded: Vec<Row> = dest.iter().skip(held).map(Row::from).collect();
        assert_eq!(decoded, rows);
        out.split_off(3)
    }

    /// What one column of a generated block draws its values from.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        Small,
        Signed,
        Edge,
        Syms,
        Mixed,
    }

    fn draw(shape: Shape, rng: &mut Rng) -> Value {
        let r = rng.next();
        match shape {
            Shape::Small => Value::int((r % 100_000) as i64),
            Shape::Signed => Value::int((r % 2_000) as i64 - 1_000),
            // Just below, at and just above the u32 boundary.
            Shape::Edge => Value::int(i64::from(u32::MAX) - 2 + (r % 5) as i64),
            Shape::Syms => Value::sym(Sym(r as u32)),
            Shape::Mixed if r & 1 == 0 => Value::int(r as i64 >> 8),
            Shape::Mixed => Value::sym(Sym((r >> 8) as u32)),
        }
    }

    #[test]
    fn seeded_blocks_round_trip_and_pick_the_narrowest_width_per_column() {
        const SHAPES: [Shape; 5] =
            [Shape::Small, Shape::Signed, Shape::Edge, Shape::Syms, Shape::Mixed];
        let mut rng = Rng(0x5EED);
        for case in 0..200 {
            let arity = [0usize, 1, 2, 5][case % 4];
            let shapes: Vec<Shape> =
                (0..arity).map(|_| SHAPES[(rng.next() % 5) as usize]).collect();
            let nrows = if arity == 0 { case % 2 } else { (rng.next() % 40) as usize };
            let rows: Vec<Row> =
                (0..nrows).map(|_| shapes.iter().map(|&s| draw(s, &mut rng)).collect()).collect();
            let bytes = round_trip(arity, &rows);
            // The kind of each column is the narrowest that holds it.
            for (c, &kind) in bytes[12..12 + arity].iter().enumerate() {
                let want = rows.iter().map(|r| kind_of(r[c])).reduce(widen).unwrap_or(COL_U32);
                assert_eq!(kind, want, "case {case} column {c} ({:?})", shapes[c]);
            }
            let stride: usize =
                bytes[12..12 + arity].iter().map(|&k| field_width(k).unwrap()).sum();
            assert_eq!(bytes.len(), 12 + arity + nrows * stride, "case {case}");
        }
    }

    #[test]
    fn widths_follow_the_values_not_their_order() {
        let int = |i: i64| -> Row { vec![Value::int(i)].into_boxed_slice() };
        let big = i64::from(u32::MAX) + 1;
        // u32 until one value needs more, whichever row brings it.
        assert_eq!(round_trip(1, &[int(1), int(i64::from(u32::MAX))])[12], COL_U32);
        assert_eq!(round_trip(1, &[int(1), int(big)])[12], COL_I64);
        assert_eq!(round_trip(1, &[int(big), int(1)])[12], COL_I64);
        assert_eq!(round_trip(1, &[int(1), int(-1)])[12], COL_I64);
        let sym: Row = vec![Value::sym(Sym(9))].into_boxed_slice();
        assert_eq!(round_trip(1, &[sym.clone(), sym.clone()])[12], COL_SYM);
        assert_eq!(round_trip(1, &[int(1), sym.clone()])[12], COL_ANY);
        assert_eq!(round_trip(1, &[sym, int(big)])[12], COL_ANY);
        // 4 bytes per node id: the benchmark graphs' case.
        let edge: Row = vec![Value::node(7), Value::node(49_999)].into_boxed_slice();
        assert_eq!(round_trip(2, &[edge.clone(), edge]).len(), 12 + 2 + 2 * 8);
        // The empty block is the header alone.
        assert_eq!(round_trip(2, &[]).len(), 12 + 2);
    }

    #[test]
    fn wrong_arity_and_unknown_kinds_are_typed_errors() {
        let rows: Vec<Row> = vec![vec![Value::int(1), Value::int(2)].into_boxed_slice()];
        let mut out = Vec::new();
        put_rows(&mut out, 2, &rows);
        assert!(matches!(
            get_rows(&mut Cur::new(&out), 3),
            Err(CodecError::Invalid { what: "row block arity", .. })
        ));
        out[12] = 7;
        assert!(matches!(
            get_rows(&mut Cur::new(&out), 2),
            Err(CodecError::BadTag { at: 12, tag: 7, .. })
        ));
        // A mixed column's value tags are checked before any row is built.
        let mixed: Vec<Row> = vec![
            vec![Value::int(1)].into_boxed_slice(),
            vec![Value::sym(Sym(2))].into_boxed_slice(),
        ];
        let mut out = Vec::new();
        put_rows(&mut out, 1, &mixed);
        let tag_of_second = 12 + 1 + 9;
        out[tag_of_second] = 2;
        assert!(matches!(
            get_rows(&mut Cur::new(&out), 1),
            Err(CodecError::BadTag { tag: 2, what: "Value", .. })
        ));
        // ... and a symbol that does not fit its 32 bits is refused too.
        out[tag_of_second] = 1;
        out[tag_of_second + 8] = 0x7F;
        assert!(get_rows(&mut Cur::new(&out), 1).is_err());
        // An integer in the symbols' range, in a mixed column or an 8-byte
        // one, is refused where it is read.
        let reserved =
            |at| Some(CodecError::Invalid { at, what: "integer outside the value domain" });
        out[tag_of_second] = 0;
        out[tag_of_second + 1..tag_of_second + 9].copy_from_slice(&SYM_BASE.to_le_bytes());
        assert_eq!(get_rows(&mut Cur::new(&out), 1).err(), reserved(tag_of_second));
        let wide: Vec<Row> = vec![vec![Value::int(2), Value::int(-1)].into_boxed_slice()];
        let mut out = Vec::new();
        put_rows(&mut out, 2, &wide);
        assert_eq!(out[12..14], [COL_U32, COL_I64]);
        out[14 + 4..].copy_from_slice(&i64::MAX.to_le_bytes());
        assert_eq!(get_rows(&mut Cur::new(&out), 2).err(), reserved(14 + 4));
    }

    #[test]
    fn row_count_lies_are_rejected_before_allocating() {
        // 2^40 rows claimed over 32 bytes of data.
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        put_u64(&mut buf, 1 << 40);
        buf.extend_from_slice(&[COL_U32, COL_U32]);
        buf.extend_from_slice(&[0; 32]);
        assert!(matches!(
            get_rows(&mut Cur::new(&buf), 2),
            Err(CodecError::Invalid { what: "row block row count", .. })
        ));
        // Rows of no columns take no bytes: more than one is a lie, however
        // much input follows.
        let mut buf = Vec::new();
        put_u32(&mut buf, 0);
        put_u64(&mut buf, u64::MAX);
        buf.extend_from_slice(&[0; 64]);
        assert!(get_rows(&mut Cur::new(&buf), 0).is_err());
        // A count whose byte size overflows.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1);
        put_u64(&mut buf, u64::MAX / 2);
        buf.push(COL_ANY);
        assert!(get_rows(&mut Cur::new(&buf), 1).is_err());
    }

    #[test]
    fn truncations_and_garbage_never_panic_and_stay_bounded() {
        let rows: Vec<Row> = (0..20)
            .map(|i| vec![Value::int(i), Value::sym(Sym(i as u32))].into_boxed_slice())
            .collect();
        let mut out = Vec::new();
        put_rows(&mut out, 2, &rows);
        for cut in 0..out.len() {
            assert!(get_rows(&mut Cur::new(&out[..cut]), 2).is_err(), "cut at {cut} decoded");
        }
        let mut rng = Rng(99);
        let garbage: Vec<u8> = (0..4096).map(|_| rng.next() as u8).collect();
        for start in 0..64 {
            for arity in [0, 1, 2, 5] {
                let input = &garbage[start..];
                if let Ok(block) = get_rows(&mut Cur::new(input), arity) {
                    // Whatever decodes is no larger than its input.
                    assert!(block.len() <= input.len().max(1));
                    assert_eq!(block.decode().len(), block.len());
                }
            }
        }
    }

    #[test]
    fn cursor_reads_are_bounds_checked() {
        let mut out = Vec::new();
        put_u32(&mut out, 7);
        put_string(&mut out, "héllo");
        put_f64(&mut out, 1.5);
        let mut cur = Cur::new(&out);
        assert_eq!(cur.u32().unwrap(), 7);
        assert_eq!(cur.string().unwrap(), "héllo");
        assert_eq!(cur.f64().unwrap(), 1.5);
        cur.expect_done().unwrap();
        assert!(matches!(cur.u8(), Err(CodecError::Truncated { want: 1, .. })));
        // A length that the buffer cannot hold.
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        assert!(matches!(Cur::new(&huge).bytes(), Err(CodecError::Truncated { .. })));
        assert!(matches!(Cur::new(&huge).seq_len(4), Err(CodecError::Truncated { .. })));
        // Invalid UTF-8 reports where the string starts.
        let mut bad = Vec::new();
        put_bytes_with(&mut bad, |o| o.extend_from_slice(&[0xFF, 0xFE]));
        assert_eq!(Cur::new(&bad).string(), Err(CodecError::BadUtf8 { at: 4 }));
    }
}
