//! Relations: sets of tuples over a schema.
//!
//! The μ-RA data model is set-based (no duplicates). A [`Relation`] is a
//! [`Schema`] plus one flat row store: every row's fields, aligned with the
//! schema's sorted column order, back to back in a single buffer ([`Rows`]),
//! and — once something asks whether a row is present — an open-addressing
//! table of row ids over that buffer. No row is an allocation of its own.
//! All algebra operators (filter, rename, antiprojection, natural join,
//! antijoin, union, difference) are implemented here on materialized
//! relations; the distributed layer reuses these per-partition.
//!
//! # The store
//!
//! Row `i` is `vals[i * arity..(i + 1) * arity]`; the row count is kept
//! explicitly, so the relation of no columns (which holds zero rows or one)
//! works like any other. The table keeps, per slot, one control byte —
//! `EMPTY`, `DELETED`, or a 7-bit tag of the row's hash — and one `u32` row
//! id, 5 bytes in all. Slots come in groups of eight, each group one `u64`
//! of control bytes followed by its eight ids, and the groups in one
//! power-of-two buffer. A lookup reads a group's control word and finds the
//! bytes equal to its tag with portable SWAR arithmetic, eight slots at a
//! time: only a tag match touches row memory, and a group that holds an
//! `EMPTY` byte ends a miss. Groups are probed in triangular steps at a load
//! of at most 7/8, which keeps a miss to about one group on a table just
//! grown and three on one about to grow (linear probing, slot by slot, had
//! to stay at one half: at 7/8 a miss walked three times as far). A removed
//! row's slot becomes `EMPTY` again if its group still holds an `EMPTY`
//! byte (no probe sequence ever ran on past such a group), and `DELETED`
//! otherwise; tombstones count against the load until a rebuild drops
//! them. The table's hash is its own function of the row, finalised so
//! that it shares no bits with [`hash_key`]: that hash *placed* the rows of
//! a partition, so all of them agree on it modulo the worker count, and a
//! table indexed by it would leave the other groups empty.
//!
//! The table is **built on demand**: a relation that is only built and
//! iterated — the result of a rename, filter or join, a partition cut from a
//! set, a decoded exchange block, a semi-naive delta — never has one. The
//! operators that produce such results know their output rows are distinct
//! and append them without looking ([`Relation::from_distinct`],
//! [`Relation::extend_distinct`]); the first [`Relation::contains`],
//! [`Relation::insert`] or [`Relation::remove`] builds the table over
//! whatever is there.
//!
//! Row ids are `u32`: a relation holds at most [`MAX_ROWS`] rows
//! ([`check_room`] is the typed check the fixpoint drivers run before they
//! grow one).

use crate::error::{MuraError, Result};
use crate::index::{hash_key, Buckets};
use crate::schema::Schema;
use crate::value::{Sym, Value};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// One owned tuple, for values that are a single row (a mutation, a test
/// expectation). Relations do not store these: see [`Rows`].
pub type Row = Box<[Value]>;

/// The most rows one relation (or [`Rows`]) holds: ids are `u32` and a
/// bucket chain stores `id + 1`.
pub const MAX_ROWS: usize = u32::MAX as usize - 1;

/// A bag of rows of one arity in one buffer: row `i` is values
/// `i * arity..(i + 1) * arity`. The container rows travel in — a chain's
/// output, an exchange bucket, a decoded block — and what a [`Relation`]
/// stores. Equality is positional (same rows in the same order).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Rows {
    arity: usize,
    vals: Vec<Value>,
    /// Explicit, so that rows of no columns still count.
    len: usize,
}

impl Rows {
    /// No rows, of `arity` columns.
    pub fn new(arity: usize) -> Rows {
        Rows { arity, vals: Vec::new(), len: 0 }
    }

    /// No rows, with room for `rows`.
    pub fn with_capacity(arity: usize, rows: usize) -> Rows {
        Rows { arity, vals: Vec::with_capacity(rows.saturating_mul(arity)), len: 0 }
    }

    /// Columns per row.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Makes room for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        self.vals.reserve(additional.saturating_mul(self.arity));
    }

    /// Row `id`.
    ///
    /// # Panics
    /// Panics if `id` is past the end of the buffer.
    #[inline]
    pub fn get(&self, id: usize) -> &[Value] {
        debug_assert!(id < self.len, "row {id} of {}", self.len);
        &self.vals[id * self.arity..(id + 1) * self.arity]
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row's arity differs.
    #[inline]
    pub fn push(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.arity, "row arity {} != {}", row.len(), self.arity);
        self.vals.extend_from_slice(row);
        self.len += 1;
    }

    /// Appends the row whose fields `values` yields, in order.
    ///
    /// # Panics
    /// Panics if it does not yield exactly `arity` values.
    #[inline]
    pub fn push_values(&mut self, values: impl IntoIterator<Item = Value>) {
        self.vals.extend(values);
        self.len += 1;
        assert_eq!(self.vals.len(), self.len * self.arity, "row arity != {}", self.arity);
    }

    /// Appends every row of `other` (one copy of its buffer).
    ///
    /// # Panics
    /// Panics if the arities differ.
    pub fn append(&mut self, other: &Rows) {
        assert_eq!(other.arity, self.arity, "row arity {} != {}", other.arity, self.arity);
        self.vals.extend_from_slice(&other.vals);
        self.len += other.len;
    }

    /// Keeps the first `len` rows.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.vals.truncate(len * self.arity);
            self.len = len;
        }
    }

    /// Removes every row, keeping the buffer.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Removes row `id` by moving the last row into its place.
    fn swap_remove(&mut self, id: usize) {
        let last = self.len - 1;
        if id != last {
            self.vals.copy_within(last * self.arity..(last + 1) * self.arity, id * self.arity);
        }
        self.truncate(last);
    }

    /// The rows, in storage order.
    #[inline]
    pub fn iter(&self) -> RowIter<'_> {
        RowIter { vals: &self.vals, arity: self.arity, left: self.len }
    }

    /// Every value of every row, row after row: row `i` is
    /// `values()[i * arity..(i + 1) * arity]`.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.vals
    }

    /// The row ids in lexicographic order of their rows. Sorting the ids
    /// and reading through them moves no row at all.
    pub fn sorted_ids(&self) -> Vec<u32> {
        assert!(self.len <= MAX_ROWS, "{} rows exceed the u32 row-id space", self.len);
        let mut ids: Vec<u32> = (0..self.len as u32).collect();
        ids.sort_unstable_by(|&a, &b| self.get(a as usize).cmp(self.get(b as usize)));
        ids
    }

    /// Every row cut down (or permuted) to the values at `positions`, in
    /// storage order. Two rows may come out equal unless `positions` is a
    /// permutation of all of them.
    pub fn project(&self, positions: &[usize]) -> Rows {
        let mut out = Rows::with_capacity(positions.len(), self.len);
        for row in self.iter() {
            out.push_values(positions.iter().map(|&p| row[p]));
        }
        out
    }

    /// The rows `pred` holds for, in storage order.
    pub fn filter(&self, mut pred: impl FnMut(&[Value]) -> bool) -> Rows {
        let mut out = Rows::new(self.arity);
        self.iter().filter(|row| pred(row)).for_each(|row| out.push(row));
        out
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a [Value];
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

/// Iterator over the rows of a [`Rows`] buffer.
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    vals: &'a [Value],
    arity: usize,
    left: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (row, rest) = self.vals.split_at(self.arity);
        self.vals = rest;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

// ------------------------------------------------------------------ table

/// The table's own hash of a row: one multiply-rotate round per value and a
/// fold-and-multiply finaliser. The group is taken from its top bits, the
/// tag from its bottom 7.
#[inline]
fn row_hash(row: &[Value]) -> u64 {
    const ROUND: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    const FINAL: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = 0u64;
    for v in row {
        h = (h.rotate_left(5) ^ v.word() as u64).wrapping_mul(ROUND);
    }
    (h ^ (h >> 32)).wrapping_mul(FINAL)
}

/// Slots per group: one `u64` of control bytes.
const GROUP: usize = 8;
/// Control byte of a slot no row has used since the table was built.
const EMPTY: u8 = 0xFF;
/// Control byte of a slot whose row was removed while its group was full.
const DELETED: u8 = 0x80;
/// The low and the high bit of every byte of a group word.
const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// The 7-bit tag a full slot's control byte holds.
#[inline]
fn tag_of(hash: u64) -> u8 {
    (hash & 0x7F) as u8
}

/// The first slot of a group whose byte is set in `mask`.
#[inline]
fn first(mask: u64) -> usize {
    mask.trailing_zeros() as usize / 8
}

/// Eight slots: their control bytes in one word (slot `i` in byte `i`,
/// counting from the low end) and, beside them, their row ids.
#[derive(Debug, Clone, Copy)]
struct Group {
    ctrl: u64,
    ids: [u32; GROUP],
}

impl Group {
    const EMPTY: Group = Group { ctrl: u64::MAX, ids: [0; GROUP] };

    /// The slots whose byte is `tag`. A byte just above a match may be
    /// reported too (the subtraction borrows across it); such a byte is
    /// `tag ^ 1`, a full slot, and whoever reads the report compares rows.
    #[inline]
    fn matching(&self, tag: u8) -> u64 {
        let x = self.ctrl ^ LO.wrapping_mul(tag as u64);
        x.wrapping_sub(LO) & !x & HI
    }

    /// The `EMPTY` slots: the only bytes with both top bits set.
    #[inline]
    fn empty(&self) -> u64 {
        self.ctrl & (self.ctrl << 1) & HI
    }

    /// The slots that take a row: `EMPTY` or `DELETED`, the bytes with
    /// the top bit set.
    #[inline]
    fn open(&self) -> u64 {
        self.ctrl & HI
    }

    #[inline]
    fn byte(&self, i: usize) -> u8 {
        (self.ctrl >> (8 * i)) as u8
    }

    #[inline]
    fn set(&mut self, i: usize, byte: u8) {
        self.ctrl = self.ctrl & !(0xFF << (8 * i)) | (byte as u64) << (8 * i);
    }
}

/// A group index and the steps it took: triangular steps over a power of
/// two of groups visit every group once before any twice.
struct Seq {
    at: usize,
    stride: usize,
    mask: usize,
}

impl Seq {
    #[inline]
    fn advance(&mut self) {
        self.stride += 1;
        self.at = (self.at + self.stride) & self.mask;
    }
}

/// Index of row ids: see the module docs for the slot format. `groups` is
/// a power of two long, `growth_left` is what the 7/8 load leaves after
/// the full slots and the `DELETED` ones.
#[derive(Debug, Clone)]
struct Table {
    groups: Vec<Group>,
    /// log2 of `groups.len()`.
    bits: u32,
    growth_left: usize,
}

/// log2 of the heads a bucket directory over `rows` rows has: the power of
/// two that keeps its load at or under one half.
///
/// # Panics
/// Panics if `rows` exceeds [`MAX_ROWS`].
pub(crate) fn slot_bits(rows: usize) -> u32 {
    assert!(rows <= MAX_ROWS, "{rows} rows exceed the u32 row-id space");
    (rows.max(4) * 2).next_power_of_two().trailing_zeros()
}

/// Rows a table of `slots` slots holds at a load of 7/8.
#[inline]
fn capacity(slots: usize) -> usize {
    slots - slots / 8
}

impl Table {
    /// An empty table able to index `rows` rows: the fewest groups, a power
    /// of two, whose 7/8 holds them.
    ///
    /// # Panics
    /// Panics if `rows` exceeds [`MAX_ROWS`].
    fn for_rows(rows: usize) -> Table {
        assert!(rows <= MAX_ROWS, "{rows} rows exceed the u32 row-id space");
        let slots = (rows * 8).div_ceil(7).max(GROUP).next_power_of_two();
        let groups = slots / GROUP;
        Table {
            groups: vec![Group::EMPTY; groups],
            bits: groups.trailing_zeros(),
            growth_left: capacity(slots),
        }
    }

    /// The table over `rows`, which must be distinct, with room to index
    /// `capacity` rows in all.
    fn build(rows: &Rows, capacity: usize) -> Table {
        let mut table = Table::for_rows(capacity.max(rows.len));
        for (id, row) in rows.iter().enumerate() {
            table.place(row_hash(row), id);
        }
        table
    }

    /// Slots in all.
    fn slots(&self) -> usize {
        self.groups.len() * GROUP
    }

    /// True if `additional` more rows go in without a rebuild.
    #[inline]
    fn fits(&self, additional: usize) -> bool {
        additional <= self.growth_left
    }

    /// `hash`'s probe sequence, from its home group: the hash's top bits.
    #[inline]
    fn seq(&self, hash: u64) -> Seq {
        let mask = self.groups.len() - 1;
        Seq { at: hash.rotate_left(self.bits) as usize & mask, stride: 0, mask }
    }

    /// Points the first open slot of `hash`'s probe sequence at row `id`,
    /// which the caller knows is not in the table.
    #[inline]
    fn place(&mut self, hash: u64, id: usize) {
        let mut seq = self.seq(hash);
        let at = loop {
            let open = self.groups[seq.at].open();
            if open != 0 {
                break seq.at * GROUP + first(open);
            }
            seq.advance();
        };
        self.fill(at, hash, id);
    }

    /// True if open slot `at` may take a row: a `DELETED` one always, an
    /// `EMPTY` one while the load stays at or under 7/8.
    #[inline]
    fn can_fill(&self, at: usize) -> bool {
        self.growth_left > 0 || self.groups[at / GROUP].byte(at % GROUP) == DELETED
    }

    /// Points open slot `at` at row `id`, whose hash is `hash`.
    #[inline]
    fn fill(&mut self, at: usize, hash: u64, id: usize) {
        let (group, i) = (&mut self.groups[at / GROUP], at % GROUP);
        self.growth_left -= usize::from(group.byte(i) == EMPTY);
        group.set(i, tag_of(hash));
        group.ids[i] = id as u32;
    }

    /// The row id full slot `at` holds.
    #[inline]
    fn id(&self, at: usize) -> usize {
        self.groups[at / GROUP].ids[at % GROUP] as usize
    }

    /// Replaces the table by one over `rows` with room for `capacity`,
    /// releasing the old groups first: growing holds one table at a time.
    fn rebuild(&mut self, rows: &Rows, capacity: usize) {
        self.groups = Vec::new();
        *self = Table::build(rows, capacity);
    }

    /// Rebuilds over `rows` when an `EMPTY` slot must be used and the load
    /// allows none: at the same size if at most half of it holds rows (the
    /// rebuild drops the tombstones), at twice the size otherwise.
    fn grow(&mut self, rows: &Rows) {
        let held = capacity(self.slots());
        let want = if rows.len <= held / 2 { held } else { held + 1 };
        self.rebuild(rows, want);
    }

    /// Looks `row` up: the slot that holds it, or else the first open slot
    /// of its probe sequence, where it belongs. A group with an `EMPTY`
    /// slot ends the sequence.
    #[inline]
    fn probe(&self, rows: &Rows, row: &[Value], hash: u64) -> std::result::Result<usize, usize> {
        let tag = tag_of(hash);
        let mut seq = self.seq(hash);
        let mut open = None;
        loop {
            let group = &self.groups[seq.at];
            let mut hits = group.matching(tag);
            while hits != 0 {
                let i = first(hits);
                if rows.get(group.ids[i] as usize) == row {
                    return Ok(seq.at * GROUP + i);
                }
                hits &= hits - 1;
            }
            let free = group.open();
            if free != 0 {
                let slot = *open.get_or_insert(seq.at * GROUP + first(free));
                if group.empty() != 0 {
                    return Err(slot);
                }
            }
            seq.advance();
        }
    }

    /// The slot that points at row `id`, whose hash is `hash`.
    fn slot_of_id(&self, hash: u64, id: usize) -> usize {
        let (tag, want) = (tag_of(hash), id as u32);
        let mut seq = self.seq(hash);
        loop {
            let group = &self.groups[seq.at];
            let mut hits = group.matching(tag);
            while hits != 0 {
                let i = first(hits);
                if group.ids[i] == want {
                    return seq.at * GROUP + i;
                }
                hits &= hits - 1;
            }
            debug_assert!(group.empty() == 0, "row {id} is not in the table");
            seq.advance();
        }
    }

    /// Re-points full slot `at` at row `id`.
    #[inline]
    fn set_id(&mut self, at: usize, id: usize) {
        self.groups[at / GROUP].ids[at % GROUP] = id as u32;
    }

    /// Frees full slot `at`. A group that still has an `EMPTY` slot was
    /// never full since the build, so no probe sequence runs on past it and
    /// the slot becomes `EMPTY`; otherwise it becomes `DELETED`, which
    /// probes pass over and which keeps counting against the load.
    fn delete(&mut self, at: usize) {
        let (group, i) = (&mut self.groups[at / GROUP], at % GROUP);
        if group.empty() != 0 {
            group.set(i, EMPTY);
            self.growth_left += 1;
        } else {
            group.set(i, DELETED);
        }
    }
}

/// What a [`Relation`] shares by `Arc`: the rows and, once it was asked
/// for, the table over them. Invariant: the rows are distinct, and an
/// initialised table indexes exactly them.
#[derive(Debug, Clone, Default)]
struct Store {
    rows: Rows,
    table: OnceLock<Table>,
}

impl Store {
    fn table(&self) -> &Table {
        self.table.get_or_init(|| Table::build(&self.rows, 0))
    }

    /// The rows and the (now built) table, both mutable.
    fn parts_mut(&mut self) -> (&mut Rows, &mut Table) {
        self.table();
        (&mut self.rows, self.table.get_mut().expect("just built"))
    }

    fn contains(&self, row: &[Value]) -> bool {
        self.table().probe(&self.rows, row, row_hash(row)).is_ok()
    }

    /// Inserts `row`; true if it was new.
    #[inline]
    fn insert(&mut self, row: &[Value]) -> bool {
        let (rows, table) = self.parts_mut();
        let hash = row_hash(row);
        let Err(at) = table.probe(rows, row, hash) else {
            return false;
        };
        assert!(rows.len < MAX_ROWS, "relation exceeds the u32 row-id space");
        rows.push(row);
        if table.can_fill(at) {
            table.fill(at, hash, rows.len - 1);
        } else {
            table.grow(rows);
        }
        true
    }

    /// Appends rows the caller knows are distinct from one another and from
    /// every row held. No row is compared with any other.
    fn extend_distinct(&mut self, more: &Rows) {
        let from = self.rows.len;
        assert!(from + more.len <= MAX_ROWS, "relation exceeds the u32 row-id space");
        self.rows.append(more);
        if let Some(table) = self.table.get_mut() {
            if table.fits(more.len) {
                for (id, row) in more.iter().enumerate() {
                    table.place(row_hash(row), from + id);
                }
            } else {
                table.rebuild(&self.rows, 0);
            }
        }
    }

    /// Makes room for `additional` more rows, in the table too if there
    /// is one.
    fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
        let want = self.rows.len + additional;
        if let Some(table) = self.table.get_mut() {
            if !table.fits(additional) {
                table.rebuild(&self.rows, want);
            }
        }
    }

    /// Removes the row slot `at` points to: the last row moves into its
    /// place (its slot is re-pointed), then the slot is deleted.
    fn remove_at(&mut self, at: usize) {
        let (rows, table) = self.parts_mut();
        let id = table.id(at);
        let last = rows.len - 1;
        if id != last {
            let moved = table.slot_of_id(row_hash(rows.get(last)), last);
            table.set_id(moved, id);
        }
        rows.swap_remove(id);
        table.delete(at);
    }
}

/// Fails with [`MuraError::ResourceExhausted`] if a relation of `held` rows
/// cannot take `additional` more within the `u32` row-id space
/// ([`MAX_ROWS`]). The fixpoint drivers ask before they grow an
/// accumulator; growing past the limit without asking panics.
pub fn check_room(held: usize, additional: usize) -> Result<()> {
    match held.checked_add(additional) {
        Some(total) if total <= MAX_ROWS => Ok(()),
        reached => Err(MuraError::ResourceExhausted {
            what: "rows in one relation",
            limit: MAX_ROWS as u64,
            reached: reached.map_or(u64::MAX, |r| r as u64),
        }),
    }
}

// --------------------------------------------------------------- relation

/// A set of rows with a fixed schema.
///
/// Row storage is `Arc`-shared copy-on-write: cloning a relation, an
/// identity rename, or a union with an empty side are O(1) pointer copies.
/// Mutation goes through [`Arc::make_mut`], so the store is copied — two
/// buffer copies, whatever the row count — only when actually shared; the
/// fixpoint kernels rely on this to keep loop-invariant relations zero-copy
/// across iterations and checkpoints cheap.
///
/// Equality is set equality: same schema, same rows, in whatever order
/// each side happens to store them.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    schema: Schema,
    store: Arc<Store>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.schema == other.schema
            && self.len() == other.len()
            && (Arc::ptr_eq(&self.store, &other.store) || self.iter().all(|r| other.contains(r)))
    }
}

impl Eq for Relation {}

impl Relation {
    /// Empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        let rows = Rows::new(schema.arity());
        Relation::from_distinct(schema, rows)
    }

    /// Builds a relation from rows, deduplicating.
    ///
    /// # Panics
    /// Panics if a row's arity differs from the schema's.
    pub fn from_rows<I>(schema: Schema, rows: I) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<[Value]>,
    {
        let mut r = Relation::new(schema);
        r.extend(rows);
        r
    }

    /// Wraps rows the caller knows are distinct — the output of an operator
    /// that cannot produce a row twice — taking the buffer as it is. No row
    /// is hashed or compared.
    ///
    /// # Panics
    /// Panics if the rows' arity differs from the schema's.
    pub fn from_distinct(schema: Schema, rows: Rows) -> Self {
        assert_eq!(rows.arity, schema.arity(), "row arity != schema arity");
        assert!(rows.len <= MAX_ROWS, "{} rows exceed the u32 row-id space", rows.len);
        Relation { schema, store: Arc::new(Store { rows, table: OnceLock::new() }) }
    }

    /// Builds a relation from a bag of rows, deduplicating **in place**:
    /// the bag's buffer becomes the relation's, later copies of a row are
    /// squeezed out of it, and the table comes out built.
    ///
    /// # Panics
    /// Panics if the rows' arity differs from the schema's.
    pub fn from_bag(schema: Schema, mut rows: Rows) -> Self {
        assert_eq!(rows.arity, schema.arity(), "row arity != schema arity");
        let mut table = Table::for_rows(rows.len);
        let arity = rows.arity;
        let mut kept = 0;
        for read in 0..rows.len {
            // Rows `..kept` are the distinct prefix the table indexes.
            let hash = row_hash(rows.get(read));
            if let Err(at) = table.probe(&rows, rows.get(read), hash) {
                rows.vals.copy_within(read * arity..(read + 1) * arity, kept * arity);
                table.fill(at, hash, kept);
                kept += 1;
            }
        }
        rows.truncate(kept);
        Relation { schema, store: Arc::new(Store { rows, table: table.into() }) }
    }

    /// Convenience: a binary relation over `(a, b)` from integer pairs.
    pub fn from_pairs(a: Sym, b: Sym, pairs: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let schema = Schema::new(vec![a, b]);
        // Schema sorts columns; figure out which position a and b landed in.
        let pa = schema.position(a).unwrap();
        let it = pairs.into_iter();
        let mut rows = Rows::with_capacity(2, it.size_hint().0);
        for (x, y) in it {
            let (vx, vy) = (Value::node(x), Value::node(y));
            rows.push(&if pa == 0 { [vx, vy] } else { [vy, vx] });
        }
        Relation::from_bag(schema, rows)
    }

    /// Reserves capacity for at least `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        if additional > 0 {
            Arc::make_mut(&mut self.store).reserve(additional);
        }
    }

    /// The relation's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.store.rows.len
    }

    /// True if the relation has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.store.rows.is_empty()
    }

    /// Row iterator, in storage (insertion) order.
    #[inline]
    pub fn iter(&self) -> RowIter<'_> {
        self.store.rows.iter()
    }

    /// The rows as one buffer.
    #[inline]
    pub fn rows(&self) -> &Rows {
        &self.store.rows
    }

    /// Membership test (builds the table if nothing has yet).
    #[inline]
    pub fn contains(&self, row: &[Value]) -> bool {
        row.len() == self.schema.arity() && self.store.contains(row)
    }

    /// Inserts a row; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if the row arity differs from the schema arity.
    pub fn insert(&mut self, row: impl AsRef<[Value]>) -> bool {
        let row = row.as_ref();
        self.assert_arity(row);
        Arc::make_mut(&mut self.store).insert(row)
    }

    fn assert_arity(&self, row: &[Value]) {
        let arity = self.schema.arity();
        assert_eq!(row.len(), arity, "row arity {} != schema arity {arity}", row.len());
    }

    /// Removes a row; returns `true` if it was present. O(1): the last row
    /// takes the removed row's place. Like [`insert`], mutation goes through
    /// `Arc::make_mut`, and a shared store is copied only when a removal
    /// actually happens.
    ///
    /// [`insert`]: Relation::insert
    pub fn remove(&mut self, row: &[Value]) -> bool {
        if row.len() != self.schema.arity() {
            return false;
        }
        let Ok(at) = self.store.table().probe(&self.store.rows, row, row_hash(row)) else {
            return false;
        };
        // A copy of the store has the same slots in the same places.
        Arc::make_mut(&mut self.store).remove_at(at);
        true
    }

    /// Moves all rows of `other` into `self` (schemas must match). When one
    /// side is empty this is an O(1) pointer move; otherwise the rows of the
    /// smaller side are inserted into the larger one.
    pub fn absorb(&mut self, other: Relation) {
        assert_eq!(self.schema, other.schema, "union of incompatible schemas");
        if other.is_empty() {
            return;
        }
        let mut other = other;
        if other.len() > self.len() {
            std::mem::swap(&mut self.store, &mut other.store);
        }
        self.extend(other.iter());
    }

    /// Appends rows the caller knows are distinct from one another and from
    /// every row of `self`: partitions of one hash-placed set. No row is compared; if
    /// the table was never built, none is hashed either.
    ///
    /// # Panics
    /// Panics if the rows' arity differs from the schema's.
    pub fn extend_distinct(&mut self, rows: &Rows) {
        assert_eq!(rows.arity, self.schema.arity(), "row arity != schema arity");
        if !rows.is_empty() {
            Arc::make_mut(&mut self.store).extend_distinct(rows);
        }
    }

    /// In-place accumulate, the update of BigDatalog's SetRDD: inserts every
    /// row of `produced` that is absent and returns exactly those rows — the
    /// next semi-naive delta. Costs O(|produced|) whatever the size of
    /// `self`, as long as the store is not shared; a store a checkpoint
    /// still references is copied once, by the first row that is new.
    ///
    /// # Panics
    /// Panics if the rows' arity differs from the schema's.
    pub fn absorb_new(&mut self, produced: &Rows) -> Relation {
        assert_eq!(produced.arity, self.schema.arity(), "row arity != schema arity");
        let mut delta = Rows::new(produced.arity);
        let mut produced = produced.iter();
        // Shared storage is left alone until a row actually is new.
        if let Some(first) = produced.by_ref().find(|row| !self.store.contains(row)) {
            let acc = Arc::make_mut(&mut self.store);
            acc.insert(first);
            delta.push(first);
            for row in produced {
                if acc.insert(row) {
                    delta.push(row);
                }
            }
        }
        Relation::from_distinct(self.schema.clone(), delta)
    }

    /// The same rows under another schema of the same arity.
    fn with_schema(&self, schema: Schema) -> Relation {
        Relation { schema, store: Arc::clone(&self.store) }
    }

    /// Rows kept only when `pred` holds.
    pub fn filter(&self, pred: impl FnMut(&[Value]) -> bool) -> Relation {
        Relation::from_distinct(self.schema.clone(), self.rows().filter(pred))
    }

    /// ρ_from^to: renames a column. The schema stays sorted, so row fields are
    /// permuted accordingly.
    ///
    /// # Panics
    /// Panics if `from` is absent or `to` already exists.
    pub fn rename(&self, from: Sym, to: Sym) -> Relation {
        let new_schema = self
            .schema
            .rename(from, to)
            .unwrap_or_else(|| panic!("invalid rename {from:?} -> {to:?} on {}", self.schema));
        // For each position in the new schema, the source position in the old.
        let perm: Vec<usize> = new_schema
            .columns()
            .iter()
            .map(|&c| {
                let oc = if c == to { from } else { c };
                self.schema.position(oc).unwrap()
            })
            .collect();
        if perm.iter().enumerate().all(|(i, &p)| i == p) {
            // Identity permutation: share the store, O(1).
            return self.with_schema(new_schema);
        }
        // A permutation of the fields maps distinct rows to distinct rows.
        Relation::from_distinct(new_schema, self.rows().project(&perm))
    }

    /// π̃_cols: drops the given columns, deduplicating the result.
    ///
    /// # Panics
    /// Panics if a dropped column is absent.
    pub fn antiproject(&self, drop: &[Sym]) -> Relation {
        let new_schema = self
            .schema
            .antiproject(drop)
            .unwrap_or_else(|| panic!("invalid antiprojection of {drop:?} on {}", self.schema));
        if new_schema.arity() == self.schema.arity() {
            // Nothing actually dropped: share the store, O(1).
            return self.with_schema(new_schema);
        }
        let keep: Vec<usize> =
            new_schema.columns().iter().map(|&c| self.schema.position(c).unwrap()).collect();
        Relation::from_bag(new_schema, self.rows().project(&keep))
    }

    /// Natural join on all common columns. If there are no common columns the
    /// result is the cartesian product.
    pub fn join(&self, other: &Relation) -> Relation {
        join_plan(&self.schema, &other.schema).execute(self, other)
    }

    /// φ ▷ ψ: rows of `self` with **no** match in `other` on the common
    /// columns. With no common columns, returns `self` if `other` is empty
    /// and the empty relation otherwise (standard antijoin semantics).
    pub fn antijoin(&self, other: &Relation) -> Relation {
        let common = self.schema.intersection(&other.schema);
        if common.is_empty() {
            return if other.is_empty() {
                self.clone()
            } else {
                Relation::new(self.schema.clone())
            };
        }
        if other.is_empty() {
            return self.clone();
        }
        let my_pos: Vec<usize> = common.iter().map(|&c| self.schema.position(c).unwrap()).collect();
        let their_pos: Vec<usize> =
            common.iter().map(|&c| other.schema.position(c).unwrap()).collect();
        // Chain the right side's rows by key hash; probe without building
        // key rows.
        let theirs = other.rows();
        let (keys, _) = Buckets::of_distinct_keys(theirs, &their_pos);
        self.filter(|r| {
            !keys.chain(hash_key(r, &my_pos)).any(|id| {
                let o = theirs.get(id);
                my_pos.iter().zip(&their_pos).all(|(&mp, &tp)| r[mp] == o[tp])
            })
        })
    }

    /// Set union (schemas must match). O(1) when either side is empty.
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(self.schema, other.schema, "union of incompatible schemas");
        let (big, small) = if self.len() >= other.len() { (self, other) } else { (other, self) };
        let mut out = big.clone();
        out.extend(small.iter());
        out
    }

    /// Set difference `self \ other` (schemas must match). O(1) when `other`
    /// is empty.
    pub fn minus(&self, other: &Relation) -> Relation {
        assert_eq!(self.schema, other.schema, "difference of incompatible schemas");
        if other.is_empty() || self.is_empty() {
            return self.clone();
        }
        self.filter(|r| !other.store.contains(r))
    }

    /// The row ids in lexicographic order of their rows: `rows().get(id)`
    /// for each is the relation in sorted order, with no row copied.
    pub fn sorted_ids(&self) -> Vec<u32> {
        self.rows().sorted_ids()
    }

    /// The rows in lexicographic order, read where they are: what a
    /// canonical rendering, encoding or hash of the relation walks.
    pub fn iter_sorted(&self) -> impl ExactSizeIterator<Item = &[Value]> {
        let rows = self.rows();
        self.sorted_ids().into_iter().map(move |id| rows.get(id as usize))
    }

    /// Sorted list of rows, each an owned [`Row`]; useful for deterministic
    /// test assertions. Readers on a hot path go through
    /// [`Relation::iter_sorted`] instead.
    pub fn sorted_rows(&self) -> Vec<Row> {
        self.iter_sorted().map(Row::from).collect()
    }

    /// Whether anything has built the table yet.
    #[cfg(test)]
    pub(crate) fn has_table(&self) -> bool {
        self.store.table.get().is_some()
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a [Value];
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<R: AsRef<[Value]>> Extend<R> for Relation {
    /// Inserts every row, deduplicating; the store is made unique and
    /// grown once for the whole batch.
    ///
    /// # Panics
    /// Panics if a row's arity differs from the schema's.
    fn extend<I: IntoIterator<Item = R>>(&mut self, rows: I) {
        let mut rows = rows.into_iter().peekable();
        if rows.peek().is_none() {
            return; // leave a shared store shared
        }
        let expected = rows.size_hint().0;
        self.reserve(expected);
        let store = Arc::make_mut(&mut self.store);
        // Sized for the batch, if this is what builds it.
        store.table.get_or_init(|| Table::build(&store.rows, store.rows.len + expected));
        for row in rows {
            let row = row.as_ref();
            assert_eq!(row.len(), store.rows.arity, "row arity != schema arity");
            store.insert(row);
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} rows]", self.schema, self.len())?;
        for row in self.iter_sorted().take(20) {
            write!(f, "  (")?;
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            writeln!(f, ")")?;
        }
        if self.len() > 20 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

/// Precomputed positional plan for a natural join between two schemas.
/// The distributed layer builds this once per join and reuses it per
/// partition.
#[derive(Debug, Clone)]
pub struct JoinPlan {
    /// Output schema (union of inputs).
    pub out_schema: Schema,
    /// Positions of the join key in the left input.
    pub left_key: Vec<usize>,
    /// Positions of the join key in the right input.
    pub right_key: Vec<usize>,
    /// For each output position: (from_left, source position).
    pub out_src: Vec<(bool, usize)>,
}

/// Computes the join plan between two schemas.
pub fn join_plan(left: &Schema, right: &Schema) -> JoinPlan {
    let common = left.intersection(right);
    let left_key = common.iter().map(|&c| left.position(c).unwrap()).collect();
    let right_key = common.iter().map(|&c| right.position(c).unwrap()).collect();
    let out_schema = left.union(right);
    let out_src = out_schema
        .columns()
        .iter()
        .map(|&c| match left.position(c) {
            Some(p) => (true, p),
            None => (false, right.position(c).unwrap()),
        })
        .collect();
    JoinPlan { out_schema, left_key, right_key, out_src }
}

impl JoinPlan {
    /// Appends to `out` the output row of one matching pair.
    #[inline]
    fn push_joined(&self, out: &mut Rows, left: &[Value], right: &[Value]) {
        out.push_values(
            self.out_src.iter().map(|&(from_left, p)| if from_left { left[p] } else { right[p] }),
        );
    }

    /// Hash join of two relations with this plan. Builds on the smaller
    /// side, whose rows are chained by a 64-bit hash of the join-key
    /// positions where they are (no boxed key rows on either build or probe
    /// path, no copy of the build side); chain entries are verified by
    /// positional equality. The output holds every column of both sides,
    /// so each matching pair yields a row no other pair yields: it is
    /// appended, never looked up.
    pub fn execute(&self, left: &Relation, right: &Relation) -> Relation {
        if left.is_empty() || right.is_empty() {
            return Relation::new(self.out_schema.clone());
        }
        let build_left = left.len() <= right.len();
        let (build, probe) = if build_left { (left, right) } else { (right, left) };
        let (build_key, probe_key) = if build_left {
            (&self.left_key, &self.right_key)
        } else {
            (&self.right_key, &self.left_key)
        };
        let build_rows = build.rows();
        let chains = Buckets::of_rows(build_rows, build_key);
        let mut out = Rows::with_capacity(self.out_src.len(), probe.len());
        for prow in probe.iter() {
            for id in chains.chain(hash_key(prow, probe_key)) {
                let brow = build_rows.get(id);
                if !probe_key.iter().zip(build_key).all(|(&pp, &bp)| prow[pp] == brow[bp]) {
                    continue;
                }
                let (lrow, rrow) = if build_left { (brow, prow) } else { (prow, brow) };
                self.push_joined(&mut out, lrow, rrow);
            }
        }
        Relation::from_distinct(self.out_schema.clone(), out)
    }
}

#[cfg(test)]
mod tests;
