//! The plan-space memo: equivalence groups of μ-RA terms keyed by a
//! canonical term hash.
//!
//! The enumerator ([`crate::enumerate`]) explores semantically equivalent
//! rewritings of every closed subterm. Each subterm owns a **group**; the
//! group's **members** are the alternative plans derived for it by the
//! closure/normalization rule families. Two practical problems shape the
//! design:
//!
//! * **Alpha-equivalence.** `ClosureForm::emit` and `compose` mint fresh
//!   symbols (`X#7`, `m#12`) on every call, so two derivations of the same
//!   plan never collide under [`mura_core::term_key`]. The memo therefore
//!   keys groups by [`mura_core::canon_key`], which numbers *generated*
//!   symbols by first occurrence — structurally equal plans that differ
//!   only in fresh symbol identity hash alike, while user-named relations
//!   and columns keep their identity. Symbols bound by an *enclosing*
//!   fixpoint are pinned (hashed raw): a member mentioning an outer
//!   recursion variable is only interchangeable within that exact scope.
//! * **Re-derivation.** Transformation rules invert each other (reversing a
//!   closure twice is the identity), so naive expansion loops. Every member
//!   carries a [`RuleMask`] of the rule families already applied to it; the
//!   enumerator only expands a member through families still unset, and
//!   the per-group key set drops duplicates arriving through other
//!   derivation paths.
//!
//! Groups are cost-ordered and truncated to a beam width when sealed; the
//! global member budget bounds the whole enumeration (the four budget
//! constants in [`crate::rewriter`]).

use mura_core::fxhash::{FxHashMap, FxHashSet};
use mura_core::Term;

/// Bitmask of transformation rule families already applied to a member.
pub type RuleMask = u8;

/// Composition-pattern alternatives (merge fixpoints / push join /
/// reverse-then-push) were generated from this member.
pub const RULE_COMPOSE: RuleMask = 1;
/// Filter-over-closure reversal alternatives were generated.
pub const RULE_REVERSE: RuleMask = 1 << 1;
/// Join-into-fixpoint pushes were generated.
pub const RULE_JOIN_PUSH: RuleMask = 1 << 2;
/// The greedy pipeline rollout was applied to this member.
pub const RULE_ROLLOUT: RuleMask = 1 << 3;
/// All families: nothing left to derive from this member.
pub const RULE_ALL: RuleMask = RULE_COMPOSE | RULE_REVERSE | RULE_JOIN_PUSH | RULE_ROLLOUT;

/// Index of a group in the memo.
pub type GroupId = usize;

/// One explored plan in a group.
#[derive(Debug, Clone)]
pub struct Member {
    /// The (normalized) plan.
    pub term: Term,
    /// Estimated cost under the enumeration's cost model; `INFINITY` when
    /// the plan could not be costed (kept only as a last resort).
    pub cost: f64,
    /// Canonical key of `term`.
    pub key: u64,
    /// Rule families already applied to this member.
    pub mask: RuleMask,
}

/// An equivalence class of plans for one subterm.
#[derive(Debug, Default)]
pub struct Group {
    /// Explored members; cost-ordered once the group is sealed.
    pub members: Vec<Member>,
    /// Keys of all members ever added (also the ones beam-truncated away),
    /// so re-derived plans are dropped instead of re-expanded.
    keys: FxHashSet<u64>,
}

/// The plan-space memo: groups indexed by the canonical key of every term
/// that has been explored into them.
#[derive(Debug, Default)]
pub struct Memo {
    groups: Vec<Group>,
    by_key: FxHashMap<u64, GroupId>,
    members_total: usize,
}

impl Memo {
    /// A fresh, empty memo.
    pub fn new() -> Memo {
        Memo::default()
    }

    /// The group already holding a term with this canonical key, if any.
    pub fn lookup(&self, key: u64) -> Option<GroupId> {
        self.by_key.get(&key).copied()
    }

    /// Creates an empty group and indexes `key` into it.
    pub fn create(&mut self, key: u64) -> GroupId {
        let gid = self.groups.len();
        self.groups.push(Group::default());
        self.by_key.insert(key, gid);
        gid
    }

    /// Adds a member plan to `gid` unless an equal plan (by canonical key)
    /// was already derived there. Returns whether the member was new. The
    /// key is also indexed memo-wide so a later exploration of an equal
    /// term reuses this group.
    pub fn add(&mut self, gid: GroupId, term: Term, cost: f64, key: u64, mask: RuleMask) -> bool {
        let group = &mut self.groups[gid];
        if !group.keys.insert(key) {
            return false;
        }
        group.members.push(Member { term, cost, key, mask });
        self.members_total += 1;
        self.by_key.entry(key).or_insert(gid);
        true
    }

    /// Read access to a group.
    pub fn group(&self, gid: GroupId) -> &Group {
        &self.groups[gid]
    }

    /// Mutable access to a group's members (rule-mask updates).
    pub fn members_mut(&mut self, gid: GroupId) -> &mut Vec<Member> {
        &mut self.groups[gid].members
    }

    /// Cost-sorts a group and truncates it to `beam` members; members of
    /// equal cost keep the order they were derived in (a commuted join
    /// costs what the join costs). Not the key: it hashes the ids of query
    /// variables and enclosing binders, which depend on what was planned
    /// before. Truncated keys stay indexed, so the pruned plans are not
    /// re-derived later.
    pub fn seal(&mut self, gid: GroupId, beam: usize) {
        let group = &mut self.groups[gid];
        group
            .members
            .sort_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap_or(std::cmp::Ordering::Equal));
        if group.members.len() > beam {
            self.members_total -= group.members.len() - beam;
            group.members.truncate(beam);
        }
    }

    /// The cheapest `limit` member terms of a sealed group.
    pub fn top_terms(&self, gid: GroupId, limit: usize) -> Vec<Term> {
        self.groups[gid].members.iter().take(limit.max(1)).map(|m| m.term.clone()).collect()
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Live members across all groups.
    pub fn member_count(&self) -> usize {
        self.members_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::{canon_key, Database};

    #[test]
    fn generated_symbol_detection() {
        // Generated is what `fresh` handed out, not what a name looks like.
        let mut db = Database::new();
        let (named, other) = (db.intern("X#1"), db.intern("X#2"));
        let (x1, x2) = (db.dict_mut().fresh("X"), db.dict_mut().fresh("X"));
        assert_eq!(db.dict().resolve(named), db.dict().resolve(x1));
        assert_ne!(canon_key(&Term::var(named), &[]), canon_key(&Term::var(other), &[]));
        assert_eq!(canon_key(&Term::var(x1), &[]), canon_key(&Term::var(x2), &[]));
    }

    #[test]
    fn canon_key_ignores_fresh_identity() {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let e = db.intern("E");
        let mk = |db: &mut Database| {
            let x = db.dict_mut().fresh("X");
            let m = db.dict_mut().fresh("m");
            Term::var(e)
                .union(Term::var(x).rename(dst, m).join(Term::var(e).rename(src, m)).antiproject(m))
                .fix(x)
        };
        let t1 = mk(&mut db);
        let t2 = mk(&mut db);
        assert_ne!(mura_core::term_key(&t1), mura_core::term_key(&t2));
        assert_eq!(canon_key(&t1, &[]), canon_key(&t2, &[]));
    }

    #[test]
    fn canon_key_distinguishes_user_symbols() {
        let mut db = Database::new();
        let a = db.intern("a");
        let b = db.intern("b");
        assert_ne!(canon_key(&Term::var(a), &[]), canon_key(&Term::var(b), &[]));
    }

    #[test]
    fn pinned_vars_hash_raw() {
        let mut db = Database::new();
        let x1 = db.dict_mut().fresh("X");
        let x2 = db.dict_mut().fresh("X");
        // Unpinned: alpha-equivalent.
        assert_eq!(canon_key(&Term::var(x1), &[]), canon_key(&Term::var(x2), &[]));
        // Pinned (bound by an enclosing fixpoint): distinct.
        assert_ne!(canon_key(&Term::var(x1), &[x1, x2]), canon_key(&Term::var(x2), &[x1, x2]));
    }

    #[test]
    fn memo_dedups_and_seals() {
        let mut db = Database::new();
        let a = db.intern("a");
        let mut memo = Memo::new();
        let key = canon_key(&Term::var(a), &[]);
        let gid = memo.create(key);
        assert!(memo.add(gid, Term::var(a), 1.0, key, 0));
        assert!(!memo.add(gid, Term::var(a), 1.0, key, 0), "duplicate key must be dropped");
        let b = db.intern("b");
        let kb = canon_key(&Term::var(b), &[]);
        assert!(memo.add(gid, Term::var(b), 0.5, kb, 0));
        memo.seal(gid, 1);
        assert_eq!(memo.group(gid).members.len(), 1);
        assert_eq!(memo.group(gid).members[0].cost, 0.5);
        // Truncated keys stay known.
        assert!(!memo.add(gid, Term::var(a), 1.0, key, 0));
        assert_eq!(memo.member_count(), 1);
    }
}
