//! Relation unions and the preference universe — the dominance kernel
//! behind exact bounded-memory history compaction.
//!
//! Append-only monitors must retain past objects so a mid-stream
//! `REGISTER`/`UPDATE` can backfill a frontier by replay. Retaining the
//! whole stream is unbounded; truncating it makes backfill inexact. The
//! alternative implemented here keeps backfill *exact* for every
//! preference the system has ever seen while retaining only the objects
//! that some such preference still places on a frontier (the per-user
//! *skyline union*):
//!
//! * [`RelationUnion`] — the per-attribute union `U_d = ∪_c ≻ᵈ_c` of every
//!   observed relation, as a growable bit matrix in the style of
//!   [`CompiledRelation`](crate::CompiledRelation). Unlike a
//!   [`Relation`](crate::Relation) it need not be a strict partial order
//!   (two users may disagree on a value pair), so it is a separate type: a
//!   pure edge set with O(1) membership.
//! * [`PreferenceUniverse`] — the set of *distinct* preferences ever
//!   observed (compiled, deduplicated), together with their per-attribute
//!   [`RelationUnion`]s. It answers the two questions compaction needs:
//!   [`PreferenceUniverse::union_dominates`], a cheap *necessary* condition
//!   for "some observed preference lets `a` dominate `b`" used to prune
//!   candidate pairs, and [`PreferenceUniverse::members`], the authoritative
//!   per-preference dominance checks. [`PreferenceUniverse::absorb`]
//!   reports whether a preference brought *novel* tuples (outside the
//!   current union) — the one case where an already-compacted history
//!   cannot promise exact backfill.

use std::collections::HashSet;

use pm_model::{AttrId, Object, ValueId};

use crate::compiled::CompiledPreference;
use crate::preference::Preference;

/// `RelationUnion::index_of` marker for a value never interned.
const NONE: u32 = u32::MAX;

/// The union of several strict partial orders over one attribute, as a
/// growable bit matrix: bit `j` of row `i` is set iff some absorbed
/// relation prefers `universe[i]` to `universe[j]`. Values map to rows
/// through a table indexed by raw value id, as in
/// [`CompiledRelation`](crate::CompiledRelation), so the table is as long
/// as the largest absorbed value id (see
/// [`MAX_PREFERENCE_VALUE`](crate::MAX_PREFERENCE_VALUE)).
///
/// The union of strict partial orders is generally *not* a strict partial
/// order (observers may disagree on a pair's direction), so this type keeps
/// a plain edge set: [`RelationUnion::contains`] is a single shift-and-mask
/// like [`CompiledRelation::prefers`], but no order laws are implied.
///
/// [`CompiledRelation::prefers`]: crate::CompiledRelation::prefers
#[derive(Debug, Clone, Default)]
pub struct RelationUnion {
    /// `ValueId.raw() → dense index` (`NONE` where unseen); values are
    /// interned on first sight.
    index_of: Vec<u32>,
    /// Dense index → interned value, in interning order.
    universe: Vec<ValueId>,
    /// Width of each bit-row in 64-bit words.
    words_per_row: usize,
    /// `universe.len() * words_per_row` words, row-major.
    bits: Vec<u64>,
    /// Number of distinct edges (total popcount).
    len: usize,
}

impl RelationUnion {
    /// An empty union.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct `(x, y)` edges absorbed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no edge has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether some absorbed relation prefers `x` to `y`.
    #[inline]
    pub fn contains(&self, x: ValueId, y: ValueId) -> bool {
        match (self.dense(x), self.dense(y)) {
            (Some(ix), Some(iy)) => {
                (self.bits[ix * self.words_per_row + iy / 64] >> (iy % 64)) & 1 == 1
            }
            _ => false,
        }
    }

    /// The dense index of `v`, if interned.
    #[inline]
    fn dense(&self, v: ValueId) -> Option<usize> {
        match self.index_of.get(v.index()) {
            Some(&ix) if ix != NONE => Some(ix as usize),
            _ => None,
        }
    }

    /// Interns `v`, growing (and if necessary re-laying-out) the bit matrix.
    fn intern(&mut self, v: ValueId) -> usize {
        if let Some(ix) = self.dense(v) {
            return ix;
        }
        let ix = self.universe.len();
        self.universe.push(v);
        if self.index_of.len() <= v.index() {
            self.index_of.resize(v.index() + 1, NONE);
        }
        self.index_of[v.index()] = ix as u32;
        let words = (ix + 1).div_ceil(64);
        if words != self.words_per_row {
            // Row width grew: re-lay out the matrix word by word.
            let old_words = self.words_per_row;
            let mut bits = vec![0u64; (ix + 1) * words];
            for row in 0..ix {
                bits[row * words..row * words + old_words]
                    .copy_from_slice(&self.bits[row * old_words..(row + 1) * old_words]);
            }
            self.bits = bits;
            self.words_per_row = words;
        } else {
            self.bits.extend(std::iter::repeat(0u64).take(words));
        }
        ix
    }

    /// Adds one edge, returning whether it was new.
    pub fn insert(&mut self, x: ValueId, y: ValueId) -> bool {
        let ix = self.intern(x);
        let iy = self.intern(y);
        let word = &mut self.bits[ix * self.words_per_row + iy / 64];
        let mask = 1u64 << (iy % 64);
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        self.len += 1;
        true
    }

    /// Absorbs every edge of `relation`, returning how many were new.
    pub fn absorb(&mut self, relation: &crate::Relation) -> usize {
        let mut added = 0;
        for (x, y) in relation.pairs() {
            if self.insert(x, y) {
                added += 1;
            }
        }
        added
    }

    /// Whether every edge of `relation` is already in the union.
    pub fn covers(&self, relation: &crate::Relation) -> bool {
        relation.pairs().all(|(x, y)| self.contains(x, y))
    }
}

/// Per-attribute ascending tuple lists — the structural identity of a
/// preference, used to deduplicate universe members.
type Fingerprint = Vec<Vec<(u32, u32)>>;

fn fingerprint(preference: &Preference) -> Fingerprint {
    preference
        .relations()
        .map(|(_, rel)| rel.pairs().map(|(x, y)| (x.raw(), y.raw())).collect())
        .collect()
}

/// Every *distinct* preference a monitor has ever observed, plus the
/// per-attribute [`RelationUnion`] of their relations.
///
/// This is the dominance authority for history compaction: an object may be
/// evicted only when, **for every member preference**, some retained object
/// dominates it — i.e. the retained set is exactly the union of the
/// members' skylines (plus value-duplicates). That criterion is monotone in
/// the member set, so the universe only ever grows ([`absorb`]); observing
/// a user leaving does not shrink it, which is what keeps backfill exact
/// when a previously-seen preference re-registers later.
///
/// [`absorb`]: PreferenceUniverse::absorb
#[derive(Debug, Clone, Default)]
pub struct PreferenceUniverse {
    members: Vec<CompiledPreference>,
    fingerprints: HashSet<Fingerprint>,
    unions: Vec<RelationUnion>,
    /// Whether any member carries no tuple at all (see
    /// [`PreferenceUniverse::has_empty_member`]).
    has_empty_member: bool,
}

impl PreferenceUniverse {
    /// An empty universe (no preference observed yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct preferences observed.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no preference has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The distinct observed preferences, compiled.
    pub fn members(&self) -> &[CompiledPreference] {
        &self.members
    }

    /// Total number of distinct `(attribute, x ≻ y)` tuples in the union.
    pub fn union_len(&self) -> usize {
        self.unions.iter().map(RelationUnion::len).sum()
    }

    /// Whether every tuple of `preference` is already inside the union —
    /// i.e. absorbing it would *not* widen the per-attribute edge sets.
    /// Note this is **not** the exactness criterion for compacted
    /// backfill: a never-seen preference that is *weaker* than the union
    /// (a tuple subset, or the empty preference) is fully covered yet its
    /// full-stream frontier can contain objects every *member* preference
    /// had voted off. Exactness is keyed on membership
    /// ([`PreferenceUniverse::contains`]), coverage only tells whether the
    /// dominance pre-filter would widen.
    pub fn covers(&self, preference: &Preference) -> bool {
        preference.relations().all(|(attr, rel)| {
            self.unions
                .get(attr.index())
                .map_or(rel.is_empty(), |union| union.covers(rel))
        })
    }

    /// Whether a structurally identical preference has been absorbed
    /// before. Compacted backfill is exact precisely for member
    /// preferences: each sweep retains every member's full-stream skyline.
    pub fn contains(&self, preference: &Preference) -> bool {
        self.fingerprints.contains(&fingerprint(preference))
    }

    /// Observes `preference`: adds it to the member set (deduplicated) and
    /// its tuples to the per-attribute unions. Returns `true` when the
    /// preference was **not previously a member** — the novel case: sweeps
    /// run before this call did not protect this preference's skyline, so
    /// a backfill for it may be inexact (from this call on it is
    /// protected).
    pub fn absorb(&mut self, preference: &Preference) -> bool {
        let novel = self.fingerprints.insert(fingerprint(preference));
        if novel {
            if self.unions.len() < preference.arity() {
                self.unions
                    .resize_with(preference.arity(), RelationUnion::new);
            }
            for (attr, rel) in preference.relations() {
                self.unions[attr.index()].absorb(rel);
            }
            self.has_empty_member |= preference.is_empty();
            self.members.push(preference.compile());
        }
        novel
    }

    /// Whether some member holds no preference tuple at all. Such a member
    /// places *every* distinct value vector on its frontier, so no object
    /// can ever be evicted while it is in the universe — callers use this
    /// to skip sweep work that cannot evict anything.
    pub fn has_empty_member(&self) -> bool {
        self.has_empty_member
    }

    /// Whether `a` dominates `b` under the *permissive* union reading: on
    /// every attribute where the values differ, some member prefers `a`'s
    /// value (ignoring disagreeing members), strictly on at least one.
    ///
    /// This is a **necessary** condition for `a` to dominate `b` under any
    /// member preference — every tuple a member uses is in the union — but
    /// not sufficient: the witnessing tuples may come from different
    /// members, and a disagreeing member may hold the reverse tuple. It is
    /// the cheap pre-filter that narrows candidate dominator pairs before
    /// the per-member checks.
    pub fn union_dominates(&self, a: &Object, b: &Object) -> bool {
        let arity = a.arity().min(b.arity());
        let mut strict = false;
        for attr in 0..arity {
            let attr_id = AttrId::from(attr);
            let (av, bv) = (a.value(attr_id), b.value(attr_id));
            if av == bv {
                continue;
            }
            match self.unions.get(attr) {
                Some(union) if union.contains(av, bv) => strict = true,
                // No member has ever preferred `av` to `bv` on this
                // attribute: no member preference can dominate across it.
                _ => return false,
            }
        }
        strict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_model::ObjectId;

    fn v(i: u32) -> ValueId {
        ValueId::new(i)
    }

    fn a(i: u32) -> AttrId {
        AttrId::new(i)
    }

    fn obj(id: u64, vals: &[u32]) -> Object {
        Object::new(ObjectId::new(id), vals.iter().map(|&x| v(x)).collect())
    }

    #[test]
    fn union_holds_conflicting_directions() {
        let mut union = RelationUnion::new();
        assert!(union.insert(v(0), v(1)));
        assert!(union.insert(v(1), v(0)), "unions are not partial orders");
        assert!(!union.insert(v(0), v(1)), "duplicate edges are not counted");
        assert_eq!(union.len(), 2);
        assert!(union.contains(v(0), v(1)));
        assert!(union.contains(v(1), v(0)));
        assert!(!union.contains(v(0), v(2)));
    }

    #[test]
    fn union_grows_past_a_word_boundary() {
        let mut union = RelationUnion::new();
        for i in 0..70 {
            assert!(union.insert(v(i), v(i + 1)));
        }
        assert_eq!(union.len(), 70);
        for i in 0..70 {
            assert!(union.contains(v(i), v(i + 1)), "edge {i} lost in re-layout");
            assert!(!union.contains(v(i + 1), v(i)));
        }
        // Non-adjacent pairs were never inserted (no closure is taken).
        assert!(!union.contains(v(0), v(69)));
    }

    #[test]
    fn absorb_deduplicates_members_but_unions_tuples() {
        let mut p1 = Preference::new(2);
        p1.prefer(a(0), v(0), v(1));
        let mut p2 = Preference::new(2);
        p2.prefer(a(1), v(2), v(3));
        let mut universe = PreferenceUniverse::new();
        assert!(universe.absorb(&p1), "first preference is novel");
        assert!(!universe.absorb(&p1), "re-absorbing is not novel");
        assert_eq!(universe.len(), 1, "identical preferences deduplicate");
        assert!(universe.contains(&p1));
        assert!(universe.covers(&p1));
        assert!(!universe.contains(&p2));
        assert!(!universe.covers(&p2));
        assert!(universe.absorb(&p2));
        assert_eq!(universe.len(), 2);
        assert_eq!(universe.union_len(), 2);
        assert!(universe.covers(&p2));
        assert!(!universe.has_empty_member());
    }

    #[test]
    fn weaker_never_seen_preferences_are_covered_but_still_novel() {
        // Universe member: 0≻1 and 0≻2. A never-seen subset {0≻1} is fully
        // inside the union, yet its skyline was never protected by any
        // sweep — novelty must be membership, not tuple coverage.
        let mut strong = Preference::new(1);
        strong.prefer(a(0), v(0), v(1));
        strong.prefer(a(0), v(0), v(2));
        let mut weak = Preference::new(1);
        weak.prefer(a(0), v(0), v(1));
        let mut universe = PreferenceUniverse::new();
        universe.absorb(&strong);
        assert!(universe.covers(&weak), "subset preference is covered");
        assert!(!universe.contains(&weak));
        assert!(universe.absorb(&weak), "covered but never seen => novel");
        assert!(!universe.absorb(&weak), "now a member");
    }

    #[test]
    fn empty_preference_is_covered_novel_once_and_blocks_eviction() {
        let empty = Preference::new(3);
        let mut universe = PreferenceUniverse::new();
        assert!(universe.covers(&empty));
        assert!(!universe.has_empty_member());
        assert!(
            universe.absorb(&empty),
            "an unseen empty preference is novel: its frontier is everything"
        );
        assert!(universe.has_empty_member());
        assert!(!universe.absorb(&empty), "second observation is not");
        assert_eq!(universe.len(), 1, "the empty member still gates eviction");
    }

    #[test]
    fn union_dominance_is_necessary_for_member_dominance() {
        // Member A: attr0 0≻1; member B: attr1 2≻3. The union mixes them.
        let mut pa = Preference::new(2);
        pa.prefer(a(0), v(0), v(1));
        let mut pb = Preference::new(2);
        pb.prefer(a(1), v(2), v(3));
        let mut universe = PreferenceUniverse::new();
        universe.absorb(&pa);
        universe.absorb(&pb);
        let strong = obj(0, &[0, 2]);
        let weak = obj(1, &[1, 3]);
        // Permissively dominated (tuples exist, albeit from different
        // members)...
        assert!(universe.union_dominates(&strong, &weak));
        // ...yet no single member dominates: the pre-filter is necessary,
        // not sufficient, and the per-member check must stay authoritative.
        assert!(universe
            .members()
            .iter()
            .all(|m| !m.dominates(&strong, &weak)));
        // A pair with no union edge on a differing attribute fails fast.
        assert!(!universe.union_dominates(&obj(2, &[0, 9]), &obj(3, &[1, 8])));
    }

    #[test]
    fn union_dominance_requires_a_strict_attribute() {
        let mut p = Preference::new(2);
        p.prefer(a(0), v(0), v(1));
        let mut universe = PreferenceUniverse::new();
        universe.absorb(&p);
        let x = obj(0, &[5, 7]);
        assert!(
            !universe.union_dominates(&x, &obj(1, &[5, 7])),
            "identical objects never dominate"
        );
        assert!(universe.union_dominates(&obj(2, &[0, 7]), &obj(3, &[1, 7])));
    }
}
