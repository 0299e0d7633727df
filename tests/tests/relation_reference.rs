//! The bit-row `Relation` against the hash-map closure it replaced.
//!
//! `pm_porder::Relation` keeps its transitive closure as one bit row per
//! mentioned value. The adjacency-map form it replaced — a successor and a
//! predecessor `HashMap<ValueId, HashSet<ValueId>>` — is kept below as a
//! reference, together with the two-lane hash that fingerprints a
//! preference from its sorted tuple list. Random edge lists over up to 150
//! values (so rows span three words), with reflexive and cycle-closing
//! pairs, are inserted in two orders into both forms, and every query of
//! the public API must agree: the outcome of each insert, the closure, its
//! size and values, intersection, difference, closure gain, Hasse cover
//! edges and fingerprints.

use std::collections::{BTreeSet, HashMap, HashSet};

use pm_model::ValueId;
use pm_porder::{HasseDiagram, Preference, Relation, RelationError};
use proptest::prelude::*;

/// The hash-map closure, as `pm_porder::Relation` held it.
#[derive(Debug, Clone, Default)]
struct Reference {
    successors: HashMap<ValueId, HashSet<ValueId>>,
    predecessors: HashMap<ValueId, HashSet<ValueId>>,
    len: usize,
}

impl Reference {
    fn prefers(&self, x: ValueId, y: ValueId) -> bool {
        self.successors.get(&x).is_some_and(|s| s.contains(&y))
    }

    fn successors(&self, x: ValueId) -> impl Iterator<Item = ValueId> + '_ {
        self.successors.get(&x).into_iter().flatten().copied()
    }

    fn predecessors(&self, y: ValueId) -> impl Iterator<Item = ValueId> + '_ {
        self.predecessors.get(&y).into_iter().flatten().copied()
    }

    fn pairs(&self) -> impl Iterator<Item = (ValueId, ValueId)> + '_ {
        self.successors
            .iter()
            .flat_map(|(&x, ys)| ys.iter().map(move |&y| (x, y)))
    }

    fn values(&self) -> HashSet<ValueId> {
        self.successors
            .keys()
            .chain(self.predecessors.keys())
            .copied()
            .collect()
    }

    fn insert(&mut self, x: ValueId, y: ValueId) -> Result<bool, RelationError> {
        if x == y {
            return Err(RelationError::Reflexive(x));
        }
        if self.prefers(y, x) {
            return Err(RelationError::AsymmetryViolation(x, y));
        }
        if self.prefers(x, y) {
            return Ok(false);
        }
        let mut lefts: Vec<ValueId> = vec![x];
        lefts.extend(self.predecessors(x));
        let mut rights: Vec<ValueId> = vec![y];
        rights.extend(self.successors(y));
        for &a in &lefts {
            for &b in &rights {
                if self.successors.entry(a).or_default().insert(b) {
                    self.predecessors.entry(b).or_default().insert(a);
                    self.len += 1;
                }
            }
        }
        Ok(true)
    }

    fn from_closed_pairs(pairs: impl IntoIterator<Item = (ValueId, ValueId)>) -> Self {
        let mut rel = Self::default();
        for (x, y) in pairs {
            rel.successors.entry(x).or_default().insert(y);
            rel.predecessors.entry(y).or_default().insert(x);
            rel.len += 1;
        }
        rel
    }

    fn intersection(&self, other: &Reference) -> Reference {
        Self::from_closed_pairs(self.pairs().filter(|&(x, y)| other.prefers(x, y)))
    }

    fn closure_gain(&self, x: ValueId, y: ValueId) -> Option<usize> {
        if x == y || self.prefers(y, x) {
            return None;
        }
        if self.prefers(x, y) {
            return Some(0);
        }
        let mut lefts: Vec<ValueId> = vec![x];
        lefts.extend(self.predecessors(x));
        let mut rights: Vec<ValueId> = vec![y];
        rights.extend(self.successors(y));
        let gain = lefts
            .iter()
            .flat_map(|&a| rights.iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| !self.prefers(a, b))
            .count();
        Some(gain)
    }

    /// Cover edges: `(x, y)` with no `z` such that `x ≻ z ≻ y`.
    fn cover_edges(&self) -> BTreeSet<(ValueId, ValueId)> {
        self.pairs()
            .filter(|&(x, y)| !self.successors(x).any(|z| z != y && self.prefers(z, y)))
            .collect()
    }

    fn sorted_pairs(&self) -> Vec<(ValueId, ValueId)> {
        let mut pairs: Vec<_> = self.pairs().collect();
        pairs.sort_unstable();
        pairs
    }
}

/// The preference fingerprint as it was computed from the hash-map form:
/// two FNV-1a lanes over the arity and each relation's sorted tuples.
fn reference_fingerprint(relations: &[&Reference]) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let (mut a, mut b, mut pos) = (0xcbf2_9ce4_8422_2325u64, 0x6c62_272e_07bb_0142u64, 0u64);
    let mut write = |word: u64| {
        for byte in word.to_le_bytes() {
            a = (a ^ u64::from(byte)).wrapping_mul(PRIME);
        }
        pos = pos.wrapping_add(0x9e37_79b9_7f4a_7c15);
        for byte in (word ^ pos).to_le_bytes() {
            b = (b ^ u64::from(byte)).wrapping_mul(PRIME);
        }
    };
    write(relations.len() as u64);
    for relation in relations {
        let pairs = relation.sorted_pairs();
        write(pairs.len() as u64);
        for (x, y) in pairs {
            write((u64::from(x.raw()) << 32) | u64::from(y.raw()));
        }
    }
    let finish = |lane: u64| {
        let z = (lane ^ (lane >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    format!("{:016x}{:016x}", finish(a), finish(b))
}

fn v(raw: u32) -> ValueId {
    ValueId::new(raw)
}

/// Edge lists over 150 values. Three in four edges point from the smaller
/// to the larger value, so closures grow long chains; the rest keep their
/// random direction and close cycles or repeat a value.
fn edges() -> impl Strategy<Value = Vec<(ValueId, ValueId)>> {
    proptest::collection::vec((0u32..150, 0u32..150, 0u8..4), 0..160).prop_map(|raw| {
        raw.into_iter()
            .map(|(x, y, keep)| match keep {
                0 => (v(x), v(y)),
                _ => (v(x.min(y)), v(x.max(y))),
            })
            .collect()
    })
}

/// Inserts `edges` into both forms, asserting each insert agrees, and
/// returns both with the edges that were accepted.
fn build(edges: &[(ValueId, ValueId)]) -> (Relation, Reference, Vec<(ValueId, ValueId)>) {
    let (mut rel, mut reference, mut accepted) = (Relation::new(), Reference::default(), vec![]);
    for &(x, y) in edges {
        let got = rel.insert(x, y);
        assert_eq!(got, reference.insert(x, y), "insert ({x}, {y})");
        assert_eq!(rel.len(), reference.len, "len after ({x}, {y})");
        if got.is_ok() {
            accepted.push((x, y));
        }
    }
    (rel, reference, accepted)
}

fn assert_same(rel: &Relation, reference: &Reference) {
    rel.validate().unwrap();
    let pairs: Vec<_> = rel.pairs().collect();
    assert_eq!(pairs, reference.sorted_pairs(), "closure, ascending");
    assert_eq!(rel.len(), reference.len);
    assert_eq!(rel.is_empty(), reference.len == 0);
    assert_eq!(rel.values(), reference.values());
    for value in reference.values() {
        let want: BTreeSet<_> = reference.successors(value).collect();
        assert_eq!(rel.successors(value).collect::<BTreeSet<_>>(), want);
        let want: BTreeSet<_> = reference.predecessors(value).collect();
        assert_eq!(rel.predecessors(value).collect::<BTreeSet<_>>(), want);
    }
    let covers: BTreeSet<_> = HasseDiagram::of(rel).cover_edges().collect();
    assert_eq!(covers, reference.cover_edges(), "Hasse cover edges");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both forms agree on every insert and every query, whichever order
    /// the edges arrive in, and equal closures are equal relations with
    /// equal fingerprints.
    #[test]
    fn bit_rows_match_the_hash_map_closure(
        first in edges(),
        second in edges(),
        probes in proptest::collection::vec((0u32..160, 0u32..160), 0..24),
    ) {
        let (a, a_ref, accepted) = build(&first);
        let reversed: Vec<_> = first.iter().rev().copied().collect();
        let (a_rev, a_rev_ref, _) = build(&reversed);
        let (b, b_ref, _) = build(&second);
        for (rel, reference) in [(&a, &a_ref), (&a_rev, &a_rev_ref), (&b, &b_ref)] {
            assert_same(rel, reference);
        }

        // The reversed edges may accept a different set; the accepted ones
        // rebuild the same relation in either order.
        let again = Relation::from_pairs(accepted.iter().copied()).unwrap();
        prop_assert_eq!(&again, &a);
        let again_rev = Relation::from_pairs(accepted.iter().rev().copied()).unwrap();
        prop_assert_eq!(&again_rev, &a);
        // All the edges at once fail on the pair the reference fails on.
        let mut probe = Reference::default();
        let first_error = first.iter().map(|&(x, y)| probe.insert(x, y)).find_map(Result::err);
        prop_assert_eq!(Relation::from_pairs(first.iter().copied()).err(), first_error);

        // Intersection, difference and their sizes.
        let common = a.intersection(&b);
        assert_same(&common, &a_ref.intersection(&b_ref));
        prop_assert_eq!(&common, &b.intersection(&a));
        prop_assert_eq!(a.intersection_size(&b), common.len());
        prop_assert_eq!(a.union_size(&b), a.len() + b.len() - common.len());
        let only_a: Vec<_> = a.difference(&b).collect();
        let mut want: Vec<_> = a_ref.pairs().filter(|&(x, y)| !b_ref.prefers(x, y)).collect();
        want.sort_unstable();
        prop_assert_eq!(only_a, want);

        // Closure gain and the plain predicates on arbitrary pairs.
        for &(x, y) in &probes {
            let (x, y) = (v(x), v(y));
            prop_assert_eq!(a.closure_gain(x, y), a_ref.closure_gain(x, y));
            prop_assert_eq!(a.prefers(x, y), a_ref.prefers(x, y));
            prop_assert_eq!(a.can_insert(x, y), x != y && !a_ref.prefers(y, x));
        }

        // Fingerprints: unchanged function, independent of insertion order.
        let preference = Preference::from_relations(vec![a.clone(), b.clone(), common.clone()]);
        let common_ref = a_ref.intersection(&b_ref);
        prop_assert_eq!(
            preference.fingerprint().to_string(),
            reference_fingerprint(&[&a_ref, &b_ref, &common_ref])
        );
        let reordered = Preference::from_relations(vec![again_rev, b.clone(), common]);
        prop_assert_eq!(&reordered, &preference);
        prop_assert_eq!(reordered.fingerprint(), preference.fingerprint());
    }
}
