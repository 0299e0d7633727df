//! The bit-row `Relation`, its Hasse reduction and the compiled similarity
//! measures against the hash-map forms they replaced.
//!
//! `pm_porder::Relation` keeps its transitive closure as one bit row per
//! mentioned value. The adjacency-map form it replaced — a successor and a
//! predecessor `HashMap<ValueId, HashSet<ValueId>>` — is kept below as a
//! reference, together with the two-lane hash that fingerprints a
//! preference from its sorted tuple list, the hash-map Hasse diagram (cover
//! edges by pairwise test, then a multi-source BFS from the maximal values)
//! and Eq. 2–5 of the paper evaluated tuple by tuple. Random edge lists over
//! up to 150 values (so rows span three words), with reflexive and
//! cycle-closing pairs, are inserted in two orders into both forms, and
//! every query of the public API must agree: the outcome of each insert,
//! the closure, its size and values, intersection, Hasse cover edges,
//! maximal values, distances and weights — also as compiled value weights
//! over the relation's own table and over a wide sparse universe — the four
//! exact similarity measures, and fingerprints.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use pm_cluster::ExactMeasure;
use pm_model::ValueId;
use pm_porder::{CompiledRelation, HasseDiagram, Preference, Relation, RelationError};
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

    fn sorted_pairs(&self) -> Vec<(ValueId, ValueId)> {
        let mut pairs: Vec<_> = self.pairs().collect();
        pairs.sort_unstable();
        pairs
    }
}

/// The Hasse diagram as `pm_porder::HasseDiagram` held it: hash-map cover
/// edges and a multi-source BFS over them.
struct ReferenceHasse {
    edges: HashMap<ValueId, HashSet<ValueId>>,
    maximal: HashSet<ValueId>,
    distance: HashMap<ValueId, u32>,
}

impl ReferenceHasse {
    fn of(relation: &Reference) -> Self {
        let mut edges: HashMap<ValueId, HashSet<ValueId>> = HashMap::new();
        for (x, y) in relation.pairs() {
            // (x, y) is a cover edge iff there is no z with x ≻ z ≻ y.
            let is_cover = !relation
                .successors(x)
                .any(|z| z != y && relation.prefers(z, y));
            if is_cover {
                edges.entry(x).or_default().insert(y);
            }
        }
        let maximal: HashSet<ValueId> = relation
            .values()
            .into_iter()
            .filter(|&x| relation.predecessors(x).next().is_none())
            .collect();
        let mut distance: HashMap<ValueId, u32> = HashMap::new();
        let mut queue: VecDeque<ValueId> = VecDeque::new();
        for &s in &maximal {
            distance.insert(s, 0);
            queue.push_back(s);
        }
        while let Some(x) = queue.pop_front() {
            let dx = distance[&x];
            for &y in edges.get(&x).into_iter().flatten() {
                if let Entry::Vacant(slot) = distance.entry(y) {
                    slot.insert(dx + 1);
                    queue.push_back(y);
                }
            }
        }
        Self {
            edges,
            maximal,
            distance,
        }
    }

    fn cover_edges(&self) -> Vec<(ValueId, ValueId)> {
        let edges: BTreeSet<_> = self
            .edges
            .iter()
            .flat_map(|(&x, ys)| ys.iter().map(move |&y| (x, y)))
            .collect();
        edges.into_iter().collect()
    }

    /// `1 / (distance + 1)` (Eq. 4), and 1 for an unmentioned value.
    fn weight(&self, v: ValueId) -> f64 {
        match self.distance.get(&v) {
            Some(&d) => 1.0 / (f64::from(d) + 1.0),
            None => 1.0,
        }
    }
}

/// Eq. 2–5 evaluated tuple by tuple on the hash-map forms: `measure`
/// between two clusters' relations on one attribute.
fn per_tuple(measure: ExactMeasure, a: &Reference, b: &Reference) -> f64 {
    let (ha, hb) = (ReferenceHasse::of(a), ReferenceHasse::of(b));
    let common: Vec<_> = a.pairs().filter(|&(x, y)| b.prefers(x, y)).collect();
    let union = a.len + b.len - common.len();
    let weighted_common: f64 = common
        .iter()
        .map(|&(x, _)| 0.5 * (ha.weight(x) + hb.weight(x)))
        .sum();
    // Tuples of `r` that `other` lacks, weighted by `r`'s weights alone.
    let only = |r: &Reference, other: &Reference, h: &ReferenceHasse| -> f64 {
        r.pairs()
            .filter(|&(x, y)| !other.prefers(x, y))
            .map(|(x, _)| h.weight(x))
            .sum()
    };
    let ratio = |num: f64, denom: f64| if denom == 0.0 { 0.0 } else { num / denom };
    match measure {
        ExactMeasure::IntersectionSize => common.len() as f64,
        ExactMeasure::Jaccard => ratio(common.len() as f64, union as f64),
        ExactMeasure::WeightedIntersectionSize => weighted_common,
        ExactMeasure::WeightedJaccard => ratio(
            weighted_common,
            weighted_common + only(a, b, &ha) + only(b, a, &hb),
        ),
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
    let mut values: Vec<_> = reference.values().into_iter().collect();
    values.sort_unstable();
    assert_eq!(rel.values(), values);
    for value in values {
        let want: BTreeSet<_> = reference.successors(value).collect();
        assert_eq!(rel.successors(value).collect::<BTreeSet<_>>(), want);
        let want: BTreeSet<_> = reference.predecessors(value).collect();
        assert_eq!(rel.predecessors(value).collect::<BTreeSet<_>>(), want);
    }
    assert_same_hasse(rel, reference);
}

/// A universe wide enough that every relation of [`edges`] compiles sparse
/// over it.
fn wide_universe() -> Vec<ValueId> {
    (0..640).map(v).collect()
}

/// The Hasse diagram and the compiled value weights equal the hash-map
/// diagram's, bit for bit, on every value of the wide universe.
fn assert_same_hasse(rel: &Relation, reference: &Reference) {
    let (hasse, want) = (HasseDiagram::of(rel), ReferenceHasse::of(reference));
    let covers: Vec<_> = hasse.cover_edges().collect();
    assert_eq!(covers, want.cover_edges(), "Hasse cover edges, ascending");
    assert_eq!(hasse.edge_count(), covers.len());
    let maximal: HashSet<_> = hasse.maximal_values().collect();
    assert_eq!(maximal, want.maximal, "maximal values");
    let own = CompiledRelation::compile(rel);
    for (value, weight) in own.universe().iter().zip(own.value_weights()) {
        assert_eq!(
            weight.to_bits(),
            want.weight(*value).to_bits(),
            "own {value}"
        );
    }
    let universe = wide_universe();
    let wide = CompiledRelation::compile_with_universe(rel, &universe);
    assert!(wide.is_sparse());
    for (&value, weight) in universe.iter().zip(wide.value_weights()) {
        let distance = want.distance.get(&value).copied();
        assert_eq!(hasse.distance_from_maximal(value), distance, "{value}");
        let weight_bits = want.weight(value).to_bits();
        assert_eq!(
            hasse.weight(value).to_bits(),
            weight_bits,
            "weight of {value}"
        );
        assert_eq!(weight.to_bits(), weight_bits, "wide {value}");
    }
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

        // Intersection.
        let common = a.intersection(&b);
        assert_same(&common, &a_ref.intersection(&b_ref));
        prop_assert_eq!(&common, &b.intersection(&a));

        // The plain predicates on arbitrary pairs.
        for &(x, y) in &probes {
            let (x, y) = (v(x), v(y));
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

    /// Each exact measure, compiled over a shared universe — the pair's own
    /// values, and a wide sparse one — equals Eq. 2–5 evaluated tuple by
    /// tuple: bit for bit for the unweighted measures, within a relative
    /// 1e-12 for the weighted ones, whose sums run in another order.
    #[test]
    fn exact_measures_match_per_tuple_evaluation(first in edges(), second in edges()) {
        let (a, a_ref, _) = build(&first);
        let (b, b_ref, _) = build(&second);
        let (common, common_ref) = (a.intersection(&b), a_ref.intersection(&b_ref));
        let mut pair_universe = [a.values(), b.values()].concat();
        pair_universe.sort_unstable();
        pair_universe.dedup();
        for universe in [pair_universe, wide_universe()] {
            let compile = |rel: &Relation| {
                let compiled = CompiledRelation::compile_with_universe(rel, &universe);
                let weights = compiled.value_weights();
                (compiled, weights)
            };
            let (ca, cb, cc) = (compile(&a), compile(&b), compile(&common));
            for ((x, wx), x_ref, (y, wy), y_ref) in [
                (&ca, &a_ref, &cb, &b_ref),
                (&cb, &b_ref, &ca, &a_ref),
                (&ca, &a_ref, &ca, &a_ref),
                (&ca, &a_ref, &cc, &common_ref),
            ] {
                for m in ExactMeasure::ALL {
                    let got = m.compiled_attr_similarity(x, wx, y, wy);
                    let want = per_tuple(m, x_ref, y_ref);
                    if m.is_weighted() {
                        prop_assert!(
                            (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                            "{}: {} vs {}", m.name(), got, want
                        );
                    } else {
                        prop_assert_eq!(got.to_bits(), want.to_bits(), "{}", m.name());
                    }
                }
            }
        }
    }
}
