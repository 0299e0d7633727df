//! Per-user (and per-cluster) preferences over all attributes, and the
//! object-dominance test of Def. 3.2.

use std::collections::HashMap;

use pm_model::{AttrId, Object, ValueId};

use crate::relation::Relation;

/// The outcome of comparing two objects under a [`Preference`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dominance {
    /// The left object dominates the right one (`o ≻_c o'`).
    Dominates,
    /// The left object is dominated by the right one (`o' ≻_c o`).
    DominatedBy,
    /// The two objects are identical on every attribute (`o = o'`).
    Identical,
    /// Neither object dominates the other.
    Incomparable,
}

impl Dominance {
    /// The comparison with left and right swapped.
    pub fn flip(self) -> Dominance {
        match self {
            Dominance::Dominates => Dominance::DominatedBy,
            Dominance::DominatedBy => Dominance::Dominates,
            other => other,
        }
    }
}

/// A user's preferences: one strict partial order per attribute.
///
/// A *virtual user* (a cluster `U`, Def. 4.1) is represented by the same
/// type: its relations are the common (or approximate common) preference
/// relations of the member users.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Preference {
    relations: Vec<Relation>,
}

impl Preference {
    /// Creates a preference with `arity` empty attribute relations.
    pub fn new(arity: usize) -> Self {
        Self {
            relations: vec![Relation::new(); arity],
        }
    }

    /// Builds a preference from per-attribute relations (in attribute order).
    pub fn from_relations(relations: Vec<Relation>) -> Self {
        Self { relations }
    }

    /// Number of attributes covered (`|D|`).
    pub fn arity(&self) -> usize {
        self.relations.len()
    }

    /// The relation for attribute `attr`.
    ///
    /// # Panics
    /// Panics if `attr` is out of range.
    pub fn relation(&self, attr: AttrId) -> &Relation {
        &self.relations[attr.index()]
    }

    /// Mutable access to the relation for attribute `attr`.
    ///
    /// # Panics
    /// Panics if `attr` is out of range.
    pub fn relation_mut(&mut self, attr: AttrId) -> &mut Relation {
        &mut self.relations[attr.index()]
    }

    /// Iterates over `(AttrId, &Relation)` pairs.
    pub fn relations(&self) -> impl Iterator<Item = (AttrId, &Relation)> + '_ {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, r)| (AttrId::from(i), r))
    }

    /// Adds a preference tuple `x ≻ y` on attribute `attr`.
    ///
    /// # Panics
    /// Panics if the tuple violates the strict-partial-order properties;
    /// use [`Relation::insert`] directly for fallible insertion.
    pub fn prefer(&mut self, attr: AttrId, x: ValueId, y: ValueId) -> &mut Self {
        self.relations[attr.index()]
            .insert(x, y)
            .expect("preference tuple must keep the relation a strict partial order");
        self
    }

    /// Total number of preference tuples across all attributes.
    pub fn total_pairs(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Approximate heap bytes of the build-time bit-row form: the relation
    /// vector plus each relation's value table and rows (see
    /// [`Relation::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.relations.len() * std::mem::size_of::<Relation>()
            + self
                .relations
                .iter()
                .map(Relation::approx_bytes)
                .sum::<usize>()
    }

    /// Whether the preference holds no tuples at all.
    pub fn is_empty(&self) -> bool {
        self.relations.iter().all(Relation::is_empty)
    }

    /// Whether value `x` is preferred to `y` on attribute `attr`.
    #[inline]
    pub fn prefers(&self, attr: AttrId, x: ValueId, y: ValueId) -> bool {
        self.relations[attr.index()].prefers(x, y)
    }

    /// Whether object `a` dominates object `b` (Def. 3.2): `a` is identical
    /// or preferred to `b` on every attribute and strictly preferred on at
    /// least one.
    pub fn dominates(&self, a: &Object, b: &Object) -> bool {
        matches!(self.compare(a, b), Dominance::Dominates)
    }

    /// Full three-way-plus-identical comparison of two objects.
    ///
    /// Only the first `self.arity()` attributes of the objects are
    /// considered, which lets dimensionality-sweep experiments reuse objects
    /// built for the full schema.
    pub fn compare(&self, a: &Object, b: &Object) -> Dominance {
        let mut a_better = false;
        let mut b_better = false;
        for (idx, rel) in self.relations.iter().enumerate() {
            let attr = AttrId::from(idx);
            let (av, bv) = (a.value(attr), b.value(attr));
            if av == bv {
                continue;
            }
            if rel.prefers(av, bv) {
                a_better = true;
            } else if rel.prefers(bv, av) {
                b_better = true;
            } else {
                // Incomparable on this attribute: neither can dominate.
                return Dominance::Incomparable;
            }
            if a_better && b_better {
                return Dominance::Incomparable;
            }
        }
        match (a_better, b_better) {
            (true, false) => Dominance::Dominates,
            (false, true) => Dominance::DominatedBy,
            (false, false) => Dominance::Identical,
            (true, true) => Dominance::Incomparable,
        }
    }

    /// The common preference of a set of users (Def. 4.1): the per-attribute
    /// intersection of their relations. Returns an empty preference when the
    /// iterator is empty.
    pub fn common_of<'a, I>(preferences: I) -> Preference
    where
        I: IntoIterator<Item = &'a Preference>,
    {
        let mut iter = preferences.into_iter();
        let Some(first) = iter.next() else {
            return Preference::default();
        };
        let mut relations: Vec<Relation> = first.relations.clone();
        for pref in iter {
            for (idx, rel) in relations.iter_mut().enumerate() {
                if rel.is_empty() {
                    continue;
                }
                *rel = rel.intersection(&pref.relations[idx]);
            }
        }
        Preference { relations }
    }

    /// Restricts the preference to its first `k` attributes.
    pub fn project(&self, k: usize) -> Preference {
        Preference {
            relations: self.relations[..k.min(self.relations.len())].to_vec(),
        }
    }
}

/// Builds per-attribute relations from 2-D dominance statistics, one stats
/// map per attribute (the paper's preference-simulation rule, Sec. 8.1).
pub fn preference_from_stats(stats: &[HashMap<ValueId, (f64, f64)>]) -> Preference {
    Preference::from_relations(stats.iter().map(Relation::from_dominance_stats).collect())
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

    /// Encodes the paper's laptop example (Tables 1 & 2) for user c1.
    ///
    /// display: 9.9-under=0, 10-12.9=1, 13-15.9=2, 16-18.9=3, 19-up=4
    /// brand:   Apple=0, Lenovo=1, Samsung=2, Sony=3, Toshiba=4
    /// cpu:     single=0, dual=1, triple=2, quad=3
    fn c1() -> Preference {
        let mut p = Preference::new(3);
        // display: 13-15.9 ≻ 10-12.9 ≻ {16-18.9, 19-up, 9.9-under}... Table 2 c1:
        // 13-15.9 ≻ 10-12.9, 10-12.9 ≻ 16-18.9, 10-12.9 ≻ 19-up, 10-12.9 ≻ 9.9-under
        p.prefer(a(0), v(2), v(1));
        p.prefer(a(0), v(1), v(3));
        p.prefer(a(0), v(1), v(4));
        p.prefer(a(0), v(1), v(0));
        // brand: Apple ≻ Lenovo ≻ {Toshiba, Samsung}, Apple ≻ Sony
        p.prefer(a(1), v(0), v(1));
        p.prefer(a(1), v(1), v(4));
        p.prefer(a(1), v(1), v(2));
        p.prefer(a(1), v(0), v(3));
        // cpu: dual ≻ {triple, quad} ≻ single
        p.prefer(a(2), v(1), v(2));
        p.prefer(a(2), v(1), v(3));
        p.prefer(a(2), v(2), v(0));
        p.prefer(a(2), v(3), v(0));
        p
    }

    #[test]
    fn example_1_1_o2_dominates_o1_for_c1() {
        let p = c1();
        // o1 = <12 (10-12.9=1), Apple=0, single=0>, o2 = <14 (13-15.9=2), Apple=0, dual=1>
        let o1 = obj(1, &[1, 0, 0]);
        let o2 = obj(2, &[2, 0, 1]);
        assert_eq!(p.compare(&o2, &o1), Dominance::Dominates);
        assert_eq!(p.compare(&o1, &o2), Dominance::DominatedBy);
        assert!(p.dominates(&o2, &o1));
    }

    #[test]
    fn example_1_1_o1_o3_incomparable_for_c1() {
        let p = c1();
        // o3 = <15 (2), Samsung=2, dual=1>; c1 prefers Apple to Samsung so o1 vs o3 incomparable.
        let o1 = obj(1, &[1, 0, 0]);
        let o3 = obj(3, &[2, 2, 1]);
        assert_eq!(p.compare(&o1, &o3), Dominance::Incomparable);
        assert_eq!(p.compare(&o3, &o1), Dominance::Incomparable);
    }

    #[test]
    fn example_1_1_o15_dominated_by_o2_for_c1() {
        let p = c1();
        // o15 = <16.5 (16-18.9=3), Lenovo=1, quad=3>, o2 = <14 (2), Apple=0, dual=1>
        let o15 = obj(15, &[3, 1, 3]);
        let o2 = obj(2, &[2, 0, 1]);
        assert_eq!(p.compare(&o2, &o15), Dominance::Dominates);
    }

    #[test]
    fn identical_objects_compare_identical() {
        let p = c1();
        let o = obj(1, &[2, 0, 1]);
        let o_copy = obj(9, &[2, 0, 1]);
        assert_eq!(p.compare(&o, &o_copy), Dominance::Identical);
        assert!(!p.dominates(&o, &o_copy));
    }

    #[test]
    fn dominance_flip_is_involutive() {
        assert_eq!(Dominance::Dominates.flip(), Dominance::DominatedBy);
        assert_eq!(Dominance::DominatedBy.flip(), Dominance::Dominates);
        assert_eq!(Dominance::Identical.flip(), Dominance::Identical);
        assert_eq!(Dominance::Incomparable.flip(), Dominance::Incomparable);
    }

    #[test]
    fn compare_is_antisymmetric_on_example_objects() {
        let p = c1();
        let objects = [
            obj(1, &[1, 0, 0]),
            obj(2, &[2, 0, 1]),
            obj(3, &[2, 2, 1]),
            obj(15, &[3, 1, 3]),
        ];
        for x in &objects {
            for y in &objects {
                assert_eq!(p.compare(x, y), p.compare(y, x).flip());
            }
        }
    }

    #[test]
    fn common_of_matches_paper_cpu_example() {
        // c1 cpu: dual ≻ single, dual ≻ quad, dual ≻ triple, triple ≻ single, quad ≻ single
        // c2 cpu: quad ≻ triple ≻ dual ≻ single (closure adds the rest)
        // common: {(dual,single),(triple,single),(quad,single)}
        let mut p1 = Preference::new(1);
        p1.prefer(a(0), v(1), v(0));
        p1.prefer(a(0), v(1), v(3));
        p1.prefer(a(0), v(1), v(2));
        p1.prefer(a(0), v(2), v(0));
        p1.prefer(a(0), v(3), v(0));
        let mut p2 = Preference::new(1);
        p2.prefer(a(0), v(3), v(2));
        p2.prefer(a(0), v(2), v(1));
        p2.prefer(a(0), v(1), v(0));
        let common = Preference::common_of([&p1, &p2]);
        let rel = common.relation(a(0));
        assert_eq!(rel.len(), 3);
        assert!(rel.prefers(v(1), v(0)));
        assert!(rel.prefers(v(2), v(0)));
        assert!(rel.prefers(v(3), v(0)));
    }

    #[test]
    fn common_of_empty_iterator_is_empty() {
        let common = Preference::common_of(std::iter::empty::<&Preference>());
        assert_eq!(common.arity(), 0);
        assert!(common.is_empty());
    }

    #[test]
    fn projection_restricts_comparison_to_prefix() {
        let p = c1();
        let p2 = p.project(2);
        assert_eq!(p2.arity(), 2);
        // o4 = <19 (4), Toshiba=4, dual=1> vs o2 = <14 (2), Apple=0, dual=1>:
        // on 2 attributes o2 still dominates o4.
        let o4 = obj(4, &[4, 4, 1]);
        let o2 = obj(2, &[2, 0, 1]);
        assert_eq!(p2.compare(&o2, &o4), Dominance::Dominates);
    }

    #[test]
    fn preference_from_stats_builds_all_attributes() {
        let stats = vec![
            [(v(0), (5.0, 3.0)), (v(1), (4.0, 2.0))]
                .into_iter()
                .collect::<HashMap<_, _>>(),
            [(v(0), (1.0, 1.0)), (v(1), (2.0, 2.0))]
                .into_iter()
                .collect::<HashMap<_, _>>(),
        ];
        let p = preference_from_stats(&stats);
        assert_eq!(p.arity(), 2);
        assert!(p.prefers(a(0), v(0), v(1)));
        assert!(p.prefers(a(1), v(1), v(0)));
        assert_eq!(p.total_pairs(), 2);
    }

    #[test]
    fn incomparable_short_circuit_does_not_claim_dominance() {
        let mut p = Preference::new(2);
        p.prefer(a(0), v(0), v(1));
        // attribute 1 left empty ⇒ any differing values are incomparable.
        let x = obj(0, &[0, 5]);
        let y = obj(1, &[1, 6]);
        assert_eq!(p.compare(&x, &y), Dominance::Incomparable);
    }
}
