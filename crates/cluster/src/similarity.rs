//! Exact similarity measures between clusters' common preference relations
//! (Section 5 of the paper, Eq. 1–5).
//!
//! All four measures are defined per attribute and summed over attributes
//! (Eq. 1). The weighted measures assign each common preference tuple the
//! average weight of its *better* value in the two clusters, where a value's
//! weight is the inverse of (1 + its minimum distance from a maximal value
//! on the cluster's Hasse diagram).
//!
//! The measures run on [`CompiledRelation`] bit-rows sharing one universe
//! per attribute, where every measure reduces to word-wise AND / AND-NOT
//! plus popcount, and the weights come from
//! [`CompiledRelation::value_weights`]. This is their only implementation:
//! the clustering loop ([`crate::cluster_users`]) and the incrementally
//! maintained [`crate::Clustering`] both sum
//! [`ExactMeasure::compiled_attr_similarity`] over attributes.

use pm_porder::CompiledRelation;

/// Which exact similarity measure to use (Sec. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExactMeasure {
    /// `simᵈ_i`: number of common preference tuples (Eq. 2).
    IntersectionSize,
    /// `simᵈ_j`: intersection size over union size (Eq. 3).
    Jaccard,
    /// `simᵈ_wi`: weighted intersection size (Eq. 4).
    WeightedIntersectionSize,
    /// `simᵈ_wj`: weighted Jaccard (Eq. 5).
    WeightedJaccard,
}

impl ExactMeasure {
    /// All four measures, handy for ablation sweeps.
    pub const ALL: [ExactMeasure; 4] = [
        ExactMeasure::IntersectionSize,
        ExactMeasure::Jaccard,
        ExactMeasure::WeightedIntersectionSize,
        ExactMeasure::WeightedJaccard,
    ];

    /// Short, stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ExactMeasure::IntersectionSize => "intersection",
            ExactMeasure::Jaccard => "jaccard",
            ExactMeasure::WeightedIntersectionSize => "weighted-intersection",
            ExactMeasure::WeightedJaccard => "weighted-jaccard",
        }
    }

    /// Whether the measure reads the Hasse value weights (Eq. 4–5): only
    /// states clustered under such a measure compute them.
    pub fn is_weighted(self) -> bool {
        matches!(
            self,
            ExactMeasure::WeightedIntersectionSize | ExactMeasure::WeightedJaccard
        )
    }
}

/// `simᵈ_i` on bit-rows: word-wise AND + popcount.
///
/// Both relations must share a compiled universe (see
/// [`CompiledRelation::compile_with_universe`]).
pub fn compiled_intersection_size(a: &CompiledRelation, b: &CompiledRelation) -> f64 {
    a.intersection_size(b) as f64
}

/// `simᵈ_j` on bit-rows. Defined as 0 when both relations are empty.
pub fn compiled_jaccard(a: &CompiledRelation, b: &CompiledRelation) -> f64 {
    let inter = a.intersection_size(b);
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// `simᵈ_wi` on bit-rows: every common tuple with better value `v`
/// contributes the average of `v`'s weights, so one AND + popcount per row
/// scaled by that row's average weight covers all of the row's tuples.
///
/// `wa` / `wb` are the clusters' Hasse value weights aligned to the shared
/// universe's dense indices (see [`CompiledRelation::value_weights`]).
pub fn compiled_weighted_intersection(
    a: &CompiledRelation,
    wa: &[f64],
    b: &CompiledRelation,
    wb: &[f64],
) -> f64 {
    (0..a.num_values())
        .map(|i| {
            let common: u32 = a
                .row(i)
                .iter()
                .zip(b.row(i))
                .map(|(x, y)| (x & y).count_ones())
                .sum();
            f64::from(common) * 0.5 * (wa[i] + wb[i])
        })
        .sum()
}

/// `simᵈ_wj` on bit-rows: the weighted intersection over the weighted
/// union, with the tuples exclusive to one cluster (AND-NOT popcounts)
/// weighted by that cluster's weights alone.
pub fn compiled_weighted_jaccard(
    a: &CompiledRelation,
    wa: &[f64],
    b: &CompiledRelation,
    wb: &[f64],
) -> f64 {
    let mut wi = 0.0;
    let mut only_a = 0.0;
    let mut only_b = 0.0;
    for i in 0..a.num_values() {
        let (mut common, mut oa, mut ob) = (0u32, 0u32, 0u32);
        for (x, y) in a.row(i).iter().zip(b.row(i)) {
            common += (x & y).count_ones();
            oa += (x & !y).count_ones();
            ob += (!x & y).count_ones();
        }
        wi += f64::from(common) * 0.5 * (wa[i] + wb[i]);
        only_a += f64::from(oa) * wa[i];
        only_b += f64::from(ob) * wb[i];
    }
    let denom = wi + only_a + only_b;
    if denom == 0.0 {
        0.0
    } else {
        wi / denom
    }
}

impl ExactMeasure {
    /// The measure on one attribute's compiled bit-rows; `wa` / `wb` are the
    /// two clusters' Hasse value weights over the shared universe, read only
    /// when [`Self::is_weighted`] (the unweighted measures accept empty
    /// slices).
    pub fn compiled_attr_similarity(
        self,
        a: &CompiledRelation,
        wa: &[f64],
        b: &CompiledRelation,
        wb: &[f64],
    ) -> f64 {
        match self {
            ExactMeasure::IntersectionSize => compiled_intersection_size(a, b),
            ExactMeasure::Jaccard => compiled_jaccard(a, b),
            ExactMeasure::WeightedIntersectionSize => compiled_weighted_intersection(a, wa, b, wb),
            ExactMeasure::WeightedJaccard => compiled_weighted_jaccard(a, wa, b, wb),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agglomerative::{attribute_universes, ExactState};
    use pm_model::ValueId;
    use pm_porder::{Preference, Relation};

    fn v(i: u32) -> ValueId {
        ValueId::new(i)
    }

    /// The three brand clusters of Table 3 / Examples 5.1–5.5.
    /// Apple=0, Lenovo=1, Samsung=2, Toshiba=3.
    fn u1() -> Relation {
        // U1: Apple ≻ Lenovo ≻ Samsung, Toshiba ≻ Samsung (closure adds Apple ≻ Samsung).
        Relation::from_pairs([(v(0), v(1)), (v(1), v(2)), (v(3), v(2))]).unwrap()
    }

    fn u2() -> Relation {
        // U2: Samsung ≻ Lenovo ≻ {Apple, Toshiba}.
        Relation::from_pairs([(v(2), v(1)), (v(1), v(0)), (v(1), v(3))]).unwrap()
    }

    fn u3() -> Relation {
        // U3: Lenovo ≻ Apple ≻ Samsung, Lenovo ≻ Toshiba, Lenovo ≻ Samsung.
        Relation::from_pairs([(v(1), v(0)), (v(0), v(2)), (v(1), v(3))]).unwrap()
    }

    /// `m` between `a` and `b`, compiled over the shared brand universe.
    fn sim(m: ExactMeasure, a: &Relation, b: &Relation) -> f64 {
        let universe: Vec<ValueId> = (0..4).map(v).collect();
        let ca = CompiledRelation::compile_with_universe(a, &universe);
        let cb = CompiledRelation::compile_with_universe(b, &universe);
        m.compiled_attr_similarity(&ca, &ca.value_weights(), &cb, &cb.value_weights())
    }

    #[test]
    fn example_5_1_intersection_sizes() {
        let m = ExactMeasure::IntersectionSize;
        assert_eq!(sim(m, &u1(), &u2()), 0.0);
        assert_eq!(sim(m, &u1(), &u3()), 2.0); // (Apple,Samsung), (Lenovo,Samsung)
        assert_eq!(sim(m, &u2(), &u3()), 2.0); // (Lenovo,Apple), (Lenovo,Toshiba)
    }

    #[test]
    fn example_5_2_jaccard() {
        let m = ExactMeasure::Jaccard;
        assert!((sim(m, &u1(), &u3()) - 2.0 / 6.0).abs() < 1e-12);
        assert!((sim(m, &u2(), &u3()) - 2.0 / 7.0).abs() < 1e-12);
        assert_eq!(sim(m, &u1(), &u2()), 0.0);
    }

    #[test]
    fn example_5_4_weighted_intersection() {
        // Both pairs' better values (Apple, Lenovo resp. Lenovo) average to 3/4,
        // giving 3/2 for both cluster pairs.
        let m = ExactMeasure::WeightedIntersectionSize;
        assert!((sim(m, &u1(), &u3()) - 1.5).abs() < 1e-12);
        assert!((sim(m, &u2(), &u3()) - 1.5).abs() < 1e-12);
        assert_eq!(sim(m, &u1(), &u2()), 0.0);
    }

    #[test]
    fn example_5_5_weighted_jaccard_breaks_tie() {
        let m = ExactMeasure::WeightedJaccard;
        let wj13 = sim(m, &u1(), &u3());
        let wj23 = sim(m, &u2(), &u3());
        assert!((wj13 - 3.0 / 11.0).abs() < 1e-12, "got {wj13}");
        assert!((wj23 - 3.0 / 12.0).abs() < 1e-12, "got {wj23}");
        assert!(wj13 > wj23);
    }

    #[test]
    fn measures_are_symmetric() {
        for m in ExactMeasure::ALL {
            let ab = sim(m, &u1(), &u3());
            let ba = sim(m, &u3(), &u1());
            assert!((ab - ba).abs() < 1e-12, "{} not symmetric", m.name());
        }
    }

    #[test]
    fn empty_relations_have_zero_similarity() {
        let e = Relation::new();
        for m in ExactMeasure::ALL {
            assert_eq!(sim(m, &e, &e), 0.0, "{}", m.name());
            assert_eq!(sim(m, &e, &u1()), 0.0, "{}", m.name());
        }
    }

    #[test]
    fn self_similarity_jaccard_is_one() {
        assert_eq!(sim(ExactMeasure::Jaccard, &u1(), &u1()), 1.0);
        assert_eq!(sim(ExactMeasure::WeightedJaccard, &u1(), &u1()), 1.0);
    }

    #[test]
    fn preference_similarity_sums_over_attributes() {
        let p1 = Preference::from_relations(vec![u1(), u1()]);
        let p2 = Preference::from_relations(vec![u3(), u3()]);
        let prefs = [p1, p2];
        let universes = attribute_universes(&prefs, 2);
        for (m, want) in [
            (ExactMeasure::IntersectionSize, 4.0),
            (ExactMeasure::WeightedIntersectionSize, 3.0),
        ] {
            let [a, b] = prefs
                .each_ref()
                .map(|p| ExactState::of_user(p, &universes, m));
            assert!((a.similarity(&b, m) - want).abs() < 1e-12, "{}", m.name());
        }
    }

    #[test]
    fn measure_names_are_distinct() {
        let names: std::collections::HashSet<&str> =
            ExactMeasure::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
