//! Approximate similarity measures over frequency vectors (Section 6.3,
//! Eq. 9–10).
//!
//! When clustering for *approximate* common preference relations, a cluster
//! `U` is summarised, per attribute, by a sparse vector indexed by ordered
//! value pairs: the entry for pair `A_i = (x, y)` is the fraction of member
//! users whose preference relation contains `A_i` (Jaccard variant), or the
//! member-averaged weight of the better value `x` among the members that
//! contain `A_i` (weighted variant). Cluster similarity is then the
//! generalised Jaccard similarity `Σ min / Σ max` of the two vectors,
//! summed over attributes.
//!
//! Each attribute's vector is held ascending by pair — the order
//! [`pm_porder::Relation::pairs`] yields — so merging two vectors and
//! comparing them are linear merges that sum in one fixed order: the same
//! clusters always give bit-identical similarities.

use std::cmp::Ordering;

use pm_model::{AttrId, ValueId};
use pm_porder::{HasseDiagram, Preference};

/// Which approximate (frequency-vector) measure to use (Sec. 6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApproxMeasure {
    /// Eq. 9: entries are membership fractions.
    Jaccard,
    /// Eq. 10: entries are member-averaged better-value weights.
    WeightedJaccard,
}

impl ApproxMeasure {
    /// Short, stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ApproxMeasure::Jaccard => "approx-jaccard",
            ApproxMeasure::WeightedJaccard => "approx-weighted-jaccard",
        }
    }
}

/// One entry of an attribute's sparse vector: a pair and its sum over the
/// members.
type Entry = ((ValueId, ValueId), f64);

/// Sparse per-attribute frequency vectors for a cluster of users.
///
/// Internally stores *sums* over members plus the member count, so that two
/// clusters can be merged by adding their sums — the invariant exploited by
/// the agglomerative clustering loop.
#[derive(Debug, Clone, Default)]
pub struct FrequencyVectors {
    member_count: usize,
    /// Per attribute, the non-zero entries ascending by pair.
    attrs: Vec<Vec<Entry>>,
}

impl FrequencyVectors {
    /// Builds the vectors of a singleton cluster containing just `pref`.
    pub fn of_user(pref: &Preference, measure: ApproxMeasure) -> Self {
        let attrs = pref
            .relations()
            .map(|(_, rel)| match measure {
                ApproxMeasure::Jaccard => rel.pairs().map(|pair| (pair, 1.0)).collect(),
                ApproxMeasure::WeightedJaccard => {
                    let hasse = HasseDiagram::of(rel);
                    rel.pairs()
                        .map(|(x, y)| ((x, y), hasse.weight(x)))
                        .collect()
                }
            })
            .collect();
        Self {
            member_count: 1,
            attrs,
        }
    }

    /// Builds the vectors of a cluster from its members' preferences.
    pub fn of_users<'a, I>(prefs: I, measure: ApproxMeasure) -> Self
    where
        I: IntoIterator<Item = &'a Preference>,
    {
        let mut acc: Option<FrequencyVectors> = None;
        for pref in prefs {
            let single = Self::of_user(pref, measure);
            acc = Some(match acc {
                None => single,
                Some(prev) => prev.merge(&single),
            });
        }
        acc.unwrap_or_default()
    }

    /// Merges two clusters' vectors (sums add, member counts add).
    pub fn merge(&self, other: &FrequencyVectors) -> FrequencyVectors {
        let arity = self.attrs.len().max(other.attrs.len());
        let attrs = (0..arity)
            .map(|idx| {
                zip_sorted(self.attr(idx), other.attr(idx))
                    .map(|(pair, a, b)| (pair, a + b))
                    .collect()
            })
            .collect();
        FrequencyVectors {
            member_count: self.member_count + other.member_count,
            attrs,
        }
    }

    /// Attribute `idx`'s entries, empty past the arity.
    fn attr(&self, idx: usize) -> &[Entry] {
        self.attrs.get(idx).map_or(&[], Vec::as_slice)
    }

    /// Number of member users summarised by these vectors.
    pub fn member_count(&self) -> usize {
        self.member_count
    }

    /// Number of attributes covered.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// The normalised vector entry for `pair` on attribute `attr`.
    pub fn frequency(&self, attr: AttrId, pair: (ValueId, ValueId)) -> f64 {
        if self.member_count == 0 {
            return 0.0;
        }
        let entries = self.attr(attr.index());
        entries
            .binary_search_by_key(&pair, |&(p, _)| p)
            .map_or(0.0, |i| entries[i].1)
            / self.member_count as f64
    }

    /// Generalised Jaccard similarity of two clusters on one attribute:
    /// `Σ_i min(U(i), V(i)) / Σ_i max(U(i), V(i))`.
    pub fn attr_similarity(&self, other: &FrequencyVectors, attr: AttrId) -> f64 {
        let (na, nb) = (
            self.member_count.max(1) as f64,
            other.member_count.max(1) as f64,
        );
        let mut min_sum = 0.0;
        let mut max_sum = 0.0;
        for (_, sa, sb) in zip_sorted(self.attr(attr.index()), other.attr(attr.index())) {
            let (fa, fb) = (sa / na, sb / nb);
            min_sum += fa.min(fb);
            max_sum += fa.max(fb);
        }
        if max_sum == 0.0 {
            0.0
        } else {
            min_sum / max_sum
        }
    }

    /// Full similarity: per-attribute similarities summed (Eq. 1 applied to
    /// the approximate measures).
    pub fn similarity(&self, other: &FrequencyVectors) -> f64 {
        let arity = self.attrs.len().max(other.attrs.len());
        (0..arity)
            .map(|i| self.attr_similarity(other, AttrId::from(i)))
            .sum()
    }
}

/// Walks two pair-sorted vectors in step, ascending by pair, yielding each
/// pair with its sum on either side (0 on a side that lacks it).
fn zip_sorted<'a>(
    a: &'a [Entry],
    b: &'a [Entry],
) -> impl Iterator<Item = ((ValueId, ValueId), f64, f64)> + 'a {
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    std::iter::from_fn(move || {
        let order = match (a.peek(), b.peek()) {
            (None, None) => return None,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some((pa, _)), Some((pb, _))) => pa.cmp(pb),
        };
        Some(match order {
            Ordering::Less => {
                let &(pair, sa) = a.next()?;
                (pair, sa, 0.0)
            }
            Ordering::Greater => {
                let &(pair, sb) = b.next()?;
                (pair, 0.0, sb)
            }
            Ordering::Equal => {
                let (&(pair, sa), &(_, sb)) = (a.next()?, b.next()?);
                (pair, sa, sb)
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_model::AttrId;
    use pm_porder::Relation;

    fn v(i: u32) -> ValueId {
        ValueId::new(i)
    }

    fn pref(pairs: &[(u32, u32)]) -> Preference {
        let rel = Relation::from_pairs(pairs.iter().map(|&(x, y)| (v(x), v(y)))).unwrap();
        Preference::from_relations(vec![rel])
    }

    // Table 3 brand encoding: Apple=0, Lenovo=1, Samsung=2, Toshiba=3.
    // U1 members (Example 6.8): c1 = A≻L≻S, T≻L; c2 = A≻L≻S, T≻S.
    fn u1_members() -> Vec<Preference> {
        vec![
            pref(&[(0, 1), (1, 2), (3, 1)]),
            pref(&[(0, 1), (1, 2), (3, 2)]),
        ]
    }

    // U3 members: c5 = L≻{A,T}, A≻S, T≻S; c6 = L≻A≻{T,S}.
    fn u3_members() -> Vec<Preference> {
        vec![
            pref(&[(1, 0), (1, 3), (0, 2), (3, 2)]),
            pref(&[(1, 0), (0, 3), (0, 2)]),
        ]
    }

    #[test]
    fn example_6_8_unweighted_vectors_and_similarity() {
        let m = ApproxMeasure::Jaccard;
        let u1 = FrequencyVectors::of_users(&u1_members(), m);
        let u3 = FrequencyVectors::of_users(&u3_members(), m);
        let a = AttrId::new(0);
        // Spot-check the frequencies quoted in the paper.
        assert_eq!(u1.frequency(a, (v(0), v(1))), 1.0); // (Apple, Lenovo) = 2/2
        assert_eq!(u1.frequency(a, (v(3), v(1))), 0.5); // (Toshiba, Lenovo) = 1/2
        assert_eq!(u3.frequency(a, (v(0), v(3))), 0.5); // (Apple, Toshiba) = 1/2
        assert_eq!(u3.frequency(a, (v(1), v(0))), 1.0); // (Lenovo, Apple) = 2/2
        let sim = u1.similarity(&u3);
        assert!((sim - 2.5 / 7.0).abs() < 1e-12, "got {sim}"); // ≈ 0.36 in the paper
    }

    #[test]
    fn example_6_9_weighted_vectors_and_similarity() {
        let m = ApproxMeasure::WeightedJaccard;
        let u1 = FrequencyVectors::of_users(&u1_members(), m);
        let u3 = FrequencyVectors::of_users(&u3_members(), m);
        let a = AttrId::new(0);
        assert_eq!(u1.frequency(a, (v(1), v(2))), 0.5); // (Lenovo, Samsung): weights 1/2 both
        assert_eq!(u3.frequency(a, (v(0), v(3))), 0.25); // (Apple, Toshiba): 1/2 for one member
        assert_eq!(u3.frequency(a, (v(3), v(2))), 0.25); // (Toshiba, Samsung): 1/2 for one member
        let sim = u1.similarity(&u3);
        assert!((sim - 1.25 / 6.75).abs() < 1e-12, "got {sim}"); // ≈ 0.19 in the paper
    }

    #[test]
    fn merge_equals_batch_construction() {
        let m = ApproxMeasure::Jaccard;
        let members = u1_members();
        let merged = FrequencyVectors::of_user(&members[0], m)
            .merge(&FrequencyVectors::of_user(&members[1], m));
        let batch = FrequencyVectors::of_users(&members, m);
        assert_eq!(merged.member_count(), 2);
        let a = AttrId::new(0);
        for pair in [(v(0), v(1)), (v(3), v(1)), (v(1), v(2)), (v(3), v(2))] {
            assert_eq!(merged.frequency(a, pair), batch.frequency(a, pair));
        }
    }

    #[test]
    fn self_similarity_is_arity() {
        let m = ApproxMeasure::Jaccard;
        let u1 = FrequencyVectors::of_users(&u1_members(), m);
        assert!((u1.similarity(&u1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cluster_has_zero_similarity() {
        let empty = FrequencyVectors::default();
        let u1 = FrequencyVectors::of_users(&u1_members(), ApproxMeasure::Jaccard);
        assert_eq!(empty.similarity(&u1), 0.0);
        assert_eq!(empty.member_count(), 0);
        assert_eq!(empty.frequency(AttrId::new(0), (v(0), v(1))), 0.0);
    }

    #[test]
    fn similarity_is_symmetric() {
        for m in [ApproxMeasure::Jaccard, ApproxMeasure::WeightedJaccard] {
            let u1 = FrequencyVectors::of_users(&u1_members(), m);
            let u3 = FrequencyVectors::of_users(&u3_members(), m);
            assert!((u1.similarity(&u3) - u3.similarity(&u1)).abs() < 1e-12);
        }
    }

    #[test]
    fn measure_names_are_distinct() {
        assert_ne!(
            ApproxMeasure::Jaccard.name(),
            ApproxMeasure::WeightedJaccard.name()
        );
    }
}
