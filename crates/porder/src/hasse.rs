//! Hasse diagrams (transitive reductions), maximal values and value weights.
//!
//! The weighted similarity measures of Section 5 assign each value `v` the
//! weight `1 / (min_{s ∈ Sᵈ_U} D(s, v) + 1)` where `Sᵈ_U` is the set of
//! maximal values of the partial order (Def. 5.3) and `D(s, v)` is the
//! shortest-path distance from `s` to `v` in the Hasse diagram. Example 5.4
//! of the paper measures these distances on the Hasse diagram rather than on
//! the transitive closure, which is why the reduction is materialised here.
//!
//! One row-level reduction computes all of it, over any transitively closed
//! bit matrix: [`HasseDiagram::of`] runs it over a [`Relation`]'s own value
//! table, and [`CompiledRelation::value_weights`](crate::CompiledRelation::value_weights)
//! over a compiled relation's (possibly wider) universe.

use pm_model::ValueId;

use crate::relation::{set_bits, Relation};

/// The Hasse structure of a transitively closed bit matrix over `n` values
/// (bit `y` of row `x` set iff `x ≻ y`): the cover rows and each value's
/// cover-edge depth from the maximal values. The one place cover edges and
/// Hasse depths are computed.
#[derive(Debug, Clone, Default)]
pub(crate) struct Reduction {
    /// Width of a row in 64-bit words: `⌈n/64⌉`.
    words: usize,
    /// `n * words` words, row-major: bit `y` of row `x` set iff `x`
    /// covers `y`, i.e. `x ≻ y` with no `z` such that `x ≻ z ≻ y`.
    cover: Vec<u64>,
    /// Cover-edge distance from the nearest maximal value, or `None` for a
    /// value no tuple mentions.
    depth: Vec<Option<u32>>,
}

impl Reduction {
    /// Reduces the closed rows `row(0) .. row(n - 1)`, each `⌈n/64⌉` words.
    pub(crate) fn of<'a>(n: usize, row: impl Fn(usize) -> &'a [u64]) -> Self {
        let words = n.div_ceil(64);
        // cover[x] = row(x) & !⋃_{z ∈ row(x)} row(z): what x prefers with
        // nothing in between.
        let mut cover = Vec::with_capacity(n * words);
        let mut through = vec![0u64; words];
        let mut beaten = vec![0u64; words];
        for x in 0..n {
            through.fill(0);
            for z in set_bits(row(x)) {
                or_into(&mut through, row(z));
            }
            cover.extend(row(x).iter().zip(&through).map(|(r, t)| r & !t));
            or_into(&mut beaten, row(x));
        }
        // Layered BFS over the cover rows from the maximal values: the
        // mentioned (non-empty row) values nothing is preferred to.
        let mut depth = vec![None; n];
        let mut layer: Vec<usize> = (0..n)
            .filter(|&x| !has_bit(&beaten, x) && row(x).iter().any(|&word| word != 0))
            .collect();
        let (mut next, mut d) = (vec![0u64; words], 0);
        while !layer.is_empty() {
            next.fill(0);
            for &x in &layer {
                depth[x] = Some(d);
                or_into(&mut next, &cover[x * words..(x + 1) * words]);
            }
            layer = set_bits(&next).filter(|&y| depth[y].is_none()).collect();
            d += 1;
        }
        Self {
            words,
            cover,
            depth,
        }
    }

    /// The values `x` covers, as a bit row.
    fn cover(&self, x: usize) -> &[u64] {
        &self.cover[x * self.words..(x + 1) * self.words]
    }

    /// The weight of value `x`: `1 / (depth + 1)` (Eq. 4), and 1 for a value
    /// no tuple mentions — an unconstrained value is trivially maximal.
    pub(crate) fn weight(&self, x: usize) -> f64 {
        self.depth[x].map_or(1.0, |d| 1.0 / (f64::from(d) + 1.0))
    }
}

/// ORs `row` into `acc` word by word.
fn or_into(acc: &mut [u64], row: &[u64]) {
    for (a, word) in acc.iter_mut().zip(row) {
        *a |= word;
    }
}

/// Whether bit `i` of `row` is set.
fn has_bit(row: &[u64], i: usize) -> bool {
    (row[i / 64] >> (i % 64)) & 1 == 1
}

/// The transitive reduction of a [`Relation`], with the derived quantities
/// used by the weighted similarity measures.
#[derive(Debug, Clone, Default)]
pub struct HasseDiagram {
    /// The relation's value table, ascending: the index space of
    /// `reduction`.
    values: Vec<ValueId>,
    reduction: Reduction,
}

impl HasseDiagram {
    /// Builds the Hasse diagram of `relation`.
    pub fn of(relation: &Relation) -> Self {
        let values = relation.values().to_vec();
        let reduction = Reduction::of(values.len(), |i| relation.row(i));
        Self { values, reduction }
    }

    /// The maximal values `Sᵈ_U` of the underlying relation (Def. 5.3),
    /// ascending.
    pub fn maximal_values(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.values
            .iter()
            .zip(&self.reduction.depth)
            .filter(|&(_, &depth)| depth == Some(0))
            .map(|(&v, _)| v)
    }

    /// The cover ("Hasse") edges of the reduction, ascending by `(x, y)`.
    pub fn cover_edges(&self) -> impl Iterator<Item = (ValueId, ValueId)> + '_ {
        (0..self.values.len()).flat_map(move |x| {
            set_bits(self.reduction.cover(x)).map(move |y| (self.values[x], self.values[y]))
        })
    }

    /// Number of cover edges.
    pub fn edge_count(&self) -> usize {
        self.reduction
            .cover
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum()
    }

    /// Minimum shortest-path distance from any maximal value to `v`
    /// (`min_{s ∈ Sᵈ_U} D(s, v)`).
    ///
    /// Maximal values have distance 0. Values not mentioned by the relation
    /// (or unreachable, which cannot happen in a finite strict partial
    /// order) return `None`.
    pub fn distance_from_maximal(&self, v: ValueId) -> Option<u32> {
        let i = self.values.binary_search(&v).ok()?;
        self.reduction.depth[i]
    }

    /// The weight of value `v`: `1 / (distance + 1)` (Eq. 4).
    ///
    /// Values unknown to the relation get weight 1, matching the convention
    /// that an unconstrained value is trivially maximal.
    pub fn weight(&self, v: ValueId) -> f64 {
        self.values
            .binary_search(&v)
            .map_or(1.0, |i| self.reduction.weight(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> ValueId {
        ValueId::new(i)
    }

    fn maximal(h: &HasseDiagram) -> Vec<ValueId> {
        h.maximal_values().collect()
    }

    #[test]
    fn chain_reduction_drops_transitive_edges() {
        let r = Relation::from_pairs([(v(0), v(1)), (v(1), v(2))]).unwrap();
        let h = HasseDiagram::of(&r);
        let edges: Vec<_> = h.cover_edges().collect();
        assert_eq!(edges, [(v(0), v(1)), (v(1), v(2))]);
        assert_eq!(h.edge_count(), 2);
        assert_eq!(maximal(&h), [v(0)]);
        assert_eq!(h.distance_from_maximal(v(0)), Some(0));
        assert_eq!(h.distance_from_maximal(v(1)), Some(1));
        assert_eq!(h.distance_from_maximal(v(2)), Some(2));
    }

    #[test]
    fn diamond_has_two_paths_but_no_shortcut_edge() {
        let r =
            Relation::from_pairs([(v(0), v(1)), (v(0), v(2)), (v(1), v(3)), (v(2), v(3))]).unwrap();
        let h = HasseDiagram::of(&r);
        assert_eq!(
            h.edge_count(),
            4,
            "the closure edge (0,3) must be reduced away"
        );
        assert_eq!(h.distance_from_maximal(v(3)), Some(2));
    }

    #[test]
    fn paper_example_5_4_u1_brand_weights() {
        // U1 on brand: Apple ≻ Lenovo ≻ Samsung, Apple ≻ Samsung,
        // Toshiba ≻ Samsung. Maximal = {Apple, Toshiba}.
        // Weights: Apple 1, Lenovo 1/2, Samsung 1/2, Toshiba 1.
        let (apple, lenovo, samsung, toshiba) = (v(0), v(1), v(2), v(3));
        let r =
            Relation::from_pairs([(apple, lenovo), (lenovo, samsung), (toshiba, samsung)]).unwrap();
        assert!(r.prefers(apple, samsung), "closure");
        let h = HasseDiagram::of(&r);
        assert_eq!(maximal(&h), [apple, toshiba]);
        assert_eq!(h.weight(apple), 1.0);
        assert_eq!(h.weight(toshiba), 1.0);
        assert_eq!(h.weight(lenovo), 0.5);
        assert_eq!(h.weight(samsung), 0.5);
    }

    #[test]
    fn paper_example_5_4_u2_brand_weights() {
        // U2 on brand: Samsung ≻ Lenovo ≻ {Apple, Toshiba}.
        // Weights: Samsung 1, Lenovo 1/2, Apple 1/3, Toshiba 1/3.
        let (apple, lenovo, samsung, toshiba) = (v(0), v(1), v(2), v(3));
        let r =
            Relation::from_pairs([(samsung, lenovo), (lenovo, apple), (lenovo, toshiba)]).unwrap();
        let h = HasseDiagram::of(&r);
        assert_eq!(maximal(&h), [samsung]);
        assert!((h.weight(apple) - 1.0 / 3.0).abs() < 1e-12);
        assert!((h.weight(toshiba) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.weight(lenovo), 0.5);
        assert_eq!(h.weight(samsung), 1.0);
    }

    #[test]
    fn empty_relation_has_no_structure() {
        let r = Relation::new();
        let h = HasseDiagram::of(&r);
        assert_eq!(h.edge_count(), 0);
        assert!(maximal(&h).is_empty());
        assert_eq!(h.distance_from_maximal(v(0)), None);
        assert_eq!(h.weight(v(0)), 1.0);
    }

    #[test]
    fn value_weights_covers_all_mentioned_values() {
        let r = Relation::from_pairs([(v(0), v(1)), (v(0), v(2))]).unwrap();
        let h = HasseDiagram::of(&r);
        let w: Vec<f64> = r.values().iter().map(|&x| h.weight(x)).collect();
        assert_eq!(w, [1.0, 0.5, 0.5]);
        assert!(r
            .values()
            .iter()
            .all(|&x| h.distance_from_maximal(x).is_some()));
    }

    #[test]
    fn incomparable_values_are_all_maximal() {
        let mut r = Relation::new();
        r.insert(v(0), v(1)).unwrap();
        r.insert(v(2), v(3)).unwrap();
        let h = HasseDiagram::of(&r);
        assert_eq!(maximal(&h), [v(0), v(2)]);
    }
}
