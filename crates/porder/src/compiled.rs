//! Bitset-compiled partial orders: the immutable, cache-friendly form the
//! monitoring hot path runs on.
//!
//! [`Relation`] is the *build-time* representation: a growable bit-row
//! closure over the values it mentions, with incremental transitive-closure
//! insertion while preferences are collected. Once a monitor is
//! constructed, its preferences never change again, yet every arriving
//! object pays `prefers(x, y)` many times over. Compiling a relation copies
//! its rows — optionally into a wider shared universe — and adds a lookup
//! table indexed by raw value id, so that
//!
//! * `prefers(x, y)` is two array loads plus one shift-and-mask,
//! * intersection (the common preference relation of Def. 4.1) is a
//!   bitwise AND over the rows, and
//! * the similarity measures of Sec. 5 reduce to AND + popcount.
//!
//! [`CompiledPreference`] bundles one [`CompiledRelation`] per attribute and
//! carries the pairwise object-dominance test of Def. 3.2
//! ([`CompiledPreference::compare`] / [`CompiledPreference::dominates`]).
//! The monitoring hot path does not compare pairwise: `pm-core` indexes a
//! frontier's members per attribute and value, and finds the members that
//! may dominate an object `o` by OR-ing the members holding a value that
//! beats `oₐ` — the values of one row of the closure's *transpose*
//! ([`CompiledRelation::predecessors`]) — and those it may dominate from
//! the values one closure row holds ([`CompiledRelation::row`]).
//!
//! The transpose is built lazily by the first `predecessors` call:
//! relations that only ever meet the clustering's AND / popcount path, a
//! compaction universe's pairwise tests or an engine-level interner never
//! pay for it.

use std::sync::{Arc, OnceLock};

use pm_model::{AttrId, Object, ValueId};

use crate::hasse::Reduction;
use crate::preference::{Dominance, Preference};
use crate::relation::{set_bits, Relation};

/// Sentinel for "value not in this relation's universe".
const NONE: u32 = u32::MAX;

/// The largest preference value id a serving layer should accept.
///
/// A [`CompiledRelation`] (and a [`crate::RelationUnion`]) maps values to
/// dense indices through a table indexed by raw value id, so its size is
/// set by the largest id a preference mentions: 4 bytes per id up to it,
/// 4 MiB at this bound. The bundled movie and publication domains stay
/// below 100. Object values are not bounded: a value outside a relation's
/// universe is simply not in the table, which does not grow for it.
pub const MAX_PREFERENCE_VALUE: u32 = 1 << 20;

/// The most distinct values one attribute relation of a preference a
/// serving layer should accept.
///
/// A [`Relation`] and its compiled form hold one bit row per mentioned
/// value, and the compiled transpose one more bit per ordered value pair,
/// so their size grows with the square of this count: about 128 KiB of
/// closure and 128 KiB of transpose at this bound. The bundled movie and
/// publication domains hold at most 80 values per attribute.
pub const MAX_RELATION_VALUES: usize = 1024;

/// Universes at least this large are candidates for the sparse row
/// representation (below that, the dense matrix is at most a few KiB and
/// simpler is faster).
const SPARSE_MIN_UNIVERSE: usize = 128;

/// Sparse is chosen when non-empty rows make up at most `1/SPARSE_ROW_DIV`
/// of the universe — i.e. it guarantees at least a ~4x row-storage saving.
const SPARSE_ROW_DIV: usize = 4;

/// Row storage of a [`CompiledRelation`]: either the full dense matrix, or
/// — when the universe is large and most rows are empty (a single user's
/// preference compiled over a big shared value domain) — only the non-empty
/// rows, sorted by row index. The sparse form drops the O(|universe|²) bit
/// cost of a singleton to O(mentioned · |universe|) bits.
#[derive(Debug, Clone)]
enum Rows {
    /// `universe.len() * words_per_row` words, row-major.
    Dense(Vec<u64>),
    /// Non-empty rows only, ascending by row index, plus one shared
    /// all-zero row handed out for absent indices.
    Sparse {
        rows: Vec<(u32, Box<[u64]>)>,
        zeros: Box<[u64]>,
    },
}

/// A strict partial order compiled to a bit matrix.
///
/// Row `i` holds the successor set of the `i`-th interned value: bit `j` of
/// row `i` is set iff `universe[i] ≻ universe[j]` in the source relation's
/// transitive closure. Values outside the universe are incomparable to
/// everything, matching [`Relation::prefers`] on unmentioned values.
///
/// Rows are stored dense (one fixed-width bit-row per value) or sparse
/// (non-empty rows only — see the internal `Rows` enum); the representation
/// is an internal detail chosen at compile time and kept by
/// [`Self::intersect_assign`], the one mutation, and two relations with the
/// same universe and tuple set compare equal regardless of representation.
#[derive(Debug, Clone)]
pub struct CompiledRelation {
    /// `ValueId.raw() → dense index`, or [`NONE`]; indexed directly by raw
    /// id. Shared (`Arc`) so that a clone — a cluster fold starts from a
    /// copy of one member's relations — never re-copies the table.
    index_of: Arc<[u32]>,
    /// Dense index → interned value, ascending by raw id. Shared like
    /// `index_of`.
    universe: Arc<[ValueId]>,
    /// Width of each bit-row in 64-bit words: `ceil(universe.len() / 64)`.
    words_per_row: usize,
    /// Row storage (dense matrix or non-empty rows only).
    rows: Rows,
    /// The closure's transpose, dense and `words_per_row` words to a row
    /// (see [`Self::predecessors`]), built by the first call that needs it
    /// (see the module docs for who never does).
    transpose: OnceLock<Box<[u64]>>,
    /// Number of preference tuples (total popcount), kept for O(1) `len`.
    len: usize,
}

impl PartialEq for CompiledRelation {
    /// Representation-independent equality: same universe, same tuple set.
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe
            && self.len == other.len
            && (0..self.universe.len()).all(|i| self.row(i) == other.row(i))
    }
}

impl Eq for CompiledRelation {}

impl CompiledRelation {
    /// Compiles `relation` over exactly the values it mentions: its own
    /// value table, whose rows are copied as they are.
    pub fn compile(relation: &Relation) -> Self {
        Self::compile_with_universe(relation, relation.values())
    }

    /// Compiles `relation` over a caller-chosen `universe` (sorted,
    /// duplicate-free, covering every value the relation mentions).
    ///
    /// Sharing one universe across many relations of the same attribute puts
    /// their bit-rows in the same index space, which is what makes
    /// [`CompiledRelation::intersect_assign`] and the popcount-based similarity
    /// measures plain word-wise operations.
    ///
    /// # Panics
    /// Panics if `universe` misses a value the relation mentions; debug
    /// builds additionally assert that `universe` is sorted and
    /// duplicate-free. Compilation is a build-time step, so the covering
    /// check is kept in release builds too.
    pub fn compile_with_universe(relation: &Relation, universe: &[ValueId]) -> Self {
        debug_assert!(universe.windows(2).all(|w| w[0] < w[1]), "universe sorted");
        let max_raw = universe.last().map_or(0, |v| v.raw() as usize + 1);
        let mut index_of = vec![NONE; max_raw];
        for (i, v) in universe.iter().enumerate() {
            index_of[v.index()] = i as u32;
        }
        let n = universe.len();
        let words_per_row = n.div_ceil(64);
        // Relation table position → universe index. Both tables ascend, so
        // when they are equally long they are equal and rows copy as-is.
        let slots: Vec<u32> = relation
            .values()
            .iter()
            .map(|&v| match index_of.get(v.index()).copied() {
                Some(slot) if slot != NONE => slot,
                _ => panic!("universe does not cover value {v} of the relation"),
            })
            .collect();
        let same_table = slots.len() == n;
        let nonempty: Vec<usize> = (0..slots.len())
            .filter(|&i| relation.row(i).iter().any(|&word| word != 0))
            .collect();
        // Writes row `i` of the relation into `row`, in universe indices.
        let place = |i: usize, row: &mut [u64]| {
            if same_table {
                row.copy_from_slice(relation.row(i));
            } else {
                for j in set_bits(relation.row(i)) {
                    let iy = slots[j] as usize;
                    row[iy / 64] |= 1u64 << (iy % 64);
                }
            }
        };
        // Sparse only pays off when the universe is large
        // (`SPARSE_MIN_UNIVERSE`) and most rows are empty (`SPARSE_ROW_DIV`).
        let rows = if n >= SPARSE_MIN_UNIVERSE && nonempty.len() * SPARSE_ROW_DIV <= n {
            let blank = || vec![0u64; words_per_row].into_boxed_slice();
            let rows = nonempty
                .iter()
                .map(|&i| {
                    let mut row = blank();
                    place(i, &mut row);
                    (slots[i], row)
                })
                .collect();
            Rows::Sparse {
                rows,
                zeros: blank(),
            }
        } else {
            let mut bits = vec![0u64; n * words_per_row];
            for &i in &nonempty {
                let start = slots[i] as usize * words_per_row;
                place(i, &mut bits[start..start + words_per_row]);
            }
            Rows::Dense(bits)
        };
        Self {
            index_of: index_of.into(),
            universe: universe.to_vec().into(),
            words_per_row,
            rows,
            transpose: OnceLock::new(),
            len: relation.len(),
        }
    }

    /// Whether this relation currently uses the sparse row representation.
    pub fn is_sparse(&self) -> bool {
        matches!(self.rows, Rows::Sparse { .. })
    }

    /// Approximate heap bytes of this compiled relation (interning tables
    /// plus row storage, and the transpose once [`Self::predecessors`] has
    /// built it). The `Arc`-shared
    /// tables are counted here even though relations compiled over one
    /// shared universe share them, so sums over many relations are an upper
    /// bound.
    pub fn approx_bytes(&self) -> usize {
        self.closure_bytes() + self.transpose.get().map_or(0, |rows| rows.len() * 8)
    }

    /// [`Self::approx_bytes`] without the transpose: what compiling fixed,
    /// whether or not a frontier lookup has built the transpose since.
    pub fn closure_bytes(&self) -> usize {
        let tables = self.index_of.len() * 4 + self.universe.len() * 4;
        let rows = match &self.rows {
            Rows::Dense(bits) => bits.len() * 8,
            Rows::Sparse { rows, zeros } => (rows.len() + 1) * zeros.len() * 8 + rows.len() * 16,
        };
        std::mem::size_of::<Self>() + tables + rows
    }

    /// The dense index of `v`, if it belongs to the compiled universe.
    #[inline]
    pub fn dense_index(&self, v: ValueId) -> Option<usize> {
        match self.index_of.get(v.index()) {
            Some(&slot) if slot != NONE => Some(slot as usize),
            _ => None,
        }
    }

    /// The interned values, ascending by raw id.
    pub fn universe(&self) -> &[ValueId] {
        &self.universe
    }

    /// Number of interned values.
    pub fn num_values(&self) -> usize {
        self.universe.len()
    }

    /// The bit-row of the `idx`-th interned value: bit `j` set iff
    /// `universe[idx] ≻ universe[j]`. For sparse relations, absent rows
    /// come back as a shared all-zero row.
    #[inline]
    pub fn row(&self, idx: usize) -> &[u64] {
        match &self.rows {
            Rows::Dense(bits) => &bits[idx * self.words_per_row..(idx + 1) * self.words_per_row],
            Rows::Sparse { rows, zeros } => {
                match rows.binary_search_by_key(&(idx as u32), |r| r.0) {
                    Ok(i) => &rows[i].1,
                    Err(_) => zeros,
                }
            }
        }
    }

    /// The values that beat the `idx`-th interned value: bit `j` set iff
    /// `universe[j] ≻ universe[idx]` — row `idx` of the closure's
    /// transpose, which the first call builds.
    #[inline]
    pub fn predecessors(&self, idx: usize) -> &[u64] {
        let words = self.words_per_row;
        &self.transpose()[idx * words..(idx + 1) * words]
    }

    fn transpose(&self) -> &[u64] {
        self.transpose.get_or_init(|| {
            let (n, words) = (self.universe.len(), self.words_per_row);
            let mut rows = vec![0u64; n * words];
            for ix in 0..n {
                for iy in set_bits(self.row(ix)) {
                    rows[iy * words + ix / 64] |= 1u64 << (ix % 64);
                }
            }
            rows.into_boxed_slice()
        })
    }

    #[inline]
    fn bit(&self, ix: usize, iy: usize) -> bool {
        match &self.rows {
            Rows::Dense(bits) => (bits[ix * self.words_per_row + iy / 64] >> (iy % 64)) & 1 == 1,
            Rows::Sparse { .. } => (self.row(ix)[iy / 64] >> (iy % 64)) & 1 == 1,
        }
    }

    /// Whether `x ≻ y` holds: two interning loads and one shift-and-mask.
    #[inline]
    pub fn prefers(&self, x: ValueId, y: ValueId) -> bool {
        match (self.dense_index(x), self.dense_index(y)) {
            (Some(ix), Some(iy)) => self.bit(ix, iy),
            _ => false,
        }
    }

    /// Whether `x ≻ y` or `y ≻ x` holds.
    #[inline]
    pub fn comparable(&self, x: ValueId, y: ValueId) -> bool {
        match (self.dense_index(x), self.dense_index(y)) {
            (Some(ix), Some(iy)) => self.bit(ix, iy) || self.bit(iy, ix),
            _ => false,
        }
    }

    /// Number of preference tuples in the closure (`|≻ᵈ|`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation holds no preference tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `other` was compiled over the same universe, i.e. the two bit
    /// matrices live in the same index space.
    pub fn same_universe(&self, other: &CompiledRelation) -> bool {
        Arc::ptr_eq(&self.universe, &other.universe) || self.universe == other.universe
    }

    /// `|≻ᵈ_1 ∩ ≻ᵈ_2|` (`simᵈ_i`, Eq. 2) as word-wise AND + popcount.
    ///
    /// # Panics
    /// Panics (debug builds) unless both relations share a universe.
    pub fn intersection_size(&self, other: &CompiledRelation) -> usize {
        debug_assert!(self.same_universe(other), "universes must match");
        match (&self.rows, &other.rows) {
            (Rows::Dense(a), Rows::Dense(b)) => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x & y).count_ones() as usize)
                .sum(),
            // AND against an absent (all-zero) row is zero, so it suffices
            // to walk whichever side is sparse.
            (Rows::Sparse { rows, .. }, _) => rows
                .iter()
                .map(|(ix, row)| {
                    row.iter()
                        .zip(other.row(*ix as usize))
                        .map(|(x, y)| (x & y).count_ones() as usize)
                        .sum::<usize>()
                })
                .sum(),
            (_, Rows::Sparse { rows, .. }) => rows
                .iter()
                .map(|(ix, row)| {
                    row.iter()
                        .zip(self.row(*ix as usize))
                        .map(|(x, y)| (x & y).count_ones() as usize)
                        .sum::<usize>()
                })
                .sum(),
        }
    }

    /// `|≻ᵈ_1 ∪ ≻ᵈ_2|` (denominator of the Jaccard measure, Eq. 3).
    ///
    /// # Panics
    /// Panics (debug builds) unless both relations share a universe.
    pub fn union_size(&self, other: &CompiledRelation) -> usize {
        self.len + other.len - self.intersection_size(other)
    }

    /// The common preference relation `≻ᵈ_U = ≻ᵈ_1 ∩ ≻ᵈ_2` (Def. 4.1): a
    /// copy of `self` with [`Self::intersect_assign`] applied.
    ///
    /// # Panics
    /// Panics (debug builds) unless both relations share a universe.
    pub fn intersect(&self, other: &CompiledRelation) -> CompiledRelation {
        let mut common = self.clone();
        common.intersect_assign(other);
        common
    }

    /// Narrows `self` to the common preference relation `≻ᵈ_1 ∩ ≻ᵈ_2`
    /// (Def. 4.1) in place. The intersection of strict partial orders is a
    /// strict partial order (Theorem 4.2), so the result needs no
    /// re-closure. Dense rows take a word-wise AND plus popcount and
    /// allocate nothing; sparse rows are each AND-ed with the other side's
    /// row, and rows left empty are dropped. The row layout is kept, and
    /// transpose is discarded, to be rebuilt by the next
    /// [`Self::predecessors`].
    ///
    /// # Panics
    /// Panics (debug builds) unless both relations share a universe.
    pub fn intersect_assign(&mut self, other: &CompiledRelation) {
        debug_assert!(self.same_universe(other), "universes must match");
        let words = self.words_per_row;
        self.len = match &mut self.rows {
            Rows::Dense(bits) => match &other.rows {
                Rows::Dense(theirs) => and_count(bits, theirs),
                // Absent rows of the sparse side clear the dense ones.
                Rows::Sparse { .. } => (0..self.universe.len())
                    .map(|ix| and_count(&mut bits[ix * words..(ix + 1) * words], other.row(ix)))
                    .sum(),
            },
            Rows::Sparse { rows, .. } => {
                let mut len = 0;
                rows.retain_mut(|(ix, row)| {
                    let count = and_count(row, other.row(*ix as usize));
                    len += count;
                    count > 0
                });
                len
            }
        };
        self.transpose = OnceLock::new();
    }

    /// Iterates over all preference tuples of the closure.
    pub fn pairs(&self) -> impl Iterator<Item = (ValueId, ValueId)> + '_ {
        (0..self.universe.len()).flat_map(move |ix| {
            set_bits(self.row(ix)).map(move |iy| (self.universe[ix], self.universe[iy]))
        })
    }

    /// Decompiles back to the build-time [`Relation`] (for interop with the
    /// build-time APIs): the rows are copied and the universe values no
    /// tuple mentions dropped.
    pub fn to_relation(&self) -> Relation {
        let rows = (0..self.universe.len())
            .flat_map(|ix| self.row(ix).iter().copied())
            .collect();
        Relation::from_closed_rows(self.universe.to_vec(), self.words_per_row, rows)
    }

    /// The Hasse value weights of Sec. 5 (Eq. 4), indexed by dense index:
    /// `1 / (1 + min distance from a maximal value over the Hasse diagram)`,
    /// from the same reduction [`crate::HasseDiagram`] runs.
    ///
    /// Values of the universe not mentioned by any tuple get weight 1,
    /// matching [`crate::HasseDiagram::weight`]'s convention that an
    /// unconstrained value is trivially maximal.
    pub fn value_weights(&self) -> Vec<f64> {
        let n = self.universe.len();
        let reduction = Reduction::of(n, |ix| self.row(ix));
        (0..n).map(|ix| reduction.weight(ix)).collect()
    }
}

/// ANDs `theirs` into `ours` word by word and returns the popcount of the
/// result.
fn and_count(ours: &mut [u64], theirs: &[u64]) -> usize {
    ours.iter_mut()
        .zip(theirs)
        .map(|(word, other)| {
            *word &= other;
            word.count_ones() as usize
        })
        .sum()
}

/// A user's (or virtual user's) preferences compiled for the hot path: one
/// [`CompiledRelation`] per attribute.
#[derive(Debug, Clone)]
pub struct CompiledPreference {
    relations: Vec<CompiledRelation>,
}

impl CompiledPreference {
    /// Compiles every attribute relation of `preference`.
    pub fn compile(preference: &Preference) -> Self {
        Self {
            relations: preference
                .relations()
                .map(|(_, rel)| CompiledRelation::compile(rel))
                .collect(),
        }
    }

    /// Bundles pre-compiled per-attribute relations (in attribute order).
    pub fn from_relations(relations: Vec<CompiledRelation>) -> Self {
        Self { relations }
    }

    /// Number of attributes covered (`|D|`).
    pub fn arity(&self) -> usize {
        self.relations.len()
    }

    /// The compiled relation for attribute `attr`.
    ///
    /// # Panics
    /// Panics if `attr` is out of range.
    pub fn relation(&self, attr: AttrId) -> &CompiledRelation {
        &self.relations[attr.index()]
    }

    /// The compiled relations, in attribute order.
    pub fn relations(&self) -> &[CompiledRelation] {
        &self.relations
    }

    /// Total number of preference tuples across all attributes.
    pub fn total_pairs(&self) -> usize {
        self.relations.iter().map(CompiledRelation::len).sum()
    }

    /// Whether the preference holds no tuples at all.
    pub fn is_empty(&self) -> bool {
        self.relations.iter().all(CompiledRelation::is_empty)
    }

    /// Whether value `x` is preferred to `y` on attribute `attr`.
    #[inline]
    pub fn prefers(&self, attr: AttrId, x: ValueId, y: ValueId) -> bool {
        self.relations[attr.index()].prefers(x, y)
    }

    /// Whether object `a` dominates object `b` (Def. 3.2).
    #[inline]
    pub fn dominates(&self, a: &Object, b: &Object) -> bool {
        matches!(self.compare(a, b), Dominance::Dominates)
    }

    /// Full three-way-plus-identical comparison of two objects, semantically
    /// identical to [`Preference::compare`] but with every `prefers` test a
    /// bit lookup. Only the first `arity()` attributes are considered.
    pub fn compare(&self, a: &Object, b: &Object) -> Dominance {
        let mut a_better = false;
        let mut b_better = false;
        for (idx, rel) in self.relations.iter().enumerate() {
            let attr = AttrId::from(idx);
            let (av, bv) = (a.value(attr), b.value(attr));
            if av == bv {
                continue;
            }
            match (rel.dense_index(av), rel.dense_index(bv)) {
                (Some(ia), Some(ib)) => {
                    if rel.bit(ia, ib) {
                        a_better = true;
                    } else if rel.bit(ib, ia) {
                        b_better = true;
                    } else {
                        return Dominance::Incomparable;
                    }
                }
                // A value outside the relation's universe is incomparable to
                // every differing value.
                _ => return Dominance::Incomparable,
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

    /// Approximate heap bytes across all attribute relations (see
    /// [`CompiledRelation::approx_bytes`] for the sharing caveat).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .relations
                .iter()
                .map(CompiledRelation::approx_bytes)
                .sum::<usize>()
    }

    /// [`Self::approx_bytes`] without the transposes (see
    /// [`CompiledRelation::closure_bytes`]).
    pub fn closure_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .relations
                .iter()
                .map(CompiledRelation::closure_bytes)
                .sum::<usize>()
    }

    /// Restricts the compiled preference to its first `k` attributes.
    pub fn project(&self, k: usize) -> CompiledPreference {
        CompiledPreference {
            relations: self.relations[..k.min(self.relations.len())].to_vec(),
        }
    }
}

impl Preference {
    /// Compiles this preference for the monitoring hot path.
    pub fn compile(&self) -> CompiledPreference {
        CompiledPreference::compile(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasse::HasseDiagram;
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
    fn compiled_prefers_matches_relation() {
        let rel = Relation::from_pairs([(v(0), v(1)), (v(1), v(2)), (v(5), v(2))]).unwrap();
        let c = CompiledRelation::compile(&rel);
        assert_eq!(c.len(), rel.len());
        assert_eq!(c.num_values(), 4);
        for x in 0..8 {
            for y in 0..8 {
                assert_eq!(c.prefers(v(x), v(y)), rel.prefers(v(x), v(y)), "({x}, {y})");
                assert_eq!(c.comparable(v(x), v(y)), rel.comparable(v(x), v(y)));
            }
        }
    }

    #[test]
    fn compiled_pairs_round_trip() {
        let rel = Relation::from_pairs([(v(3), v(1)), (v(1), v(0)), (v(7), v(0))]).unwrap();
        let c = CompiledRelation::compile(&rel);
        let back = c.to_relation();
        assert_eq!(back, rel);
        let mut pairs: Vec<_> = c.pairs().collect();
        pairs.sort();
        let mut expected: Vec<_> = rel.pairs().collect();
        expected.sort();
        assert_eq!(pairs, expected);
    }

    #[test]
    fn empty_relation_compiles_to_empty_matrix() {
        let c = CompiledRelation::compile(&Relation::new());
        assert!(c.is_empty());
        assert_eq!(c.num_values(), 0);
        assert!(!c.prefers(v(0), v(1)));
        assert!(c.pairs().next().is_none());
    }

    #[test]
    fn wide_universe_spans_multiple_words() {
        // 70 values forces words_per_row = 2, exercising cross-word bits.
        let rel = Relation::from_pairs((0..69).map(|i| (v(i), v(i + 1)))).unwrap();
        let c = CompiledRelation::compile(&rel);
        assert_eq!(c.num_values(), 70);
        assert_eq!(c.len(), rel.len());
        assert!(c.prefers(v(0), v(69)), "closure bit in the second word");
        assert!(!c.prefers(v(69), v(0)));
        assert_eq!(c.to_relation(), rel);
    }

    #[test]
    fn shared_universe_intersection_is_and_popcount() {
        let a = Relation::from_pairs([(v(1), v(0)), (v(2), v(0)), (v(3), v(0))]).unwrap();
        let b = Relation::from_pairs([(v(1), v(0)), (v(3), v(2)), (v(3), v(0))]).unwrap();
        let mut universe: Vec<ValueId> = [a.values(), b.values()].concat();
        universe.sort_unstable();
        universe.dedup();
        let ca = CompiledRelation::compile_with_universe(&a, &universe);
        let cb = CompiledRelation::compile_with_universe(&b, &universe);
        let common = a.intersection(&b);
        assert_eq!(ca.intersection_size(&cb), common.len());
        assert_eq!(ca.union_size(&cb), a.len() + b.len() - common.len());
        assert_eq!(ca.intersect(&cb).to_relation(), common);
    }

    #[test]
    fn value_weights_match_hasse_diagram() {
        // U2 on brand (Example 5.4): Samsung ≻ Lenovo ≻ {Apple, Toshiba}.
        let rel = Relation::from_pairs([(v(2), v(1)), (v(1), v(0)), (v(1), v(3))]).unwrap();
        let c = CompiledRelation::compile(&rel);
        let hasse = HasseDiagram::of(&rel);
        let weights = c.value_weights();
        for (i, &value) in c.universe().iter().enumerate() {
            assert!(
                (weights[i] - hasse.weight(value)).abs() < 1e-15,
                "weight of {value}"
            );
        }
    }

    #[test]
    fn unmentioned_universe_values_get_weight_one() {
        let rel = Relation::from_pairs([(v(0), v(1))]).unwrap();
        let universe = [v(0), v(1), v(2)];
        let c = CompiledRelation::compile_with_universe(&rel, &universe);
        let weights = c.value_weights();
        assert_eq!(weights, vec![1.0, 0.5, 1.0]);
    }

    #[test]
    fn big_universe_few_rows_goes_sparse_and_stays_equivalent() {
        // A 300-value universe with only two source rows: sparse kicks in.
        let universe: Vec<ValueId> = (0..300).map(v).collect();
        let rel = Relation::from_pairs([(v(7), v(250)), (v(7), v(3)), (v(299), v(0))]).unwrap();
        let sparse = CompiledRelation::compile_with_universe(&rel, &universe);
        assert!(sparse.is_sparse());
        // The same relation compiled over just its own values stays dense.
        let dense = CompiledRelation::compile(&rel);
        assert!(!dense.is_sparse());
        for x in [0, 3, 7, 250, 299, 42] {
            for y in [0, 3, 7, 250, 299, 42] {
                assert_eq!(sparse.prefers(v(x), v(y)), rel.prefers(v(x), v(y)));
            }
        }
        assert_eq!(sparse.len(), rel.len());
        assert_eq!(sparse.to_relation(), rel);
        assert!(
            sparse.approx_bytes() < 300 * 300 / 8,
            "sparse rows beat the dense matrix ({} bytes)",
            sparse.approx_bytes()
        );
    }

    #[test]
    fn sparse_and_dense_of_same_relation_compare_equal() {
        let universe: Vec<ValueId> = (0..200).map(v).collect();
        let rel = Relation::from_pairs([(v(1), v(150)), (v(1), v(0))]).unwrap();
        let sparse = CompiledRelation::compile_with_universe(&rel, &universe);
        assert!(sparse.is_sparse());
        // Force a dense sibling over the identical universe: a relation
        // touching more than universe/SPARSE_ROW_DIV rows stays dense.
        let mut bulk_pairs: Vec<_> = (100..200).map(|i| (v(i), v(99))).collect();
        bulk_pairs.extend([(v(1), v(150)), (v(1), v(0))]);
        let bulk = Relation::from_pairs(bulk_pairs).unwrap();
        let dense_bulk = CompiledRelation::compile_with_universe(&bulk, &universe);
        assert!(!dense_bulk.is_sparse());
        // Intersecting the dense bulk with the sparse relation yields
        // exactly the sparse relation's tuples — and equality holds across
        // representations.
        let inter = dense_bulk.intersect(&sparse);
        assert_eq!(inter, sparse);
        assert_eq!(sparse, inter);
        assert_eq!(inter.to_relation(), rel);
    }

    #[test]
    fn sparse_intersection_counts_match_hash_form() {
        let universe: Vec<ValueId> = (0..256).map(v).collect();
        let a = Relation::from_pairs([(v(10), v(20)), (v(10), v(30)), (v(200), v(0))]).unwrap();
        let b = Relation::from_pairs([(v(10), v(20)), (v(200), v(0)), (v(200), v(5))]).unwrap();
        let ca = CompiledRelation::compile_with_universe(&a, &universe);
        let cb = CompiledRelation::compile_with_universe(&b, &universe);
        assert!(ca.is_sparse() && cb.is_sparse());
        let common = a.intersection(&b);
        assert_eq!(ca.intersection_size(&cb), common.len());
        assert_eq!(cb.intersection_size(&ca), common.len());
        assert_eq!(ca.union_size(&cb), a.len() + b.len() - common.len());
        assert_eq!(ca.intersect(&cb).to_relation(), common);
    }

    #[test]
    fn sparse_value_weights_match_hasse_diagram() {
        let universe: Vec<ValueId> = (0..180).map(v).collect();
        let rel = Relation::from_pairs([(v(2), v(100)), (v(100), v(0)), (v(100), v(3))]).unwrap();
        let c = CompiledRelation::compile_with_universe(&rel, &universe);
        assert!(c.is_sparse());
        let hasse = HasseDiagram::of(&rel);
        let weights = c.value_weights();
        for (i, &value) in c.universe().iter().enumerate() {
            let expected = if rel.values().contains(&value) {
                hasse.weight(value)
            } else {
                1.0
            };
            assert!((weights[i] - expected).abs() < 1e-15, "weight of {value}");
        }
    }

    #[test]
    fn compiled_preference_compare_matches_preference() {
        let mut p = Preference::new(3);
        p.prefer(a(0), v(2), v(1));
        p.prefer(a(0), v(1), v(3));
        p.prefer(a(1), v(0), v(1));
        p.prefer(a(2), v(1), v(2));
        p.prefer(a(2), v(1), v(3));
        p.prefer(a(2), v(1), v(0));
        let c = p.compile();
        assert_eq!(c.arity(), 3);
        assert_eq!(c.total_pairs(), p.total_pairs());
        let objects = [
            obj(1, &[1, 0, 0]),
            obj(2, &[2, 0, 1]),
            obj(3, &[2, 2, 1]),
            obj(4, &[3, 1, 3]),
            obj(5, &[9, 9, 9]),
        ];
        for x in &objects {
            for y in &objects {
                assert_eq!(c.compare(x, y), p.compare(x, y), "{} vs {}", x.id(), y.id());
            }
        }
        assert!(c.dominates(&objects[1], &objects[0]));
    }

    #[test]
    fn predecessors_are_the_transposed_closure() {
        // One-word dense, two-word dense and sparse rows.
        let chain = Relation::from_pairs([(v(0), v(1)), (v(1), v(2)), (v(5), v(2))]).unwrap();
        let wide = Relation::from_pairs((0..69).map(|i| (v(i), v(i + 1)))).unwrap();
        let universe: Vec<ValueId> = (0..300).map(v).collect();
        let star = Relation::from_pairs([(v(7), v(250)), (v(7), v(3)), (v(299), v(0))]).unwrap();
        for c in [
            CompiledRelation::compile(&chain),
            CompiledRelation::compile(&wide),
            CompiledRelation::compile_with_universe(&star, &universe),
        ] {
            for iy in 0..c.num_values() {
                let column = c.predecessors(iy);
                for ix in 0..c.num_values() {
                    assert_eq!(
                        (column[ix / 64] >> (ix % 64)) & 1 == 1,
                        c.prefers(c.universe()[ix], c.universe()[iy]),
                        "({ix}, {iy})"
                    );
                }
            }
        }
    }

    #[test]
    fn transpose_is_built_on_first_use_only() {
        let mut p = Preference::new(1);
        p.prefer(a(0), v(0), v(1));
        let c = p.compile();
        let before = c.approx_bytes();
        assert!(c.dominates(&obj(0, &[0]), &obj(1, &[1])));
        assert_eq!(
            c.approx_bytes(),
            before,
            "the pairwise form needs no transpose"
        );
        let rel = c.relation(a(0));
        assert_eq!(rel.predecessors(1), [1]);
        assert!(c.approx_bytes() > before);
        assert_eq!(
            c.closure_bytes(),
            before,
            "the closure is what compiling fixed"
        );
        // An intersection starts without one again.
        assert_eq!(
            rel.intersect(rel).approx_bytes(),
            before - std::mem::size_of_val(&c)
        );
    }

    #[test]
    fn projection_restricts_attributes() {
        let mut p = Preference::new(2);
        p.prefer(a(0), v(0), v(1));
        p.prefer(a(1), v(1), v(0));
        let c = p.compile().project(1);
        assert_eq!(c.arity(), 1);
        let x = obj(0, &[0, 0]);
        let y = obj(1, &[1, 1]);
        assert_eq!(c.compare(&x, &y), Dominance::Dominates);
    }

    #[test]
    fn empty_preference_is_empty_and_identical_everywhere() {
        let c = Preference::new(2).compile();
        assert!(c.is_empty());
        let x = obj(0, &[0, 1]);
        let y = obj(1, &[2, 3]);
        assert_eq!(c.compare(&x, &y), Dominance::Incomparable);
        assert_eq!(c.compare(&x, &x), Dominance::Identical);
    }
}
