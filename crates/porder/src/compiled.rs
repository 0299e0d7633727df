//! Bitset-compiled partial orders: the immutable, cache-friendly form the
//! monitoring hot path runs on.
//!
//! [`Relation`] is the *build-time* representation: hash maps support
//! incremental transitive-closure insertion while preferences are collected.
//! Once a monitor is constructed, its preferences never change again, yet
//! every arriving object pays `prefers(x, y)` many times over. Compiling a
//! relation interns its values to dense indices and stores the transitive
//! closure as a bit matrix — one fixed-width bit-row per value — so that
//!
//! * `prefers(x, y)` is two array loads plus one shift-and-mask,
//! * intersection (the common preference relation of Def. 4.1) is a
//!   bitwise AND over the rows, and
//! * the similarity measures of Sec. 5 reduce to AND + popcount.
//!
//! [`CompiledPreference`] bundles one [`CompiledRelation`] per attribute and
//! carries the object-dominance test of Def. 3.2 in two forms:
//!
//! * **Pairwise** — [`CompiledPreference::compare`] /
//!   [`CompiledPreference::dominates`] take two objects and resolve both
//!   sides' values on every call.
//! * **Prepared** — every scan of the monitoring hot path compares *one*
//!   fixed object against all members of one frontier, so
//!   [`CompiledPreference::prepare`] resolves the fixed side once into a
//!   [`Prepared`]: per attribute its value *code* and one borrowed row of
//!   the relation's **class matrix**, which says in two bits how the fixed
//!   value compares with each other value — equal, beats, beaten, unrelated.
//!   The other side is stored by the caller as codes
//!   ([`CompiledPreference::codes`]), and [`Prepared::compare`] is then one
//!   two-bit lookup per attribute, OR-ed into the verdict without a branch:
//!   no interning load and no row lookup for the other side.
//!
//! A value's **code** under a relation ([`CompiledRelation::code`]) is its
//! dense index when the relation's universe holds it, and otherwise a number
//! at or above the universe size chosen so that two codes are equal exactly
//! when the raw values are: "same value" is one integer compare and "outside
//! the universe, hence unrelated" is a lookup past the universe. Codes are
//! only meaningful under the relation that issued them — whoever swaps a
//! relation re-encodes.
//!
//! The class matrix holds what the closure and its transpose hold together
//! (two bits per ordered pair, always dense) and is built lazily by the
//! first `prepare`: relations that only ever meet the clustering's AND /
//! popcount path, a compaction universe's pairwise tests or an engine-level
//! interner never pay for it.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use pm_model::{AttrId, Object, ValueId};

use crate::preference::{Dominance, Preference};
use crate::relation::Relation;

/// Sentinel for "value not in this relation's universe".
const NONE: u32 = u32::MAX;

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
    /// The class matrix of the prepared kernel (see [`Self::classes`]),
    /// built by the first [`CompiledPreference::prepare`] that needs it
    /// (see the module docs for who never does).
    classes: OnceLock<Box<[u64]>>,
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
    /// Compiles `relation` over exactly the values it mentions.
    pub fn compile(relation: &Relation) -> Self {
        let mut universe: Vec<ValueId> = relation.values().into_iter().collect();
        universe.sort_unstable();
        Self::compile_with_universe(relation, &universe)
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
        let dense = |v: ValueId| -> u32 {
            match index_of.get(v.index()).copied() {
                Some(slot) if slot != NONE => slot,
                _ => panic!("universe does not cover value {v} of the relation"),
            }
        };
        let mut pairs: Vec<(u32, u32)> = relation
            .pairs()
            .map(|(x, y)| (dense(x), dense(y)))
            .collect();
        let len = pairs.len();
        pairs.sort_unstable();
        // Group the (already sorted) tuples into per-source bit-rows.
        let mut sparse_rows: Vec<(u32, Box<[u64]>)> = Vec::new();
        let mut i = 0;
        while i < pairs.len() {
            let ix = pairs[i].0;
            let mut row = vec![0u64; words_per_row];
            while i < pairs.len() && pairs[i].0 == ix {
                let iy = pairs[i].1 as usize;
                row[iy / 64] |= 1u64 << (iy % 64);
                i += 1;
            }
            sparse_rows.push((ix, row.into_boxed_slice()));
        }
        Self::with_rows(
            index_of.into(),
            universe.to_vec().into(),
            words_per_row,
            sparse_rows,
            len,
        )
    }

    /// Assembles a relation from its non-empty rows, picking the dense or
    /// sparse representation: sparse only pays off when the universe is
    /// large ([`SPARSE_MIN_UNIVERSE`]) and most rows are empty
    /// ([`SPARSE_ROW_DIV`]).
    fn with_rows(
        index_of: Arc<[u32]>,
        universe: Arc<[ValueId]>,
        words_per_row: usize,
        sparse_rows: Vec<(u32, Box<[u64]>)>,
        len: usize,
    ) -> Self {
        debug_assert!(sparse_rows.windows(2).all(|w| w[0].0 < w[1].0));
        let n = universe.len();
        let rows = if n >= SPARSE_MIN_UNIVERSE && sparse_rows.len() * SPARSE_ROW_DIV <= n {
            Rows::Sparse {
                rows: sparse_rows,
                zeros: vec![0u64; words_per_row].into_boxed_slice(),
            }
        } else {
            let mut bits = vec![0u64; n * words_per_row];
            for (ix, row) in &sparse_rows {
                let start = *ix as usize * words_per_row;
                bits[start..start + words_per_row].copy_from_slice(row);
            }
            Rows::Dense(bits)
        };
        Self {
            index_of,
            universe,
            words_per_row,
            rows,
            classes: OnceLock::new(),
            len,
        }
    }

    /// Whether this relation currently uses the sparse row representation.
    pub fn is_sparse(&self) -> bool {
        matches!(self.rows, Rows::Sparse { .. })
    }

    /// Approximate heap bytes of this compiled relation (interning tables
    /// plus row storage, and the class matrix once a
    /// [`CompiledPreference::prepare`] has built it). The `Arc`-shared
    /// tables are counted here even though relations compiled over one
    /// shared universe share them, so sums over many relations are an upper
    /// bound.
    pub fn approx_bytes(&self) -> usize {
        let tables = self.index_of.len() * 4 + self.universe.len() * 4;
        let rows = match &self.rows {
            Rows::Dense(bits) => bits.len() * 8,
            Rows::Sparse { rows, zeros } => (rows.len() + 1) * zeros.len() * 8 + rows.len() * 16,
        };
        let classes = self.classes.get().map_or(0, |classes| classes.len() * 8);
        std::mem::size_of::<Self>() + tables + rows + classes
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

    /// The value code of `v` under this relation: its dense index when the
    /// universe holds it, else a number at or above [`Self::num_values`].
    /// Two codes are equal exactly when the values are (see the module
    /// docs).
    #[inline]
    pub fn code(&self, v: ValueId) -> u32 {
        match self.dense_index(v) {
            Some(idx) => idx as u32,
            None => self.outside_code(v.raw()),
        }
    }

    /// The code of a raw value outside the universe. At or above the
    /// universe size `n` a raw value is its own code. That leaves the
    /// outside values below `n` to place, and the codes that universe
    /// members at or above `n` would have claimed to place them on — equally
    /// many, because the universe fills `n` slots in total — so the two are
    /// paired off by rank.
    #[cold]
    fn outside_code(&self, raw: u32) -> u32 {
        let n = self.universe.len();
        if raw as usize >= n {
            return raw;
        }
        let members_below = self.universe.partition_point(|u| u.raw() < raw);
        let rank = raw as usize - members_below;
        let members_below_n = self.universe.partition_point(|u| u.index() < n);
        self.universe[members_below_n + rank].raw()
    }

    /// The class matrix: for every ordered pair of universe values two bits
    /// saying how the first compares with the second — [`EQUAL`],
    /// [`BEATS`], [`BEATEN`] or [`UNRELATED`] — 32 pairs to a word,
    /// [`Self::class_words`] words to a row. Padding past the universe reads
    /// [`UNRELATED`], like every value outside it.
    fn classes(&self) -> &[u64] {
        self.classes.get_or_init(|| {
            let (n, words) = (self.universe.len(), self.class_words());
            let mut classes = vec![u64::MAX; n * words];
            for ix in 0..n {
                let row = &mut classes[ix * words..(ix + 1) * words];
                let mut set = |iy: usize, class: u64| {
                    let shift = (iy % CLASSES_PER_WORD) * 2;
                    let word = &mut row[iy / CLASSES_PER_WORD];
                    *word = (*word & !(UNRELATED << shift)) | (class << shift);
                };
                set(ix, EQUAL);
                for iy in 0..n {
                    if self.bit(ix, iy) {
                        set(iy, BEATS);
                    } else if self.bit(iy, ix) {
                        set(iy, BEATEN);
                    }
                }
            }
            classes.into_boxed_slice()
        })
    }

    /// Width of a class-matrix row in 64-bit words.
    fn class_words(&self) -> usize {
        self.universe.len().div_ceil(CLASSES_PER_WORD)
    }

    /// `value` resolved for the fixed side of a scan, building the class
    /// matrix on first use.
    fn side(&self, value: ValueId) -> Side<'_> {
        let code = self.code(value);
        let classes = if (code as usize) < self.universe.len() {
            let words = self.class_words();
            &self.classes()[code as usize * words..(code as usize + 1) * words]
        } else {
            // Outside the universe: unrelated to every other value.
            &[]
        };
        Side { code, classes }
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
    /// the class matrix is discarded, to be rebuilt by the next
    /// [`CompiledPreference::prepare`].
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
        self.classes = OnceLock::new();
    }

    /// Iterates over all preference tuples of the closure.
    pub fn pairs(&self) -> impl Iterator<Item = (ValueId, ValueId)> + '_ {
        (0..self.universe.len()).flat_map(move |ix| {
            self.iter_row(ix)
                .map(move |iy| (self.universe[ix], self.universe[iy]))
        })
    }

    /// Iterates over the set bit positions of row `ix`.
    fn iter_row(&self, ix: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(ix).iter().enumerate().flat_map(|(w, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(w * 64 + bit)
            })
        })
    }

    /// Decompiles back to the hash-map [`Relation`] (for interop with the
    /// build-time APIs; the pair set is already transitively closed).
    pub fn to_relation(&self) -> Relation {
        Relation::from_closed_pairs(self.pairs().collect())
    }

    /// The Hasse value weights of Sec. 5 (Eq. 4), indexed by dense index:
    /// `1 / (1 + min distance from a maximal value over the Hasse diagram)`.
    ///
    /// Values of the universe not mentioned by any tuple get weight 1,
    /// matching [`crate::HasseDiagram::weight`]'s convention that an
    /// unconstrained value is trivially maximal.
    pub fn value_weights(&self) -> Vec<f64> {
        let n = self.universe.len();
        // Successor lists and predecessor counts from the bit matrix.
        let succ: Vec<Vec<usize>> = (0..n).map(|ix| self.iter_row(ix).collect()).collect();
        let mut pred_count = vec![0usize; n];
        for ys in &succ {
            for &y in ys {
                pred_count[y] += 1;
            }
        }
        // Cover (Hasse) edges: (x, y) with no z between them. The inner test
        // is a single bit lookup per candidate intermediate.
        let mut cover: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (x, ys) in succ.iter().enumerate() {
            for &y in ys {
                let is_cover = !ys.iter().any(|&z| z != y && self.bit(z, y));
                if is_cover {
                    cover[x].push(y);
                }
            }
        }
        // Multi-source BFS from the maximal (predecessor-free, mentioned)
        // values, exactly as HasseDiagram::of does on the hash-map form.
        let mut dist = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        for x in 0..n {
            let mentioned = !succ[x].is_empty() || pred_count[x] > 0;
            if mentioned && pred_count[x] == 0 {
                dist[x] = 0;
                queue.push_back(x);
            }
        }
        while let Some(x) = queue.pop_front() {
            for &y in &cover[x] {
                if dist[y] == u32::MAX {
                    dist[y] = dist[x] + 1;
                    queue.push_back(y);
                }
            }
        }
        dist.into_iter()
            .map(|d| {
                if d == u32::MAX {
                    1.0
                } else {
                    1.0 / (f64::from(d) + 1.0)
                }
            })
            .collect()
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

    /// Resolves `object` once for a scan against many others: per attribute
    /// its value code and the class-matrix row [`Prepared::compare`] looks
    /// the other side's code up in. Builds the relations' class matrices on
    /// first use. Only the first `arity()` attributes are considered.
    pub fn prepare(&self, object: &Object) -> Prepared<'_> {
        let values = &object.values()[..self.relations.len()];
        let mut sides = self
            .relations
            .iter()
            .zip(values)
            .map(|(rel, &value)| rel.side(value));
        Prepared {
            sides: if values.len() <= INLINE_SIDES {
                let mut inline = [Side::EMPTY; INLINE_SIDES];
                for (slot, side) in inline.iter_mut().zip(&mut sides) {
                    *slot = side;
                }
                Sides::Inline {
                    len: values.len(),
                    sides: inline,
                }
            } else {
                Sides::Heap(sides.collect())
            },
        }
    }

    /// The codes of `object`'s first `arity()` values under this
    /// preference's relations — the form the non-fixed side of
    /// [`Prepared::compare`] is stored in.
    #[inline]
    pub fn codes<'a>(&'a self, object: &'a Object) -> impl Iterator<Item = u32> + 'a {
        self.relations
            .iter()
            .zip(object.values())
            .map(|(rel, &value)| rel.code(value))
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

    /// Restricts the compiled preference to its first `k` attributes.
    pub fn project(&self, k: usize) -> CompiledPreference {
        CompiledPreference {
            relations: self.relations[..k.min(self.relations.len())].to_vec(),
        }
    }
}

/// Attributes a [`Prepared`] holds without a heap allocation.
const INLINE_SIDES: usize = 8;

/// Value pairs per word of the class matrix.
const CLASSES_PER_WORD: usize = 32;

/// How a fixed value compares with another one, in two bits chosen so that
/// OR-ing the classes of all attributes *is* the object verdict: equal
/// attributes do not count, one direction survives alone, both directions —
/// or a single unrelated pair — make the objects incomparable.
const EQUAL: u64 = 0;
const BEATS: u64 = 1;
const BEATEN: u64 = 2;
const UNRELATED: u64 = 3;

/// The object verdict by OR-ed class.
const VERDICTS: [Dominance; 4] = [
    Dominance::Identical,
    Dominance::Dominates,
    Dominance::DominatedBy,
    Dominance::Incomparable,
];

/// One attribute of a [`Prepared`] object.
#[derive(Debug, Clone, Copy)]
struct Side<'a> {
    /// The fixed object's value code.
    code: u32,
    /// The fixed value's row of the class matrix; empty when the value
    /// lies outside the universe.
    classes: &'a [u64],
}

impl Side<'_> {
    const EMPTY: Self = Side {
        code: 0,
        classes: &[],
    };
}

#[derive(Debug, Clone)]
enum Sides<'a> {
    Inline {
        len: usize,
        sides: [Side<'a>; INLINE_SIDES],
    },
    Heap(Vec<Side<'a>>),
}

/// One object resolved against one [`CompiledPreference`] for a scan
/// ([`CompiledPreference::prepare`]). Holds up to eight attributes inline,
/// so preparing allocates nothing for the usual schemas.
#[derive(Debug, Clone)]
pub struct Prepared<'a> {
    sides: Sides<'a>,
}

impl<'a> Prepared<'a> {
    #[inline]
    fn sides(&self) -> &[Side<'a>] {
        match &self.sides {
            Sides::Inline { len, sides } => &sides[..*len],
            Sides::Heap(sides) => sides,
        }
    }

    /// The prepared object's own codes, in attribute order.
    #[inline]
    pub fn codes(&self) -> impl Iterator<Item = u32> + '_ {
        self.sides().iter().map(|side| side.code)
    }

    /// Compares the prepared object with another one given by its `codes`
    /// under the same preference ([`CompiledPreference::codes`]): the
    /// verdict of [`CompiledPreference::compare`]`(prepared, other)`.
    ///
    /// # Panics
    /// Panics (debug builds) unless `codes` holds one code per attribute.
    #[inline]
    pub fn compare(&self, codes: &[u32]) -> Dominance {
        let sides = self.sides();
        debug_assert_eq!(codes.len(), sides.len(), "one code per attribute");
        let mut verdict = EQUAL;
        for (side, &other) in sides.iter().zip(codes) {
            let (word, shift) = (
                other as usize / CLASSES_PER_WORD,
                (other as usize % CLASSES_PER_WORD) * 2,
            );
            // Codes past the row are outside the universe.
            let class = match side.classes.get(word) {
                Some(classes) => (classes >> shift) & UNRELATED,
                None => UNRELATED,
            };
            // The code test only matters for a fixed value outside the
            // universe, whose row is empty.
            verdict |= if other == side.code { EQUAL } else { class };
        }
        VERDICTS[verdict as usize]
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
        let (va, vb) = (a.values(), b.values());
        let mut universe: Vec<ValueId> = va.union(&vb).copied().collect();
        universe.sort_unstable();
        let ca = CompiledRelation::compile_with_universe(&a, &universe);
        let cb = CompiledRelation::compile_with_universe(&b, &universe);
        assert_eq!(ca.intersection_size(&cb), a.intersection_size(&b));
        assert_eq!(ca.union_size(&cb), a.union_size(&b));
        assert_eq!(ca.intersect(&cb).to_relation(), a.intersection(&b));
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
        assert_eq!(ca.intersection_size(&cb), a.intersection_size(&b));
        assert_eq!(cb.intersection_size(&ca), a.intersection_size(&b));
        assert_eq!(ca.union_size(&cb), a.union_size(&b));
        assert_eq!(ca.intersect(&cb).to_relation(), a.intersection(&b));
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
    fn prepared_compare_matches_pointwise_compare() {
        let mut p = Preference::new(1);
        p.prefer(a(0), v(0), v(1));
        p.prefer(a(0), v(1), v(2));
        let c = p.compile();
        let best = obj(0, &[0]);
        let others = [obj(1, &[1]), obj(2, &[2]), obj(3, &[0]), obj(4, &[7])];
        let prepared = c.prepare(&best);
        let verdicts: Vec<Dominance> = others
            .iter()
            .map(|other| prepared.compare(&c.codes(other).collect::<Vec<u32>>()))
            .collect();
        assert_eq!(
            verdicts,
            vec![
                Dominance::Dominates,
                Dominance::Dominates,
                Dominance::Identical,
                Dominance::Incomparable,
            ]
        );
        assert_eq!(prepared.codes().collect::<Vec<u32>>(), vec![0]);
    }

    #[test]
    fn codes_are_equal_exactly_when_the_values_are() {
        // A universe with holes below its size and members above it, so
        // outside values below the size must be moved out of the way.
        let rel = Relation::from_pairs([(v(1), v(4)), (v(4), v(9)), (v(1), v(40))]).unwrap();
        let c = CompiledRelation::compile(&rel);
        let n = c.num_values() as u32;
        assert_eq!(n, 4);
        let mut seen = std::collections::HashMap::new();
        for raw in (0..64).chain([u32::MAX - 1, u32::MAX, 1 << 31, (1 << 31) + 9]) {
            let code = c.code(v(raw));
            assert_eq!(
                code < n,
                c.dense_index(v(raw)).is_some(),
                "value {raw}: codes below the universe size are dense indices"
            );
            if let Some(other) = seen.insert(code, raw) {
                panic!("values {other} and {raw} share code {code}");
            }
        }
    }

    #[test]
    fn class_matrix_is_built_by_prepare_only() {
        let mut p = Preference::new(1);
        p.prefer(a(0), v(0), v(1));
        let c = p.compile();
        let before = c.approx_bytes();
        assert!(c.dominates(&obj(0, &[0]), &obj(1, &[1])));
        assert_eq!(
            c.approx_bytes(),
            before,
            "the pairwise form needs no class matrix"
        );
        let _ = c.prepare(&obj(0, &[0]));
        assert!(c.approx_bytes() > before);
        // An intersection starts without one again.
        let rel = c.relation(a(0));
        assert_eq!(
            rel.intersect(rel).approx_bytes(),
            before - std::mem::size_of_val(&c)
        );
    }

    #[test]
    fn prepare_beyond_the_inline_arity_falls_back_to_the_heap() {
        let arity = INLINE_SIDES + 3;
        let mut p = Preference::new(arity);
        for attr in 0..arity {
            p.prefer(a(attr as u32), v(0), v(1));
        }
        let c = p.compile();
        let zeros = obj(0, &vec![0; arity]);
        let ones = obj(1, &vec![1; arity]);
        let codes: Vec<u32> = c.codes(&ones).collect();
        assert_eq!(codes.len(), arity);
        assert_eq!(c.prepare(&zeros).compare(&codes), Dominance::Dominates);
        let codes: Vec<u32> = c.codes(&zeros).collect();
        assert_eq!(c.prepare(&ones).compare(&codes), Dominance::DominatedBy);
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
