//! Strict partial orders over one attribute's value domain.
//!
//! A [`Relation`] materialises the *transitive closure* of a preference
//! relation `≻ᵈ_c` (Def. 3.1): the set of preference tuples `(x, y)`
//! meaning "x is preferred to y". The closure is held as one bit row per
//! mentioned value, so `prefers(x, y)` is a bit test, inserting a tuple ORs
//! rows, and intersecting relations (common preference relations,
//! Def. 4.1) keeps the bits both hold. This is the *mutable, build-time*
//! representation; hot paths compile it to a
//! [`CompiledRelation`](crate::CompiledRelation), which adds a lookup table
//! indexed by raw value id and the transpose a frontier lookup reads.

use std::collections::HashMap;
use std::fmt;

use pm_model::ValueId;

/// Errors raised when a pair cannot be added to a strict partial order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelationError {
    /// `(x, x)` pairs are forbidden (irreflexivity).
    Reflexive(ValueId),
    /// Adding the pair would make the relation cyclic / symmetric: the
    /// reverse preference is already implied.
    AsymmetryViolation(ValueId, ValueId),
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::Reflexive(v) => {
                write!(f, "reflexive preference tuple ({v}, {v}) is not allowed")
            }
            RelationError::AsymmetryViolation(x, y) => write!(
                f,
                "adding ({x}, {y}) would violate asymmetry: ({y}, {x}) already holds"
            ),
        }
    }
}

impl std::error::Error for RelationError {}

/// A strict partial order over [`ValueId`]s, stored as its transitive closure.
///
/// The closure is a bit matrix over the relation's own value table: the
/// values some tuple mentions, ascending, where `values[i]` owns row `i`
/// and bit `i` of every row. Bit `j` of row `i` is set iff
/// `values[i] ≻ values[j]`. This is the row layout of
/// [`CompiledRelation`](crate::CompiledRelation), so compiling copies rows.
///
/// The form is canonical — the table holds exactly the mentioned values,
/// rows are `⌈n/64⌉` words wide and the padding past `n` is zero — so
/// equality is a plain comparison of the vectors and [`Self::pairs`] yields
/// the tuples in ascending `(x, y)` order without sorting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Relation {
    /// The values some tuple mentions, ascending by raw id.
    values: Vec<ValueId>,
    /// Width of a row in 64-bit words: `⌈values.len() / 64⌉`.
    words: usize,
    /// `values.len() * words` words, row-major.
    rows: Vec<u64>,
    /// Number of preference tuples (set bits).
    len: usize,
}

impl Relation {
    /// Creates an empty relation (every pair of values incomparable).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a relation from explicit preference tuples, computing their
    /// transitive closure.
    ///
    /// Returns an error if the tuples are reflexive or jointly cyclic: the
    /// error [`Self::insert`] returns on the first tuple that breaks the
    /// order when the tuples are inserted one by one.
    pub fn from_pairs<I>(pairs: I) -> Result<Self, RelationError>
    where
        I: IntoIterator<Item = (ValueId, ValueId)>,
    {
        let pairs: Vec<(ValueId, ValueId)> = pairs.into_iter().collect();
        let mut values: Vec<ValueId> = pairs.iter().flat_map(|&(x, y)| [x, y]).collect();
        values.sort_unstable();
        values.dedup();
        let (n, words) = (values.len(), values.len().div_ceil(64));
        let mut rel = Self {
            rows: vec![0; n * words],
            values,
            words,
            len: 0,
        };
        let at = |rel: &Self, v: ValueId| rel.index(v).expect("laid out");
        // The edges as rows, closed by Warshall's algorithm: whoever
        // prefers k also prefers everything k prefers.
        for &(x, y) in &pairs {
            let (ix, iy) = (at(&rel, x), at(&rel, y));
            rel.rows[ix * words + iy / 64] |= 1 << (iy % 64);
        }
        for k in 0..n {
            let (k_word, k_mask) = (k / 64, 1u64 << (k % 64));
            for i in 0..n {
                if rel.rows[i * words + k_word] & k_mask != 0 {
                    for w in 0..words {
                        rel.rows[i * words + w] |= rel.rows[k * words + w];
                    }
                }
            }
        }
        if (0..n).all(|i| !rel.bit(i, i)) {
            rel.len = rel.rows.iter().map(|w| w.count_ones() as usize).sum();
            return Ok(rel);
        }
        // A reflexive pair or a cycle: insert one pair at a time to find the
        // first one that breaks the order.
        rel.rows.fill(0);
        for (x, y) in pairs {
            let (ix, iy) = (at(&rel, x), at(&rel, y));
            rel.insert_at(x, y, ix, iy)?;
        }
        unreachable!("a cyclic edge set fails to insert")
    }

    /// Builds a relation from a sorted, duplicate-free value table and
    /// transitively closed rows over it (`words` words each), dropping the
    /// values no tuple mentions. No closure computation is performed.
    ///
    /// This is an internal fast path; debug builds verify the result.
    pub(crate) fn from_closed_rows(values: Vec<ValueId>, words: usize, rows: Vec<u64>) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]), "values sorted");
        debug_assert_eq!(rows.len(), values.len() * words);
        if values.is_empty() {
            return Self::new();
        }
        // A value is mentioned when its row or its column holds a bit.
        let mut mentioned = vec![0u64; words];
        for row in rows.chunks_exact(words) {
            for (m, word) in mentioned.iter_mut().zip(row) {
                *m |= word;
            }
        }
        for (i, row) in rows.chunks_exact(words).enumerate() {
            if row.iter().any(|&word| word != 0) {
                mentioned[i / 64] |= 1 << (i % 64);
            }
        }
        let len = rows.iter().map(|w| w.count_ones() as usize).sum();
        let kept: usize = mentioned.iter().map(|w| w.count_ones() as usize).sum();
        if kept == values.len() {
            let rel = Self {
                values,
                words,
                rows,
                len,
            };
            debug_assert!(rel.validate().is_ok());
            return rel;
        }
        // Renumber the mentioned values densely and move their bits over.
        let mut rank = vec![usize::MAX; values.len()];
        let mut kept_values = Vec::with_capacity(kept);
        for (i, &v) in values.iter().enumerate() {
            if (mentioned[i / 64] >> (i % 64)) & 1 == 1 {
                rank[i] = kept_values.len();
                kept_values.push(v);
            }
        }
        let kept_words = kept.div_ceil(64);
        let mut kept_rows = vec![0u64; kept * kept_words];
        for (i, row) in rows.chunks_exact(words).enumerate() {
            for j in set_bits(row) {
                let (ri, rj) = (rank[i], rank[j]);
                kept_rows[ri * kept_words + rj / 64] |= 1 << (rj % 64);
            }
        }
        let rel = Self {
            values: kept_values,
            words: kept_words,
            rows: kept_rows,
            len,
        };
        debug_assert!(rel.validate().is_ok());
        rel
    }

    /// Builds a relation by 2-D dominance over per-value statistics.
    ///
    /// This is the derivation rule the paper uses to simulate user
    /// preferences from rating data (Sec. 8.1): value `a` is preferred to
    /// value `b` iff `(Ra > Rb ∧ Ma ≥ Mb) ∨ (Ra ≥ Rb ∧ Ma > Mb)`, i.e. the
    /// statistics vector of `a` Pareto-dominates that of `b`. Such a
    /// dominance relation is automatically a strict partial order.
    pub fn from_dominance_stats(stats: &HashMap<ValueId, (f64, f64)>) -> Self {
        let mut entries: Vec<(ValueId, (f64, f64))> = stats.iter().map(|(&v, &s)| (v, s)).collect();
        entries.sort_unstable_by_key(|&(v, _)| v);
        let words = entries.len().div_ceil(64);
        let mut rows = vec![0u64; entries.len() * words];
        for (i, &(_, (ra, ma))) in entries.iter().enumerate() {
            for (j, &(_, (rb, mb))) in entries.iter().enumerate() {
                if (ra > rb && ma >= mb) || (ra >= rb && ma > mb) {
                    rows[i * words + j / 64] |= 1 << (j % 64);
                }
            }
        }
        // 2-D dominance is transitive, so the rows are already closed.
        Self::from_closed_rows(entries.into_iter().map(|(v, _)| v).collect(), words, rows)
    }

    /// The position of `v` in the value table.
    #[inline]
    fn index(&self, v: ValueId) -> Option<usize> {
        self.values.binary_search(&v).ok()
    }

    /// Whether `values[i] ≻ values[j]`.
    #[inline]
    fn bit(&self, i: usize, j: usize) -> bool {
        (self.rows[i * self.words + j / 64] >> (j % 64)) & 1 == 1
    }

    /// Row `i` of the closure: bit `j` set iff `values[i] ≻ values[j]`,
    /// indexed by [`Self::values`].
    pub(crate) fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.words..(i + 1) * self.words]
    }

    /// Whether `x ≻ y` holds.
    #[inline]
    pub fn prefers(&self, x: ValueId, y: ValueId) -> bool {
        match (self.index(x), self.index(y)) {
            (Some(ix), Some(iy)) => self.bit(ix, iy),
            _ => false,
        }
    }

    /// Whether the preference tuple `(x, y)` or its reverse is present.
    #[inline]
    pub fn comparable(&self, x: ValueId, y: ValueId) -> bool {
        self.prefers(x, y) || self.prefers(y, x)
    }

    /// Number of preference tuples in the transitive closure (`|≻ᵈ|`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation holds no preference tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate heap bytes of the bit-row closure: 4 bytes per value of
    /// the table plus one `⌈n/64⌉`-word row per value, `n` values in all.
    pub fn approx_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<ValueId>()
            + self.rows.len() * std::mem::size_of::<u64>()
    }

    /// Iterates over all preference tuples of the closure, ascending by
    /// `(x, y)`.
    pub fn pairs(&self) -> impl Iterator<Item = (ValueId, ValueId)> + '_ {
        (0..self.values.len())
            .flat_map(move |i| set_bits(self.row(i)).map(move |j| (self.values[i], self.values[j])))
    }

    /// The values mentioned by at least one preference tuple, ascending:
    /// the relation's value table.
    pub fn values(&self) -> &[ValueId] {
        &self.values
    }

    /// All values preferred *by* `x` (its successors in the closure),
    /// ascending.
    pub fn successors(&self, x: ValueId) -> impl Iterator<Item = ValueId> + '_ {
        self.index(x)
            .into_iter()
            .flat_map(move |ix| set_bits(self.row(ix)).map(move |j| self.values[j]))
    }

    /// All values preferred *over* `y` (its predecessors in the closure),
    /// ascending.
    pub fn predecessors(&self, y: ValueId) -> impl Iterator<Item = ValueId> + '_ {
        self.index(y).into_iter().flat_map(move |iy| {
            (0..self.values.len())
                .filter(move |&i| self.bit(i, iy))
                .map(move |i| self.values[i])
        })
    }

    /// Inserts the preference tuple `x ≻ y`, maintaining the transitive
    /// closure. Returns `Ok(true)` if any new tuple was added, `Ok(false)`
    /// if the tuple was already implied.
    pub fn insert(&mut self, x: ValueId, y: ValueId) -> Result<bool, RelationError> {
        if x == y {
            return Err(RelationError::Reflexive(x));
        }
        if self.prefers(y, x) {
            return Err(RelationError::AsymmetryViolation(x, y));
        }
        if self.prefers(x, y) {
            return Ok(false);
        }
        self.intern(x);
        self.intern(y);
        let (ix, iy) = (self.index(x), self.index(y));
        self.insert_at(x, y, ix.expect("interned"), iy.expect("interned"))
    }

    /// [`Self::insert`] of `x ≻ y` on table positions `ix` and `iy`.
    fn insert_at(
        &mut self,
        x: ValueId,
        y: ValueId,
        ix: usize,
        iy: usize,
    ) -> Result<bool, RelationError> {
        if ix == iy {
            return Err(RelationError::Reflexive(x));
        }
        if self.bit(iy, ix) {
            return Err(RelationError::AsymmetryViolation(x, y));
        }
        if self.bit(ix, iy) {
            return Ok(false);
        }
        // Everything at or above x now prefers everything at or below y:
        // every such row ORs in row y plus y itself. Row y is never one of
        // them (y ≻ x would have been an asymmetry violation), so it can be
        // read while the others are written.
        let words = self.words;
        let (x_word, x_mask) = (ix / 64, 1u64 << (ix % 64));
        for a in 0..self.values.len() {
            if a != ix && self.rows[a * words + x_word] & x_mask == 0 {
                continue;
            }
            for w in 0..words {
                let mut below = self.rows[iy * words + w];
                if w == iy / 64 {
                    below |= 1 << (iy % 64);
                }
                let word = &mut self.rows[a * words + w];
                self.len += (below & !*word).count_ones() as usize;
                *word |= below;
            }
        }
        Ok(true)
    }

    /// Adds `v` to the value table with an empty row and column, keeping
    /// the table sorted, and returns its position.
    fn intern(&mut self, v: ValueId) -> usize {
        let at = match self.values.binary_search(&v) {
            Ok(at) => return at,
            Err(at) => at,
        };
        self.values.insert(at, v);
        let words = self.values.len().div_ceil(64);
        if words != self.words {
            // One more word per row; the old rows keep their bits.
            let old = std::mem::take(&mut self.rows);
            self.rows.reserve(self.values.len() * words);
            for row in old.chunks_exact(self.words.max(1)) {
                self.rows.extend_from_slice(row);
                self.rows.push(0);
            }
            self.words = words;
        }
        for row in self.rows.chunks_exact_mut(words) {
            open_bit(row, at);
        }
        self.rows
            .splice(at * words..at * words, std::iter::repeat(0).take(words));
        at
    }

    /// Checks whether inserting `x ≻ y` would keep the relation a strict
    /// partial order, without modifying it.
    pub fn can_insert(&self, x: ValueId, y: ValueId) -> bool {
        x != y && !self.prefers(y, x)
    }

    /// The tuples `self` and `other` share, as rows over `self`'s value
    /// table.
    fn shared_rows(&self, other: &Relation) -> Vec<u64> {
        // Position in `other`'s table of each of `self`'s values (a merge
        // of the two sorted tables).
        let mut theirs = vec![None; self.values.len()];
        let (mut i, mut j) = (0, 0);
        while i < self.values.len() && j < other.values.len() {
            match self.values[i].cmp(&other.values[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    theirs[i] = Some(j);
                    i += 1;
                    j += 1;
                }
            }
        }
        let mut rows = vec![0u64; self.rows.len()];
        for (i, oi) in theirs.iter().enumerate() {
            let Some(oi) = *oi else { continue };
            for j in set_bits(self.row(i)) {
                if theirs[j].is_some_and(|oj| other.bit(oi, oj)) {
                    rows[i * self.words + j / 64] |= 1 << (j % 64);
                }
            }
        }
        rows
    }

    /// The common preference relation `≻ᵈ_U = ⋂ ≻ᵈ_c` (Def. 4.1).
    ///
    /// The intersection of strict partial orders is a strict partial order
    /// (Theorem 4.2), so no closure recomputation is needed.
    pub fn intersection(&self, other: &Relation) -> Relation {
        let (small, large) = if self.len <= other.len {
            (self, other)
        } else {
            (other, self)
        };
        let rows = small.shared_rows(large);
        Relation::from_closed_rows(small.values.clone(), small.words, rows)
    }

    /// Verifies irreflexivity, asymmetry and transitivity of the stored
    /// closure, and that its form is canonical (sorted table of mentioned
    /// values, zero padding, exact tuple count). Intended for tests and
    /// debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.values.len();
        if !self.values.windows(2).all(|w| w[0] < w[1]) {
            return Err("value table not strictly ascending".to_owned());
        }
        if self.words != n.div_ceil(64) || self.rows.len() != n * self.words {
            return Err(format!("{n} values laid out in {} words", self.rows.len()));
        }
        let bits: usize = self.rows.iter().map(|w| w.count_ones() as usize).sum();
        if bits != self.len {
            return Err(format!("len {} but {bits} tuples", self.len));
        }
        for i in 0..n {
            if set_bits(self.row(i)).any(|j| j >= n) {
                return Err(format!("row {i} sets a bit past the table"));
            }
            if set_bits(self.row(i)).next().is_none() && !(0..n).any(|a| self.bit(a, i)) {
                return Err(format!("value {} is in no tuple", self.values[i]));
            }
        }
        for (x, y) in self.pairs() {
            if x == y {
                return Err(format!("reflexive pair ({x}, {y})"));
            }
            if self.prefers(y, x) {
                return Err(format!("asymmetry violated for ({x}, {y})"));
            }
            for z in self.successors(y) {
                if !self.prefers(x, z) {
                    return Err(format!("transitivity violated: ({x},{y}),({y},{z})"));
                }
            }
        }
        Ok(())
    }
}

/// The set bit positions of a bit row, ascending.
pub(crate) fn set_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
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

/// Opens a zero bit at position `at` of a bit row: the bits at or above it
/// move up by one. The row's top bit must be clear.
fn open_bit(row: &mut [u64], at: usize) {
    let (word, bit) = (at / 64, at % 64);
    for w in (word + 1..row.len()).rev() {
        row[w] = (row[w] << 1) | (row[w - 1] >> 63);
    }
    let low = (1u64 << bit) - 1;
    row[word] = (row[word] & low) | ((row[word] & !low) << 1);
}

impl FromIterator<(ValueId, ValueId)> for Relation {
    /// Builds a relation from pairs, panicking on invalid input.
    ///
    /// Prefer [`Relation::from_pairs`] when the input is untrusted.
    fn from_iter<T: IntoIterator<Item = (ValueId, ValueId)>>(iter: T) -> Self {
        Relation::from_pairs(iter).expect("pairs must form a strict partial order")
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rendered: Vec<String> = self.pairs().map(|(x, y)| format!("({x}≻{y})")).collect();
        write!(f, "{{{}}}", rendered.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn v(i: u32) -> ValueId {
        ValueId::new(i)
    }

    #[test]
    fn insert_maintains_transitive_closure() {
        let mut r = Relation::new();
        assert!(r.insert(v(0), v(1)).unwrap());
        assert!(r.insert(v(1), v(2)).unwrap());
        assert!(r.prefers(v(0), v(2)), "closure must contain (0,2)");
        assert_eq!(r.len(), 3);
        r.validate().unwrap();
    }

    #[test]
    fn insert_rejects_reflexive_and_cyclic() {
        let mut r = Relation::new();
        assert_eq!(r.insert(v(3), v(3)), Err(RelationError::Reflexive(v(3))));
        r.insert(v(0), v(1)).unwrap();
        r.insert(v(1), v(2)).unwrap();
        assert_eq!(
            r.insert(v(2), v(0)),
            Err(RelationError::AsymmetryViolation(v(2), v(0)))
        );
        assert!(r.can_insert(v(0), v(5)));
        assert!(!r.can_insert(v(2), v(0)));
    }

    #[test]
    fn duplicate_insert_reports_no_change() {
        let mut r = Relation::new();
        assert!(r.insert(v(0), v(1)).unwrap());
        assert!(!r.insert(v(0), v(1)).unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn diamond_closure_is_complete() {
        // 0 ≻ 1, 0 ≻ 2, 1 ≻ 3, 2 ≻ 3  ⇒ closure adds 0 ≻ 3.
        let r =
            Relation::from_pairs([(v(0), v(1)), (v(0), v(2)), (v(1), v(3)), (v(2), v(3))]).unwrap();
        assert!(r.prefers(v(0), v(3)));
        assert_eq!(r.len(), 5);
        r.validate().unwrap();
    }

    #[test]
    fn chain_insertion_in_any_order_gives_same_closure() {
        let forward = Relation::from_pairs([(v(0), v(1)), (v(1), v(2)), (v(2), v(3))]).unwrap();
        let backward = Relation::from_pairs([(v(2), v(3)), (v(1), v(2)), (v(0), v(1))]).unwrap();
        let f: HashSet<_> = forward.pairs().collect();
        let b: HashSet<_> = backward.pairs().collect();
        assert_eq!(f, b);
        assert_eq!(forward.len(), 6);
    }

    #[test]
    fn intersection_matches_paper_cpu_example() {
        // Example 4.4: ≻CPU_c1 and ≻CPU_c2 intersect to
        // {(dual,single),(triple,single),(quad,single)}.
        // Encode: single=0, dual=1, triple=2, quad=3.
        let c1 = Relation::from_pairs([
            (v(1), v(0)),
            (v(1), v(3)),
            (v(1), v(2)),
            (v(2), v(0)),
            (v(3), v(0)),
        ])
        .unwrap();
        let c2 = Relation::from_pairs([
            (v(1), v(0)),
            (v(2), v(0)),
            (v(3), v(0)),
            (v(2), v(1)),
            (v(3), v(1)),
            (v(3), v(2)),
        ])
        .unwrap();
        let common = c1.intersection(&c2);
        let expected: HashSet<(ValueId, ValueId)> = [(v(1), v(0)), (v(2), v(0)), (v(3), v(0))]
            .into_iter()
            .collect();
        assert_eq!(common.pairs().collect::<HashSet<_>>(), expected);
        assert_eq!(common.len(), 3);
        common.validate().unwrap();
    }

    #[test]
    fn intersection_of_many_relations() {
        let a = Relation::from_pairs([(v(0), v(1)), (v(1), v(2))]).unwrap();
        let b = Relation::from_pairs([(v(0), v(1)), (v(0), v(2))]).unwrap();
        let c = Relation::from_pairs([(v(0), v(1))]).unwrap();
        let common = a.intersection(&b).intersection(&c);
        assert_eq!(common.len(), 1);
        assert!(common.prefers(v(0), v(1)));
        assert_eq!(common, c.intersection(&b).intersection(&a));
        assert!(a.intersection(&Relation::new()).is_empty());
    }

    #[test]
    fn from_dominance_stats_builds_partial_order() {
        // value 0: (4.5, 10), value 1: (4.0, 5), value 2: (4.0, 10), value 3: (5.0, 2)
        let stats: HashMap<ValueId, (f64, f64)> = [
            (v(0), (4.5, 10.0)),
            (v(1), (4.0, 5.0)),
            (v(2), (4.0, 10.0)),
            (v(3), (5.0, 2.0)),
        ]
        .into_iter()
        .collect();
        let r = Relation::from_dominance_stats(&stats);
        assert!(r.prefers(v(0), v(1)));
        assert!(r.prefers(v(0), v(2)));
        assert!(r.prefers(v(2), v(1)));
        // 3 has higher rating but lower count than 0 ⇒ incomparable.
        assert!(!r.comparable(v(0), v(3)));
        r.validate().unwrap();
    }

    #[test]
    fn values_and_adjacency_accessors() {
        let r = Relation::from_pairs([(v(0), v(1)), (v(1), v(2))]).unwrap();
        assert_eq!(r.values().len(), 3);
        let succ: HashSet<_> = r.successors(v(0)).collect();
        assert_eq!(succ, [v(1), v(2)].into_iter().collect());
        let pred: HashSet<_> = r.predecessors(v(2)).collect();
        assert_eq!(pred, [v(0), v(1)].into_iter().collect());
        assert!(r.comparable(v(0), v(2)));
        assert!(!r.comparable(v(0), v(9)));
    }

    #[test]
    fn display_is_sorted_and_stable() {
        let r = Relation::from_pairs([(v(1), v(2)), (v(0), v(1))]).unwrap();
        assert_eq!(r.to_string(), "{(v0≻v1), (v0≻v2), (v1≻v2)}");
    }
}
