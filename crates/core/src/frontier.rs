//! Frontier and Pareto-frontier-buffer primitives: the procedures of
//! Alg. 1, 2 and 4 that every [`crate::Monitor`] configuration is
//! assembled from.
//!
//! Each procedure relates *one* object `o` with the members of one
//! [`Frontier`]: which members dominate it (Def. 3.2), which it dominates,
//! which are identical to it. A frontier answers from an index instead of
//! comparing `o` with every member. Per attribute it keeps one *posting* —
//! a bitset over member positions — per value some member holds, and one
//! posting shared by every value outside the preference's universe. Then
//!
//! * the members that may dominate `o` are ⋀ₐ (P[oₐ] ∨ ⋁_{c ≻ oₐ} P[c]),
//!   the values `c ≻ oₐ` being one row of the closure's transpose
//!   ([`pm_porder::CompiledRelation::predecessors`]), and
//! * the members `o` may dominate are the same with `c ≺ oₐ`, one row of
//!   the closure ([`pm_porder::CompiledRelation::row`]).
//!
//! Where `oₐ` lies outside the universe its term is the shared outside
//! posting, so those candidates are confirmed against the member's own
//! value row; every other candidate is exact. A candidate in the posting of
//! `oₐ` itself on every attribute is identical to `o`, and counts neither
//! as a dominator nor as dominated.
//!
//! Comparisons are still counted as the scan the index replaced would
//! have made them. That scan ran **oldest member first** and stopped at the
//! first dominator (or, under [`OnIdentical::Stop`], the first identical
//! member), so its count is the position of that member plus one, or the
//! frontier's size — read off the candidate bits, since members sit at
//! their id rank. The order cannot change an outcome — a frontier never
//! holds both an object the arrival dominates and one that dominates it —
//! only where the count lands. Lookups read their blocks oldest first too,
//! and stop at the first dominator: long-lived members are the likelier
//! dominators. The scans themselves survive as the test reference
//! (`scan`).

use std::ops::ControlFlow;

use pm_model::{Object, ObjectId, ValueId};
use pm_porder::{CompiledPreference, CompiledRelation};

use crate::stats::MonitorStats;

/// A Pareto frontier (or Def. 7.4 buffer) under one preference: its members
/// in ascending object-id — that is, arrival — order, and their index.
///
/// The objects share their value rows with every other holder
/// ([`Object`] clones are reference-count bumps). Member `i` is bit `i` of
/// every posting, so an insert below the newest member shifts the postings
/// up, and a removal shifts them down.
///
/// The index is one vector of words: first a header per attribute — a word
/// holding the width of its value bitset and whether the outside posting
/// exists, then that bitset, bit `c` set iff a member holds the value of
/// dense index `c` — and then one block per 64 members, word `w` of every
/// posting side by side. A block's columns are the postings of attribute 0
/// in dense-index order followed by its outside posting, then those of
/// attribute 1, and so on. A lookup that stops at the oldest members reads
/// the first block only. The index is keyed by the owning preference's
/// universes: whoever replaces the preference must [`Frontier::recode`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Frontier {
    objects: Vec<Object>,
    /// Postings over all attributes: the width of a block.
    columns: usize,
    /// Words of the header.
    header: usize,
    index: Vec<u64>,
}

/// One attribute's entry in the header.
struct Head<'a> {
    /// Where the entry starts in the header.
    at: usize,
    /// Bit `c` set iff a member holds the value of dense index `c`.
    present: &'a [u64],
    /// Whether a member holds a value outside the universe.
    outside: bool,
    /// The attribute's first column.
    column: usize,
}

impl Head<'_> {
    /// The column of the value of dense index `code`, held or not.
    fn column_of(&self, code: usize) -> usize {
        let (word, bit) = (code / 64, code % 64);
        let ones = |w: &u64| w.count_ones() as usize;
        self.column
            + self.present[..word].iter().map(ones).sum::<usize>()
            + ones(&(self.present[word] & ((1u64 << bit) - 1)))
    }

    /// The column of the outside posting, held or not.
    fn outside_column(&self) -> usize {
        self.column
            + self
                .present
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
    }

    /// The column of `value`'s posting under the attribute's `relation`,
    /// held or not, and whether it is held.
    fn column(&self, relation: &CompiledRelation, value: ValueId) -> (usize, bool) {
        match relation.dense_index(value) {
            Some(code) => {
                let held = (self.present[code / 64] >> (code % 64)) & 1 == 1;
                (self.column_of(code), held)
            }
            None => (self.outside_column(), self.outside),
        }
    }

    /// Where the next attribute's entry starts, and its first column.
    fn next(&self) -> (usize, usize) {
        let width = self.outside_column() - self.column + usize::from(self.outside);
        (self.at + 1 + self.present.len(), self.column + width)
    }
}

/// Which side of an object a lookup asks for.
#[derive(Clone, Copy)]
enum Toward {
    /// Members at least as good on every attribute.
    Better,
    /// Members at most as good on every attribute.
    Worse,
}

/// Attributes and selected postings a lookup holds on the stack.
const INLINE_TERMS: usize = 8;
const INLINE_COLUMNS: usize = 64;

/// One attribute's part of a lookup: the postings whose OR it takes.
#[derive(Clone, Copy)]
struct Term {
    attr: u32,
    /// The selected columns, `columns[start..end]` of the lookup.
    start: u32,
    end: u32,
    /// The column of the object's own value — the shared outside posting
    /// for a value outside the universe — or [`NO_COLUMN`] if no member
    /// holds it.
    own: u32,
    /// Whether the object's value lies outside the universe.
    outside: bool,
}

/// [`Term::own`] of a value no member holds.
const NO_COLUMN: u32 = u32::MAX;

impl Term {
    const EMPTY: Self = Term {
        attr: 0,
        start: 0,
        end: 0,
        own: NO_COLUMN,
        outside: false,
    };
}

/// An object resolved against a frontier's index for one side: per
/// attribute the columns of the postings of its value and of the values on
/// that side of it (or the shared outside posting), the attributes
/// selecting the fewest columns first. Held on the stack unless the
/// preference or the index is wide.
struct Lookup<'a> {
    object: &'a Object,
    inline_terms: [Term; INLINE_TERMS],
    inline_columns: [u32; INLINE_COLUMNS],
    heap_terms: Vec<Term>,
    heap_columns: Vec<u32>,
    /// Terms and columns in use.
    len: (usize, usize),
}

impl<'a> Lookup<'a> {
    /// An empty lookup of `object`, filled by [`Frontier::resolve`].
    #[inline]
    fn new(object: &'a Object) -> Self {
        Lookup {
            object,
            inline_terms: [Term::EMPTY; INLINE_TERMS],
            inline_columns: [0; INLINE_COLUMNS],
            heap_terms: Vec::new(),
            heap_columns: Vec::new(),
            len: (0, 0),
        }
    }

    fn terms(&self) -> &[Term] {
        match self.len.0 <= INLINE_TERMS {
            true => &self.inline_terms[..self.len.0],
            false => &self.heap_terms[..self.len.0],
        }
    }

    fn columns(&self) -> &[u32] {
        match self.len.1 <= INLINE_COLUMNS {
            true => &self.inline_columns[..self.len.1],
            false => &self.heap_columns[..self.len.1],
        }
    }

    /// Appends a selected column, spilling to the heap past the inline
    /// room.
    #[inline]
    fn push_column(&mut self, column: usize) {
        let at = self.len.1;
        if at < INLINE_COLUMNS {
            self.inline_columns[at] = column as u32;
        } else {
            if at == INLINE_COLUMNS {
                self.heap_columns.extend_from_slice(&self.inline_columns);
            }
            self.heap_columns.push(column as u32);
        }
        self.len.1 = at + 1;
    }
}

/// The positions of the set bits of `word`, ascending.
fn word_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = word.trailing_zeros() as usize;
        word &= word.checked_sub(1)?;
        Some(bit)
    })
}

/// Mask of the members in word `w` of a frontier of `len`.
fn members_in_word(len: usize, w: usize) -> u64 {
    match len.saturating_sub(w * 64) {
        0 => 0,
        n if n >= 64 => u64::MAX,
        n => (1u64 << n) - 1,
    }
}

impl Frontier {
    pub(crate) fn len(&self) -> usize {
        self.objects.len()
    }

    /// The members' ids, ascending.
    pub(crate) fn ids(&self) -> Vec<ObjectId> {
        self.objects.iter().map(Object::id).collect()
    }

    fn position(&self, id: ObjectId) -> Result<usize, usize> {
        // Arrivals carry the highest id so far: skip the search for them.
        match self.objects.last() {
            Some(last) if last.id() < id => Err(self.objects.len()),
            _ => self.objects.binary_search_by_key(&id, Object::id),
        }
    }

    pub(crate) fn contains(&self, id: ObjectId) -> bool {
        self.position(id).is_ok()
    }

    /// Blocks of the index: one per 64 members.
    fn blocks(&self) -> usize {
        self.objects.len().div_ceil(64)
    }

    /// The header entry starting at `at`, whose first column is `column`.
    fn head(&self, at: usize, column: usize) -> Head<'_> {
        let meta = self.index[at];
        let words = (meta as u32) as usize;
        Head {
            at,
            present: &self.index[at + 1..at + 1 + words],
            outside: meta >> 32 != 0,
            column,
        }
    }

    /// The attributes' header entries, in attribute order.
    fn heads(&self) -> impl Iterator<Item = Head<'_>> {
        let mut next = (0, 0);
        std::iter::from_fn(move || {
            let head = (next.0 < self.header).then(|| self.head(next.0, next.1))?;
            next = head.next();
            Some(head)
        })
    }

    /// Adds `object` under the owning `preference`, keeping id order.
    /// Returns whether it is a new member.
    pub(crate) fn insert(&mut self, object: &Object, preference: &CompiledPreference) -> bool {
        let Err(at) = self.position(object.id()) else {
            return false;
        };
        if self.objects.is_empty() {
            self.open_header(preference);
        }
        self.objects.insert(at, object.clone());
        if self.objects.len() % 64 == 1 {
            self.index.resize(self.index.len() + self.columns, 0);
        }
        if at + 1 < self.objects.len() {
            self.shift_up(at);
        }
        let mut next = (0, 0);
        let values = object.values().iter();
        for (relation, &value) in preference.relations().iter().zip(values) {
            let mut head = self.head(next.0, next.1);
            let (column, held) = head.column(relation, value);
            if !held {
                let (header_at, code) = (head.at, relation.dense_index(value));
                self.add_column(header_at, column, code);
                head = self.head(next.0, next.1);
            }
            next = head.next();
            let word = self.header + (at / 64) * self.columns + column;
            self.index[word] |= 1u64 << (at % 64);
        }
        true
    }

    /// Writes an empty header for `preference` into an empty index.
    fn open_header(&mut self, preference: &CompiledPreference) {
        for relation in preference.relations() {
            let words = relation.num_values().div_ceil(64);
            self.index.push(words as u64);
            self.index.resize(self.index.len() + words, 0);
        }
        self.header = self.index.len();
    }

    /// Opens the posting of dense index `code` (`None`: the outside posting)
    /// of the attribute whose header entry starts at `at`: an empty
    /// `column` in every block.
    fn add_column(&mut self, at: usize, column: usize, code: Option<usize>) {
        match code {
            Some(code) => self.index[at + 1 + code / 64] |= 1u64 << (code % 64),
            None => self.index[at] |= 1 << 32,
        }
        let (blocks, width) = (self.blocks(), self.columns);
        self.index.resize(self.index.len() + blocks, 0);
        for w in (0..blocks).rev() {
            let (from, to) = (self.header + w * width, self.header + w * (width + 1));
            self.index
                .copy_within(from + column..from + width, to + column + 1);
            self.index[to + column] = 0;
            self.index.copy_within(from..from + column, to);
        }
        self.columns += 1;
    }

    /// Moves every posting's bits at and above `at` one position up.
    fn shift_up(&mut self, at: usize) {
        let (first, columns, blocks) = (at / 64, self.columns, self.blocks());
        let index = &mut self.index[self.header..];
        for w in (first + 1..blocks).rev() {
            for c in 0..columns {
                let carry = index[(w - 1) * columns + c] >> 63;
                index[w * columns + c] = (index[w * columns + c] << 1) | carry;
            }
        }
        let low = (1u64 << (at % 64)) - 1;
        for word in &mut index[first * columns..(first + 1) * columns] {
            *word = (*word & low) | ((*word & !low) << 1);
        }
    }

    /// Moves every posting's bits above `at` one position down over it.
    fn shift_down(&mut self, at: usize) {
        let (first, columns, blocks) = (at / 64, self.columns, self.blocks());
        let index = &mut self.index[self.header..];
        let low = (1u64 << (at % 64)) - 1;
        for word in &mut index[first * columns..(first + 1) * columns] {
            *word = (*word & low) | ((*word >> 1) & !low);
        }
        for w in first + 1..blocks {
            for c in 0..columns {
                let carry = index[w * columns + c] << 63;
                index[(w - 1) * columns + c] |= carry;
                index[w * columns + c] >>= 1;
            }
        }
    }

    /// Removes the member `id`, returning whether it was one.
    pub(crate) fn remove(&mut self, id: ObjectId) -> bool {
        let Ok(at) = self.position(id) else {
            return false;
        };
        self.remove_positions(&[at]);
        true
    }

    /// Removes the members `ids` (ascending, all present) in one pass.
    pub(crate) fn remove_all(&mut self, ids: &[ObjectId]) {
        let Some(&first) = ids.first() else {
            return;
        };
        let start = self.position(first).expect("evicted ids are members");
        let mut pending = ids.iter().peekable();
        let positions: Vec<usize> = (start..self.objects.len())
            .filter(|&at| pending.next_if_eq(&&self.objects[at].id()).is_some())
            .collect();
        debug_assert!(pending.next().is_none(), "evicted ids are members");
        self.remove_positions(&positions);
    }

    /// Removes the members at `positions` (ascending).
    fn remove_positions(&mut self, positions: &[usize]) {
        if positions.is_empty() {
            return;
        }
        if positions.len() == self.objects.len() {
            *self = Self::default();
            return;
        }
        let columns = self.columns;
        // The postings the removed members were in may empty.
        let mut touched: Vec<usize> = Vec::new();
        for &at in positions {
            let block = self.header + (at / 64) * columns;
            let bit = 1u64 << (at % 64);
            touched.extend((0..columns).filter(|&c| self.index[block + c] & bit != 0));
        }
        for &at in positions.iter().rev() {
            self.shift_down(at);
        }
        match positions {
            &[at] => drop(self.objects.remove(at)),
            _ => {
                let (mut at, mut gone) = (0, positions.iter().peekable());
                self.objects.retain(|_| {
                    at += 1;
                    gone.next_if_eq(&&(at - 1)).is_none()
                });
            }
        }
        self.index.truncate(self.header + self.blocks() * columns);
        touched.sort_unstable();
        touched.dedup();
        let index = &self.index[self.header..];
        touched.retain(|&c| index.iter().skip(c).step_by(columns).all(|&word| word == 0));
        if !touched.is_empty() {
            self.drop_columns(&touched);
        }
    }

    /// Drops the empty postings at `columns` (ascending).
    fn drop_columns(&mut self, columns: &[usize]) {
        // Clear their header bits, attribute by attribute.
        let mut gone = columns.iter().peekable();
        let mut next = (0, 0);
        while next.0 < self.header {
            let head = self.head(next.0, next.1);
            let (at, words, outside) = (head.at, head.present.len(), head.outside);
            next = head.next();
            let mut column = head.column;
            for w in 0..words {
                let mut word = self.index[at + 1 + w];
                while word != 0 {
                    let bit = word & word.wrapping_neg();
                    if gone.next_if_eq(&&column).is_some() {
                        self.index[at + 1 + w] &= !bit;
                    }
                    column += 1;
                    word &= word - 1;
                }
            }
            if outside && gone.next_if_eq(&&column).is_some() {
                self.index[at] &= u64::from(u32::MAX);
            }
        }
        // Close the columns up, block by block.
        let (width, kept) = (self.columns, self.columns - columns.len());
        for w in 0..self.blocks() {
            let (from, mut to) = (self.header + w * width, self.header + w * kept);
            let mut start = from;
            for &column in columns {
                self.index.copy_within(start..from + column, to);
                to += from + column - start;
                start = from + column + 1;
            }
            self.index.copy_within(start..from + width, to);
        }
        self.index.truncate(self.header + self.blocks() * kept);
        self.columns = kept;
    }

    /// Re-indexes every member under `preference`, which replaces the one
    /// the postings were built under.
    pub(crate) fn recode(&mut self, preference: &CompiledPreference) {
        let objects = std::mem::take(self).objects;
        if objects.is_empty() {
            return;
        }
        // Every held value first, so that no column moves once bits are set.
        self.open_header(preference);
        for object in &objects {
            let mut at = 0;
            for (relation, &value) in preference.relations().iter().zip(object.values()) {
                match relation.dense_index(value) {
                    Some(code) => self.index[at + 1 + code / 64] |= 1u64 << (code % 64),
                    None => self.index[at] |= 1 << 32,
                }
                at += 1 + (self.index[at] as u32) as usize;
            }
        }
        self.columns = self.heads().last().map_or(0, |head| head.next().1);
        self.objects = objects;
        self.index
            .resize(self.header + self.blocks() * self.columns, 0);
        // Per attribute, where its columns start in `column_of`, indexed
        // by dense index, and the column of its outside posting.
        let mut column_of: Vec<u32> = Vec::new();
        let mut attrs = Vec::with_capacity(preference.arity());
        for head in self.heads() {
            let (start, mut column) = (column_of.len(), head.column as u32);
            for word in head.present {
                for bit in 0..64 {
                    column_of.push(column);
                    column += ((word >> bit) & 1) as u32;
                }
            }
            attrs.push((start, column));
        }
        for (member, object) in self.objects.iter().enumerate() {
            let block = self.header + (member / 64) * self.columns;
            let relations = preference.relations().iter().zip(&attrs);
            for ((relation, &(start, outside)), &value) in relations.zip(object.values()) {
                let column = match relation.dense_index(value) {
                    Some(code) => column_of[start + code],
                    None => outside,
                };
                self.index[block + column as usize] |= 1u64 << (member % 64);
            }
        }
    }

    /// Resolves the looked-up object for the members on its `toward`
    /// side.
    fn resolve(&self, lookup: &mut Lookup, preference: &CompiledPreference, toward: Toward) {
        let (object, arity) = (lookup.object, preference.arity());
        if arity > INLINE_TERMS {
            lookup.heap_terms.resize(arity, Term::EMPTY);
        }
        let attrs = self
            .heads()
            .zip(preference.relations())
            .zip(object.values());
        for (attr, ((head, relation), &value)) in attrs.enumerate() {
            let (own, held) = head.column(relation, value);
            let start = lookup.len.1 as u32;
            let code = relation.dense_index(value);
            match code {
                Some(code) => {
                    let order = match toward {
                        Toward::Better => relation.predecessors(code),
                        Toward::Worse => relation.row(code),
                    };
                    let mut column = head.column;
                    for (i, (&present, &order)) in head.present.iter().zip(order).enumerate() {
                        let mut wanted = present & order;
                        if i == code / 64 {
                            wanted |= present & (1u64 << (code % 64));
                        }
                        while wanted != 0 {
                            let below = present & ((wanted & wanted.wrapping_neg()) - 1);
                            lookup.push_column(column + below.count_ones() as usize);
                            wanted &= wanted - 1;
                        }
                        column += present.count_ones() as usize;
                    }
                }
                None if held => lookup.push_column(own),
                None => {}
            }
            let term = Term {
                attr: attr as u32,
                start,
                end: lookup.len.1 as u32,
                own: if held { own as u32 } else { NO_COLUMN },
                outside: code.is_none(),
            };
            match arity > INLINE_TERMS {
                true => lookup.heap_terms[attr] = term,
                false => lookup.inline_terms[attr] = term,
            }
        }
        lookup.len.0 = arity;
        let terms = match arity > INLINE_TERMS {
            true => &mut lookup.heap_terms[..],
            false => &mut lookup.inline_terms[..arity],
        };
        terms.sort_unstable_by_key(|term| term.end - term.start);
    }

    /// Whether the member at `at` is identical to the looked-up object
    /// (Def. 3.2): it is in the posting of the object's value on every
    /// attribute, and holds that very value where it lies outside the
    /// universe.
    fn identical(&self, lookup: &Lookup, at: usize) -> bool {
        let block = &self.index[self.header + (at / 64) * self.columns..];
        let bit = 1u64 << (at % 64);
        let terms = lookup.terms();
        terms
            .iter()
            .all(|term| term.own != NO_COLUMN && block[term.own as usize] & bit != 0)
            && self.confirmed(lookup, at)
    }

    /// Calls `visit` with the members that are, on every attribute, equal
    /// to the looked-up object or on the lookup's side of it — exactly those
    /// dominating it or identical to it ([`Toward::Better`]), or dominated
    /// by it or identical to it ([`Toward::Worse`]) — ascending, until it
    /// breaks. Blocks are read in order and only as far as that: the oldest
    /// members are the likeliest dominators, so a caller after the first
    /// one mostly reads one block.
    fn visit(&self, lookup: &Lookup, mut visit: impl FnMut(usize) -> ControlFlow<()>) {
        let (terms, columns) = (lookup.terms(), lookup.columns());
        for w in 0..self.blocks() {
            let block = &self.index[self.header + w * self.columns..][..self.columns];
            let mut word = members_in_word(self.objects.len(), w);
            for term in terms {
                let selected = &columns[term.start as usize..term.end as usize];
                word &= selected.iter().fold(0, |or, &c| or | block[c as usize]);
                if word == 0 {
                    break;
                }
            }
            for at in word_bits(word).map(|bit| w * 64 + bit) {
                if self.confirmed(lookup, at) && visit(at).is_break() {
                    return;
                }
            }
        }
    }

    /// Whether the member at `at` holds the looked-up object's value on
    /// every attribute where that value lies outside the universe: the
    /// shared outside posting does not tell outside values apart.
    fn confirmed(&self, lookup: &Lookup, at: usize) -> bool {
        let (member, values) = (self.objects[at].values(), lookup.object.values());
        let mut outside = lookup.terms().iter().filter(|term| term.outside);
        outside.all(|term| member[term.attr as usize] == values[term.attr as usize])
    }
}

/// What a frontier scan does on meeting an object identical to the
/// arriving one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OnIdentical {
    /// Alg. 1, line 6 (`updateParetoFrontier`): an identical frontier
    /// member proves the arrival Pareto-optimal — stop scanning.
    Stop,
    /// Alg. 2 (`updateParetoFrontierU`): identical objects are resolved
    /// per user during verification — keep scanning the cluster frontier.
    Continue,
}

/// The outcome of [`update_frontier`]: whether the object was
/// Pareto-optimal, whether its insert created a *new* frontier entry, and
/// which existing entries it evicted (ascending) — exactly what a delta log
/// needs.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct FrontierUpdate {
    pub(crate) is_pareto: bool,
    pub(crate) newly_inserted: bool,
    pub(crate) evicted: Vec<ObjectId>,
}

/// Updates one frontier under its `preference` with an arriving object:
/// the object enters unless a member dominates it, and every member it
/// dominates leaves.
pub(crate) fn update_frontier(
    preference: &CompiledPreference,
    frontier: &mut Frontier,
    object: &Object,
    on_identical: OnIdentical,
    stats: &mut MonitorStats,
) -> FrontierUpdate {
    // Where the scan stopped: at the first dominator, or under `Stop` at
    // the first identical member.
    let mut better = Lookup::new(object);
    frontier.resolve(&mut better, preference, Toward::Better);
    let mut stop = None;
    frontier.visit(&better, |at| {
        let identical = frontier.identical(&better, at);
        match on_identical == OnIdentical::Stop || !identical {
            true => {
                stop = Some((at, identical));
                ControlFlow::Break(())
            }
            false => ControlFlow::Continue(()),
        }
    });
    if let Some((at, false)) = stop {
        stats.record_comparisons(at as u64 + 1);
        return FrontierUpdate {
            is_pareto: false,
            newly_inserted: false,
            evicted: Vec::new(),
        };
    }
    let scanned = stop.map_or(frontier.len(), |(at, _)| at + 1);
    stats.record_comparisons(scanned as u64);
    let mut worse = Lookup::new(object);
    frontier.resolve(&mut worse, preference, Toward::Worse);
    let mut dominated = Vec::new();
    frontier.visit(&worse, |at| {
        if at >= scanned {
            return ControlFlow::Break(());
        }
        if !frontier.identical(&worse, at) {
            dominated.push(at);
        }
        ControlFlow::Continue(())
    });
    let evicted = dominated
        .iter()
        .map(|&at| frontier.objects[at].id())
        .collect();
    frontier.remove_positions(&dominated);
    FrontierUpdate {
        is_pareto: true,
        newly_inserted: frontier.insert(object, preference),
        evicted,
    }
}

/// Adds `object` to `buffer` and evicts every buffered object it dominates
/// (`refreshParetoBufferSW`, Alg. 4). By Theorem 7.2 the evicted objects can
/// never become Pareto-optimal again.
pub(crate) fn refresh_buffer(
    preference: &CompiledPreference,
    buffer: &mut Frontier,
    object: &Object,
    stats: &mut MonitorStats,
) {
    stats.record_comparisons(buffer.len() as u64);
    let dominated = dominated_members(preference, buffer, object);
    buffer.remove_positions(&dominated);
    buffer.insert(object, preference);
}

/// The positions of the members `object` dominates, ascending.
fn dominated_members(
    preference: &CompiledPreference,
    frontier: &Frontier,
    object: &Object,
) -> Vec<usize> {
    let mut worse = Lookup::new(object);
    frontier.resolve(&mut worse, preference, Toward::Worse);
    let mut dominated = Vec::new();
    frontier.visit(&worse, |at| {
        if !frontier.identical(&worse, at) {
            dominated.push(at);
        }
        ControlFlow::Continue(())
    });
    dominated
}

/// `mendParetoFrontierSW` (Alg. 4): promotes `candidate` into `frontier` if
/// no current frontier member dominates it. Returns whether it was promoted.
pub(crate) fn mend_frontier(
    preference: &CompiledPreference,
    frontier: &mut Frontier,
    candidate: &Object,
    stats: &mut MonitorStats,
) -> bool {
    let mut better = Lookup::new(candidate);
    frontier.resolve(&mut better, preference, Toward::Better);
    let mut dominator = None;
    frontier.visit(&better, |at| match frontier.identical(&better, at) {
        true => ControlFlow::Continue(()),
        false => {
            dominator = Some(at);
            ControlFlow::Break(())
        }
    });
    stats.record_comparisons(dominator.map_or(frontier.len(), |at| at + 1) as u64);
    if dominator.is_none() {
        frontier.insert(candidate, preference);
    }
    dominator.is_none()
}

/// Mends `frontier` after `expired` left it (Alg. 4 lines 3–5): every
/// member of `buffer` that `expired` dominated is offered to
/// [`mend_frontier`], oldest first, so that a promoted object is visible
/// when its younger dominated peers are checked. Returns the promoted
/// objects, each with whether it is a new member.
pub(crate) fn mend_from_buffer(
    preference: &CompiledPreference,
    frontier: &mut Frontier,
    buffer: &Frontier,
    expired: &Object,
    stats: &mut MonitorStats,
) -> Vec<(Object, bool)> {
    let others = buffer.len() - usize::from(buffer.contains(expired.id()));
    stats.record_comparisons(others as u64);
    let mut promoted = Vec::new();
    for at in dominated_members(preference, buffer, expired) {
        let candidate = &buffer.objects[at];
        let present = frontier.contains(candidate.id());
        if mend_frontier(preference, frontier, candidate, stats) {
            promoted.push((candidate.clone(), !present));
        }
    }
    promoted
}

/// The scan procedures the index replaced, kept as the reference it is
/// tested against: each compares the object with every member of an
/// id-ordered `Vec<Object>`, oldest first, and counts one comparison per
/// member it reaches.
#[cfg(test)]
pub(crate) mod scan {
    use pm_model::{Object, ObjectId};
    use pm_porder::{CompiledPreference, Dominance};

    use super::{FrontierUpdate, OnIdentical};
    use crate::stats::MonitorStats;

    /// Adds `object` keeping id order; whether it is a new member.
    pub(crate) fn insert(frontier: &mut Vec<Object>, object: &Object) -> bool {
        match frontier.binary_search_by_key(&object.id(), Object::id) {
            Ok(_) => false,
            Err(at) => {
                frontier.insert(at, object.clone());
                true
            }
        }
    }

    fn remove_all(frontier: &mut Vec<Object>, ids: &[ObjectId]) {
        frontier.retain(|member| !ids.contains(&member.id()));
    }

    pub(crate) fn update_frontier(
        preference: &CompiledPreference,
        frontier: &mut Vec<Object>,
        object: &Object,
        on_identical: OnIdentical,
        stats: &mut MonitorStats,
    ) -> FrontierUpdate {
        let mut is_pareto = true;
        let mut evicted: Vec<ObjectId> = Vec::new();
        let mut scanned = frontier.len();
        for (index, member) in frontier.iter().enumerate() {
            match preference.compare(object, member) {
                Dominance::Dominates => evicted.push(member.id()),
                Dominance::DominatedBy => {
                    is_pareto = false;
                    evicted.clear();
                    scanned = index + 1;
                    break;
                }
                Dominance::Identical if on_identical == OnIdentical::Stop => {
                    scanned = index + 1;
                    break;
                }
                Dominance::Identical | Dominance::Incomparable => {}
            }
        }
        stats.record_comparisons(scanned as u64);
        remove_all(frontier, &evicted);
        FrontierUpdate {
            is_pareto,
            newly_inserted: is_pareto && insert(frontier, object),
            evicted,
        }
    }

    pub(crate) fn refresh_buffer(
        preference: &CompiledPreference,
        buffer: &mut Vec<Object>,
        object: &Object,
        stats: &mut MonitorStats,
    ) {
        stats.record_comparisons(buffer.len() as u64);
        let dominated: Vec<ObjectId> = (0..buffer.len())
            .filter(|&index| preference.compare(object, &buffer[index]) == Dominance::Dominates)
            .map(|index| buffer[index].id())
            .collect();
        remove_all(buffer, &dominated);
        insert(buffer, object);
    }

    pub(crate) fn mend_frontier(
        preference: &CompiledPreference,
        frontier: &mut Vec<Object>,
        candidate: &Object,
        stats: &mut MonitorStats,
    ) -> bool {
        let dominator = (0..frontier.len())
            .find(|&i| preference.compare(candidate, &frontier[i]) == Dominance::DominatedBy);
        stats.record_comparisons(dominator.map_or(frontier.len(), |index| index + 1) as u64);
        if dominator.is_none() {
            insert(frontier, candidate);
        }
        dominator.is_none()
    }

    pub(crate) fn mend_from_buffer(
        preference: &CompiledPreference,
        frontier: &mut Vec<Object>,
        buffer: &[Object],
        expired: &Object,
        stats: &mut MonitorStats,
    ) -> Vec<(Object, bool)> {
        let mut promoted = Vec::new();
        for candidate in buffer {
            if candidate.id() == expired.id() {
                continue;
            }
            stats.record_comparison();
            if preference.compare(expired, candidate) != Dominance::Dominates {
                continue;
            }
            let present = frontier.iter().any(|member| member.id() == candidate.id());
            if mend_frontier(preference, frontier, candidate, stats) {
                promoted.push((candidate.clone(), !present));
            }
        }
        promoted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{obj, preference};

    /// Each member's postings, as (attribute, dense index or `None` for
    /// outside, position) triples, read back from the index.
    fn postings_of(frontier: &Frontier) -> Vec<(usize, Option<usize>, usize)> {
        let (blocks, columns) = (frontier.blocks(), frontier.columns);
        assert_eq!(frontier.index.len(), frontier.header + blocks * columns);
        let members = |column: usize| {
            (0..blocks).flat_map(move |w| {
                let word = frontier.index[frontier.header + w * columns + column];
                word_bits(word).map(move |bit| w * 64 + bit)
            })
        };
        let mut found = Vec::new();
        let mut columns = 0;
        for (attr, head) in frontier.heads().enumerate() {
            let codes = (head.present.iter().enumerate())
                .flat_map(|(w, &word)| word_bits(word).map(move |bit| w * 64 + bit));
            for code in codes {
                found.extend(members(head.column_of(code)).map(|at| (attr, Some(code), at)));
            }
            if head.outside {
                found.extend(members(head.outside_column()).map(|at| (attr, None, at)));
            }
            columns = head.next().1;
        }
        assert_eq!(columns, frontier.columns, "one column per posting");
        for column in 0..frontier.columns {
            assert!(members(column).next().is_some(), "no empty posting");
        }
        found.sort_unstable();
        found
    }

    /// The postings every member should be in under `preference`.
    fn expected_postings(
        frontier: &Frontier,
        preference: &CompiledPreference,
    ) -> Vec<(usize, Option<usize>, usize)> {
        let mut expected = Vec::new();
        for (at, object) in frontier.objects.iter().enumerate() {
            for (attr, relation) in preference.relations().iter().enumerate() {
                expected.push((attr, relation.dense_index(object.values()[attr]), at));
            }
        }
        expected.sort_unstable();
        expected
    }

    /// Panics unless the index holds exactly the members' values.
    pub(super) fn assert_index(frontier: &Frontier, preference: &CompiledPreference) {
        assert!(frontier.objects.windows(2).all(|w| w[0].id() < w[1].id()));
        assert_eq!(
            postings_of(frontier),
            expected_postings(frontier, preference)
        );
    }

    #[test]
    fn members_stay_in_id_order_with_their_codes() {
        // 1 ≻ 0 on the only attribute; value 7 is outside the universe.
        let compiled = preference(1, &[(0, 1, 0)]).compile();
        let mut frontier = Frontier::default();
        let objects = [obj(5, &[7]), obj(2, &[0]), obj(9, &[1]), obj(3, &[0])];
        for object in &objects {
            assert!(frontier.insert(object, &compiled));
            assert_index(&frontier, &compiled);
        }
        assert!(!frontier.insert(&objects[1], &compiled));
        assert_eq!(frontier.ids(), [2, 3, 5, 9].map(ObjectId::new));
        assert!(frontier.contains(ObjectId::new(3)) && !frontier.contains(ObjectId::new(4)));

        frontier.remove_all(&[ObjectId::new(2), ObjectId::new(5)]);
        assert_eq!(frontier.ids(), [3, 9].map(ObjectId::new));
        assert_index(&frontier, &compiled);
        assert!(frontier.remove(ObjectId::new(3)) && !frontier.remove(ObjectId::new(3)));
        assert_index(&frontier, &compiled);
        assert!(frontier.remove(ObjectId::new(9)));
        assert!(
            frontier.index.is_empty(),
            "an empty frontier holds no index"
        );
    }

    #[test]
    fn recode_switches_every_member_to_the_new_relation() {
        let old = preference(2, &[(0, 1, 0), (1, 3, 2)]).compile();
        // Value 0 of attribute 0 drops out of the universe.
        let new = preference(2, &[(0, 1, 4), (1, 3, 2)]).compile();
        let mut frontier = Frontier::default();
        let objects = [obj(1, &[0, 2]), obj(2, &[1, 3]), obj(3, &[4, 2])];
        for object in &objects {
            frontier.insert(object, &old);
        }
        frontier.recode(&new);
        assert_index(&frontier, &new);
        // o2 = ⟨1, 3⟩ now dominates o3 = ⟨4, 2⟩ and is incomparable to o1.
        assert_eq!(dominated_members(&new, &frontier, &objects[1]), [2]);
        let mut stats = MonitorStats::new();
        assert!(!mend_frontier(
            &new,
            &mut frontier,
            &obj(4, &[4, 2]),
            &mut stats
        ));
        assert_eq!(stats.comparisons, 2, "o2 is the first dominator");
    }
}

/// The index against the scan it replaced, over seeded random scripts.
#[cfg(test)]
mod reference {
    use pm_model::{Object, ObjectId, ValueId};
    use pm_porder::{CompiledPreference, CompiledRelation, Relation};

    use super::tests::assert_index;
    use super::*;
    use crate::fixtures::Rng;

    /// A random strict partial order on `values` (ordered by a random
    /// rank, so it stays acyclic) with about `percent` % of the pairs.
    fn random_relation(rng: &mut Rng, values: &[u32], percent: u64) -> Relation {
        let mut ranked = values.to_vec();
        for i in (1..ranked.len()).rev() {
            ranked.swap(i, rng.below(i + 1));
        }
        let mut pairs = Vec::new();
        for i in 0..ranked.len() {
            for j in i + 1..ranked.len() {
                if rng.chance(percent) {
                    pairs.push((ValueId::new(ranked[i]), ValueId::new(ranked[j])));
                }
            }
        }
        // Keep every value mentioned, so the universe is `values`.
        for w in ranked.windows(2) {
            if !pairs
                .iter()
                .any(|&(x, y)| x.raw() == w[0] || y.raw() == w[0])
            {
                pairs.push((ValueId::new(w[0]), ValueId::new(w[1])));
            }
        }
        Relation::from_pairs(pairs).expect("ranked pairs are acyclic")
    }

    /// One attribute's relation and the values objects draw from: some in
    /// its universe, some outside it (below, between and above).
    fn random_attribute(rng: &mut Rng) -> (CompiledRelation, Vec<u32>) {
        let (relation, universe): (Relation, Option<Vec<ValueId>>) = match rng.below(3) {
            // Dense, one word.
            0 => {
                let values: Vec<u32> = (0..8).filter(|_| rng.chance(70)).map(|v| v * 2).collect();
                let values = if values.len() < 2 {
                    vec![2, 4, 6]
                } else {
                    values
                };
                (random_relation(rng, &values, 40), None)
            }
            // Dense, two words, over 70+ values: sparse or nearly total.
            1 => {
                let values: Vec<u32> = (0..72 + rng.below(20) as u32).collect();
                let percent = if rng.chance(50) { 3 } else { 40 };
                (random_relation(rng, &values, percent), None)
            }
            // Sparse: a few rows in a 256-value universe.
            _ => {
                let values: Vec<u32> = (0..4).map(|_| rng.below(256) as u32).collect();
                let mut values = values;
                values.sort_unstable();
                values.dedup();
                let values = if values.len() < 2 {
                    vec![3, 200]
                } else {
                    values
                };
                let universe = (0..256).map(ValueId::new).collect();
                (random_relation(rng, &values, 60), Some(universe))
            }
        };
        let compiled = match &universe {
            Some(universe) => CompiledRelation::compile_with_universe(&relation, universe),
            None => CompiledRelation::compile(&relation),
        };
        // Mostly a few values, so that identical vectors are common; now
        // and then most of the universe, so that a lookup selects more
        // postings than it holds inline.
        let drawn = match rng.chance(15) {
            true => compiled.num_values(),
            false => 4,
        };
        let mut pool: Vec<u32> = (0..drawn)
            .map(|_| compiled.universe()[rng.below(compiled.num_values())].raw())
            .collect();
        // Outside values: holes in the universe and values beyond it.
        pool.extend(
            [1, 1_000, 1_001, 77_777]
                .into_iter()
                .filter(|_| rng.chance(50)),
        );
        pool.sort_unstable();
        pool.dedup();
        (compiled, pool)
    }

    fn random_preference(rng: &mut Rng, arity: usize) -> (CompiledPreference, Vec<Vec<u32>>) {
        let (relations, pools) = (0..arity).map(|_| random_attribute(rng)).unzip();
        (CompiledPreference::from_relations(relations), pools)
    }

    /// The script's objects: one value row per id, drawn on first use from
    /// the pools of the preference in force then.
    struct Objects(std::collections::BTreeMap<u64, Object>);

    impl Objects {
        fn get(&mut self, rng: &mut Rng, id: u64, pools: &[Vec<u32>]) -> Object {
            self.0
                .entry(id)
                .or_insert_with(|| {
                    let values = pools
                        .iter()
                        .map(|pool| ValueId::new(pool[rng.below(pool.len())]))
                        .collect();
                    Object::new(ObjectId::new(id), values)
                })
                .clone()
        }
    }

    fn ids(objects: &[Object]) -> Vec<ObjectId> {
        objects.iter().map(Object::id).collect()
    }

    /// Drives a frontier and a buffer through one random script on the
    /// index and on the reference scan, asserting equal outcomes, members
    /// and comparison counts after every call.
    fn run_script(seed: u64, steps: usize) {
        let mut rng = Rng(seed);
        // Now and then more attributes than a lookup holds inline.
        let arity = match rng.chance(10) {
            true => INLINE_TERMS + 1 + rng.below(2),
            false => 1 + rng.below(4),
        };
        let (mut preference, mut pools) = random_preference(&mut rng, arity);
        let mut objects = Objects(Default::default());
        let (mut frontier, mut buffer) = (Frontier::default(), Frontier::default());
        let (mut ref_frontier, mut ref_buffer): (Vec<Object>, Vec<Object>) = Default::default();
        let (mut stats, mut ref_stats) = (MonitorStats::new(), MonitorStats::new());
        let mut next_id = 1_000u64;
        for step in 0..steps {
            let context = format!("seed {seed}, step {step}");
            // Mostly new arrivals, sometimes an older id (a mid-order insert).
            let id = match rng.chance(70) {
                true => {
                    next_id += 1 + rng.below(3) as u64;
                    next_id
                }
                false => rng.below(next_id as usize) as u64,
            };
            let object = objects.get(&mut rng, id, &pools);
            match rng.below(100) {
                0..=39 => {
                    let on_identical = match rng.chance(50) {
                        true => OnIdentical::Stop,
                        false => OnIdentical::Continue,
                    };
                    let ours = update_frontier(
                        &preference,
                        &mut frontier,
                        &object,
                        on_identical,
                        &mut stats,
                    );
                    let theirs = scan::update_frontier(
                        &preference,
                        &mut ref_frontier,
                        &object,
                        on_identical,
                        &mut ref_stats,
                    );
                    assert_eq!(ours, theirs, "{context}: update {on_identical:?}");
                }
                40..=54 => {
                    refresh_buffer(&preference, &mut buffer, &object, &mut stats);
                    scan::refresh_buffer(&preference, &mut ref_buffer, &object, &mut ref_stats);
                }
                55..=64 => {
                    let ours = mend_frontier(&preference, &mut frontier, &object, &mut stats);
                    let theirs = scan::mend_frontier(
                        &preference,
                        &mut ref_frontier,
                        &object,
                        &mut ref_stats,
                    );
                    assert_eq!(ours, theirs, "{context}: mend");
                }
                65..=71 => {
                    // Expire a buffered object (or a stranger) and mend.
                    let expired = match ref_buffer.is_empty() || rng.chance(20) {
                        true => object,
                        false => ref_buffer[rng.below(ref_buffer.len())].clone(),
                    };
                    let ours =
                        mend_from_buffer(&preference, &mut frontier, &buffer, &expired, &mut stats);
                    let theirs = scan::mend_from_buffer(
                        &preference,
                        &mut ref_frontier,
                        &ref_buffer,
                        &expired,
                        &mut ref_stats,
                    );
                    assert_eq!(ours, theirs, "{context}: mend from buffer");
                }
                72..=79 => {
                    assert_eq!(
                        frontier.insert(&object, &preference),
                        scan::insert(&mut ref_frontier, &object),
                        "{context}: insert"
                    );
                }
                80..=87 => {
                    let id = match ref_frontier.is_empty() || rng.chance(20) {
                        true => object.id(),
                        false => ref_frontier[rng.below(ref_frontier.len())].id(),
                    };
                    let theirs = ref_frontier.iter().position(|m| m.id() == id);
                    if let Some(at) = theirs {
                        ref_frontier.remove(at);
                    }
                    assert_eq!(frontier.remove(id), theirs.is_some(), "{context}: remove");
                    if rng.chance(50) {
                        buffer.remove(id);
                        ref_buffer.retain(|m| m.id() != id);
                    }
                }
                88..=95 => {
                    let gone: Vec<ObjectId> = ref_buffer
                        .iter()
                        .map(Object::id)
                        .filter(|_| rng.chance(30))
                        .collect();
                    buffer.remove_all(&gone);
                    ref_buffer.retain(|m| !gone.contains(&m.id()));
                }
                _ => {
                    (preference, pools) = random_preference(&mut rng, arity);
                    frontier.recode(&preference);
                    buffer.recode(&preference);
                }
            }
            assert_eq!(frontier.ids(), ids(&ref_frontier), "{context}: frontier");
            assert_eq!(buffer.ids(), ids(&ref_buffer), "{context}: buffer");
            assert_eq!(stats.comparisons, ref_stats.comparisons, "{context}: count");
            assert_index(&frontier, &preference);
            assert_index(&buffer, &preference);
        }
    }

    #[test]
    fn index_equals_the_scan_on_random_scripts() {
        for seed in 0..300 {
            run_script(seed, 400);
        }
    }
}
