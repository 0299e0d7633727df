//! Preference fingerprints and the interner that deduplicates compiled
//! preferences across a large user population.
//!
//! The paper's whole premise (Sec. 4) is that real users *share*
//! preferences. A [`Fingerprint`] is a canonical, stable 128-bit hash of a
//! [`Preference`]'s normalised per-attribute tuple sets: two preferences
//! have equal fingerprints iff (modulo astronomically unlikely collisions,
//! which every consumer guards against with a full equality check) they are
//! the same preference. The [`PreferenceInterner`] buckets registered users
//! by fingerprint and hands out shared `Arc`s to one [`Preference`] and one
//! [`CompiledPreference`] per *distinct* preference, so memory and
//! compilation work scale with the number of distinct preferences rather
//! than the population size.
//!
//! The hash is hand-rolled (two independent FNV-1a-style 64-bit lanes over
//! a canonical `u64` stream) rather than `std`'s `DefaultHasher` because
//! fingerprints are persisted in WAL snapshots: the function must be stable
//! across processes, architectures, and toolchain versions.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::compiled::CompiledPreference;
use crate::preference::Preference;

/// A canonical, stable 128-bit fingerprint of a [`Preference`].
///
/// Equal preferences always produce equal fingerprints; the converse holds
/// up to hash collisions, so consumers that *merge* state keyed by
/// fingerprint must confirm with a full [`Preference`] equality check (the
/// [`PreferenceInterner`] does).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint([u64; 2]);

impl Fingerprint {
    /// The fingerprint as 16 little-endian bytes (for snapshot encoding).
    pub fn to_le_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.0[0].to_le_bytes());
        out[8..].copy_from_slice(&self.0[1].to_le_bytes());
        out
    }

    /// Rebuilds a fingerprint from [`Fingerprint::to_le_bytes`] output.
    pub fn from_le_bytes(bytes: [u8; 16]) -> Self {
        Fingerprint([
            u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            u64::from_le_bytes(bytes[8..].try_into().unwrap()),
        ])
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({self})")
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const LANE_A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const LANE_B_OFFSET: u64 = 0x6c62_272e_07bb_0142;

/// Two independent FNV-1a lanes over a stream of `u64`s. Lane B perturbs
/// each word with a running position counter so the lanes do not merely
/// differ by a constant.
struct TwoLaneHasher {
    a: u64,
    b: u64,
    pos: u64,
}

impl TwoLaneHasher {
    fn new() -> Self {
        TwoLaneHasher {
            a: LANE_A_OFFSET,
            b: LANE_B_OFFSET,
            pos: 0,
        }
    }

    #[inline]
    fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        self.pos = self.pos.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let perturbed = word ^ self.pos;
        for byte in perturbed.to_le_bytes() {
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(mut self) -> Fingerprint {
        // A final avalanche pass so short inputs still spread across all
        // 128 bits (splitmix64-style finalizer, a fixed published constant
        // set — stable by construction).
        for lane in [&mut self.a, &mut self.b] {
            let mut z = *lane;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *lane = z ^ (z >> 31);
        }
        Fingerprint([self.a, self.b])
    }
}

impl Preference {
    /// The canonical fingerprint of this preference.
    ///
    /// Covers the arity (trailing empty relations are semantically
    /// significant: [`Preference::compare`] treats differing values on an
    /// empty-relation attribute as incomparable) and, per attribute, the
    /// ascending tuple list of the transitive closure with a length prefix.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = TwoLaneHasher::new();
        h.write(self.arity() as u64);
        for (_, relation) in self.relations() {
            h.write(relation.len() as u64);
            for (x, y) in relation.pairs() {
                h.write((u64::from(x.raw()) << 32) | u64::from(y.raw()));
            }
        }
        h.finish()
    }
}

/// A shared handle to one interned preference.
///
/// Cloning is cheap (`Arc` bumps). The handle does **not** release its
/// interner slot on drop — the owner that called [`PreferenceInterner::intern`]
/// must pair it with [`PreferenceInterner::release`].
#[derive(Debug, Clone)]
pub struct Interned {
    /// Slot id inside the interner; pass back to [`PreferenceInterner::release`].
    pub id: u32,
    /// The canonical fingerprint.
    pub fingerprint: Fingerprint,
    /// The deduplicated preference.
    pub preference: Arc<Preference>,
    /// The deduplicated compiled form.
    pub compiled: Arc<CompiledPreference>,
}

#[derive(Debug, Clone)]
struct InternEntry {
    fingerprint: Fingerprint,
    preference: Arc<Preference>,
    compiled: Arc<CompiledPreference>,
    refs: usize,
}

/// Deduplicates preferences behind `Arc`s, keyed by [`Fingerprint`] with a
/// full equality check on collision. Reference-counted: [`PreferenceInterner::intern`]
/// acquires, [`PreferenceInterner::release`] releases; a slot whose count
/// reaches zero is recycled.
#[derive(Debug, Default, Clone)]
pub struct PreferenceInterner {
    entries: Vec<Option<InternEntry>>,
    free: Vec<u32>,
    by_fp: HashMap<Fingerprint, Vec<u32>>,
    total: usize,
}

impl PreferenceInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `preference`, compiling it only if no equal preference is
    /// already present, and bumps the slot's reference count.
    pub fn intern(&mut self, preference: &Preference) -> Interned {
        self.acquire(preference.fingerprint(), preference, || {
            (Arc::new(preference.clone()), Arc::new(preference.compile()))
        })
    }

    /// Interns the preference behind a handle another interner issued,
    /// reusing its fingerprint and sharing its `Arc`s: nothing is hashed,
    /// copied or compiled. Bumps the slot's reference count like
    /// [`Self::intern`]; the returned handle carries this interner's slot
    /// id.
    pub fn adopt(&mut self, shared: &Interned) -> Interned {
        self.acquire(shared.fingerprint, &shared.preference, || {
            (shared.preference.clone(), shared.compiled.clone())
        })
    }

    /// The slot of `preference` (whose fingerprint is `fingerprint`), made
    /// from `make` when no equal preference is held yet.
    fn acquire(
        &mut self,
        fingerprint: Fingerprint,
        preference: &Preference,
        make: impl FnOnce() -> (Arc<Preference>, Arc<CompiledPreference>),
    ) -> Interned {
        self.total += 1;
        if let Some(ids) = self.by_fp.get(&fingerprint) {
            for &id in ids {
                let entry = self.entries[id as usize]
                    .as_mut()
                    .expect("by_fp points at a live slot");
                if entry.preference.as_ref() == preference {
                    entry.refs += 1;
                    return Interned {
                        id,
                        fingerprint,
                        preference: entry.preference.clone(),
                        compiled: entry.compiled.clone(),
                    };
                }
            }
        }
        let (preference, compiled) = make();
        let entry = InternEntry {
            fingerprint,
            preference: preference.clone(),
            compiled: compiled.clone(),
            refs: 1,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.entries[id as usize] = Some(entry);
                id
            }
            None => {
                self.entries.push(Some(entry));
                (self.entries.len() - 1) as u32
            }
        };
        self.by_fp.entry(fingerprint).or_default().push(id);
        Interned {
            id,
            fingerprint,
            preference,
            compiled,
        }
    }

    /// Releases one reference on slot `id`, recycling the slot when the
    /// count reaches zero.
    ///
    /// # Panics
    /// Panics if `id` is not a live slot (double release is a caller bug).
    pub fn release(&mut self, id: u32) {
        let slot = self.entries[id as usize]
            .as_mut()
            .expect("release of a dead interner slot");
        slot.refs -= 1;
        self.total -= 1;
        if slot.refs == 0 {
            let fingerprint = slot.fingerprint;
            self.entries[id as usize] = None;
            self.free.push(id);
            if let Some(ids) = self.by_fp.get_mut(&fingerprint) {
                ids.retain(|&other| other != id);
                if ids.is_empty() {
                    self.by_fp.remove(&fingerprint);
                }
            }
        }
    }

    /// Number of distinct live preferences.
    pub fn distinct(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Total live references (i.e. interned users).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Whether no preference is currently interned.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Approximate heap bytes held by the distinct preferences (build-time
    /// and compiled forms). Shared `Arc` copies cost nothing extra. The
    /// class matrices a scan builds lazily are left out
    /// ([`CompiledPreference::closure_bytes`]): interners share compiled
    /// forms ([`Self::adopt`]), so counting them would make the figure
    /// depend on which monitor has scanned with a preference yet.
    pub fn approx_bytes(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .map(|e| e.preference.approx_bytes() + e.compiled.closure_bytes())
            .sum()
    }

    /// The preference held by live slot `id`, or `None` for a dead slot.
    pub fn get(&self, id: u32) -> Option<&Arc<Preference>> {
        self.entries
            .get(id as usize)
            .and_then(|slot| slot.as_ref())
            .map(|e| &e.preference)
    }

    /// Iterates over the distinct live entries as
    /// `(slot id, fingerprint, refcount, preference)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Fingerprint, usize, &Arc<Preference>)> + '_ {
        self.entries.iter().enumerate().filter_map(|(id, slot)| {
            slot.as_ref()
                .map(|e| (id as u32, e.fingerprint, e.refs, &e.preference))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_model::{AttrId, ValueId};

    fn v(i: u32) -> ValueId {
        ValueId::new(i)
    }

    fn a(i: u32) -> AttrId {
        AttrId::new(i)
    }

    fn pref(arity: u32, rows: &[(u32, u32, u32)]) -> Preference {
        let mut p = Preference::new(arity as usize);
        for &(attr, x, y) in rows {
            p.prefer(a(attr), v(x), v(y));
        }
        p
    }

    #[test]
    fn equal_preferences_share_a_fingerprint() {
        // Same closure reached through different insertion orders.
        let p1 = pref(2, &[(0, 1, 2), (0, 2, 3), (1, 0, 1)]);
        let p2 = pref(2, &[(1, 0, 1), (0, 2, 3), (0, 1, 2)]);
        assert_eq!(p1, p2);
        assert_eq!(p1.fingerprint(), p2.fingerprint());
    }

    #[test]
    fn distinct_preferences_diverge() {
        let base = pref(2, &[(0, 1, 2)]);
        let variants = [
            pref(2, &[(0, 2, 1)]),            // flipped tuple
            pref(2, &[(1, 1, 2)]),            // other attribute
            pref(3, &[(0, 1, 2)]),            // extra (empty) trailing attribute
            pref(2, &[(0, 1, 2), (0, 1, 3)]), // extra tuple
            pref(2, &[]),                     // empty
        ];
        for other in &variants {
            assert_ne!(base.fingerprint(), other.fingerprint(), "{other:?}");
        }
    }

    #[test]
    fn arity_is_part_of_the_fingerprint() {
        // A trailing empty relation changes dominance semantics, so it must
        // change the fingerprint even though no tuples differ.
        let narrow = pref(1, &[(0, 1, 2)]);
        let wide = pref(2, &[(0, 1, 2)]);
        assert_ne!(narrow.fingerprint(), wide.fingerprint());
    }

    #[test]
    fn fingerprint_is_stable_across_runs() {
        // Pinned value: the hash feeds WAL snapshots, so it must never
        // change silently. If this assertion fails you have changed the
        // fingerprint function and must bump the snapshot version.
        let p = pref(2, &[(0, 1, 2), (0, 2, 3), (1, 4, 0)]);
        assert_eq!(p.fingerprint().to_string(), format!("{}", p.fingerprint()),);
        let bytes = p.fingerprint().to_le_bytes();
        assert_eq!(Fingerprint::from_le_bytes(bytes), p.fingerprint());
        assert_eq!(
            p.fingerprint().to_string(),
            "3f7dca05ce07a5bcde085fcf284997c1",
            "fingerprint function changed — bump the snapshot format version"
        );
    }

    #[test]
    fn interner_dedupes_and_refcounts() {
        let mut interner = PreferenceInterner::new();
        let p1 = pref(2, &[(0, 1, 2)]);
        let p2 = pref(2, &[(0, 1, 2)]);
        let q = pref(2, &[(0, 2, 1)]);

        let h1 = interner.intern(&p1);
        let h2 = interner.intern(&p2);
        let hq = interner.intern(&q);
        assert_eq!(h1.id, h2.id);
        assert!(Arc::ptr_eq(&h1.compiled, &h2.compiled));
        assert_ne!(h1.id, hq.id);
        assert_eq!(interner.distinct(), 2);
        assert_eq!(interner.total(), 3);

        interner.release(h1.id);
        assert_eq!(interner.distinct(), 2, "still one live ref on the slot");
        interner.release(h2.id);
        assert_eq!(interner.distinct(), 1, "slot recycled at refcount zero");
        assert_eq!(interner.total(), 1);

        // The freed slot is reused and a fresh intern of p1 recompiles.
        let h3 = interner.intern(&p1);
        assert_eq!(h3.id, h1.id, "free list recycles the slot id");
        assert_eq!(interner.distinct(), 2);
        interner.release(h3.id);
        interner.release(hq.id);
        assert!(interner.is_empty());
        assert_eq!(interner.approx_bytes(), 0);
    }

    #[test]
    fn approx_bytes_counts_distinct_not_total() {
        let mut interner = PreferenceInterner::new();
        let p = pref(2, &[(0, 1, 2), (1, 3, 4)]);
        let h1 = interner.intern(&p);
        let one = interner.approx_bytes();
        assert!(one > 0);
        let h2 = interner.intern(&p);
        assert_eq!(
            interner.approx_bytes(),
            one,
            "a second reference costs no extra bytes"
        );
        interner.release(h1.id);
        interner.release(h2.id);
    }
}
