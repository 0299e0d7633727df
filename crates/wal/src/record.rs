//! Binary encoding of WAL records and engine snapshots.
//!
//! A deliberately boring little-endian format: no self-description, no
//! varints, no external serialization crate (the build is offline). Every
//! encoded blob travels behind a CRC32, so decoding can assume structural
//! sanity and fail loudly ([`DecodeError`]) on anything that still
//! disagrees — a decode error after a passing CRC means a format bug, not
//! bit rot.

use std::collections::HashMap;
use std::fmt;

use pm_core::{HistoryState, MonitorState};
use pm_model::{Object, ObjectId, UserId, ValueId};
use pm_porder::{Fingerprint, Preference, Relation};

/// One logged engine mutation. The serving path's only mutations are
/// object ingest and user churn — `EXPIRE` is a read-only wire verb
/// (window expiry is driven by arrivals) and is never logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// One ingested batch, with the server-assigned object ids (ids double
    /// as arrival timestamps, so replay re-mints the exact same stream).
    IngestBatch {
        /// The batch objects in submission order.
        objects: Vec<Object>,
    },
    /// A user registered mid-stream.
    Register {
        /// The engine-global user id the server assigned.
        user: UserId,
        /// The registered preference.
        preference: Preference,
    },
    /// A user's preference replaced in place.
    Update {
        /// The engine-global user id.
        user: UserId,
        /// The replacement preference.
        preference: Preference,
    },
    /// A user unregistered (engine-side swap-remove).
    Unregister {
        /// The engine-global user id.
        user: UserId,
    },
}

const TAG_INGEST: u8 = 1;
const TAG_REGISTER: u8 = 2;
const TAG_UPDATE: u8 = 3;
const TAG_UNREGISTER: u8 = 4;

/// Why a WAL record or snapshot payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the announced structure did.
    UnexpectedEnd,
    /// An unknown record/structure tag.
    BadTag(u8),
    /// A preference pair violated the strict-order invariants (reflexive
    /// or cyclic) — impossible for payloads we encoded ourselves.
    BadPreference(String),
    /// Trailing bytes after a complete decode.
    TrailingBytes(usize),
    /// A non-UTF-8 string field.
    BadString,
    /// A preference-table index past the table's end (v2 snapshots).
    BadIndex(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "payload truncated"),
            DecodeError::BadTag(tag) => write!(f, "unknown tag {tag}"),
            DecodeError::BadPreference(err) => write!(f, "invalid preference: {err}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            DecodeError::BadString => write!(f, "non-UTF-8 string"),
            DecodeError::BadIndex(i) => write!(f, "preference index {i} out of table range"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian byte writer.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn object(&mut self, o: &Object) {
        self.u64(o.id().raw());
        self.usize(o.values().len());
        for v in o.values() {
            self.u32(v.raw());
        }
    }
    /// The closure's tuples per attribute, ascending, so equal preferences
    /// encode to equal bytes.
    fn preference(&mut self, p: &Preference) {
        self.usize(p.arity());
        for (_, relation) in p.relations() {
            self.usize(relation.len());
            for (x, y) in relation.pairs() {
                self.u32(x.raw());
                self.u32(y.raw());
            }
        }
    }
}

/// Little-endian byte reader.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::UnexpectedEnd)?;
        if end > self.buf.len() {
            return Err(DecodeError::UnexpectedEnd);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::UnexpectedEnd)
    }
    /// A length about to drive a `Vec` preallocation: bounded by the bytes
    /// actually remaining, so a corrupt length cannot balloon memory.
    fn len_of(&mut self, per_item: usize) -> Result<usize, DecodeError> {
        let n = self.usize()?;
        if n.saturating_mul(per_item.max(1)) > self.buf.len().saturating_sub(self.pos) {
            return Err(DecodeError::UnexpectedEnd);
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.len_of(1)?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| DecodeError::BadString)
    }
    fn object(&mut self) -> Result<Object, DecodeError> {
        let id = ObjectId::new(self.u64()?);
        let n = self.len_of(4)?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(ValueId::new(self.u32()?));
        }
        Ok(Object::new(id, values))
    }
    fn preference(&mut self) -> Result<Preference, DecodeError> {
        let arity = self.len_of(8)?;
        let mut relations = Vec::with_capacity(arity);
        for _ in 0..arity {
            let n = self.len_of(8)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((ValueId::new(self.u32()?), ValueId::new(self.u32()?)));
            }
            // Pairs of a transitively closed strict order re-insert
            // cleanly in any order; an error means the payload was not
            // produced by our encoder.
            let relation = Relation::from_pairs(pairs)
                .map_err(|e| DecodeError::BadPreference(e.to_string()))?;
            relations.push(relation);
        }
        Ok(Preference::from_relations(relations))
    }
    fn finish(self) -> Result<(), DecodeError> {
        let rest = self.buf.len() - self.pos;
        if rest != 0 {
            return Err(DecodeError::TrailingBytes(rest));
        }
        Ok(())
    }
}

/// Encodes an ingest-batch payload straight from a borrowed slice: the
/// engine logs every batch on the hot path and must not deep-clone it into
/// an owned [`WalRecord`] first.
pub fn encode_ingest_batch(objects: &[Object]) -> Vec<u8> {
    let mut e = Enc::default();
    e.u8(TAG_INGEST);
    e.usize(objects.len());
    for o in objects {
        e.object(o);
    }
    e.buf
}

/// Encodes a register payload from borrowed parts.
pub fn encode_register(user: UserId, preference: &Preference) -> Vec<u8> {
    let mut e = Enc::default();
    e.u8(TAG_REGISTER);
    e.u32(user.raw());
    e.preference(preference);
    e.buf
}

/// Encodes an update payload from borrowed parts.
pub fn encode_update(user: UserId, preference: &Preference) -> Vec<u8> {
    let mut e = Enc::default();
    e.u8(TAG_UPDATE);
    e.u32(user.raw());
    e.preference(preference);
    e.buf
}

/// Encodes an unregister payload.
pub fn encode_unregister(user: UserId) -> Vec<u8> {
    let mut e = Enc::default();
    e.u8(TAG_UNREGISTER);
    e.u32(user.raw());
    e.buf
}

impl WalRecord {
    /// Encodes the record payload (framing and CRC are the log's job).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WalRecord::IngestBatch { objects } => encode_ingest_batch(objects),
            WalRecord::Register { user, preference } => encode_register(*user, preference),
            WalRecord::Update { user, preference } => encode_update(*user, preference),
            WalRecord::Unregister { user } => encode_unregister(*user),
        }
    }

    /// Decodes one record payload (inverse of [`WalRecord::encode`]).
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Dec::new(payload);
        let record = match d.u8()? {
            TAG_INGEST => {
                let n = d.len_of(12)?;
                let mut objects = Vec::with_capacity(n);
                for _ in 0..n {
                    objects.push(d.object()?);
                }
                WalRecord::IngestBatch { objects }
            }
            TAG_REGISTER => WalRecord::Register {
                user: UserId::new(d.u32()?),
                preference: d.preference()?,
            },
            TAG_UPDATE => WalRecord::Update {
                user: UserId::new(d.u32()?),
                preference: d.preference()?,
            },
            TAG_UNREGISTER => WalRecord::Unregister {
                user: UserId::new(d.u32()?),
            },
            tag => return Err(DecodeError::BadTag(tag)),
        };
        d.finish()?;
        Ok(record)
    }
}

/// A point-in-time image of everything the engine and its serving layer
/// must carry across a restart — exactly the PR-5 minimal state per shard
/// ([`MonitorState`]: compact history groups with id multiplicity plus the
/// observed-preference universe, or the sliding window), the flattened
/// per-shard memberships in registration order, the monotonic counters,
/// and the server's ingest bookkeeping (`next_id` and the QUERY cache).
#[derive(Debug, Clone, Default)]
pub struct EngineState {
    /// The backend spec string the engine was built with (recovery refuses
    /// to restore a snapshot into a differently-configured engine).
    pub backend: String,
    /// Shard count at snapshot time (must match on recovery — users are
    /// hash-partitioned by shard count).
    pub shards: u32,
    /// Object/preference arity.
    pub arity: u32,
    /// The snapshot covers WAL records `< last_lsn`; replay starts here.
    pub last_lsn: u64,
    /// The server's next object id to assign.
    pub next_id: u64,
    /// Engine lifetime counters.
    pub ingested: u64,
    /// Lifetime successful REGISTER count.
    pub registrations: u64,
    /// Lifetime successful UNREGISTER count.
    pub unregistrations: u64,
    /// Lifetime successful UPDATE count.
    pub updates: u64,
    /// Per-shard memberships in shard-local registration order: replaying
    /// `register` in this order reproduces each shard's local user ids.
    pub members: Vec<Vec<(UserId, Preference)>>,
    /// Per-shard monitor state (history or window, plus work counters).
    pub monitors: Vec<MonitorState>,
    /// The server's QUERY cache: retained object ids, oldest first.
    pub query_order: Vec<ObjectId>,
    /// The server's QUERY cache: target users per retained object.
    pub query_targets: Vec<(ObjectId, Vec<UserId>)>,
}

fn enc_stats(e: &mut Enc, s: &pm_core::MonitorStats) {
    e.u64(s.arrivals);
    e.u64(s.expirations);
    e.u64(s.comparisons);
    e.u64(s.notifications);
}

fn dec_stats(d: &mut Dec<'_>) -> Result<pm_core::MonitorStats, DecodeError> {
    let mut s = pm_core::MonitorStats::new();
    s.arrivals = d.u64()?;
    s.expirations = d.u64()?;
    s.comparisons = d.u64()?;
    s.notifications = d.u64()?;
    Ok(s)
}

/// The snapshot's preference dedup table, built while encoding: every
/// preference occurrence (shard memberships and observed-history sets) is
/// replaced by a `u32` index into one table of distinct preferences keyed
/// by [`Fingerprint`]. With a shared-preference population the table stays
/// small where spelling out each user's preference would not.
#[derive(Default)]
struct PrefTable<'a> {
    entries: Vec<(Fingerprint, &'a Preference)>,
    index: HashMap<Fingerprint, u32>,
}

impl<'a> PrefTable<'a> {
    fn index_of(&mut self, preference: &'a Preference) -> u32 {
        let fingerprint = preference.fingerprint();
        if let Some(&i) = self.index.get(&fingerprint) {
            // Guard against fingerprint collisions with a full equality
            // check; a colliding pair gets two table entries (decode
            // resolves by index, never by fingerprint, so duplicates in
            // the table are harmless).
            if self.entries[i as usize].1 == preference {
                return i;
            }
        }
        let i = u32::try_from(self.entries.len()).expect("preference table fits u32");
        self.entries.push((fingerprint, preference));
        self.index.entry(fingerprint).or_insert(i);
        i
    }
}

fn enc_monitor<'a>(e: &mut Enc, table: &mut PrefTable<'a>, m: &'a MonitorState) {
    match &m.history {
        Some(h) => {
            e.u8(1);
            e.usize(h.observed.len());
            for p in &h.observed {
                e.u32(table.index_of(p));
            }
            e.usize(h.objects.len());
            for o in &h.objects {
                e.object(o);
            }
            e.u64(h.pending);
            e.u64(h.evicted);
        }
        None => e.u8(0),
    }
    match &m.window {
        Some(objects) => {
            e.u8(1);
            e.usize(objects.len());
            for o in objects {
                e.object(o);
            }
        }
        None => e.u8(0),
    }
    enc_stats(e, &m.stats);
}

fn dec_pref_index(d: &mut Dec<'_>, table: &[Preference]) -> Result<Preference, DecodeError> {
    let i = d.u32()?;
    table
        .get(i as usize)
        .cloned()
        .ok_or(DecodeError::BadIndex(i))
}

fn dec_monitor(d: &mut Dec<'_>, table: &[Preference]) -> Result<MonitorState, DecodeError> {
    let history = match d.u8()? {
        0 => None,
        1 => {
            let np = d.len_of(4)?;
            let mut observed = Vec::with_capacity(np);
            for _ in 0..np {
                observed.push(dec_pref_index(d, table)?);
            }
            let no = d.len_of(12)?;
            let mut objects = Vec::with_capacity(no);
            for _ in 0..no {
                objects.push(d.object()?);
            }
            Some(HistoryState {
                observed,
                objects,
                pending: d.u64()?,
                evicted: d.u64()?,
            })
        }
        tag => return Err(DecodeError::BadTag(tag)),
    };
    let window = match d.u8()? {
        0 => None,
        1 => {
            let n = d.len_of(12)?;
            let mut objects = Vec::with_capacity(n);
            for _ in 0..n {
                objects.push(d.object()?);
            }
            Some(objects)
        }
        tag => return Err(DecodeError::BadTag(tag)),
    };
    Ok(MonitorState {
        history,
        window,
        stats: dec_stats(d)?,
    })
}

impl EngineState {
    /// Encodes the snapshot payload in the current (v2) format — behind the
    /// `PMSNAP02` magic — with one dedup table of distinct preferences and
    /// `u32` indices at every occurrence. The snapshot file adds magic, LSN
    /// and CRC around it.
    pub fn encode(&self) -> Vec<u8> {
        let mut table = PrefTable::default();
        let mut body = Enc::default();
        body.usize(self.members.len());
        for shard in &self.members {
            body.usize(shard.len());
            for (user, preference) in shard {
                body.u32(user.raw());
                body.u32(table.index_of(preference));
            }
        }
        body.usize(self.monitors.len());
        for m in &self.monitors {
            enc_monitor(&mut body, &mut table, m);
        }
        body.usize(self.query_order.len());
        for id in &self.query_order {
            body.u64(id.raw());
        }
        body.usize(self.query_targets.len());
        for (id, users) in &self.query_targets {
            body.u64(id.raw());
            body.usize(users.len());
            for u in users {
                body.u32(u.raw());
            }
        }

        let mut e = Enc::default();
        e.str(&self.backend);
        e.u32(self.shards);
        e.u32(self.arity);
        e.u64(self.last_lsn);
        e.u64(self.next_id);
        e.u64(self.ingested);
        e.u64(self.registrations);
        e.u64(self.unregistrations);
        e.u64(self.updates);
        e.usize(table.entries.len());
        for (fingerprint, preference) in &table.entries {
            e.buf.extend_from_slice(&fingerprint.to_le_bytes());
            e.preference(preference);
        }
        e.buf.extend_from_slice(&body.buf);
        e.buf
    }

    /// Decodes a current-format (v2) snapshot payload (inverse of
    /// [`EngineState::encode`]). Every table entry's stored fingerprint is
    /// checked against the decoded preference, so a torn or hand-edited
    /// table fails loudly instead of silently merging users.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Dec::new(payload);
        let backend = d.str()?;
        let shards = d.u32()?;
        let arity = d.u32()?;
        let last_lsn = d.u64()?;
        let next_id = d.u64()?;
        let ingested = d.u64()?;
        let registrations = d.u64()?;
        let unregistrations = d.u64()?;
        let updates = d.u64()?;
        let ntable = d.len_of(16)?;
        let mut table = Vec::with_capacity(ntable);
        for _ in 0..ntable {
            let fingerprint = Fingerprint::from_le_bytes(d.take(16)?.try_into().unwrap());
            let preference = d.preference()?;
            if preference.fingerprint() != fingerprint {
                return Err(DecodeError::BadPreference(
                    "table fingerprint disagrees with its preference".into(),
                ));
            }
            table.push(preference);
        }
        let nshards = d.len_of(8)?;
        let mut members = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            let n = d.len_of(8)?;
            let mut shard = Vec::with_capacity(n);
            for _ in 0..n {
                let user = UserId::new(d.u32()?);
                shard.push((user, dec_pref_index(&mut d, &table)?));
            }
            members.push(shard);
        }
        let nmon = d.len_of(2)?;
        let mut monitors = Vec::with_capacity(nmon);
        for _ in 0..nmon {
            monitors.push(dec_monitor(&mut d, &table)?);
        }
        let norder = d.len_of(8)?;
        let mut query_order = Vec::with_capacity(norder);
        for _ in 0..norder {
            query_order.push(ObjectId::new(d.u64()?));
        }
        let ntargets = d.len_of(8)?;
        let mut query_targets = Vec::with_capacity(ntargets);
        for _ in 0..ntargets {
            let id = ObjectId::new(d.u64()?);
            let n = d.len_of(4)?;
            let mut users = Vec::with_capacity(n);
            for _ in 0..n {
                users.push(UserId::new(d.u32()?));
            }
            query_targets.push((id, users));
        }
        let state = EngineState {
            backend,
            shards,
            arity,
            last_lsn,
            next_id,
            ingested,
            registrations,
            unregistrations,
            updates,
            members,
            monitors,
            query_order,
            query_targets,
        };
        d.finish()?;
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_model::AttrId;

    fn pref() -> Preference {
        let mut p = Preference::new(2);
        p.relation_mut(AttrId::new(0))
            .insert(ValueId::new(0), ValueId::new(1))
            .unwrap();
        p.relation_mut(AttrId::new(1))
            .insert(ValueId::new(2), ValueId::new(3))
            .unwrap();
        p
    }

    fn obj(id: u64, vals: &[u32]) -> Object {
        Object::new(
            ObjectId::new(id),
            vals.iter().map(|&v| ValueId::new(v)).collect(),
        )
    }

    #[test]
    fn wal_record_roundtrip() {
        let records = vec![
            WalRecord::IngestBatch {
                objects: vec![obj(7, &[1, 2]), obj(8, &[3, 4])],
            },
            WalRecord::Register {
                user: UserId::new(3),
                preference: pref(),
            },
            WalRecord::Update {
                user: UserId::new(3),
                preference: Preference::new(2),
            },
            WalRecord::Unregister {
                user: UserId::new(0),
            },
        ];
        for record in records {
            let bytes = record.encode();
            assert_eq!(WalRecord::decode(&bytes).unwrap(), record);
        }
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let bytes = WalRecord::Register {
            user: UserId::new(1),
            preference: pref(),
        }
        .encode();
        assert!(WalRecord::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            WalRecord::decode(&extended),
            Err(DecodeError::TrailingBytes(1))
        );
        assert_eq!(WalRecord::decode(&[99]), Err(DecodeError::BadTag(99)));
    }

    #[test]
    fn corrupt_length_cannot_balloon_allocation() {
        // An IngestBatch claiming u64::MAX objects must fail fast instead
        // of preallocating.
        let mut bytes = vec![super::TAG_INGEST];
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(WalRecord::decode(&bytes), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn equal_preferences_encode_to_equal_bytes() {
        // One preference over 100 values per attribute (two-word rows),
        // reached by three insertion orders: cover edges forward, cover
        // edges backward, and the whole closure in a scrambled order.
        let edges: Vec<(u32, u32)> = (0..99u32)
            .flat_map(|x| [(x, x + 1), (x, (x * 7 + 3) % 100)])
            .filter(|&(x, y)| y > x)
            .collect();
        let build = |order: &mut dyn Iterator<Item = (u32, u32)>| {
            let pairs: Vec<(ValueId, ValueId)> = order
                .map(|(x, y)| (ValueId::new(x), ValueId::new(y)))
                .collect();
            let relation = Relation::from_pairs(pairs.iter().copied()).unwrap();
            let mut stepwise = Relation::new();
            for &(x, y) in pairs.iter().rev() {
                stepwise.insert(x, y).unwrap();
            }
            assert_eq!(relation, stepwise);
            Preference::from_relations(vec![relation, Relation::new(), stepwise])
        };
        let forward = build(&mut edges.iter().copied());
        let backward = build(&mut edges.iter().rev().copied());
        let closure: Vec<(u32, u32)> = forward
            .relation(AttrId::new(0))
            .pairs()
            .map(|(x, y)| (x.raw(), y.raw()))
            .collect();
        let mut scrambled: Vec<(u32, u32)> = closure.clone();
        scrambled.sort_unstable_by_key(|&(x, y)| (x * 31 + y * 17) % 101);
        let from_closure = build(&mut scrambled.into_iter());
        assert_eq!(forward, backward);
        assert_eq!(forward, from_closure);
        let bytes = encode_register(UserId::new(0), &forward);
        assert_eq!(bytes, encode_register(UserId::new(0), &backward));
        assert_eq!(bytes, encode_register(UserId::new(0), &from_closure));
        match WalRecord::decode(&bytes).unwrap() {
            WalRecord::Register { preference, .. } => assert_eq!(preference, forward),
            other => panic!("decoded {other:?}"),
        }
        assert_eq!(encode_update(UserId::new(0), &forward)[1..], bytes[1..]);
    }

    fn rich_state() -> EngineState {
        EngineState {
            backend: "ftv:0.4:compact".into(),
            shards: 2,
            arity: 2,
            last_lsn: 42,
            next_id: 1000,
            ingested: 999,
            registrations: 5,
            unregistrations: 2,
            updates: 1,
            members: vec![
                vec![(UserId::new(0), pref())],
                vec![
                    (UserId::new(1), Preference::new(2)),
                    (UserId::new(2), pref()),
                ],
            ],
            monitors: vec![
                MonitorState {
                    history: Some(HistoryState {
                        observed: vec![pref()],
                        objects: vec![obj(1, &[0, 2])],
                        pending: 17,
                        evicted: 3,
                    }),
                    window: None,
                    stats: {
                        let mut s = pm_core::MonitorStats::new();
                        s.arrivals = 999;
                        s.comparisons = 1234;
                        s
                    },
                },
                MonitorState {
                    history: None,
                    window: Some(vec![obj(2, &[1, 3])]),
                    stats: pm_core::MonitorStats::new(),
                },
            ],
            query_order: vec![ObjectId::new(1), ObjectId::new(2)],
            query_targets: vec![(ObjectId::new(1), vec![UserId::new(0), UserId::new(2)])],
        }
    }

    fn assert_state_eq(decoded: &EngineState, state: &EngineState) {
        assert_eq!(decoded.backend, state.backend);
        assert_eq!(decoded.shards, state.shards);
        assert_eq!(decoded.last_lsn, state.last_lsn);
        assert_eq!(decoded.next_id, state.next_id);
        assert_eq!(decoded.members, state.members);
        assert_eq!(decoded.query_order, state.query_order);
        assert_eq!(decoded.query_targets, state.query_targets);
        assert_eq!(decoded.monitors.len(), 2);
        assert_eq!(decoded.monitors[0].history, state.monitors[0].history,);
        assert_eq!(decoded.monitors[0].stats.comparisons, 1234);
        assert_eq!(decoded.monitors[1].window, state.monitors[1].window);
    }

    #[test]
    fn engine_state_roundtrip() {
        let state = rich_state();
        let decoded = EngineState::decode(&state.encode()).unwrap();
        assert_state_eq(&decoded, &state);
    }

    #[test]
    fn v2_table_fingerprint_mismatch_is_rejected() {
        let state = EngineState {
            backend: "baseline".into(),
            shards: 1,
            arity: 2,
            members: vec![vec![(UserId::new(0), pref())]],
            ..EngineState::default()
        };
        let bytes = state.encode();
        let fp = pref().fingerprint().to_le_bytes();
        let pos = bytes
            .windows(16)
            .position(|w| w == fp)
            .expect("table entry carries the fingerprint");
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x01;
        assert!(matches!(
            EngineState::decode(&corrupt),
            Err(DecodeError::BadPreference(_))
        ));
    }

    #[test]
    fn v2_out_of_range_index_is_rejected() {
        let state = EngineState {
            backend: "baseline".into(),
            shards: 1,
            arity: 2,
            members: vec![vec![(UserId::new(0), pref())]],
            ..EngineState::default()
        };
        let mut bytes = state.encode();
        // With no monitors and empty query caches the tail is fixed: three
        // empty-section counts (8 bytes each), preceded by the sole
        // member's 4-byte preference index.
        let n = bytes.len();
        bytes[n - 28..n - 24].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            EngineState::decode(&bytes),
            Err(DecodeError::BadIndex(7))
        ));
    }

    #[test]
    fn v2_single_byte_corruption_never_panics() {
        let bytes = rich_state().encode();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0xff;
            let _ = EngineState::decode(&flipped);
        }
    }
}
