//! Typed responses and the two wire renderings.
//!
//! Every verb handler returns a [`Response`]; nothing above the renderers
//! builds wire strings. The same value renders as either of two negotiated
//! wire formats (see `HELLO` in [`crate::protocol`]):
//!
//! - **text** ([`write_text`]): the classic newline-delimited `OK`/`ERR`
//!   lines, byte-identical to the pre-typed protocol.
//! - **frame** ([`write_frame`]): a length-prefixed binary frame
//!   `[u32 BE length][u8 kind][payload]` where `length` counts the kind
//!   byte plus the payload. Integers are big-endian and fixed-width: user
//!   ids are `u32`, object ids `u64`, counts `u32`, strings are UTF-8
//!   (`u16 BE` length-prefixed when embedded mid-payload, trailing
//!   otherwise). The kind byte is the variant's wire tag listed below.
//!
//! | kind | variant |
//! |------|---------|
//! | 0 | `Err` |
//! | 1 | `Ingested` |
//! | 2 | `Expired` |
//! | 3 | `Query` |
//! | 4 | `Frontier` |
//! | 5 | `Registered` |
//! | 6 | `Updated` |
//! | 7 | `Unregistered` |
//! | 8 | `Stats` |
//! | 9 | `Metrics` |
//! | 10 | `Health` |
//! | 11 | `Hello` |
//! | 12 | `Subscribed` |
//! | 13 | `Unsubscribed` |
//! | 14 | `Bye` |
//! | 15 | `Event` |
//! | 16 | `Snapshot` |
//! | 17 | `Exported` |
//! | 18 | `NodeHello` |
//!
//! Wire limits are enforced by saturation, never by wrapping: embedded
//! strings are truncated to the longest UTF-8 prefix that fits their
//! `u16 BE` length prefix, and id-list counts saturate at `u32::MAX` with
//! the encoded elements capped to the encoded count — a frame always
//! parses to exactly what its prefixes announce.
//!
//! Both renderings append to a caller-owned byte buffer, so the serving
//! layer can reuse one buffer across replies; ids are written by one
//! decimal writer ([`write_ids`]) with no per-id allocation. An `EVENT`
//! push renders from a borrowed run of deltas ([`write_event`]) through the
//! same per-mode encoders as a [`Response::Event`].

use std::io::Write;

use pm_core::{Arrival, FrontierDelta};
use pm_model::{ObjectId, UserId};

pub use pm_reactor::conn::WireMode;

/// A typed server response — one per request, plus the asynchronous
/// [`Response::Event`] pushes a subscription produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `INGEST` succeeded: the processed arrivals, in id order. Carries the
    /// full [`Arrival`]s (deltas included) so the serving layer can fan
    /// frontier events out to subscribers from the same value it renders.
    Ingested(Vec<Arrival>),
    /// `EXPIRE`: cumulative window expirations.
    Expired {
        /// Lifetime expiration count.
        expirations: u64,
        /// Whether the backend is sliding-window (append-only backends
        /// answer with a clarifying suffix).
        sliding: bool,
    },
    /// `QUERY`: the recorded target users of a recent arrival.
    Query {
        /// The queried object.
        object: ObjectId,
        /// Its recorded target users, ascending.
        users: Vec<UserId>,
    },
    /// `FRONTIER`: a user's current Pareto frontier.
    Frontier {
        /// The queried user.
        user: UserId,
        /// Frontier object ids, ascending.
        objects: Vec<ObjectId>,
    },
    /// `REGISTER` succeeded.
    Registered {
        /// The registered user.
        user: UserId,
        /// The shard that owns it.
        shard: usize,
    },
    /// `UPDATE` succeeded.
    Updated {
        /// The updated user.
        user: UserId,
        /// The shard that owns it.
        shard: usize,
    },
    /// `UNREGISTER` succeeded.
    Unregistered(UserId),
    /// `SNAPSHOT` succeeded: a durable snapshot was written.
    Snapshot {
        /// The WAL LSN the snapshot covers (records `< lsn` need no replay).
        lsn: u64,
    },
    /// `STATS`: the rendered engine snapshot.
    Stats(String),
    /// `METRICS`: the Prometheus text-format exposition body.
    Metrics(String),
    /// `HEALTH`: liveness and engine identity.
    Health {
        /// Backend spec string.
        backend: String,
        /// Shard count.
        shards: usize,
        /// Registered user count.
        users: usize,
        /// Engine uptime in milliseconds.
        uptime_ms: u128,
    },
    /// `HELLO` succeeded: the negotiated capabilities. The connection
    /// renders this response in its *old* mode, then switches to `proto`.
    Hello {
        /// The negotiated wire mode.
        proto: WireMode,
        /// Server version (crate version).
        version: String,
        /// Backend spec string.
        backend: String,
        /// Shard count.
        shards: usize,
        /// Attributes per object.
        arity: usize,
    },
    /// `SUBSCRIBE` succeeded: the frontier snapshot subsequent
    /// [`Response::Event`] deltas apply to (snapshot and subscription are
    /// atomic — no delta between them can be missed).
    Subscribed {
        /// The subscribed user.
        user: UserId,
        /// The user's frontier at subscription time, ascending.
        snapshot: Vec<ObjectId>,
    },
    /// `UNSUBSCRIBE` succeeded.
    Unsubscribed(UserId),
    /// `EXPORT` succeeded: a registered user's preference rows, rendered
    /// in REGISTER syntax so a coordinator can replay them verbatim on
    /// another node.
    Exported {
        /// The exported user.
        user: UserId,
        /// The preference rows (`;`-separated attributes, `x>y` comma
        /// lists, `-` for an empty attribute), deterministic order.
        rows: String,
    },
    /// `HELLO node` succeeded: the node-mode handshake, extending the
    /// client handshake with the node's applied position so a coordinator
    /// can fence backlog replay. The connection renders this response in
    /// its *old* mode, then switches to `proto`.
    NodeHello {
        /// The negotiated wire mode.
        proto: WireMode,
        /// Server version (crate version).
        version: String,
        /// Backend spec string.
        backend: String,
        /// Shard count.
        shards: usize,
        /// Attributes per object.
        arity: usize,
        /// The node's applied position: the id the next ingested object
        /// will be assigned (equals the count of objects ever applied).
        next_id: u64,
    },
    /// Asynchronous push: one user's frontier deltas from one arrival (or
    /// membership change), in ascending object order.
    Event {
        /// The subscribed user whose frontier changed.
        user: UserId,
        /// The net membership changes, ascending by object id.
        deltas: Vec<FrontierDelta>,
    },
    /// `QUIT`: goodbye, the connection closes after this response.
    Bye,
    /// Any failed request; the message is relayed verbatim after `ERR `.
    Err(String),
}

impl Response {
    /// Whether this response reports a failure.
    pub fn is_err(&self) -> bool {
        matches!(self, Response::Err(_))
    }
}

/// Appends `v` in decimal: the one digit writer behind every id the text
/// protocol renders (a reply can name thousands of users, so each id is
/// written straight into the output instead of through `to_string`).
#[inline]
fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + v as u8;
    }
    out.extend_from_slice(&digits[at..]);
}

/// `00`, `01`, ..., `99`: [`write_u64`] emits two digits per division.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends `ids` in decimal, comma-separated (`1,9`; nothing for none) —
/// the text protocol's one id-list encoding.
pub fn write_ids(out: &mut Vec<u8>, ids: impl IntoIterator<Item = u64>) {
    for (i, id) in ids.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_u64(out, id);
    }
}

fn write_users(out: &mut Vec<u8>, users: &[UserId]) {
    write_ids(out, users.iter().map(|u| u64::from(u.raw())));
}

fn write_objects(out: &mut Vec<u8>, objects: &[ObjectId]) {
    write_ids(out, objects.iter().map(|o| o.raw()));
}

/// The text `EVENT <user> +a,-b` line (without its newline) for one
/// user's deltas — shared by [`write_text`] and [`write_event`].
fn text_event(out: &mut Vec<u8>, user: UserId, deltas: &[FrontierDelta]) {
    out.extend_from_slice(b"EVENT ");
    write_u64(out, u64::from(user.raw()));
    out.push(b' ');
    for (i, delta) in deltas.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(if delta.entered { b'+' } else { b'-' });
        write_u64(out, delta.object.raw());
    }
}

/// Appends a response's single text-protocol line (without the trailing
/// newline), byte-identical to the historical `format!` strings. `METRICS`
/// embeds interior newlines (header line + exposition body).
pub fn write_text(response: &Response, out: &mut Vec<u8>) {
    // `io::Write` into a `Vec` cannot fail.
    let _ = text_line(response, out);
}

fn text_line(response: &Response, out: &mut Vec<u8>) -> std::io::Result<()> {
    match response {
        Response::Ingested(arrivals) => {
            out.extend_from_slice(b"OK INGESTED ");
            write_u64(out, arrivals.len() as u64);
            out.push(b' ');
            for (i, arrival) in arrivals.iter().enumerate() {
                if i > 0 {
                    out.push(b';');
                }
                write_u64(out, arrival.object.raw());
                out.push(b':');
                write_users(out, &arrival.target_users);
            }
            Ok(())
        }
        Response::Expired {
            expirations,
            sliding,
        } => {
            if *sliding {
                write!(out, "OK EXPIRED {expirations}")
            } else {
                write!(
                    out,
                    "OK EXPIRED {expirations} (append-only backend, nothing expires)"
                )
            }
        }
        Response::Query { object, users } => {
            write!(out, "OK QUERY {} ", object.raw())?;
            write_users(out, users);
            Ok(())
        }
        Response::Frontier { user, objects } => {
            write!(out, "OK FRONTIER {} ", user.raw())?;
            write_objects(out, objects);
            Ok(())
        }
        Response::Registered { user, shard } => {
            write!(out, "OK REGISTERED {} shard={shard}", user.raw())
        }
        Response::Updated { user, shard } => {
            write!(out, "OK UPDATED {} shard={shard}", user.raw())
        }
        Response::Unregistered(user) => write!(out, "OK UNREGISTERED {}", user.raw()),
        Response::Snapshot { lsn } => write!(out, "OK SNAPSHOT lsn={lsn}"),
        Response::Stats(snapshot) => write!(out, "OK STATS {snapshot}"),
        // The header names the body's byte length so clients can read the
        // multi-line exposition exactly; the connection's trailing newline
        // yields the blank-line terminator.
        Response::Metrics(body) => write!(out, "OK METRICS {}\n{body}", body.len()),
        Response::Health {
            backend,
            shards,
            users,
            uptime_ms,
        } => write!(
            out,
            "OK HEALTH pm-server backend={backend} shards={shards} users={users} \
             uptime_ms={uptime_ms}"
        ),
        Response::Hello {
            proto,
            version,
            backend,
            shards,
            arity,
        } => write!(
            out,
            "OK HELLO pm-server proto={} version={version} backend={backend} \
             shards={shards} arity={arity}",
            proto.token()
        ),
        Response::Subscribed { user, snapshot } => {
            write!(out, "OK SUBSCRIBED {} ", user.raw())?;
            write_objects(out, snapshot);
            Ok(())
        }
        Response::Unsubscribed(user) => write!(out, "OK UNSUBSCRIBED {}", user.raw()),
        Response::Exported { user, rows } => write!(out, "OK EXPORTED {} {rows}", user.raw()),
        Response::NodeHello {
            proto,
            version,
            backend,
            shards,
            arity,
            next_id,
        } => write!(
            out,
            "OK HELLO pm-node proto={} version={version} backend={backend} \
             shards={shards} arity={arity} next_id={next_id}",
            proto.token()
        ),
        Response::Event { user, deltas } => {
            text_event(out, *user, deltas);
            Ok(())
        }
        Response::Bye => write!(out, "OK BYE"),
        Response::Err(e) => write!(out, "ERR {e}"),
    }
}

/// Renders a response as its single text-protocol line (without the
/// trailing newline); see [`write_text`].
pub fn render_text(response: &Response) -> String {
    let mut out = Vec::new();
    write_text(response, &mut out);
    String::from_utf8(out).expect("text renderings are UTF-8")
}

/// Appends `response` as one complete message in `mode`: its text line
/// plus the newline, or one frame.
pub fn write_message(response: &Response, mode: WireMode, out: &mut Vec<u8>) {
    match mode {
        WireMode::Text => {
            write_text(response, out);
            out.push(b'\n');
        }
        WireMode::Frame => write_frame(response, out),
    }
}

/// Appends the `EVENT` message for one user's deltas in `mode` straight
/// from the borrowed run — the same bytes [`write_message`] produces for a
/// [`Response::Event`] holding those deltas, without building one.
pub fn write_event(user: UserId, deltas: &[FrontierDelta], mode: WireMode, out: &mut Vec<u8>) {
    match mode {
        WireMode::Text => {
            text_event(out, user, deltas);
            out.push(b'\n');
        }
        WireMode::Frame => framed(out, |out| frame_event(out, user, deltas)),
    }
}

/// Narrows a `usize` scalar (shard index, shard count, user count, arity)
/// to its `u32` wire field, saturating instead of wrapping.
fn saturating_u32(v: usize) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// Writes a `u16 BE` length-prefixed string, truncating an oversized value
/// to the longest prefix that both fits the prefix and ends on a UTF-8
/// character boundary — a raw byte cut could split a multi-byte character
/// and hand frame clients invalid UTF-8.
fn put_str(buf: &mut Vec<u8>, s: &str) {
    let mut len = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    buf.extend_from_slice(&(len as u16).to_be_bytes());
    buf.extend_from_slice(&s.as_bytes()[..len]);
}

/// Writes a `u32 BE` element count, saturating at `u32::MAX`, and returns
/// how many elements the caller may encode — a plain `as u32` cast would
/// wrap for oversized collections and desynchronize count and payload.
fn put_count(buf: &mut Vec<u8>, len: usize) -> usize {
    let count = u32::try_from(len).unwrap_or(u32::MAX);
    buf.extend_from_slice(&count.to_be_bytes());
    count as usize
}

fn put_users(buf: &mut Vec<u8>, users: &[UserId]) {
    let count = put_count(buf, users.len());
    for user in &users[..count] {
        buf.extend_from_slice(&user.raw().to_be_bytes());
    }
}

fn put_objects(buf: &mut Vec<u8>, objects: &[ObjectId]) {
    let count = put_count(buf, objects.len());
    for object in &objects[..count] {
        buf.extend_from_slice(&object.raw().to_be_bytes());
    }
}

/// The frame payload of one user's `EVENT` (`u32` user, `u32` count, then
/// `u8` entered + `u64` object per delta) — shared by [`write_frame`] and
/// [`write_event`]. Returns the kind byte.
fn frame_event(out: &mut Vec<u8>, user: UserId, deltas: &[FrontierDelta]) -> u8 {
    out.extend_from_slice(&user.raw().to_be_bytes());
    let count = put_count(out, deltas.len());
    for delta in &deltas[..count] {
        out.push(u8::from(delta.entered));
        out.extend_from_slice(&delta.object.raw().to_be_bytes());
    }
    15
}

/// Appends one frame `[u32 BE length][u8 kind][payload]`: `payload` writes
/// the payload after the header and returns the kind byte, and the length
/// is patched in afterwards.
fn framed(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>) -> u8) {
    let start = out.len();
    out.extend_from_slice(&[0; 5]);
    out[start + 4] = payload(out);
    // The outer length prefix is a u32 too: a body that cannot be framed
    // (>4 GiB, practically unreachable) becomes a protocol error instead of
    // a wrapped length that would desynchronize the stream.
    match u32::try_from(out.len() - start - 4) {
        Ok(len) => out[start..start + 4].copy_from_slice(&len.to_be_bytes()),
        Err(_) => {
            const TOO_LARGE: &[u8] = b"response too large for one frame";
            out.truncate(start);
            out.extend_from_slice(&(1 + TOO_LARGE.len() as u32).to_be_bytes());
            out.push(0);
            out.extend_from_slice(TOO_LARGE);
        }
    }
}

/// Appends a response as one binary frame (see the module docs for the
/// layout): `[u32 BE length][u8 kind][payload]`.
pub fn write_frame(response: &Response, out: &mut Vec<u8>) {
    framed(out, |body| match response {
        Response::Err(e) => {
            body.extend_from_slice(e.as_bytes());
            0
        }
        Response::Ingested(arrivals) => {
            let count = put_count(body, arrivals.len());
            for arrival in &arrivals[..count] {
                body.extend_from_slice(&arrival.object.raw().to_be_bytes());
                put_users(body, &arrival.target_users);
            }
            1
        }
        Response::Expired {
            expirations,
            sliding,
        } => {
            body.extend_from_slice(&expirations.to_be_bytes());
            body.push(u8::from(*sliding));
            2
        }
        Response::Query { object, users } => {
            body.extend_from_slice(&object.raw().to_be_bytes());
            put_users(body, users);
            3
        }
        Response::Frontier { user, objects } => {
            body.extend_from_slice(&user.raw().to_be_bytes());
            put_objects(body, objects);
            4
        }
        Response::Registered { user, shard } => {
            body.extend_from_slice(&user.raw().to_be_bytes());
            body.extend_from_slice(&saturating_u32(*shard).to_be_bytes());
            5
        }
        Response::Updated { user, shard } => {
            body.extend_from_slice(&user.raw().to_be_bytes());
            body.extend_from_slice(&saturating_u32(*shard).to_be_bytes());
            6
        }
        Response::Unregistered(user) => {
            body.extend_from_slice(&user.raw().to_be_bytes());
            7
        }
        Response::Snapshot { lsn } => {
            body.extend_from_slice(&lsn.to_be_bytes());
            16
        }
        Response::Stats(snapshot) => {
            body.extend_from_slice(snapshot.as_bytes());
            8
        }
        Response::Metrics(exposition) => {
            body.extend_from_slice(exposition.as_bytes());
            9
        }
        Response::Health {
            backend,
            shards,
            users,
            uptime_ms,
        } => {
            put_str(body, backend);
            body.extend_from_slice(&saturating_u32(*shards).to_be_bytes());
            body.extend_from_slice(&saturating_u32(*users).to_be_bytes());
            let uptime = u64::try_from(*uptime_ms).unwrap_or(u64::MAX);
            body.extend_from_slice(&uptime.to_be_bytes());
            10
        }
        Response::Hello {
            proto,
            version,
            backend,
            shards,
            arity,
        } => {
            body.push(match proto {
                WireMode::Text => 0,
                WireMode::Frame => 1,
            });
            put_str(body, version);
            put_str(body, backend);
            body.extend_from_slice(&saturating_u32(*shards).to_be_bytes());
            body.extend_from_slice(&saturating_u32(*arity).to_be_bytes());
            11
        }
        Response::Subscribed { user, snapshot } => {
            body.extend_from_slice(&user.raw().to_be_bytes());
            put_objects(body, snapshot);
            12
        }
        Response::Unsubscribed(user) => {
            body.extend_from_slice(&user.raw().to_be_bytes());
            13
        }
        Response::Exported { user, rows } => {
            body.extend_from_slice(&user.raw().to_be_bytes());
            body.extend_from_slice(rows.as_bytes());
            17
        }
        Response::NodeHello {
            proto,
            version,
            backend,
            shards,
            arity,
            next_id,
        } => {
            body.push(match proto {
                WireMode::Text => 0,
                WireMode::Frame => 1,
            });
            put_str(body, version);
            put_str(body, backend);
            body.extend_from_slice(&saturating_u32(*shards).to_be_bytes());
            body.extend_from_slice(&saturating_u32(*arity).to_be_bytes());
            body.extend_from_slice(&next_id.to_be_bytes());
            18
        }
        Response::Bye => 14,
        Response::Event { user, deltas } => frame_event(body, *user, deltas),
    });
}

/// Renders a response as one binary frame; see [`write_frame`].
pub fn render_frame(response: &Response) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(response, &mut frame);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_rendering_matches_the_historical_strings() {
        assert_eq!(
            render_text(&Response::Ingested(vec![Arrival {
                object: ObjectId::new(0),
                target_users: vec![UserId::new(1), UserId::new(2)],
                deltas: vec![],
            }])),
            "OK INGESTED 1 0:1,2"
        );
        assert_eq!(
            render_text(&Response::Expired {
                expirations: 6,
                sliding: true
            }),
            "OK EXPIRED 6"
        );
        assert_eq!(
            render_text(&Response::Expired {
                expirations: 0,
                sliding: false
            }),
            "OK EXPIRED 0 (append-only backend, nothing expires)"
        );
        assert_eq!(
            render_text(&Response::Registered {
                user: UserId::new(9),
                shard: 1
            }),
            "OK REGISTERED 9 shard=1"
        );
        assert_eq!(render_text(&Response::Bye), "OK BYE");
        assert_eq!(render_text(&Response::Err("nope".to_owned())), "ERR nope");
    }

    #[test]
    fn formats_id_lists() {
        let ids = |ids: &[u64]| {
            let mut out = Vec::new();
            write_ids(&mut out, ids.iter().copied());
            String::from_utf8(out).unwrap()
        };
        assert_eq!(ids(&[1, 9]), "1,9");
        assert_eq!(ids(&[]), "");
        assert_eq!(ids(&[0, u64::MAX]), "0,18446744073709551615");
    }

    #[test]
    fn borrowed_events_match_typed_events_in_both_modes() {
        let user = UserId::new(u32::MAX);
        let deltas = vec![
            FrontierDelta::enter(user, ObjectId::new(0)),
            FrontierDelta::leave(user, ObjectId::new(u64::MAX)),
        ];
        let typed = Response::Event {
            user,
            deltas: deltas.clone(),
        };
        for mode in [WireMode::Text, WireMode::Frame] {
            let (mut borrowed, mut whole) = (vec![7], vec![7]);
            write_event(user, &deltas, mode, &mut borrowed);
            write_message(&typed, mode, &mut whole);
            assert_eq!(borrowed, whole);
        }
        assert_eq!(
            render_text(&typed),
            "EVENT 4294967295 +0,-18446744073709551615"
        );
    }

    #[test]
    fn event_lines_render_signed_object_lists() {
        let user = UserId::new(3);
        assert_eq!(
            render_text(&Response::Event {
                user,
                deltas: vec![
                    FrontierDelta::enter(user, ObjectId::new(7)),
                    FrontierDelta::leave(user, ObjectId::new(9)),
                ],
            }),
            "EVENT 3 +7,-9"
        );
    }

    #[test]
    fn frames_are_length_prefixed_and_tagged() {
        let frame = render_frame(&Response::Bye);
        assert_eq!(frame, vec![0, 0, 0, 1, 14]);

        let frame = render_frame(&Response::Event {
            user: UserId::new(3),
            deltas: vec![FrontierDelta::enter(UserId::new(3), ObjectId::new(7))],
        });
        let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
        assert_eq!(frame[4], 15);
        assert_eq!(&frame[5..9], &3u32.to_be_bytes());
        assert_eq!(&frame[9..13], &1u32.to_be_bytes());
        assert_eq!(frame[13], 1);
        assert_eq!(&frame[14..22], &7u64.to_be_bytes());
    }

    #[test]
    fn err_frames_carry_the_message() {
        let frame = render_frame(&Response::Err("lagged".to_owned()));
        assert_eq!(frame[4], 0);
        assert_eq!(&frame[5..], b"lagged");
    }

    #[test]
    fn snapshot_renders_in_both_wire_modes() {
        assert_eq!(
            render_text(&Response::Snapshot { lsn: 42 }),
            "OK SNAPSHOT lsn=42"
        );
        let frame = render_frame(&Response::Snapshot { lsn: 42 });
        assert_eq!(frame[4], 16);
        assert_eq!(&frame[5..], &42u64.to_be_bytes());
    }

    #[test]
    fn cluster_responses_render_in_both_wire_modes() {
        assert_eq!(
            render_text(&Response::Exported {
                user: UserId::new(7),
                rows: "0>1,1>2;-;3>0".to_owned(),
            }),
            "OK EXPORTED 7 0>1,1>2;-;3>0"
        );
        let frame = render_frame(&Response::Exported {
            user: UserId::new(7),
            rows: "-;-".to_owned(),
        });
        assert_eq!(frame[4], 17);
        assert_eq!(&frame[5..9], &7u32.to_be_bytes());
        assert_eq!(&frame[9..], b"-;-");

        let node_hello = Response::NodeHello {
            proto: WireMode::Text,
            version: "0.1.0".to_owned(),
            backend: "baseline".to_owned(),
            shards: 2,
            arity: 3,
            next_id: 40,
        };
        assert_eq!(
            render_text(&node_hello),
            "OK HELLO pm-node proto=text version=0.1.0 backend=baseline \
             shards=2 arity=3 next_id=40"
        );
        let frame = render_frame(&node_hello);
        assert_eq!(frame[4], 18);
        assert_eq!(&frame[frame.len() - 8..], &40u64.to_be_bytes());
    }

    #[test]
    fn put_str_truncates_on_a_char_boundary() {
        // 65,534 ASCII bytes followed by a 3-byte character: the u16::MAX
        // byte cap falls mid-character, so the encoder must back up to the
        // boundary instead of emitting invalid UTF-8.
        let mut s = "a".repeat(u16::MAX as usize - 1);
        s.push('€');
        let mut buf = Vec::new();
        put_str(&mut buf, &s);
        let len = u16::from_be_bytes(buf[..2].try_into().unwrap()) as usize;
        assert_eq!(len, u16::MAX as usize - 1);
        assert_eq!(buf.len(), 2 + len);
        assert!(std::str::from_utf8(&buf[2..]).is_ok());

        // A short string is untouched.
        let mut buf = Vec::new();
        put_str(&mut buf, "héllo");
        assert_eq!(&buf[..2], &(6u16).to_be_bytes());
        assert_eq!(&buf[2..], "héllo".as_bytes());
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        // A count one past u32::MAX would wrap to 0 under `as u32`; the
        // saturating encoder pins it to u32::MAX and tells the caller to
        // encode exactly that many elements.
        let mut buf = Vec::new();
        let count = put_count(&mut buf, u32::MAX as usize + 1);
        assert_eq!(&buf, &u32::MAX.to_be_bytes());
        assert_eq!(count, u32::MAX as usize);

        let mut buf = Vec::new();
        assert_eq!(put_count(&mut buf, 3), 3);
        assert_eq!(&buf, &3u32.to_be_bytes());

        assert_eq!(saturating_u32(7), 7);
        assert_eq!(saturating_u32(u32::MAX as usize + 1), u32::MAX);
    }
}
