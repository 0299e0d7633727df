//! Typed responses and the two wire renderings.
//!
//! Every verb handler returns a [`Response`]; nothing above the renderers
//! builds wire strings. The same value renders as either of two negotiated
//! wire formats (see `HELLO` in [`crate::protocol`]):
//!
//! - **text** ([`render_text`]): the classic newline-delimited `OK`/`ERR`
//!   lines, byte-identical to the pre-typed protocol.
//! - **frame** ([`render_frame`]): a length-prefixed binary frame
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

use pm_core::{Arrival, FrontierDelta};
use pm_model::{ObjectId, UserId};

pub use pm_reactor::conn::WireMode;

use crate::protocol::{format_objects, format_users};

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

/// Renders a response as its single text-protocol line (without the
/// trailing newline), byte-identical to the historical `format!` strings.
/// `METRICS` embeds interior newlines (header line + exposition body).
pub fn render_text(response: &Response) -> String {
    match response {
        Response::Ingested(arrivals) => {
            let body = arrivals
                .iter()
                .map(|a| format!("{}:{}", a.object.raw(), format_users(&a.target_users)))
                .collect::<Vec<_>>()
                .join(";");
            format!("OK INGESTED {} {body}", arrivals.len())
        }
        Response::Expired {
            expirations,
            sliding,
        } => {
            if *sliding {
                format!("OK EXPIRED {expirations}")
            } else {
                format!("OK EXPIRED {expirations} (append-only backend, nothing expires)")
            }
        }
        Response::Query { object, users } => {
            format!("OK QUERY {} {}", object.raw(), format_users(users))
        }
        Response::Frontier { user, objects } => {
            format!("OK FRONTIER {} {}", user.raw(), format_objects(objects))
        }
        Response::Registered { user, shard } => {
            format!("OK REGISTERED {} shard={shard}", user.raw())
        }
        Response::Updated { user, shard } => format!("OK UPDATED {} shard={shard}", user.raw()),
        Response::Unregistered(user) => format!("OK UNREGISTERED {}", user.raw()),
        Response::Snapshot { lsn } => format!("OK SNAPSHOT lsn={lsn}"),
        Response::Stats(snapshot) => format!("OK STATS {snapshot}"),
        // The header names the body's byte length so clients can read the
        // multi-line exposition exactly; the connection's trailing newline
        // yields the blank-line terminator.
        Response::Metrics(body) => format!("OK METRICS {}\n{body}", body.len()),
        Response::Health {
            backend,
            shards,
            users,
            uptime_ms,
        } => format!(
            "OK HEALTH pm-server backend={backend} shards={shards} users={users} \
             uptime_ms={uptime_ms}"
        ),
        Response::Hello {
            proto,
            version,
            backend,
            shards,
            arity,
        } => format!(
            "OK HELLO pm-server proto={} version={version} backend={backend} \
             shards={shards} arity={arity}",
            proto.token()
        ),
        Response::Subscribed { user, snapshot } => {
            format!("OK SUBSCRIBED {} {}", user.raw(), format_objects(snapshot))
        }
        Response::Unsubscribed(user) => format!("OK UNSUBSCRIBED {}", user.raw()),
        Response::Exported { user, rows } => format!("OK EXPORTED {} {rows}", user.raw()),
        Response::NodeHello {
            proto,
            version,
            backend,
            shards,
            arity,
            next_id,
        } => format!(
            "OK HELLO pm-node proto={} version={version} backend={backend} \
             shards={shards} arity={arity} next_id={next_id}",
            proto.token()
        ),
        Response::Event { user, deltas } => {
            let body = deltas
                .iter()
                .map(|d| format!("{}{}", if d.entered { '+' } else { '-' }, d.object.raw()))
                .collect::<Vec<_>>()
                .join(",");
            format!("EVENT {} {body}", user.raw())
        }
        Response::Bye => "OK BYE".to_owned(),
        Response::Err(e) => format!("ERR {e}"),
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

/// Renders a response as one binary frame (see the module docs for the
/// layout): `[u32 BE length][u8 kind][payload]`.
pub fn render_frame(response: &Response) -> Vec<u8> {
    let mut body: Vec<u8> = vec![0];
    body[0] = match response {
        Response::Err(e) => {
            body.extend_from_slice(e.as_bytes());
            0
        }
        Response::Ingested(arrivals) => {
            let count = put_count(&mut body, arrivals.len());
            for arrival in &arrivals[..count] {
                body.extend_from_slice(&arrival.object.raw().to_be_bytes());
                put_users(&mut body, &arrival.target_users);
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
            put_users(&mut body, users);
            3
        }
        Response::Frontier { user, objects } => {
            body.extend_from_slice(&user.raw().to_be_bytes());
            put_objects(&mut body, objects);
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
            put_str(&mut body, backend);
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
            put_str(&mut body, version);
            put_str(&mut body, backend);
            body.extend_from_slice(&saturating_u32(*shards).to_be_bytes());
            body.extend_from_slice(&saturating_u32(*arity).to_be_bytes());
            11
        }
        Response::Subscribed { user, snapshot } => {
            body.extend_from_slice(&user.raw().to_be_bytes());
            put_objects(&mut body, snapshot);
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
            put_str(&mut body, version);
            put_str(&mut body, backend);
            body.extend_from_slice(&saturating_u32(*shards).to_be_bytes());
            body.extend_from_slice(&saturating_u32(*arity).to_be_bytes());
            body.extend_from_slice(&next_id.to_be_bytes());
            18
        }
        Response::Bye => 14,
        Response::Event { user, deltas } => {
            body.extend_from_slice(&user.raw().to_be_bytes());
            let count = put_count(&mut body, deltas.len());
            for delta in &deltas[..count] {
                body.push(u8::from(delta.entered));
                body.extend_from_slice(&delta.object.raw().to_be_bytes());
            }
            15
        }
    };
    // The outer length prefix is a u32 too: a body that cannot be framed
    // (>4 GiB, practically unreachable) becomes a protocol error instead of
    // a wrapped length that would desynchronize the stream.
    if u32::try_from(body.len()).is_err() {
        body.clear();
        body.push(0);
        body.extend_from_slice(b"response too large for one frame");
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(&body);
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
