//! The newline-delimited text protocol spoken by `pm-server`.
//!
//! Requests are single lines, case-insensitive verbs, space-separated:
//!
//! ```text
//! INGEST v,v,...[;v,v,...]*   ingest one or more objects (one per ';' group)
//! EXPIRE                      report cumulative window expirations
//! QUERY <object>              target users of a recently ingested object
//! FRONTIER <user>             current Pareto frontier of a user
//! REGISTER <user> <rows>      register a user mid-stream; one row per
//!                             attribute, ';'-separated, each row a
//!                             comma-separated list of `x>y` tuples
//!                             (`x` preferred to `y`), or `-`/empty for
//!                             "no preferences on this attribute"
//! UPDATE <user> <rows>        replace a registered user's preference in
//!                             place (same row syntax as REGISTER); the
//!                             user keeps its id and shard, no other user
//!                             is touched
//! UNREGISTER <user>           remove a registered user
//! SUBSCRIBE <user>            push this user's frontier deltas to this
//!                             connection as EVENT lines; the OK response
//!                             carries the frontier snapshot the deltas
//!                             apply to
//! UNSUBSCRIBE <user>          stop pushing this user's frontier deltas
//! HELLO [capability ...]      negotiate the wire format: `text` (default)
//!                             or `frame` (length-prefixed binary);
//!                             unknown capabilities answer ERR and leave
//!                             the connection (and its mode) untouched
//! SNAPSHOT                    write a durable snapshot now (requires the
//!                             server to run with --wal-dir); the OK
//!                             response carries the covered WAL LSN
//! STATS                       engine metrics snapshot
//! METRICS                     Prometheus text-format exposition
//! HEALTH                      liveness + engine identity
//! QUIT                        close the connection
//! ```
//!
//! Two *internal* verbs support cluster mode (spoken by a `pm-coord`
//! coordinator to its nodes, never by ordinary clients):
//!
//! ```text
//! EXPORT <user>               a registered user's preference rows in
//!                             REGISTER syntax, for migrating the user to
//!                             another node
//! SEQ <n> <request>           a replicated mutation fenced by the
//!                             coordinator sequence number `n`; the node
//!                             refuses the wrapped request unless its own
//!                             applied position equals `n`
//! ```
//!
//! Every response is a single `OK`/`ERR` line except `METRICS`, whose `OK
//! METRICS <bytes>` header line is followed by `<bytes>` bytes of
//! Prometheus text-format 0.0.4 exposition and one terminating blank line.
//! Connections with active subscriptions additionally receive asynchronous
//! `EVENT <user> +<obj>/-<obj>,...` push lines (see [`crate::response`]).
//!
//! Ids may be written bare (`QUERY 17`) or with the display prefix of the
//! id type (`QUERY o17`, `FRONTIER c3`, `REGISTER c9 ...`). Responses are
//! single lines starting with `OK` or `ERR`.

use pm_model::{ObjectId, UserId, ValueId};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Ingest a batch of objects, given as their attribute-value rows.
    Ingest(Vec<Vec<ValueId>>),
    /// Report cumulative window expirations.
    Expire,
    /// Look up the target users of a recently ingested object.
    Query(ObjectId),
    /// Report the current Pareto frontier of a user.
    Frontier(UserId),
    /// Register a new user: one row of `(better, worse)` preference tuples
    /// per attribute.
    Register {
        /// The global id the client chose for the user.
        user: UserId,
        /// Per-attribute preference tuples, in attribute order.
        rows: Vec<Vec<(ValueId, ValueId)>>,
    },
    /// Replace a registered user's preference in place: same payload shape
    /// as [`Request::Register`], but the user must already exist and keeps
    /// its id.
    Update {
        /// The global id of the user being updated.
        user: UserId,
        /// Per-attribute preference tuples, in attribute order.
        rows: Vec<Vec<(ValueId, ValueId)>>,
    },
    /// Remove a registered user.
    Unregister(UserId),
    /// Subscribe this connection to a user's frontier deltas.
    Subscribe(UserId),
    /// Unsubscribe this connection from a user's frontier deltas.
    Unsubscribe(UserId),
    /// Negotiate connection capabilities (wire format); the raw capability
    /// tokens are validated by the service.
    Hello(Vec<String>),
    /// Write a durable snapshot now (`ERR` when durability is disabled).
    Snapshot,
    /// Report an engine metrics snapshot.
    Stats,
    /// Report the Prometheus text-format metrics exposition.
    Metrics,
    /// Liveness check.
    Health,
    /// Close the connection.
    Quit,
    /// Internal cluster verb: report a registered user's preference rows
    /// in REGISTER syntax, so a coordinator can migrate the user to
    /// another node.
    Export(UserId),
    /// Internal cluster verb: a replicated mutation fenced by the
    /// coordinator sequence number — the node applies `inner` only when
    /// its own applied position equals `seq` (log order == apply order,
    /// the same invariant the WAL relies on).
    Sequenced {
        /// The coordinator's sequence number: the id the first object of
        /// the wrapped batch must be assigned.
        seq: u64,
        /// The wrapped request (currently always [`Request::Ingest`]).
        inner: Box<Request>,
    },
}

/// Parses a user id, accepting the bare number or the `c` display prefix.
fn parse_user(text: &str) -> Result<UserId, String> {
    let raw = text.strip_prefix('c').unwrap_or(text);
    raw.parse::<u32>()
        .map(UserId::new)
        .map_err(|_| format!("bad user id `{text}`"))
}

/// Parses one attribute's preference row: `-` or empty means "no
/// preferences on this attribute", otherwise comma-separated `x>y` tuples.
fn parse_pref_row(row: &str) -> Result<Vec<(ValueId, ValueId)>, String> {
    let row = row.trim();
    if row.is_empty() || row == "-" {
        return Ok(Vec::new());
    }
    row.split(',')
        .map(|tuple| {
            let (x, y) = tuple
                .split_once('>')
                .ok_or_else(|| format!("bad preference tuple `{tuple}` (expected x>y)"))?;
            let parse = |v: &str| {
                v.trim()
                    .parse::<u32>()
                    .map(ValueId::new)
                    .map_err(|_| format!("bad value `{v}` in preference tuple `{tuple}`"))
            };
            Ok((parse(x)?, parse(y)?))
        })
        .collect()
}

/// Per-attribute `(better, worse)` preference tuples, as carried by the
/// REGISTER and UPDATE payloads.
pub type PreferenceRows = Vec<Vec<(ValueId, ValueId)>>;

/// Parses the shared `<user> <rows>` payload of REGISTER and UPDATE.
fn parse_user_rows(verb: &str, rest: &str) -> Result<(UserId, PreferenceRows), String> {
    let (user_text, rows_text) = rest.split_once(char::is_whitespace).ok_or_else(|| {
        format!(
            "{verb} needs a user id and preference rows \
             (e.g. {verb} 9 0>1,1>2;-;3>0)"
        )
    })?;
    let user = parse_user(user_text)?;
    let rows = rows_text
        .trim()
        .split(';')
        .map(parse_pref_row)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((user, rows))
}

fn parse_values(group: &str) -> Result<Vec<ValueId>, String> {
    group
        .split(',')
        .map(|v| {
            v.trim()
                .parse::<u32>()
                .map(ValueId::new)
                .map_err(|_| format!("bad value `{v}` (expected unsigned integer)"))
        })
        .collect()
}

/// Parses one request line. Returns `Err` with a human-readable message on
/// malformed input; the server relays it as an `ERR` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    match verb.to_ascii_uppercase().as_str() {
        "INGEST" => {
            if rest.is_empty() {
                return Err("INGEST needs at least one value row".to_owned());
            }
            rest.split(';')
                .map(parse_values)
                .collect::<Result<Vec<_>, _>>()
                .map(Request::Ingest)
        }
        "EXPIRE" => {
            if rest.is_empty() {
                Ok(Request::Expire)
            } else {
                Err("EXPIRE takes no arguments (expiry is window-driven)".to_owned())
            }
        }
        "QUERY" => {
            let raw = rest.strip_prefix('o').unwrap_or(rest);
            raw.parse::<u64>()
                .map(|id| Request::Query(ObjectId::new(id)))
                .map_err(|_| format!("bad object id `{rest}`"))
        }
        "FRONTIER" => parse_user(rest).map(Request::Frontier),
        "REGISTER" => {
            let (user, rows) = parse_user_rows("REGISTER", rest)?;
            Ok(Request::Register { user, rows })
        }
        "UPDATE" => {
            let (user, rows) = parse_user_rows("UPDATE", rest)?;
            Ok(Request::Update { user, rows })
        }
        "UNREGISTER" => parse_user(rest).map(Request::Unregister),
        "SUBSCRIBE" => parse_user(rest).map(Request::Subscribe),
        "UNSUBSCRIBE" => parse_user(rest).map(Request::Unsubscribe),
        "HELLO" => Ok(Request::Hello(
            rest.split_whitespace().map(str::to_owned).collect(),
        )),
        "EXPORT" => parse_user(rest).map(Request::Export),
        "SEQ" => {
            let (seq_text, inner_text) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| "SEQ needs a sequence number and a request".to_owned())?;
            let seq = seq_text
                .parse::<u64>()
                .map_err(|_| format!("bad sequence number `{seq_text}`"))?;
            // Check the wrapped verb before parsing it: recursing first
            // would let a line of many `SEQ n` prefixes exhaust the stack.
            let inner_verb = inner_text.split_whitespace().next().unwrap_or("");
            if inner_verb.eq_ignore_ascii_case("SEQ") {
                return Err("SEQ cannot nest".to_owned());
            }
            let inner = parse_request(inner_text)?;
            Ok(Request::Sequenced {
                seq,
                inner: Box::new(inner),
            })
        }
        "SNAPSHOT" | "STATS" | "METRICS" | "HEALTH" | "QUIT" if !rest.is_empty() => {
            Err(format!("{} takes no arguments", verb.to_ascii_uppercase()))
        }
        "SNAPSHOT" => Ok(Request::Snapshot),
        "STATS" => Ok(Request::Stats),
        "METRICS" => Ok(Request::Metrics),
        "HEALTH" => Ok(Request::Health),
        "QUIT" => Ok(Request::Quit),
        "" => Err("empty request".to_owned()),
        other => Err(format!(
            "unknown verb `{other}` (expected INGEST, EXPIRE, QUERY, FRONTIER, REGISTER, \
             UPDATE, UNREGISTER, SUBSCRIBE, UNSUBSCRIBE, HELLO, SNAPSHOT, STATS, METRICS, \
             HEALTH, QUIT, EXPORT or SEQ)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ingest_batches() {
        assert_eq!(
            parse_request("INGEST 1,2,3"),
            Ok(Request::Ingest(vec![vec![
                ValueId::new(1),
                ValueId::new(2),
                ValueId::new(3)
            ]]))
        );
        assert_eq!(
            parse_request("ingest 1,2;3,4"),
            Ok(Request::Ingest(vec![
                vec![ValueId::new(1), ValueId::new(2)],
                vec![ValueId::new(3), ValueId::new(4)],
            ]))
        );
        assert!(parse_request("INGEST").is_err());
        assert!(parse_request("INGEST a,b").is_err());
    }

    #[test]
    fn parses_queries_with_and_without_prefixes() {
        assert_eq!(
            parse_request("QUERY 17"),
            Ok(Request::Query(ObjectId::new(17)))
        );
        assert_eq!(
            parse_request("query o17"),
            Ok(Request::Query(ObjectId::new(17)))
        );
        assert_eq!(
            parse_request("FRONTIER c3"),
            Ok(Request::Frontier(UserId::new(3)))
        );
        assert_eq!(
            parse_request("frontier 3"),
            Ok(Request::Frontier(UserId::new(3)))
        );
        assert!(parse_request("QUERY").is_err());
        assert!(parse_request("FRONTIER x").is_err());
    }

    #[test]
    fn parses_nullary_verbs() {
        assert_eq!(parse_request("STATS"), Ok(Request::Stats));
        assert_eq!(parse_request("SNAPSHOT"), Ok(Request::Snapshot));
        assert_eq!(parse_request("snapshot"), Ok(Request::Snapshot));
        assert!(parse_request("SNAPSHOT now").is_err());
        assert_eq!(parse_request("METRICS"), Ok(Request::Metrics));
        assert_eq!(parse_request("metrics"), Ok(Request::Metrics));
        assert_eq!(parse_request("health"), Ok(Request::Health));
        assert_eq!(parse_request("  QUIT  "), Ok(Request::Quit));
        assert_eq!(parse_request("EXPIRE"), Ok(Request::Expire));
        assert!(parse_request("EXPIRE now").is_err());
        assert!(parse_request("STATS verbose").is_err());
        assert!(parse_request("METRICS 0.0.4").is_err());
        assert!(parse_request("HEALTH ?").is_err());
        assert!(parse_request("QUIT QUIT").is_err());
        assert!(parse_request("").is_err());
        assert!(parse_request("BOGUS 1").is_err());
    }

    #[test]
    fn parses_register_and_unregister() {
        let v = ValueId::new;
        assert_eq!(
            parse_request("REGISTER 9 0>1,1>2;-;3>0"),
            Ok(Request::Register {
                user: UserId::new(9),
                rows: vec![vec![(v(0), v(1)), (v(1), v(2))], vec![], vec![(v(3), v(0))],],
            })
        );
        // Display prefix, empty rows and whitespace are all accepted.
        assert_eq!(
            parse_request("register c3 ;;"),
            Ok(Request::Register {
                user: UserId::new(3),
                rows: vec![vec![], vec![], vec![]],
            })
        );
        assert_eq!(
            parse_request("UNREGISTER c7"),
            Ok(Request::Unregister(UserId::new(7)))
        );
        assert_eq!(
            parse_request("unregister 7"),
            Ok(Request::Unregister(UserId::new(7)))
        );
    }

    #[test]
    fn parses_update_like_register() {
        let v = ValueId::new;
        assert_eq!(
            parse_request("UPDATE 9 0>1,1>2;-;3>0"),
            Ok(Request::Update {
                user: UserId::new(9),
                rows: vec![vec![(v(0), v(1)), (v(1), v(2))], vec![], vec![(v(3), v(0))],],
            })
        );
        assert_eq!(
            parse_request("update c3 ;;"),
            Ok(Request::Update {
                user: UserId::new(3),
                rows: vec![vec![], vec![], vec![]],
            })
        );
    }

    #[test]
    fn rejects_malformed_register_lines() {
        for line in [
            "REGISTER",          // no arguments at all
            "REGISTER 5",        // user but no rows
            "REGISTER x 0>1",    // bad user id
            "REGISTER 5 0>1,2",  // tuple without '>'
            "REGISTER 5 a>b",    // non-numeric values
            "REGISTER 5 0>1,>2", // missing left value
            "UPDATE",            // no arguments at all
            "UPDATE 5",          // user but no rows
            "UPDATE x 0>1",      // bad user id
            "UPDATE 5 0>1,2",    // tuple without '>'
            "UPDATE 5 a>b",      // non-numeric values
            "UNREGISTER",        // missing id
            "UNREGISTER soon",   // bad id
        ] {
            assert!(parse_request(line).is_err(), "{line:?} should fail");
        }
    }

    #[test]
    fn parses_subscribe_unsubscribe_and_hello() {
        assert_eq!(
            parse_request("SUBSCRIBE 4"),
            Ok(Request::Subscribe(UserId::new(4)))
        );
        assert_eq!(
            parse_request("subscribe c4"),
            Ok(Request::Subscribe(UserId::new(4)))
        );
        assert_eq!(
            parse_request("UNSUBSCRIBE c9"),
            Ok(Request::Unsubscribe(UserId::new(9)))
        );
        assert!(parse_request("SUBSCRIBE").is_err());
        assert!(parse_request("UNSUBSCRIBE x").is_err());
        assert_eq!(parse_request("HELLO"), Ok(Request::Hello(vec![])));
        assert_eq!(
            parse_request("hello frame"),
            Ok(Request::Hello(vec!["frame".to_owned()]))
        );
        assert_eq!(
            parse_request("HELLO text v2"),
            Ok(Request::Hello(vec!["text".to_owned(), "v2".to_owned()]))
        );
    }

    #[test]
    fn parses_internal_cluster_verbs() {
        assert_eq!(
            parse_request("EXPORT c5"),
            Ok(Request::Export(UserId::new(5)))
        );
        assert_eq!(
            parse_request("export 5"),
            Ok(Request::Export(UserId::new(5)))
        );
        assert!(parse_request("EXPORT").is_err());
        assert!(parse_request("EXPORT x").is_err());

        assert_eq!(
            parse_request("SEQ 42 INGEST 1,2"),
            Ok(Request::Sequenced {
                seq: 42,
                inner: Box::new(Request::Ingest(vec![vec![
                    ValueId::new(1),
                    ValueId::new(2)
                ]])),
            })
        );
        // The wrapped line goes through the full parser, prefix forms and all.
        assert_eq!(
            parse_request("seq 0 frontier c3"),
            Ok(Request::Sequenced {
                seq: 0,
                inner: Box::new(Request::Frontier(UserId::new(3))),
            })
        );
        assert!(parse_request("SEQ").is_err());
        assert!(parse_request("SEQ 5").is_err());
        assert!(parse_request("SEQ x INGEST 1").is_err());
        assert!(parse_request("SEQ 5 BOGUS").is_err());
        assert_eq!(
            parse_request("SEQ 5 SEQ 6 INGEST 1"),
            Err("SEQ cannot nest".to_owned())
        );
        assert_eq!(
            parse_request("seq 5 seq x"),
            Err("SEQ cannot nest".to_owned())
        );
        // Rejected without recursing: deep enough to overflow the stack if
        // the inner request were parsed first.
        let deep = format!("{}HEALTH", "SEQ 0 ".repeat(400_000));
        assert_eq!(parse_request(&deep), Err("SEQ cannot nest".to_owned()));
    }
}
