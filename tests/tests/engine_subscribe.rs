//! Live frontier subscriptions over the readiness reactor.
//!
//! The central oracle: a subscriber that applies the `EVENT` delta stream
//! to its `OK SUBSCRIBED` snapshot must agree with a fresh `FRONTIER`
//! query at *every* point of an interleaved
//! `INGEST`/`EXPIRE`/`REGISTER`/`UPDATE`/`UNREGISTER` stream, on every
//! backend and shard count. The barrier trick making "every point"
//! testable: per-connection outboxes are FIFO, so once the control
//! connection has its response, a `HEALTH` round trip on the subscriber
//! connection flushes every event the op produced before the `OK HEALTH`
//! line.
//!
//! The satellites: `HELLO` negotiation and the binary frame mode, lagged
//! eviction under a tiny outbox bound, half-closed subscribers, malformed
//! frames, and a many-idle-subscribers smoke proving the reactor does not
//! spend a thread per connection.

use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use pm_engine::reactor::{serve_with, ReactorConfig};
use pm_engine::{BackendSpec, EngineConfig, EngineService, ShardedEngine};
use pm_model::{AttrId, ValueId};
use pm_porder::Preference;

/// A chain preference over values `0..5` on both attributes, rotated by
/// `u` so users disagree about what dominates what.
fn chain_pref(u: usize) -> Preference {
    let mut p = Preference::new(2);
    for attr in 0..2u32 {
        let attr = AttrId::new(attr);
        let vals: Vec<u32> = (0..5).map(|i| (i + u as u32) % 5).collect();
        for w in vals.windows(2) {
            p.prefer(attr, ValueId::new(w[0]), ValueId::new(w[1]));
        }
    }
    p
}

/// Spawns a reactor-served engine on an ephemeral port.
fn spawn(backend: &str, shards: usize, users: usize, config: ReactorConfig) -> SocketAddr {
    let prefs: Vec<Preference> = (0..users).map(chain_pref).collect();
    let spec = BackendSpec::parse(backend).expect("valid backend");
    let engine = ShardedEngine::new(prefs, &EngineConfig::new(shards), &spec);
    let service = Arc::new(EngineService::new(engine, spec, 2, 4096));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || serve_with(listener, service, config));
    addr
}

struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        Self {
            reader: BufReader::new(stream.try_clone().unwrap()),
            stream,
        }
    }

    fn send(&mut self, line: &str) {
        // One write per request: a formatting write_fmt can split the line
        // across segments and trip Nagle / delayed-ACK stalls.
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read line");
        line.trim_end_matches(['\r', '\n']).to_owned()
    }

    fn ask(&mut self, line: &str) -> String {
        self.send(line);
        self.read_line()
    }
}

/// Parses a comma-separated object-id list (`""` is empty).
fn parse_objects(list: &str) -> BTreeSet<u64> {
    list.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("object id"))
        .collect()
}

type Frontiers = HashMap<u32, BTreeSet<u64>>;

/// Applies one `EVENT <user> +a,-b,...` line to the tracked frontiers.
fn apply_event(line: &str, state: &mut Frontiers) {
    let rest = line.strip_prefix("EVENT ").expect("event line");
    let (user, deltas) = rest.split_once(' ').expect("user and deltas");
    let user: u32 = user.parse().unwrap();
    let frontier = state.get_mut(&user).expect("subscribed user");
    for delta in deltas.split(',') {
        let (sign, object) = delta.split_at(1);
        let object: u64 = object.parse().unwrap();
        match sign {
            "+" => assert!(frontier.insert(object), "duplicate enter {line}"),
            "-" => assert!(frontier.remove(&object), "spurious leave {line}"),
            other => panic!("bad delta sign {other} in {line}"),
        }
    }
}

/// Sends a request on the subscriber connection, applying any `EVENT`
/// lines queued ahead of the response, and returns the response line.
fn sub_ask(sub: &mut Client, state: &mut Frontiers, request: &str) -> String {
    sub.send(request);
    loop {
        let line = sub.read_line();
        if line.starts_with("EVENT ") {
            apply_event(&line, state);
        } else {
            return line;
        }
    }
}

/// The FIFO barrier: after the control connection's op completed, a
/// `HEALTH` round trip on the subscriber connection delivers every event
/// the op produced.
fn barrier(sub: &mut Client, state: &mut Frontiers) {
    let line = sub_ask(sub, state, "HEALTH");
    assert!(line.starts_with("OK HEALTH"), "{line}");
}

/// Subscribes and seeds the tracked frontier from the snapshot.
fn subscribe(sub: &mut Client, state: &mut Frontiers, user: u32) {
    let line = sub_ask(sub, state, &format!("SUBSCRIBE {user}"));
    let prefix = format!("OK SUBSCRIBED {user} ");
    let snapshot = line
        .strip_prefix(&prefix)
        .unwrap_or_else(|| panic!("unexpected subscribe reply {line}"));
    state.insert(user, parse_objects(snapshot));
}

/// A tiny deterministic xorshift so the op stream needs no RNG crate.
fn next(rng: &mut u64) -> u64 {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    *rng
}

fn run_oracle(backend: &str, shards: usize) {
    let ctx = format!("backend={backend} shards={shards}");
    let addr = spawn(backend, shards, 6, ReactorConfig::default());
    let mut ctl = Client::connect(addr);
    let mut sub = Client::connect(addr);
    let mut state: Frontiers = HashMap::new();
    for user in 0..4u32 {
        subscribe(&mut sub, &mut state, user);
    }

    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (shards as u64);
    let mut next_user = 6u32;
    let mut extras: Vec<u32> = Vec::new();
    for step in 0..60 {
        match step % 6 {
            0..=2 => {
                let rows: Vec<String> = (0..1 + next(&mut rng) % 3)
                    .map(|_| format!("{},{}", next(&mut rng) % 5, next(&mut rng) % 5))
                    .collect();
                let r = ctl.ask(&format!("INGEST {}", rows.join(";")));
                assert!(r.starts_with("OK INGESTED"), "{ctx}: {r}");
            }
            3 => {
                let r = ctl.ask("EXPIRE");
                assert!(r.starts_with("OK EXPIRED"), "{ctx}: {r}");
            }
            4 => {
                let user = next_user;
                next_user += 1;
                let rotate = (next(&mut rng) % 5) as u32;
                let chain: Vec<String> = (0..4)
                    .map(|i| format!("{}>{}", (i + rotate) % 5, (i + 1 + rotate) % 5))
                    .collect();
                let row = chain.join(",");
                let r = ctl.ask(&format!("REGISTER {user} {row};{row}"));
                assert!(
                    r.starts_with(&format!("OK REGISTERED {user} ")),
                    "{ctx}: {r}"
                );
                subscribe(&mut sub, &mut state, user);
                extras.push(user);
            }
            _ => {
                if extras.len() >= 2 {
                    let user = extras.remove(0);
                    let r = ctl.ask(&format!("UNREGISTER {user}"));
                    assert!(r.starts_with("OK UNREGISTERED"), "{ctx}: {r}");
                    barrier(&mut sub, &mut state);
                    // Unregistering empties the frontier via leave events.
                    assert!(
                        state[&user].is_empty(),
                        "{ctx}: stale frontier after UNREGISTER {user}: {:?}",
                        state[&user]
                    );
                    let r = sub_ask(&mut sub, &mut state, &format!("UNSUBSCRIBE {user}"));
                    assert_eq!(r, format!("OK UNSUBSCRIBED {user}"), "{ctx}");
                    state.remove(&user);
                } else {
                    let user = ((step / 6) % 4) as u32;
                    let rotate = (next(&mut rng) % 5) as u32;
                    let chain: Vec<String> = (0..4)
                        .map(|i| format!("{}>{}", (i + rotate) % 5, (i + 1 + rotate) % 5))
                        .collect();
                    let row = chain.join(",");
                    let r = ctl.ask(&format!("UPDATE {user} {row};{row}"));
                    assert!(r.starts_with(&format!("OK UPDATED {user} ")), "{ctx}: {r}");
                }
            }
        }
        barrier(&mut sub, &mut state);
        for (&user, tracked) in &state {
            let fresh = ctl.ask(&format!("FRONTIER {user}"));
            let snapshot = fresh
                .strip_prefix(&format!("OK FRONTIER {user} "))
                .unwrap_or_else(|| panic!("{ctx}: {fresh}"));
            assert_eq!(
                tracked,
                &parse_objects(snapshot),
                "{ctx} step {step}: subscriber view of user {user} diverged"
            );
        }
    }
}

/// The tentpole oracle: snapshot + delta stream == fresh query, at every
/// event, across the exact backends and shard counts.
#[test]
fn subscription_deltas_track_fresh_frontier_queries() {
    for backend in ["baseline", "ftv:0.4", "baseline-sw:12", "ftv-sw:0.4:12"] {
        for shards in [1usize, 2, 4, 8] {
            run_oracle(backend, shards);
        }
    }
}

#[test]
fn hello_and_subscription_prechecks_pin_their_wire_lines() {
    let addr = spawn("baseline", 2, 4, ReactorConfig::default());
    let mut c = Client::connect(addr);
    let hello = c.ask("HELLO");
    assert!(
        hello.starts_with("OK HELLO pm-server proto=text version="),
        "{hello}"
    );
    assert!(
        hello.contains("backend=baseline shards=2 arity=2"),
        "{hello}"
    );
    // Unknown capabilities answer ERR without killing the connection or
    // switching the mode.
    assert_eq!(
        c.ask("HELLO gzip"),
        "ERR unknown capability `gzip` (expected text, frame or node)"
    );
    assert!(c.ask("HEALTH").starts_with("OK HEALTH"), "still text mode");
    // Subscription prechecks are per-connection reactor state.
    assert_eq!(c.ask("SUBSCRIBE 99"), "ERR unknown user 99");
    assert_eq!(c.ask("SUBSCRIBE 1"), "OK SUBSCRIBED 1 ");
    assert_eq!(c.ask("SUBSCRIBE 1"), "ERR already subscribed to user 1");
    assert_eq!(c.ask("UNSUBSCRIBE 2"), "ERR not subscribed to user 2");
    assert_eq!(c.ask("UNSUBSCRIBE 1"), "OK UNSUBSCRIBED 1");
    assert_eq!(c.ask("UNSUBSCRIBE 1"), "ERR not subscribed to user 1");
    assert_eq!(c.ask("QUIT"), "OK BYE");
    let mut rest = String::new();
    assert_eq!(c.reader.read_line(&mut rest).unwrap(), 0, "EOF after BYE");
}

/// Writes one client→server frame: `[u32 BE length][UTF-8 request line]`.
fn send_frame(stream: &mut TcpStream, line: &str) {
    let mut frame = Vec::with_capacity(4 + line.len());
    frame.extend_from_slice(&(line.len() as u32).to_be_bytes());
    frame.extend_from_slice(line.as_bytes());
    stream.write_all(&frame).expect("send frame");
}

/// Reads one server→client frame, returning `(kind, payload)`.
fn read_frame(reader: &mut impl Read) -> (u8, Vec<u8>) {
    let mut len = [0u8; 4];
    reader.read_exact(&mut len).expect("frame length");
    let len = u32::from_be_bytes(len) as usize;
    assert!(len >= 1, "frame must carry a kind byte");
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).expect("frame body");
    (body[0], body[1..].to_vec())
}

#[test]
fn frame_mode_carries_subscriptions_and_events() {
    let addr = spawn("baseline", 2, 4, ReactorConfig::default());
    let mut sub = Client::connect(addr);
    // The HELLO answer itself still arrives in the old (text) mode.
    let hello = sub.ask("HELLO frame");
    assert!(
        hello.starts_with("OK HELLO pm-server proto=frame version="),
        "{hello}"
    );

    send_frame(&mut sub.stream, "SUBSCRIBE 1");
    let (kind, payload) = read_frame(&mut sub.reader);
    assert_eq!(kind, 12, "Subscribed frame");
    assert_eq!(&payload[..4], &1u32.to_be_bytes(), "user id");
    assert_eq!(&payload[4..8], &0u32.to_be_bytes(), "empty snapshot");

    // The first object ever enters every frontier: the subscriber gets an
    // Event frame, fenced by a Health frame via the FIFO barrier.
    let mut ctl = Client::connect(addr);
    assert!(ctl.ask("INGEST 3,4").starts_with("OK INGESTED"));
    send_frame(&mut sub.stream, "HEALTH");
    let (kind, payload) = read_frame(&mut sub.reader);
    assert_eq!(kind, 15, "Event frame");
    assert_eq!(&payload[..4], &1u32.to_be_bytes(), "user id");
    assert_eq!(&payload[4..8], &1u32.to_be_bytes(), "one delta");
    assert_eq!(payload[8], 1, "entered");
    assert_eq!(&payload[9..17], &0u64.to_be_bytes(), "object id");
    let (kind, _) = read_frame(&mut sub.reader);
    assert_eq!(kind, 10, "Health frame");

    // QUIT answers a Bye frame, then the connection closes.
    send_frame(&mut sub.stream, "QUIT");
    let (kind, payload) = read_frame(&mut sub.reader);
    assert_eq!(kind, 14, "Bye frame");
    assert!(payload.is_empty());
    let mut rest = Vec::new();
    assert_eq!(sub.reader.read_to_end(&mut rest).unwrap(), 0, "EOF");
}

#[test]
fn malformed_frames_answer_err_and_unframeable_input_closes() {
    let addr = spawn(
        "baseline",
        1,
        2,
        ReactorConfig {
            max_outbox: 1 << 20,
            max_line: 1024,
        },
    );
    let mut c = Client::connect(addr);
    assert!(c.ask("HELLO frame").starts_with("OK HELLO"));

    // Non-UTF-8 payload: an ERR frame, and the connection keeps serving.
    c.stream.write_all(&2u32.to_be_bytes()).unwrap();
    c.stream.write_all(&[0xff, 0xfe]).unwrap();
    let (kind, payload) = read_frame(&mut c.reader);
    assert_eq!(kind, 0);
    assert_eq!(payload, b"frame payload is not valid UTF-8");
    send_frame(&mut c.stream, "HEALTH");
    let (kind, _) = read_frame(&mut c.reader);
    assert_eq!(kind, 10, "recovered after the bad frame");

    // A frame longer than max_line has no resync point: terminal ERR, EOF.
    c.stream.write_all(&4096u32.to_be_bytes()).unwrap();
    let (kind, payload) = read_frame(&mut c.reader);
    assert_eq!(kind, 0);
    assert!(
        String::from_utf8_lossy(&payload).contains("exceeds"),
        "{payload:?}"
    );
    let mut rest = Vec::new();
    assert_eq!(c.reader.read_to_end(&mut rest).unwrap(), 0, "EOF");
}

#[test]
fn half_closed_subscriber_keeps_receiving_events() {
    let addr = spawn("baseline", 1, 2, ReactorConfig::default());
    let mut sub = Client::connect(addr);
    assert_eq!(sub.ask("SUBSCRIBE 0"), "OK SUBSCRIBED 0 ");
    // The subscriber is done talking; its event stream must survive.
    sub.stream.shutdown(Shutdown::Write).unwrap();

    let mut ctl = Client::connect(addr);
    assert!(ctl.ask("INGEST 3,4").starts_with("OK INGESTED"));
    assert_eq!(sub.read_line(), "EVENT 0 +0");

    // Full close: the next fan-out write fails and the reactor drops the
    // connection without disturbing anyone else.
    drop(sub);
    assert!(ctl.ask("INGEST 2,3").starts_with("OK INGESTED"));
    assert!(ctl.ask("INGEST 1,2").starts_with("OK INGESTED"));
    assert!(ctl.ask("HEALTH").starts_with("OK HEALTH"));
}

#[test]
fn lagged_subscribers_are_evicted_with_terminal_err() {
    // 64 subscribed users on one connection multiply every arrival into 64
    // events; a tiny outbox bound plus an unread socket must trip the
    // eviction rather than buffer without limit.
    let users = 64;
    let addr = spawn(
        "baseline-sw:4",
        1,
        users,
        ReactorConfig {
            max_outbox: 1024,
            max_line: 16 << 20,
        },
    );
    let mut sub = Client::connect(addr);
    for user in 0..users as u32 {
        assert!(sub
            .ask(&format!("SUBSCRIBE {user}"))
            .starts_with("OK SUBSCRIBED"));
    }

    let mut ctl = Client::connect(addr);
    let row = "0,1;1,2;2,3;3,4;4,0";
    for _ in 0..2_000 {
        assert!(ctl.ask(&format!("INGEST {row}")).starts_with("OK INGESTED"));
    }

    // The subscriber now reads everything it was sent: a prefix of the
    // event stream, then the terminal eviction notice, then EOF.
    let mut lagged = false;
    loop {
        let mut line = String::new();
        if sub.reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim_end();
        if line == "ERR lagged" {
            lagged = true;
        } else {
            assert!(line.starts_with("EVENT "), "{line}");
            assert!(!lagged, "no events after the terminal ERR");
        }
    }
    assert!(lagged, "subscriber was never evicted");

    // The engine survived and reports the eviction in its gauges.
    let metrics = ctl.ask("METRICS");
    let len: usize = metrics
        .strip_prefix("OK METRICS ")
        .expect("metrics header")
        .parse()
        .unwrap();
    let mut body = vec![0u8; len];
    ctl.reader.read_exact(&mut body).unwrap();
    let body = String::from_utf8(body).unwrap();
    assert!(body.contains("\npm_subscribers 0\n"), "subscribers gauge");
}

/// The `pm_subscribers` gauge. A `METRICS` reply can outgrow a small
/// outbox bound, so each probe uses a fresh connection: a reply is queued
/// whole before its connection is evicted.
fn subscribers_gauge(addr: SocketAddr) -> u64 {
    let mut probe = Client::connect(addr);
    let header = probe.ask("METRICS");
    let len: usize = header
        .strip_prefix("OK METRICS ")
        .expect("metrics header")
        .parse()
        .unwrap();
    let mut body = vec![0u8; len];
    probe.reader.read_exact(&mut body).unwrap();
    let body = String::from_utf8(body).unwrap();
    body.lines()
        .find_map(|line| line.strip_prefix("pm_subscribers "))
        .expect("pm_subscribers gauge")
        .parse()
        .unwrap()
}

/// Applies signed deltas to a frontier, asserting each is a real change.
fn apply_deltas(frontier: &mut BTreeSet<u64>, deltas: &[(bool, u64)]) {
    for &(entered, object) in deltas {
        if entered {
            assert!(frontier.insert(object), "duplicate enter {object}");
        } else {
            assert!(frontier.remove(&object), "spurious leave {object}");
        }
    }
}

/// Fan-out over mixed wire modes with an eviction inside it: one user is
/// watched from a text connection, a frame connection and a connection
/// that never reads. Once the silent one is evicted with `ERR lagged`,
/// the other two must still decode the same delta stream, and it must
/// land on the user's `FRONTIER`.
#[test]
fn mixed_mode_subscribers_survive_an_eviction_mid_fan_out() {
    let addr = spawn(
        "baseline-sw:4",
        1,
        2,
        ReactorConfig {
            max_outbox: 64 << 10,
            max_line: 16 << 20,
        },
    );
    // Each INGEST puts ~1,000 events for user 0 (12-25 KB) into every
    // subscriber's outbox in one dispatch; the readers drain theirs before
    // the next, the silent one falls behind. One batch before subscribing
    // makes the snapshots non-empty.
    let row: Vec<String> = (0..1_000)
        .map(|i| format!("{},{}", i % 5, (i + 2) % 5))
        .collect();
    let batch = format!("INGEST {}", row.join(";"));
    let mut ctl = Client::connect(addr);
    assert!(ctl.ask(&batch).starts_with("OK INGESTED 1000"));

    let mut text = Client::connect(addr);
    let reply = text.ask("SUBSCRIBE 0");
    let snapshot = parse_objects(reply.strip_prefix("OK SUBSCRIBED 0 ").expect("subscribed"));

    let mut frame = Client::connect(addr);
    assert!(frame.ask("HELLO frame").starts_with("OK HELLO"));
    send_frame(&mut frame.stream, "SUBSCRIBE 0");
    let (kind, payload) = read_frame(&mut frame.reader);
    assert_eq!(kind, 12, "Subscribed frame");
    let count = u32::from_be_bytes(payload[4..8].try_into().unwrap()) as usize;
    let frame_snapshot: BTreeSet<u64> = payload[8..]
        .chunks(8)
        .map(|id| u64::from_be_bytes(id.try_into().unwrap()))
        .collect();
    assert_eq!(frame_snapshot.len(), count);
    assert!(!snapshot.is_empty());
    assert_eq!(frame_snapshot, snapshot);

    let mut silent = Client::connect(addr);
    assert!(silent.ask("SUBSCRIBE 0").starts_with("OK SUBSCRIBED 0"));

    let (mut text_deltas, mut frame_deltas) = (Vec::new(), Vec::new());
    let mut evicted_at = None;
    for round in 0..5_000 {
        assert!(ctl.ask(&batch).starts_with("OK INGESTED 1000"));

        text.send("HEALTH");
        loop {
            let line = text.read_line();
            let Some(rest) = line.strip_prefix("EVENT 0 ") else {
                assert!(line.starts_with("OK HEALTH"), "{line}");
                break;
            };
            for delta in rest.split(',') {
                let (sign, object) = delta.split_at(1);
                text_deltas.push((sign == "+", object.parse::<u64>().unwrap()));
            }
        }

        send_frame(&mut frame.stream, "HEALTH");
        loop {
            let (kind, payload) = read_frame(&mut frame.reader);
            if kind == 10 {
                break;
            }
            assert_eq!(kind, 15, "Event frame");
            assert_eq!(&payload[..4], &0u32.to_be_bytes(), "user id");
            let count = u32::from_be_bytes(payload[4..8].try_into().unwrap()) as usize;
            assert_eq!(payload.len(), 8 + 9 * count);
            for delta in payload[8..].chunks(9) {
                let object = u64::from_be_bytes(delta[1..].try_into().unwrap());
                frame_deltas.push((delta[0] == 1, object));
            }
        }

        match evicted_at {
            // Keep ingesting a while past the eviction.
            Some(at) if round >= at + 5 => break,
            None if round % 8 == 7 && subscribers_gauge(addr) == 2 => {
                evicted_at = Some(round);
            }
            _ => {}
        }
    }
    assert!(
        evicted_at.is_some(),
        "the silent subscriber was never evicted"
    );
    assert!(!text_deltas.is_empty());
    assert_eq!(text_deltas, frame_deltas, "text and frame streams differ");

    let mut frontier = snapshot;
    apply_deltas(&mut frontier, &text_deltas);
    let reply = ctl.ask("FRONTIER 0");
    let expected = parse_objects(reply.strip_prefix("OK FRONTIER 0 ").expect("frontier"));
    assert_eq!(frontier, expected);

    // The silent connection got a prefix of the event stream, then the
    // terminal notice, then EOF.
    let mut lagged = false;
    loop {
        let line = silent.read_line();
        if line.is_empty() {
            break;
        }
        if line == "ERR lagged" {
            lagged = true;
        } else {
            assert!(!lagged, "no events after the terminal ERR");
            assert!(line.starts_with("EVENT 0 "), "{line}");
        }
    }
    assert!(lagged, "no terminal ERR lagged");
}

/// One reactor thread, not one thread per connection: thousands of idle
/// subscribers must not grow the process' thread count.
#[cfg(target_os = "linux")]
#[test]
fn idle_subscriber_army_needs_no_extra_threads() {
    // Two fds per subscriber (client + server end); scale to the limit the
    // environment actually grants.
    let limit = pm_reactor::raise_nofile_limit(25_000).unwrap_or(1024);
    let subscribers = 10_000.min((limit.saturating_sub(500) / 2) as usize);
    assert!(
        subscribers >= 100,
        "fd limit too low to say anything: {limit}"
    );

    let addr = spawn("baseline", 2, 4, ReactorConfig::default());
    // The process-wide count includes sibling tests' shard workers, so only
    // the growth while the army connects says anything about this server.
    let threads = || -> usize {
        std::fs::read_to_string("/proc/self/status")
            .unwrap()
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .expect("Threads: line")
            .trim()
            .parse()
            .unwrap()
    };
    let before = threads();
    let mut army: Vec<TcpStream> = Vec::with_capacity(subscribers);
    for _ in 0..subscribers {
        let mut stream = TcpStream::connect(addr).expect("connect subscriber");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(b"SUBSCRIBE 0\n").unwrap();
        let mut byte = [0u8; 1];
        let mut line = Vec::new();
        while byte[0] != b'\n' {
            stream.read_exact(&mut byte).unwrap();
            line.push(byte[0]);
        }
        assert!(line.starts_with(b"OK SUBSCRIBED 0"), "{line:?}");
        army.push(stream);
    }

    // A thread per connection would add `subscribers` threads; siblings
    // starting meanwhile add a few dozen at most.
    let grown = threads().saturating_sub(before);
    assert!(
        grown < subscribers / 2,
        "{subscribers} subscribers should not need {grown} more threads"
    );

    // The army is live, not just parked: everyone gets the first arrival.
    let mut ctl = Client::connect(addr);
    assert!(ctl.ask("INGEST 3,4").starts_with("OK INGESTED"));
    for index in [0, subscribers - 1] {
        let stream = &mut army[index];
        let mut byte = [0u8; 1];
        let mut line = Vec::new();
        while byte[0] != b'\n' {
            stream.read_exact(&mut byte).unwrap();
            line.push(byte[0]);
        }
        assert_eq!(&line[..], b"EVENT 0 +0\n");
    }
}
