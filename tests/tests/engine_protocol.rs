//! Protocol edge cases of the `pm-server` serving layer: malformed
//! requests, empty batches, unknown commands and oversized attribute lists
//! must all come back as `ERR` lines — never by killing the connection or
//! the engine — and the connection must keep serving valid requests
//! afterwards, both through [`EngineService`] directly and over real TCP.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use pm_engine::server::serve;
use pm_engine::{BackendSpec, EngineConfig, EngineService, ShardedEngine};
use pm_integration_tests::small_movie_dataset;

/// Arity of the movie schema used by all tests here.
const ARITY: usize = 4;

fn movie_service(backend: &str) -> EngineService {
    let dataset = small_movie_dataset(7);
    assert_eq!(dataset.dimensions(), ARITY);
    let spec = BackendSpec::parse(backend).expect("valid backend");
    let engine = ShardedEngine::new(dataset.preferences, &EngineConfig::new(2), &spec);
    EngineService::new(engine, spec, ARITY, 64)
}

/// A 2-user, 2-attribute service whose users share the chain preference
/// `2 ≻ 1 ≻ 0` on both attributes — domination is then certain for every
/// registered user, which makes compaction sweeps deterministic.
fn chain_service(backend: &str) -> EngineService {
    let prefs: Vec<pm_porder::Preference> = (0..2)
        .map(|_| {
            let mut p = pm_porder::Preference::new(2);
            for attr in 0..2u32 {
                let attr = pm_model::AttrId::new(attr);
                p.prefer(attr, pm_model::ValueId::new(2), pm_model::ValueId::new(1));
                p.prefer(attr, pm_model::ValueId::new(1), pm_model::ValueId::new(0));
            }
            p
        })
        .collect();
    let spec = BackendSpec::parse(backend).expect("valid backend");
    let engine = ShardedEngine::new(prefs, &EngineConfig::new(2), &spec);
    EngineService::new(engine, spec, 2, 64)
}

/// Pulls one `key=` field out of a STATS response line.
fn stats_field<'a>(stats: &'a str, key: &str) -> &'a str {
    stats
        .split_whitespace()
        .find_map(|f| f.strip_prefix(key))
        .unwrap_or_else(|| panic!("STATS lacks {key}: {stats}"))
}

#[test]
fn stats_reports_retained_history_per_shard() {
    // Unlimited append-only history: every shard retains every arrival.
    let svc = chain_service("baseline");
    for i in 0..10 {
        let r = svc.respond_line(&format!("INGEST {},{}", i % 3, i % 3));
        assert!(r.starts_with("OK INGESTED"), "{r}");
    }
    let stats = svc.respond_line("STATS");
    assert_eq!(stats_field(&stats, "history_objects="), "10,10", "{stats}");
    assert_eq!(stats_field(&stats, "history_saved="), "0,0", "{stats}");

    // Hard cap on a compacting history: the newest 4 objects survive, 6
    // were dropped.
    let capped = chain_service("baseline:compact:4");
    for i in 0..10 {
        capped.respond_line(&format!("INGEST {},{}", i % 3, i % 3));
    }
    let stats = capped.respond_line("STATS");
    assert_eq!(stats_field(&stats, "history_objects="), "4,4", "{stats}");
    assert_eq!(stats_field(&stats, "history_saved="), "6,6", "{stats}");

    // Sliding backends keep no backfill history (the window is the state).
    let sliding = chain_service("baseline-sw:4");
    for i in 0..10 {
        sliding.respond_line(&format!("INGEST {},{}", i % 3, i % 3));
    }
    let stats = sliding.respond_line("STATS");
    assert_eq!(stats_field(&stats, "history_objects="), "0,0", "{stats}");
}

#[test]
fn compact_backend_saves_history_and_keeps_backfill_exact_over_protocol() {
    let svc = chain_service("ftv:0.4:compact");
    let reference = chain_service("ftv:0.4");
    // 150 batches of `0,0;1,1` (dominated) and one final `2,2` (dominating):
    // past the sweep interval the dominated vectors are evicted — every
    // registered user agrees they can never re-enter a frontier.
    for _ in 0..150 {
        assert!(svc.respond_line("INGEST 0,0;1,1").starts_with("OK"));
        assert!(reference.respond_line("INGEST 0,0;1,1").starts_with("OK"));
    }
    assert!(svc.respond_line("INGEST 2,2").starts_with("OK"));
    assert!(reference.respond_line("INGEST 2,2").starts_with("OK"));
    let stats = svc.respond_line("STATS");
    let retained: u64 = stats_field(&stats, "history_objects=")
        .split(',')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    let saved: u64 = stats_field(&stats, "history_saved=")
        .split(',')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(retained < 301, "compaction never kicked in: {stats}");
    assert!(saved > 0, "{stats}");
    assert_eq!(retained + saved, 301, "{stats}");
    let full = reference.respond_line("STATS");
    assert_eq!(stats_field(&full, "history_objects="), "301,301", "{full}");
    // A late registration with a seen preference backfills identically on
    // the compacted and the full-history service.
    let register = "REGISTER 9 2>1,1>0;2>1,1>0";
    assert!(svc.respond_line(register).starts_with("OK REGISTERED 9"));
    assert!(reference
        .respond_line(register)
        .starts_with("OK REGISTERED 9"));
    assert_eq!(
        svc.respond_line("FRONTIER 9"),
        reference.respond_line("FRONTIER 9"),
        "compacted backfill diverged from full history"
    );
    // The compact spec round-trips through HEALTH for observability.
    assert!(
        svc.respond_line("HEALTH")
            .contains("backend=ftv:0.4:compact"),
        "{}",
        svc.respond_line("HEALTH")
    );
}

#[test]
fn compact_hard_cap_is_visible_and_service_survives() {
    let svc = chain_service("baseline:compact:16");
    for i in 0..40 {
        assert!(svc
            .respond_line(&format!("INGEST {},{}", i % 3, (i + 1) % 3))
            .starts_with("OK"));
    }
    let stats = svc.respond_line("STATS");
    for retained in stats_field(&stats, "history_objects=").split(',') {
        let retained: u64 = retained.parse().unwrap();
        assert!(retained <= 16, "hard cap exceeded: {stats}");
    }
    // Best-effort backfill still serves without disturbing the connection.
    assert!(svc
        .respond_line("REGISTER 7 0>1;1>0")
        .starts_with("OK REGISTERED 7"));
    assert!(svc.respond_line("FRONTIER 7").starts_with("OK FRONTIER 7"));
}

#[test]
fn malformed_ingest_lines_return_errors() {
    let svc = movie_service("baseline");
    for line in [
        "INGEST",           // no rows at all
        "INGEST ",          // whitespace only
        "INGEST a,b,c,d",   // non-numeric values
        "INGEST 1,2,3,4;",  // trailing empty row
        "INGEST ;1,2,3,4",  // leading empty row
        "INGEST 1,,3,4",    // empty value inside a row
        "INGEST 1,2,3,4;x", // second row malformed
        "INGEST -1,2,3,4",  // negative value
        "INGEST 1 2 3 4",   // wrong separator
    ] {
        let response = svc.respond_line(line);
        assert!(response.starts_with("ERR"), "{line:?} -> {response}");
    }
    // The service still ingests a valid batch afterwards.
    assert!(svc
        .respond_line("INGEST 0,0,0,0")
        .starts_with("OK INGESTED 1"));
}

#[test]
fn oversized_and_undersized_attribute_lists_are_rejected() {
    let svc = movie_service("baseline");
    // One value too many, one too few, and a wildly oversized row.
    let huge = vec!["1"; 10_000].join(",");
    for line in [
        "INGEST 1,2,3,4,5".to_owned(),
        "INGEST 1,2,3".to_owned(),
        format!("INGEST {huge}"),
        // A valid row followed by an oversized one: the whole batch must be
        // rejected atomically, before any id is assigned.
        "INGEST 1,2,3,4;1,2,3,4,5".to_owned(),
    ] {
        let response = svc.respond_line(&line);
        assert!(response.starts_with("ERR"), "{line:?} -> {response}");
    }
    // Batch rejection assigned no ids: the next accepted object is o0.
    let ok = svc.respond_line("INGEST 0,1,2,3");
    assert!(ok.starts_with("OK INGESTED 1 0:"), "{ok}");
}

#[test]
fn malformed_query_and_frontier_arguments_are_errors() {
    let svc = movie_service("baseline");
    for line in [
        "QUERY",         // missing id
        "QUERY abc",     // non-numeric
        "QUERY o",       // prefix without digits
        "QUERY -3",      // negative
        "QUERY 1 2",     // trailing garbage
        "FRONTIER",      // missing id
        "FRONTIER oops", // non-numeric
        "FRONTIER c",    // prefix without digits
    ] {
        let response = svc.respond_line(line);
        assert!(response.starts_with("ERR"), "{line:?} -> {response}");
    }
    // Well-formed but unknown ids are errors too, not panics.
    assert!(svc.respond_line("QUERY 999999").starts_with("ERR"));
    assert!(svc.respond_line("FRONTIER 999999").starts_with("ERR"));
}

#[test]
fn unknown_commands_and_bad_arity_verbs_are_errors() {
    let svc = movie_service("baseline-sw:16");
    for line in [
        "BOGUS",
        "INGESTT 1,2,3,4",
        "EXPIRE now",
        "STATS извините", // non-ASCII argument to a nullary verb
        "QUIT QUIT",
    ] {
        let response = svc.respond_line(line);
        assert!(response.starts_with("ERR"), "{line:?} -> {response}");
    }
    // None of that disturbed the engine: it still answers health checks.
    assert!(svc.respond_line("HEALTH").starts_with("OK HEALTH"));
}

#[test]
fn tcp_connection_survives_a_barrage_of_garbage() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let svc = Arc::new(movie_service("ftv:0.4"));
    let server_svc = Arc::clone(&svc);
    std::thread::spawn(move || serve(listener, server_svc));

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let mut ask = |req: &str| -> String {
        writer.write_all(req.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(!line.is_empty(), "connection closed on {req:?}");
        line.trim_end().to_owned()
    };

    let huge_row = vec!["9"; 4_096].join(",");
    let garbage = [
        "GARBAGE VERB",
        "INGEST x,y,z,w",
        "INGEST 1,2,3,4,5,6,7,8",
        "QUERY not-an-id",
        "FRONTIER ☃",
        &huge_row, // a raw value row with no verb at all
    ];
    for (i, req) in garbage.iter().enumerate() {
        let response = ask(req);
        assert!(response.starts_with("ERR"), "garbage #{i} -> {response}");
    }
    // After all of that, the same connection still works end to end.
    assert!(ask("INGEST 0,1,2,3").starts_with("OK INGESTED 1"));
    assert!(ask("QUERY 0").starts_with("OK QUERY 0"));
    assert!(ask("FRONTIER 0").starts_with("OK FRONTIER 0"));
    assert!(ask("STATS").contains("ingested=1"));
    assert_eq!(ask("QUIT"), "OK BYE");
}

#[test]
fn malformed_register_lines_return_errors() {
    let svc = movie_service("baseline");
    for line in [
        "REGISTER",                  // no arguments at all
        "REGISTER 5",                // user id but no preference rows
        "REGISTER x 0>1;;;",         // bad user id
        "REGISTER 5 0>1",            // 1 row, schema has 4 attributes
        "REGISTER 5 0>1;;;;;",       // 6 rows, schema has 4
        "REGISTER 5 0-1;;;",         // tuple without '>'
        "REGISTER 5 a>b;;;",         // non-numeric values
        "REGISTER 5 0>1,;;;",        // dangling comma
        "REGISTER 5 1>1;;;",         // reflexive tuple (non-canonical)
        "REGISTER 5 0>1,1>0;;;",     // cyclic tuples (non-canonical)
        "REGISTER 5 0>1,1>2,2>0;;;", // longer cycle via closure
    ] {
        let response = svc.respond_line(line);
        assert!(response.starts_with("ERR"), "{line:?} -> {response}");
    }
    // The dataset registers users 0..19 up front: duplicates are rejected.
    let dup = svc.respond_line("REGISTER 5 0>1;;;");
    assert!(dup.starts_with("ERR user 5 is already registered"), "{dup}");
    // None of that registered anyone or killed the engine.
    assert!(svc
        .respond_line("FRONTIER 25")
        .starts_with("ERR unknown user"));
    let ok = svc.respond_line("REGISTER 25 0>1;-;-;2>0");
    assert!(ok.starts_with("OK REGISTERED 25 shard="), "{ok}");
    assert!(svc
        .respond_line("FRONTIER 25")
        .starts_with("OK FRONTIER 25"));
}

#[test]
fn malformed_update_lines_return_errors() {
    let svc = movie_service("ftv:0.4");
    for line in [
        "UPDATE",                  // no arguments at all
        "UPDATE 5",                // user id but no preference rows
        "UPDATE x 0>1;;;",         // bad user id
        "UPDATE 5 0>1",            // 1 row, schema has 4 attributes
        "UPDATE 5 0>1;;;;;",       // 6 rows, schema has 4
        "UPDATE 5 0-1;;;",         // tuple without '>'
        "UPDATE 5 a>b;;;",         // non-numeric values
        "UPDATE 5 0>1,;;;",        // dangling comma
        "UPDATE 5 1>1;;;",         // reflexive tuple (non-canonical)
        "UPDATE 5 0>1,1>0;;;",     // cyclic tuples (non-canonical)
        "UPDATE 5 0>1,1>2,2>0;;;", // longer cycle via closure
        "UPDATE 99 0>1;;;",        // well-formed but unknown user
    ] {
        let response = svc.respond_line(line);
        assert!(response.starts_with("ERR"), "{line:?} -> {response}");
    }
    // None of that changed anyone or killed the engine: a genuine update on
    // a registered user still works, in place.
    let ok = svc.respond_line("UPDATE 5 0>1;-;-;2>0");
    assert!(ok.starts_with("OK UPDATED 5 shard="), "{ok}");
    assert!(svc.respond_line("FRONTIER 5").starts_with("OK FRONTIER 5"));
    assert!(svc.respond_line("HEALTH").contains("users=20"));
}

#[test]
fn update_churn_over_tcp_is_observable_in_stats() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let svc = Arc::new(movie_service("baseline"));
    let server_svc = Arc::clone(&svc);
    std::thread::spawn(move || serve(listener, server_svc));

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let mut ask = |req: &str| -> String {
        writer.write_all(req.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(!line.is_empty(), "connection closed on {req:?}");
        line.trim_end().to_owned()
    };

    let before = ask("STATS");
    assert!(before.contains("users=20"), "{before}");
    assert!(before.contains("updates=0"), "{before}");
    let shard_users_before = before
        .split_whitespace()
        .find(|f| f.starts_with("shard_users="))
        .expect("STATS reports shard_users=")
        .to_owned();
    // Two in-place updates: the user count and per-shard split must not
    // move, while the updates counter does.
    assert!(ask("UPDATE 3 0>1;-;-;-").starts_with("OK UPDATED 3"));
    assert!(ask("UPDATE 3 -;1>0;-;-").starts_with("OK UPDATED 3"));
    assert!(ask("INGEST 0,0,0,0").starts_with("OK INGESTED 1"));
    let after = ask("STATS");
    assert!(after.contains("users=20"), "{after}");
    assert!(after.contains("updates=2"), "{after}");
    assert!(after.contains(&shard_users_before), "{after}");
    // Malformed updates in between never kill the connection.
    assert!(ask("UPDATE 999 0>1;-;-;-").starts_with("ERR"));
    assert!(ask("FRONTIER 3").starts_with("OK FRONTIER 3"));
    assert_eq!(ask("QUIT"), "OK BYE");
}

#[test]
fn unregister_of_unknown_users_is_an_error_not_fatal() {
    let svc = movie_service("ftv-sw:0.4:16");
    for line in ["UNREGISTER", "UNREGISTER nope", "UNREGISTER 9999"] {
        let response = svc.respond_line(line);
        assert!(response.starts_with("ERR"), "{line:?} -> {response}");
    }
    // A real unregister works once, then errors on repeat.
    assert_eq!(svc.respond_line("UNREGISTER 3"), "OK UNREGISTERED 3");
    assert!(svc
        .respond_line("UNREGISTER 3")
        .starts_with("ERR user 3 is not registered"));
    // The connection and engine keep serving.
    assert!(svc
        .respond_line("INGEST 0,1,2,3")
        .starts_with("OK INGESTED 1"));
    assert!(svc
        .respond_line("FRONTIER 3")
        .starts_with("ERR unknown user"));
    assert!(svc.respond_line("HEALTH").starts_with("OK HEALTH"));
}

#[test]
fn register_churn_over_tcp_survives_and_is_observable() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let svc = Arc::new(movie_service("baseline-sw:32"));
    let server_svc = Arc::clone(&svc);
    std::thread::spawn(move || serve(listener, server_svc));

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let mut ask = |req: &str| -> String {
        writer.write_all(req.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(!line.is_empty(), "connection closed on {req:?}");
        line.trim_end().to_owned()
    };

    // STATS reports the per-shard live user counts before and after churn.
    let before = ask("STATS");
    assert!(before.contains("users=20"), "{before}");
    assert!(before.contains("shard_users="), "{before}");
    assert!(ask("REGISTER 40 0>1;-;-;-").starts_with("OK REGISTERED 40"));
    assert!(ask("REGISTER 41 -;1>0;-;-").starts_with("OK REGISTERED 41"));
    assert!(ask("INGEST 0,0,0,0;1,1,1,1").starts_with("OK INGESTED 2"));
    let during = ask("STATS");
    assert!(during.contains("users=22"), "{during}");
    assert!(ask("UNREGISTER 40").starts_with("OK UNREGISTERED 40"));
    let after = ask("STATS");
    assert!(after.contains("users=21"), "{after}");
    // Malformed churn requests in between never kill the connection.
    assert!(ask("REGISTER 41 -;1>0;-;-").starts_with("ERR"));
    assert!(ask("UNREGISTER 40").starts_with("ERR"));
    assert!(ask("FRONTIER 41").starts_with("OK FRONTIER 41"));
    assert_eq!(ask("QUIT"), "OK BYE");
}

#[test]
fn empty_batch_rows_do_not_reach_the_engine() {
    let svc = movie_service("baseline");
    // Whitespace-only and semicolon-only payloads must be parse errors.
    for line in ["INGEST  ", "INGEST ;", "INGEST ;;", "INGEST  ;  "] {
        let response = svc.respond_line(line);
        assert!(response.starts_with("ERR"), "{line:?} -> {response}");
    }
    // No object ids were consumed by the rejected batches.
    let ok = svc.respond_line("INGEST 3,2,1,0");
    assert!(ok.starts_with("OK INGESTED 1 0:"), "{ok}");
    // And the engine's ingest counter saw exactly one object.
    assert!(svc.respond_line("STATS").contains("ingested=1"));
}
