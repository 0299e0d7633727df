//! One end-to-end round: a fresh child `pm-server`, the workload's traffic
//! over two loopback connections, and everything the run needs to score it.
//!
//! Connection A carries every request, closed loop except for the
//! open-loop segment. Connection B holds the subscriptions and is drained
//! by the generator's second (and last) thread, which stamps each `EVENT`
//! read on receipt (see [`crate::subscriber`]). Replies and events are
//! kept raw while a clock runs and parsed afterwards, so parsing never sits
//! between a reply and the next request.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::child::{self_cpu_seconds, Env, Server, TempDir};
use crate::openloop;
use crate::oracle::Op;
use crate::spec::{
    self, register_choice, update_choice, Inputs, Spec, CHURN_ID_BASE, CHURN_LAG, SAMPLE_USERS,
    TAIL_CHURN,
};
use crate::subscriber::{self, Received};
use crate::wire::{self, Client, REPLY_TIMEOUT};

/// How long a server may take from spawn to accepting connections.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(120);

/// Requests per pipelined burst while registering or subscribing users.
const PIPELINE: usize = 64;

/// Which users a round watches.
pub struct Watch {
    /// The oracle's sample users, ascending.
    pub sample: Vec<u32>,
    /// Users connection B subscribes to (a superset of `sample`).
    pub subscribed: Vec<u32>,
}

impl Watch {
    /// Chooses the seeded sample and the subscription set of `spec`.
    pub fn choose(spec: &Spec, seed: u64) -> Self {
        let users = spec.users as u32;
        if spec.subscribe_every > 0 {
            let subscribed: Vec<u32> = (0..users).step_by(spec.subscribe_every).collect();
            Self {
                sample: spec::sample(&subscribed, SAMPLE_USERS, seed),
                subscribed,
            }
        } else {
            let everyone: Vec<u32> = (0..users).collect();
            let sample = spec::sample(&everyone, SAMPLE_USERS, seed);
            Self {
                subscribed: sample.clone(),
                sample,
            }
        }
    }
}

/// What one round measured and observed.
#[derive(Debug, Default)]
pub struct Round {
    /// Spawn → population loaded → first `OK HEALTH`.
    pub setup_s: f64,
    /// Objects of the closed-loop timed window.
    pub window_objects: usize,
    /// Its wall time, to connection B's barrier.
    pub window_s: f64,
    /// `INGEST` reply times of the latency segment (the open-loop segment
    /// from each request's due time, else the closed-loop window).
    pub ingest_ms: Vec<f64>,
    /// send → `OK REGISTERED`.
    pub register_ms: Vec<f64>,
    /// send → `OK UPDATED`.
    pub update_ms: Vec<f64>,
    /// Per `EVENT` line announcing an arrival of the latency segment:
    /// receipt on B − origin of the batch that carried the object.
    pub deliver_ms: Vec<f64>,
    /// Server `VmHWM` at the end of the round.
    pub rss_mb: f64,
    /// Wire operations attempted / failed (ERR, wrong ids, lagged, ...).
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// The oracle's input, sample users only.
    pub log: Vec<Op>,
    /// `EVENT` lines / bytes received on B.
    pub events: u64,
    /// See `events`.
    pub event_bytes: u64,
    /// Open loop: actual send − due, per request.
    pub late_ms: Vec<f64>,
    /// Open loop: most requests outstanding at once.
    pub backlog_max: usize,
    /// Generator CPU seconds ÷ wall seconds over the latency segment.
    pub gen_cpu_share: f64,
    /// Seconds on a clock: the open-loop segment plus the closed window.
    pub measured_s: f64,
    /// `kill -9` → restart on the same WAL dir → `OK HEALTH`.
    pub recovery_s: Option<f64>,
    /// `STATS` line and `METRICS` body scraped after the timed window.
    pub scrape: Option<(String, String)>,
}

impl Round {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Counts one request and checks its reply starts with `expect`.
    fn expect(&mut self, reply: &str, expect: &str) -> bool {
        self.attempted += 1;
        let ok = reply.starts_with(expect);
        if !ok {
            self.fail(format!(
                "wanted `{expect}`, got `{}`",
                wire::truncate(reply)
            ));
        }
        ok
    }
}

/// What the generator saw on connection A, in order, still unparsed.
enum Raw {
    Ingest {
        first: usize,
        len: usize,
        /// Due time (open loop) or send time (closed loop).
        origin: Instant,
        reply: String,
    },
    Update {
        user: u32,
        pref: usize,
    },
    Frontier {
        user: u32,
        reply: String,
    },
}

/// The main thread's handle on connection B while the reader thread owns
/// its read half.
struct Barrier {
    writer: TcpStream,
    answered: mpsc::Receiver<Instant>,
}

impl Barrier {
    /// `HEALTH` on B: it is answered after every event queued before it,
    /// so its receipt time is when B had drained them all.
    fn wait(&mut self) -> Result<Instant, String> {
        self.writer
            .write_all(b"HEALTH\n")
            .map_err(|e| format!("barrier send failed: {e}"))?;
        self.answered
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|_| "connection B never answered its barrier (timed out)".to_owned())
    }

    /// `QUIT` on B; the `OK BYE` it is answered with ends the reader thread.
    fn quit(mut self) -> Result<(), String> {
        self.writer
            .write_all(b"QUIT\n")
            .map_err(|e| format!("QUIT on connection B failed: {e}"))
    }
}

/// Sends `lines` in bursts of [`PIPELINE`] and returns the replies.
pub fn pipelined(client: &mut Client, lines: &[String]) -> Result<Vec<String>, String> {
    let mut replies = Vec::with_capacity(lines.len());
    for burst in lines.chunks(PIPELINE) {
        client.send(&burst.concat())?;
        for _ in burst {
            replies.push(client.read_line()?);
        }
    }
    Ok(replies)
}

/// Generator CPU seconds per wall second since `start`.
struct CpuShare {
    wall: Instant,
    cpu: f64,
}

impl CpuShare {
    fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: self_cpu_seconds(),
        }
    }

    fn share(&self) -> f64 {
        (self_cpu_seconds() - self.cpu) / self.wall.elapsed().as_secs_f64().max(1e-9)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Closed-loop `INGEST` of stream objects `from .. to`; returns the reply
/// times.
fn ingest_closed(
    a: &mut Client,
    spec: &Spec,
    inputs: &Inputs,
    (from, to): (usize, usize),
    raw: &mut Vec<Raw>,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    let mut first = from;
    while first < to {
        let len = spec.batch.min(to - first);
        let line = inputs.ingest_line(first, len);
        let origin = Instant::now();
        a.send(&line)?;
        let reply = a.read_line()?;
        times.push(ms(origin.elapsed()));
        raw.push(Raw::Ingest {
            first,
            len,
            origin,
            reply,
        });
        first += len;
    }
    Ok(times)
}

/// Everything a round needs besides the workload itself.
pub struct RoundCtx<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// Its generated inputs.
    pub inputs: &'a Inputs,
    /// Sample and subscription sets.
    pub watch: &'a Watch,
    /// Binary and scratch locations.
    pub env: &'a Env,
    /// Round number, for scratch file names.
    pub index: usize,
    /// Scrape `STATS` and `METRICS` after the timed window.
    pub scrape: bool,
}

/// Runs one round. `Err` means the transport failed (refused, closed,
/// timed out): the round has no numbers and the run is not correct.
pub fn run_round(ctx: &RoundCtx<'_>) -> Result<Round, String> {
    let RoundCtx {
        spec,
        inputs,
        watch,
        env,
        ..
    } = *ctx;
    let mut round = Round::default();
    let mut raw: Vec<Raw> = Vec::new();

    let wal_dir = spec
        .wal
        .then(|| TempDir::create(&env.out_dir, &format!("wal-{}-{}", spec.name, ctx.index)))
        .transpose()
        .map_err(|e| format!("cannot create the WAL dir: {e}"))?;
    let mut flags = spec.server_flags();
    if let Some(dir) = &wal_dir {
        flags.extend(["--wal-dir".to_owned(), dir.0.display().to_string()]);
    }
    let log_path = env.out_dir.join(format!("{}.server.log", spec.name));
    let spawn = || Server::spawn(env, &flags, &log_path).map_err(|e| format!("spawn failed: {e}"));

    // ---- set-up: spawn → population loaded → first OK HEALTH ----
    let mut server = spawn()?;
    let mut a = Client::connect(server.addr, server.spawned + STARTUP_TIMEOUT)?;
    if spec.node.is_some() {
        let lines: Vec<String> = inputs
            .pref_rows
            .iter()
            .enumerate()
            .map(|(user, rows)| format!("REGISTER {user} {rows}\n"))
            .collect();
        for reply in pipelined(&mut a, &lines)? {
            round.expect(&reply, "OK REGISTERED");
        }
    }
    let (health, _) = a.request("HEALTH")?;
    round.setup_s = server.spawned.elapsed().as_secs_f64();
    round.expect(&health, "OK HEALTH");
    if wire::field(&health, "users") != Some(&spec.users.to_string()) {
        round.fail(format!("population not loaded: {health}"));
    }

    // ---- connection B: subscriptions, then its reader thread ----
    let mut b = Client::connect(server.addr, Instant::now() + REPLY_TIMEOUT)?;
    let subscribe: Vec<String> = watch
        .subscribed
        .iter()
        .map(|user| format!("SUBSCRIBE {user}\n"))
        .collect();
    let mut tracked: BTreeMap<u32, BTreeSet<u64>> = BTreeMap::new();
    for reply in pipelined(&mut b, &subscribe)? {
        if round.expect(&reply, "OK SUBSCRIBED") {
            let (user, snapshot) = wire::parse_frontier(&reply, "SUBSCRIBED")?;
            if watch.sample.binary_search(&user).is_ok() {
                tracked.insert(user, snapshot.into_iter().collect());
            }
        }
    }
    let (barrier_tx, barrier_rx) = mpsc::channel();
    let (b_reader, b_buffered, b_writer) = b.into_raw();
    let mut b_side = Barrier {
        writer: b_writer,
        answered: barrier_rx,
    };
    let reader = std::thread::spawn(move || subscriber::drain(b_reader, b_buffered, barrier_tx));

    // ---- untimed fill (a sliding window reaches steady state) ----
    let mut next = spec.fill;
    ingest_closed(&mut a, spec, inputs, (0, next), &mut raw)?;

    // ---- open-loop segment ----
    // `segment` is the part of `raw` whose replies and events are timed.
    let mut segment = (raw.len(), raw.len());
    if let Some(open) = spec.open_loop {
        let firsts: Vec<usize> = (next..next + open.objects).step_by(spec.batch).collect();
        let len_at = |first: usize| spec.batch.min(next + open.objects - first);
        let requests: Vec<String> = firsts
            .iter()
            .map(|&first| inputs.ingest_line(first, len_at(first)))
            .collect();
        let interval = Duration::from_secs_f64(spec.batch as f64 / open.rate_obj_per_s);
        let cpu = CpuShare::start();
        let start = Instant::now();
        let run = openloop::run(&mut a, &requests, interval)?;
        round.gen_cpu_share = cpu.share();
        round.measured_s += start.elapsed().as_secs_f64();
        for (k, reply) in run.replies.into_iter().enumerate() {
            raw.push(Raw::Ingest {
                first: firsts[k],
                len: len_at(firsts[k]),
                origin: start + interval.mul_f64(k as f64),
                reply,
            });
        }
        segment.1 = raw.len();
        round.ingest_ms = run.latency_ms;
        round.late_ms = run.late_ms;
        round.backlog_max = run.backlog_max;
        next += open.objects;
        // Every reply is in, so the queue has drained; B catches up before
        // the closed-loop clock starts.
        b_side.wait()?;
    }

    // ---- closed-loop timed window ----
    let closed_from = raw.len();
    let cpu = CpuShare::start();
    let window_start = Instant::now();
    let end = next + spec.closed;
    let mut window_ms = Vec::new();
    if spec.churn {
        let mut cycle = 0usize;
        while next < end {
            let upto = (next + spec.batch).min(end);
            window_ms.extend(ingest_closed(&mut a, spec, inputs, (next, upto), &mut raw)?);
            next = upto;
            churn_cycle(&mut a, ctx, cycle, true, &mut round, &mut raw)?;
            cycle += 1;
        }
    } else {
        window_ms = ingest_closed(&mut a, spec, inputs, (next, end), &mut raw)?;
    }
    let window_end = b_side.wait()?;
    round.window_objects = spec.closed;
    round.window_s = window_end.duration_since(window_start).as_secs_f64();
    round.measured_s += round.window_s;
    if spec.open_loop.is_none() {
        segment = (closed_from, raw.len());
        round.ingest_ms = window_ms;
        round.gen_cpu_share = cpu.share();
    }

    if ctx.scrape {
        let (stats, _) = a.request("STATS")?;
        round.expect(&stats, "OK STATS");
        round.scrape = Some((stats, a.request_metrics()?));
    }

    // ---- membership tail: REGISTER / UPDATE / UNREGISTER samples ----
    if !spec.churn {
        for cycle in 0..TAIL_CHURN {
            churn_cycle(&mut a, ctx, cycle, false, &mut round, &mut raw)?;
        }
    }

    // ---- final state: FRONTIER of every sample user, B fully drained ----
    let mut finals: Vec<(u32, String)> = Vec::new();
    for &user in &watch.sample {
        let (reply, _) = a.request(&format!("FRONTIER {user}"))?;
        if round.expect(&reply, "OK FRONTIER") {
            finals.push((user, reply.clone()));
            raw.push(Raw::Frontier { user, reply });
        }
    }
    b_side.wait()?;
    b_side.quit()?;
    let events = reader
        .join()
        .map_err(|_| "connection B's reader panicked".to_owned())?;
    round.rss_mb = server.peak_rss_mb().unwrap_or(0.0);
    if server.has_exited() {
        round.fail("the server exited during the round".to_owned());
    }
    server.kill();

    // ---- crash recovery on the same WAL dir (the first round only: it
    // costs as much as the round itself) ----
    if spec.wal && ctx.index == 0 {
        let restarted = spawn()?;
        let mut c = Client::connect(restarted.addr, restarted.spawned + STARTUP_TIMEOUT)?;
        let (health, _) = c.request("HEALTH")?;
        round.recovery_s = Some(restarted.spawned.elapsed().as_secs_f64());
        round.expect(&health, "OK HEALTH");
        for (user, before) in &finals {
            let (after, _) = c.request(&format!("FRONTIER {user}"))?;
            round.attempted += 1;
            if after != *before {
                round.fail(format!("FRONTIER {user} changed across kill -9 + recovery"));
            }
        }
        restarted.kill();
    }

    // ---- off the clock: parse, attribute, cross-check ----
    digest_round(ctx, &mut round, raw, events, tracked, segment, window_end);
    Ok(round)
}

/// One churn cycle on connection A. Inside `churn_wal`'s window (`full`)
/// it is the ISSUE's cycle — `REGISTER` a new user, `UNREGISTER` the one
/// from [`CHURN_LAG`] cycles ago, `UPDATE` one base user, two `FRONTIER`
/// reads; in another workload's tail it is the bare `REGISTER`, `UPDATE`,
/// `UNREGISTER` triple. New users copy a base user's preference and
/// updates assign another base user's (see [`register_choice`]).
fn churn_cycle(
    a: &mut Client,
    ctx: &RoundCtx<'_>,
    cycle: usize,
    full: bool,
    round: &mut Round,
    raw: &mut Vec<Raw>,
) -> Result<(), String> {
    let users = ctx.spec.users;
    let rows = &ctx.inputs.pref_rows;
    let sample = &ctx.watch.sample;
    let new_user = CHURN_ID_BASE + cycle as u32;

    let (reply, took) = a.request(&format!(
        "REGISTER {new_user} {}",
        rows[register_choice(cycle, users)]
    ))?;
    if round.expect(&reply, "OK REGISTERED") {
        round.register_ms.push(ms(took));
    }
    let leaving = if full {
        cycle
            .checked_sub(CHURN_LAG)
            .map(|c| CHURN_ID_BASE + c as u32)
    } else {
        None
    };
    if let Some(user) = leaving {
        let (reply, _) = a.request(&format!("UNREGISTER {user}"))?;
        round.expect(&reply, "OK UNREGISTERED");
    }

    let (user, pref) = update_choice(cycle, users);
    let user = user as u32;
    let (reply, took) = a.request(&format!("UPDATE {user} {}", rows[pref]))?;
    if round.expect(&reply, "OK UPDATED") {
        round.update_ms.push(ms(took));
        if sample.binary_search(&user).is_ok() {
            raw.push(Raw::Update { user, pref });
        }
    }

    if full {
        for k in 0..2 {
            let user = sample[(2 * cycle + k) % sample.len()];
            let (reply, _) = a.request(&format!("FRONTIER {user}"))?;
            if round.expect(&reply, "OK FRONTIER") {
                raw.push(Raw::Frontier { user, reply });
            }
        }
    } else {
        let (reply, _) = a.request(&format!("UNREGISTER {new_user}"))?;
        round.expect(&reply, "OK UNREGISTERED");
    }
    Ok(())
}

/// Parses the raw transcript into the oracle's log, attributes `EVENT`
/// lines to the batches that caused them, and checks that every sample
/// user's subscription snapshot plus deltas equals its final `FRONTIER`.
fn digest_round(
    ctx: &RoundCtx<'_>,
    round: &mut Round,
    raw: Vec<Raw>,
    received: Received,
    mut tracked: BTreeMap<u32, BTreeSet<u64>>,
    segment: (usize, usize),
    window_end: Instant,
) {
    let sample = &ctx.watch.sample;
    let sliding = ctx.spec.backend.contains("-sw");
    // Per stream object: where its latency clock starts, and (sliding
    // backends) which sample users it was announced to on arrival.
    let mut origin: Vec<Option<Instant>> = vec![None; ctx.inputs.objects.len()];
    let mut announced: Vec<Vec<u32>> = Vec::new();
    if sliding {
        announced.resize(ctx.inputs.objects.len(), Vec::new());
    }
    let mut finals: BTreeMap<u32, Vec<u64>> = BTreeMap::new();

    for (position, item) in raw.into_iter().enumerate() {
        match item {
            Raw::Ingest {
                first,
                len,
                origin: at,
                reply,
            } => {
                round.attempted += 1;
                let objects = match wire::parse_ingested(&reply) {
                    Ok(objects) if objects.len() == len => objects,
                    Ok(objects) => {
                        round.fail(format!(
                            "batch at {first}: {} of {len} objects",
                            objects.len()
                        ));
                        continue;
                    }
                    Err(e) => {
                        round.fail(e);
                        continue;
                    }
                };
                if objects
                    .iter()
                    .enumerate()
                    .any(|(k, o)| o.id != (first + k) as u64)
                {
                    round.fail(format!(
                        "batch at {first}: ids are not the stream positions"
                    ));
                    continue;
                }
                let in_segment = (segment.0..segment.1).contains(&position);
                let targets: Vec<Vec<u32>> = objects
                    .iter()
                    .map(|o| {
                        o.targets
                            .iter()
                            .copied()
                            .filter(|u| sample.binary_search(u).is_ok())
                            .collect()
                    })
                    .collect();
                for (k, sampled) in targets.iter().enumerate() {
                    if in_segment {
                        origin[first + k] = Some(at);
                    }
                    if sliding {
                        announced[first + k] = sampled.clone();
                    }
                }
                round.log.push(Op::Ingest { first, targets });
            }
            Raw::Update { user, pref } => round.log.push(Op::Update { user, pref }),
            Raw::Frontier { user, reply } => match wire::parse_frontier(&reply, "FRONTIER") {
                Ok((_, ids)) => {
                    finals.insert(user, ids.clone());
                    round.log.push(Op::Frontier { user, reply: ids });
                }
                Err(e) => round.fail(e),
            },
        }
    }

    round.event_bytes = received.bytes();
    if let Some(e) = &received.error {
        round.fail(format!("connection B: {e}"));
    }
    let mut deltas: Vec<(bool, u64)> = Vec::new();
    for (at, line) in received.lines() {
        deltas.clear();
        let Some(user) = wire::parse_event(line, &mut deltas) else {
            if !line.starts_with("OK HEALTH") && line != "OK BYE" {
                // `ERR lagged`, or anything else B should never see.
                round.fail(format!("connection B: {}", wire::truncate(line)));
            }
            continue;
        };
        round.events += 1;
        if let Some(frontier) = tracked.get_mut(&user) {
            for &(entered, id) in &deltas {
                let changed = if entered {
                    frontier.insert(id)
                } else {
                    frontier.remove(&id)
                };
                if !changed {
                    round.fail(format!(
                        "user {user}: delta {}{id} does not apply to its frontier",
                        if entered { '+' } else { '-' }
                    ));
                }
            }
        }
        if at > window_end {
            continue;
        }
        // The arriving object is the newest id entering; on a sliding
        // window an older object may re-enter (Def. 7.4 mending), which
        // announces no arrival.
        let arrival = deltas
            .iter()
            .filter(|&&(entered, id)| {
                entered
                    && (id as usize) < origin.len()
                    && (!sliding || announced[id as usize].binary_search(&user).is_ok())
            })
            .map(|&(_, id)| id as usize)
            .max();
        if let Some(start) = arrival.and_then(|id| origin[id]) {
            round
                .deliver_ms
                .push(ms(at.saturating_duration_since(start)));
        }
    }
    for (user, frontier) in &tracked {
        round.attempted += 1;
        let streamed: Vec<u64> = frontier.iter().copied().collect();
        if finals.get(user) != Some(&streamed) {
            round.fail(format!(
                "user {user}: subscription snapshot + deltas differ from its final FRONTIER"
            ));
        }
    }
}
