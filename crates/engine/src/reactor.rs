//! The readiness reactor: one event-loop thread drives every connection.
//!
//! The pre-subscription serving layer spent a blocking thread per
//! connection — fine for a handful of request/response clients, fatal for
//! the subscription workload, where 100k mostly-idle subscribers would pin
//! 100k stacks to do nothing. This module replaces it with a classic
//! single-threaded readiness loop over nonblocking sockets (epoll via
//! [`pm_reactor::Poller`]; `poll(2)` off Linux).
//!
//! The connections are [`pm_reactor::conn::Conn`]s, shared with the
//! `pm-coord` coordinator (message splitting, the bounded outbox, flushing,
//! registration, half-close, accepting). This module owns the rest:
//!
//! * **Dispatch.** Requests are parsed and handled inline; shard-side
//!   parallelism is unchanged (the reactor blocks on a batch fan-in exactly
//!   like a connection thread did). Responses render in the connection's
//!   negotiated mode (see `HELLO` in [`crate::protocol`]).
//! * **Subscriptions** ([`crate::protocol::Request::Subscribe`]) are plain
//!   reactor state: a user → connection index. Because the loop is single
//!   threaded, the `OK SUBSCRIBED` snapshot and the subsequent `EVENT`
//!   stream are atomic — every delta after the snapshot is delivered
//!   exactly once, in order. `INGEST` responses carry their canonical
//!   per-user deltas ([`pm_core::FrontierDelta`]) and fan out to
//!   subscribers of the affected users, each event rendered once per wire
//!   mode; `REGISTER`/`UPDATE`/`UNREGISTER` on a watched user synthesize
//!   events by diffing the user's frontier around the change. A lagged
//!   subscriber loses its subscriptions at once; a half-closed one parks
//!   while it has any.
//!
//! Failure policy (audited): parse failures answer `ERR` and keep the
//! connection; unframeable input (an overlong line or frame, which has no
//! resync point) answers a terminal `ERR` and closes; read/write failures
//! end that connection only; accept failures are logged and skipped, and
//! only a persistently failing listener (16 consecutive errors) ends the
//! loop.

use std::collections::{HashMap, HashSet};
use std::net::TcpListener;
use std::sync::Arc;

use pm_core::FrontierDelta;
use pm_model::{ObjectId, UserId};
pub use pm_reactor::conn::{shutdown_pair, ReactorConfig, Shutdown, ShutdownSignal};
use pm_reactor::conn::{Acceptor, Conn, Extracted, LISTENER, SHUTDOWN};
use pm_reactor::{Event, Poller};

use crate::protocol::Request;
use crate::response::{render_frame, render_text, Response, WireMode};
use crate::server::EngineService;

/// A connection plus the users it subscribes to.
struct Client {
    conn: Conn,
    subscriptions: HashSet<UserId>,
}

struct Reactor {
    acceptor: Acceptor,
    service: Arc<EngineService>,
    config: ReactorConfig,
    poller: Poller,
    clients: HashMap<u64, Client>,
    /// user → tokens of the connections subscribed to that user.
    user_subs: HashMap<UserId, HashSet<u64>>,
    /// Total active subscriptions (mirrored into `pm_subscribers`).
    subscriber_count: usize,
    /// Total unsent outbox bytes (mirrored into
    /// `pm_subscriber_outbox_depth`).
    outbox_total: usize,
}

/// Serves `listener` with a single reactor thread using `config`; see the
/// module docs. [`crate::server::serve`] calls this with the default
/// configuration; tests shrink [`ReactorConfig::max_outbox`] to exercise
/// lagged-subscriber eviction.
pub fn serve_with(
    listener: TcpListener,
    service: Arc<EngineService>,
    config: ReactorConfig,
) -> std::io::Result<()> {
    serve_reactor(listener, service, config, None)
}

/// [`serve_with`] plus a shutdown signal: the loop additionally returns
/// `Ok(())` when the paired [`Shutdown`] handle fires, dropping every
/// connection and the listener.
pub fn serve_with_signal(
    listener: TcpListener,
    service: Arc<EngineService>,
    config: ReactorConfig,
    signal: ShutdownSignal,
) -> std::io::Result<()> {
    serve_reactor(listener, service, config, Some(signal))
}

fn serve_reactor(
    listener: TcpListener,
    service: Arc<EngineService>,
    config: ReactorConfig,
    shutdown: Option<ShutdownSignal>,
) -> std::io::Result<()> {
    let mut poller = Poller::new()?;
    let acceptor = Acceptor::new(listener, &mut poller, LISTENER + 1)?;
    if let Some(signal) = &shutdown {
        signal.register(&mut poller)?;
    }
    let mut reactor = Reactor {
        acceptor,
        service,
        config,
        poller,
        clients: HashMap::new(),
        user_subs: HashMap::new(),
        subscriber_count: 0,
        outbox_total: 0,
    };
    let result = reactor.run();
    // `shutdown` must outlive the loop: its fd is registered with the
    // poller, and dropping it earlier would recycle the fd number while
    // the poller still watches it.
    drop(shutdown);
    result
}

/// Renders `response` in `mode`, newline-terminated in text mode.
fn render(response: &Response, mode: WireMode) -> Vec<u8> {
    match mode {
        WireMode::Text => {
            let mut b = render_text(response).into_bytes();
            b.push(b'\n');
            b
        }
        WireMode::Frame => render_frame(response),
    }
}

impl Reactor {
    fn run(&mut self) -> std::io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            self.poller.wait(&mut events, None)?;
            for &event in &events {
                match event.token {
                    SHUTDOWN => return Ok(()),
                    LISTENER => self.accept_ready()?,
                    _ => self.drive_conn(event),
                }
            }
            self.refresh_gauges();
        }
    }

    /// Accepts every pending connection.
    fn accept_ready(&mut self) -> std::io::Result<()> {
        while let Some(accepted) = self.acceptor.accept(&mut self.poller) {
            match accepted {
                Ok((token, conn)) => {
                    let subscriptions = HashSet::new();
                    self.clients.insert(
                        token,
                        Client {
                            conn,
                            subscriptions,
                        },
                    );
                    if let Some(metrics) = self.service.metrics_bundle() {
                        metrics.connections.inc();
                    }
                }
                Err(failure) => {
                    pm_obs::warn!(
                        "pm_engine::reactor",
                        "accept failed",
                        error = failure.error,
                        consecutive = failure.consecutive,
                    );
                    return failure.into_result();
                }
            }
        }
        Ok(())
    }

    /// Drives one connection through a readiness event: fill the input
    /// buffer, dispatch every complete request (closing after a terminal
    /// `ERR`), then flush and re-arm (or tear down) the registration.
    /// Tokens touched by fan-out along the way are finished too, so
    /// subscribers get their events flushed in the same loop iteration.
    fn drive_conn(&mut self, event: Event) {
        let token = event.token;
        let Some(client) = self.clients.get_mut(&token) else {
            return;
        };
        if event.error || (event.readable && client.conn.fill().is_err()) {
            self.close_conn(token);
            return;
        }
        let mut touched = vec![token];
        while let Some(client) = self.clients.get_mut(&token) {
            match client.conn.next_message(self.config.max_line) {
                Extracted::Line(line) => self.dispatch(token, &line, &mut touched),
                Extracted::Invalid { message, terminal } => {
                    self.enqueue_response(token, &Response::Err(message));
                    if let (true, Some(client)) = (terminal, self.clients.get_mut(&token)) {
                        client.conn.close_when_drained();
                    }
                }
                Extracted::Incomplete => break,
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for t in touched {
            self.finish(t);
        }
    }

    /// Parses and handles one request line, enqueues the response in the
    /// connection's current mode, and applies the reactor-side effects:
    /// subscription bookkeeping, the `HELLO` mode switch, `QUIT` teardown
    /// and event fan-out.
    fn dispatch(&mut self, token: u64, line: &str, touched: &mut Vec<u64>) {
        let request = match self.service.parse_line(line) {
            Ok(request) => request,
            Err(e) => {
                self.enqueue_response(token, &Response::Err(e));
                return;
            }
        };

        // Subscription validity is per-connection state only the reactor
        // knows; reject duplicates/absentees before the service runs.
        let precheck = match (&request, self.clients.get(&token)) {
            (Request::Subscribe(user), Some(client)) if client.subscriptions.contains(user) => {
                Some(format!("already subscribed to user {}", user.raw()))
            }
            (Request::Unsubscribe(user), Some(client)) if !client.subscriptions.contains(user) => {
                Some(format!("not subscribed to user {}", user.raw()))
            }
            _ => None,
        };
        if let Some(message) = precheck {
            self.enqueue_response(token, &Response::Err(message));
            return;
        }

        // A membership change on a watched user synthesizes an event from
        // the frontier diff around the change; capture the "before" now.
        let watched = match &request {
            Request::Register { user, .. }
            | Request::Update { user, .. }
            | Request::Unregister(user)
                if self.user_subs.contains_key(user) =>
            {
                Some((*user, self.frontier_of(*user)))
            }
            _ => None,
        };

        let response = self.service.handle(request);

        match &response {
            Response::Subscribed { user, .. } => {
                let user = *user;
                if let Some(client) = self.clients.get_mut(&token) {
                    client.subscriptions.insert(user);
                    self.user_subs.entry(user).or_default().insert(token);
                    self.subscriber_count += 1;
                }
            }
            Response::Unsubscribed(user) => self.drop_subscription(token, *user),
            _ => {}
        }

        // HELLO answers in the old mode, then the connection switches;
        // QUIT's goodbye is enqueued before the teardown flag so it is the
        // connection's last delivered message.
        let switch_to = match &response {
            Response::Hello { proto, .. } | Response::NodeHello { proto, .. } => Some(*proto),
            _ => None,
        };
        self.enqueue_response(token, &response);
        if let Some(client) = self.clients.get_mut(&token) {
            if let Some(mode) = switch_to {
                client.conn.mode = mode;
            }
            if matches!(response, Response::Bye) {
                client.conn.close_when_drained();
            }
        }

        if let Response::Ingested(arrivals) = &response {
            for arrival in arrivals {
                self.fan_out(&arrival.deltas, touched);
            }
        }
        if let (Some((user, before)), false) = (watched, response.is_err()) {
            let after = self.frontier_of(user);
            let deltas = diff_frontiers(user, &before, &after);
            if !deltas.is_empty() {
                self.fan_out(&deltas, touched);
            }
        }
    }

    /// A user's current frontier; empty when not registered (around
    /// `REGISTER`/`UNREGISTER` one side of the diff is always empty).
    fn frontier_of(&self, user: UserId) -> Vec<ObjectId> {
        let engine = self.service.engine();
        if engine.is_registered(user) {
            engine.frontier(user)
        } else {
            Vec::new()
        }
    }

    /// Pushes one arrival's deltas (sorted by user, then object) to every
    /// subscriber of each affected user, rendering each user's event once
    /// per wire mode.
    fn fan_out(&mut self, deltas: &[FrontierDelta], touched: &mut Vec<u64>) {
        let mut at = 0;
        while at < deltas.len() {
            let user = deltas[at].user;
            let end = at + deltas[at..].iter().take_while(|d| d.user == user).count();
            if let Some(subs) = self.user_subs.get(&user) {
                let subs: Vec<u64> = subs.iter().copied().collect();
                let event = Response::Event {
                    user,
                    deltas: deltas[at..end].to_vec(),
                };
                let mut text: Option<Vec<u8>> = None;
                let mut frame: Option<Vec<u8>> = None;
                for sub in subs {
                    let Some(client) = self.clients.get(&sub) else {
                        continue;
                    };
                    let mode = client.conn.mode;
                    let bytes = match mode {
                        WireMode::Text => &mut text,
                        WireMode::Frame => &mut frame,
                    }
                    .get_or_insert_with(|| render(&event, mode));
                    self.enqueue_bytes(sub, bytes);
                    touched.push(sub);
                }
            }
            at = end;
        }
    }

    /// Renders `response` in the connection's current mode and appends it
    /// to the outbox.
    fn enqueue_response(&mut self, token: u64, response: &Response) {
        let Some(client) = self.clients.get(&token) else {
            return;
        };
        let bytes = render(response, client.conn.mode);
        self.enqueue_bytes(token, &bytes);
    }

    /// Appends raw rendered bytes, enforcing the outbox bound: a
    /// connection over [`ReactorConfig::max_outbox`] is evicted — its
    /// subscriptions are dropped (no further events accrue), a terminal
    /// `ERR lagged` is appended, and the connection closes once its buffer
    /// drains.
    fn enqueue_bytes(&mut self, token: u64, bytes: &[u8]) {
        let Some(client) = self.clients.get_mut(&token) else {
            return;
        };
        let before = client.conn.pending_out();
        let lagged = client.conn.push(bytes, self.config.max_outbox);
        if lagged {
            let message = render(&Response::Err("lagged".to_owned()), client.conn.mode);
            client.conn.push_terminal(&message);
        }
        self.outbox_total += client.conn.pending_out() - before;
        if lagged {
            let users = std::mem::take(&mut client.subscriptions);
            self.unindex(token, users);
        }
    }

    /// Flushes what the socket will take, then re-arms the registration to
    /// the interest the connection actually needs — or tears it down when
    /// it needs nothing and has no subscriptions to park for.
    fn finish(&mut self, token: u64) {
        let Some(client) = self.clients.get_mut(&token) else {
            return;
        };
        let before = client.conn.pending_out();
        let park = !client.subscriptions.is_empty();
        let alive = client.conn.finish(&mut self.poller, token, park);
        self.outbox_total -= before - client.conn.pending_out();
        if !alive {
            self.close_conn(token);
        }
    }

    /// Removes one subscription, maintaining the reverse index and count.
    fn drop_subscription(&mut self, token: u64, user: UserId) {
        let Some(client) = self.clients.get_mut(&token) else {
            return;
        };
        if client.subscriptions.remove(&user) {
            self.unindex(token, [user]);
        }
    }

    /// Drops `token` from the reverse index of each of `users`, which the
    /// connection no longer subscribes to.
    fn unindex(&mut self, token: u64, users: impl IntoIterator<Item = UserId>) {
        for user in users {
            self.subscriber_count -= 1;
            if let Some(subs) = self.user_subs.get_mut(&user) {
                subs.remove(&token);
                if subs.is_empty() {
                    self.user_subs.remove(&user);
                }
            }
        }
    }

    /// Tears a connection down: subscription index, gauge inputs, poller
    /// registration and the socket.
    fn close_conn(&mut self, token: u64) {
        let Some(client) = self.clients.remove(&token) else {
            return;
        };
        self.unindex(token, client.subscriptions);
        self.outbox_total -= client.conn.pending_out();
        client.conn.close(&mut self.poller);
    }

    /// Mirrors the reactor-owned counts into the metric gauges.
    fn refresh_gauges(&self) {
        if let Some(metrics) = self.service.metrics_bundle() {
            metrics.connections_open.set(self.clients.len() as f64);
            metrics.subscribers.set(self.subscriber_count as f64);
            metrics.subscriber_outbox.set(self.outbox_total as f64);
        }
    }
}

/// The enter/leave deltas turning the sorted frontier `before` into the
/// sorted frontier `after`, ascending by object id — the same canonical
/// encoding the monitors emit for arrivals.
fn diff_frontiers(user: UserId, before: &[ObjectId], after: &[ObjectId]) -> Vec<FrontierDelta> {
    let mut deltas = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < before.len() || j < after.len() {
        match (before.get(i), after.get(j)) {
            (Some(&b), Some(&a)) if b == a => {
                i += 1;
                j += 1;
            }
            (Some(&b), Some(&a)) if b < a => {
                deltas.push(FrontierDelta::leave(user, b));
                i += 1;
            }
            (Some(_), Some(&a)) => {
                deltas.push(FrontierDelta::enter(user, a));
                j += 1;
            }
            (Some(&b), None) => {
                deltas.push(FrontierDelta::leave(user, b));
                i += 1;
            }
            (None, Some(&a)) => {
                deltas.push(FrontierDelta::enter(user, a));
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_diffs_are_canonical() {
        let u = UserId::new(1);
        let o = ObjectId::new;
        assert_eq!(diff_frontiers(u, &[], &[]), vec![]);
        assert_eq!(
            diff_frontiers(u, &[o(1), o(3)], &[o(2), o(3), o(5)]),
            vec![
                FrontierDelta::leave(u, o(1)),
                FrontierDelta::enter(u, o(2)),
                FrontierDelta::enter(u, o(5)),
            ]
        );
        assert_eq!(
            diff_frontiers(u, &[o(7)], &[]),
            vec![FrontierDelta::leave(u, o(7))]
        );
    }
}
