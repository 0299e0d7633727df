//! The coordinator's serving loop: one readiness reactor over the client
//! listener, every client connection and one *event connection* per node.
//!
//! Both kinds of connection are [`pm_reactor::conn::Conn`]s, as on a node,
//! so clients get a node's connection contract (bounded outbox, lagged
//! eviction, input limits, half-close). Client traffic is the plain text
//! protocol (the coordinator does not speak frame mode; `HELLO frame`
//! answers `ERR`).
//! Request/response verbs go through [`Cluster::handle`] synchronously —
//! the control connections are blocking with a read timeout, so a wedged
//! node degrades instead of hanging the loop forever.
//!
//! What this module owns is the subscription relay. A node pushes `EVENT`
//! lines whenever a subscribed user's frontier changes, so each live node
//! gets a second, nonblocking *event connection*, registered with the
//! poller. The coordinator subscribes **once per user** on that connection
//! and fans the node's `EVENT` lines out to every subscribed client
//! (refcounted); a second client subscribing to an already-subscribed user
//! gets its snapshot from a `FRONTIER` round trip on the same event
//! connection, which the node answers *in order with the event stream*, so
//! the snapshot is exactly consistent with the deltas already delivered.
//! When a node dies, every subscription it carried ends with a pushed
//! `ERR degraded node=<n>` line and the client must re-subscribe after the
//! node rejoins.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::TcpListener;

use pm_model::UserId;
use pm_reactor::conn::{
    Acceptor, Conn, Extracted, ReactorConfig, ShutdownSignal, LISTENER, SHUTDOWN,
};
use pm_reactor::{Event, Poller};

use crate::cluster::{Cluster, Routed};
use crate::node::connect_stream;

/// Node `i`'s event connection is registered under `EVENT_BASE + i`.
const EVENT_BASE: u64 = LISTENER + 1;

/// One client connection.
#[derive(Debug)]
struct Client {
    conn: Conn,
    subscriptions: HashSet<UserId>,
    /// `SUBSCRIBE`s relayed to a node and not answered yet: like a live
    /// subscription, they keep a half-closed client open.
    in_flight: usize,
}

/// An in-flight request on a node's event connection; responses arrive
/// in FIFO order, interleaved with (but distinguishable from) `EVENT`
/// pushes.
#[derive(Debug)]
enum Pending {
    /// First subscriber: a node-side `SUBSCRIBE` was sent.
    Subscribe { client: u64, user: UserId },
    /// Later subscriber: a `FRONTIER` snapshot was sent; the response is
    /// rewritten to `OK SUBSCRIBED` for the client.
    Snapshot { client: u64, user: UserId },
    /// A node-side `UNSUBSCRIBE` whose response nobody awaits.
    Discard,
}

/// One node's event connection plus its in-flight request queue.
#[derive(Debug)]
struct EventConn {
    conn: Conn,
    pending: VecDeque<Pending>,
}

/// The refcounted node-side subscription for one user.
#[derive(Debug)]
struct SubState {
    node: usize,
    clients: Vec<u64>,
}

struct CoordServer {
    cluster: Cluster,
    config: ReactorConfig,
    poller: Poller,
    acceptor: Acceptor,
    clients: HashMap<u64, Client>,
    event_conns: Vec<Option<EventConn>>,
    user_subs: HashMap<UserId, SubState>,
    /// Clients pushed to since they were last flushed; see
    /// [`CoordServer::settle`].
    touched: Vec<u64>,
}

/// Serves the cluster on `listener` until the process dies.
pub fn serve(
    listener: TcpListener,
    cluster: Cluster,
    config: ReactorConfig,
) -> std::io::Result<()> {
    serve_impl(listener, cluster, config, None)
}

/// [`serve`] with an in-process shutdown handle (tests, benches): the
/// loop returns cleanly when the paired [`pm_reactor::conn::Shutdown`]
/// fires.
pub fn serve_with_signal(
    listener: TcpListener,
    cluster: Cluster,
    config: ReactorConfig,
    signal: ShutdownSignal,
) -> std::io::Result<()> {
    serve_impl(listener, cluster, config, Some(signal))
}

fn serve_impl(
    listener: TcpListener,
    cluster: Cluster,
    config: ReactorConfig,
    signal: Option<ShutdownSignal>,
) -> std::io::Result<()> {
    let mut poller = Poller::new()?;
    let nodes = cluster.nodes();
    let acceptor = Acceptor::new(listener, &mut poller, EVENT_BASE + nodes as u64)?;
    if let Some(signal) = &signal {
        signal.register(&mut poller)?;
    }
    let mut server = CoordServer {
        cluster,
        config,
        poller,
        acceptor,
        clients: HashMap::new(),
        event_conns: (0..nodes).map(|_| None).collect(),
        user_subs: HashMap::new(),
        touched: Vec::new(),
    };
    for node in 0..nodes {
        if server.cluster.is_up(node) {
            server.open_event_conn(node);
        }
    }
    server.settle();

    let mut events = Vec::new();
    loop {
        server.poller.wait(&mut events, None)?;
        for event in &events {
            match event.token {
                SHUTDOWN => return Ok(()),
                LISTENER => server.accept_ready()?,
                token if token < EVENT_BASE + nodes as u64 => {
                    server.event_conn_ready((token - EVENT_BASE) as usize, event);
                }
                token => server.client_ready(token, event),
            }
            server.settle();
        }
    }
}

impl CoordServer {
    /// Accepts every pending client.
    fn accept_ready(&mut self) -> std::io::Result<()> {
        while let Some(accepted) = self.acceptor.accept(&mut self.poller) {
            match accepted {
                Ok((token, conn)) => {
                    let subscriptions = HashSet::new();
                    let client = Client {
                        conn,
                        subscriptions,
                        in_flight: 0,
                    };
                    self.clients.insert(token, client);
                }
                Err(failure) => {
                    pm_obs::warn!(
                        "pm_coord",
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

    /// Brings the loop to rest after an event: applies node up/down
    /// transitions, then flushes and re-arms every client pushed to. Both
    /// can cascade — a degraded node pushes `ERR degraded` to its
    /// subscribers, a closed client unsubscribes on its node — so it loops
    /// until neither has work left.
    fn settle(&mut self) {
        self.reap_transitions();
        while !self.touched.is_empty() {
            let mut touched = std::mem::take(&mut self.touched);
            touched.sort_unstable();
            touched.dedup();
            for token in touched {
                self.finish_client(token);
            }
            self.reap_transitions();
        }
    }

    /// Applies node up/down transitions the cluster recorded during the
    /// last operation: drop dead nodes' event state, open fresh event
    /// connections for rejoined nodes.
    fn reap_transitions(&mut self) {
        for node in self.cluster.take_failures() {
            self.on_node_down(node);
        }
        for node in self.cluster.take_rejoined() {
            self.open_event_conn(node);
        }
    }

    fn open_event_conn(&mut self, node: usize) {
        if self.event_conns[node].is_some() {
            return;
        }
        let timeout = std::time::Duration::from_secs(5);
        let token = EVENT_BASE + node as u64;
        let conn = connect_stream(self.cluster.node_addr(node), timeout)
            .ok()
            .and_then(|stream| Conn::new(stream, &mut self.poller, token).ok());
        let Some(conn) = conn else {
            pm_obs::warn!("pm_coord", "event connection failed", node = node);
            self.cluster.mark_down(node);
            // The failure is reaped by the caller.
            return;
        };
        let pending = VecDeque::new();
        self.event_conns[node] = Some(EventConn { conn, pending });
    }

    /// A node died: close its event connection, terminate every
    /// subscription it carried with a pushed `ERR degraded` line.
    fn on_node_down(&mut self, node: usize) {
        let degraded = format!("ERR degraded node={node}");
        if let Some(event_conn) = self.event_conns[node].take() {
            event_conn.conn.close(&mut self.poller);
            for pending in event_conn.pending {
                if let Pending::Subscribe { client, .. } | Pending::Snapshot { client, .. } =
                    pending
                {
                    self.answer_pending(client, &degraded);
                }
            }
        }
        let dropped: Vec<UserId> = self
            .user_subs
            .iter()
            .filter(|(_, state)| state.node == node)
            .map(|(&user, _)| user)
            .collect();
        for user in dropped {
            if let Some(state) = self.user_subs.remove(&user) {
                for client in state.clients {
                    if let Some(c) = self.clients.get_mut(&client) {
                        c.subscriptions.remove(&user);
                    }
                    self.push_line(client, &degraded);
                }
            }
        }
        self.refresh_subscription_gauge();
    }

    fn refresh_subscription_gauge(&self) {
        let total: usize = self.user_subs.values().map(|s| s.clients.len()).sum();
        self.cluster.metrics.subscriptions.set(total as f64);
    }

    /// Enqueues one line to a client, evicting it with a terminal `ERR
    /// lagged` (and dropping its subscriptions) if its outbox goes over
    /// budget. The client is flushed when the loop settles.
    fn push_line(&mut self, token: u64, line: &str) {
        let Some(client) = self.clients.get_mut(&token) else {
            return;
        };
        self.touched.push(token);
        let line = format!("{line}\n");
        if client.conn.push(line.as_bytes(), self.config.max_outbox) {
            client.conn.push_terminal(b"ERR lagged\n");
            let users = std::mem::take(&mut client.subscriptions);
            for user in users {
                self.release_subscription(user, token);
            }
            self.refresh_subscription_gauge();
        }
    }

    /// Relays a node's answer to a client's `SUBSCRIBE`.
    fn answer_pending(&mut self, token: u64, line: &str) {
        if let Some(client) = self.clients.get_mut(&token) {
            client.in_flight -= 1;
        }
        self.push_line(token, line);
    }

    /// Flushes and re-arms a client, or drops it when it is done: closed,
    /// failed, or half-closed with nothing to send and no subscription
    /// live or in flight.
    fn finish_client(&mut self, token: u64) {
        let Some(client) = self.clients.get_mut(&token) else {
            return;
        };
        let park = !client.subscriptions.is_empty() || client.in_flight > 0;
        if !client.conn.finish(&mut self.poller, token, park) {
            self.drop_client(token);
        }
    }

    fn drop_client(&mut self, token: u64) {
        let Some(client) = self.clients.remove(&token) else {
            return;
        };
        client.conn.close(&mut self.poller);
        for user in client.subscriptions {
            self.release_subscription(user, token);
        }
        self.refresh_subscription_gauge();
    }

    /// Drops `client` from `user`'s subscription; when the last client is
    /// gone the node-side subscription is torn down too (unless responses
    /// are still in flight for the user, in which case the node-side
    /// subscription is left standing for the next subscriber).
    fn release_subscription(&mut self, user: UserId, client: u64) {
        let Some(state) = self.user_subs.get_mut(&user) else {
            return;
        };
        state.clients.retain(|&c| c != client);
        if !state.clients.is_empty() {
            return;
        }
        let node = state.node;
        let in_flight = self.event_conns[node].as_ref().is_some_and(|conn| {
            conn.pending.iter().any(|p| {
                matches!(p, Pending::Subscribe { user: u, .. } | Pending::Snapshot { user: u, .. } if *u == user)
            })
        });
        if in_flight {
            return;
        }
        self.user_subs.remove(&user);
        self.send_to_node(
            node,
            &format!("UNSUBSCRIBE {}", user.raw()),
            Pending::Discard,
        );
    }

    /// Sends one request on `node`'s event connection. A node that stops
    /// reading them is degraded once they exceed the outbox bound.
    fn send_to_node(&mut self, node: usize, line: &str, pending: Pending) {
        let Some(event_conn) = self.event_conns[node].as_mut() else {
            return;
        };
        event_conn.pending.push_back(pending);
        let line = format!("{line}\n");
        let lagged = event_conn
            .conn
            .push(line.as_bytes(), self.config.max_outbox);
        self.finish_event_conn(node, !lagged);
    }

    /// Flushes and re-arms `node`'s event connection, or degrades the node
    /// when the connection is not `healthy`, closed or failing.
    fn finish_event_conn(&mut self, node: usize, healthy: bool) {
        let Some(event_conn) = self.event_conns[node].as_mut() else {
            return;
        };
        let token = EVENT_BASE + node as u64;
        if !healthy
            || event_conn.conn.read_eof()
            || !event_conn.conn.finish(&mut self.poller, token, false)
        {
            pm_obs::warn!("pm_coord", "event connection closed", node = node);
            self.cluster.mark_down(node);
        }
    }

    fn client_ready(&mut self, token: u64, event: &Event) {
        let Some(client) = self.clients.get_mut(&token) else {
            return;
        };
        self.touched.push(token);
        if event.error || (event.readable && client.conn.fill().is_err()) {
            self.drop_client(token);
            return;
        }
        while let Some(client) = self.clients.get_mut(&token) {
            match client.conn.next_message(self.config.max_line) {
                Extracted::Line(line) => self.handle_client_line(token, &line),
                Extracted::Invalid { message, terminal } => {
                    self.cluster.metrics.errors.inc();
                    self.push_line(token, &format!("ERR {message}"));
                    if let (true, Some(client)) = (terminal, self.clients.get_mut(&token)) {
                        client.conn.close_when_drained();
                    }
                }
                Extracted::Incomplete => return,
            }
        }
    }

    fn handle_client_line(&mut self, token: u64, line: &str) {
        match self.cluster.handle(line) {
            Routed::Line(text) => self.push_line(token, &text),
            Routed::Bye(text) => {
                self.push_line(token, &text);
                if let Some(client) = self.clients.get_mut(&token) {
                    client.conn.close_when_drained();
                }
            }
            Routed::Subscribe(user) => self.subscribe(token, user),
            Routed::Unsubscribe(user) => self.unsubscribe(token, user),
        }
        self.reap_transitions();
    }

    fn subscribe(&mut self, token: u64, user: UserId) {
        let node = self.cluster.owner_of(user);
        if !self.cluster.is_up(node) || self.event_conns[node].is_none() {
            self.cluster.metrics.errors.inc();
            self.push_line(token, &format!("ERR degraded node={node}"));
            return;
        }
        let Some(client) = self.clients.get_mut(&token) else {
            return;
        };
        if client.subscriptions.contains(&user) {
            self.cluster.metrics.errors.inc();
            self.push_line(
                token,
                &format!("ERR already subscribed to user {}", user.raw()),
            );
            return;
        }
        client.in_flight += 1;
        let (verb, pending) = match self.user_subs.entry(user) {
            // The node-side subscription exists; this client only needs a
            // snapshot, answered in order with the event stream.
            Entry::Occupied(_) => (
                "FRONTIER",
                Pending::Snapshot {
                    client: token,
                    user,
                },
            ),
            Entry::Vacant(slot) => {
                slot.insert(SubState {
                    node,
                    clients: Vec::new(),
                });
                (
                    "SUBSCRIBE",
                    Pending::Subscribe {
                        client: token,
                        user,
                    },
                )
            }
        };
        self.send_to_node(node, &format!("{verb} {}", user.raw()), pending);
    }

    fn unsubscribe(&mut self, token: u64, user: UserId) {
        let subscribed = self
            .clients
            .get_mut(&token)
            .is_some_and(|c| c.subscriptions.remove(&user));
        if !subscribed {
            self.cluster.metrics.errors.inc();
            self.push_line(token, &format!("ERR not subscribed to user {}", user.raw()));
            return;
        }
        self.release_subscription(user, token);
        self.refresh_subscription_gauge();
        self.push_line(token, &format!("OK UNSUBSCRIBED {}", user.raw()));
    }

    fn event_conn_ready(&mut self, node: usize, event: &Event) {
        let Some(event_conn) = self.event_conns[node].as_mut() else {
            return;
        };
        let mut healthy = !(event.error || (event.readable && event_conn.conn.fill().is_err()));
        while healthy {
            let Some(event_conn) = self.event_conns[node].as_mut() else {
                return;
            };
            match event_conn.conn.next_message(self.config.max_line) {
                Extracted::Line(line) => self.handle_event_line(node, &line),
                Extracted::Incomplete => break,
                // A node only sends whole UTF-8 lines.
                Extracted::Invalid { .. } => healthy = false,
            }
        }
        self.finish_event_conn(node, healthy);
    }

    fn handle_event_line(&mut self, node: usize, line: &str) {
        if let Some(rest) = line.strip_prefix("EVENT ") {
            let user = rest
                .split_whitespace()
                .next()
                .and_then(|t| t.parse::<u32>().ok())
                .map(UserId::new);
            if let Some(user) = user {
                let targets: Vec<u64> = self
                    .user_subs
                    .get(&user)
                    .map(|state| state.clients.clone())
                    .unwrap_or_default();
                for client in targets {
                    self.push_line(client, line);
                }
            }
            return;
        }
        let Some(pending) = self.event_conns[node]
            .as_mut()
            .and_then(|conn| conn.pending.pop_front())
        else {
            // A non-EVENT line with nothing in flight: the node evicted
            // this connection (`ERR lagged`) or is otherwise confused.
            pm_obs::warn!(
                "pm_coord",
                "unexpected line on event connection",
                node = node,
                line = line
            );
            self.cluster.mark_down(node);
            return;
        };
        match pending {
            Pending::Subscribe { client, user } => {
                if line.starts_with("OK SUBSCRIBED ") {
                    self.confirm_subscription(node, client, user);
                } else {
                    // The node refused (e.g. unknown user): no node-side
                    // subscription exists, so forget the placeholder
                    // unless a later subscriber already piled on.
                    if self
                        .user_subs
                        .get(&user)
                        .is_some_and(|state| state.clients.is_empty())
                    {
                        self.user_subs.remove(&user);
                    }
                    self.cluster.metrics.errors.inc();
                }
                self.answer_pending(client, line);
            }
            Pending::Snapshot { client, user } => {
                let prefix = format!("OK FRONTIER {} ", user.raw());
                let answer = match line.strip_prefix(&prefix) {
                    Some(snapshot) if self.user_subs.contains_key(&user) => {
                        self.confirm_subscription(node, client, user);
                        format!("OK SUBSCRIBED {} {snapshot}", user.raw())
                    }
                    Some(_) => {
                        self.cluster.metrics.errors.inc();
                        format!("ERR degraded node={node}")
                    }
                    None => {
                        self.cluster.metrics.errors.inc();
                        line.to_owned()
                    }
                };
                self.answer_pending(client, &answer);
            }
            Pending::Discard => {}
        }
    }

    fn confirm_subscription(&mut self, node: usize, client: u64, user: UserId) {
        let state = self.user_subs.entry(user).or_insert(SubState {
            node,
            clients: Vec::new(),
        });
        if !state.clients.contains(&client) {
            state.clients.push(client);
        }
        if let Some(c) = self.clients.get_mut(&client) {
            c.subscriptions.insert(user);
        }
        self.refresh_subscription_gauge();
    }
}
