//! The connection layer every serving loop in the workspace drives (the
//! `pm-engine` reactor and the `pm-coord` coordinator), so that both give
//! clients one contract:
//!
//! * Input splits into messages by [`WireMode`]: newline-delimited lines
//!   (a trailing `\r` dropped, blank lines skipped) or `[u32 BE
//!   length][UTF-8 request line]` frames. Non-UTF-8 is a recoverable
//!   error; input over [`ReactorConfig::max_line`] has no resync point and
//!   is terminal.
//! * The outbox is bounded by [`ReactorConfig::max_outbox`]: past it the
//!   owner evicts the connection with a terminal line
//!   ([`Conn::push_terminal`]) after the whole lines already queued.
//! * A peer may half-close and keep receiving; a connection with nothing
//!   to read or write closes or parks, as its owner says ([`Conn::finish`]).
//! * Accept failures go back to the loop to log; 16 in a row end it.
//!
//! Each loop keeps its own dispatch, rendering and subscription tables.

#![forbid(unsafe_code)]

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;

use crate::{Interest, Poller};

/// The poller token of the listener ([`Acceptor::new`]).
pub const LISTENER: u64 = 0;
/// The poller token of the shutdown signal ([`ShutdownSignal::register`]).
pub const SHUTDOWN: u64 = u64::MAX;
/// Consecutive accept failures that end the loop.
const MAX_ACCEPT_FAILURES: u32 = 16;

/// Tuning knobs of a serving loop.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Per-connection outbox bound in bytes. A connection whose unsent
    /// output exceeds this — typically a subscriber not reading its event
    /// stream — is evicted with a terminal `ERR lagged`.
    pub max_outbox: usize,
    /// Largest accepted request message (text line or frame payload) in
    /// bytes. Longer input has no resync point and closes the connection
    /// with a terminal `ERR`.
    pub max_line: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            max_outbox: 1 << 20,
            max_line: 16 << 20,
        }
    }
}

/// The negotiated wire format of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireMode {
    /// Newline-delimited text lines (the default).
    #[default]
    Text,
    /// Length-prefixed binary frames.
    Frame,
}

impl WireMode {
    /// The capability token naming this mode (`text` / `frame`).
    pub fn token(self) -> &'static str {
        match self {
            WireMode::Text => "text",
            WireMode::Frame => "frame",
        }
    }
}

/// The caller-held half of a [`shutdown_pair`]: signals the serving loop
/// to stop from any thread.
#[derive(Debug)]
pub struct Shutdown {
    tx: UnixStream,
}

impl Shutdown {
    /// Asks the paired serving loop to stop. Idempotent; an error (the loop
    /// is already gone) is ignored.
    pub fn shutdown(&self) {
        let _ = (&self.tx).write(&[1]);
        let _ = self.tx.shutdown(std::net::Shutdown::Write);
    }
}

/// The loop-held half of a [`shutdown_pair`].
#[derive(Debug)]
pub struct ShutdownSignal {
    rx: UnixStream,
}

impl ShutdownSignal {
    /// Registers the signal with `poller` under [`SHUTDOWN`]; the loop
    /// returns when that token fires. The signal must outlive the poller's
    /// use of it: dropping it earlier would recycle the fd number while the
    /// poller still watches it.
    pub fn register(&self, poller: &mut Poller) -> io::Result<()> {
        poller.register(self.rx.as_raw_fd(), SHUTDOWN, Interest::Read)
    }
}

/// A shutdown signal pair: hand the [`ShutdownSignal`] to a serving loop
/// (`pm_engine::serve_with_signal`, `pm_coord::serve_with_signal`) and keep
/// the [`Shutdown`] handle; calling [`Shutdown::shutdown`] makes the loop
/// return cleanly, closing every connection and freeing the listener port
/// — the in-process equivalent of killing a node, used by cluster tests
/// and the bench harness to exercise degraded serving and rejoin.
pub fn shutdown_pair() -> io::Result<(Shutdown, ShutdownSignal)> {
    let (tx, rx) = UnixStream::pair()?;
    Ok((Shutdown { tx }, ShutdownSignal { rx }))
}

/// A nonblocking listener registered under [`LISTENER`], handing out
/// registered [`Conn`]s under tokens counting up from a first one.
#[derive(Debug)]
pub struct Acceptor {
    listener: TcpListener,
    next_token: u64,
    failures: u32,
}

/// A failed `accept`, or an accepted connection that could not be set up.
#[derive(Debug)]
pub struct AcceptFailure {
    /// What failed.
    pub error: io::Error,
    /// Consecutive `accept` failures, this one included; 0 for a setup
    /// failure.
    pub consecutive: u32,
}

impl AcceptFailure {
    /// `Ok` to skip the failure and keep serving; the error once the
    /// listener has failed 16 times in a row, which should end the loop.
    pub fn into_result(self) -> io::Result<()> {
        if self.consecutive >= MAX_ACCEPT_FAILURES {
            Err(self.error)
        } else {
            Ok(())
        }
    }
}

impl Acceptor {
    /// Makes `listener` nonblocking and registers it for reading; accepted
    /// connections get tokens from `first_token` up.
    pub fn new(listener: TcpListener, poller: &mut Poller, first_token: u64) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        poller.register(listener.as_raw_fd(), LISTENER, Interest::Read)?;
        Ok(Self {
            listener,
            next_token: first_token,
            failures: 0,
        })
    }

    /// The next pending connection and its token, registered for reading,
    /// or `None` once none is pending. Call it until `None` on every
    /// wake-up (the listener is level-triggered, but draining keeps accept
    /// latency flat under bursts). After a failure, stop draining until the
    /// next wake-up; see [`AcceptFailure::into_result`].
    pub fn accept(&mut self, poller: &mut Poller) -> Option<Result<(u64, Conn), AcceptFailure>> {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.failures = 0;
                    let token = self.next_token;
                    self.next_token += 1;
                    let conn = Conn::new(stream, poller, token).map_err(|error| AcceptFailure {
                        error,
                        consecutive: 0,
                    });
                    return Some(conn.map(|conn| (token, conn)));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(error) => {
                    self.failures += 1;
                    return Some(Err(AcceptFailure {
                        error,
                        consecutive: self.failures,
                    }));
                }
            }
        }
    }
}

/// One step of message extraction from a connection's input.
#[derive(Debug)]
pub enum Extracted {
    /// A complete request line (text line or frame payload).
    Line(String),
    /// Malformed input: answer `ERR <message>`. Input with a resync point
    /// keeps the connection; unframeable input is `terminal` and closes it.
    Invalid {
        /// What was wrong.
        message: String,
        /// No resync point: close the connection after the `ERR`.
        terminal: bool,
    },
    /// No complete message buffered.
    Incomplete,
}

fn invalid(message: String, terminal: bool) -> Extracted {
    Extracted::Invalid { message, terminal }
}

/// One nonblocking connection: negotiated mode, buffered input, unsent
/// output and the interest registered with the poller.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// How input is split, and how the owner renders output.
    pub mode: WireMode,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Bytes of `outbuf` already written to the socket.
    out_head: usize,
    /// The interest currently registered with the poller; `None` while the
    /// connection is parked.
    registered: Option<Interest>,
    /// The peer closed its write half; no more requests will arrive.
    read_eof: bool,
    /// Tear down once the outbox drains (after `QUIT`, a terminal error,
    /// or a lagged eviction).
    closing: bool,
}

impl Conn {
    /// Makes `stream` nonblocking and registers it for reading under
    /// `token`.
    pub fn new(stream: TcpStream, poller: &mut Poller, token: u64) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        // Responses and events are single short writes; coalescing them
        // behind Nagle only adds latency.
        let _ = stream.set_nodelay(true);
        poller.register(stream.as_raw_fd(), token, Interest::Read)?;
        Ok(Self {
            stream,
            mode: WireMode::Text,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_head: 0,
            registered: Some(Interest::Read),
            read_eof: false,
            closing: false,
        })
    }

    /// Unsent outbox bytes.
    #[inline]
    pub fn pending_out(&self) -> usize {
        self.outbuf.len() - self.out_head
    }

    /// Whether the peer has closed its write half.
    #[inline]
    pub fn read_eof(&self) -> bool {
        self.read_eof
    }

    /// Reads until the socket would block or the peer closes its write
    /// half. An error means the connection is dead.
    pub fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_eof = true;
                    return Ok(());
                }
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next buffered request; [`Extracted::Incomplete`] once the
    /// connection is closing. Call it until `Incomplete`.
    pub fn next_message(&mut self, max_line: usize) -> Extracted {
        if self.closing {
            return Extracted::Incomplete;
        }
        extract_message(&mut self.inbuf, self.mode, max_line)
    }

    /// Appends rendered output unless the connection is closing (its last
    /// line is queued). Returns `true` when the unsent output now exceeds
    /// `max_outbox`: the owner evicts it with [`Conn::push_terminal`].
    #[inline]
    pub fn push(&mut self, bytes: &[u8], max_outbox: usize) -> bool {
        if self.closing {
            return false;
        }
        self.outbuf.extend_from_slice(bytes);
        self.pending_out() > max_outbox
    }

    /// Appends the connection's last message, past the outbox bound and
    /// after everything already queued, and closes once it drains.
    pub fn push_terminal(&mut self, bytes: &[u8]) {
        self.outbuf.extend_from_slice(bytes);
        self.closing = true;
    }

    /// Stops reading and closes once the outbox drains; later pushes are
    /// dropped.
    pub fn close_when_drained(&mut self) {
        self.closing = true;
    }

    /// Flushes what the socket will take, then registers the fd for what
    /// the connection still waits for: reads until the peer half-closes or
    /// the connection is closing, writes while output is queued. With
    /// neither, it parks (deregistered until the next push and `finish`)
    /// when `park` is set and it is not closing. Returns `false` when the
    /// owner must [`Conn::close`] it: it failed, or it has nothing to do.
    pub fn finish(&mut self, poller: &mut Poller, token: u64, park: bool) -> bool {
        if self.flush().is_err() {
            return false;
        }
        let want_read = !self.read_eof && !self.closing;
        let want_write = self.pending_out() > 0;
        let desired = match (want_read, want_write) {
            (true, true) => Some(Interest::ReadWrite),
            (true, false) => Some(Interest::Read),
            (false, true) => Some(Interest::Write),
            (false, false) => None,
        };
        if desired.is_none() && (self.closing || !park) {
            return false;
        }
        let fd = self.stream.as_raw_fd();
        let result = match (self.registered, desired) {
            (None, Some(interest)) => poller.register(fd, token, interest),
            (Some(current), Some(interest)) if current != interest => {
                poller.modify(fd, token, interest)
            }
            (Some(_), None) => poller.deregister(fd),
            _ => Ok(()),
        };
        if result.is_err() {
            return false;
        }
        self.registered = desired;
        true
    }

    /// Writes the outbox until the socket blocks.
    fn flush(&mut self) -> io::Result<()> {
        let result = loop {
            if self.out_head >= self.outbuf.len() {
                break Ok(());
            }
            match self.stream.write(&self.outbuf[self.out_head..]) {
                Ok(0) => break Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.out_head += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        if self.out_head == self.outbuf.len() {
            self.outbuf.clear();
            self.out_head = 0;
        } else if self.out_head > 64 * 1024 {
            self.outbuf.drain(..self.out_head);
            self.out_head = 0;
        }
        result
    }

    /// Deregisters the connection and closes its socket.
    pub fn close(self, poller: &mut Poller) {
        if self.registered.is_some() {
            let _ = poller.deregister(self.stream.as_raw_fd());
        }
    }
}

/// Extracts one complete request from `inbuf` according to `mode`.
/// Consumes exactly the bytes of what it returns (including any delimiter
/// and skipped blank lines), so callers loop until
/// [`Extracted::Incomplete`].
fn extract_message(inbuf: &mut Vec<u8>, mode: WireMode, max_line: usize) -> Extracted {
    match mode {
        WireMode::Text => loop {
            let Some(nl) = inbuf.iter().position(|&b| b == b'\n') else {
                if inbuf.len() > max_line {
                    inbuf.clear();
                    return invalid(format!("request line exceeds {max_line} bytes"), true);
                }
                return Extracted::Incomplete;
            };
            let raw: Vec<u8> = inbuf.drain(..=nl).collect();
            let mut line = &raw[..nl];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            match std::str::from_utf8(line) {
                Ok(s) if s.trim().is_empty() => continue,
                Ok(s) => return Extracted::Line(s.to_owned()),
                Err(_) => return invalid("request line is not valid UTF-8".to_owned(), false),
            }
        },
        WireMode::Frame => {
            if inbuf.len() < 4 {
                return Extracted::Incomplete;
            }
            let len = u32::from_be_bytes(inbuf[..4].try_into().expect("4 bytes")) as usize;
            if len > max_line {
                inbuf.clear();
                return invalid(format!("frame length {len} exceeds {max_line} bytes"), true);
            }
            if inbuf.len() < 4 + len {
                return Extracted::Incomplete;
            }
            let raw: Vec<u8> = inbuf.drain(..4 + len).collect();
            match std::str::from_utf8(&raw[4..]) {
                Ok(s) => Extracted::Line(s.to_owned()),
                Err(_) => invalid("frame payload is not valid UTF-8".to_owned(), false),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX_LINE: usize = 16 << 20;

    #[test]
    fn text_extraction_splits_lines_and_skips_blanks() {
        let mut inbuf = b"HEALTH\r\n\nSTATS\npartial".to_vec();
        assert!(matches!(
            extract_message(&mut inbuf, WireMode::Text, MAX_LINE),
            Extracted::Line(l) if l == "HEALTH"
        ));
        assert!(matches!(
            extract_message(&mut inbuf, WireMode::Text, MAX_LINE),
            Extracted::Line(l) if l == "STATS"
        ));
        assert!(matches!(
            extract_message(&mut inbuf, WireMode::Text, MAX_LINE),
            Extracted::Incomplete
        ));
        assert_eq!(inbuf, b"partial");
    }

    #[test]
    fn frame_extraction_honors_length_prefix_and_bounds() {
        let mut inbuf = Vec::new();
        inbuf.extend_from_slice(&6u32.to_be_bytes());
        inbuf.extend_from_slice(b"HEALTH");
        inbuf.extend_from_slice(&3u32.to_be_bytes());
        inbuf.extend_from_slice(b"QU"); // incomplete
        assert!(matches!(
            extract_message(&mut inbuf, WireMode::Frame, MAX_LINE),
            Extracted::Line(l) if l == "HEALTH"
        ));
        assert!(matches!(
            extract_message(&mut inbuf, WireMode::Frame, MAX_LINE),
            Extracted::Incomplete
        ));

        let mut inbuf = u32::MAX.to_be_bytes().to_vec();
        assert!(matches!(
            extract_message(&mut inbuf, WireMode::Frame, MAX_LINE),
            Extracted::Invalid { terminal: true, .. }
        ));
        assert!(inbuf.is_empty(), "rejected frame must not linger");
    }

    #[test]
    fn overlong_inputs_are_rejected_before_buffering_unboundedly() {
        // A line that never terminates must not grow the input buffer past
        // `max_line`: the connection is closed with a terminal error the
        // moment the bound is exceeded, in both wire modes.
        let mut inbuf = b"NEWLINE-FREE GARBAGE".to_vec();
        assert!(matches!(
            extract_message(&mut inbuf, WireMode::Text, 8),
            Extracted::Invalid { message, terminal: true } if message.contains("exceeds 8 bytes")
        ));
        assert!(inbuf.is_empty(), "rejected input must not linger");

        let mut inbuf = Vec::from(9u32.to_be_bytes());
        inbuf.extend_from_slice(b"123456789");
        assert!(matches!(
            extract_message(&mut inbuf, WireMode::Frame, 8),
            Extracted::Invalid { message, terminal: true }
                if message.contains("frame length 9 exceeds 8 bytes")
        ));
        assert!(inbuf.is_empty(), "rejected frame must not linger");
    }

    #[test]
    fn unread_output_keeps_write_interest_until_it_drains() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut poller = Poller::new().unwrap();
        let mut conn = Conn::new(stream, &mut poller, 1).unwrap();

        // The peer reads nothing: push until the socket refuses part of
        // the outbox, which must keep write interest registered.
        let chunk = vec![b'x'; 1 << 20];
        let mut sent = 0;
        while conn.pending_out() == 0 {
            assert!(sent < 1 << 30, "the socket never filled up");
            assert!(!conn.push(&chunk, usize::MAX));
            sent += chunk.len();
            assert!(conn.finish(&mut poller, 1, false));
        }
        assert_eq!(conn.registered, Some(Interest::ReadWrite));

        // The peer catches up: once the outbox drains, back to reads only.
        let mut buf = vec![0u8; 1 << 16];
        let mut received = 0;
        while received < sent {
            received += peer.read(&mut buf).unwrap();
            assert!(conn.finish(&mut poller, 1, false));
        }
        assert_eq!(conn.pending_out(), 0);
        assert_eq!(conn.registered, Some(Interest::Read));
        conn.close(&mut poller);
    }
}
