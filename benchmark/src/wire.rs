//! The load generator's side of the text protocol: one line-oriented
//! connection with a deadline on every read, plus parsers for the replies
//! the oracle needs.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// No reply for this long counts as a timed-out request and ends the run.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// How often a non-blocking wait re-polls its socket. Bounds both how late
/// an open-loop send can be and how stale a reply's receipt time can be.
const POLL_INTERVAL: Duration = Duration::from_micros(100);

/// One text-protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Bytes of a line whose end has not arrived yet (non-blocking reads).
    partial: Vec<u8>,
}

impl Client {
    /// Connects with `TCP_NODELAY`, retrying refused connections until
    /// `deadline` (the server may still be loading its population).
    pub fn connect(addr: SocketAddr, deadline: Instant) -> Result<Self, String> {
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => return Self::from_stream(stream).map_err(|e| e.to_string()),
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("cannot connect to {addr}: {e}"));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Wraps a connected stream.
    pub fn from_stream(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Self {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            partial: Vec::new(),
        })
    }

    /// Splits into the raw socket for a reader thread (with the bytes
    /// already buffered off it) and a write handle for the thread that
    /// keeps sending.
    pub fn into_raw(mut self) -> (TcpStream, Vec<u8>, TcpStream) {
        self.partial.extend_from_slice(self.reader.buffer());
        (self.reader.into_inner(), self.partial, self.writer)
    }

    /// Sends `text` (one or more complete lines) in a single write.
    pub fn send(&mut self, text: &str) -> Result<(), String> {
        self.writer
            .write_all(text.as_bytes())
            .map_err(|e| format!("send failed: {e}"))
    }

    /// Blocks for the next line (without its newline); errors on EOF or
    /// after [`REPLY_TIMEOUT`].
    pub fn read_line(&mut self) -> Result<String, String> {
        loop {
            match self.reader.read_until(b'\n', &mut self.partial) {
                Ok(0) => return Err("connection closed by the server".to_owned()),
                Ok(_) if self.partial.ends_with(b"\n") => return Ok(self.take_line()),
                Ok(_) => return Err("connection closed mid-line".to_owned()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(format!(
                        "no reply within {} s (timed out)",
                        REPLY_TIMEOUT.as_secs()
                    ));
                }
                Err(e) => return Err(format!("read failed: {e}")),
            }
        }
    }

    fn take_line(&mut self) -> String {
        self.partial.pop();
        let line = String::from_utf8_lossy(&self.partial).into_owned();
        self.partial.clear();
        line
    }

    /// One closed-loop request: sends `line` + newline, returns the reply
    /// and the send → reply time.
    pub fn request(&mut self, line: &str) -> Result<(String, Duration), String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        let start = Instant::now();
        self.send(&framed)?;
        let reply = self.read_line()?;
        Ok((reply, start.elapsed()))
    }

    /// Switches the socket between blocking and non-blocking reads.
    pub fn set_nonblocking(&mut self, on: bool) -> Result<(), String> {
        self.writer
            .set_nonblocking(on)
            .map_err(|e| format!("set_nonblocking failed: {e}"))
    }

    /// On a non-blocking socket: the next complete line if one has arrived.
    pub fn try_line(&mut self) -> Result<Option<String>, String> {
        match self.reader.read_until(b'\n', &mut self.partial) {
            Ok(0) => Err("connection closed by the server".to_owned()),
            Ok(_) if self.partial.ends_with(b"\n") => Ok(Some(self.take_line())),
            Ok(_) => Err("connection closed mid-line".to_owned()),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    /// On a non-blocking socket: writes all of `text`, re-polling while the
    /// send buffer is full.
    pub fn send_nonblocking(&mut self, text: &str) -> Result<(), String> {
        let mut rest = text.as_bytes();
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while !rest.is_empty() {
            match self.writer.write(rest) {
                Ok(0) => return Err("connection closed by the server".to_owned()),
                Ok(n) => rest = &rest[n..],
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    if Instant::now() >= deadline {
                        return Err("send buffer stayed full (timed out)".to_owned());
                    }
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) => return Err(format!("send failed: {e}")),
            }
        }
        Ok(())
    }

    /// Reads a `METRICS` reply: the `OK METRICS <bytes>` header, the body
    /// and the terminating blank line. Returns the exposition body.
    pub fn request_metrics(&mut self) -> Result<String, String> {
        self.send("METRICS\n")?;
        let header = self.read_line()?;
        let bytes: usize = header
            .strip_prefix("OK METRICS ")
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| format!("unexpected METRICS reply: {header}"))?;
        let mut body = String::with_capacity(bytes);
        while body.len() < bytes {
            body.push_str(&self.read_line()?);
            body.push('\n');
        }
        let blank = self.read_line()?;
        if body.len() != bytes || !blank.is_empty() {
            return Err(format!(
                "METRICS body is {} bytes, header announced {bytes}",
                body.len()
            ));
        }
        Ok(body)
    }
}

/// Sleeps one poll interval.
pub fn poll_sleep() {
    std::thread::sleep(POLL_INTERVAL);
}

/// One object of an `OK INGESTED` reply: its id and target users.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestedObject {
    /// Server-assigned object id.
    pub id: u64,
    /// Target users, ascending (as sent).
    pub targets: Vec<u32>,
}

/// Parses `OK INGESTED <n> <id>:<u>,<u>;<id>:...`.
pub fn parse_ingested(reply: &str) -> Result<Vec<IngestedObject>, String> {
    let bad = || format!("unexpected INGEST reply: {}", truncate(reply));
    let rest = reply.strip_prefix("OK INGESTED ").ok_or_else(bad)?;
    let (count, body) = rest.split_once(' ').unwrap_or((rest, ""));
    let count: usize = count.parse().map_err(|_| bad())?;
    let objects = body
        .split(';')
        .filter(|group| !group.is_empty())
        .map(|group| {
            let (id, users) = group.split_once(':').ok_or_else(bad)?;
            Ok(IngestedObject {
                id: id.parse().map_err(|_| bad())?,
                targets: parse_ids(users).ok_or_else(bad)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if objects.len() != count {
        return Err(bad());
    }
    Ok(objects)
}

/// Parses a comma-separated id list (empty string = empty list).
pub fn parse_ids<T: std::str::FromStr>(text: &str) -> Option<Vec<T>> {
    if text.is_empty() {
        return Some(Vec::new());
    }
    text.split(',').map(|id| id.parse().ok()).collect()
}

/// Parses `OK FRONTIER <user> <ids>` / `OK SUBSCRIBED <user> <ids>` into
/// `(user, ascending object ids)`.
pub fn parse_frontier(reply: &str, verb: &str) -> Result<(u32, Vec<u64>), String> {
    let bad = || format!("unexpected reply (wanted OK {verb}): {}", truncate(reply));
    let rest = reply
        .strip_prefix("OK ")
        .and_then(|r| r.strip_prefix(verb))
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(bad)?;
    let (user, ids) = rest.split_once(' ').unwrap_or((rest, ""));
    Ok((
        user.parse().map_err(|_| bad())?,
        parse_ids(ids).ok_or_else(bad)?,
    ))
}

/// A pushed `EVENT <user> +<id>,-<id>,...` line: returns the user and
/// appends its deltas to `deltas` as `(entered, object id)`. On a line that
/// is not a well-formed event, returns `None` and leaves `deltas` as it was.
pub fn parse_event(line: &str, deltas: &mut Vec<(bool, u64)>) -> Option<u32> {
    let rest = line.strip_prefix("EVENT ")?;
    let (user, body) = rest.split_once(' ')?;
    let user = user.parse().ok()?;
    let start = deltas.len();
    for delta in body.split(',') {
        let parsed = match delta.as_bytes().first() {
            Some(b'+') => delta[1..].parse().ok().map(|id| (true, id)),
            Some(b'-') => delta[1..].parse().ok().map(|id| (false, id)),
            _ => None,
        };
        match parsed {
            Some(delta) => deltas.push(delta),
            None => {
                deltas.truncate(start);
                return None;
            }
        }
    }
    Some(user)
}

/// The value of `key=` in a `STATS`/`HEALTH` line.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
}

/// A reply shortened for error messages.
pub fn truncate(reply: &str) -> &str {
    let mut end = reply.len().min(120);
    while !reply.is_char_boundary(end) {
        end -= 1;
    }
    &reply[..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ingest_replies() {
        let objects = parse_ingested("OK INGESTED 3 0:1,5;1:;2:7").unwrap();
        assert_eq!(objects.len(), 3);
        assert_eq!(objects[0].targets, vec![1, 5]);
        assert!(objects[1].targets.is_empty());
        assert_eq!(objects[2].id, 2);
        assert!(parse_ingested("OK INGESTED 2 0:1").is_err());
        assert!(parse_ingested("ERR object has 3 values").is_err());
    }

    #[test]
    fn parses_frontiers_events_and_fields() {
        assert_eq!(
            parse_frontier("OK FRONTIER 9 0,4,7", "FRONTIER").unwrap(),
            (9, vec![0, 4, 7])
        );
        assert_eq!(
            parse_frontier("OK SUBSCRIBED 3 ", "SUBSCRIBED").unwrap(),
            (3, vec![])
        );
        assert!(parse_frontier("ERR unknown user 9", "FRONTIER").is_err());
        let mut deltas = vec![(true, 1)];
        assert_eq!(parse_event("EVENT 12 +40,-3,-17", &mut deltas), Some(12));
        assert_eq!(deltas, vec![(true, 1), (true, 40), (false, 3), (false, 17)]);
        assert_eq!(parse_event("OK HEALTH pm-server", &mut deltas), None);
        assert_eq!(parse_event("EVENT 12 +40,x3", &mut deltas), None);
        assert_eq!(deltas.len(), 4, "a malformed event leaves nothing behind");
        let stats = "OK STATS ingested=10 users=3 comparisons=42";
        assert_eq!(field(stats, "comparisons"), Some("42"));
        assert_eq!(field(stats, "missing"), None);
    }
}
