//! Connection B's reader thread. While a clock runs it only moves bytes:
//! each `read` is appended to one buffer and stamped once, and the only
//! lines it looks at are replies to the main thread's own `HEALTH` / `QUIT`
//! (anything that does not start with `E`). `EVENT` lines are split and
//! parsed after the round, off the clock, each carrying the receipt time of
//! the `read` that completed it — so a subscriber receiving hundreds of
//! events per object costs the generator a `memcpy`, not a parser.

use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Instant;

/// Everything connection B received, with when.
#[derive(Default)]
pub struct Received {
    text: Vec<u8>,
    /// `(receipt time, text.len() after the read)`, one per `read`.
    reads: Vec<(Instant, usize)>,
    /// Why the reader stopped, unless it saw `OK BYE`.
    pub error: Option<String>,
}

/// Drains `stream` until `OK BYE`, EOF or an error. `leftover` is what a
/// buffered reader had already taken off the socket. The receipt time of
/// every `OK HEALTH` line is sent to `barriers`.
pub fn drain(
    mut stream: TcpStream,
    leftover: Vec<u8>,
    barriers: mpsc::Sender<Instant>,
) -> Received {
    let mut got = Received {
        reads: vec![(Instant::now(), leftover.len())],
        text: leftover,
        error: None,
    };
    let mut scanned = 0usize;
    let mut buf = vec![0u8; 1 << 16];
    loop {
        // Look at the lines the last read completed.
        let at = got.reads.last().expect("one entry per read").0;
        while let Some(len) = got.text[scanned..].iter().position(|&b| b == b'\n') {
            let line = &got.text[scanned..scanned + len];
            scanned += len + 1;
            if line.starts_with(b"OK HEALTH") {
                if barriers.send(at).is_err() {
                    return got;
                }
            } else if line == b"OK BYE" {
                return got;
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                got.error = Some("connection closed by the server".to_owned());
                return got;
            }
            Ok(n) => {
                let at = Instant::now();
                got.text.extend_from_slice(&buf[..n]);
                got.reads.push((at, got.text.len()));
            }
            // An idle subscriber is not an error; whoever waits on a
            // barrier has its own deadline.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => {
                got.error = Some(format!("read failed: {e}"));
                return got;
            }
        }
    }
}

impl Received {
    /// Bytes received.
    pub fn bytes(&self) -> u64 {
        self.text.len() as u64
    }

    /// Every complete line with the receipt time of the read that
    /// completed it.
    pub fn lines(&self) -> impl Iterator<Item = (Instant, &str)> + '_ {
        let mut read = 0usize;
        let mut start = 0usize;
        std::iter::from_fn(move || {
            let len = self.text[start..].iter().position(|&b| b == b'\n')?;
            let end = start + len;
            while self.reads[read].1 <= end {
                read += 1;
            }
            let line = std::str::from_utf8(&self.text[start..end]).unwrap_or("");
            start = end + 1;
            Some((self.reads[read].0, line))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    #[test]
    fn lines_carry_the_time_of_the_read_that_completed_them() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nodelay(true).unwrap();
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || drain(client, b"EVENT 1 +".to_vec(), tx));

        // The first event straddles the leftover and the first write; the
        // barrier's receipt tells us when the reader had it.
        server
            .write_all(b"7\nEVENT 2 +8,-7\nOK HEALTH x\n")
            .unwrap();
        let first_barrier = rx.recv().unwrap();
        let between = Instant::now();
        server
            .write_all(b"EVENT 3 -8\nOK HEALTH y\nOK BYE\nEVENT 9 +9\n")
            .unwrap();
        let second_barrier = rx.recv().unwrap();
        let got = reader.join().unwrap();

        assert!(got.error.is_none(), "{:?}", got.error);
        let lines: Vec<(Instant, &str)> = got.lines().collect();
        let text: Vec<&str> = lines.iter().map(|(_, l)| *l).collect();
        assert_eq!(
            &text[..6],
            [
                "EVENT 1 +7",
                "EVENT 2 +8,-7",
                "OK HEALTH x",
                "EVENT 3 -8",
                "OK HEALTH y",
                "OK BYE"
            ]
        );
        assert_eq!(lines[0].0, first_barrier);
        assert_eq!(lines[2].0, first_barrier);
        assert!(lines[3].0 >= between && lines[3].0 == second_barrier);
        assert!(first_barrier < between);
        assert!(got.bytes() >= 50);
    }

    #[test]
    fn eof_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let (tx, _rx) = mpsc::channel();
        let reader = std::thread::spawn(move || drain(client, Vec::new(), tx));
        server.write_all(b"EVENT 1 +1\nEVENT 2 +").unwrap();
        drop(server);
        let got = reader.join().unwrap();
        assert!(got.error.as_deref().unwrap().contains("closed"));
        // The incomplete last line is not a line.
        assert_eq!(
            got.lines().map(|(_, l)| l).collect::<Vec<_>>(),
            ["EVENT 1 +1"]
        );
    }
}
