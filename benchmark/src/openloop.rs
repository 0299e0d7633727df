//! Open-loop load: requests leave on a fixed schedule whether or not
//! earlier replies have arrived, and each reply is timed **from its
//! request's due time**, so a stall in the server is charged to every
//! request that was due while it lasted (no coordinated omission).

use std::time::{Duration, Instant};

use crate::wire::{poll_sleep, Client, REPLY_TIMEOUT};

/// What one open-loop segment measured.
#[derive(Debug, Default)]
pub struct OpenLoopRun {
    /// Replies in request order.
    pub replies: Vec<String>,
    /// When each request was actually written.
    pub sent_at: Vec<Instant>,
    /// Reply receipt − due time, per request, in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Actual send − due time, per request, in milliseconds: how late the
    /// generator itself ran.
    pub late_ms: Vec<f64>,
    /// Most requests ever outstanding at once.
    pub backlog_max: usize,
}

/// Sends `requests` (each a complete line with its newline) on `client`,
/// request `k` due at `start + k * interval`, and collects the replies,
/// which the protocol returns in request order.
pub fn run(
    client: &mut Client,
    requests: &[String],
    interval: Duration,
) -> Result<OpenLoopRun, String> {
    let mut run = OpenLoopRun::default();
    client.set_nonblocking(true)?;
    let outcome = drive(client, requests, interval, &mut run);
    client.set_nonblocking(false)?;
    outcome.map(|()| run)
}

fn drive(
    client: &mut Client,
    requests: &[String],
    interval: Duration,
    run: &mut OpenLoopRun,
) -> Result<(), String> {
    let start = Instant::now();
    let due = |k: usize| start + interval.mul_f64(k as f64);
    let mut last_progress = start;
    while run.replies.len() < requests.len() {
        let mut progressed = false;
        while let Some(reply) = client.try_line()? {
            let received = Instant::now();
            let k = run.replies.len();
            if k >= run.sent_at.len() {
                return Err(format!("reply without a request: {reply}"));
            }
            run.latency_ms
                .push(received.saturating_duration_since(due(k)).as_secs_f64() * 1e3);
            run.replies.push(reply);
            progressed = true;
        }
        let next = run.sent_at.len();
        if next < requests.len() && Instant::now() >= due(next) {
            client.send_nonblocking(&requests[next])?;
            let sent = Instant::now();
            run.late_ms
                .push(sent.saturating_duration_since(due(next)).as_secs_f64() * 1e3);
            run.sent_at.push(sent);
            run.backlog_max = run.backlog_max.max(run.sent_at.len() - run.replies.len());
            progressed = true;
        }
        if progressed {
            last_progress = Instant::now();
        } else {
            if last_progress.elapsed() > REPLY_TIMEOUT {
                return Err("open loop made no progress (timed out)".to_owned());
            }
            poll_sleep();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    /// A server that answers every line at once, except that it sleeps
    /// `stall` before answering request number `stall_at`.
    fn fake_server(stall_at: usize, stall: Duration) -> (TcpStream, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut writer = stream.try_clone().unwrap();
            for (k, line) in BufReader::new(stream).lines().enumerate() {
                let line = line.unwrap();
                if k == stall_at {
                    std::thread::sleep(stall);
                }
                writer.write_all(format!("OK {line}\n").as_bytes()).unwrap();
            }
        });
        (TcpStream::connect(addr).unwrap(), server)
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_while_it_lasted() {
        let interval = Duration::from_millis(10);
        let stall = Duration::from_millis(200);
        let (stream, server) = fake_server(5, stall);
        let mut client = Client::from_stream(stream).unwrap();
        let requests: Vec<String> = (0..40).map(|k| format!("REQ {k}\n")).collect();
        let run = run(&mut client, &requests, interval).unwrap();
        drop(client);
        server.join().unwrap();

        assert_eq!(run.replies.len(), 40);
        assert!(run
            .replies
            .iter()
            .enumerate()
            .all(|(k, r)| *r == format!("OK REQ {k}")));
        // The stalled request itself waited the whole stall.
        assert!(run.latency_ms[5] >= 195.0, "{:?}", run.latency_ms);
        // Requests that came due during the stall were sent on time (the
        // generator did not wait for the reply) and each waited out the
        // rest of it: a closed loop would have reported ~0 for them.
        for k in 6..20 {
            let remaining = 200.0 - 10.0 * (k - 5) as f64;
            assert!(
                run.latency_ms[k] >= remaining - 8.0,
                "request {k}: {} ms, stall remaining {remaining} ms",
                run.latency_ms[k]
            );
        }
        let slow = run.latency_ms.iter().filter(|&&ms| ms >= 10.0).count();
        assert!((15..=24).contains(&slow), "{slow} requests saw the stall");
        // Requests well clear of the stall are fast again.
        assert!(run.latency_ms[35] < 10.0, "{:?}", run.latency_ms);
        // The backlog shows the queue the stall built up.
        assert!(run.backlog_max >= 15, "backlog {}", run.backlog_max);
    }

    #[test]
    fn lateness_reports_the_generator_not_the_server() {
        let interval = Duration::from_millis(5);
        let (stream, server) = fake_server(3, Duration::from_millis(100));
        let mut client = Client::from_stream(stream).unwrap();
        let requests: Vec<String> = (0..30).map(|k| format!("REQ {k}\n")).collect();
        let run = run(&mut client, &requests, interval).unwrap();
        drop(client);
        server.join().unwrap();

        assert_eq!(run.late_ms.len(), 30);
        // Sends stayed on schedule through the server's stall: 29 intervals
        // are 145 ms; waiting for the stalled reply would have made it 245.
        let span = run.sent_at[29].duration_since(run.sent_at[0]);
        assert!(
            span >= Duration::from_millis(140) && span <= Duration::from_millis(220),
            "sends spanned {span:?}"
        );
        let mut late = run.late_ms.clone();
        late.sort_by(f64::total_cmp);
        assert!(late[late.len() / 2] < 2.0, "median lateness {late:?}");
    }
}
