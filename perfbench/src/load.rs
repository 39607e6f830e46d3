//! Load generators: a closed loop for capacity and an open loop for
//! latency.
//!
//! The closed loop keeps a fixed number of pipelined requests outstanding on
//! each connection, so it finds how many requests per second the server
//! completes. The open loop sends on a fixed schedule whatever the server
//! does, and times every request from the moment it was *due*. A server
//! stall therefore shows in the latency of every request queued behind it,
//! not only the one that hit it (no coordinated omission). The open loop
//! also reports how late the generator itself sent.

use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Outcome of an open-loop phase.
pub struct Paced<R> {
    /// Per request: actual send time minus due time (ms).
    pub lateness_ms: Vec<f64>,
    /// Per request: when it was due and when its reply arrived.
    pub due_and_done: Vec<(Instant, Instant)>,
    /// Replies, in send order.
    pub replies: Vec<R>,
}

impl<R> Default for Paced<R> {
    fn default() -> Self {
        Paced {
            lateness_ms: Vec::new(),
            due_and_done: Vec::new(),
            replies: Vec::new(),
        }
    }
}

impl<R> Paced<R> {
    /// Add a later slice's requests after this one's.
    pub fn append(&mut self, later: Paced<R>) {
        self.lateness_ms.extend(later.lateness_ms);
        self.due_and_done.extend(later.due_and_done);
        self.replies.extend(later.replies);
    }

    /// Per request, in send order: reply time minus due time (ms).
    pub fn latency_ms(&self) -> Vec<f64> {
        self.due_and_done
            .iter()
            .map(|(due, done)| done.saturating_duration_since(*due).as_secs_f64() * 1e3)
            .collect()
    }
}

/// Send `n` requests on `stream` at a fixed `interval` from one sender
/// thread, which encodes request `i` with `make(i)` before waiting for its
/// due time, and read one reply per request on the calling thread. Replies
/// must come back in request order, as they do on one connection.
pub fn paced<R>(
    stream: TcpStream,
    n: usize,
    interval: Duration,
    mut make: impl FnMut(usize) -> Vec<u8> + Send,
    mut read_reply: impl FnMut(&mut BufReader<TcpStream>) -> io::Result<R>,
) -> io::Result<Paced<R>> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    // First request is due a little after the sender starts, so thread
    // start-up does not count as lateness.
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + interval * i as u32;
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> io::Result<Vec<f64>> {
            let mut lateness = Vec::with_capacity(n);
            for i in 0..n {
                let req = make(i);
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                lateness.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
                writer.write_all(&req)?;
            }
            writer.flush()?;
            Ok(lateness)
        });
        let mut due_and_done = Vec::with_capacity(n);
        let mut replies = Vec::with_capacity(n);
        let mut read_err = None;
        for i in 0..n {
            match read_reply(&mut reader) {
                Ok(r) => {
                    due_and_done.push((due(i), Instant::now()));
                    replies.push(r);
                }
                Err(e) => {
                    // Unblock the sender if it is stuck on a full socket.
                    let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
                    read_err = Some(e);
                    break;
                }
            }
        }
        let lateness = sender.join().expect("sender thread panicked");
        if let Some(e) = read_err {
            return Err(e);
        }
        Ok(Paced {
            lateness_ms: lateness?,
            due_and_done,
            replies,
        })
    })
}

/// Outcome of one closed-loop connection.
pub struct Closed<R> {
    /// Replies, in send order.
    pub replies: Vec<R>,
    /// When each reply arrived.
    pub done: Vec<Instant>,
}

impl<R> Default for Closed<R> {
    fn default() -> Self {
        Closed {
            replies: Vec::new(),
            done: Vec::new(),
        }
    }
}

impl<R> Closed<R> {
    /// Add a later slice's requests after this one's.
    pub fn append(&mut self, later: Closed<R>) {
        self.replies.extend(later.replies);
        self.done.extend(later.done);
    }
}

/// Keep `depth` requests outstanding on `stream` until `until`, then drain.
/// `make(i)` encodes the connection's `i`-th request.
pub fn closed<R>(
    stream: TcpStream,
    depth: usize,
    until: Instant,
    mut make: impl FnMut(usize) -> Vec<u8>,
    mut read_reply: impl FnMut(&mut BufReader<TcpStream>) -> io::Result<R>,
) -> io::Result<Closed<R>> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut sent = 0;
    for _ in 0..depth {
        writer.write_all(&make(sent))?;
        sent += 1;
    }
    let mut replies = Vec::new();
    let mut done = Vec::new();
    while replies.len() < sent {
        replies.push(read_reply(&mut reader)?);
        done.push(Instant::now());
        if Instant::now() < until {
            writer.write_all(&make(sent))?;
            sent += 1;
        }
    }
    Ok(Closed { replies, done })
}

/// Completions per second over the `[start, end]` windows: the completions
/// inside them, with every connection's merged, over their summed length.
/// A stall in a window counts against the rate.
pub fn completion_rate(done: &[Instant], windows: &[(Instant, Instant)]) -> f64 {
    let n = done
        .iter()
        .filter(|&&t| windows.iter().any(|&(start, end)| t >= start && t <= end))
        .count();
    let secs: f64 = windows
        .iter()
        .map(|&(start, end)| end.duration_since(start).as_secs_f64())
        .sum();
    n as f64 / secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// A line-echo server that answers at once, except that it stalls for
    /// `stall` before answering request `stall_at`.
    fn stub_server(
        stall_at: usize,
        stall: Duration,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut out = conn.try_clone().unwrap();
            for (i, line) in BufReader::new(conn).lines().enumerate() {
                let Ok(line) = line else { break };
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                if writeln!(out, "{line}").is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    fn read_line(r: &mut BufReader<TcpStream>) -> io::Result<String> {
        let mut s = String::new();
        if r.read_line(&mut s)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(s.trim_end().to_string())
    }

    #[test]
    fn a_stall_delays_every_request_queued_behind_it() {
        let stall_at = 5;
        let stall = Duration::from_millis(200);
        let interval = Duration::from_millis(10);
        let (addr, server) = stub_server(stall_at, stall);
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let out = paced(
            stream,
            40,
            interval,
            |i| format!("{i}\n").into_bytes(),
            read_line,
        )
        .unwrap();
        server.join().unwrap();
        let latency = out.latency_ms();

        let want: Vec<String> = (0..40).map(|i| i.to_string()).collect();
        assert_eq!(out.replies, want, "replies in request order");
        // The stalled request waits the whole stall.
        assert!(latency[stall_at] >= 190.0, "{:?}", latency);
        // Requests due during the stall were sent on time but answered only
        // after it: each one's latency is what is left of the stall when it
        // was due. A generator that waited for replies before sending (and
        // timed from the send) would report ~0 ms for all of them.
        for k in 1..=10 {
            let i = stall_at + k;
            let left = 200.0 - 10.0 * k as f64;
            assert!(
                latency[i] >= left - 15.0,
                "request {i}: {:.1} ms, want about {left} ms",
                latency[i]
            );
            assert!(
                out.lateness_ms[i] < 15.0,
                "sender ran late: {:?}",
                out.lateness_ms
            );
        }
        // Well after the stall the queue has drained.
        assert!(latency[39] < 50.0, "{:?}", latency);
    }

    #[test]
    fn completion_rate_counts_every_connection_and_stalls() {
        let t0 = Instant::now();
        let ms = |m: u64| t0 + Duration::from_millis(m);
        // Two connections' completions, interleaved, bursts of any size,
        // a stall from 50 to 100 ms, and one completion after the window.
        let done: Vec<Instant> = [10, 10, 10, 20, 40, 40, 100, 900].map(ms).to_vec();
        let rate = completion_rate(&done, &[(ms(0), ms(100))]);
        assert!((rate - 70.0).abs() < 1e-6, "{rate}");
        // Two windows: completions between them count in neither.
        let rate = completion_rate(&done, &[(ms(0), ms(15)), (ms(35), ms(100))]);
        assert!((rate - 75.0).abs() < 1e-6, "{rate}");
    }

    #[test]
    fn closed_loop_keeps_depth_outstanding_and_drains() {
        let (addr, server) = stub_server(usize::MAX, Duration::ZERO);
        let stream = TcpStream::connect(addr).unwrap();
        let (tx, rx) = mpsc::channel();
        let until = Instant::now() + Duration::from_millis(50);
        let out = closed(
            stream,
            4,
            until,
            |i| {
                tx.send(i).unwrap();
                format!("{i}\n").into_bytes()
            },
            read_line,
        )
        .unwrap();
        drop(tx);
        let sent: Vec<usize> = rx.iter().collect();
        assert!(sent.len() >= 4);
        assert_eq!(out.replies.len(), sent.len(), "every request answered");
        assert!(*out.done.last().unwrap() >= until);
        server.join().unwrap();
    }
}
