//! The loopback load generator.
//!
//! One process drives the server with at most `nproc` connections and
//! one client thread per connection. A thread writes a request line and
//! then reads its reply line; the server answers one request at a time
//! per connection, so no connection ever has two requests outstanding.
//!
//! * **Closed loop** — each connection sends its next request as soon as
//!   the previous reply lands, until a deadline.
//! * **Open loop** — request `j` is due at `start + j / rate`, and
//!   connection `j mod C` sends it. Latency is timed from the due time,
//!   so a reply that stalls delays every later request on its connection
//!   and inflates their latency too. `lag` is how late the send was.
//! * **Sequence** — one connection, requests back to back (probes).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

/// A request the generator can put on the wire.
pub trait Line {
    /// The request line, without its trailing newline.
    fn line(&self) -> &str;
}

impl Line for String {
    fn line(&self) -> &str {
        self
    }
}

/// One request and what came back.
pub struct Exchange<R> {
    /// The request as generated.
    pub req: R,
    /// The reply line; `None` when the connection broke.
    pub reply: Option<String>,
    /// Reply time minus due time (open loop) or send time (otherwise).
    pub latency_us: f64,
    /// Send time minus due time; 0 outside the open loop.
    pub lag_us: f64,
}

/// The most connections (and client threads) the generator opens.
pub fn max_connections() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// One client connection: requests out, reply lines in.
struct Conn {
    addr: SocketAddr,
    stream: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let mut conn = Conn { addr, stream: None };
        conn.connect()?;
        Ok(conn)
    }

    fn connect(&mut self) -> io::Result<()> {
        let sock = TcpStream::connect(self.addr)?;
        sock.set_nodelay(true)?;
        let reader = BufReader::new(sock.try_clone()?);
        self.stream = Some((sock, reader));
        Ok(())
    }

    /// Send one line and read one reply line. A broken connection yields
    /// `None` and is reopened for the next request.
    fn exchange(&mut self, line: &str) -> Option<String> {
        if self.stream.is_none() && self.connect().is_err() {
            return None;
        }
        let (sock, reader) = self.stream.as_mut().expect("connected above");
        // payload and newline in one write: a split write can stall on
        // the peer's delayed ACK
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        let mut reply = String::new();
        let ok = sock.write_all(framed.as_bytes()).is_ok()
            && matches!(reader.read_line(&mut reply), Ok(n) if n > 0);
        if ok {
            Some(reply)
        } else {
            self.stream = None;
            None
        }
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Closed loop: `connections` (capped at [`max_connections`]) clients,
/// each sending `next(conn, k)` for its `k`-th request as soon as the
/// previous reply arrives, until `duration` has passed or it has sent
/// `per_conn` requests. Returns the exchanges and the wall time from the
/// common start to the last reply.
pub fn closed_loop<R: Line + Send>(
    addr: SocketAddr,
    connections: usize,
    duration: Duration,
    per_conn: usize,
    next: &(dyn Fn(usize, usize) -> R + Sync),
) -> io::Result<(Vec<Exchange<R>>, Duration)> {
    let conns = connections.clamp(1, max_connections());
    let mut clients = (0..conns)
        .map(|_| Conn::open(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let start_line = Barrier::new(conns);
    let mut start = Instant::now();
    let results = thread::scope(|s| {
        let start_line = &start_line;
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    start_line.wait();
                    let t0 = Instant::now();
                    let mut out = Vec::new();
                    for k in 0..per_conn {
                        if t0.elapsed() >= duration {
                            break;
                        }
                        let req = next(c, k);
                        let sent = Instant::now();
                        let reply = conn.exchange(req.line());
                        out.push(Exchange {
                            req,
                            reply,
                            latency_us: micros(sent.elapsed()),
                            lag_us: 0.0,
                        });
                    }
                    (t0, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect::<Vec<_>>()
    });
    if let Some(first) = results.iter().map(|(t0, _)| *t0).min() {
        start = first;
    }
    let wall = start.elapsed();
    Ok((results.into_iter().flat_map(|(_, out)| out).collect(), wall))
}

/// Open loop: request `j` of `reqs` is due `j / rate` seconds after the
/// start and is sent by connection `j mod C` (`C` capped at
/// [`max_connections`]). Returns the exchanges in request order and the
/// wall time of the phase.
pub fn open_loop<R: Line + Send>(
    addr: SocketAddr,
    connections: usize,
    rate: f64,
    reqs: Vec<R>,
) -> io::Result<(Vec<Exchange<R>>, Duration)> {
    let conns = connections.clamp(1, max_connections());
    let mut queues: Vec<Vec<(usize, R)>> = (0..conns).map(|_| Vec::new()).collect();
    for (j, req) in reqs.into_iter().enumerate() {
        queues[j % conns].push((j, req));
    }
    let mut clients = (0..conns)
        .map(|_| Conn::open(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let interval = 1.0 / rate;
    let start = Instant::now();
    let mut all: Vec<(usize, Exchange<R>)> = thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(queues)
            .map(|(conn, queue)| {
                s.spawn(move || {
                    let mut out = Vec::with_capacity(queue.len());
                    for (j, req) in queue {
                        let due = start + Duration::from_secs_f64(j as f64 * interval);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let reply = conn.exchange(req.line());
                        let done = Instant::now();
                        out.push((
                            j,
                            Exchange {
                                req,
                                reply,
                                latency_us: micros(done.saturating_duration_since(due)),
                                lag_us: micros(sent.saturating_duration_since(due)),
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop client panicked"))
            .collect()
    });
    let wall = start.elapsed();
    all.sort_by_key(|(j, _)| *j);
    Ok((all.into_iter().map(|(_, x)| x).collect(), wall))
}

/// One connection, requests back to back.
pub fn sequence<R: Line>(addr: SocketAddr, reqs: Vec<R>) -> io::Result<Vec<Exchange<R>>> {
    let mut conn = Conn::open(addr)?;
    Ok(reqs
        .into_iter()
        .map(|req| {
            let sent = Instant::now();
            let reply = conn.exchange(req.line());
            Exchange {
                req,
                reply,
                latency_us: micros(sent.elapsed()),
                lag_us: 0.0,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A line-echo server for tests: replies `{"ok":true}` to every line,
    /// sleeping `stall` before the very first reply. Counts connections
    /// and the most that were open at once.
    struct FakeServer {
        addr: SocketAddr,
        accepted: Arc<AtomicUsize>,
        peak_open: Arc<AtomicUsize>,
        stop: Arc<AtomicBool>,
        accept_loop: Option<thread::JoinHandle<()>>,
    }

    impl FakeServer {
        fn start(stall: Duration) -> FakeServer {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let accepted = Arc::new(AtomicUsize::new(0));
            let peak_open = Arc::new(AtomicUsize::new(0));
            let stop = Arc::new(AtomicBool::new(false));
            let (acc, peak, stop2) = (accepted.clone(), peak_open.clone(), stop.clone());
            let accept_loop = thread::spawn(move || {
                let open = Arc::new(AtomicUsize::new(0));
                let stalled = Arc::new(AtomicBool::new(false));
                let mut handlers = Vec::new();
                for sock in listener.incoming() {
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    let sock = sock.unwrap();
                    acc.fetch_add(1, Ordering::SeqCst);
                    let now_open = open.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now_open, Ordering::SeqCst);
                    let (open, stalled) = (open.clone(), stalled.clone());
                    handlers.push(thread::spawn(move || {
                        let mut reader = BufReader::new(sock.try_clone().unwrap());
                        let mut writer = sock;
                        let mut line = String::new();
                        while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                            if !stalled.swap(true, Ordering::SeqCst) {
                                thread::sleep(stall);
                            }
                            if writer.write_all(b"{\"ok\":true}\n").is_err() {
                                break;
                            }
                            line.clear();
                        }
                        open.fetch_sub(1, Ordering::SeqCst);
                    }));
                }
                for h in handlers {
                    h.join().unwrap();
                }
            });
            FakeServer {
                addr,
                accepted,
                peak_open,
                stop,
                accept_loop: Some(accept_loop),
            }
        }
    }

    impl Drop for FakeServer {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            if let Some(h) = self.accept_loop.take() {
                let _ = h.join();
            }
        }
    }

    #[test]
    fn a_stalled_reply_inflates_later_latencies_in_the_open_loop() {
        let server = FakeServer::start(Duration::from_millis(200));
        let reqs: Vec<String> = (0..10).map(|i| format!("{{\"n\":{i}}}")).collect();
        // one connection, one request due every 10 ms
        let (out, _) = open_loop(server.addr, 1, 100.0, reqs).unwrap();
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|x| x.reply.is_some()));
        assert!(out[0].latency_us >= 190_000.0, "{}", out[0].latency_us);
        // request 1 was due at 10 ms but could only go out after the
        // stalled reply at ~200 ms: its latency counts that wait
        assert!(out[1].latency_us >= 150_000.0, "{}", out[1].latency_us);
        assert!(out[1].lag_us >= 150_000.0, "{}", out[1].lag_us);
        assert!(out[5].latency_us >= 100_000.0, "{}", out[5].latency_us);
        // the requests themselves were served instantly: timed from the
        // send, the later ones would look fast
        assert!(out[9].latency_us - out[9].lag_us < 50_000.0);
    }

    #[test]
    fn the_generator_opens_at_most_nproc_connections() {
        let cap = max_connections();
        let server = FakeServer::start(Duration::ZERO);
        let next = |c: usize, k: usize| format!("{{\"c\":{c},\"k\":{k}}}");
        let (out, _) = closed_loop(
            server.addr,
            64,
            Duration::from_millis(50),
            usize::MAX,
            &next,
        )
        .unwrap();
        assert!(!out.is_empty());
        let threads: std::collections::BTreeSet<String> = out
            .iter()
            .map(|x| x.req.split(',').next().unwrap().to_string())
            .collect();
        assert!(
            threads.len() <= cap,
            "{} client threads > {cap}",
            threads.len()
        );
        assert!(server.accepted.load(Ordering::SeqCst) <= cap);
        assert!(server.peak_open.load(Ordering::SeqCst) <= cap);

        let server = FakeServer::start(Duration::ZERO);
        let reqs: Vec<String> = (0..40).map(|i| i.to_string()).collect();
        let (out, _) = open_loop(server.addr, 64, 2000.0, reqs).unwrap();
        assert_eq!(out.len(), 40);
        assert!(server.accepted.load(Ordering::SeqCst) <= cap);
        assert!(server.peak_open.load(Ordering::SeqCst) <= cap);
    }
}
