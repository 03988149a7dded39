//! Mixed-scenario load harness for the `serve` front end.
//!
//! Spawns a real server on an ephemeral loopback port and replays mixed
//! traffic (chat / rag / sparql / complete, tenants rotating across
//! free / standard / pro) against it, writing per-traffic-class latency
//! percentiles and degradation counters to `reports/serve_bench.json`:
//!
//! 1. **closed loop** — N connections, each firing its next request the
//!    moment the previous reply lands, at rising concurrency. The
//!    highest rung drives the server at 10× its worker count — the
//!    overload acceptance point: every request must still get a
//!    well-formed reply (normal, degraded, or shed apology), never a
//!    dropped connection or protocol error. The harness *panics* if any
//!    reply is missing or malformed, so the report existing at all is
//!    the acceptance evidence.
//! 2. **open loop** — a fixed fleet of connections offering requests on
//!    a clock (pipelined, replies drained by a separate reader thread),
//!    at rising offered rates, measuring send-to-reply latency including
//!    queueing.
//!
//! Every rung and every rate runs five times (three in `--smoke`): a
//! load run does not repeat, so the report writes, per rung, the median
//! of the throughput and of each class's p50, p95, p99, shed and degraded
//! counts under the field's name, with `[q1, q3]` beside it as
//! `<field>_quartiles`.
//!
//! Latency percentiles here are exact (computed from the client's own
//! sample vectors), unlike the octave-resolution `/stats` histograms the
//! server reports about itself — the final `server_stats` section of the
//! report captures those too, for cross-checking.
//!
//! Flags: `--smoke` — CI mode: two closed-loop rungs and one open-loop
//! rate against a 1-worker server, report to
//! `reports/serve_bench_smoke.json`. Validates harness + schema + the
//! overload contract, not the numbers.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use llmkg::{Workbench, WorkbenchConfig};
use llmkg_bench::{header, percentile, write_report, Spread, EXP_SEED};
use serde_json::{json, Value};
use serve::{AdmissionPolicy, ServeConfig, Server, ServerHandle};

/// Send one request line in a single write (payload + newline together,
/// with `TCP_NODELAY` set by [`client_connect`]) — two writes per
/// request stall ~40ms on the peer's delayed ACK under Nagle.
fn send_line(sock: &mut TcpStream, line: &str) {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    sock.write_all(framed.as_bytes()).expect("send");
}

fn client_connect(addr: std::net::SocketAddr) -> TcpStream {
    let sock = TcpStream::connect(addr).expect("connect");
    sock.set_nodelay(true).expect("nodelay");
    sock
}

/// One measured reply.
struct Sample {
    class: &'static str,
    latency_us: u64,
    shed: bool,
    degraded: bool,
    ok: bool,
}

/// One load run: every reply's sample, and the run's wall time.
struct Run {
    samples: Vec<Sample>,
    wall: Duration,
}

/// The deterministic mixed-traffic schedule: request `i` of connection
/// `c` picks its scenario, tenant, and input from these tables.
struct TrafficMix {
    lines: Vec<(&'static str, String)>,
}

impl TrafficMix {
    /// Derive request templates from a workbench built with the same
    /// config as the server's, so questions reference real entities.
    fn new(config: &WorkbenchConfig) -> TrafficMix {
        let wb = Workbench::build(config);
        let g = wb.graph();
        let names: Vec<String> = g
            .entities()
            .iter()
            .take(8)
            .map(|&e| g.display_name(e))
            .collect();
        let tenants = ["free:bench", "bench-std", "pro:bench"];
        let mut lines = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let tenant = tenants[i % tenants.len()];
            lines.push((
                "chat",
                format!(
                    r#"{{"tenant":"{tenant}","scenario":"chat","input":"Who directed {name}?"}}"#
                ),
            ));
            lines.push((
                "rag",
                format!(
                    r#"{{"tenant":"{tenant}","scenario":"rag","mode":"naive","input":"Who directed {name}?"}}"#
                ),
            ));
            lines.push((
                "sparql",
                format!(
                    r#"{{"tenant":"{tenant}","scenario":"sparql","input":"PREFIX v: <http://llmkg.dev/vocab/> SELECT ?f ?d WHERE {{ ?f a v:Film . ?f v:directedBy ?d }}"}}"#
                ),
            ));
            lines.push((
                "complete",
                format!(r#"{{"tenant":"{tenant}","scenario":"complete","input":"{name} is"}}"#),
            ));
        }
        TrafficMix { lines }
    }

    /// The (class, request line) for request `i` of connection `c`.
    fn line(&self, c: usize, i: usize) -> (&'static str, &str) {
        let (class, line) = &self.lines[(c * 7 + i) % self.lines.len()];
        (class, line)
    }
}

/// Parse a reply line, enforcing the protocol contract: every reply is
/// a JSON object carrying `ok`, `shed`, and `degraded`. Panics (failing
/// the bench) on anything else — this is the overload acceptance gate.
fn parse_reply(line: &str) -> (bool, bool, bool) {
    let v: Value = serde_json::from_str(line.trim())
        .unwrap_or_else(|e| panic!("malformed reply {line:?}: {e}"));
    let get = |k: &str| {
        v.as_object()
            .and_then(|o| o.get(k))
            .and_then(Value::as_bool)
            .unwrap_or_else(|| panic!("reply missing bool {k:?}: {line:?}"))
    };
    (get("ok"), get("shed"), get("degraded"))
}

/// Closed loop: `connections` clients, each sending `per_conn` requests
/// back-to-back. Returns every sample plus the wall time of the run.
fn closed_loop(
    addr: std::net::SocketAddr,
    mix: &TrafficMix,
    connections: usize,
    per_conn: usize,
) -> (Vec<Sample>, Duration) {
    let barrier = Arc::new(Barrier::new(connections + 1));
    let start = Instant::now();
    let samples = thread::scope(|s| {
        let joins: Vec<_> = (0..connections)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let sock = client_connect(addr);
                    let mut reader = BufReader::new(sock.try_clone().expect("clone"));
                    let mut sock = sock;
                    let mut out = Vec::with_capacity(per_conn);
                    barrier.wait();
                    for i in 0..per_conn {
                        let (class, line) = mix.line(c, i);
                        let sent = Instant::now();
                        send_line(&mut sock, line);
                        let mut reply = String::new();
                        let n = reader.read_line(&mut reply).expect("recv");
                        assert!(n > 0, "connection dropped mid-run (class {class})");
                        let (ok, shed, degraded) = parse_reply(&reply);
                        out.push(Sample {
                            class,
                            latency_us: sent.elapsed().as_micros() as u64,
                            shed,
                            degraded,
                            ok,
                        });
                    }
                    out
                })
            })
            .collect();
        barrier.wait();
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("client"))
            .collect::<Vec<_>>()
    });
    (samples, start.elapsed())
}

/// Open loop: `connections` clients each offering a request every
/// `interval` on the clock, pipelining regardless of replies; a reader
/// thread per connection drains replies (in order) and measures
/// send-to-reply latency.
fn open_loop(
    addr: std::net::SocketAddr,
    mix: &TrafficMix,
    connections: usize,
    interval: Duration,
    per_conn: usize,
) -> (Vec<Sample>, Duration) {
    let start = Instant::now();
    let samples = thread::scope(|s| {
        let joins: Vec<_> = (0..connections)
            .map(|c| {
                s.spawn(move || {
                    let sock = client_connect(addr);
                    let read_half = sock.try_clone().expect("clone");
                    let (tx, rx) = mpsc::channel::<(&'static str, Instant)>();
                    let reader = thread::spawn(move || {
                        let mut reader = BufReader::new(read_half);
                        let mut out = Vec::with_capacity(per_conn);
                        // Replies arrive in request order: pair the k-th
                        // reply with the k-th send timestamp.
                        while let Ok((class, sent)) = rx.recv() {
                            let mut reply = String::new();
                            let n = reader.read_line(&mut reply).expect("recv");
                            assert!(n > 0, "connection dropped mid-run (class {class})");
                            let (ok, shed, degraded) = parse_reply(&reply);
                            out.push(Sample {
                                class,
                                latency_us: sent.elapsed().as_micros() as u64,
                                shed,
                                degraded,
                                ok,
                            });
                        }
                        out
                    });
                    let mut sock = sock;
                    let t0 = Instant::now();
                    for i in 0..per_conn {
                        // Offered on a fixed clock, independent of reply
                        // progress — the open-loop property.
                        let target = interval * i as u32;
                        if let Some(wait) = target.checked_sub(t0.elapsed()) {
                            thread::sleep(wait);
                        }
                        let (class, line) = mix.line(c, i);
                        let sent = Instant::now();
                        send_line(&mut sock, line);
                        tx.send((class, sent)).expect("reader alive");
                    }
                    drop(tx);
                    reader.join().expect("reader")
                })
            })
            .collect();
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("client"))
            .collect::<Vec<_>>()
    });
    (samples, start.elapsed())
}

/// The statistics each class reports as a median and quartiles over the
/// repeated runs of one rung.
const SPREAD_FIELDS: [&str; 5] = ["p50_us", "p95_us", "p99_us", "shed", "degraded"];

/// One class's share of one run.
struct ClassRun {
    count: usize,
    ok: usize,
    shed: usize,
    max_us: u64,
    /// The values of [`SPREAD_FIELDS`], in order.
    spread: [u64; 5],
}

/// Split one run's samples by traffic class.
fn class_runs(samples: &[Sample]) -> BTreeMap<&'static str, ClassRun> {
    let mut by_class: BTreeMap<&'static str, Vec<&Sample>> = BTreeMap::new();
    for s in samples {
        by_class.entry(s.class).or_default().push(s);
    }
    by_class
        .into_iter()
        .map(|(class, group)| {
            let mut lat: Vec<u64> = group.iter().map(|s| s.latency_us).collect();
            lat.sort_unstable();
            let count = |f: fn(&Sample) -> bool| group.iter().filter(|s| f(s)).count();
            let shed = count(|s| s.shed);
            let run = ClassRun {
                count: group.len(),
                ok: count(|s| s.ok),
                shed,
                max_us: *lat.last().unwrap_or(&0),
                spread: [
                    percentile(&lat, 0.50),
                    percentile(&lat, 0.95),
                    percentile(&lat, 0.99),
                    shed as u64,
                    count(|s| s.degraded) as u64,
                ],
            };
            (class, run)
        })
        .collect()
}

/// Write the median of `values` under `field` and `[q1, q3]` beside it.
fn put_spread(out: &mut serde_json::Map<String, Value>, field: &str, values: &[f64]) {
    let s = Spread::of(values);
    out.insert(field.to_string(), json!(s.median));
    out.insert(format!("{field}_quartiles"), s.quartiles());
}

/// Aggregate a rung's repeated runs into its report object: the `head`
/// fields, `runs`, the total `requests`, the median and quartiles of the
/// per-run rate under `rate_field`, and per traffic class the request,
/// answered and shed totals over all runs, the spread of
/// [`SPREAD_FIELDS`] and the largest latency of any run.
fn rung_json(head: [(&str, Value); 2], rate_field: &str, runs: &[Run]) -> Value {
    let mut rung = serde_json::Map::new();
    for (field, value) in head {
        rung.insert(field.to_string(), value);
    }
    let rates: Vec<f64> = runs
        .iter()
        .map(|r| r.samples.len() as f64 / r.wall.as_secs_f64())
        .collect();
    rung.insert("runs".into(), json!(runs.len()));
    let requests: usize = runs.iter().map(|r| r.samples.len()).sum();
    rung.insert("requests".into(), json!(requests));
    put_spread(&mut rung, rate_field, &rates);
    let per_run: Vec<_> = runs.iter().map(|r| class_runs(&r.samples)).collect();
    let mut classes = serde_json::Map::new();
    for class in per_run[0].keys() {
        let rows: Vec<&ClassRun> = per_run.iter().filter_map(|m| m.get(class)).collect();
        let mut c = serde_json::Map::new();
        c.insert(
            "count".into(),
            json!(rows.iter().map(|r| r.count).sum::<usize>()),
        );
        c.insert("ok".into(), json!(rows.iter().map(|r| r.ok).sum::<usize>()));
        c.insert(
            "shed_total".into(),
            json!(rows.iter().map(|r| r.shed).sum::<usize>()),
        );
        for (i, field) in SPREAD_FIELDS.iter().enumerate() {
            let values: Vec<f64> = rows.iter().map(|r| r.spread[i] as f64).collect();
            put_spread(&mut c, field, &values);
        }
        c.insert("max_us".into(), json!(rows.iter().map(|r| r.max_us).max()));
        classes.insert(class.to_string(), Value::Object(c));
    }
    rung.insert("classes".into(), Value::Object(classes));
    Value::Object(rung)
}

fn print_run(tag: &str, run: &Run) {
    let samples = &run.samples;
    let mut lat: Vec<u64> = samples.iter().map(|s| s.latency_us).collect();
    lat.sort_unstable();
    let shed = samples.iter().filter(|s| s.shed).count();
    let degraded = samples.iter().filter(|s| s.degraded).count();
    let rps = samples.len() as f64 / run.wall.as_secs_f64();
    println!(
        "{tag:<24} {:>7} req {:>8.0} rps  p50 {:>7}µs  p95 {:>7}µs  p99 {:>7}µs  shed {:>5}  degraded {:>5}",
        samples.len(),
        rps,
        percentile(&lat, 0.50),
        percentile(&lat, 0.95),
        percentile(&lat, 0.99),
        shed,
        degraded,
    );
}

/// Fetch the server's own `/stats` view for the report's cross-check
/// section.
fn fetch_stats(addr: std::net::SocketAddr) -> Value {
    let mut sock = client_connect(addr);
    send_line(&mut sock, r#"{"scenario":"stats"}"#);
    let mut reader = BufReader::new(sock);
    let mut line = String::new();
    reader.read_line(&mut line).expect("recv");
    serde_json::from_str(line.trim()).expect("stats reply")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let report_name = if smoke {
        "serve_bench_smoke"
    } else {
        "serve_bench"
    };

    let workers = if smoke { 1 } else { 2 };
    let admission = if smoke {
        AdmissionPolicy {
            queue_capacity: 2,
            degrade_depth: 1,
            ..AdmissionPolicy::default()
        }
    } else {
        AdmissionPolicy {
            queue_capacity: 8,
            degrade_depth: 2,
            ..AdmissionPolicy::default()
        }
    };
    let workbench = WorkbenchConfig {
        entities_per_class: if smoke { 8 } else { 16 },
        seed: EXP_SEED,
        ..Default::default()
    };
    let config = ServeConfig {
        workers,
        admission,
        workbench: workbench.clone(),
        ..Default::default()
    };
    let handle: ServerHandle = Server::spawn(config).expect("spawn server");
    let addr = handle.addr();
    let mix = TrafficMix::new(&workbench);
    // a load run does not repeat: every rung and rate runs this often
    let runs = if smoke { 3 } else { 5 };

    // --- closed loop, rising concurrency; last rung = 10× the workers ---
    header("Closed loop: rising concurrency (mixed chat/rag/sparql/complete)");
    let rungs: Vec<usize> = if smoke {
        vec![1, 10 * workers]
    } else {
        vec![1, 2, 4, 8, 10 * workers]
    };
    let per_conn = if smoke { 6 } else { 40 };
    let mut closed = Vec::new();
    for &connections in &rungs {
        let repeats: Vec<Run> = (0..runs)
            .map(|i| {
                let (samples, wall) = closed_loop(addr, &mix, connections, per_conn);
                assert_eq!(
                    samples.len(),
                    connections * per_conn,
                    "every request must be answered"
                );
                let run = Run { samples, wall };
                print_run(&format!("connections={connections} #{i}"), &run);
                run
            })
            .collect();
        let head = [
            ("connections", json!(connections)),
            (
                "overload_factor",
                json!(connections as f64 / workers as f64),
            ),
        ];
        closed.push(rung_json(head, "throughput_rps", &repeats));
    }

    // The top rung is the acceptance point: 10× overload, everything
    // answered (asserted above), degradation visible in the counters.
    let top = closed.last().expect("rungs");
    let overload_shed: f64 = top
        .get("classes")
        .and_then(Value::as_object)
        .expect("classes")
        .values()
        .map(|c| {
            c.get("shed").and_then(Value::as_f64).unwrap_or(0.0)
                + c.get("degraded").and_then(Value::as_f64).unwrap_or(0.0)
        })
        .sum();
    println!(
        "\n10× overload rung: shed+degraded = {overload_shed} per run, summed over the class medians (admission valve engaged)"
    );

    // --- open loop, rising offered rate ---
    header("Open loop: offered-rate sweep (pipelined, clocked senders)");
    let fleet = if smoke { 2 } else { 4 };
    let rates: Vec<u64> = if smoke {
        vec![100]
    } else {
        vec![100, 400, 1600]
    };
    let mut open = Vec::new();
    for &rate in &rates {
        let per_conn_rate = rate / fleet as u64;
        let interval = Duration::from_micros(1_000_000 / per_conn_rate.max(1));
        let n = if smoke {
            8
        } else {
            (per_conn_rate as usize).max(8)
        }; // ≈1s of traffic
        let repeats: Vec<Run> = (0..runs)
            .map(|i| {
                let (samples, wall) = open_loop(addr, &mix, fleet, interval, n);
                assert_eq!(samples.len(), fleet * n, "every request must be answered");
                let run = Run { samples, wall };
                print_run(&format!("offered={rate}rps #{i}"), &run);
                run
            })
            .collect();
        let head = [("offered_rps", json!(rate)), ("connections", json!(fleet))];
        open.push(rung_json(head, "achieved_rps", &repeats));
    }

    // --- the server's own view, for cross-checking ---
    let stats = fetch_stats(addr);
    let counters = stats.get("counters").cloned().unwrap_or(Value::Null);
    header("Server self-report (octave-resolution /stats)");
    for key in [
        "serve.accepted",
        "serve.requests",
        "serve.shed",
        "serve.protocol_errors",
        "serve.stats_replies",
        "serve.degraded",
    ] {
        let v = counters.get(key).and_then(Value::as_u64).unwrap_or(0);
        println!("{key:<20} {v}");
    }

    write_report(
        report_name,
        &json!({
            "experiment": "serve_bench",
            "mode": if smoke { "smoke" } else { "full" },
            "seed": EXP_SEED,
            "server": {
                "workers": workers,
                "queue_capacity": admission.queue_capacity,
                "degrade_depth": admission.degrade_depth,
                "domain": "movies",
                "entities_per_class": workbench.entities_per_class,
            },
            "contract": "every request answered with a well-formed reply; overload degrades/sheds, never errors",
            "closed_loop": Value::Array(closed),
            "open_loop": Value::Array(open),
            "server_stats": stats,
        }),
    );
    println!("\nwrote reports/{report_name}.json");
    handle.shutdown();
}
