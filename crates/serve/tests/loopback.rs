//! End-to-end loopback tests: a real server on an ephemeral port, real
//! TCP clients, all four scenarios, malformed input, overload, and a
//! mid-request disconnect. The contract under test: every request gets
//! exactly one well-formed JSON reply line — degraded or apologetic
//! under pressure, never a dropped connection or a protocol error.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use llmkg::WorkbenchConfig;
use serde_json::Value;
use serve::{AdmissionPolicy, ServeConfig, Server, ServerHandle};

fn small_config() -> ServeConfig {
    ServeConfig {
        workbench: WorkbenchConfig {
            entities_per_class: 8,
            ..Default::default()
        },
        workers: 2,
        ..Default::default()
    }
}

struct Client {
    sock: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let sock = TcpStream::connect(handle.addr()).expect("connect");
        sock.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(sock.try_clone().expect("clone"));
        Client { sock, reader }
    }

    // Single write per request (payload + newline): a separate `\n`
    // write can stall ~40ms on Nagle + delayed ACK.
    fn send(&mut self, line: &str) {
        self.sock
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(line.ends_with('\n'), "reply must be newline-terminated");
        serde_json::from_str(line.trim()).expect("reply must be valid JSON")
    }

    fn roundtrip(&mut self, line: &str) -> Value {
        self.send(line);
        self.recv()
    }

    fn stats(&mut self) -> Value {
        self.roundtrip(r#"{"scenario":"stats"}"#)
    }
}

fn counter(stats: &Value, name: &str) -> u64 {
    stats
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

#[test]
fn all_four_scenarios_roundtrip_on_one_connection() {
    let handle = Server::spawn(small_config()).unwrap();
    let mut c = Client::connect(&handle);

    let chat =
        c.roundtrip(r#"{"id":1,"tenant":"pro:t","scenario":"chat","input":"Who directed Film?"}"#);
    let rag =
        c.roundtrip(r#"{"id":2,"scenario":"rag","mode":"naive","input":"Who directed Film?"}"#);
    let sparql = c.roundtrip(
        r#"{"id":3,"tenant":"free:x","scenario":"sparql","input":"PREFIX v: <http://llmkg.dev/vocab/> SELECT ?f WHERE { ?f a v:Film }"}"#,
    );
    let complete = c.roundtrip(r#"{"id":4,"scenario":"complete","input":"the film"}"#);

    for (i, reply) in [(&chat, 1u64), (&rag, 2), (&sparql, 3), (&complete, 4)]
        .iter()
        .map(|(r, i)| (*i, *r))
    {
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(true),
            "{reply:?}"
        );
        assert_eq!(reply.get("id").and_then(Value::as_u64), Some(i));
        assert_eq!(reply.get("grade").and_then(Value::as_str), Some("normal"));
        assert_eq!(reply.get("shed").and_then(Value::as_bool), Some(false));
        assert!(reply.get("latency_us").and_then(Value::as_u64).is_some());
    }
    assert!(sparql.get("rows").and_then(Value::as_u64).unwrap() > 0);
    assert_eq!(sparql.get("tenant").and_then(Value::as_str), Some("free"));
    assert_eq!(chat.get("tenant").and_then(Value::as_str), Some("pro"));

    let stats = c.stats();
    assert_eq!(counter(&stats, "serve.requests"), 4);
    assert_eq!(counter(&stats, "serve.accepted"), 5); // 4 workloads + stats
    assert_eq!(counter(&stats, "serve.requests.chat"), 1);
    assert_eq!(counter(&stats, "serve.tenant.pro"), 1);
    let hists = stats.get("histograms").and_then(Value::as_object).unwrap();
    assert!(
        hists.contains_key("serve.latency_us.rag"),
        "latency histogram"
    );

    handle.shutdown();
}

#[test]
fn malformed_requests_get_error_replies_and_the_connection_survives() {
    let handle = Server::spawn(small_config()).unwrap();
    let mut c = Client::connect(&handle);

    for bad in [
        "this is not json",
        r#"{"scenario":"warp","input":"x"}"#,
        r#"{"input":"no scenario"}"#,
        r#"[1,2,3]"#,
    ] {
        let reply = c.roundtrip(bad);
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(false),
            "{bad}"
        );
        assert!(
            reply.get("error").and_then(Value::as_str).is_some(),
            "{bad}"
        );
    }
    // Blank lines are skipped, and the connection still serves real work.
    c.send("");
    let good = c.roundtrip(r#"{"scenario":"complete","input":"the film"}"#);
    assert_eq!(good.get("ok").and_then(Value::as_bool), Some(true));

    let stats = c.stats();
    assert_eq!(counter(&stats, "serve.protocol_errors"), 4);
    handle.shutdown();
}

#[test]
fn oversized_lines_are_answered_then_the_stream_closes() {
    let handle = Server::spawn(small_config()).unwrap();
    let mut c = Client::connect(&handle);
    // 80 KiB of garbage with no newline until the end: unparseable and
    // over the line cap — the server must bound its buffer, answer, and
    // hang up (the stream cannot be resynchronized).
    let huge = "x".repeat(80 * 1024);
    c.send(&huge);
    let reply = c.recv();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    assert!(reply
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("exceeds"));
    // Closing with unread bytes in the kernel buffer surfaces as either
    // a clean EOF or an RST depending on timing — both mean "closed".
    let mut rest = String::new();
    match c.reader.read_line(&mut rest) {
        Ok(n) => assert_eq!(n, 0, "closed"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    handle.shutdown();
}

#[test]
fn overload_degrades_and_sheds_but_every_request_is_answered() {
    // One worker and a one-slot queue: any request submitted while the
    // worker is busy is degraded, any further one is shed.
    let handle = Server::spawn(ServeConfig {
        workers: 1,
        admission: AdmissionPolicy {
            queue_capacity: 1,
            degrade_depth: 1,
            ..AdmissionPolicy::default()
        },
        ..small_config()
    })
    .unwrap();

    let clients = 12;
    let per_client = 4;
    let barrier = Arc::new(Barrier::new(clients));
    let mut joins = Vec::new();
    for t in 0..clients {
        let barrier = Arc::clone(&barrier);
        let addr = handle.addr();
        joins.push(std::thread::spawn(move || {
            let sock = TcpStream::connect(addr).expect("connect");
            sock.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(sock.try_clone().unwrap());
            let mut sock = sock;
            barrier.wait();
            let mut replies = Vec::new();
            for i in 0..per_client {
                let line = format!(
                    r#"{{"id":{i},"tenant":"free:{t}","scenario":"rag","input":"Who directed the film?"}}"#
                );
                sock.write_all(format!("{line}\n").as_bytes()).expect("send");
                let mut line = String::new();
                reader.read_line(&mut line).expect("recv");
                let v: Value = serde_json::from_str(line.trim()).expect("well-formed");
                replies.push(v);
            }
            replies
        }));
    }
    let mut total = 0u64;
    let mut shed_seen = 0u64;
    for j in joins {
        for reply in j.join().expect("client thread") {
            total += 1;
            // Overload never produces errors: every reply is ok, with
            // the pressure expressed in grade/shed/degraded fields.
            assert_eq!(
                reply.get("ok").and_then(Value::as_bool),
                Some(true),
                "{reply:?}"
            );
            assert!(reply.get("shed").and_then(Value::as_bool).is_some());
            if reply.get("shed") == Some(&Value::Bool(true)) {
                shed_seen += 1;
                assert_eq!(
                    reply.get("grade").and_then(Value::as_str),
                    Some("shed"),
                    "{reply:?}"
                );
                assert!(reply.get("answer").and_then(Value::as_str).is_some());
            }
        }
    }
    assert_eq!(total, (clients * per_client) as u64);

    let mut c = Client::connect(&handle);
    let stats = c.stats();
    let requests = counter(&stats, "serve.requests");
    let shed = counter(&stats, "serve.shed");
    let degraded = counter(&stats, "serve.degraded");
    assert_eq!(requests + shed, total, "every request ran or was shed");
    assert_eq!(shed, shed_seen);
    assert!(
        shed + degraded > 0,
        "12 concurrent clients against a 1-worker/1-slot server must trip admission \
         (shed={shed} degraded={degraded})"
    );
    handle.shutdown();
}

#[test]
fn every_accepted_line_is_served_shed_rejected_or_a_stats_reply() {
    // One worker and a one-slot queue, so concurrent clients get shed.
    let handle = Server::spawn(ServeConfig {
        workers: 1,
        admission: AdmissionPolicy {
            queue_capacity: 1,
            degrade_depth: 1,
            ..AdmissionPolicy::default()
        },
        ..small_config()
    })
    .unwrap();
    let mut c = Client::connect(&handle);
    for line in [
        r#"{"scenario":"complete","input":"the film"}"#,
        "not json",
        r#"{"scenario":"stats"}"#,
        r#"{"scenario":"warp","input":"x"}"#,
        r#"{"scenario":"sparql","input":"SELECT ?f WHERE { ?f ?p ?o } LIMIT 3"}"#,
        r#"{"scenario":"stats"}"#,
    ] {
        c.roundtrip(line);
    }
    // an oversized line is answered, counted, and closes its connection
    let mut big = Client::connect(&handle);
    big.send(&"x".repeat(80 * 1024));
    assert_eq!(big.recv().get("ok").and_then(Value::as_bool), Some(false));
    let barrier = Arc::new(Barrier::new(8));
    let flood: Vec<_> = (0..8)
        .map(|t| {
            let (barrier, addr) = (Arc::clone(&barrier), handle.addr());
            std::thread::spawn(move || {
                let sock = TcpStream::connect(addr).expect("connect");
                sock.set_nodelay(true).unwrap();
                let mut c = Client {
                    reader: BufReader::new(sock.try_clone().unwrap()),
                    sock,
                };
                barrier.wait();
                for i in 0..4 {
                    c.roundtrip(&format!(
                        r#"{{"id":{i},"tenant":"free:{t}","scenario":"rag","input":"Who directed the film?"}}"#
                    ));
                }
            })
        })
        .collect();
    for j in flood {
        j.join().expect("client thread");
    }
    let stats = c.stats();
    let [accepted, requests, shed, protocol_errors, stats_replies] = [
        "serve.accepted",
        "serve.requests",
        "serve.shed",
        "serve.protocol_errors",
        "serve.stats_replies",
    ]
    .map(|name| counter(&stats, name));
    assert_eq!(
        accepted,
        requests + shed + protocol_errors + stats_replies,
        "{stats:?}"
    );
    assert_eq!(accepted, 6 + 1 + 8 * 4 + 1);
    assert_eq!((protocol_errors, stats_replies), (3, 3));
    assert!(shed > 0, "8 concurrent clients must trip a 1-slot queue");
    handle.shutdown();
}

#[test]
fn per_tenant_cap_keeps_a_pro_tenant_served_under_a_free_flood() {
    // One worker; the queue is deep enough that global capacity never
    // binds, so the only shedding force is the per-tenant cap: the free
    // class may hold at most 2 queued slots, however many free
    // connections pile in. A pro client submitting sequentially holds at
    // most 1 slot and must therefore never be shed.
    let handle = Server::spawn(ServeConfig {
        workers: 1,
        admission: AdmissionPolicy {
            queue_capacity: 16,
            degrade_depth: 16,
            per_tenant_cap: 2,
        },
        ..small_config()
    })
    .unwrap();

    let flooders = 6;
    let per_flooder = 15;
    let barrier = Arc::new(Barrier::new(flooders + 1));
    let mut joins = Vec::new();
    for t in 0..flooders {
        let barrier = Arc::clone(&barrier);
        let addr = handle.addr();
        joins.push(std::thread::spawn(move || {
            let sock = TcpStream::connect(addr).expect("connect");
            sock.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(sock.try_clone().unwrap());
            let mut sock = sock;
            barrier.wait();
            let mut shed = 0u64;
            for i in 0..per_flooder {
                let line = format!(
                    r#"{{"id":{i},"tenant":"free:{t}","scenario":"rag","input":"Who directed the film?"}}"#
                );
                sock.write_all(format!("{line}\n").as_bytes()).expect("send");
                let mut reply = String::new();
                reader.read_line(&mut reply).expect("recv");
                let v: Value = serde_json::from_str(reply.trim()).expect("well-formed");
                assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
                if v.get("shed") == Some(&Value::Bool(true)) {
                    shed += 1;
                    assert_eq!(
                        v.get("shed_reason").and_then(Value::as_str),
                        Some("tenant_cap"),
                        "global capacity can never bind in this setup: {v:?}"
                    );
                }
            }
            shed
        }));
    }

    let mut pro = Client::connect(&handle);
    barrier.wait();
    for i in 0..10 {
        let reply = pro.roundtrip(&format!(
            r#"{{"id":{i},"tenant":"pro:acme","scenario":"rag","input":"Who directed the film?"}}"#
        ));
        assert_eq!(
            reply.get("shed").and_then(Value::as_bool),
            Some(false),
            "a pro request was shed during a free flood: {reply:?}"
        );
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
    }

    let free_shed: u64 = joins.into_iter().map(|j| j.join().expect("flooder")).sum();
    let stats = pro.stats();
    assert_eq!(counter(&stats, "serve.shed.tenant_cap"), free_shed);
    assert_eq!(counter(&stats, "serve.shed"), free_shed);
    assert!(
        free_shed > 0,
        "six flooders against a cap of 2 queued slots must shed some free traffic"
    );
    handle.shutdown();
}

#[test]
fn mid_request_disconnect_cancels_and_the_server_stays_healthy() {
    let handle = Server::spawn(ServeConfig {
        workers: 1,
        ..small_config()
    })
    .unwrap();

    {
        // Fire a request and slam the connection shut without reading
        // the reply: the handler's disconnect watch should trip the
        // cancel token (or the reply is written into the void) — either
        // way nothing panics and nothing leaks.
        let mut sock = TcpStream::connect(handle.addr()).expect("connect");
        sock.write_all(
            concat!(
                r#"{"tenant":"pro:p","scenario":"sparql","input":"PREFIX v: <http://llmkg.dev/vocab/> SELECT ?a ?b ?c ?d WHERE { ?a ?p ?b . ?c ?q ?d }"}"#,
                "\n"
            )
            .as_bytes(),
        )
        .expect("send");
        drop(sock);
    }

    // The server must drain back to idle and keep serving.
    let mut c = Client::connect(&handle);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = c.stats();
        let inflight = counter(&stats, "serve.inflight");
        let depth = counter(&stats, "serve.queue_depth");
        let done = counter(&stats, "serve.requests") >= 1;
        if inflight == 0 && depth == 0 && done {
            break;
        }
        assert!(Instant::now() < deadline, "server did not drain: {stats:?}");
        std::thread::sleep(Duration::from_millis(25));
    }
    let good = c.roundtrip(r#"{"scenario":"complete","input":"the film"}"#);
    assert_eq!(good.get("ok").and_then(Value::as_bool), Some(true));
    handle.shutdown();
}

#[test]
fn shutdown_is_idempotent_and_drop_safe() {
    let handle = Server::spawn(small_config()).unwrap();
    let mut c = Client::connect(&handle);
    let r = c.roundtrip(r#"{"scenario":"complete","input":"the film"}"#);
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
    drop(handle); // drop == shutdown; must join cleanly, not hang
}
