//! `perfbench` — the repository's end-to-end serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <assistant_mix|sparql_analytics|ingest_read> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run spawns a real `serve::Server` on loopback several times to
//! time set-up, then drives the last one in rounds of an open loop at a
//! fixed offered rate (latency), a closed loop (capacity) and probes of
//! the operations the workload's mix lacks; it checks every reply, and
//! that the durable store recovers exactly the acknowledged ingests.
//! `--trace 1` adds the traced in-process replay and reports per-layer
//! metrics instead of end-to-end ones. The last line of standard output
//! is the result object; see `perfbench/README.md`.

mod loadgen;
mod replay;
mod stats;
mod workload;

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

use durable::{DiskStorage, DurableGraph, DurableOptions, GroupCommit, Op as WalOp, Storage};
use kg::Term;
use llmkg::Workbench;
use serde_json::{Map, Value};
use serve::{DurableStore, ServeConfig, Server, ServerHandle};

use loadgen::Exchange;
use stats::{median, peak_rss_mb, percentile, ratio};
use workload::{batch_triples, check, Expect, Op, Req, Rng, Traffic, Verdict, Workload};

/// Server start-ups timed per run, at least; more follow, up to
/// [`MAX_SETUPS`], until [`SETUP_BUDGET`] has passed. `setup_s` is
/// their median.
const SETUPS: usize = 5;
const MAX_SETUPS: usize = 31;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Open-loop requests per run, at least.
const MIN_OPEN_REQUESTS: usize = 2000;

/// Warm-up requests per connection: a fixed count, so that the open loop
/// starts from the same server state in every run of a seed.
const WARMUP_PER_CONN: usize = 250;

/// The measurement runs in this many rounds of open-loop segment,
/// closed-loop block and probes; a metric is the median of its per-round
/// values, so a disturbance of the host during one round does not move
/// it.
const ROUNDS: usize = 10;

/// Open-loop requests replayed in process by `--trace 1` runs.
const REPLAY_OPEN: usize = 300;

/// Probe requests per operation replayed by `--trace 1` runs.
const REPLAY_PROBES: usize = 24;

/// Namespace of the batches written before the server starts.
const PRELOAD_NS: &str = "http://llmkg.dev/preload/";

const STATS_LINE: &str = r#"{"scenario":"stats","tenant":"pro:bench"}"#;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::from_name(workload).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {workload:?} (expected one of {names:?})")
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".perfbench").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = std::fs::create_dir_all(&dir).and_then(|_| run(&args, &dir));
    // the stores are scratch: a run leaves only its trace file behind
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        // a run with a wrong reply still prints its result, then fails
        Ok((result, correct)) => {
            println!("{result}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn io_err(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// A judged request.
struct Judged<'a> {
    x: &'a Exchange<Req>,
    v: Verdict,
}

fn judge(xs: &[Exchange<Req>]) -> Vec<Judged<'_>> {
    xs.iter()
        .map(|x| Judged {
            x,
            v: check(&x.req, x.reply.as_deref()),
        })
        .collect()
}

/// Sent / succeeded / failed counts of one phase.
fn phase_counts(judged: &[&Judged]) -> Value {
    let failed = judged.iter().filter(|j| !j.v.ok).count();
    serde_json::json!({
        "sent": judged.len(),
        "succeeded": judged.len() - failed,
        "failed": failed,
    })
}

/// `xs` cut into `n` consecutive parts of near-equal length.
fn chunks<T>(xs: Vec<T>, n: usize) -> Vec<Vec<T>> {
    let len = xs.len();
    let mut it = xs.into_iter();
    (0..n)
        .map(|i| it.by_ref().take((i + 1) * len / n - i * len / n).collect())
        .collect()
}

/// One round of measurement, all against the same server.
struct Round {
    open: Vec<Exchange<Req>>,
    open_wall: Duration,
    closed: Vec<Exchange<Req>>,
    closed_wall: Duration,
    probes: Vec<Exchange<Req>>,
}

/// Latencies in ms of the judged requests of one operation.
fn op_latencies_ms<'a, 'x: 'a>(
    judged: impl IntoIterator<Item = &'a Judged<'x>>,
    op: Op,
) -> Vec<f64> {
    judged
        .into_iter()
        .filter(|j| j.x.req.op == op)
        .map(|j| j.x.latency_us / 1000.0)
        .collect()
}

/// Write `batches` preload batches into a fresh store at `dir`, synced
/// once at the end.
fn preload(dir: &Path, batches: u64) -> io::Result<()> {
    let storage: Arc<dyn Storage> = Arc::new(DiskStorage::new(dir.to_string_lossy().to_string())?);
    if batches == 0 {
        return Ok(());
    }
    let opts = DurableOptions {
        group_commit: GroupCommit::every(batches as usize),
        checkpoint_every_bytes: 0,
    };
    let mut store = DurableGraph::open(storage, opts)?;
    for b in 0..batches {
        let ops: Vec<WalOp> = batch_triples(PRELOAD_NS, b)
            .into_iter()
            .map(|[s, p, o]| WalOp::Insert(Term::iri(s), Term::iri(p), Term::iri(o)))
            .collect();
        store.append(&ops)?;
    }
    store.sync()
}

/// Send one `stats` request on a fresh connection.
fn fetch_stats(addr: std::net::SocketAddr) -> io::Result<Value> {
    let x = loadgen::sequence(addr, vec![STATS_LINE.to_string()])?;
    let line = x
        .into_iter()
        .next()
        .and_then(|x| x.reply)
        .ok_or_else(|| io_err("no reply to stats"))?;
    let v = serde_json::from_str(line.trim()).map_err(|e| io_err(format!("stats reply: {e}")))?;
    match v.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(v),
        _ => Err(io_err(format!("stats request failed: {line}"))),
    }
}

/// Start a server over a fresh store in `dir` and time it from
/// `Server::spawn` to its first successful reply.
fn start_server(w: Workload, dir: &Path) -> io::Result<(ServerHandle, f64)> {
    preload(dir, w.preload_batches())?;
    let start = Instant::now();
    let handle = Server::spawn(ServeConfig {
        workbench: w.workbench(),
        durable: Some(DurableStore::Dir(dir.to_string_lossy().to_string())),
        ..ServeConfig::default()
    })?;
    fetch_stats(handle.addr())?;
    Ok((handle, start.elapsed().as_secs_f64()))
}

/// Reopen the server's store and compare it with what was acknowledged.
/// Returns the recovery time in ms and a description of any mismatch.
fn check_recovery(
    dir: &Path,
    w: Workload,
    ingest_ns: &str,
    acked: &BTreeSet<u64>,
) -> io::Result<(f64, Option<String>)> {
    let storage: Arc<dyn Storage> = Arc::new(DiskStorage::new(dir.to_string_lossy().to_string())?);
    let start = Instant::now();
    let store = DurableGraph::open(storage, DurableOptions::default())?;
    let recover_ms = start.elapsed().as_secs_f64() * 1000.0;
    let g = store.graph();
    let expected = (0..w.preload_batches())
        .map(|b| (PRELOAD_NS, b))
        .chain(acked.iter().map(|&b| (ingest_ns, b)));
    let mut count = 0usize;
    let mut missing = 0usize;
    for (ns, b) in expected {
        for [s, p, o] in batch_triples(ns, b) {
            count += 1;
            let sym = |iri: String| g.pool().get(&Term::iri(iri));
            let present = match (sym(s), sym(p), sym(o)) {
                (Some(s), Some(p), Some(o)) => g.contains(s, p, o),
                _ => false,
            };
            missing += usize::from(!present);
        }
    }
    let problem = (missing > 0 || g.len() != count).then(|| {
        format!(
            "recovered {} triples, expected {count} ({missing} acknowledged triples missing)",
            g.len()
        )
    });
    Ok((recover_ms, problem))
}

/// Environment facts recorded with every result.
fn environment(stats: &Value) -> Value {
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let commit = std::env::var("PERFBENCH_COMMIT")
        .ok()
        .unwrap_or_else(|| run("git", &["rev-parse", "--short", "HEAD"]));
    serde_json::json!({
        "commit": commit,
        "rustc": run("rustc", &["--version"]),
        "cpu": cpu,
        "nproc": loadgen::max_connections(),
        "dispatch": stats
            .get("retrieval")
            .and_then(|r| r.get("dispatch"))
            .cloned()
            .unwrap_or(Value::Null),
    })
}

fn run(args: &Args, dir: &Path) -> io::Result<(String, bool)> {
    let w = args.workload;
    let seed = args.seed;
    let build_start = Instant::now();
    let wb = Workbench::build(&w.workbench());
    let build_s = build_start.elapsed().as_secs_f64();
    let traffic = Traffic::new(w, &wb, seed);

    // --- set-up, timed several times; the last server stays up ---
    let mut setup_s = Vec::new();
    let setups_start = Instant::now();
    let (server, store) = loop {
        let store = dir.join(format!("store{}", setup_s.len()));
        let (handle, secs) = start_server(w, &store)?;
        setup_s.push(secs);
        let enough = setup_s.len() >= SETUPS && setups_start.elapsed() >= SETUP_BUDGET;
        if enough || setup_s.len() >= MAX_SETUPS {
            break (handle, store);
        }
        handle.shutdown();
        std::fs::remove_dir_all(&store)?;
    };
    let addr = server.addr();

    // --- warm-up, then rounds of open loop, closed loop and probes ---
    let conns = loadgen::max_connections();
    let traffic = &traffic;
    let draw = |phase: u64| {
        move |c: usize, k: usize| {
            let mut rng = Rng::new(seed ^ (phase << 56) ^ ((c as u64) << 40) ^ k as u64);
            traffic.draw(&mut rng)
        }
    };
    let secs = args.seconds;
    let (warmup, _) = loadgen::closed_loop(
        addr,
        conns,
        Duration::from_secs(60),
        WARMUP_PER_CONN,
        &draw(1),
    )?;
    let rate = w.offered_rps();
    let n_open = ((rate * secs * 0.6) as usize).max(MIN_OPEN_REQUESTS);
    let mut rng = Rng::new(seed ^ (2 << 56));
    let open_reqs: Vec<Req> = (0..n_open).map(|_| traffic.draw(&mut rng)).collect();
    let replay_set: Vec<Req> = open_reqs.iter().take(REPLAY_OPEN).cloned().collect();
    // the closed loop sends a fixed count, sized to take about 40 % of
    // `--seconds` on the reference host
    let closed_per_conn = (w.reference_rps() * secs * 0.4 / (ROUNDS * conns) as f64) as usize;
    let mut rounds = Vec::with_capacity(ROUNDS);
    for (r, (open_part, probe_part)) in chunks(open_reqs, ROUNDS)
        .into_iter()
        .zip(chunks(traffic.probes().to_vec(), ROUNDS))
        .enumerate()
    {
        let (open, open_wall) = loadgen::open_loop(addr, conns, rate, open_part)?;
        let (closed, closed_wall) = loadgen::closed_loop(
            addr,
            conns,
            Duration::from_secs(120),
            closed_per_conn.max(1),
            &draw(3 + r as u64),
        )?;
        let probes = loadgen::sequence(addr, probe_part)?;
        rounds.push(Round {
            open,
            open_wall,
            closed,
            closed_wall,
            probes,
        });
    }
    let stats = fetch_stats(addr)?;

    // --- traced runs: the replay set once more over one connection ---
    let mut replay_set = replay_set;
    for op in Op::ALL {
        let of_op = traffic.probes().iter().filter(|r| r.op == op);
        replay_set.extend(of_op.take(REPLAY_PROBES).cloned());
    }
    let one_conn = if args.trace {
        loadgen::sequence(addr, replay_set.clone())?
    } else {
        Vec::new()
    };
    server.shutdown();

    // --- judge every reply ---
    let warmup_j = judge(&warmup);
    let one_conn_j = judge(&one_conn);
    let judged: Vec<[Vec<Judged>; 3]> = rounds
        .iter()
        .map(|r| [judge(&r.open), judge(&r.closed), judge(&r.probes)])
        .collect();
    let phase = |i: usize| -> Vec<&Judged> { judged.iter().flat_map(|r| &r[i]).collect() };
    let (open_j, closed_j, probes_j) = (phase(0), phase(1), phase(2));
    let all: Vec<&Judged> = warmup_j
        .iter()
        .chain(one_conn_j.iter())
        .chain(open_j.iter().copied())
        .chain(closed_j.iter().copied())
        .chain(probes_j.iter().copied())
        .collect();
    let acked: BTreeSet<u64> = all
        .iter()
        .filter(|j| j.v.ok)
        .filter_map(|j| match j.x.req.expect {
            Expect::Durable { content } => Some(content),
            _ => None,
        })
        .collect();
    let (recover_ms, recovery_problem) =
        check_recovery(&store, w, traffic.ingest.namespace(), &acked)?;
    let failed = all.iter().filter(|j| !j.v.ok).count();
    for j in all.iter().filter(|j| !j.v.ok).take(5) {
        eprintln!(
            "perfbench: wrong reply: {}",
            j.v.problem.as_deref().unwrap_or("?")
        );
    }
    if let Some(p) = &recovery_problem {
        eprintln!("perfbench: recovery mismatch: {p}");
    }
    let correct = failed == 0 && recovery_problem.is_none();

    // --- end-to-end metrics: each the median of its per-round values ---
    let workload_j: Vec<&Judged> = closed_j.iter().chain(&open_j).copied().collect();
    let degraded = workload_j.iter().filter(|j| j.v.degraded).count();
    let graded: Vec<bool> = all.iter().filter_map(|j| j.v.accurate).collect();
    let open_us: Vec<f64> = rounds
        .iter()
        .flat_map(|r| &r.open)
        .map(|x| x.latency_us)
        .collect();
    let lags: Vec<f64> = rounds
        .iter()
        .flat_map(|r| &r.open)
        .map(|x| x.lag_us)
        .collect();
    let lag_p99_ms = percentile(&lags, 0.99) / 1000.0;
    let per_round = |f: &dyn Fn(&[Judged], &[Judged]) -> f64| {
        median(&judged.iter().map(|r| f(&r[0], &r[2])).collect::<Vec<_>>())
    };
    // per-operation latencies: from the open loop where the mix has the
    // operation, from the probes otherwise
    let op_p50_ms = |op: Op| {
        per_round(&|open: &[Judged], probes: &[Judged]| {
            let source = if w.ops().contains(&op) { open } else { probes };
            median(&op_latencies_ms(source, op))
        })
    };
    let open_ms: Vec<f64> = open_us.iter().map(|us| us / 1000.0).collect();
    let ingest_ms = if w.ops().contains(&Op::Ingest) {
        op_latencies_ms(open_j.iter().copied(), Op::Ingest)
    } else {
        op_latencies_ms(probes_j.iter().copied(), Op::Ingest)
    };
    let tails = serde_json::json!({
        "latency_p50_ms": percentile(&open_ms, 0.5),
        "latency_p90_ms": percentile(&open_ms, 0.9),
        "latency_p99_ms": percentile(&open_ms, 0.99),
        "ingest_p50_ms": percentile(&ingest_ms, 0.5),
        "ingest_p99_ms": percentile(&ingest_ms, 0.99),
    });
    let capacity: Vec<f64> = rounds
        .iter()
        .map(|r| r.closed.len() as f64 / r.closed_wall.as_secs_f64())
        .collect();
    let mut metrics: Vec<(String, f64, &str)> = vec![
        ("setup_s".into(), median(&setup_s), "s"),
        ("capacity_rps".into(), median(&capacity), "1/s"),
        (
            "latency_p50_ms".into(),
            per_round(&|open: &[Judged], _: &[Judged]| {
                median(
                    &open
                        .iter()
                        .map(|j| j.x.latency_us / 1000.0)
                        .collect::<Vec<_>>(),
                )
            }),
            "ms",
        ),
    ];
    for op in Op::ALL {
        metrics.push((format!("{}_p50_ms", op.label()), op_p50_ms(op), "ms"));
    }
    metrics.extend([
        (
            "ok_frac".into(),
            1.0 - ratio(failed as f64, all.len() as f64),
            "frac",
        ),
        (
            "undegraded_frac".into(),
            1.0 - ratio(degraded as f64, workload_j.len() as f64),
            "frac",
        ),
        (
            "answer_accuracy".into(),
            ratio(
                graded.iter().filter(|&&a| a).count() as f64,
                graded.len() as f64,
            ),
            "frac",
        ),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ]);

    let mut report = metrics.clone();
    if args.trace {
        let trace_path = Path::new(".perfbench").join(format!("trace-{}-{seed}.jsonl", w.name()));
        let tcp_us: Vec<f64> = one_conn.iter().map(|x| x.latency_us).collect();
        let layers = replay::replay(
            &wb,
            &replay_set,
            &replay::Served {
                tcp_us: &tcp_us,
                open_us: &open_us,
                lag_p99_ms,
                stats: &stats,
                build_s,
                recover_ms,
            },
            dir,
            &trace_path,
        )?;
        eprintln!("perfbench: spans written to {}", trace_path.display());
        report.extend(layers.iter().cloned());
        metrics = layers;
    }

    // --- human-readable report and the run record ---
    println!(
        "perfbench {} seed={seed} seconds={secs} trace={}",
        w.name(),
        u8::from(args.trace)
    );
    for (name, value, unit) in &report {
        println!("  {name:<40} {value:>14.4} {unit}");
    }
    let mut phases = Map::new();
    phases.insert(
        "warmup".into(),
        phase_counts(&warmup_j.iter().collect::<Vec<_>>()),
    );
    phases.insert("open".into(), phase_counts(&open_j));
    phases.insert("closed".into(), phase_counts(&closed_j));
    phases.insert("probes".into(), phase_counts(&probes_j));
    phases.insert(
        "one_conn".into(),
        phase_counts(&one_conn_j.iter().collect::<Vec<_>>()),
    );
    let docs = stats
        .get("retrieval")
        .and_then(|r| r.get("docs_indexed"))
        .cloned()
        .unwrap_or(Value::Null);
    let record = serde_json::json!({
        "workload": w.name(),
        "seed": seed,
        "phases": Value::Object(phases),
        "offered_rps": rate,
        "achieved_open_rps": open_us.len() as f64
            / rounds.iter().map(|r| r.open_wall.as_secs_f64()).sum::<f64>(),
        "capacity_rps_per_round": capacity,
        "generator_lag_p99_ms": lag_p99_ms,
        "open_loop_percentiles": tails,
        "connections": conns,
        "setup_s": setup_s,
        "triples": wb.graph().len(),
        "docs_indexed": docs,
        "environment": environment(&stats),
    });
    println!(
        "{}",
        serde_json::to_string(&record).map_err(|e| io_err(e.to_string()))?
    );

    let mut out = Map::new();
    for (name, value, unit) in metrics {
        out.insert(name, serde_json::json!({ "value": value, "unit": unit }));
    }
    let result = serde_json::json!({
        "correct": correct,
        "attempted": all.len(),
        "failed": failed + usize::from(recovery_problem.is_some()),
        "metrics": Value::Object(out),
    });
    let line = serde_json::to_string(&result).map_err(|e| io_err(e.to_string()))?;
    Ok((line, correct))
}
