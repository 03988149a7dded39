//! The traced in-process replay behind the per-layer metrics.
//!
//! Each request of the replay set runs one at a time. A span covers
//! [`serve::parse_request`], [`Engine::handle`], and the reply's
//! encoding; then the layers the request reaches are called again
//! through their own public functions, each under its own span. Layer
//! spans are siblings under the request's root span, not nested: they
//! time the same work a second time from outside, so the program itself
//! carries no instrumentation for the benchmark. Counts come from the
//! stats structs those calls return and from the server's `stats` reply.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use durable::{DiskStorage, DurableGraph, DurableOptions, Op as WalOp, Storage};
use kgquery::exec::ExecOptions;
use kgquery::{CacheOutcome, ExecStats, PlanCache};
use kgrag::{BatchWindow, RagMode};
use llmkg::Workbench;
use resilience::CancelToken;
use serde_json::Value;
use serve::{parse_request, Engine, Grade, Tenant};
use slm::{ChatSession, GenParams, Message};

use crate::stats::{median, ratio};
use crate::workload::{Op, Req};

/// One timed call.
struct Span {
    trace: usize,
    name: String,
    start_us: f64,
    dur_us: f64,
}

/// Spans of the whole replay, kept in memory until the end.
struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// Run `f` under a span named `name` of request `trace`; returns its
    /// result and duration in microseconds.
    fn time<T>(&mut self, trace: usize, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let dur_us = start.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            trace,
            name: name.to_string(),
            start_us: start.duration_since(self.t0).as_secs_f64() * 1e6,
            dur_us,
        });
        (out, dur_us)
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    }

    /// Write the spans as JSON lines; layer spans name the request's
    /// root span as their parent.
    fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.name == ROOT {
                "null"
            } else {
                "\"replay.request\""
            };
            writeln!(
                out,
                "{{\"trace\":{},\"span\":\"{}\",\"parent\":{parent},\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.trace, s.name, s.start_us, s.dur_us
            )?;
        }
        out.flush()
    }
}

const ROOT: &str = "replay.request";

/// Measurements from the served run that the per-layer metrics use.
pub struct Served<'a> {
    /// One-connection TCP latency of each replayed request, µs.
    pub tcp_us: &'a [f64],
    /// Open-loop latencies, µs.
    pub open_us: &'a [f64],
    /// p99 of open-loop send time minus due time, ms.
    pub lag_p99_ms: f64,
    /// The server's `stats` reply after the open loop.
    pub stats: &'a Value,
    /// `Workbench::build` of the client-side workbench, s.
    pub build_s: f64,
    /// `DurableGraph::open` on the server's directory after shutdown, ms.
    pub recover_ms: f64,
}

/// Per-layer metrics: `(name, value, unit)`.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Replay `reqs` in process over `wb`, using `dir` for scratch stores,
/// and write the spans to `trace_path`.
pub fn replay(
    wb: &Workbench,
    reqs: &[Req],
    served: &Served,
    dir: &Path,
    trace_path: &Path,
) -> io::Result<Metrics> {
    let store = |name: &str| -> io::Result<DurableGraph> {
        let path = dir.join(name);
        let storage: Arc<dyn Storage> =
            Arc::new(DiskStorage::new(path.to_string_lossy().to_string())?);
        DurableGraph::open(storage, DurableOptions::default())
    };
    let engine = Engine::new(wb)
        .with_coalescing(BatchWindow::default())
        .with_durable(store("engine-wal")?);
    let mut wal = store("append-wal")?;
    let index_start = Instant::now();
    let plain = wb.rag();
    let index_build_s = index_start.elapsed().as_secs_f64();
    let coalesced = wb.rag().with_coalescing(BatchWindow::default());
    // the chunking `Workbench::rag` applies, for the generation context
    let chunks = kgrag::chunk_sentences(&wb.corpus.join(". "), 3, 1);
    let t2s = kgqa::TextToSparql::new(wb.graph(), &wb.slm);
    let caches: [PlanCache; 3] = std::array::from_fn(|_| PlanCache::default());
    let cancel = CancelToken::new();

    let mut rec = Recorder {
        t0: Instant::now(),
        spans: Vec::new(),
    };
    let mut derived: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut routes: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut exec = ExecStats::default();
    let (mut queries, mut rows) = (0usize, 0usize);
    let (mut searches, mut scanned, mut pushes) = (0usize, 0usize, 0usize);
    let mut user_bytes = 0usize;

    for (i, t) in reqs.iter().enumerate() {
        let root_start = Instant::now();
        let (req, _) = rec.time(i, "serve.parse", || parse_request(&t.line));
        let req = req.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let (reply, handle_us) = rec.time(i, &format!("serve.handle.{}", t.op.label()), || {
            engine.handle(&req, Grade::Normal, &cancel)
        });
        let (encoded, _) = rec.time(i, "serve.encode", || serde_json::to_string(&reply));
        encoded.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let tenant = Tenant::from_id(&req.tenant);
        let q = req.input.as_str();
        let parts_us = match t.op {
            Op::Chat => {
                let (reply, turn_us) = rec.time(i, "qa.turn", || {
                    wb.chatbot().with_limits(tenant.limits()).handle(q)
                });
                *routes.entry(reply.decision.label()).or_default() += 1.0;
                rec.time(i, "qa.t2s", || {
                    t2s.generate(kgqa::Text2SparqlMethod::SgptSim, q)
                });
                let mut session = ChatSession::with_system(
                    "You are a knowledge-graph assistant. Answer from the KG when possible.",
                );
                session.push(Message::user(q));
                rec.time(i, "llm.chat", || {
                    wb.slm.chat(&session, &GenParams::default())
                });
                turn_us
            }
            Op::Rag => {
                let mode = match req.mode {
                    RagMode::Advanced => "advanced",
                    _ => "naive",
                };
                let (_, plain_us) = rec.time(i, &format!("rag.answer.{mode}"), || {
                    plain.answer(req.mode, q)
                });
                let (_, coalesced_us) =
                    rec.time(i, "rag.answer.coalesced", || coalesced.answer(req.mode, q));
                derived
                    .entry("rag.coalesce_wait".into())
                    .or_default()
                    .push(coalesced_us - plain_us);
                let (v, _) = rec.time(i, "rag.embed", || wb.slm.embed(q));
                let ((hits, s), _) = rec.time(i, "rag.search", || {
                    plain.vector_index().search_exact_with_stats(&v, plain.k)
                });
                searches += 1;
                scanned += s.vectors_scanned;
                pushes += s.heap_pushes;
                let context: Vec<String> = hits
                    .iter()
                    .filter_map(|&(id, _)| chunks.get(id).map(|c| c.text.clone()))
                    .collect();
                rec.time(i, "llm.answer", || wb.slm.answer(q, &context));
                coalesced_us
            }
            Op::Sparql => {
                let cache = &caches[match tenant {
                    Tenant::Free => 0,
                    Tenant::Standard => 1,
                    Tenant::Pro => 2,
                }];
                let start = Instant::now();
                let (prepared, outcome) = cache
                    .prepare(wb.graph(), q)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                let prepare_us = start.elapsed().as_secs_f64() * 1e6;
                let name = if outcome == CacheOutcome::Hit {
                    "query.prepare.hit"
                } else {
                    "query.prepare.miss"
                };
                rec.spans.push(Span {
                    trace: i,
                    name: name.into(),
                    start_us: start.duration_since(rec.t0).as_secs_f64() * 1e6,
                    dur_us: prepare_us,
                });
                let opts = ExecOptions::with_limits(tenant.limits());
                let (result, exec_us) =
                    rec.time(i, "query.exec", || prepared.run(wb.graph(), &opts));
                if let Ok(rs) = result {
                    exec.merge(&rs.stats);
                    rows += rs.len();
                }
                queries += 1;
                prepare_us + exec_us
            }
            Op::Complete => {
                rec.time(i, "llm.complete", || {
                    wb.slm.complete(q, &GenParams::default())
                })
                .1
            }
            Op::Ingest => {
                user_bytes += q.len();
                let parsed = kg::turtle::parse_ntriples(q)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                let pool = parsed.pool();
                let ops: Vec<WalOp> = parsed
                    .iter()
                    .map(|t| {
                        WalOp::Insert(
                            pool.resolve(t.s).clone(),
                            pool.resolve(t.p).clone(),
                            pool.resolve(t.o).clone(),
                        )
                    })
                    .collect();
                let (appended, append_us) = rec.time(i, "durable.append", || {
                    wal.append(&ops)
                        .and_then(|synced| if synced { Ok(()) } else { wal.sync() })
                });
                appended?;
                append_us
            }
        };
        derived
            .entry(format!("serve.unattributed.{}", t.op.label()))
            .or_default()
            .push(handle_us - parts_us);
        if let Some(tcp) = served.tcp_us.get(i) {
            derived
                .entry("serve.wire".into())
                .or_default()
                .push(tcp - handle_us);
        }
        rec.spans.push(Span {
            trace: i,
            name: ROOT.into(),
            start_us: root_start.duration_since(rec.t0).as_secs_f64() * 1e6,
            dur_us: root_start.elapsed().as_secs_f64() * 1e6,
        });
    }
    let (checkpointed, checkpoint_us) =
        rec.time(reqs.len(), "durable.checkpoint", || wal.checkpoint());
    checkpointed?;
    rec.write(trace_path)?;

    let wal_metrics = wal.metrics();
    let counter = |name: &str| {
        served
            .stats
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0) as f64
    };
    let span_median = |name: &str| median(&rec.durations(name));
    let derived_median = |name: &str| derived.get(name).map_or(0.0, |v| median(v));
    let turns: f64 = routes.values().sum();
    let tcp_median = median(served.tcp_us);

    let mut m: Metrics = vec![
        ("serve.parse_us".into(), span_median("serve.parse"), "us"),
        ("serve.encode_us".into(), span_median("serve.encode"), "us"),
    ];
    for op in Op::ALL {
        let l = op.label();
        m.push((
            format!("serve.handle_us.{l}"),
            span_median(&format!("serve.handle.{l}")),
            "us",
        ));
    }
    m.push(("serve.wire_us".into(), derived_median("serve.wire"), "us"));
    m.push((
        "serve.queue_wait_us".into(),
        median(served.open_us) - tcp_median,
        "us",
    ));
    for op in Op::ALL {
        let l = op.label();
        m.push((
            format!("serve.unattributed_us.{l}"),
            derived_median(&format!("serve.unattributed.{l}")),
            "us",
        ));
    }
    m.push(("bench.generator_lag_ms".into(), served.lag_p99_ms, "ms"));
    let (hits, misses, stale) = (
        counter("plan_cache.hits"),
        counter("plan_cache.misses"),
        counter("plan_cache.invalidations"),
    );
    m.extend([
        (
            "query.prepare_us.hit".into(),
            span_median("query.prepare.hit"),
            "us",
        ),
        (
            "query.prepare_us.miss".into(),
            span_median("query.prepare.miss"),
            "us",
        ),
        (
            "query.plan_cache_hit_frac".into(),
            ratio(hits, hits + misses + stale),
            "frac",
        ),
        ("query.exec_us".into(), span_median("query.exec"), "us"),
        (
            "query.index_probes_per_row".into(),
            ratio(exec.index_probes as f64, rows as f64),
            "count",
        ),
        (
            "query.intermediate_bindings_per_row".into(),
            ratio(exec.intermediate_bindings as f64, rows as f64),
            "count",
        ),
        (
            "query.merge_joins".into(),
            ratio(exec.merge_joins as f64, queries as f64),
            "count",
        ),
        (
            "kg.patterns_scanned_per_query".into(),
            ratio(exec.patterns_scanned as f64, queries as f64),
            "count",
        ),
        (
            "rag.answer_us.naive".into(),
            span_median("rag.answer.naive"),
            "us",
        ),
        (
            "rag.answer_us.advanced".into(),
            span_median("rag.answer.advanced"),
            "us",
        ),
        ("rag.embed_us".into(), span_median("rag.embed"), "us"),
        ("rag.search_us".into(), span_median("rag.search"), "us"),
        (
            "rag.vectors_scanned".into(),
            ratio(scanned as f64, searches as f64),
            "count",
        ),
        (
            "rag.heap_pushes".into(),
            ratio(pushes as f64, searches as f64),
            "count",
        ),
        (
            "rag.coalesce_wait_us".into(),
            derived_median("rag.coalesce_wait"),
            "us",
        ),
        (
            "rag.coalesced_batch_mean".into(),
            ratio(
                counter("retrieval.batch.queries"),
                counter("retrieval.batch.windows"),
            ),
            "count",
        ),
        ("llm.chat_us".into(), span_median("llm.chat"), "us"),
        ("llm.complete_us".into(), span_median("llm.complete"), "us"),
        ("llm.answer_us".into(), span_median("llm.answer"), "us"),
        ("qa.turn_us".into(), span_median("qa.turn"), "us"),
        ("qa.t2s_us".into(), span_median("qa.t2s"), "us"),
    ]);
    for route in ["kg-query", "entity-lookup", "llm-chat", "apology"] {
        m.push((
            format!("qa.route.{route}"),
            ratio(routes.get(route).copied().unwrap_or(0.0), turns),
            "frac",
        ));
    }
    m.extend([
        (
            "durable.append_us".into(),
            span_median("durable.append"),
            "us",
        ),
        (
            "durable.fsyncs_per_batch".into(),
            ratio(
                wal_metrics.counter("wal.fsyncs") as f64,
                wal_metrics.counter("wal.appends") as f64,
            ),
            "count",
        ),
        (
            "durable.wal_bytes_per_user_byte".into(),
            ratio(wal_metrics.counter("wal.bytes") as f64, user_bytes as f64),
            "frac",
        ),
        ("durable.checkpoint_ms".into(), checkpoint_us / 1000.0, "ms"),
        ("durable.recover_ms".into(), served.recover_ms, "ms"),
        ("core.build_s".into(), served.build_s, "s"),
        ("core.index_build_s".into(), index_build_s, "s"),
    ]);
    Ok(m)
}
