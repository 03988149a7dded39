//! The scenario engine: one parsed [`Request`] in, one JSON reply out.
//!
//! The engine owns the shared read side — a borrowed
//! [`llmkg::Workbench`] plus one RAG pipeline built over its corpus —
//! and is shared (`&Engine`) by every worker thread. Each call runs the
//! request's scenario under the tenant's budget preset (the degraded
//! preset when admission said so), wires the caller's
//! [`CancelToken`] into the executor, and accounts the request in the
//! engine's [`obs::Registry`]:
//!
//! * `serve.requests`, `serve.requests.<scenario>`, `serve.tenant.<class>`
//! * `serve.degraded` — requests run under degraded budgets
//! * `serve.latency_us.<scenario>` — per-scenario latency histograms
//!
//! Replies are never errors for overload-shaped trouble: budget
//! exhaustion and cancellation produce `ok: true` apology/degraded
//! replies; only malformed client input (bad JSON, bad SPARQL) produces
//! `ok: false`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use durable::{DurableGraph, Op};
use kgquery::exec::ExecOptions;
use kgquery::{CacheOutcome, PlanCache, QueryError, ResultSet};
use kgrag::{RagMode, RagPipeline};
use llmkg::Workbench;
use obs::{MetricsSnapshot, NullRecorder, Registry, Tracer};
use resilience::CancelToken;
use serde_json::{Map, Value};
use slm::GenParams;

use crate::admission::Grade;
use crate::protocol::{Request, Scenario};
use crate::tenant::Tenant;

/// Token cap for degraded LM completions (normal runs use the
/// [`GenParams::default`] cap).
const DEGRADED_MAX_TOKENS: usize = 8;

/// How many result rows a SPARQL reply renders inline.
const RENDERED_ROWS: usize = 5;

/// The apology text served when admission sheds a request.
pub const SHED_APOLOGY: &str =
    "I can't take this request right now — the service is over capacity. Please retry shortly.";

/// The apology text served when the client went away mid-request.
const CANCELLED_APOLOGY: &str = "Request cancelled by the caller before it could run.";

/// The reply text for ingest requests while the durable store is in
/// read-only degrade (a persistent I/O error was observed).
pub const READ_ONLY_APOLOGY: &str =
    "The durable store hit a persistent I/O error and is read-only; \
     queries still work, writes are refused until the operator intervenes.";

/// The server's durable write side: the WAL-backed graph behind a lock
/// (ingest is rare next to reads; one writer at a time keeps ack
/// ordering trivial) plus the sticky read-only latch that trips on the
/// first persistent I/O error.
struct DurableState {
    store: Mutex<DurableGraph>,
    read_only: AtomicBool,
}

/// The shared scenario engine. One per server; `&Engine` is handed to
/// every worker thread (see the crate-level `Send + Sync` assertions).
pub struct Engine<'a> {
    wb: &'a Workbench,
    rag: RagPipeline<'a>,
    tracer: Tracer,
    /// One prepared-query plan cache per tenant class (free / standard /
    /// pro), so a noisy free tenant's query churn can never evict a paid
    /// tenant's hot plans. Cache traffic lands on the `plan_cache.*`
    /// counters and therefore in every stats reply.
    plan_caches: [Arc<PlanCache>; 3],
    /// The durable write side, when the server was configured with one.
    durable: Option<DurableState>,
}

impl<'a> Engine<'a> {
    /// Build the engine over a workbench. The RAG pipeline (chunking +
    /// vector index over the verbalized corpus) is built once here, not
    /// per request.
    pub fn new(wb: &'a Workbench) -> Engine<'a> {
        Engine {
            wb,
            rag: wb.rag(),
            // Spans are discarded (a long-lived server cannot buffer
            // every span in memory); the tracer's registry still
            // accumulates every counter and histogram.
            tracer: Tracer::new(Arc::new(NullRecorder)),
            plan_caches: std::array::from_fn(|_| Arc::new(PlanCache::default())),
            durable: None,
        }
    }

    /// Returns the engine unchanged: each `rag` request's vector search
    /// runs on its own worker. Kept only because the `perfbench` replay
    /// still calls it (ROADMAP item 2).
    pub fn with_coalescing(self, _window: kgrag::BatchWindow) -> Engine<'a> {
        self
    }

    /// Attach an opened durable store; `ingest` requests append to it.
    pub fn with_durable(mut self, store: DurableGraph) -> Engine<'a> {
        self.durable = Some(DurableState {
            store: Mutex::new(store),
            read_only: AtomicBool::new(false),
        });
        self
    }

    /// Whether the durable store has latched into read-only degrade.
    pub fn durable_read_only(&self) -> bool {
        self.durable
            .as_ref()
            .is_some_and(|d| d.read_only.load(Ordering::SeqCst))
    }

    /// Checkpoint the durable store (shutdown path): fsync the WAL,
    /// snapshot the graph, rotate to a fresh segment. Best-effort —
    /// `Ok(false)` when no store is attached; an `Err` leaves the WAL as
    /// the source of truth for the next recovery.
    pub fn checkpoint_durable(&self) -> std::io::Result<bool> {
        let Some(ds) = &self.durable else {
            return Ok(false);
        };
        let mut store = ds.store.lock().expect("durable store lock");
        store.checkpoint()?;
        Ok(true)
    }

    /// The plan cache serving a tenant class.
    pub fn plan_cache(&self, tenant: Tenant) -> &Arc<PlanCache> {
        let idx = match tenant {
            Tenant::Free => 0,
            Tenant::Standard => 1,
            Tenant::Pro => 2,
        };
        &self.plan_caches[idx]
    }

    /// The engine's metrics registry (counters + latency histograms).
    pub fn registry(&self) -> &Registry {
        self.tracer.registry()
    }

    /// A consistent copy of the engine's metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry().snapshot()
    }

    /// Run one admitted request to a reply. Never panics on any input
    /// and never returns a non-object value.
    pub fn handle(&self, req: &Request, grade: Grade, cancel: &CancelToken) -> Value {
        let start = Instant::now();
        let tenant = Tenant::from_id(&req.tenant);
        let limits = match grade {
            Grade::Normal => tenant.limits(),
            Grade::Degraded => tenant.degraded_limits(),
        };
        let reg = self.registry();
        reg.incr("serve.requests", 1);
        reg.incr(&format!("serve.requests.{}", req.scenario.label()), 1);
        reg.incr(&format!("serve.tenant.{}", tenant.label()), 1);
        if grade == Grade::Degraded {
            reg.incr("serve.degraded", 1);
        }

        let span = self.tracer.span("serve.request");
        span.set("scenario", req.scenario.label());
        span.set("tenant", tenant.label());
        span.set("grade", grade.label());

        let mut reply = base_reply(req, tenant, grade.label());
        reply.insert("shed".into(), Value::Bool(false));
        let mut degraded = grade == Grade::Degraded;

        if cancel.is_cancelled() && req.scenario != Scenario::Stats {
            reg.incr("serve.cancelled", 1);
            reply.insert("ok".into(), Value::Bool(true));
            reply.insert("answer".into(), Value::String(CANCELLED_APOLOGY.into()));
            reply.insert("route".into(), Value::String("cancelled".into()));
            reply.insert("degraded".into(), Value::Bool(true));
            return self.finish(reply, req.scenario, start);
        }

        match req.scenario {
            Scenario::Chat => {
                let mut bot = self
                    .wb
                    .chatbot()
                    .with_limits(limits)
                    .with_cancel(cancel.clone());
                let r = bot.handle_observed(&req.input, &span);
                degraded |= r.degradation.degraded();
                reply.insert("ok".into(), Value::Bool(true));
                reply.insert("answer".into(), Value::String(r.text));
                reply.insert("route".into(), Value::String(r.decision.label().into()));
                reply.insert("rows".into(), Value::from(r.rows as u64));
            }
            Scenario::Rag => {
                // The pipeline is shared across workers, so per-request
                // cancellation is checked up front (above) rather than
                // threaded into it; degradation swaps the requested mode
                // for closed-book generation — no retrieval work at all.
                let mode = if grade == Grade::Degraded {
                    RagMode::ClosedBook
                } else {
                    req.mode
                };
                let r = self.rag.answer_observed(mode, &req.input, &span);
                degraded |= r.degradation.degraded();
                reply.insert("ok".into(), Value::Bool(true));
                reply.insert("answer".into(), Value::String(r.text));
                reply.insert("route".into(), Value::String(r.module.into()));
                reply.insert("rows".into(), Value::from(r.retrieved.len() as u64));
            }
            Scenario::Sparql => {
                let mut opts = ExecOptions::with_limits(limits);
                opts.cancel = Some(cancel.clone());
                // Prepare through the tenant class's plan cache: repeated
                // query shapes (templated clients, dashboards, retries)
                // skip parse + planning. A parse/compile failure surfaces
                // below exactly as the old parse-execute path did.
                let result = self
                    .plan_cache(tenant)
                    .prepare(self.wb.graph(), &req.input)
                    .and_then(|(prepared, outcome)| {
                        reg.incr(
                            match outcome {
                                CacheOutcome::Hit => "plan_cache.hits",
                                CacheOutcome::Miss => "plan_cache.misses",
                                CacheOutcome::Invalidated => "plan_cache.invalidations",
                            },
                            1,
                        );
                        prepared.run_with(self.wb.graph(), &[], &opts, &span)
                    });
                match result {
                    Ok(rs) => {
                        degraded |= rs.truncated;
                        reply.insert("ok".into(), Value::Bool(true));
                        reply.insert("answer".into(), Value::String(self.render_rows(&rs)));
                        reply.insert("route".into(), Value::String("sparql".into()));
                        reply.insert("rows".into(), Value::from(rs.len() as u64));
                        reply.insert("truncated".into(), Value::Bool(rs.truncated));
                    }
                    Err(QueryError::LimitExceeded { .. }) => {
                        // Budget exhaustion is overload, not client error:
                        // apologize inside the protocol.
                        degraded = true;
                        reg.incr("serve.budget_exhausted", 1);
                        reply.insert("ok".into(), Value::Bool(true));
                        reply.insert(
                            "answer".into(),
                            Value::String(
                                "The query exceeded its resource budget and was stopped."
                                    .to_string(),
                            ),
                        );
                        reply.insert("route".into(), Value::String("budget-exceeded".into()));
                        reply.insert("rows".into(), Value::from(0u64));
                    }
                    Err(e) => {
                        reg.incr("serve.client_errors", 1);
                        reply.insert("ok".into(), Value::Bool(false));
                        reply.insert("error".into(), Value::String(format!("query error: {e}")));
                    }
                }
            }
            Scenario::Complete => {
                let params = GenParams {
                    max_tokens: if grade == Grade::Degraded {
                        DEGRADED_MAX_TOKENS
                    } else {
                        GenParams::default().max_tokens
                    },
                    ..GenParams::default()
                };
                let text = self.wb.slm.complete(&req.input, &params);
                reply.insert("ok".into(), Value::Bool(true));
                reply.insert("answer".into(), Value::String(text));
                reply.insert("route".into(), Value::String("completion".into()));
            }
            Scenario::Ingest => {
                degraded |= self.handle_ingest(req, &mut reply, reg);
            }
            Scenario::Stats => {
                // Normally intercepted by the server (which knows queue
                // depth and inflight); served standalone the live-state
                // gauges read zero.
                return self.stats_reply(req, 0, 0);
            }
        }

        reply.insert("degraded".into(), Value::Bool(degraded));
        self.finish(reply, req.scenario, start)
    }

    /// Run one `ingest` request against the durable store, filling in
    /// the reply fields; returns whether the outcome counts as degraded.
    ///
    /// The failure ladder never drops the connection:
    /// * no durable store configured → `ok: false` client error;
    /// * unparseable N-Triples → `ok: false` client error;
    /// * store already read-only → `ok: true`, `route: "read-only"`,
    ///   `durable: false` (the write was NOT accepted);
    /// * I/O error on append/fsync → same read-only reply, and the
    ///   read-only latch trips so later writes are refused up front.
    ///   The batch is unacknowledged: recovery is free to drop it.
    fn handle_ingest(&self, req: &Request, reply: &mut Map<String, Value>, reg: &Registry) -> bool {
        let Some(ds) = &self.durable else {
            reg.incr("serve.client_errors", 1);
            reply.insert("ok".into(), Value::Bool(false));
            reply.insert(
                "error".into(),
                Value::String("this server has no durable store configured".into()),
            );
            return false;
        };
        if ds.read_only.load(Ordering::SeqCst) {
            reg.incr("serve.read_only_rejects", 1);
            reply.insert("ok".into(), Value::Bool(true));
            reply.insert("durable".into(), Value::Bool(false));
            reply.insert("route".into(), Value::String("read-only".into()));
            reply.insert("answer".into(), Value::String(READ_ONLY_APOLOGY.into()));
            reply.insert("rows".into(), Value::from(0u64));
            return true;
        }
        let parsed = match kg::turtle::parse_ntriples(&req.input) {
            Ok(g) => g,
            Err(e) => {
                reg.incr("serve.client_errors", 1);
                reply.insert("ok".into(), Value::Bool(false));
                reply.insert("error".into(), Value::String(format!("bad N-Triples: {e}")));
                return false;
            }
        };
        let ops: Vec<Op> = parsed
            .iter()
            .map(|t| {
                let pool = parsed.pool();
                Op::Insert(
                    pool.resolve(t.s).clone(),
                    pool.resolve(t.p).clone(),
                    pool.resolve(t.o).clone(),
                )
            })
            .collect();
        let mut store = ds.store.lock().expect("durable store lock");
        let result = match store.append(&ops) {
            Ok(true) => Ok(()),
            Ok(false) => store.sync(), // group-commit window still open
            Err(e) => Err(e),
        };
        match result {
            Ok(()) => {
                reply.insert("ok".into(), Value::Bool(true));
                reply.insert("durable".into(), Value::Bool(true));
                reply.insert("route".into(), Value::String("ingest".into()));
                reply.insert("rows".into(), Value::from(ops.len() as u64));
                false
            }
            Err(e) => {
                drop(store);
                ds.read_only.store(true, Ordering::SeqCst);
                reg.incr("serve.durable_io_errors", 1);
                reply.insert("ok".into(), Value::Bool(true));
                reply.insert("durable".into(), Value::Bool(false));
                reply.insert("route".into(), Value::String("read-only".into()));
                reply.insert(
                    "answer".into(),
                    Value::String(format!("{READ_ONLY_APOLOGY} ({e})")),
                );
                reply.insert("rows".into(), Value::from(0u64));
                true
            }
        }
    }

    /// The introspection reply: every counter plus per-histogram
    /// `count/mean/p50/p95/p99/max`, with the server's live gauges.
    pub fn stats_reply(&self, req: &Request, inflight: u64, queue_depth: u64) -> Value {
        let start = Instant::now();
        let snap = self.snapshot();
        let mut counters = Map::new();
        for (name, v) in &snap.counters {
            counters.insert(name.clone(), Value::from(*v));
        }
        counters.insert("serve.inflight".into(), Value::from(inflight));
        counters.insert("serve.queue_depth".into(), Value::from(queue_depth));
        // The durable store accumulates its wal.* metrics in its own
        // registry (it outlives any one tracer); splice them in so one
        // stats call sees the whole server.
        let durable_snap = self.durable.as_ref().map(|ds| {
            counters.insert(
                "serve.durable_read_only".into(),
                Value::from(ds.read_only.load(Ordering::SeqCst) as u64),
            );
            ds.store.lock().expect("durable store lock").metrics()
        });
        if let Some(dsnap) = &durable_snap {
            for (name, v) in &dsnap.counters {
                counters.insert(name.clone(), Value::from(*v));
            }
        }
        // Gauges are ratios (f64), kept apart from the monotone counters.
        let mut gauges = Map::new();
        let mut agg = kgquery::PlanCacheStats::default();
        for tenant in [Tenant::Free, Tenant::Standard, Tenant::Pro] {
            let s = self.plan_cache(tenant).stats();
            agg.hits += s.hits;
            agg.misses += s.misses;
            agg.invalidations += s.invalidations;
            gauges.insert(
                format!("plan_cache.warmth.{}", tenant.label()),
                Value::from(s.warmth()),
            );
        }
        gauges.insert("plan_cache.warmth".into(), Value::from(agg.warmth()));
        let mut hists = Map::new();
        if let Some(dsnap) = &durable_snap {
            for (name, h) in &dsnap.histograms {
                hists.insert(name.clone(), histogram_json(h));
            }
        }
        for (name, h) in &snap.histograms {
            hists.insert(name.clone(), histogram_json(h));
        }
        // The retrieval block: serving-relevant facts about the shared
        // vector index that counters alone can't carry — which SIMD path
        // the batch kernel dispatched to, and whether (and why) IVF
        // silently fell back to exact scans.
        let mut retrieval = Map::new();
        let vidx = self.rag.vector_index();
        retrieval.insert("docs_indexed".into(), Value::from(vidx.len() as u64));
        retrieval.insert(
            "dispatch".into(),
            Value::String(slm::dispatch_path().label().into()),
        );
        retrieval.insert("ivf_enabled".into(), Value::Bool(vidx.ivf_enabled()));
        if let Some(fb) = vidx.ivf_fallback() {
            retrieval.insert("ivf_fallback".into(), Value::String(fb.reason().into()));
            retrieval.insert("ivf_fallback_detail".into(), Value::String(fb.describe()));
        }
        let mut reply = base_reply(req, Tenant::from_id(&req.tenant), "normal");
        reply.insert("ok".into(), Value::Bool(true));
        reply.insert("shed".into(), Value::Bool(false));
        reply.insert("degraded".into(), Value::Bool(false));
        reply.insert("counters".into(), Value::Object(counters));
        reply.insert("gauges".into(), Value::Object(gauges));
        reply.insert("histograms".into(), Value::Object(hists));
        reply.insert("retrieval".into(), Value::Object(retrieval));
        self.finish(reply, Scenario::Stats, start)
    }

    /// The well-formed apology reply for a shed request, carrying the
    /// [`crate::admission::ShedReason`] label so clients can tell a
    /// per-tenant cap (`tenant_cap` — back off *your* traffic) from
    /// global overload (`queue_full`). The caller (the connection
    /// handler) accounts `serve.shed.*` — this is a static constructor
    /// so shedding does zero engine work.
    pub fn shed_reply(req: &Request, reason: &str) -> Value {
        let mut reply = base_reply(req, Tenant::from_id(&req.tenant), "shed");
        reply.insert("ok".into(), Value::Bool(true));
        reply.insert("shed".into(), Value::Bool(true));
        reply.insert("shed_reason".into(), Value::String(reason.into()));
        reply.insert("degraded".into(), Value::Bool(true));
        reply.insert("answer".into(), Value::String(SHED_APOLOGY.into()));
        reply.insert("route".into(), Value::String("shed".into()));
        Value::Object(reply)
    }

    /// The well-formed reply for a request that failed to parse.
    pub fn error_reply(message: &str) -> Value {
        let mut reply = Map::new();
        reply.insert("ok".into(), Value::Bool(false));
        reply.insert("shed".into(), Value::Bool(false));
        reply.insert("degraded".into(), Value::Bool(false));
        reply.insert("error".into(), Value::String(message.to_string()));
        Value::Object(reply)
    }

    fn finish(&self, mut reply: Map<String, Value>, scenario: Scenario, start: Instant) -> Value {
        let us = start.elapsed().as_micros() as u64;
        self.registry()
            .observe(&format!("serve.latency_us.{}", scenario.label()), us as f64);
        reply.insert("latency_us".into(), Value::from(us));
        Value::Object(reply)
    }

    /// Render the first [`RENDERED_ROWS`] rows of a result set as display
    /// text (entity display names, literal lexical forms).
    fn render_rows(&self, rs: &ResultSet) -> String {
        if let Some(b) = rs.ask {
            return b.to_string();
        }
        let g = self.wb.graph();
        let rendered: Vec<String> = rs
            .rows
            .iter()
            .take(RENDERED_ROWS)
            .map(|row| {
                row.iter()
                    .map(|cell| match cell {
                        Some(t) => g.display_term(t),
                        None => "∅".to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            })
            .collect();
        let mut out = rendered.join("; ");
        if rs.len() > RENDERED_ROWS {
            out.push_str(&format!("; … ({} rows total)", rs.len()));
        }
        out
    }
}

/// Render one histogram snapshot as the stats reply's summary object.
fn histogram_json(h: &obs::HistogramSnapshot) -> Value {
    let mut one = Map::new();
    one.insert("count".into(), Value::from(h.count));
    one.insert("mean".into(), Value::from(h.mean()));
    one.insert("p50".into(), Value::from(h.quantile(0.50)));
    one.insert("p95".into(), Value::from(h.quantile(0.95)));
    one.insert("p99".into(), Value::from(h.quantile(0.99)));
    one.insert("max".into(), Value::from(h.max));
    Value::Object(one)
}

/// The fields every reply carries, whatever the scenario or outcome.
fn base_reply(req: &Request, tenant: Tenant, grade: &str) -> Map<String, Value> {
    let mut reply = Map::new();
    if let Some(id) = req.id {
        reply.insert("id".into(), Value::from(id));
    }
    reply.insert(
        "scenario".into(),
        Value::String(req.scenario.label().into()),
    );
    reply.insert("tenant".into(), Value::String(tenant.label().into()));
    reply.insert("grade".into(), Value::String(grade.into()));
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmkg::WorkbenchConfig;

    fn wb() -> Workbench {
        Workbench::build(&WorkbenchConfig {
            entities_per_class: 8,
            ..Default::default()
        })
    }

    fn req(scenario: Scenario, input: &str) -> Request {
        Request {
            id: Some(1),
            tenant: "pro:test".into(),
            scenario,
            input: input.into(),
            mode: RagMode::Naive,
        }
    }

    #[test]
    fn all_four_scenarios_produce_ok_replies() {
        let wb = wb();
        let engine = Engine::new(&wb);
        let film = wb.graph().display_name(wb.graph().entities()[0]);
        let cancel = CancelToken::new();
        let cases = [
            req(Scenario::Chat, &format!("Who directed {film}?")),
            req(Scenario::Rag, &format!("Who directed {film}?")),
            req(
                Scenario::Sparql,
                "PREFIX v: <http://llmkg.dev/vocab/> SELECT ?f WHERE { ?f a v:Film }",
            ),
            req(Scenario::Complete, "the film"),
        ];
        for r in cases {
            let v = engine.handle(&r, Grade::Normal, &cancel);
            let obj = v.as_object().unwrap();
            assert_eq!(obj.get("ok").and_then(Value::as_bool), Some(true), "{r:?}");
            assert_eq!(obj.get("id").and_then(Value::as_u64), Some(1));
            assert_eq!(obj.get("grade").and_then(Value::as_str), Some("normal"));
            assert!(obj.get("latency_us").is_some());
        }
        let snap = engine.snapshot();
        assert_eq!(snap.counter("serve.requests"), 4);
        assert_eq!(snap.counter("serve.tenant.pro"), 4);
        assert_eq!(snap.histograms["serve.latency_us.chat"].count, 1);
    }

    #[test]
    fn degraded_grade_is_marked_and_counted() {
        let wb = wb();
        let engine = Engine::new(&wb);
        let cancel = CancelToken::new();
        let v = engine.handle(
            &req(Scenario::Complete, "the film"),
            Grade::Degraded,
            &cancel,
        );
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("grade").and_then(Value::as_str), Some("degraded"));
        assert_eq!(obj.get("degraded").and_then(Value::as_bool), Some(true));
        assert_eq!(engine.snapshot().counter("serve.degraded"), 1);
    }

    #[test]
    fn cancelled_requests_get_an_apology_not_work() {
        let wb = wb();
        let engine = Engine::new(&wb);
        let cancel = CancelToken::new();
        cancel.cancel();
        let v = engine.handle(
            &req(Scenario::Sparql, "SELECT ?x WHERE { ?x a ?c }"),
            Grade::Normal,
            &cancel,
        );
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(obj.get("route").and_then(Value::as_str), Some("cancelled"));
        assert_eq!(engine.snapshot().counter("serve.cancelled"), 1);
    }

    #[test]
    fn bad_sparql_is_a_client_error_but_well_formed() {
        let wb = wb();
        let engine = Engine::new(&wb);
        let cancel = CancelToken::new();
        let v = engine.handle(
            &req(Scenario::Sparql, "SELEC nonsense"),
            Grade::Normal,
            &cancel,
        );
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("ok").and_then(Value::as_bool), Some(false));
        assert!(obj.get("error").and_then(Value::as_str).is_some());
    }

    #[test]
    fn repeated_sparql_hits_the_tenant_class_plan_cache() {
        let wb = wb();
        let engine = Engine::new(&wb);
        let cancel = CancelToken::new();
        let q = "PREFIX v: <http://llmkg.dev/vocab/> SELECT ?f WHERE { ?f a v:Film }";
        let first = engine.handle(&req(Scenario::Sparql, q), Grade::Normal, &cancel);
        // same query, different whitespace: still one cache entry
        let q2 = "PREFIX v: <http://llmkg.dev/vocab/>  SELECT ?film\nWHERE { ?film a v:Film }";
        let second = engine.handle(&req(Scenario::Sparql, q2), Grade::Normal, &cancel);
        assert_eq!(
            first.as_object().unwrap().get("rows"),
            second.as_object().unwrap().get("rows")
        );
        let snap = engine.snapshot();
        assert_eq!(snap.counter("plan_cache.misses"), 1);
        assert_eq!(snap.counter("plan_cache.hits"), 1);
        // a free tenant running the same query goes to its own cache
        let mut free = req(Scenario::Sparql, q);
        free.tenant = "free:guest".into();
        engine.handle(&free, Grade::Normal, &cancel);
        assert_eq!(engine.snapshot().counter("plan_cache.misses"), 2);
        assert_eq!(engine.plan_cache(Tenant::Pro).stats().entries, 1);
        assert_eq!(engine.plan_cache(Tenant::Free).stats().entries, 1);
        // the stats reply surfaces the counters to clients
        let stats = engine.stats_reply(&req(Scenario::Stats, ""), 0, 0);
        let counters = stats
            .as_object()
            .unwrap()
            .get("counters")
            .and_then(Value::as_object)
            .unwrap();
        assert_eq!(
            counters.get("plan_cache.hits").and_then(Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn shed_and_error_replies_are_static_and_well_formed() {
        let r = req(Scenario::Chat, "hi");
        let v = Engine::shed_reply(&r, "queue_full");
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("shed").and_then(Value::as_bool), Some(true));
        assert_eq!(
            obj.get("shed_reason").and_then(Value::as_str),
            Some("queue_full")
        );
        assert_eq!(obj.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            obj.get("answer").and_then(Value::as_str),
            Some(SHED_APOLOGY)
        );
        let e = Engine::error_reply("nope");
        assert_eq!(
            e.as_object().unwrap().get("error").and_then(Value::as_str),
            Some("nope")
        );
    }

    #[test]
    fn ingest_without_a_durable_store_is_a_client_error() {
        let wb = wb();
        let engine = Engine::new(&wb);
        let cancel = CancelToken::new();
        let v = engine.handle(
            &req(Scenario::Ingest, "<http://a> <http://b> <http://c> ."),
            Grade::Normal,
            &cancel,
        );
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("ok").and_then(Value::as_bool), Some(false));
        assert!(obj
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("durable"));
    }

    #[test]
    fn ingest_appends_durably_and_surfaces_wal_metrics() {
        let wb = wb();
        let storage = Arc::new(durable::MemStorage::new());
        let store = DurableGraph::open(storage, durable::DurableOptions::default()).unwrap();
        let engine = Engine::new(&wb).with_durable(store);
        let cancel = CancelToken::new();
        let v = engine.handle(
            &req(
                Scenario::Ingest,
                "<http://e/x> <http://v/p> <http://e/y> .\n<http://e/y> <http://v/p> <http://e/z> .",
            ),
            Grade::Normal,
            &cancel,
        );
        let obj = v.as_object().unwrap();
        assert_eq!(
            obj.get("ok").and_then(Value::as_bool),
            Some(true),
            "{obj:?}"
        );
        assert_eq!(obj.get("durable").and_then(Value::as_bool), Some(true));
        assert_eq!(obj.get("rows").and_then(Value::as_u64), Some(2));
        // bad N-Triples is a client error, not an I/O event
        let bad = engine.handle(
            &req(Scenario::Ingest, "this is not ntriples"),
            Grade::Normal,
            &cancel,
        );
        assert_eq!(
            bad.as_object().unwrap().get("ok").and_then(Value::as_bool),
            Some(false)
        );
        assert!(!engine.durable_read_only());
        // wal.* counters and the warmth gauges ride the stats reply
        let stats = engine.stats_reply(&req(Scenario::Stats, ""), 0, 0);
        let obj = stats.as_object().unwrap();
        let counters = obj.get("counters").and_then(Value::as_object).unwrap();
        assert_eq!(counters.get("wal.appends").and_then(Value::as_u64), Some(1));
        assert_eq!(counters.get("wal.fsyncs").and_then(Value::as_u64), Some(1));
        assert_eq!(
            counters
                .get("serve.durable_read_only")
                .and_then(Value::as_u64),
            Some(0)
        );
        let gauges = obj.get("gauges").and_then(Value::as_object).unwrap();
        assert!(gauges.contains_key("plan_cache.warmth"));
        assert!(gauges.contains_key("plan_cache.warmth.pro"));
        let hists = obj.get("histograms").and_then(Value::as_object).unwrap();
        assert!(hists.contains_key("wal.fsync_us"));
        // shutdown checkpoint succeeds
        assert!(engine.checkpoint_durable().unwrap());
    }

    #[test]
    fn durable_io_error_degrades_to_read_only_not_a_dropped_reply() {
        let wb = wb();
        // Kill the backing store after ~1KiB: the first big append tears.
        let storage = Arc::new(durable::FaultyStorage::new(durable::IoFaultConfig {
            kill_at_byte: Some(1024),
            ..Default::default()
        }));
        let store = DurableGraph::open(storage, durable::DurableOptions::default()).unwrap();
        let engine = Engine::new(&wb).with_durable(store);
        let cancel = CancelToken::new();
        let mut nt = String::new();
        for i in 0..100 {
            nt.push_str(&format!("<http://e/s{i}> <http://v/p> <http://e/o{i}> .\n"));
        }
        let v = engine.handle(&req(Scenario::Ingest, &nt), Grade::Normal, &cancel);
        let obj = v.as_object().unwrap();
        // well-formed in-protocol reply, not an error or a hang
        assert_eq!(
            obj.get("ok").and_then(Value::as_bool),
            Some(true),
            "{obj:?}"
        );
        assert_eq!(obj.get("durable").and_then(Value::as_bool), Some(false));
        assert_eq!(obj.get("route").and_then(Value::as_str), Some("read-only"));
        assert!(engine.durable_read_only());
        // subsequent writes are refused up front, still in-protocol
        let again = engine.handle(
            &req(Scenario::Ingest, "<http://a> <http://b> <http://c> ."),
            Grade::Normal,
            &cancel,
        );
        let obj = again.as_object().unwrap();
        assert_eq!(obj.get("route").and_then(Value::as_str), Some("read-only"));
        assert_eq!(engine.snapshot().counter("serve.read_only_rejects"), 1);
    }

    #[test]
    fn stats_reply_surfaces_retrieval_block() {
        let wb = wb();
        let engine = Engine::new(&wb);
        let v = engine.stats_reply(&req(Scenario::Stats, ""), 0, 0);
        let retrieval = v
            .as_object()
            .unwrap()
            .get("retrieval")
            .and_then(Value::as_object)
            .unwrap();
        assert!(
            retrieval
                .get("docs_indexed")
                .and_then(Value::as_u64)
                .unwrap()
                > 0
        );
        let dispatch = retrieval.get("dispatch").and_then(Value::as_str).unwrap();
        assert!(["scalar", "avx2", "neon"].contains(&dispatch), "{dispatch}");
        // retrieval does not coalesce, so there is no coalescing to report
        for key in ["coalescing", "batch_max", "batch_max_wait_us"] {
            assert!(retrieval.get(key).is_none(), "{key}");
        }
    }

    #[test]
    fn rag_requests_count_their_retrieval_work() {
        // every naive `rag` request lands on the retrieval counters the
        // stats reply reports, as one one-query kernel pass
        let wb = wb();
        let engine = Engine::new(&wb);
        let cancel = CancelToken::new();
        let n = 5;
        for i in 0..n {
            let r = engine.handle(
                &req(Scenario::Rag, &format!("what happens in film number {i}?")),
                Grade::Normal,
                &cancel,
            );
            assert_eq!(
                r.as_object().unwrap().get("ok").and_then(Value::as_bool),
                Some(true)
            );
        }
        let v = engine.stats_reply(&req(Scenario::Stats, ""), 0, 0);
        let obj = v.as_object().unwrap();
        let docs = obj
            .get("retrieval")
            .and_then(|r| r.get("docs_indexed"))
            .and_then(Value::as_u64)
            .unwrap();
        let counters = obj.get("counters").and_then(Value::as_object).unwrap();
        let counter = |name: &str| counters.get(name).and_then(Value::as_u64).unwrap_or(0);
        assert_eq!(counter("retrieval.searches"), n);
        assert_eq!(counter("retrieval.batch.searches"), n);
        assert_eq!(counter("retrieval.batch.queries"), n);
        assert_eq!(counter("retrieval.vectors_scanned"), n * docs);
        assert!(counter("retrieval.heap_pushes") >= n);
    }

    #[test]
    fn stats_reply_carries_counters_and_quantiles() {
        let wb = wb();
        let engine = Engine::new(&wb);
        let cancel = CancelToken::new();
        engine.handle(&req(Scenario::Complete, "the film"), Grade::Normal, &cancel);
        let v = engine.stats_reply(&req(Scenario::Stats, ""), 3, 7);
        let obj = v.as_object().unwrap();
        let counters = obj.get("counters").and_then(Value::as_object).unwrap();
        assert_eq!(
            counters.get("serve.requests").and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            counters.get("serve.inflight").and_then(Value::as_u64),
            Some(3)
        );
        assert_eq!(
            counters.get("serve.queue_depth").and_then(Value::as_u64),
            Some(7)
        );
        let hists = obj.get("histograms").and_then(Value::as_object).unwrap();
        let h = hists
            .get("serve.latency_us.complete")
            .and_then(Value::as_object)
            .unwrap();
        assert_eq!(h.get("count").and_then(Value::as_u64), Some(1));
        assert!(h.get("p99").is_some());
    }
}
