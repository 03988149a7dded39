//! The three workloads: their data, request mixes, probes, and the reply
//! each request must get.
//!
//! Request inputs come from a client-side [`Workbench`] built from the
//! same config as the server's, so every question names a real entity
//! and every expected reply is computed before the traffic starts:
//! SPARQL row counts by a reference execution under the tenant's budget,
//! completions by [`slm::Slm::complete`], gold answers from the graph.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kg::namespace::{SYNTH_ENTITY, SYNTH_VOCAB};
use kg::term::Sym;
use kg::Graph;
use kgquery::exec::ExecOptions;
use kgquery::QueryError;
use llmkg::{Workbench, WorkbenchConfig};
use serde_json::{Map, Value};
use serve::Tenant;
use slm::GenParams;

use crate::loadgen::Line;

/// Seed of the synthetic graph every workload serves. The graph stays
/// fixed; `--seed` picks the requests.
pub const DATA_SEED: u64 = 42;

/// Triples per `ingest` request.
pub const BATCH_TRIPLES: usize = 32;

/// Distinct batch contents: batch `n` carries the triples of content
/// `n mod INGEST_CONTENTS`. Re-ingesting known triples still appends to
/// the WAL and fsyncs, but leaves the store's graph at 4,096 ingested
/// triples, so its compaction cost, which grows with the graph, stays
/// the same however long a run lasts.
pub const INGEST_CONTENTS: u64 = 128;

/// Tenant ids the traffic rotates through: free, standard, pro.
const TENANTS: [&str; 3] = ["free:bench", "team:bench", "pro:bench"];

/// A request type of the serve protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// One chatbot turn.
    Chat,
    /// One RAG answer.
    Rag,
    /// One SPARQL query.
    Sparql,
    /// One LM completion.
    Complete,
    /// One N-Triples batch appended to the durable store.
    Ingest,
}

impl Op {
    /// Every operation, in report order.
    pub const ALL: [Op; 5] = [Op::Chat, Op::Rag, Op::Sparql, Op::Complete, Op::Ingest];

    /// The protocol's scenario label.
    pub fn label(self) -> &'static str {
        match self {
            Op::Chat => "chat",
            Op::Rag => "rag",
            Op::Sparql => "sparql",
            Op::Complete => "complete",
            Op::Ingest => "ingest",
        }
    }

    /// Requests of this operation sent in the probe phase of a workload
    /// whose mix lacks it.
    fn probe_count(self) -> usize {
        match self {
            Op::Chat | Op::Rag => 48,
            Op::Sparql | Op::Complete => 200,
            Op::Ingest => 1000,
        }
    }
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Natural-language traffic: chat, rag (naive and advanced), complete.
    AssistantMix,
    /// SPARQL-only traffic over a larger graph.
    SparqlAnalytics,
    /// Durable ingest beside cheap reads.
    IngestRead,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::AssistantMix,
        Workload::SparqlAnalytics,
        Workload::IngestRead,
    ];

    /// Look a workload up by its name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AssistantMix => "assistant_mix",
            Workload::SparqlAnalytics => "sparql_analytics",
            Workload::IngestRead => "ingest_read",
        }
    }

    /// The served graph: the movies domain at this scale.
    pub fn workbench(self) -> WorkbenchConfig {
        WorkbenchConfig {
            seed: DATA_SEED,
            entities_per_class: match self {
                Workload::SparqlAnalytics => 2000,
                Workload::AssistantMix | Workload::IngestRead => 200,
            },
            ..WorkbenchConfig::default()
        }
    }

    /// Closed-loop capacity in requests per second, as measured on a
    /// 2-core x86-64 host. It sizes the closed loop, which sends a fixed
    /// number of requests so that every run of a seed does the same work,
    /// and sets the open loop's offered rate.
    pub fn reference_rps(self) -> f64 {
        match self {
            Workload::AssistantMix => 1600.0,
            Workload::SparqlAnalytics => 950.0,
            Workload::IngestRead => 6500.0,
        }
    }

    /// The open loop's offered rate: an eighth of the reference capacity,
    /// low enough that a request rarely waits behind the one before it
    /// on its connection, and that a stall of a shared host does not
    /// snowball into a queue.
    pub fn offered_rps(self) -> f64 {
        self.reference_rps() / 8.0
    }

    /// The operations in the workload's own mix; the others are probed.
    pub fn ops(self) -> &'static [Op] {
        match self {
            Workload::AssistantMix => &[Op::Chat, Op::Rag, Op::Complete],
            Workload::SparqlAnalytics => &[Op::Sparql],
            Workload::IngestRead => &[Op::Ingest, Op::Sparql, Op::Complete],
        }
    }

    /// Batches written to each durable directory before the server
    /// starts, so that set-up includes a real recovery.
    pub fn preload_batches(self) -> u64 {
        match self {
            Workload::IngestRead => 256,
            Workload::AssistantMix | Workload::SparqlAnalytics => 0,
        }
    }
}

/// What a correct reply to a request looks like.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Chat or rag: an in-protocol answer. A reply naming one of `gold`
    /// counts towards answer accuracy; any answer counts as correct.
    Answer {
        /// Acceptable answers, from the graph.
        gold: Vec<String>,
    },
    /// SPARQL: the reference execution's row count (and ASK verdict), or
    /// a budget apology where the reference ran out of budget.
    Rows {
        /// Rows the reference returned.
        rows: u64,
        /// The ASK verdict, for ASK queries.
        ask: Option<bool>,
        /// The reference exceeded the tenant's budget.
        budget: bool,
    },
    /// Complete: exactly this text.
    Text(String),
    /// Ingest: acknowledged as durable.
    Durable {
        /// The batch's content number; its triples are [`batch_triples`].
        content: u64,
    },
}

/// One request: the wire line and its expected reply.
#[derive(Debug)]
pub struct Template {
    /// The operation.
    pub op: Op,
    /// The request line.
    pub line: String,
    /// The reply it must get.
    pub expect: Expect,
}

/// Requests are shared: pools hand out clones of one allocation.
pub type Req = Arc<Template>;

impl Line for Req {
    fn line(&self) -> &str {
        &self.line
    }
}

/// How one reply measured up.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Well formed, served, and matching the expectation.
    pub ok: bool,
    /// The reply said `degraded: true`.
    pub degraded: bool,
    /// For chat and rag: whether the answer names the gold answer.
    pub accurate: Option<bool>,
    /// Why the reply was wrong, when it was.
    pub problem: Option<String>,
}

/// Judge a reply against its request's expectation.
pub fn check(t: &Template, reply: Option<&str>) -> Verdict {
    let fail = |why: String| Verdict {
        problem: Some(why),
        ..Verdict::default()
    };
    let Some(reply) = reply else {
        return fail("no reply (connection broke)".into());
    };
    let Ok(v) = serde_json::from_str(reply.trim()) else {
        return fail(format!("malformed reply {reply:?}"));
    };
    let Some(o) = v.as_object() else {
        return fail(format!("reply is not an object: {reply:?}"));
    };
    let flag = |k: &str| o.get(k).and_then(Value::as_bool);
    let text = |k: &str| o.get(k).and_then(Value::as_str).unwrap_or("");
    let (Some(ok), Some(shed), Some(degraded)) = (flag("ok"), flag("shed"), flag("degraded"))
    else {
        return fail(format!("reply lacks ok/shed/degraded: {reply:?}"));
    };
    if !ok || shed {
        return fail(format!("not served: {reply:?}"));
    }
    let rows = o.get("rows").and_then(Value::as_u64);
    let mut verdict = Verdict {
        ok: true,
        degraded,
        ..Verdict::default()
    };
    let problem = match &t.expect {
        Expect::Answer { gold } => {
            let answer = text("answer").to_lowercase();
            verdict.accurate = Some(gold.iter().any(|g| answer.contains(&g.to_lowercase())));
            (answer.is_empty()).then(|| "empty answer".to_string())
        }
        Expect::Rows { budget: true, .. } => (text("route") != "budget-exceeded")
            .then(|| format!("expected a budget apology: {reply:?}")),
        Expect::Rows {
            rows: want, ask, ..
        } => {
            let ask_ok = !matches!(ask, Some(b) if text("answer") != b.to_string());
            (text("route") != "sparql" || rows != Some(*want) || !ask_ok)
                .then(|| format!("expected {want} rows (ask {ask:?}): {reply:?}"))
        }
        Expect::Text(want) => {
            (text("answer") != want).then(|| format!("expected completion {want:?}: {reply:?}"))
        }
        Expect::Durable { .. } => (flag("durable") != Some(true)
            || rows != Some(BATCH_TRIPLES as u64))
        .then(|| format!("ingest not acknowledged as durable: {reply:?}")),
    };
    if problem.is_some() {
        verdict.ok = false;
        verdict.problem = problem;
    }
    verdict
}

/// SplitMix64: a small seeded generator, so request streams repeat
/// exactly for a seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly chosen element (`xs` non-empty).
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

/// The triples of ingest batch `batch` under namespace `ns`: four
/// subjects of eight properties each, all outside the synthetic graph's
/// namespace.
pub fn batch_triples(ns: &str, batch: u64) -> Vec<[String; 3]> {
    (0..BATCH_TRIPLES)
        .map(|j| {
            [
                format!("{ns}item/{batch}-{}", j / 8),
                format!("{ns}prop{}", j % 8),
                format!("{ns}value{}", (batch as usize + j) % 16),
            ]
        })
        .collect()
}

/// A batch as N-Triples text.
pub fn batch_ntriples(ns: &str, batch: u64) -> String {
    batch_triples(ns, batch)
        .iter()
        .map(|[s, p, o]| format!("<{s}> <{p}> <{o}> .\n"))
        .collect()
}

/// A request line of the serve protocol.
fn request_line(tenant: &str, op: Op, input: &str, mode: Option<&str>) -> String {
    let mut m = Map::new();
    m.insert("tenant".into(), Value::String(tenant.into()));
    m.insert("scenario".into(), Value::String(op.label().into()));
    if let Some(mode) = mode {
        m.insert("mode".into(), Value::String(mode.into()));
    }
    m.insert("input".into(), Value::String(input.into()));
    serde_json::to_string(&Value::Object(m)).expect("a JSON object serializes")
}

/// Numbers ingest batches and picks their contents.
pub struct IngestGen {
    ns: String,
    next: AtomicU64,
}

impl IngestGen {
    fn new(seed: u64) -> IngestGen {
        IngestGen {
            ns: format!("http://llmkg.dev/ingest/{seed}/"),
            next: AtomicU64::new(0),
        }
    }

    /// The namespace of this run's ingested triples.
    pub fn namespace(&self) -> &str {
        &self.ns
    }

    /// A request carrying the next batch, from a rotating tenant.
    pub fn make(&self) -> Req {
        let batch = self.next.fetch_add(1, Ordering::Relaxed);
        let content = batch % INGEST_CONTENTS;
        let tenant = TENANTS[batch as usize % TENANTS.len()];
        Arc::new(Template {
            op: Op::Ingest,
            line: request_line(tenant, Op::Ingest, &batch_ntriples(&self.ns, content), None),
            expect: Expect::Durable { content },
        })
    }
}

/// Where a mix entry draws its requests from.
enum Source {
    Pool(Vec<Req>),
    Ingest,
}

/// A workload's generated traffic: its weighted mix, the probes for the
/// operations its mix lacks, and the ingest batch numbering.
pub struct Traffic {
    mix: Vec<(u32, Source)>,
    probes: Vec<Req>,
    /// The run's ingest batches.
    pub ingest: IngestGen,
}

impl Traffic {
    /// Generate the traffic for `workload` over `wb`, a workbench built
    /// from `workload.workbench()`. The request pools and probes are the
    /// same for every run; `seed` numbers the ingest batches, and the
    /// draws from the pools (see [`Traffic::draw`]) follow it too.
    pub fn new(workload: Workload, wb: &Workbench, seed: u64) -> Traffic {
        let mut rng = Rng::new(DATA_SEED ^ 0x5EED_7EA5);
        let kb = Kb::new(wb.graph());
        let chat = kb.questions(&mut rng, Op::Chat, 96);
        let rag = kb.questions(&mut rng, Op::Rag, 96);
        let complete = completions(wb, &kb, &mut rng, 64);
        let point = point_lookups(wb.graph(), &kb, &mut rng, 96);
        let mix = match workload {
            Workload::AssistantMix => vec![
                (25, Source::Pool(chat.clone())),
                (40, Source::Pool(rag.clone())),
                (35, Source::Pool(complete.clone())),
            ],
            Workload::SparqlAnalytics => analytics(wb.graph(), &kb, &mut rng),
            Workload::IngestRead => vec![
                (30, Source::Ingest),
                (35, Source::Pool(point.clone())),
                (35, Source::Pool(complete.clone())),
            ],
        };
        let ingest = IngestGen::new(seed);
        // each operation's probes spread evenly through the list, so any
        // consecutive part of it probes every operation
        let mut probes: Vec<(f64, Req)> = Vec::new();
        for op in Op::ALL {
            if workload.ops().contains(&op) {
                continue;
            }
            let n = op.probe_count();
            let pool = match op {
                Op::Chat => &chat,
                Op::Rag => &rag,
                Op::Sparql => &point,
                Op::Complete => &complete,
                Op::Ingest => {
                    probes.extend((0..n).map(|i| ((i as f64 + 0.5) / n as f64, ingest.make())));
                    continue;
                }
            };
            probes.extend(
                (0..n).map(|i| ((i as f64 + 0.5) / n as f64, pool[i % pool.len()].clone())),
            );
        }
        probes.sort_by(|a, b| a.0.total_cmp(&b.0));
        let probes = probes.into_iter().map(|(_, r)| r).collect();
        Traffic {
            mix,
            probes,
            ingest,
        }
    }

    /// Draw the next request of the mix.
    pub fn draw(&self, rng: &mut Rng) -> Req {
        let total: u32 = self.mix.iter().map(|(w, _)| w).sum();
        let mut x = rng.below(total as usize) as u32;
        for (w, source) in &self.mix {
            if x < *w {
                return match source {
                    Source::Pool(pool) => rng.pick(pool).clone(),
                    Source::Ingest => self.ingest.make(),
                };
            }
            x -= w;
        }
        unreachable!("x < total")
    }

    /// The probe requests: a fixed number of each operation the mix
    /// lacks, interleaved.
    pub fn probes(&self) -> &[Req] {
        &self.probes
    }
}

/// The synthetic graph's entities, by class, with a few lookups.
struct Kb<'g> {
    g: &'g Graph,
    films: Vec<Sym>,
    genres: Vec<Sym>,
    actors: Vec<Sym>,
}

impl<'g> Kb<'g> {
    fn new(g: &'g Graph) -> Kb<'g> {
        let members = |class: &str| {
            g.pool()
                .get_iri(&format!("{SYNTH_VOCAB}{class}"))
                .map(|c| g.instances_of(c))
                .unwrap_or_default()
        };
        Kb {
            g,
            films: members("Film"),
            genres: members("Genre"),
            actors: members("Actor"),
        }
    }

    fn objects(&self, s: Sym, prop: &str) -> Vec<Sym> {
        self.g
            .pool()
            .get_iri(&format!("{SYNTH_VOCAB}{prop}"))
            .map(|p| self.g.objects(s, p))
            .unwrap_or_default()
    }

    fn iri(&self, s: Sym) -> String {
        self.g
            .resolve(s)
            .as_iri()
            .unwrap_or(SYNTH_ENTITY)
            .to_string()
    }

    fn name(&self, s: Sym) -> String {
        self.g.display_name(s)
    }

    /// `n` questions about random films, for chat or rag (a quarter of
    /// the rag questions in advanced mode, the rest naive), each with its
    /// gold answers.
    fn questions(&self, rng: &mut Rng, op: Op, n: usize) -> Vec<Req> {
        (0..n)
            .map(|i| {
                let film = *rng.pick(&self.films);
                let title = self.name(film);
                let (question, prop) = match i % 3 {
                    0 => (format!("Who directed {title}?"), "directedBy"),
                    1 => (format!("Which studio produced {title}?"), "producedBy"),
                    _ => (format!("Who starred in {title}?"), "starring"),
                };
                let gold = self
                    .objects(film, prop)
                    .into_iter()
                    .map(|o| self.name(o))
                    .collect();
                // a quarter advanced: medians stay inside the naive cluster
                let mode =
                    (op == Op::Rag).then_some(if i / 3 % 4 == 3 { "advanced" } else { "naive" });
                Arc::new(Template {
                    op,
                    line: request_line(TENANTS[i % 3], op, &question, mode),
                    expect: Expect::Answer { gold },
                })
            })
            .collect()
    }
}

/// `n` free-text completion prompts about random films and actors.
fn completions(wb: &Workbench, kb: &Kb, rng: &mut Rng, n: usize) -> Vec<Req> {
    (0..n)
        .map(|i| {
            let prompt = if i % 2 == 0 {
                format!("{} is directed by", kb.name(*rng.pick(&kb.films)))
            } else {
                format!("{} starred in", kb.name(*rng.pick(&kb.actors)))
            };
            let want = wb.slm.complete(&prompt, &GenParams::default());
            Arc::new(Template {
                op: Op::Complete,
                line: request_line(TENANTS[i % 3], Op::Complete, &prompt, None),
                expect: Expect::Text(want),
            })
        })
        .collect()
}

const PREFIX: &str = "PREFIX v: <http://llmkg.dev/vocab/> ";

/// A SPARQL request whose expected reply is a reference execution under
/// the tenant's budget.
fn sparql(g: &Graph, tenant: &str, query: String) -> Req {
    let opts = ExecOptions::with_limits(Tenant::from_id(tenant).limits());
    let expect = match kgquery::execute_sparql_with(g, &query, &opts) {
        Ok(rs) => Expect::Rows {
            rows: rs.len() as u64,
            ask: rs.ask,
            budget: false,
        },
        Err(QueryError::LimitExceeded { .. }) => Expect::Rows {
            rows: 0,
            ask: None,
            budget: true,
        },
        Err(e) => panic!("benchmark query does not run: {e}\n{query}"),
    };
    Arc::new(Template {
        op: Op::Sparql,
        line: request_line(tenant, Op::Sparql, &query, None),
        expect,
    })
}

/// `n` point lookups anchored on random films: cheap reads confined to
/// the synthetic graph's namespace.
fn point_lookups(g: &Graph, kb: &Kb, rng: &mut Rng, n: usize) -> Vec<Req> {
    (0..n)
        .map(|i| {
            let film = *rng.pick(&kb.films);
            let f = kb.iri(film);
            let query = match i % 4 {
                0 => format!("{PREFIX}SELECT ?d WHERE {{ <{f}> v:directedBy ?d }}"),
                1 => format!("{PREFIX}SELECT ?p ?o WHERE {{ <{f}> ?p ?o }}"),
                2 => format!("{PREFIX}SELECT ?a WHERE {{ <{f}> v:starring ?a }}"),
                _ => {
                    let studio = kb.objects(film, "producedBy");
                    let s = studio.first().map_or(f.clone(), |&s| kb.iri(s));
                    format!("{PREFIX}ASK {{ <{f}> v:producedBy <{s}> }}")
                }
            };
            sparql(g, TENANTS[i % 3], query)
        })
        .collect()
}

/// The analytics mix: a hot set of templated shapes that fits every
/// tenant class's plan cache, and an anchored tail of more distinct texts
/// per class than the cache holds.
fn analytics(g: &Graph, kb: &Kb, rng: &mut Rng) -> Vec<(u32, Source)> {
    let genre = kb.genres.first().map_or(String::new(), |&s| kb.iri(s));
    // Weights put the median inside the spouse-path cluster: the cheap
    // shapes (tail, ASK, FILTER) take the first quarter, OPTIONAL and
    // the path the next 45 %, the 1-2 ms joins a quarter, the wide joins
    // the last 4 %. A median on the border between two clusters jumps
    // from run to run.
    let hot: [(u32, String); 9] = [
        (9, "SELECT ?f ?d ?s ?y WHERE { ?f a v:Film . ?f v:directedBy ?d . ?f v:producedBy ?s . ?f v:releaseYear ?y . FILTER(?y >= 2010) } ORDER BY DESC(?y) LIMIT 20".into()),
        (9, format!("SELECT DISTINCT ?d WHERE {{ ?f v:hasGenre <{genre}> . ?f v:directedBy ?d }}")),
        (15, "SELECT ?a ?s WHERE { ?a a v:Director . OPTIONAL { ?a v:spouse ?s } }".into()),
        (30, "SELECT ?a ?b WHERE { ?a v:spouse/v:spouse ?b }".into()),
        (8, "SELECT DISTINCT ?d ?s WHERE { ?f v:directedBy ?d . ?f v:producedBy ?s }".into()),
        (5, "ASK { ?f v:directedBy ?d . ?d v:spouse ?s }".into()),
        (5, "SELECT ?f ?y WHERE { ?f v:releaseYear ?y . FILTER(?y < 1960) } ORDER BY ?y LIMIT 10".into()),
        (2, "SELECT ?f ?a ?f2 WHERE { ?f v:starring ?a . ?f2 v:starring ?a }".into()),
        (2, "SELECT ?f ?x WHERE { ?f v:starring/^v:starring ?x }".into()),
    ];
    let mut mix: Vec<(u32, Source)> = hot
        .into_iter()
        .map(|(w, q)| {
            let pool = TENANTS
                .iter()
                .map(|t| sparql(g, t, format!("{PREFIX}{q}")))
                .collect();
            (w, Source::Pool(pool))
        })
        .collect();
    let tail = (0..1200)
        .map(|i| {
            let f = kb.iri(*rng.pick(&kb.films));
            let query = match i % 3 {
                0 => format!("SELECT ?a ?f2 WHERE {{ <{f}> v:starring ?a . ?f2 v:starring ?a }}"),
                1 => format!("SELECT ?p ?o WHERE {{ <{f}> ?p ?o }}"),
                _ => format!(
                    "SELECT ?f2 ?y WHERE {{ <{f}> v:directedBy ?d . ?f2 v:directedBy ?d . ?f2 v:releaseYear ?y }} ORDER BY ?y"
                ),
            };
            sparql(g, TENANTS[(i / 3) % 3], format!("{PREFIX}{query}"))
        })
        .collect();
    mix.push((15, Source::Pool(tail)));
    mix
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template(expect: Expect) -> Template {
        Template {
            op: Op::Sparql,
            line: String::new(),
            expect,
        }
    }

    #[test]
    fn replies_are_checked_against_their_expectation() {
        let rows = template(Expect::Rows {
            rows: 3,
            ask: None,
            budget: false,
        });
        let good = r#"{"ok":true,"shed":false,"degraded":false,"route":"sparql","rows":3}"#;
        assert!(check(&rows, Some(good)).ok);
        let wrong = r#"{"ok":true,"shed":false,"degraded":false,"route":"sparql","rows":4}"#;
        assert!(!check(&rows, Some(wrong)).ok);
        let shed = r#"{"ok":true,"shed":true,"degraded":true,"route":"shed"}"#;
        assert!(!check(&rows, Some(shed)).ok);
        assert!(!check(&rows, Some("not json")).ok);
        assert!(!check(&rows, None).ok);

        let budget = template(Expect::Rows {
            rows: 0,
            ask: None,
            budget: true,
        });
        let apology =
            r#"{"ok":true,"shed":false,"degraded":true,"route":"budget-exceeded","rows":0}"#;
        let v = check(&budget, Some(apology));
        assert!(v.ok && v.degraded);

        let answer = template(Expect::Answer {
            gold: vec!["Ann Lee".into()],
        });
        let hit = r#"{"ok":true,"shed":false,"degraded":true,"answer":"directed by ann lee"}"#;
        assert_eq!(check(&answer, Some(hit)).accurate, Some(true));
        let miss = r#"{"ok":true,"shed":false,"degraded":false,"answer":"Bob"}"#;
        let v = check(&answer, Some(miss));
        assert!(v.ok);
        assert_eq!(v.accurate, Some(false));

        let ingest = template(Expect::Durable { content: 0 });
        let acked = r#"{"ok":true,"shed":false,"degraded":false,"durable":true,"rows":32}"#;
        assert!(check(&ingest, Some(acked)).ok);
        let unacked = r#"{"ok":true,"shed":false,"degraded":true,"durable":false,"rows":0}"#;
        assert!(!check(&ingest, Some(unacked)).ok);
    }

    #[test]
    fn ingest_batches_are_distinct_and_parse() {
        let a = batch_triples("http://x/", 1);
        let b = batch_triples("http://x/", 2);
        assert_eq!(a.len(), BATCH_TRIPLES);
        assert!(a.iter().all(|t| !b.contains(t)));
        let g = kg::turtle::parse_ntriples(&batch_ntriples("http://x/", 1)).unwrap();
        assert_eq!(g.len(), BATCH_TRIPLES);
    }

    #[test]
    fn the_rng_repeats_per_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let xs: Vec<u64> = (0..5).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..5).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(Rng::new(8).next_u64() != xs[0]);
        assert!((0..100).all(|_| a.below(3) < 3));
    }
}
