//! KG chatbots (§4.1.5, after Omar et al. \[65\]).
//!
//! The paper's proposal: merge the reliability of traditional KGQA
//! systems with the conversational flexibility of LLM chatbots. The
//! router sends entity questions to the KGQA pipeline (text-to-SPARQL +
//! execution) and everything else to the LLM, with dialogue state that
//! tracks a *focus entity* so pronoun follow-ups ("who directed it?")
//! resolve correctly.
//!
//! Every turn walks an explicit **degradation ladder** (see
//! `docs/resilience.md`): text-to-SPARQL → direct entity lookup → LLM
//! chat → diagnostic apology. Each rung that fails is recorded in the
//! reply's [`resilience::DegradationTrace`] and as `resilience.*`
//! counters, and a seeded [`resilience::FaultInjector`] can deterministically
//! knock out individual rungs for chaos testing.

use std::sync::Arc;

use kg::term::Sym;
use kg::Graph;
use kgquery::exec::ExecOptions;
use kgquery::{execute_sparql_observed_with, CacheOutcome, ExecStats, PlanCache, QueryError};
use resilience::{
    CancelToken, DegradationTrace, FaultInjector, FaultPoint, NoFaults, ResourceLimits,
};
use slm::{ChatSession, GenParams, Message, Slm};

use crate::text2sparql::{SparqlTemplate, Text2SparqlMethod, TextToSparql};

/// The production default injector: shared so `ChatBot::new` needs no
/// lifetime gymnastics.
static NO_FAULTS: NoFaults = NoFaults;

/// Where the router (or the degradation ladder) sent a turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterDecision {
    /// Answered by text-to-SPARQL + KG execution.
    KgQuery,
    /// Answered by a direct entity fact lookup (the template-QA rung the
    /// ladder falls to when query generation or execution fails).
    EntityLookup,
    /// Answered by the LLM (chitchat / no entity found / KG rungs failed).
    LlmChat,
    /// Every rung failed: a diagnostic apology naming what went wrong.
    Apology,
}

impl RouterDecision {
    /// Stable label used for span attributes and profiles.
    pub fn label(&self) -> &'static str {
        match self {
            RouterDecision::KgQuery => "kg-query",
            RouterDecision::EntityLookup => "entity-lookup",
            RouterDecision::LlmChat => "llm-chat",
            RouterDecision::Apology => "apology",
        }
    }
}

/// One bot reply.
#[derive(Debug, Clone)]
pub struct BotReply {
    /// The reply text.
    pub text: String,
    /// How it was produced.
    pub decision: RouterDecision,
    /// The SPARQL used, when applicable.
    pub sparql: Option<String>,
    /// Rows the KG query returned (0 on the LLM route).
    pub rows: usize,
    /// Executor work counters of the KG query (all zero on the LLM
    /// route) — the per-turn slice of the profiling surface.
    pub exec: ExecStats,
    /// The fallback rungs this turn walked down, and why. Empty when the
    /// primary text-to-SPARQL route answered.
    pub degradation: DegradationTrace,
}

/// A stateful KG chatbot.
pub struct ChatBot<'a> {
    graph: &'a Graph,
    slm: &'a Slm,
    t2s: TextToSparql<'a>,
    session: ChatSession,
    faults: &'a dyn FaultInjector,
    limits: ResourceLimits,
    cancel: Option<CancelToken>,
    plan_cache: Option<Arc<PlanCache>>,
    /// The entity the conversation is currently about.
    pub focus: Option<Sym>,
}

const PRONOUNS: &[&str] = &["it", "they", "he", "she", "that one", "them"];

impl<'a> ChatBot<'a> {
    /// Build over a graph and LM.
    pub fn new(graph: &'a Graph, slm: &'a Slm) -> Self {
        ChatBot {
            graph,
            slm,
            t2s: TextToSparql::new(graph, slm),
            session: ChatSession::with_system(
                "You are a knowledge-graph assistant. Answer from the KG when possible.",
            ),
            faults: &NO_FAULTS,
            limits: ResourceLimits::unlimited(),
            cancel: None,
            plan_cache: None,
            focus: None,
        }
    }

    /// Share a [`PlanCache`] with this bot: templated text-to-SPARQL
    /// queries are prepared through it (parameterized on the anchor
    /// entity) instead of being parsed and planned from scratch every
    /// turn. Cache traffic lands on the `plan_cache.*` counters of the
    /// turn span. Queries fall back to the textual path if preparation
    /// fails, so behavior is unchanged — only planning work is saved.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// Inject a fault schedule (chaos testing). Production code keeps the
    /// [`NoFaults`] default, which compiles to nothing.
    pub fn with_faults(mut self, faults: &'a dyn FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// Budget the KG queries this bot issues.
    pub fn with_limits(mut self, limits: ResourceLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Attach a cancellation token, polled by the KG executor at the same
    /// checkpoints as the deadline. A serving front end trips it when the
    /// client disconnects mid-turn, so abandoned queries back out instead
    /// of running to completion (see `docs/serving.md`).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Handle one user turn.
    pub fn handle(&mut self, utterance: &str) -> BotReply {
        self.handle_observed(utterance, &obs::Span::disabled())
    }

    /// Handle one user turn under an observability span.
    ///
    /// A `chatbot.turn` child records per-turn work — whether a SPARQL
    /// query was issued (and its executor counters, via the nested
    /// `sparql.execute` span), rows scanned, pronoun resolution, the
    /// route taken, and any degradation steps — while `chatbot.*` and
    /// `resilience.*` counters accumulate across the dialogue. With a
    /// disabled span this is exactly [`ChatBot::handle`].
    pub fn handle_observed(&mut self, utterance: &str, parent: &obs::Span) -> BotReply {
        let span = parent.child("chatbot.turn");
        span.count("chatbot.turns", 1);
        self.session.push(Message::user(utterance));
        let resolved = self.resolve_pronouns(utterance);
        if resolved != utterance {
            span.set("pronoun_resolved", true);
            span.count("chatbot.pronoun_resolutions", 1);
        }
        // the entity the turn names: it moves the focus whichever rung
        // answers, and anchors the entity-lookup rung
        let mentioned = self.graph.entity_names().longest_mention(&resolved);
        let mut trace = DegradationTrace::new();

        // rung 1: text-to-SPARQL + KG execution
        let mut sparql_used = None;
        if self.fault(&span, FaultPoint::Parse) {
            fall(&span, &mut trace, "text2sparql", "fault injected: parse");
        } else if let Some(template) =
            self.t2s
                .generate_template_observed(Text2SparqlMethod::SgptSim, &resolved, &span)
        {
            let sparql = template.inline();
            span.count("chatbot.sparql_issued", 1);
            if self.fault(&span, FaultPoint::Exec) {
                fall(&span, &mut trace, "text2sparql", "fault injected: exec");
            } else {
                let mut opts = ExecOptions::with_limits(self.limits.clone());
                opts.cancel = self.cancel.clone();
                match self.execute_turn_query(&template, &sparql, &opts, &span) {
                    Ok(rs) if !rs.is_empty() => {
                        let names: Vec<String> = rs
                            .values("answer")
                            .iter()
                            .map(|t| self.term_name(t))
                            .collect();
                        self.focus = mentioned.or(self.focus);
                        let text = names.join(", ");
                        self.session.push(Message::assistant(text.clone()));
                        trace.serve("text2sparql");
                        span.set("rows", rs.len());
                        span.count("chatbot.kg_answers", 1);
                        return self.finish(span, text, RouterDecision::KgQuery, trace, |r| {
                            r.sparql = Some(sparql);
                            r.rows = rs.len();
                            r.exec = rs.stats;
                        });
                    }
                    Ok(rs) if rs.truncated => {
                        let why = rs
                            .truncation
                            .map(|v| v.to_string())
                            .unwrap_or_else(|| "truncated".into());
                        fall(&span, &mut trace, "text2sparql", why);
                        sparql_used = Some(sparql);
                    }
                    Ok(_) => {
                        fall(&span, &mut trace, "text2sparql", "no rows");
                        sparql_used = Some(sparql);
                    }
                    Err(e @ QueryError::LimitExceeded { .. }) => {
                        fall(&span, &mut trace, "text2sparql", e.to_string());
                        sparql_used = Some(sparql);
                    }
                    Err(e) => {
                        fall(
                            &span,
                            &mut trace,
                            "text2sparql",
                            format!("query error: {e}"),
                        );
                        sparql_used = Some(sparql);
                    }
                }
            }
        } else {
            fall(&span, &mut trace, "text2sparql", "no query generated");
        }

        self.focus = mentioned.or(self.focus);

        // rung 2: direct entity fact lookup (template QA)
        if self.fault(&span, FaultPoint::Retrieval) {
            fall(
                &span,
                &mut trace,
                "entity-lookup",
                "fault injected: retrieval",
            );
        } else if let Some(text) = mentioned.and_then(|e| self.entity_lookup(e, &resolved)) {
            self.session.push(Message::assistant(text.clone()));
            trace.serve("entity-lookup");
            span.count("chatbot.entity_lookups", 1);
            return self.finish(span, text, RouterDecision::EntityLookup, trace, |r| {
                r.sparql = sparql_used;
            });
        } else {
            fall(&span, &mut trace, "entity-lookup", "no matching fact");
        }

        // rung 3: LLM chat
        if self.fault(&span, FaultPoint::Generation) {
            fall(&span, &mut trace, "llm-chat", "fault injected: generation");
        } else {
            let reply = self.slm.chat(&self.session, &GenParams::default());
            // The corpus-trained LM can come back empty on non-question
            // chitchat; the rung still owns the turn with a canned line.
            let content = if reply.content.is_empty() {
                "Happy to chat! Ask me anything about the knowledge graph.".to_string()
            } else {
                reply.content
            };
            self.session.push(Message::assistant(content.clone()));
            trace.serve("llm-chat");
            span.count("chatbot.llm_fallbacks", 1);
            return self.finish(span, content, RouterDecision::LlmChat, trace, |r| {
                r.sparql = sparql_used;
            });
        }

        // rung 4: diagnostic apology — every rung failed
        trace.serve("apology");
        let text = format!(
            "Sorry — I could not answer that. Attempts: {}.",
            trace.render()
        );
        self.session.push(Message::assistant(text.clone()));
        span.count("chatbot.apologies", 1);
        self.finish(span, text, RouterDecision::Apology, trace, |r| {
            r.sparql = sparql_used;
        })
    }

    /// Execute a turn's KG query: through the shared [`PlanCache`] when
    /// one is attached (parameterized on the anchor, so every question
    /// over the same relation chain reuses one compiled plan), otherwise
    /// via the classic parse-plan-execute textual path. Preparation
    /// failures fall back to the textual path — the cache is a planning
    /// optimization, never a behavior change.
    fn execute_turn_query(
        &self,
        template: &SparqlTemplate,
        sparql: &str,
        opts: &ExecOptions,
        span: &obs::Span,
    ) -> Result<kgquery::ResultSet, QueryError> {
        if let Some(cache) = &self.plan_cache {
            match cache.prepare_with_params(
                self.graph,
                &template.text(),
                &[SparqlTemplate::ANCHOR_VAR],
            ) {
                Ok((prepared, outcome)) => {
                    let counter = match outcome {
                        CacheOutcome::Hit => "plan_cache.hits",
                        CacheOutcome::Miss => "plan_cache.misses",
                        CacheOutcome::Invalidated => "plan_cache.invalidations",
                    };
                    span.count(counter, 1);
                    return prepared.run_with_observed(
                        self.graph,
                        &[(SparqlTemplate::ANCHOR_VAR, template.anchor_term())],
                        opts,
                        span,
                    );
                }
                Err(_) => span.count("plan_cache.prepare_errors", 1),
            }
        }
        execute_sparql_observed_with(self.graph, sparql, opts, span)
    }

    /// Close out a turn: stamp route + degradation onto the span and
    /// build the reply.
    fn finish(
        &self,
        span: obs::Span,
        text: String,
        decision: RouterDecision,
        trace: DegradationTrace,
        patch: impl FnOnce(&mut BotReply),
    ) -> BotReply {
        span.set("route", decision.label());
        if trace.degraded() {
            span.set("degraded", true);
            span.set("degradation", trace.render());
        }
        let mut reply = BotReply {
            text,
            decision,
            sparql: None,
            rows: 0,
            exec: ExecStats::default(),
            degradation: trace,
        };
        patch(&mut reply);
        reply
    }

    /// Human-readable name of a term for reply text.
    fn term_name(&self, t: &kg::Term) -> String {
        match t {
            kg::Term::Iri(iri) => self
                .graph
                .pool()
                .get_iri(iri)
                .map(|s| self.graph.display_name(s))
                .unwrap_or_else(|| kg::namespace::humanize(kg::namespace::local_name(iri))),
            kg::Term::Literal(l) => l.lexical.clone(),
            kg::Term::Blank(b) => b.clone(),
        }
    }

    /// The template-QA rung: find a predicate of the mentioned entity whose
    /// humanized name occurs in the utterance, and answer with the stored
    /// objects directly — no query generation, no LLM.
    fn entity_lookup(&self, entity: Sym, resolved: &str) -> Option<String> {
        let lower = resolved.to_lowercase();
        let mut best: Option<(usize, Sym)> = None;
        for (p, _) in self.graph.outgoing(entity) {
            let Some(iri) = self.graph.resolve(p).as_iri() else {
                continue;
            };
            let phrase = kg::namespace::humanize(kg::namespace::local_name(iri));
            if phrase.len() >= 3 && lower.contains(&phrase.to_lowercase()) {
                match best {
                    Some((len, _)) if phrase.len() <= len => {}
                    _ => best = Some((phrase.len(), p)),
                }
            }
        }
        let (_, pred) = best?;
        let objects = self.graph.objects(entity, pred);
        if objects.is_empty() {
            return None;
        }
        let names: Vec<String> = objects
            .iter()
            .map(|&o| self.term_name(self.graph.resolve(o)))
            .collect();
        Some(names.join(", "))
    }

    /// Replace leading/contained pronouns with the focus entity's name.
    fn resolve_pronouns(&self, utterance: &str) -> String {
        let Some(focus) = self.focus else {
            return utterance.to_string();
        };
        let name = self.graph.display_name(focus);
        let mut out = utterance.to_string();
        for p in PRONOUNS {
            // word-boundary-ish replacement, case-insensitive on the pronoun
            for variant in [p.to_string(), capitalize(p)] {
                let padded = format!(" {variant} ");
                out = out.replace(&padded, &format!(" {name} "));
                // utterance-initial pronoun ("It is produced by?")
                let leading = format!("{variant} ");
                if out.starts_with(&leading) {
                    out = format!("{name} {}", &out[leading.len()..]);
                }
            }
            // trailing pronoun ("…directed by it?"): compare the raw byte
            // suffix ASCII-case-insensitively — byte-length-changing case
            // folds (e.g. 'İ') must never skew the cut offset.
            let suffix = format!(" {p}?");
            let n = suffix.len();
            if out.len() >= n
                && out.is_char_boundary(out.len() - n)
                && out[out.len() - n..].eq_ignore_ascii_case(&suffix)
            {
                let cut = out.len() - n + 1; // keep the leading space
                out = format!("{}{name}?", &out[..cut]);
            }
        }
        out
    }

    /// Consult the fault injector, counting injected faults.
    fn fault(&self, span: &obs::Span, point: FaultPoint) -> bool {
        if self.faults.should_fail(point) {
            span.count("resilience.faults_injected", 1);
            true
        } else {
            false
        }
    }

    /// The transcript so far.
    pub fn session(&self) -> &ChatSession {
        &self.session
    }
}

/// Record one ladder fall: append it to the trace and bump the
/// `resilience.*` fallback counters.
fn fall(
    span: &obs::Span,
    trace: &mut DegradationTrace,
    rung: &'static str,
    reason: impl Into<String>,
) {
    span.count("resilience.fallbacks", 1);
    span.count(&format!("resilience.fallback.{rung}"), 1);
    trace.fall(rung, reason);
}

fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg::synth::{movies, Scale};
    use kgextract::testgen::{corpus_sentences, entity_surface_forms};

    fn fixture() -> (kg::synth::SynthKg, Slm) {
        let kg = movies(221, Scale::default());
        let corpus = corpus_sentences(&kg.graph, &kg.ontology);
        let slm = Slm::builder()
            .corpus(corpus.iter().map(String::as_str))
            .entity_names(entity_surface_forms(&kg.graph).iter().map(String::as_str))
            .build();
        (kg, slm)
    }

    #[test]
    fn entity_question_routes_to_kg() {
        let (kg, slm) = fixture();
        let g = &kg.graph;
        let mut bot = ChatBot::new(g, &slm);
        let film_class = g
            .pool()
            .get_iri(&format!("{}Film", kg::namespace::SYNTH_VOCAB))
            .unwrap();
        let film = g.instances_of(film_class)[0];
        let directed = g
            .pool()
            .get_iri(&format!("{}directedBy", kg::namespace::SYNTH_VOCAB))
            .unwrap();
        let director = g.objects(film, directed)[0];
        let reply = bot.handle(&format!("What is {} directed by?", g.display_name(film)));
        assert_eq!(reply.decision, RouterDecision::KgQuery);
        assert!(reply.text.contains(&g.display_name(director)), "{reply:?}");
        assert!(reply.sparql.is_some());
        assert_eq!(bot.focus, Some(film));
    }

    #[test]
    fn pronoun_followup_uses_focus_entity() {
        let (kg, slm) = fixture();
        let g = &kg.graph;
        let mut bot = ChatBot::new(g, &slm);
        let film_class = g
            .pool()
            .get_iri(&format!("{}Film", kg::namespace::SYNTH_VOCAB))
            .unwrap();
        let film = g.instances_of(film_class)[0];
        bot.handle(&format!("What is {} directed by?", g.display_name(film)));
        // follow-up with a pronoun
        let produced = g
            .pool()
            .get_iri(&format!("{}producedBy", kg::namespace::SYNTH_VOCAB))
            .unwrap();
        let studio = g.objects(film, produced)[0];
        let reply = bot.handle("And what is it produced by?");
        assert_eq!(reply.decision, RouterDecision::KgQuery, "{reply:?}");
        assert!(reply.text.contains(&g.display_name(studio)), "{reply:?}");
    }

    #[test]
    fn utterance_initial_pronoun_resolves() {
        let (kg, slm) = fixture();
        let g = &kg.graph;
        let mut bot = ChatBot::new(g, &slm);
        let film_class = g
            .pool()
            .get_iri(&format!("{}Film", kg::namespace::SYNTH_VOCAB))
            .unwrap();
        let film = g.instances_of(film_class)[0];
        bot.handle(&format!("What is {} directed by?", g.display_name(film)));
        let produced = g
            .pool()
            .get_iri(&format!("{}producedBy", kg::namespace::SYNTH_VOCAB))
            .unwrap();
        let studio = g.objects(film, produced)[0];
        // pronoun as the FIRST word of the utterance
        let reply = bot.handle("It is produced by what?");
        assert_eq!(reply.decision, RouterDecision::KgQuery, "{reply:?}");
        assert!(reply.text.contains(&g.display_name(studio)), "{reply:?}");
    }

    #[test]
    fn observed_turn_records_route_rows_and_executor_work() {
        let (kg, slm) = fixture();
        let g = &kg.graph;
        let mut bot = ChatBot::new(g, &slm);
        let film_class = g
            .pool()
            .get_iri(&format!("{}Film", kg::namespace::SYNTH_VOCAB))
            .unwrap();
        let film = g.instances_of(film_class)[0];
        let (tracer, recorder) = obs::Tracer::in_memory();
        let root = tracer.span("dialogue");
        let reply = bot.handle_observed(
            &format!("What is {} directed by?", g.display_name(film)),
            &root,
        );
        bot.handle_observed("nice weather today, is it not", &root);
        root.finish();
        assert_eq!(reply.decision, RouterDecision::KgQuery);
        assert!(reply.rows > 0);
        assert!(reply.exec.index_probes > 0, "{:?}", reply.exec);

        let dialogue = recorder.take().pop().expect("root recorded");
        assert_eq!(dialogue.children.len(), 2, "one span per turn");
        let turn = &dialogue.children[0];
        assert_eq!(turn.name, "chatbot.turn");
        assert_eq!(
            turn.attr("route").and_then(obs::AttrValue::as_str),
            Some("kg-query")
        );
        assert_eq!(turn.attr_u64("rows"), Some(reply.rows as u64));
        let exec = turn.find("sparql.execute").expect("nested executor span");
        assert_eq!(
            exec.attr_u64("index_probes"),
            Some(reply.exec.index_probes as u64)
        );
        assert_eq!(
            dialogue.children[1]
                .attr("route")
                .and_then(obs::AttrValue::as_str),
            Some("llm-chat")
        );
        let reg = tracer.registry();
        assert_eq!(reg.counter("chatbot.turns"), 2);
        assert_eq!(reg.counter("chatbot.kg_answers"), 1);
        assert_eq!(reg.counter("chatbot.llm_fallbacks"), 1);
        assert!(reg.counter("exec.index_probes") >= reply.exec.index_probes as u64);
    }

    #[test]
    fn shared_plan_cache_hits_across_anchors_and_turns() {
        let (kg, slm) = fixture();
        let g = &kg.graph;
        let cache = Arc::new(PlanCache::default());
        let film_class = g
            .pool()
            .get_iri(&format!("{}Film", kg::namespace::SYNTH_VOCAB))
            .unwrap();
        let films = g.instances_of(film_class);
        let (tracer, _recorder) = obs::Tracer::in_memory();
        let root = tracer.span("dialogue");

        // two bots (two "sessions") share one cache; different anchor
        // entities, same relation chain → one compiled plan
        let mut replies = Vec::new();
        for film in films.iter().take(2) {
            let mut bot = ChatBot::new(g, &slm).with_plan_cache(Arc::clone(&cache));
            let q = format!("What is {} directed by?", g.display_name(*film));
            replies.push(bot.handle_observed(&q, &root));
        }
        root.finish();
        for r in &replies {
            assert_eq!(r.decision, RouterDecision::KgQuery, "{r:?}");
            // the reply still carries the classic inlined query text
            let sparql = r.sparql.as_deref().unwrap();
            assert!(sparql.contains("<http://"), "{sparql}");
            assert!(!sparql.contains("?anchor"), "{sparql}");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 1, "{stats:?}");
        let reg = tracer.registry();
        assert_eq!(reg.counter("plan_cache.hits"), 1);
        assert_eq!(reg.counter("plan_cache.misses"), 1);

        // cached answers match an uncached bot's answers
        let mut plain = ChatBot::new(g, &slm);
        let q = format!("What is {} directed by?", g.display_name(films[0]));
        let uncached = plain.handle(&q);
        assert_eq!(uncached.text, replies[0].text);
    }

    #[test]
    fn chitchat_routes_to_llm() {
        let (kg, slm) = fixture();
        let mut bot = ChatBot::new(&kg.graph, &slm);
        let reply = bot.handle("hello there, nice weather");
        assert_eq!(reply.decision, RouterDecision::LlmChat);
    }

    #[test]
    fn transcript_grows() {
        let (kg, slm) = fixture();
        let mut bot = ChatBot::new(&kg.graph, &slm);
        bot.handle("hello");
        bot.handle("how are you?");
        assert!(bot.session().messages().len() >= 5); // system + 2×(user+assistant)
    }
}
