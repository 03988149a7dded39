//! Deterministic chaos suite: seeds × injection points across the serving
//! paths (see `docs/resilience.md`).
//!
//! Invariants, for every seed and fault plan:
//!
//! * no serving path ever panics;
//! * every turn produces a non-empty reply (the bottom ladder rung is a
//!   diagnostic apology, not silence);
//! * any reply not served by the primary route carries degradation
//!   markers saying which rungs failed and why;
//! * the same seed reproduces byte-identical replies and traces;
//! * the executor honors 0-row and zero-wall-clock budgets with
//!   `LimitExceeded` / truncation instead of hanging.
//!
//! CI runs the suite across a seed matrix via `CHAOS_SEEDS` (comma-
//! separated); unset, a default 4-seed set runs.

use std::time::Duration;

use llmkg::kgqa::chatbot::RouterDecision;
use llmkg::kgquery::exec::{execute, ExecOptions};
use llmkg::kgquery::{parser, QueryError};
use llmkg::kgrag::RagMode;
use llmkg::obs::Span;
use llmkg::resilience::{FaultPlan, FaultPoint, Limit, ResourceLimits};
use llmkg::{Workbench, WorkbenchConfig};

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![1, 7, 42, 2024],
    }
}

fn workbench() -> Workbench {
    Workbench::build(&WorkbenchConfig {
        entities_per_class: 8,
        ..Default::default()
    })
}

/// One scripted dialogue under a fault plan; returns (reply text, route
/// label, rendered degradation trace) per turn.
fn run_dialogue(wb: &Workbench, plan: &FaultPlan) -> Vec<(String, &'static str, String)> {
    let g = wb.graph();
    let film = g.display_name(g.entities()[0]);
    let turns = [
        format!("What is {film} directed by?"),
        "hello there, nice weather".to_string(),
        format!("Who is starring in {film}?"),
    ];
    let mut bot = wb.chatbot().with_faults(plan);
    turns
        .iter()
        .map(|t| {
            let r = bot.handle(t);
            assert!(!r.text.is_empty(), "empty reply for {t:?} under {plan:?}");
            (r.text, r.decision.label(), r.degradation.render())
        })
        .collect()
}

#[test]
fn chatbot_survives_every_fault_point_and_stays_deterministic() {
    let wb = workbench();
    for seed in seeds() {
        for point in FaultPoint::ALL {
            let plan = FaultPlan::seeded(seed).only(&[point]);
            let first = run_dialogue(&wb, &plan);
            let again = run_dialogue(&wb, &FaultPlan::seeded(seed).only(&[point]));
            assert_eq!(first, again, "seed {seed} point {point:?} not reproducible");
        }
        // all points at once, aggressive rate
        let all = FaultPlan::seeded(seed).rate(1, 2);
        let first = run_dialogue(&wb, &all);
        let again = run_dialogue(&wb, &FaultPlan::seeded(seed).rate(1, 2));
        assert_eq!(first, again, "seed {seed} all-points not reproducible");
    }
}

#[test]
fn chatbot_with_every_rung_dead_apologizes_with_diagnosis() {
    let wb = workbench();
    let g = wb.graph();
    let film = g.display_name(g.entities()[0]);
    let plan = FaultPlan::always(&FaultPoint::ALL);
    let mut bot = wb.chatbot().with_faults(&plan);
    let reply = bot.handle(&format!("What is {film} directed by?"));
    assert_eq!(reply.decision, RouterDecision::Apology);
    assert!(!reply.text.is_empty());
    assert!(reply.degradation.degraded());
    assert_eq!(reply.degradation.served_by(), Some("apology"));
    // the apology names the failed rungs
    assert!(reply.text.contains("text2sparql"), "{}", reply.text);
    assert!(plan.injected() > 0);
}

#[test]
fn degraded_chatbot_replies_carry_markers() {
    let wb = workbench();
    let g = wb.graph();
    let film = g.display_name(g.entities()[0]);
    // kill only the primary route: the ladder must fall and say so
    let plan = FaultPlan::always(&[FaultPoint::Parse]);
    let mut bot = wb.chatbot().with_faults(&plan);
    let reply = bot.handle(&format!("What is {film} directed by?"));
    assert_ne!(reply.decision, RouterDecision::KgQuery);
    assert!(reply.degradation.degraded());
    assert!(
        reply.degradation.render().contains("fault injected: parse"),
        "{}",
        reply.degradation.render()
    );
}

#[test]
fn rag_survives_every_fault_point_and_stays_deterministic() {
    let wb = workbench();
    let g = wb.graph();
    let film = g.display_name(g.entities()[0]);
    let question = format!("Who directed {film}?");
    for seed in seeds() {
        for point in FaultPoint::ALL {
            let run = |plan: &FaultPlan| {
                let rag = wb.rag().with_faults(plan);
                RagMode::all()
                    .iter()
                    .map(|&m| {
                        let a = rag.answer(m, &question);
                        assert!(!a.text.is_empty(), "empty {} answer", m.name());
                        (a.text, a.module, a.degradation.render())
                    })
                    .collect::<Vec<_>>()
            };
            let first = run(&FaultPlan::seeded(seed).only(&[point]));
            let again = run(&FaultPlan::seeded(seed).only(&[point]));
            assert_eq!(first, again, "seed {seed} point {point:?} not reproducible");
        }
    }
}

#[test]
fn rag_with_every_rung_dead_apologizes() {
    let wb = workbench();
    let g = wb.graph();
    let film = g.display_name(g.entities()[0]);
    let plan = FaultPlan::always(&FaultPoint::ALL);
    let rag = wb.rag().with_faults(&plan);
    let a = rag.answer(RagMode::Modular, &format!("Who directed {film}?"));
    assert_eq!(a.module, "apology");
    assert!(!a.text.is_empty());
    assert!(a.degradation.degraded());
    assert_eq!(a.degradation.served_by(), Some("apology"));
}

#[test]
fn executor_honors_zero_row_budget() {
    let wb = workbench();
    let q = parser::parse(
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT ?f ?a WHERE { ?f v:starring ?a } ORDER BY ?f",
    )
    .unwrap();
    let opts = ExecOptions::with_limits(ResourceLimits::unlimited().with_max_rows(0));
    match execute(wb.graph(), &q, &opts, &Span::disabled()) {
        Err(QueryError::LimitExceeded { limit, .. }) => assert_eq!(limit, Limit::Rows(0)),
        other => panic!("expected LimitExceeded, got {other:?}"),
    }
}

#[test]
fn executor_honors_tiny_wall_clock_budget_without_hanging() {
    // A cross product whose full materialization would be ~10^7 rows; an
    // expired wall budget must terminate it promptly with LimitExceeded
    // (materializing shape), not hang. Uses wall=0 so the outcome does not
    // depend on host speed.
    let kg = llmkg::kg::synth::movies(3, llmkg::kg::synth::Scale::medium());
    let q = parser::parse(
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT ?a ?b WHERE { ?x v:starring ?a . ?y v:starring ?b } ORDER BY ?a",
    )
    .unwrap();
    let opts = ExecOptions::with_limits(ResourceLimits::unlimited().with_wall(Duration::ZERO));
    match execute(&kg.graph, &q, &opts, &Span::disabled()) {
        Err(QueryError::LimitExceeded { limit, .. }) => assert_eq!(limit, Limit::WallMs(0)),
        other => panic!("expected LimitExceeded, got {other:?}"),
    }
}

#[test]
fn cross_product_with_row_budget_terminates_promptly() {
    // Same blow-up shape but guarded by a row budget: the executor checks
    // rows per input binding, so it must stop around the budget instead of
    // materializing the full cross product (> 10^7 rows at this scale).
    let kg = llmkg::kg::synth::movies(
        3,
        llmkg::kg::synth::Scale {
            entities_per_class: 1200,
        },
    );
    let starring = kg
        .graph
        .pool()
        .get_iri(&format!("{}starring", llmkg::kg::namespace::SYNTH_VOCAB))
        .unwrap();
    let edges = kg.graph.predicate_card(starring).triples as u64;
    assert!(edges * edges > 10_000_000, "{edges}^2 too small");
    let q = parser::parse(
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT ?a ?b WHERE { ?x v:starring ?a . ?y v:starring ?b } ORDER BY ?a",
    )
    .unwrap();
    let opts = ExecOptions::with_limits(ResourceLimits::unlimited().with_max_rows(1000));
    match execute(&kg.graph, &q, &opts, &Span::disabled()) {
        Err(QueryError::LimitExceeded { limit, .. }) => assert_eq!(limit, Limit::Rows(1000)),
        other => panic!("expected LimitExceeded, got {other:?}"),
    }
}

#[test]
fn chatbot_under_query_limits_degrades_instead_of_failing() {
    let wb = workbench();
    let g = wb.graph();
    let film = g.display_name(g.entities()[0]);
    // a 0-row budget makes every generated query trip: the bot must fall
    // down the ladder and still answer
    let mut bot = wb
        .chatbot()
        .with_limits(ResourceLimits::unlimited().with_max_rows(0));
    let reply = bot.handle(&format!("What is {film} directed by?"));
    assert!(!reply.text.is_empty());
    assert_ne!(reply.decision, RouterDecision::KgQuery);
    assert!(reply.degradation.degraded(), "{reply:?}");
}

#[test]
fn profile_surfaces_resilience_counters() {
    let wb = workbench();
    let g = wb.graph();
    let film_class = g
        .pool()
        .get_iri(&format!("{}Film", llmkg::kg::namespace::SYNTH_VOCAB))
        .unwrap();
    let film = g.display_name(g.instances_of(film_class)[0]);
    let profile = wb.profile_answer(&format!("What is {film} directed by?"));
    // healthy run: counters exist and are zero
    assert!(!profile.resilience.degraded);
    assert_eq!(profile.resilience.fallbacks, 0);
    assert_eq!(profile.resilience.faults_injected, 0);
    let text = llmkg::serde_json::to_string(&profile.to_json()).unwrap();
    assert!(text.contains("\"resilience\""), "{text}");
    assert!(text.contains("\"faults_injected\""), "{text}");
}
