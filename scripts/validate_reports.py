#!/usr/bin/env python3
"""Validate the JSON reports the bench harnesses emit.

One entrypoint for every CI report gate (the checks used to live as
inline python blocks in .github/workflows/ci.yml):

    validate_reports.py query-smoke      [reports/query_bench_smoke.json]
    validate_reports.py query-counters   <committed.json> <fresh.json>
    validate_reports.py retrieval-smoke  [reports/retrieval_bench_smoke.json]
    validate_reports.py retrieval-counters <committed.json> <fresh.json>
    validate_reports.py serve-smoke      [reports/serve_bench_smoke.json]
                                         (also the committed full report)
    validate_reports.py plan-cache       [reports/query_bench_smoke.json]
    validate_reports.py recovery         [reports/recovery_bench.json]

Each subcommand loads one report (the -counters checks: two), asserts
its schema and invariants, and prints a one-line OK summary. Any assertion
failure exits non-zero with the offending value in the message. The
vendored serde_json stub has no parser, so these checks run under the
system python instead of Rust.
"""

import json
import os
import sys


# Allocations per result row of query_bench's `result_allocs` series.
RESULT_ALLOCS_PER_ROW_BOUND = 2


def load(path):
    with open(path) as f:
        return json.load(f)


def validate_query_smoke(path):
    r = load(path)
    assert r["mode"] == "smoke", r["mode"]
    assert r["queries"], "no query entries"
    assert r["limit_streaming"]["queries"], "no limit entries"
    # the synthetic graphs arrive compacted, so at least one BGP
    # stage of the standard workload must take the merge-join path
    assert any(q["stats"]["merge_joins"] > 0 for q in r["queries"]), \
        [q["stats"] for q in r["queries"]]
    ej = r["encoded_join"]
    assert ej["graph"]["triples"] > 0, ej["graph"]
    mem = ej["memory"]
    assert mem["flat_bytes"] > 0 and mem["btree_bytes"] > 0, mem
    assert mem["ratio"] > 1.0, mem  # flat arena must be smaller
    join = ej["join"]
    assert join["rows"] > 0 and join["checksum"], join
    assert join["probe_ns"] > 0 and join["merge_ns"] > 0, join
    validate_plan_cache_series(r)
    # result_allocs: a deterministic allocation count, so the bound is
    # exact on any runner. Results hold interned cells resolved on read;
    # the sequential executor allocates one frontier binding per row
    # plus a fixed overhead (see CHANGES.md for the measured counts).
    ra = r["result_allocs"]
    assert ra["rows"] > 0 and ra["allocations"] > 0, ra
    assert ra["allocs_per_row"] < RESULT_ALLOCS_PER_ROW_BOUND, ra
    profiles = {p["name"]: p["profile"] for p in r["profiles"]}
    assert set(profiles) == {"chatbot", "rag_naive", "rag_modular", "hybrid"}, set(profiles)
    chat = profiles["chatbot"]
    assert chat["route"] == "kg-query", chat["route"]
    assert chat["executor"]["index_probes"] > 0, chat["executor"]
    assert chat["counters"]["exec.queries"] == 1, chat["counters"]
    assert chat["counters"]["chatbot.turns"] == 1, chat["counters"]
    # the profiled turn runs after a warmup turn over the workbench's
    # shared plan cache: steady-state serving must hit, never compile
    assert chat["counters"].get("plan_cache.hits", 0) >= 1, chat["counters"]
    assert chat["counters"].get("plan_cache.misses", 0) == 0, chat["counters"]
    naive = profiles["rag_naive"]
    assert naive["retrieval"]["vectors_scanned"] > 0, naive["retrieval"]
    assert naive["retrieval"]["heap_pushes"] > 0, naive["retrieval"]
    hybrid = profiles["hybrid"]
    assert hybrid["route"] == "store+llm", hybrid["route"]
    assert hybrid["counters"]["hybrid.llm_calls"] > 0, hybrid["counters"]
    assert hybrid["executor"]["index_probes"] > 0, hybrid["executor"]
    for name, p in profiles.items():
        assert p["wall_ns"] > 0, name
        assert p["spans"], name
        assert p["retrieval"]["candidates"] > 0, (name, p["retrieval"])
        # healthy serving paths: present but all-zero resilience block
        assert not p["resilience"]["degraded"], (name, p["resilience"])
        assert p["resilience"]["fallbacks"] == 0, (name, p["resilience"])
    res = r["resilience"]
    assert res["deadline_ms"] == 10000, res
    assert res["budgeted_queries"]["completed"] > 0, res
    assert res["budgeted_queries"]["limit_hits"] == 0, res
    assert res["fallbacks"] == 0 and res["faults_injected"] == 0, res
    print("profile JSON OK:", ", ".join(sorted(profiles)))


# query_bench's deterministic work counters, per series: a function from
# a report to {entry name: {counter: value}}. Allocation counts are left
# to RESULT_ALLOCS_PER_ROW_BOUND, since they may move with the toolchain.
QUERY_COUNTER_SERIES = {
    "queries": lambda r: {
        q["query"]: {"rows": q["rows"], **q["stats"]} for q in r["queries"]
    },
    "limit_streaming": lambda r: {
        q["query"]: {
            k: q[k] for k in ("rows", "streamed_bindings", "materialized_bindings")
        }
        for q in r["limit_streaming"]["queries"]
    },
    "encoded_join": lambda r: {
        "join": {k: r["encoded_join"]["join"][k] for k in ("rows", "checksum")}
    },
}


def validate_query_counters(committed_path, fresh_path):
    """A fresh query_bench run must reproduce the committed report's work
    counters exactly: same entries, same rows, same counters. They depend
    only on the seeded graphs and the executor, never on the runner."""
    committed, fresh = load(committed_path), load(fresh_path)
    assert committed["mode"] == fresh["mode"], (committed["mode"], fresh["mode"])
    checked = 0
    for series, counters in QUERY_COUNTER_SERIES.items():
        want, got = counters(committed), counters(fresh)
        assert sorted(want) == sorted(got), (series, sorted(want), sorted(got))
        for name, values in want.items():
            assert got[name] == values, (series, name, values, got[name])
            checked += 1
    print("query counters OK: %d entries match %s" % (checked, committed_path))


def validate_plan_cache_series(r):
    """The prepared_repeat invariants, shared by query-smoke and plan-cache."""
    pr = r["prepared_repeat"]
    n = pr["workload_queries"]
    assert n > 0, pr
    planning = pr["planning"]
    assert planning["cold_plan_ns"] > 0, planning
    assert planning["cached_plan_ns"] > 0, planning
    assert planning["speedup"] > 0, planning
    passes = {p["pass"]: p for p in pr["passes"]}
    assert set(passes) == {1, 2}, passes
    # pass 1 compiles the whole workload cold; pass 2 must hit
    assert passes[1]["misses"] == n and passes[1]["hits"] == 0, passes
    assert passes[2]["hits"] > 0, passes
    assert pr["hit_rate"] > 0.0, pr["hit_rate"]
    cache = pr["cache"]
    assert cache["entries"] > 0, cache
    assert cache["hits"] > 0, cache
    tpl = pr["template"]
    assert tpl["anchors_checked"] > 0, tpl
    assert "VALUES" in tpl["gate"], tpl


def validate_plan_cache(path):
    r = load(path)
    validate_plan_cache_series(r)
    pr = r["prepared_repeat"]
    print("plan cache OK: hit rate %.2f over %d queries, cached plan %.0f ns (cold %.0f ns)"
          % (pr["hit_rate"], pr["workload_queries"],
             pr["planning"]["cached_plan_ns"], pr["planning"]["cold_plan_ns"]))


def validate_retrieval_smoke(path):
    r = load(path)
    # the same schema ships in smoke (CI) and full (committed) reports
    assert r["mode"] in ("smoke", "full"), r["mode"]
    assert r["exact"], "no exact series"
    for e in r["exact"]:
        assert e["hits_identical"] and e["bits_identical"], e
        assert e["vectors_scanned"] == e["n_docs"] * e["queries"], e
        assert e["seed_ns_per_query"] > 0 and e["arena_ns_per_query"] > 0, e
        for field in ("seed_ns_per_query", "arena_ns_per_query"):
            q1, q3 = e[field + "_quartiles"]
            assert q1 <= e[field] <= q3, (field, e)
    # SIMD dispatch: a known path, and — when the runner pins
    # EXPECT_DISPATCH — exactly the expected one
    assert r["dispatch"] in ("scalar", "avx2", "neon"), r["dispatch"]
    expected = os.environ.get("EXPECT_DISPATCH")
    if expected:
        assert r["dispatch"] == expected, \
            f"dispatch {r['dispatch']!r} != EXPECT_DISPATCH {expected!r}"
    print("retrieval JSON OK:", len(r["exact"]), "sizes, dispatch", r["dispatch"])


# retrieval_bench's work counters per exact-series entry; they depend only
# on the seeded corpus and the search, never on the runner (scores are
# bit-identical across dispatch paths and a search runs on one thread).
RETRIEVAL_COUNTERS = ("queries", "vectors_scanned", "heap_pushes",
                      "hits_identical", "bits_identical")


def validate_retrieval_counters(committed_path, fresh_path):
    """A fresh retrieval_bench run must reproduce the committed report's
    exact-series counters: same entries by n_docs, same counters."""
    committed, fresh = load(committed_path), load(fresh_path)
    assert committed["mode"] == fresh["mode"], (committed["mode"], fresh["mode"])

    def entries(r):
        return {e["n_docs"]: {k: e[k] for k in RETRIEVAL_COUNTERS} for e in r["exact"]}

    want, got = entries(committed), entries(fresh)
    assert sorted(want) == sorted(got), (sorted(want), sorted(got))
    for n_docs, values in want.items():
        assert got[n_docs] == values, (n_docs, values, got[n_docs])
    print("retrieval counters OK: %d entries match %s" % (len(want), committed_path))


def validate_serve_smoke(path):
    r = load(path)
    # the committed full report has the same schema; these checks are
    # all timing-free, so they bind in both modes
    assert r["mode"] in ("smoke", "full"), r["mode"]
    assert "never errors" in r["contract"], r["contract"]
    assert r["closed_loop"] and r["open_loop"], "missing series"
    for rung in r["closed_loop"] + r["open_loop"]:
        classes = rung["classes"]
        total = sum(c["count"] for c in classes.values())
        answered = sum(c["ok"] for c in classes.values())
        assert total == rung["requests"], rung
        # the contract: every request answered, even at 10x overload
        assert answered == total, rung
        for c in classes.values():
            assert c["p99_us"] >= c["p50_us"] >= 0, c
    first, last = r["closed_loop"][0], r["closed_loop"][-1]
    # an unloaded single closed-loop client never sheds...
    assert sum(c["shed"] for c in first["classes"].values()) == 0, first
    # ...and the overload rung must actually trip admission
    assert last["overload_factor"] >= 10, last
    pressure = sum(c["shed"] + c["degraded"] for c in last["classes"].values())
    assert pressure > 0, last
    counters = r["server_stats"]["counters"]
    # the server's own ledger must balance: every accepted request
    # line either ran, was shed, or was the final stats probe
    assert counters["serve.accepted"] == (
        counters["serve.requests"] + counters.get("serve.shed", 0) + 1
    ), counters
    assert counters.get("serve.protocol_errors", 0) == 0, counters
    assert counters.get("serve.client_errors", 0) == 0, counters
    assert counters["serve.inflight"] == 0, counters
    assert counters["serve.queue_depth"] == 0, counters
    hists = r["server_stats"]["histograms"]
    for s in ("chat", "rag", "sparql", "complete"):
        assert hists["serve.latency_us." + s]["count"] > 0, s
    # the stats reply's live gauges and its retrieval block
    gauges = r["server_stats"]["gauges"]
    assert "plan_cache.warmth" in gauges, gauges
    retrieval = r["server_stats"]["retrieval"]
    assert retrieval["docs_indexed"] > 0, retrieval
    assert retrieval["dispatch"] in ("scalar", "avx2", "neon"), retrieval
    print("serve JSON OK (%s):" % r["mode"], len(r["closed_loop"]), "closed rungs,",
          "shed", counters.get("serve.shed", 0),
          "degraded", counters.get("serve.degraded", 0))


def validate_recovery(path):
    r = load(path)
    assert r["mode"] in ("smoke", "full"), r["mode"]
    assert "bit-identical to an oracle replay" in r["contract"], r["contract"]
    commit = r["group_commit"]
    assert len(commit) >= 2, "need at least two group-commit windows"
    for row in commit:
        # every batch recovered in every window configuration
        assert row["recovered_batches"] == row["batches"], row
        assert row["fsyncs"] > 0, row
        assert row["batches_per_sec"] > 0, row
    # wider windows must not fsync more often
    by_window = sorted(commit, key=lambda row: row["window"])
    fsyncs = [row["fsyncs"] for row in by_window]
    assert fsyncs == sorted(fsyncs, reverse=True), fsyncs
    series = r["recovery_vs_wal_length"]
    assert series, "no recovery series"
    for row in series:
        assert row["batches_replayed"] == row["batches"], row
        assert row["reopen_us"] > 0 and row["wal_bytes"] > 0, row
    ckpt = r["checkpoint"]
    assert ckpt["reopen_via_checkpoint_us"] > 0, ckpt
    # loading the snapshot must beat replaying the whole log
    assert ckpt["speedup"] > 1.0, ckpt
    assert ckpt["checkpoint_triples"] > 0, ckpt
    torn = r["torn_tail"]
    assert torn, "no torn-tail sweep"
    assert torn[0]["keep_pct"] == 100 and torn[0]["recovered_batches"] > 0, torn[0]
    # shorter surviving prefixes recover monotonically fewer batches,
    # and a tear inside the log shows up as a truncated segment
    kept = [row["recovered_batches"] for row in torn]
    assert kept == sorted(kept, reverse=True), kept
    assert any(row["truncated_segments"] > 0 for row in torn[1:]), torn
    print("recovery JSON OK: %d windows, %d WAL lengths, checkpoint speedup %.1fx"
          % (len(commit), len(series), ckpt["speedup"]))


# subcommand -> (check, default report paths); the arguments given on
# the command line replace the defaults, and there must be as many.
COMMANDS = {
    "query-smoke": (validate_query_smoke, ["reports/query_bench_smoke.json"]),
    "query-counters": (validate_query_counters, [None, None]),
    "retrieval-smoke": (validate_retrieval_smoke, ["reports/retrieval_bench_smoke.json"]),
    "retrieval-counters": (validate_retrieval_counters, [None, None]),
    "serve-smoke": (validate_serve_smoke, ["reports/serve_bench_smoke.json"]),
    "plan-cache": (validate_plan_cache, ["reports/query_bench_smoke.json"]),
    "recovery": (validate_recovery, ["reports/recovery_bench.json"]),
}


def main(argv):
    if len(argv) < 2 or argv[1] not in COMMANDS:
        names = " | ".join(sorted(COMMANDS))
        print(f"usage: validate_reports.py <{names}> [report.json ...]", file=sys.stderr)
        return 2
    fn, defaults = COMMANDS[argv[1]]
    paths = argv[2:] or defaults
    if len(paths) != len(defaults) or None in paths:
        print(f"usage: validate_reports.py {argv[1]} "
              f"{' '.join('<report.json>' for _ in defaults)}", file=sys.stderr)
        return 2
    try:
        fn(*paths)
    except AssertionError as e:
        print(f"{argv[1]}: report invariant violated: {e!r}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print(f"{argv[1]}: cannot validate {' '.join(paths)}: {e!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
