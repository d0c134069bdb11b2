"""Reduce one raw measurement document to the benchmark's metrics.

The C++ benchmark program (g500_perfbench.cpp) writes what it measured: per-rank call
timings, the counters the library calls returned, serving answers and, in a
traced run, spans.  This module turns that into the named end-to-end and
per-layer metrics, computes span self times, and writes the Chrome trace.
Everything here is a pure function of the document, so the tests can drive
it with small hand-made inputs.
"""

import math
import statistics

# (name, unit, which direction is better).  BENCHMARK.json lists the same
# metrics (a test checks it); README.md defines each one per workload.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("total_s", "s", "lower"),
    ("sssp_p50_s", "s", "lower"),
    ("sssp_tail_s", "s", "lower"),
    ("teps_hmean", "TEPS", "higher"),
    ("validate_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("saturated_qps", "1/s", "higher"),
]

# Printed with every untraced run but not listed in BENCHMARK.json: on the
# reference host (4 shared vCPUs) the interquartile spread of the
# serve-mutate tail over ten runs of one commit reached 0.46 of its median,
# more than any bound BENCHMARK.json may set.
PRINTED_ONLY = [
    ("query_tail_ms", "ms", "lower"),
]

PER_LAYER = [
    ("graph.generate_s", "s", "lower"),
    ("graph.build_s", "s", "lower"),
    ("graph.build_meps", "Medge/s", "higher"),
    ("graph.resident_mb", "MB", "lower"),
    ("core.relax_generated", "count", "lower"),
    ("core.relax_sent", "count", "lower"),
    ("core.relax_applied", "count", "lower"),
    ("core.useful_frac", "ratio", "higher"),
    ("core.hub_filtered_frac", "ratio", "higher"),
    ("core.coalesce_filtered_frac", "ratio", "higher"),
    ("core.fused_local_frac", "ratio", "higher"),
    ("core.relax_imbalance", "ratio", "lower"),
    ("core.heavy_s", "s", "lower"),
    ("core.light_s", "s", "lower"),
    ("core.buckets", "count", "lower"),
    ("core.light_rounds", "count", "lower"),
    ("core.push_rounds", "count", "lower"),
    ("core.pull_rounds", "count", "lower"),
    ("core.solve_cpu_max_s", "s", "lower"),
    ("core.solve_cpu_mean_s", "s", "lower"),
    ("core.solve_wait_max_s", "s", "lower"),
    ("core.solve_wait_mean_s", "s", "lower"),
    ("core.solve_1rank_s", "s", "lower"),
    ("core.validate_s", "s", "lower"),
    ("core.validate_cpu_s", "s", "lower"),
    ("core.validate_edges_checked", "count", "lower"),
    ("simmpi.collectives_per_root", "count", "lower"),
    ("simmpi.allreduce_calls", "count", "lower"),
    ("simmpi.alltoallv_calls", "count", "lower"),
    ("simmpi.barriers", "count", "lower"),
    ("simmpi.alltoallv_bytes", "B", "lower"),
    ("simmpi.allgather_bytes", "B", "lower"),
    ("simmpi.bytes_per_input_edge", "B", "lower"),
    ("simmpi.validate_bytes", "B", "lower"),
    ("serve.init_s", "s", "lower"),
    ("serve.tick_p50_s", "s", "lower"),
    ("serve.tick_tail_s", "s", "lower"),
    ("serve.waves", "count", "lower"),
    ("serve.pruned_waves", "count", "higher"),
    ("serve.wave_s", "s", "lower"),
    ("serve.fetch_rounds", "count", "lower"),
    ("serve.oracle_exact_frac", "ratio", "higher"),
    ("serve.point_cache_hit_frac", "ratio", "higher"),
    ("serve.queue_wait_ticks_p50", "ticks", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.generator_late_ms", "ms", "lower"),
    ("dyn.update_p50_ms", "ms", "lower"),
    ("dyn.commit_s", "s", "lower"),
    ("serve.invalidate_s", "s", "lower"),
    ("dyn.repair_s", "s", "lower"),
    ("dyn.repair_relax_applied", "count", "lower"),
    ("dyn.roots_retained_frac", "ratio", "higher"),
    ("dyn.points_retained_frac", "ratio", "higher"),
    ("dyn.compactions", "count", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.own_frac", "ratio", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("host.steal_frac", "ratio", "lower"),
    ("host.load1_delta", "count", "lower"),
]


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------

TAIL_BEYOND = 10


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, n).  With n samples sorted ascending the
    value is the (n - 10)-th, so exactly ten samples lie beyond it; the
    percentile is the share of samples at or below it.  Needs n >= 11.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError("tail needs more than %d samples, got %d"
                         % (TAIL_BEYOND, n))
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def harmonic_mean(values):
    if not values or min(values) <= 0:
        raise ValueError("harmonic mean needs positive samples")
    return len(values) / sum(1.0 / v for v in values)


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Spans: self time and Chrome trace.
# ---------------------------------------------------------------------------

def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def flatten_spans(lanes):
    """Span lanes -> list of dicts with global ids and parent ids.

    `lanes[l][i]` is [name, start_s, end_s, parent_lane, parent_index,
    tag]; lane 0 is the main thread, lane r + 1 is rank r.
    """
    spans = []
    for lane, entries in enumerate(lanes):
        for index, (name, start, end, plane, pindex, tag) in enumerate(entries):
            spans.append({
                "id": (lane, index),
                "name": name,
                "start": start,
                "end": end,
                "parent": (plane, pindex) if pindex >= 0 else None,
                "lane": lane,
                "tag": tag,
            })
    return spans


def self_times(spans):
    """Map span id -> self time: its duration minus the part of that
    interval its children cover (children may overlap each other)."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(
                (s["start"], s["end"]))
    out = {}
    for s in spans:
        kids = children.get(s["id"], [])
        out[s["id"]] = (s["end"] - s["start"]) - covered(kids, s["start"],
                                                         s["end"])
    return out


def critical_lane_spans(spans, rank_lane=1):
    """Spans of the main lane plus one rank lane: on these the children
    of any span never overlap, so self times partition the root's wall."""
    return [s for s in spans if s["lane"] in (0, rank_lane)]


def self_time_by_name(spans):
    """Sum of self times per span name, and the root span's duration."""
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + selfs[s["id"]]
    roots = [s for s in spans if s["parent"] is None]
    wall = sum(s["end"] - s["start"] for s in roots)
    return by_name, wall


def chrome_trace(spans, workload, seed):
    """Chrome trace_event document (JSON object format) of the spans:
    one complete ("X") event per span on pid 0, one thread row per lane,
    the same layout model::chrome_trace emits for priced rounds."""
    selfs = self_times(spans)
    events = [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
               "args": {"name": "perfbench %s seed %d" % (workload, seed)}}]
    lanes = sorted({s["lane"] for s in spans})
    for lane in lanes:
        label = "main" if lane == 0 else "rank %d" % (lane - 1)
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": lane, "args": {"name": label}})
    for s in spans:
        args = {"self_us": selfs[s["id"]] * 1e6}
        if s["tag"] >= 0:
            args["id"] = s["tag"]
        if s["parent"] is not None:
            args["parent"] = "%d.%d" % s["parent"]
        events.append({"name": s["name"], "ph": "X", "pid": 0,
                       "tid": s["lane"], "ts": s["start"] * 1e6,
                       "dur": (s["end"] - s["start"]) * 1e6, "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# Reductions shared by the workloads.
# ---------------------------------------------------------------------------

def rank_max(calls, key="wall_s"):
    return max(c[key] for c in calls)


def rank_mean(calls, key="wall_s"):
    return sum(c[key] for c in calls) / len(calls)


def solve_metrics(records, input_edges):
    """End-to-end solve and validate figures over SolveRecords."""
    solve = [rank_max(r["solve"]) for r in records]
    validate = [rank_max(r["validate"]) for r in records]
    s_tail, s_pct, n = tail(solve)
    return {
        "sssp_p50_s": median(solve),
        "sssp_tail_s": s_tail,
        "teps_hmean": harmonic_mean([input_edges / t for t in solve]),
        "validate_p50_s": median(validate),
    }, {"sssp_tail_s": (s_pct, n)}


def core_layers(records, input_edges):
    """Per-layer core and simmpi metrics over SolveRecords (per root)."""
    n = len(records)
    tot = {}
    per_rank_generated = None
    for r in records:
        gen = [st["relax_generated"] for st in r["stats"]]
        if per_rank_generated is None:
            per_rank_generated = [0] * len(gen)
        for i, g in enumerate(gen):
            per_rank_generated[i] += g
        for key in ("relax_generated", "relax_sent", "relax_applied",
                    "fused_local", "filtered_hub", "filtered_coalesce"):
            tot[key] = tot.get(key, 0) + sum(st[key] for st in r["stats"])
        st0 = r["stats"][0]
        for key in ("buckets", "light_rounds", "push_rounds", "pull_rounds"):
            tot[key] = tot.get(key, 0) + st0[key]
        c0 = r["solve"][0]["comm"]
        for key in ("allreduce_calls", "alltoallv_calls", "barriers"):
            tot[key] = tot.get(key, 0) + c0[key]
        tot["collectives"] = tot.get("collectives", 0) + (
            c0["alltoallv_calls"] + c0["allgather_calls"] +
            c0["allreduce_calls"] + c0["broadcast_calls"] + c0["barriers"])
        for key in ("alltoallv_bytes", "allgather_bytes", "total_bytes"):
            tot["solve_" + key] = tot.get("solve_" + key, 0) + sum(
                c["comm"][key] for c in r["solve"])
        tot["validate_bytes"] = tot.get("validate_bytes", 0) + sum(
            c["comm"]["total_bytes"] for c in r["validate"])
        tot["edges_checked"] = tot.get("edges_checked", 0) + r["edges_checked"]
    gen = tot["relax_generated"]
    mean_rank = sum(per_rank_generated) / len(per_rank_generated)
    wait = [[c["wall_s"] - c["cpu_s"] for c in r["solve"]] for r in records]
    return {
        "core.relax_generated": gen / n,
        "core.relax_sent": tot["relax_sent"] / n,
        "core.relax_applied": tot["relax_applied"] / n,
        "core.useful_frac": ratio(tot["relax_applied"], gen),
        "core.hub_filtered_frac": ratio(tot["filtered_hub"], gen),
        "core.coalesce_filtered_frac": ratio(tot["filtered_coalesce"], gen),
        "core.fused_local_frac": ratio(tot["fused_local"], gen),
        "core.relax_imbalance": ratio(max(per_rank_generated), mean_rank),
        "core.heavy_s": median([max(st["heavy_s"] for st in r["stats"])
                                for r in records]),
        "core.light_s": median([max(st["light_s"] for st in r["stats"])
                                for r in records]),
        "core.buckets": tot["buckets"] / n,
        "core.light_rounds": tot["light_rounds"] / n,
        "core.push_rounds": tot["push_rounds"] / n,
        "core.pull_rounds": tot["pull_rounds"] / n,
        "core.solve_cpu_max_s": median([rank_max(r["solve"], "cpu_s")
                                        for r in records]),
        "core.solve_cpu_mean_s": median([rank_mean(r["solve"], "cpu_s")
                                         for r in records]),
        "core.solve_wait_max_s": median([max(w) for w in wait]),
        "core.solve_wait_mean_s": median([sum(w) / len(w) for w in wait]),
        "core.validate_s": median([rank_max(r["validate"]) for r in records]),
        "core.validate_cpu_s": median([rank_max(r["validate"], "cpu_s")
                                       for r in records]),
        "core.validate_edges_checked": tot["edges_checked"] / n,
        "simmpi.collectives_per_root": tot["collectives"] / n,
        "simmpi.allreduce_calls": tot["allreduce_calls"] / n,
        "simmpi.alltoallv_calls": tot["alltoallv_calls"] / n,
        "simmpi.barriers": tot["barriers"] / n,
        "simmpi.alltoallv_bytes": tot["solve_alltoallv_bytes"] / n,
        "simmpi.allgather_bytes": tot["solve_allgather_bytes"] / n,
        "simmpi.bytes_per_input_edge":
            tot["solve_total_bytes"] / n / input_edges,
        "simmpi.validate_bytes": tot["validate_bytes"] / n,
    }


def setup_of(setup):
    """Max over ranks of generate + build, and the two parts."""
    gen = setup["generate_s"]
    build = setup["build_s"]
    return max(g + b for g, b in zip(gen, build)), max(gen), max(build)


def graph_layers(setups):
    gen = median([setup_of(s)[1] for s in setups])
    build = median([setup_of(s)[2] for s in setups])
    s0 = setups[0]
    return {
        "graph.generate_s": gen,
        "graph.build_s": build,
        "graph.build_meps": s0["input_edges"] / build / 1e6,
        "graph.resident_mb": sum(s0["graph_bytes"]) / 1e6,
    }


def zero_layers(prefixes):
    return {name: 0.0 for name, _, _ in PER_LAYER
            if name.split(".")[0] in prefixes}


# ---------------------------------------------------------------------------
# Workload reductions.
# ---------------------------------------------------------------------------

def protocol_metrics(doc):
    passes = doc["passes"]
    timed_passes = [p for p in passes if p["traced"] == doc["trace"]]
    records = [r for p in timed_passes for r in p["roots"]]
    input_edges = passes[0]["setup"]["input_edges"]
    e2e, notes = solve_metrics(records, input_edges)
    query = [1e3 * (rank_max(r["solve"]) + rank_max(r["validate"]))
             for r in records]
    q_tail, q_pct, q_n = tail(query)
    e2e.update({
        "setup_s": median([setup_of(p["setup"])[0] for p in timed_passes]),
        "total_s": median([p["wall_s"] for p in timed_passes]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "query_p50_ms": median(query),
        "query_tail_ms": q_tail,
        "saturated_qps": 1e3 * len(query) / sum(query),
    })
    notes["query_tail_ms"] = (q_pct, q_n)

    layers = {}
    if doc["trace"]:
        layers.update(graph_layers([p["setup"] for p in timed_passes]))
        layers.update(core_layers(records, input_edges))
        layers["core.solve_1rank_s"] = median(
            [r["solve"][0]["wall_s"] for r in doc["one_rank"]])
        layers.update(zero_layers({"serve", "dyn"}))
        # The first traced pass repeats the roots of the last untraced
        # pass, which ran after a warm-up pass.
        baseline = [p for p in passes if not p["traced"]][-1]
        layers["bench.trace_overhead_frac"] = (
            timed_passes[0]["wall_s"] / baseline["wall_s"] - 1.0)
    return e2e, layers, notes


def serve_metrics(doc):
    sessions = doc["sessions"]
    timed_sessions = [s for s in sessions if s["traced"] == doc["trace"]]
    paced = [s for s in timed_sessions if s["paced"]][0]
    closed = [s for s in timed_sessions if not s["paced"]]
    checks = doc["checks"]
    input_edges = sessions[0]["setup"]["input_edges"]
    e2e, notes = solve_metrics(checks, input_edges)
    latency = [1e3 * x for x in paced["query_latency_s"]]
    q_tail, q_pct, q_n = tail(latency)
    e2e.update({
        "setup_s": median([s["setup_s"] for s in sessions]),
        "total_s": median([s["wall_s"] for s in closed]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "query_p50_ms": median(latency),
        "query_tail_ms": q_tail,
        "saturated_qps": median([s["metrics"]["answered"] / s["loop_s"]
                                 for s in closed]),
    })
    notes["query_tail_ms"] = (q_pct, q_n)

    layers = {}
    if doc["trace"]:
        layers.update(graph_layers([s["setup"] for s in timed_sessions]))
        layers.update(core_layers(checks, input_edges))
        layers["core.solve_1rank_s"] = median(
            [r["solve"][0]["wall_s"] for r in doc["one_rank"]])
        m = paced["metrics"]
        ticks = paced["answer_tick_s"]
        t_tail, t_pct, t_n = tail(ticks)
        notes["serve.tick_tail_s"] = (t_pct, t_n)
        late_tail, l_pct, l_n = tail(paced["late_s"])
        notes["serve.generator_late_ms"] = (l_pct, l_n)
        ups = paced["updates"]
        rr = sum(u["roots_retained"] for u in ups)
        ri = sum(u["roots_invalidated"] for u in ups)
        pr = sum(u["points_retained"] for u in ups)
        pi = sum(u["points_invalidated"] for u in ups)
        layers.update({
            "serve.init_s": median([max(s["serve_init_s"])
                                    for s in timed_sessions]),
            "serve.tick_p50_s": median(ticks),
            "serve.tick_tail_s": t_tail,
            "serve.waves": m["waves"],
            "serve.pruned_waves": m["pruned_waves"],
            "serve.wave_s": ratio(m["wave_s"], m["waves"]),
            "serve.fetch_rounds": m["fetch_rounds"],
            "serve.oracle_exact_frac": ratio(m["oracle_exact"], m["answered"]),
            "serve.point_cache_hit_frac": ratio(
                m["point_cache_hits"],
                m["point_cache_hits"] + m["point_cache_misses"]),
            "serve.queue_wait_ticks_p50": median(paced["queue_wait_ticks"]),
            "serve.shed": m["shed"],
            "serve.generator_late_ms": 1e3 * late_tail,
            "dyn.update_p50_ms": median([1e3 * u["latency_s"] for u in ups]),
            "dyn.commit_s": median([u["commit_s"] for u in ups]),
            "serve.invalidate_s": median([u["invalidate_s"] for u in ups]),
            "dyn.repair_s": median([u["repair_s"] for u in ups]),
            "dyn.repair_relax_applied":
                sum(paced["repair_relax_applied"]) / len(ups),
            "dyn.roots_retained_frac": ratio(rr, rr + ri),
            "dyn.points_retained_frac": ratio(pr, pr + pi),
            "dyn.compactions": m["compactions"],
            # The traced closed loop repeats the last untraced one, which
            # ran after a warm-up session.
            "bench.trace_overhead_frac":
                closed[0]["loop_s"] /
                [s for s in sessions if not s["traced"]][-1]["loop_s"] - 1.0,
        })
    return e2e, layers, notes


def exact_counts(doc):
    """Every count a run produces that must repeat exactly on one seed:
    per-root engine counters and wire traffic, validation work, and the
    serving and repair counters.  Times are excluded."""
    def solve_counts(records):
        out = []
        for r in records:
            stats = [{k: v for k, v in st.items() if not k.endswith("_s")}
                     for st in r["stats"]]
            comm = [c["comm"] for c in r["solve"] + r["validate"]]
            out.append([r["root"], r["reachable"], r["edges_checked"],
                        r["valid"], stats, comm])
        return out

    counts = {"seeds": doc["seeds"], "attempted": doc["attempted"],
              "failed": doc["failed"]}
    if "passes" in doc:
        counts["roots"] = [solve_counts(p["roots"]) for p in doc["passes"]]
        counts["graphs"] = [[p["setup"][k] for k in
                             ("input_edges", "directed_edges", "vertices",
                              "graph_bytes")] for p in doc["passes"]]
    else:
        counts["checks"] = solve_counts(doc["checks"])
        counts["sessions"] = [
            [s["ticks"], s["metrics"]["waves"], s["metrics"]["pruned_waves"],
             s["metrics"]["fetch_rounds"], s["metrics"]["oracle_exact"],
             s["metrics"]["answered"], s["metrics"]["point_cache_hits"],
             s["metrics"]["root_cache_hits"],
             s["metrics"]["wave_relax_generated"],
             s["metrics"]["compactions"], s["repair_relax_applied"],
             s["queue_wait_ticks"],
             [[u[k] for k in ("tick", "version", "edges_applied",
                              "compacted", "roots_retained",
                              "roots_invalidated", "points_retained",
                              "points_invalidated")]
              for u in s["updates"]]]
            for s in doc["sessions"]]
    return counts


def reduce(doc, host):
    """(end-to-end metrics, per-layer metrics, tail notes) of one run.

    `host` holds the run's CPU steal share and load-average delta.  The
    per-layer dict is empty for an untraced run.
    """
    if doc["workload"] == "serve-mutate":
        e2e, layers, notes = serve_metrics(doc)
    else:
        e2e, layers, notes = protocol_metrics(doc)
    if doc["trace"]:
        spans = flatten_spans(doc["spans"])
        by_name, wall = self_time_by_name(critical_lane_spans(spans))
        own = sum(t for name, t in by_name.items() if name.startswith("bench."))
        layers["bench.traced_wall_s"] = wall
        layers["bench.own_frac"] = ratio(own, wall)
        layers["host.steal_frac"] = host["steal_frac"]
        layers["host.load1_delta"] = host["load1_delta"]
    for name, value in list(e2e.items()) + list(layers.items()):
        if not math.isfinite(value):
            raise ValueError("metric %s is not finite" % name)
    return e2e, layers, notes
