"""Turns a traced run's spans into per-layer metrics.

The span file has one span per line, tab-separated:
id, parent, request, name, start_ns, end_ns, then key=value attributes.
Span names are `<layer>.<call>`, with one `request` root per traced
request; every layer span of that request is its child.

Run it on its own to inspect a span file:
    python3 perfbench/summarize.py .bench_build/perfbench/spans-eval_cold-1.tsv
"""

import json
import statistics
import sys


def load(path):
    spans = []
    with open(path) as f:
        for line in f:
            fields = line.rstrip("\n").split("\t")
            attrs = {}
            for kv in fields[6:]:
                key, _, value = kv.partition("=")
                attrs[key] = float(value)
            spans.append({
                "id": int(fields[0]),
                "parent": int(fields[1]),
                "request": int(fields[2]),
                "name": fields[3],
                "start": int(fields[4]),
                "end": int(fields[5]),
                "attrs": attrs,
            })
    return spans


def self_times(spans):
    """Span id -> its duration minus the part its children cover (ns)."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def summarize(path):
    """Returns {metric name: (value, unit)} for the span-derived metrics."""
    spans = load(path)
    by_name = {}
    by_request = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        by_request.setdefault(s["request"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def ms(ns):
        return ns / 1e6

    net = by_name.get("net.call", [])
    applies = by_name.get("storage.apply", [])
    engine = by_name.get("engine.answer", [])
    evals = by_name.get("eval.answer", [])
    probe_evals = [s for s in evals if s["attrs"].get("probe") == 1]
    hits = [s for s in engine if s["attrs"].get("hit") == 1]
    misses = [s for s in engine if s["attrs"].get("hit") == 0]

    # The wire call minus its in-process replay, paired per request.
    net_self = []
    for group in by_request.values():
        call = [s for s in group if s["name"] == "net.call"]
        replay = [s for s in group if s["name"] == "engine.answer"
                  and s["attrs"].get("replay") == 1]
        if call and replay:
            net_self.append(dur(call[0]) - dur(replay[0]))
    # The service's cold answer minus the benchmark's own evaluation of the
    # same seed, paired by seed within the probe pass: its requests run one
    # at a time, so neither half shares the machine with other work.
    own_by_seed = {s["attrs"]["seed"]: s for s in probe_evals}
    engine_self = [
        dur(s) - dur(own_by_seed[s["attrs"]["seed"]]) for s in engine
        if s["attrs"].get("hit") == 0 and s["attrs"].get("replay") == 0
        and s["attrs"].get("seed") in own_by_seed]

    fixpoint_s = [s["attrs"]["fixpoint_s"] for s in evals]
    facts = [s["attrs"]["facts"] for s in evals]
    probe_facts = sum(s["attrs"]["facts"] for s in probe_evals)
    probe_dups = sum(s["attrs"]["dups"] for s in probe_evals)
    n_probe = max(len(probe_evals), 1)
    selfs = self_times(spans)
    roots = [selfs[s["id"]] for s in by_name.get("request", [])]

    return {
        "net.call_ms": (ms(_median([dur(s) for s in net])), "ms"),
        "net.self_ms": (ms(_median(net_self)), "ms"),
        "net.reply_bytes": (
            statistics.fmean(s["attrs"]["bytes"] for s in net) if net else 0,
            "bytes"),
        "engine.answer_ms": (ms(_median([dur(s) for s in engine])), "ms"),
        "engine.hit_us": (_median([dur(s) for s in hits]) / 1e3, "us"),
        "engine.miss_ms": (ms(_median([dur(s) for s in misses])), "ms"),
        "engine.self_ms": (ms(_median(engine_self)), "ms"),
        "eval.answer_ms": (ms(_median([dur(s) for s in evals])), "ms"),
        "eval.fixpoint_ms": (_median(fixpoint_s) * 1e3, "ms"),
        "eval.facts_per_s": (
            sum(facts) / sum(fixpoint_s) if sum(fixpoint_s) > 0 else 0,
            "1/s"),
        "eval.facts_per_query": (probe_facts / n_probe, "count"),
        "eval.probes_per_query": (
            sum(s["attrs"]["probes"] for s in probe_evals) / n_probe,
            "count"),
        "eval.iterations_per_query": (
            sum(s["attrs"]["iterations"] for s in probe_evals) / n_probe,
            "count"),
        "eval.duplicate_ratio": (
            probe_dups / (probe_facts + probe_dups)
            if probe_facts + probe_dups > 0 else 0, "ratio"),
        # A mean, like storage.publish_ms over the same writes, so that
        # apply minus publish is the commit-ticket wait.
        "storage.apply_ms": (
            ms(statistics.fmean(dur(s) for s in applies)) if applies else 0,
            "ms"),
        "trace.bench_self_us": (_median(roots) / 1e3, "us"),
        "trace.spans": (len(spans), "count"),
    }


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: summarize.py SPANS.tsv")
    result = summarize(sys.argv[1])
    print(json.dumps({k: {"value": v, "unit": u}
                      for k, (v, u) in result.items()}, indent=1))
