"""Per-layer summary of a traced run.

    python3 perfbench/summarize.py .perfbench/traces/bind-burst-1

reads the span files one traced run wrote (one per process, plus
``context.json`` with the run's counter deltas and generator figures),
prints each layer's self time per request type, and prints the per-layer
metrics the benchmark reports.

A span's self time is its duration minus the time its child spans cover.
Spans carry a per-process request id only, so a client span and the
server span that handled it are joined by aggregate: per request type,
the client's p50 minus the first server hop's p50.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict

from stats import percentile

#: Span-name layers that are time spent waiting, not working.
WAIT_LAYERS = ("lockwait",)

#: Unit of every per-layer metric, in the order they are reported.
UNITS = {
    "loadgen.lag_p99_ms": "ms",
    "client.self_ms_p50": "ms",
    "client.connections_per_request": "count",
    "binary.self_us_p50": "us",
    "app.rank_self_us_p50": "us",
    "app.observe_self_us_p50": "us",
    "app.ingest_lock_wait_ms_p99": "ms",
    "router.self_ms_p50": "ms",
    "router.shard_calls_per_rank": "count",
    "router.shard_calls_per_observe": "count",
    "wal.append_ms_p50": "ms",
    "wal.fsyncs_per_obs": "count",
    "wal.bytes_per_obs": "bytes",
    "wal.checkpoint_saves": "count",
    "wal.checkpoint_save_ms_p50": "ms",
    "gate.process_us_p50": "us",
    "gate.quarantined": "count",
    "dedup.hits": "count",
    "amf.observe_us_p50": "us",
    "amf.predict_batch_us_p50": "us",
    "online.cache_lookups": "count",
    "online.cache_hit_ratio": "ratio",
    "online.cache_stale_miss_ratio": "ratio",
    "fallback.share": "ratio",
    "tiered.revives_per_op": "count",
    "tiered.demotions_per_op": "count",
    "tiered.revive_ms_p50": "ms",
    "spill.ms_per_op": "ms",
    "spill.file_bytes": "bytes",
    "trace.rank_p50_overhead_ms": "ms",
    "trace.observe_p50_overhead_ms": "ms",
}


#: Layers whose spans open a request: the transports and the client calls.
ENTRY_LAYERS = ("binary", "app", "router", "client")
REQUEST_KINDS = ("rank", "observe", "credence", "admin")


def _is_entry(label: str) -> bool:
    layer, __, kind = label.partition(".")
    return layer in ENTRY_LAYERS and kind in REQUEST_KINDS


class ProcessTrace:
    """Spans of one process, indexed by request."""

    def __init__(self, name: str, data: dict) -> None:
        self.name = name
        self.role = data["role"]
        self.counts = data.get("counts", {})
        # Only spans under a request entry point count: start-up work such
        # as WAL replay during recovery also calls wrapped layers.
        requests = {
            rid
            for span_id, parent, rid, label, start, end in data["spans"]
            if not parent and _is_entry(label)
        }
        spans = [span for span in data["spans"] if span[2] in requests]
        child_ns: dict[int, int] = defaultdict(int)
        for span_id, parent, rid, label, start, end in spans:
            if parent:
                child_ns[parent] += end - start
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.roots: dict[int, str] = {}
        self.root_ns: dict[int, int] = {}
        self.layer_self: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.span_count: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for span_id, parent, rid, label, start, end in spans:
            duration = end - start
            self.durations[label].append(duration)
            layer = label.split(".", 1)[0]
            self.layer_self[rid][layer] += duration - child_ns.get(span_id, 0)
            self.span_count[rid][label] += 1
            if not parent:
                self.roots[rid] = label
                self.root_ns[rid] = duration

    def requests(self, kind: "str | None" = None, root_layer: "str | None" = None):
        """Request ids whose root span is ``<root_layer>.<kind>``."""
        for rid, label in self.roots.items():
            layer, __, op = label.partition(".")
            if (kind is None or op == kind) and (root_layer is None or layer == root_layer):
                yield rid


def load(trace_dir: str) -> "tuple[list[ProcessTrace], dict]":
    traces = []
    for entry in sorted(os.listdir(trace_dir)):
        if entry.endswith(".json") and entry != "context.json":
            with open(os.path.join(trace_dir, entry), encoding="utf-8") as handle:
                traces.append(ProcessTrace(entry[: -len(".json")], json.load(handle)))
    with open(os.path.join(trace_dir, "context.json"), encoding="utf-8") as handle:
        context = json.load(handle)
    return traces, context


def _p(values, q: float, scale: float) -> float:
    return percentile(values, q) / scale if values else 0.0


def layer_rows(traces) -> "list[tuple]":
    """``(process, request type, layer, requests, self p50 us, self mean us)``
    for every layer that did work in some request type."""
    rows = []
    for trace in traces:
        kinds = sorted({label.partition(".")[2] for label in trace.roots.values()})
        for kind in kinds:
            rids = list(trace.requests(kind))
            layers = sorted({layer for rid in rids for layer in trace.layer_self[rid]})
            for layer in layers:
                values = [trace.layer_self[rid].get(layer, 0) for rid in rids]
                rows.append(
                    (
                        trace.name,
                        kind,
                        layer,
                        len(rids),
                        _p(values, 50, 1e3),
                        sum(values) / len(values) / 1e3,
                    )
                )
    return rows


def per_layer_metrics(traces, context: dict) -> dict:
    """The per-layer metrics (see README.md), from spans and counters."""
    servers = [t for t in traces if t.role == "server"]
    routers = [t for t in traces if t.role == "router"]
    clients = [t for t in traces if t.role == "client"]
    counters = context["counters"]
    ops = max(1, context["ops"])
    acked = max(1, context["acked_observations"])

    def durations(procs, *labels):
        return [d for t in procs for label in labels for d in t.durations.get(label, ())]

    def layer_self(procs, kind, layer, root_layer=None):
        return [
            t.layer_self[rid].get(layer, 0)
            for t in procs
            for rid in t.requests(kind, root_layer)
        ]

    def per_request(procs, kind, label):
        rids = [(t, rid) for t in procs for rid in t.requests(kind)]
        if not rids:
            return 0.0
        return sum(t.span_count[rid].get(label, 0) for t, rid in rids) / len(rids)

    first_hop = routers if routers else servers
    client_roots = [t.root_ns[rid] for t in clients for rid in t.requests()]
    server_roots = [
        t.root_ns[rid]
        for t in first_hop
        for rid in t.requests()
        if t.roots[rid].partition(".")[2] in ("rank", "observe")
    ]
    connects = sum(len(t.durations.get("client.connect", ())) for t in clients + routers)
    lookups = counters["cache_hits"] + counters["cache_misses"]
    predictions = counters["predictions"]
    return {
        "loadgen.lag_p99_ms": context["lag_p99_ms"],
        "client.self_ms_p50": max(
            0.0, _p(client_roots, 50, 1e6) - _p(server_roots, 50, 1e6)
        ),
        "client.connections_per_request": connects / max(1, len(client_roots)),
        "binary.self_us_p50": _p(layer_self(servers, "rank", "binary", "binary"), 50, 1e3),
        "app.rank_self_us_p50": _p(layer_self(servers, "rank", "app"), 50, 1e3),
        "app.observe_self_us_p50": _p(layer_self(servers, "observe", "app"), 50, 1e3),
        "app.ingest_lock_wait_ms_p99": _p(durations(servers, "lockwait.ingest"), 99, 1e6),
        "router.self_ms_p50": _p(layer_self(routers, "rank", "router"), 50, 1e6),
        "router.shard_calls_per_rank": per_request(routers, "rank", "client.shard_call"),
        "router.shard_calls_per_observe": per_request(routers, "observe", "client.shard_call"),
        "wal.append_ms_p50": _p(durations(servers, "wal.append"), 50, 1e6),
        "wal.fsyncs_per_obs": counters["fsyncs"] / acked,
        "wal.bytes_per_obs": sum(t.counts.get("wal.bytes", 0) for t in servers) / acked,
        "wal.checkpoint_saves": counters["checkpoint_saves"],
        "wal.checkpoint_save_ms_p50": _p(durations(servers, "wal.checkpoint_save"), 50, 1e6),
        "gate.process_us_p50": _p(durations(servers, "gate.process"), 50, 1e3),
        "gate.quarantined": counters["quarantined"],
        "dedup.hits": counters["deduplicated"],
        "amf.observe_us_p50": _p(durations(servers, "amf.observe", "tiered.observe"), 50, 1e3),
        "amf.predict_batch_us_p50": _p(durations(servers, "amf.predict_batch"), 50, 1e3),
        "online.cache_lookups": lookups,
        "online.cache_hit_ratio": counters["cache_hits"] / lookups if lookups else 0.0,
        "online.cache_stale_miss_ratio": (
            counters["cache_stale_misses"] / lookups if lookups else 0.0
        ),
        "fallback.share": (
            (predictions - counters["model_predictions"]) / predictions if predictions else 0.0
        ),
        "tiered.revives_per_op": counters["revivals"] / ops,
        "tiered.demotions_per_op": counters["demotions"] / ops,
        "tiered.revive_ms_p50": _p(durations(servers, "tiered.revive"), 50, 1e6),
        "spill.ms_per_op": sum(
            sum(t.durations.get(f"spill.{attr}", ()))
            for t in servers
            for attr in ("put", "get", "delete", "commit", "maybe_compact")
        ) / 1e6 / ops,
        "spill.file_bytes": context["spill_file_bytes"],
        "trace.rank_p50_overhead_ms": context["overhead"]["rank_p50_ms"],
        "trace.observe_p50_overhead_ms": context["overhead"]["observe_p50_ms"],
    }


def report(trace_dir: str, out=sys.stdout) -> dict:
    traces, context = load(trace_dir)
    print(
        "per-layer self time by request type (spans join across processes by "
        "aggregate only: no request id crosses the wire)",
        file=out,
    )
    print(f"{'process':<8} {'type':<9} {'layer':<9} {'requests':>8} {'self p50 us':>12} "
          f"{'self mean us':>13}", file=out)
    for name, kind, layer, count, p50, mean in layer_rows(traces):
        suffix = "  (waiting)" if layer in WAIT_LAYERS else ""
        print(f"{name:<8} {kind:<9} {layer:<9} {count:>8} {p50:>12.1f} {mean:>13.1f}{suffix}",
              file=out)
    metrics = per_layer_metrics(traces, context)
    overhead = context["overhead"]
    print(
        f"tracing overhead (traced - untraced p50): rank {overhead['rank_p50_ms']:+.3f} ms, "
        f"observe {overhead['observe_p50_ms']:+.3f} ms",
        file=out,
    )
    for name, value in metrics.items():
        print(f"{name} = {value:.6g}", file=out)
    return metrics


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 perfbench/summarize.py <trace directory>")
    report(sys.argv[1])
