"""In-memory span recorder and the wrappers that time each layer.

Nothing under ``src/`` knows about tracing: :func:`install` replaces the
public entry points of each layer's classes with timing wrappers, in the
process that calls it (a server, the router, or the load generator).  A
span is ``(id, parent_id, request_id, name, start_ns, end_ns)``; names are
``<layer>.<op>`` where the layer is the module the wrapped code lives in.
A span opened with no enclosing span on its thread starts a new request,
so the request id is per process: ids do not cross the wire, and spans of
one request are joined across processes only by aggregate (request type).

Spans stay in memory and are written once, by :meth:`Tracer.write`, when
the process is told to stop.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import socket
import threading
import time

#: Span tuple fields, in order.
FIELDS = ("id", "parent", "rid", "name", "start_ns", "end_ns")


class Tracer:
    def __init__(self, role: str) -> None:
        self.role = role
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._count_lock = threading.Lock()

    def wrap(self, owner, attr: str, name: str, name_of=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``
        (or ``name_of(*args)`` when given)."""
        original = getattr(owner, attr)
        is_static = isinstance(owner.__dict__.get(attr), staticmethod)
        local = self._local
        spans = self.spans
        ids = self._ids
        rids = self._rids
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent, rid = stack[-1]
            else:
                parent, rid = 0, next(rids)
            span_id = next(ids)
            stack.append((span_id, rid))
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name if name_of is None else name_of(*args)
                spans.append((span_id, parent, rid, label, start, end))

        setattr(owner, attr, staticmethod(traced) if is_static else traced)

    def count(self, key: str, amount: int = 1) -> None:
        with self._count_lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def write(self, path: str) -> None:
        """Write every span recorded so far, in one go."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "role": self.role,
                    "pid": os.getpid(),
                    "fields": FIELDS,
                    "counts": self.counts,
                    "spans": self.spans,
                },
                handle,
            )
        os.replace(tmp, path)


def _http_kind(path: str) -> str:
    """Request type of an HTTP route, as the summary groups requests."""
    route = path.split("?", 1)[0]
    if route in ("/predictions/batch", "/rank/candidates"):
        return "rank"
    if route in ("/observations", "/observations/batch"):
        return "observe"
    if route == "/credence":
        return "credence"
    return "admin"


def _wrap_handler_factory(tracer: Tracer, owner, layer: str) -> None:
    """``_make_handler`` builds a fresh handler class per server; wrap the
    class it returns so each HTTP request is a root span named by route."""
    make = owner._make_handler

    def make_traced(self):
        handler = make(self)
        for verb in ("do_GET", "do_POST"):
            tracer.wrap(
                handler,
                verb,
                layer,
                name_of=lambda request: f"{layer}.{_http_kind(request.path)}",
            )
        return handler

    owner._make_handler = make_traced


def _count_connections(tracer: Tracer) -> None:
    """Every TCP connection a client opens (urllib resolves
    ``socket.create_connection`` per connection, the binary transport per
    connect) becomes a ``client.connect`` span."""
    tracer.wrap(socket, "create_connection", "client.connect")


def install_server(tracer: Tracer) -> None:
    """Wrap the layers a prediction server (or shard) runs."""
    from repro.core.amf import AdaptiveMatrixFactorization
    from repro.core.daemon import ConcurrentModel
    from repro.lifecycle import SpillStore, TieredAMF
    from repro.robustness import SanitizerGate
    from repro.server.app import PredictionServer
    from repro.server.binary import OP_OBSERVE, OP_PREDICT_BATCH, BinaryTransportServer
    from repro.server.wal import CheckpointStore, WriteAheadLog

    kinds = {OP_PREDICT_BATCH: "rank", OP_OBSERVE: "observe"}
    tracer.wrap(
        BinaryTransportServer,
        "_handle",
        "binary",
        name_of=lambda self, opcode, body: f"binary.{kinds.get(opcode, 'admin')}",
    )
    _wrap_handler_factory(tracer, PredictionServer, "app")
    for attr in (
        "_handle_prediction_batch",
        "_binary_predict_batch",
        "_predict_batch",
    ):
        tracer.wrap(PredictionServer, attr, "app.rank")
    for attr in ("_handle_observation", "_handle_observation_batch", "_binary_observe"):
        tracer.wrap(PredictionServer, attr, "app.observe")
    tracer.wrap(PredictionServer, "_acquire_ingest_lock", "lockwait.ingest")
    tracer.wrap(ConcurrentModel, "predict_batch_known", "daemon.predict_batch")
    tracer.wrap(ConcurrentModel, "predict_known", "daemon.predict_known")
    tracer.wrap(AdaptiveMatrixFactorization, "observe", "amf.observe")
    tracer.wrap(AdaptiveMatrixFactorization, "predict_for_user", "amf.predict_batch")
    tracer.wrap(SanitizerGate, "process", "gate.process")
    tracer.wrap(CheckpointStore, "save", "wal.checkpoint_save")
    # The tiered model re-implements observe in slot space (no super call).
    tracer.wrap(TieredAMF, "observe", "tiered.observe")
    tracer.wrap(TieredAMF, "apply_revive", "tiered.revive")
    tracer.wrap(TieredAMF, "revive_payload", "tiered.revive_payload")
    for attr in ("put", "get", "delete", "commit", "maybe_compact"):
        tracer.wrap(SpillStore, attr, f"spill.{attr}")

    append = WriteAheadLog._append_locked

    def counted_append(self, entry):
        before = _file_size(self)
        seq = append(self, entry)
        after = _file_size(self)
        # A segment roll starts a new file holding only this entry.
        tracer.count("wal.bytes", after - before if after >= before else after)
        return seq

    WriteAheadLog._append_locked = counted_append
    tracer.wrap(WriteAheadLog, "append", "wal.append")
    tracer.wrap(WriteAheadLog, "append_event", "wal.append_event")


def _file_size(wal) -> int:
    return os.fstat(wal._handle.fileno()).st_size


def install_router(tracer: Tracer) -> None:
    """Wrap the router's request handling and its calls to shards."""
    from repro.cluster.router import ClusterRouter
    from repro.server.client import PredictionClient

    _wrap_handler_factory(tracer, ClusterRouter, "router")
    tracer.wrap(ClusterRouter, "_handle_prediction_batch", "router.rank")
    tracer.wrap(ClusterRouter, "_handle_rank", "router.rank")
    tracer.wrap(ClusterRouter, "_credence_for", "router.credence")
    for attr in ("_handle_observation", "_handle_observation_batch"):
        tracer.wrap(ClusterRouter, attr, "router.observe")
    tracer.wrap(PredictionClient, "_request_once", "client.shard_call")
    _count_connections(tracer)


def install_client(tracer: Tracer) -> None:
    """Wrap the client library calls the load generator makes."""
    from repro.cluster.client import ClusterClient
    from repro.server.client import PredictionClient

    tracer.wrap(PredictionClient, "predict_candidates_detailed", "client.rank")
    tracer.wrap(ClusterClient, "rank_candidates", "client.rank")
    for attr in ("report_observation", "report_observations_detailed"):
        tracer.wrap(PredictionClient, attr, "client.observe")
        tracer.wrap(ClusterClient, attr, "client.observe")
    _count_connections(tracer)
