"""Run one prediction server, shard or cluster router in this process.

    python3 perfbench/launcher.py --role server --spec '{"data_dir": ...}'
    python3 perfbench/launcher.py --role router --spec '{"shards": [...]}'

The benchmark starts every server, shard and router through this script,
so each gets its own process (its own GIL and its own metrics registry).
With ``--trace PATH`` the layer wrappers from ``tracing.py`` are installed
before anything is built, and the recorded spans are written to PATH when
the process is told to stop.

On start-up one JSON line is printed: ``{"ready": true, "address": [...],
"binary_address": [...] | null, "pid": N}``.  SIGTERM or SIGINT ends the
process at once, without the graceful checkpoint (the benchmark does not
time teardown, and every acknowledged write is already in the WAL).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading

from tracing import Tracer, install_router, install_server


def build_server(spec: dict):
    from repro.lifecycle import LifecycleConfig
    from repro.server.app import PredictionServer

    lifecycle = spec.get("lifecycle")
    return PredictionServer(
        data_dir=spec["data_dir"],
        wal_fsync=spec.get("wal_fsync", True),
        wal_fsync_delay=spec.get("fsync_delay", 0.0),
        background_replay=False,
        gate=bool(spec.get("gate", False)),
        binary_port=0 if spec.get("binary", False) else None,
        lifecycle=LifecycleConfig(**lifecycle) if lifecycle else None,
    )


def build_router(spec: dict):
    from repro.cluster import ClusterRouter, PlacementTable, ShardSpec

    table = PlacementTable(
        [
            ShardSpec(name=name, addresses=((host, int(port)),))
            for name, host, port in spec["shards"]
        ]
    )
    return ClusterRouter(table)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--role", choices=("server", "router"), required=True)
    parser.add_argument("--spec", required=True, help="JSON object of settings")
    parser.add_argument("--trace", default=None, help="write spans here on stop")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec)

    tracer = Tracer(args.role) if args.trace else None
    if tracer is not None:
        (install_server if args.role == "server" else install_router)(tracer)

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    signal.signal(signal.SIGINT, lambda signum, frame: stop.set())

    node = build_server(spec) if args.role == "server" else build_router(spec)
    node.start()
    binary = getattr(node, "binary_address", None)
    print(
        json.dumps(
            {
                "ready": True,
                "pid": os.getpid(),
                "address": list(node.address),
                "binary_address": list(binary) if binary else None,
            }
        ),
        flush=True,
    )
    stop.wait()
    if tracer is not None:
        tracer.write(args.trace)
    sys.stdout.flush()
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
