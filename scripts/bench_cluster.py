#!/usr/bin/env python
"""Fleet throughput scaling: 1/2/4 shards behind the cluster router.

Each shard is a real OS process (``python -m repro.cluster.shard``) with
its own durable WAL; the router runs in this process and fans traffic
out.  The workload is a closed-loop mixed stream — observations (durable,
fsync-bound) interleaved with batch predictions — partitioned by home
shard, with one driver thread per shard so every shard's disk queue stays
busy.  Throughput is total completed operations / wall-clock for the
whole fleet, and the figure that matters is the *speedup* of the 2- and
4-shard fleets over the single shard.

**Disk-latency simulation.**  Durable ingest is fsync-bound in
production, but CI hardware commits an fsync in ~0.15 ms (and has one
core), which would make this bench measure Python dispatch instead of
the I/O parallelism sharding actually buys.  The WAL's documented
``fsync_delay`` knob adds a fixed sleep per fsync to model a production
disk (default here: 20 ms — spinning media / networked block storage
commit latency); each shard process serializes its own WAL appends while
N shards overlap theirs — exactly the effect horizontal scale-out exists
to exploit.  The knob is recorded in the output
(``config.wal_fsync_delay_ms``) so the measurement's provenance is
explicit.  Smoke runs clamp the delay to 2 ms to stay fast; at that
setting single-core dispatch dominates and the speedup gate is
advisory only.

Usage::

    PYTHONPATH=src python scripts/bench_cluster.py              # full sweep -> BENCH_cluster.json
    PYTHONPATH=src python scripts/bench_cluster.py --smoke      # tiny sweep, validate only
    PYTHONPATH=src python scripts/bench_cluster.py --validate   # schema-check existing file
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from benchlib import append_record, git_revision
from repro.cluster import ClusterRouter, PlacementTable, ShardSpec
from repro.server.client import PredictionClient, PredictionServiceError

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_cluster.json"
SRC_ROOT = REPO_ROOT / "src"


class ShardProcess:
    """One shard subprocess, managed for the duration of a fleet run."""

    def __init__(self, name: str, data_dir: str, fsync_delay: float) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_ROOT) + (
            os.pathsep + env["PYTHONPATH"] if "PYTHONPATH" in env else ""
        )
        self.name = name
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cluster.shard",
                "--name", name,
                "--data-dir", data_dir,
                "--binary-port", "-1",
                "--fsync-delay", str(fsync_delay),
                "--checkpoint-interval", "100000",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        line = self.proc.stdout.readline()
        info = json.loads(line)
        if not info.get("ready"):
            raise RuntimeError(f"shard {name} failed to start: {info}")
        self.address = (info["address"][0], int(info["address"][1]))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=5.0)


def run_fleet(
    n_shards: int,
    records_per_shard: int,
    fsync_delay: float,
    seed: int,
    n_users: int,
    n_services: int,
    predict_every: int,
) -> dict:
    """Run one fleet size; returns its measurement block."""
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory(prefix="qos-bench-cluster-") as root:
        shards = [
            ShardProcess(
                f"s{index}", os.path.join(root, f"s{index}"), fsync_delay
            )
            for index in range(n_shards)
        ]
        table = PlacementTable(
            [
                ShardSpec(name=shard.name, addresses=(shard.address,))
                for shard in shards
            ]
        )
        router = ClusterRouter(table)
        router.start()
        try:
            # Pre-partition the workload: per shard, a substream of users
            # it owns, so each driver thread keeps exactly one shard's
            # WAL busy (closed loop, no cross-shard head-of-line).
            users_by_shard: dict[str, list[int]] = {
                shard.name: [] for shard in shards
            }
            for user_id in range(n_users):
                users_by_shard[table.owner_of("user", user_id).name].append(
                    user_id
                )
            plans = []
            for shard in shards:
                owned = users_by_shard[shard.name]
                if not owned:
                    continue
                picks = rng.integers(0, len(owned), size=records_per_shard)
                services = rng.integers(0, n_services, size=records_per_shard)
                values = rng.uniform(0.05, 5.0, size=records_per_shard)
                plans.append(
                    (
                        shard.name,
                        [owned[p] for p in picks],
                        services.tolist(),
                        values.tolist(),
                    )
                )

            counts = {"observations": 0, "predictions": 0, "errors": 0}
            counts_lock = threading.Lock()
            candidate_pool = list(range(min(8, n_services)))

            def drive(plan) -> None:
                name, users, services, values = plan
                client = PredictionClient(router.address, retries=0)
                observations = predictions = errors = 0
                try:
                    for k, (u, s, v) in enumerate(
                        zip(users, services, values)
                    ):
                        try:
                            client.report_observation(u, s, v, float(k))
                            observations += 1
                            if (k + 1) % predict_every == 0:
                                client.predict_candidates_detailed(
                                    u, candidate_pool
                                )
                                predictions += 1
                        except PredictionServiceError:
                            errors += 1
                finally:
                    client.close()
                with counts_lock:
                    counts["observations"] += observations
                    counts["predictions"] += predictions
                    counts["errors"] += errors

            threads = [
                threading.Thread(target=drive, args=(plan,), daemon=True)
                for plan in plans
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
        finally:
            router.stop()
            for shard in shards:
                shard.stop()
    operations = counts["observations"] + counts["predictions"]
    return {
        "shards": n_shards,
        "driver_threads": len(plans),
        "observations": counts["observations"],
        "predictions": counts["predictions"],
        "errors": counts["errors"],
        "wall_seconds": round(elapsed, 4),
        "throughput_ops_per_s": round(operations / elapsed, 2),
    }


def validate_record(record: dict) -> list[str]:
    """Schema check for one BENCH_cluster.json record; returns problems.

    The file interleaves two record shapes — the fleet-scaling sweep
    from this script and live-migration drills appended by
    ``bench_migration.py`` — discriminated by the ``"drill"`` key.
    """
    if record.get("drill") == "migration":
        import bench_migration

        return bench_migration.validate_record(record)
    problems = []

    def require(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    require(isinstance(record.get("timestamp"), str), "missing timestamp")
    require(isinstance(record.get("revision"), str), "missing revision")
    config = record.get("config")
    require(isinstance(config, dict), "missing config")
    if isinstance(config, dict):
        for key in (
            "records_per_shard",
            "n_users",
            "n_services",
            "predict_every",
            "wal_fsync_delay_ms",
            "seed",
        ):
            require(key in config, f"config.{key} missing")
    fleets = record.get("fleets")
    require(isinstance(fleets, list) and fleets, "missing fleets")
    single = None
    for k, fleet in enumerate(fleets or []):
        if not isinstance(fleet, dict):
            problems.append(f"fleets[{k}] not an object")
            continue
        for key in (
            "shards",
            "observations",
            "predictions",
            "errors",
            "wall_seconds",
            "throughput_ops_per_s",
            "speedup_vs_single",
        ):
            require(key in fleet, f"fleets[{k}].{key} missing")
        if fleet.get("shards") == 1:
            single = fleet
    require(single is not None, "no single-shard fleet in record")
    scaling = record.get("scaling_ok")
    require(isinstance(scaling, bool), "missing scaling_ok")
    two = next(
        (f for f in (fleets or []) if isinstance(f, dict) and f.get("shards") == 2),
        None,
    )
    if two is not None and isinstance(two.get("speedup_vs_single"), (int, float)):
        require(
            bool(scaling) == (two["speedup_vs_single"] >= 1.7),
            "scaling_ok inconsistent with the 2-shard speedup",
        )
    return problems


def validate_file(path: Path) -> None:
    records = json.loads(path.read_text())
    if not isinstance(records, list) or not records:
        print(f"{path}: expected a non-empty JSON array")
        raise SystemExit(1)
    failures = 0
    for index, record in enumerate(records):
        for problem in validate_record(record):
            print(f"{path}[{index}]: {problem}")
            failures += 1
    if failures:
        raise SystemExit(1)
    print(f"{path}: {len(records)} record(s) OK")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records-per-shard", type=int, default=400,
                        help="observations per driver thread (default 400)")
    parser.add_argument("--fleets", type=int, nargs="+", default=[1, 2, 4],
                        help="fleet sizes to sweep (default: 1 2 4)")
    parser.add_argument("--fsync-delay", type=float, default=0.02,
                        help="simulated disk commit latency per WAL fsync, "
                             "seconds (default 0.02)")
    parser.add_argument("--n-users", type=int, default=64)
    parser.add_argument("--n-services", type=int, default=24)
    parser.add_argument("--predict-every", type=int, default=10,
                        help="batch prediction per this many observations")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--note", default="")
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweep; validate the record, do not append")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check the existing results file and exit")
    args = parser.parse_args()

    if args.validate:
        validate_file(args.output or RESULTS_PATH)
        return 0

    if args.smoke:
        args.records_per_shard = min(args.records_per_shard, 60)
        args.fleets = [1, 2]
        args.fsync_delay = min(args.fsync_delay, 0.002)

    fleets = []
    for n_shards in args.fleets:
        print(f"fleet of {n_shards} shard(s)...", flush=True)
        fleet = run_fleet(
            n_shards,
            args.records_per_shard,
            args.fsync_delay,
            args.seed,
            args.n_users,
            args.n_services,
            args.predict_every,
        )
        fleets.append(fleet)
        print(
            f"  {fleet['observations']} obs + {fleet['predictions']} pred "
            f"in {fleet['wall_seconds']}s -> "
            f"{fleet['throughput_ops_per_s']} ops/s "
            f"({fleet['errors']} errors)",
            flush=True,
        )
    single = next(f for f in fleets if f["shards"] == 1)
    for fleet in fleets:
        fleet["speedup_vs_single"] = round(
            fleet["throughput_ops_per_s"] / single["throughput_ops_per_s"], 3
        )
    two = next((f for f in fleets if f["shards"] == 2), None)
    scaling_ok = two is not None and two["speedup_vs_single"] >= 1.7

    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "revision": git_revision(),
        "note": args.note or ("smoke" if args.smoke else ""),
        "config": {
            "records_per_shard": args.records_per_shard,
            "n_users": args.n_users,
            "n_services": args.n_services,
            "predict_every": args.predict_every,
            "wal_fsync_delay_ms": args.fsync_delay * 1000.0,
            "seed": args.seed,
        },
        "fleets": fleets,
        "scaling_ok": scaling_ok,
    }
    problems = validate_record(record)
    if problems:
        for problem in problems:
            print(f"invalid record: {problem}")
        return 1
    for fleet in fleets:
        print(
            f"{fleet['shards']} shard(s): {fleet['throughput_ops_per_s']} "
            f"ops/s ({fleet['speedup_vs_single']}x vs single)"
        )
    if args.smoke and args.output is None:
        if not scaling_ok:
            print("smoke NOTE: 2-shard speedup below 1.7x at smoke scale")
        print("smoke OK (record validated, not appended)")
        return 0
    if not scaling_ok:
        print("FAIL: 2-shard fleet did not reach 1.7x single-shard throughput")
        return 1
    path = args.output or RESULTS_PATH
    append_record(path, record)
    print(f"recorded to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
