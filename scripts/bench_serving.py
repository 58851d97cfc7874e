#!/usr/bin/env python
"""Open-loop serving benchmark: JSON vs binary batch-prediction transports.

Drives an in-process :class:`PredictionServer` with an *open-loop* load
generator — requests are scheduled at a fixed arrival rate regardless of
how fast responses come back, so queueing delay shows up in the latency
numbers instead of silently throttling the offered load (the usual
closed-loop benchmarking mistake).  Users follow a Zipf distribution, the
shape production candidate-ranking traffic actually has: a few hot users
dominate, which is also what makes the version-stamped prediction cache
earn its keep.

For each transport the generator sweeps an offered-rate ladder and
records per-rate achieved QPS and p50/p99 latency; the *sustained* rate
is the highest offered rate the server kept up with (achieved >= 90% of
offered).  One JSON record per run is appended to ``BENCH_serving.json``::

    PYTHONPATH=src python scripts/bench_serving.py
    PYTHONPATH=src python scripts/bench_serving.py --rates 250,500,1000 --duration 4

Modes for CI:

* ``--smoke``    — tiny sweep, record is schema-checked but **not**
  appended (unless ``--output`` is given explicitly); fails if the binary
  transport is not faster than JSON at the shared smoke rate.
* ``--validate`` — schema-check an existing results file and exit.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from benchlib import append_record, git_revision
from repro.server.app import PredictionServer
from repro.server.binary import BinaryConnection
from repro.server.client import PredictionClient

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_serving.json"

N_USERS = 100
N_SERVICES = 200
BATCH_SIZE = 20
ZIPF_S = 1.1


def zipf_users(rng: np.random.Generator, count: int) -> np.ndarray:
    """Zipf-ish user ids over ``N_USERS`` (finite support, exponent s)."""
    weights = 1.0 / np.arange(1, N_USERS + 1) ** ZIPF_S
    return rng.choice(N_USERS, size=count, p=weights / weights.sum())


def warm_server(server: PredictionServer, n: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    client = PredictionClient(server.address, transport="json")
    observations = [
        {
            "timestamp": float(k),
            "user_id": int(rng.integers(N_USERS)),
            "service_id": int(rng.integers(N_SERVICES)),
            "value": float(rng.uniform(0.05, 5.0)),
        }
        for k in range(n)
    ]
    client.report_observations(observations)
    client.close()


class _Issuer:
    """Per-transport request issuer with one persistent channel per thread."""

    def __init__(self, transport: str, server: PredictionServer):
        self.transport = transport
        self.server = server

    def make_channel(self):
        if self.transport == "binary":
            conn = BinaryConnection(self.server.binary_address)
            conn.connect()
            return conn
        return PredictionClient(self.server.address, transport="json", retries=0)

    def issue(self, channel, user_id: int, service_ids: list[int]) -> None:
        if self.transport == "binary":
            channel.predict_batch(user_id, service_ids)
        else:
            channel.predict_candidates(user_id, service_ids)


def run_round(
    issuer: _Issuer,
    offered_qps: float,
    duration: float,
    threads: int,
    seed: int,
) -> dict:
    """One open-loop round: ``offered_qps`` for ``duration`` seconds.

    Latency for request *k* is completion minus its **scheduled** send
    time ``start + k/rate`` — a server that falls behind accumulates
    queueing delay in its tail instead of hiding it.
    """
    total = max(int(offered_qps * duration), threads)
    rng = np.random.default_rng(seed)
    users = zipf_users(rng, total)
    candidate_sets = rng.integers(0, N_SERVICES, size=(total, BATCH_SIZE))
    interval = 1.0 / offered_qps

    latencies = [np.empty(0)] * threads
    errors = [0] * threads
    barrier = threading.Barrier(threads + 1)

    def worker(worker_id: int) -> None:
        channel = issuer.make_channel()
        mine = range(worker_id, total, threads)
        stamps = np.empty(len(mine))
        failed = 0
        barrier.wait()
        t0 = time.perf_counter()
        for slot, k in enumerate(mine):
            scheduled = t0 + k * interval
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                issuer.issue(channel, int(users[k]), candidate_sets[k].tolist())
            except Exception:  # noqa: BLE001 — overload shows up as errors
                failed += 1
                stamps[slot] = np.nan
                continue
            stamps[slot] = time.perf_counter() - scheduled
        latencies[worker_id] = stamps
        errors[worker_id] = failed
        channel.close()

    pool = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(threads)
    ]
    for thread in pool:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - started

    all_latencies = np.concatenate(latencies)
    ok = all_latencies[np.isfinite(all_latencies)]
    failed = int(sum(errors))
    achieved = len(ok) / elapsed if elapsed > 0 else 0.0
    return {
        "offered_qps": round(offered_qps, 1),
        "achieved_qps": round(achieved, 1),
        "requests": int(total),
        "errors": failed,
        "p50_ms": round(float(np.percentile(ok, 50)) * 1e3, 3) if len(ok) else None,
        "p99_ms": round(float(np.percentile(ok, 99)) * 1e3, 3) if len(ok) else None,
    }


def sweep(
    issuer: _Issuer, rates: list[float], duration: float, threads: int, seed: int
) -> dict:
    results = []
    sustained = 0.0
    for rate in rates:
        outcome = run_round(issuer, rate, duration, threads, seed)
        results.append(outcome)
        if outcome["errors"] == 0 and outcome["achieved_qps"] >= 0.9 * rate:
            sustained = max(sustained, outcome["achieved_qps"])
        print(
            f"  {issuer.transport:>6} @ {rate:>7,.0f} offered: "
            f"{outcome['achieved_qps']:>8,.1f} achieved, "
            f"p50 {outcome['p50_ms']} ms, p99 {outcome['p99_ms']} ms, "
            f"{outcome['errors']} errors"
        )
    return {"results": results, "sustained_qps": round(sustained, 1)}


def validate_record(record: dict) -> list[str]:
    """Schema check for one BENCH_serving.json record; returns problems."""
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
            "n_users",
            "n_services",
            "batch_size",
            "zipf_s",
            "duration_seconds",
            "threads",
            "rates",
        ):
            require(key in config, f"config.{key} missing")
    transports = record.get("transports")
    require(isinstance(transports, dict), "missing transports")
    if isinstance(transports, dict):
        for name in ("json", "binary"):
            block = transports.get(name)
            require(isinstance(block, dict), f"transports.{name} missing")
            if not isinstance(block, dict):
                continue
            require(
                isinstance(block.get("sustained_qps"), (int, float)),
                f"transports.{name}.sustained_qps missing",
            )
            rounds = block.get("results")
            require(
                isinstance(rounds, list) and rounds,
                f"transports.{name}.results empty",
            )
            for k, outcome in enumerate(rounds or []):
                for key in (
                    "offered_qps",
                    "achieved_qps",
                    "requests",
                    "errors",
                    "p50_ms",
                    "p99_ms",
                ):
                    require(
                        key in (outcome or {}),
                        f"transports.{name}.results[{k}].{key} missing",
                    )
    return problems


def validate_file(path: Path) -> None:
    if not path.exists():
        raise SystemExit(f"{path} does not exist")
    history = json.loads(path.read_text())
    if not isinstance(history, list) or not history:
        raise SystemExit(f"{path} must hold a non-empty JSON array")
    failures = 0
    for index, record in enumerate(history):
        for problem in validate_record(record):
            print(f"record[{index}]: {problem}")
            failures += 1
    if failures:
        raise SystemExit(f"{path}: {failures} schema problem(s)")
    print(f"{path}: {len(history)} record(s) OK")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rates",
        default="100,250,500,1000,2000",
        help="comma-separated offered QPS ladder",
    )
    parser.add_argument(
        "--duration", type=float, default=3.0, help="seconds per rate round"
    )
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--warm", type=int, default=1000, help="warmup observations")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--note", default="")
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sweep; schema-check the record instead of appending it",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="schema-check an existing results file and exit",
    )
    args = parser.parse_args()

    if args.validate:
        validate_file(args.output or RESULTS_PATH)
        return

    if args.smoke:
        args.rates = "50"
        args.duration = 1.0
        args.threads = 2
        args.warm = 200

    rates = [float(r) for r in args.rates.split(",") if r.strip()]
    with PredictionServer(rng=args.seed, background_replay=False) as server:
        warm_server(server, args.warm, args.seed)
        transports = {}
        for transport in ("json", "binary"):
            print(f"{transport} transport:")
            transports[transport] = sweep(
                _Issuer(transport, server),
                rates,
                args.duration,
                args.threads,
                args.seed,
            )
        cache_stats = server._predict_cache.stats()

    json_p50 = transports["json"]["results"][0]["p50_ms"]
    binary_p50 = transports["binary"]["results"][0]["p50_ms"]
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "revision": git_revision(),
        "config": {
            "n_users": N_USERS,
            "n_services": N_SERVICES,
            "batch_size": BATCH_SIZE,
            "zipf_s": ZIPF_S,
            "duration_seconds": args.duration,
            "threads": args.threads,
            "warm_observations": args.warm,
            "rates": rates,
            "seed": args.seed,
        },
        "transports": transports,
        "binary_p50_speedup": (
            round(json_p50 / binary_p50, 2) if json_p50 and binary_p50 else None
        ),
        "predict_cache": cache_stats,
        "note": args.note,
    }

    problems = validate_record(record)
    if problems:
        raise SystemExit("record failed its own schema: " + "; ".join(problems))

    speedup = record["binary_p50_speedup"]
    print(
        f"binary p50 speedup over JSON at {rates[0]:,.0f} QPS: "
        f"{speedup}x" if speedup else "speedup unmeasurable"
    )
    if args.smoke and args.output is None:
        if not (speedup and speedup > 1.0):
            raise SystemExit(
                f"smoke: binary transport not faster than JSON (p50 speedup "
                f"{speedup})"
            )
        print("smoke OK (record validated, not appended)")
        return

    output = args.output or RESULTS_PATH
    append_record(output, record)
    print(f"appended to {output}")


if __name__ == "__main__":
    main()
