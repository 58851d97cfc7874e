#!/usr/bin/env python
"""Chaos smoke check: hostile stream + kill-and-restart must not diverge.

Drives the fault-injection harness end to end: generate a synthetic QoS
stream, mangle it (drops, duplicates, reordering, corruption), feed it to a
durable :class:`~repro.server.app.PredictionServer` over HTTP, kill the
server mid-stream with no final checkpoint, recover it from checkpoint +
WAL tail, finish the stream, and compare the recovered model
sample-for-sample against an uninterrupted baseline.  The recovered
server's ``/metrics`` endpoint is also scraped mid-drill: the exposition
must parse as valid Prometheus text and contain every core metric family
(``repro.simulation.CORE_METRIC_FAMILIES``).  Exits nonzero on any model
divergence *or* malformed/incomplete metrics, so CI (and operators) can
use it as a one-command recovery drill::

    PYTHONPATH=src python scripts/chaos_check.py
    PYTHONPATH=src python scripts/chaos_check.py --records 500 --seed 7 --clean
    PYTHONPATH=src python scripts/chaos_check.py --poison-flood

``--clean`` runs a pristine stream (pure crash/recovery check).
``--poison-flood`` runs the combined robustness drill instead: a gated,
admission-controlled server is warmed over a poisoned stream (NaN/±inf/
negative wire payloads must all bounce with 400), then flooded from
multiple threads (the server must shed with 429/503 + ``Retry-After``
while in-flight predictions keep serving), and its prediction accuracy
after the flood must match the accuracy before it.
``--failover`` runs the high-availability drill instead: a primary and a
WAL-shipping standby behind a lossy, partitionable replication link; the
primary is killed mid-stream, the standby must auto-promote via the
fencing epoch CAS, the client must fail over, a revived old primary must
refuse writes with 409 ``stale_epoch``, and the promoted standby must be
bit-identical (checkpoint digest, dedup ledger, windowed MAE) to a server
that never failed.  ``--bench-out`` appends the measured time-to-promote
and replication-lag figures to a JSON history file
(``BENCH_robustness.json`` by convention).
``--memory-pressure`` runs the bounded-memory lifecycle drill instead: a
hot/cold-tiered server is squeezed under a fault-injected allocation
ceiling; its watchdog must tighten the hot-tier caps, shed cold-entity
revive reads with 429 + ``Retry-After`` while hot-entity predictions keep
answering, and a ``kill -9`` restart must reproduce the squeezed state
(tier assignment, caps, factors) bit-exactly from checkpoint + WAL.
``--shard-kill`` runs the sharded-fleet drill instead: N durable shards
behind the cluster router; one shard is killed mid-stream and the blast
radius must stay bounded — surviving shards keep serving with their
per-sample error streams (windowed MAE) untouched, victim-owned traffic
fails with a structured 503 ``shard_unavailable``, and the restarted
shard must recover bit-exact from its own WAL (checkpoint digest equality
against a never-faulted baseline).
``--migration-kill`` runs the live-migration crash drill instead: a
2-shard fleet drains one shard through a live entity migration while the
source shard, destination shard, and router are each SIGKILLed at the
source-export, in-flight-transfer, and pre-commit phases (one kill per
run, every target x phase combination).  Each resumed migration must
converge with zero lost and zero duplicated entities, every re-homed
entity's factor row / samples / gate state byte-equal to an unkilled
baseline migration, and checkpoint digests equal on both shards.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from benchlib import append_record, git_revision
from repro.datasets.schema import QoSRecord
from repro.simulation import FaultConfig, run_crash_recovery

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_stream(n: int, seed: int, n_users: int = 20, n_services: int = 40):
    rng = np.random.default_rng(seed)
    return [
        QoSRecord(
            timestamp=float(k),
            user_id=int(rng.integers(n_users)),
            service_id=int(rng.integers(n_services)),
            value=float(rng.uniform(0.05, 5.0)),
        )
        for k in range(n)
    ]


def run_poison_flood(seed: int, records: int) -> int:
    """The combined poison + flood drill.  Returns a process exit code."""
    from repro.metrics.errors import mae
    from repro.robustness import AdmissionConfig
    from repro.server.app import PredictionServer
    from repro.server.client import PredictionClient
    from repro.simulation import FaultInjector, check_metrics_exposition, drive_client
    from repro.simulation.faults import run_flood

    rng = np.random.default_rng(seed)
    n_users, n_services = 12, 16
    # Structured ground truth (rank-1 + noise) so "accuracy" is measurable:
    # the model should learn M, and a flood must not unlearn it.
    user_profile = rng.uniform(0.5, 2.0, size=n_users)
    service_profile = rng.uniform(0.4, 2.5, size=n_services)
    truth = np.outer(user_profile, service_profile)

    def sample(k: int) -> QoSRecord:
        u = int(rng.integers(n_users))
        s = int(rng.integers(n_services))
        noisy = float(truth[u, s] * (1.0 + rng.normal(0.0, 0.03)))
        return QoSRecord(timestamp=float(k), user_id=u, service_id=s,
                         value=max(noisy, 1e-3))

    warm = [sample(k) for k in range(records)]
    flood_records = [sample(records + k) for k in range(records * 4)]
    probe_pairs = [(u, s) for u in range(n_users) for s in range(n_services)]

    failures: list[str] = []
    server = PredictionServer(
        rng=seed,
        background_replay=False,
        gate=True,
        admission=AdmissionConfig(rate=400.0, burst=60.0, max_pending=16,
                                  deadline=1.0),
    )
    server.start()
    try:
        # Warm-up through a poisoned pipe.  The keyed client retries shed
        # requests honoring Retry-After, so every valid sample lands even
        # against the rate limiter; every poisoned payload must bounce.
        client = PredictionClient(server.address, retries=4, backoff=0.05)
        injector = FaultInjector(warm, FaultConfig(poison_rate=0.08), rng=seed)
        outcome = drive_client(client, injector, idempotency_prefix="warmup")
        print(f"warm-up: {outcome}")
        if outcome["poison_accepted"]:
            failures.append(
                f"{outcome['poison_accepted']} poisoned payloads were accepted"
            )
        if outcome["poisoned"] == 0:
            failures.append("drill bug: no poison events were injected")
        if outcome["rejected"]:
            failures.append(
                f"{outcome['rejected']} valid keyed warm-up samples were "
                "lost despite retries"
            )

        def probe_mae() -> float:
            predicted = [client.predict(u, s) for u, s in probe_pairs]
            actual = [float(truth[u, s]) for u, s in probe_pairs]
            return mae(predicted, actual)

        pre_mae = probe_mae()
        flood = run_flood(server.address, flood_records, threads=4,
                          predict_pairs=probe_pairs)
        print(f"flood: {flood}")
        post_mae = probe_mae()
        print(f"accuracy: pre-flood MAE {pre_mae:.4f}, post-flood MAE {post_mae:.4f}")

        if flood["shed"] == 0:
            failures.append("flood was never shed (admission control inert)")
        if flood["retry_after_hints"] < flood["shed"]:
            failures.append(
                f"only {flood['retry_after_hints']}/{flood['shed']} shed "
                "responses carried a Retry-After hint"
            )
        if flood["errors"]:
            failures.append(f"{flood['errors']} transport errors during flood")
        if flood["predictions_ok"] == 0:
            failures.append("no predictions served during the flood")
        if flood["predictions_failed"]:
            failures.append(
                f"{flood['predictions_failed']} predictions failed during the flood"
            )
        # The flood feeds in-distribution samples, so accepted ones can only
        # refine the model; accuracy must not degrade materially.
        if post_mae > pre_mae * 1.25 + 0.05:
            failures.append(
                f"post-flood MAE {post_mae:.4f} degraded from {pre_mae:.4f}"
            )
        metrics_ok, metrics_detail = check_metrics_exposition(client.metrics())
        print(f"metrics exposition {'OK' if metrics_ok else 'INVALID'}: "
              f"{metrics_detail}")
        if not metrics_ok:
            failures.append(f"metrics exposition invalid: {metrics_detail}")
    finally:
        server.stop()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("poison+flood drill PASSED")
    return 0


def run_failover_drill(
    seed: int,
    records: int,
    crash_after: "int | None",
    checkpoint_interval: int,
    bench_out: "str | None",
) -> int:
    """The high-availability drill.  Returns a process exit code."""
    import os

    from repro.simulation.faults import LinkFaultConfig, run_failover

    stream = make_stream(records, seed)
    kill_after = crash_after if crash_after is not None else int(records * 0.6)
    with tempfile.TemporaryDirectory(prefix="qos-failover-") as root:
        report = run_failover(
            stream,
            kill_after=kill_after,
            primary_dir=os.path.join(root, "primary"),
            standby_dir=os.path.join(root, "standby"),
            baseline_dir=os.path.join(root, "baseline"),
            epoch_store=os.path.join(root, "epoch.json"),
            rng=seed,
            checkpoint_interval=checkpoint_interval,
            server_kwargs={"gate": True},
            link_faults=LinkFaultConfig(loss_rate=0.1),
        )
    print(report.summary())
    passed = report.matches and report.metrics_ok
    if bench_out is not None:
        path = Path(bench_out)
        entry = {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "revision": git_revision(),
            "drill": "failover",
            "records": records,
            "kill_after": kill_after,
            "seed": seed,
            "time_to_promote_s": round(report.time_to_promote, 4),
            "lag_during_partition": report.detail.get("lag_during_partition"),
            "catchup_seconds_after_heal": report.detail.get(
                "catchup_seconds_after_heal"
            ),
            "promoted_epoch": report.detail.get("promoted_epoch"),
            "pass": passed,
        }
        append_record(path, entry)
        print(f"recorded to {path}")
    return 0 if passed else 1


def run_memory_pressure_drill(
    seed: int, records: int, checkpoint_interval: int
) -> int:
    """The bounded-memory lifecycle drill.  Returns a process exit code."""
    from repro.simulation.faults import run_memory_pressure

    # Many more entities than the hot caps, so the stream itself churns
    # the tiers before the watchdog ever tightens them.
    stream = make_stream(records, seed, n_users=120, n_services=60)
    with tempfile.TemporaryDirectory(prefix="qos-memory-") as data_dir:
        report = run_memory_pressure(
            stream,
            data_dir=data_dir,
            rng=seed,
            checkpoint_interval=checkpoint_interval,
            hot_users=32,
            hot_services=32,
        )
    print(report.summary())
    return 0 if (report.matches and report.metrics_ok) else 1


def run_shard_kill_drill(
    seed: int, records: int, n_shards: int, checkpoint_interval: int
) -> int:
    """The sharded-fleet blast-radius drill.  Returns a process exit code."""
    from repro.simulation.faults import run_shard_kill

    # Enough distinct users that every shard owns a live substream.
    stream = make_stream(records, seed, n_users=60, n_services=24)
    with tempfile.TemporaryDirectory(prefix="qos-shard-kill-") as root:
        report = run_shard_kill(
            stream,
            data_root=root,
            n_shards=n_shards,
            rng=seed,
            checkpoint_interval=checkpoint_interval,
        )
    print(report.summary())
    return 0 if (report.matches and report.metrics_ok) else 1


def make_migration_stream(
    seed: int, n_users: int = 16, per_user: int = 3, rounds: int = 2
) -> "list[QoSRecord]":
    """A stream with per-user *disjoint* service sets, so every sample
    edge stays inside one migration unit — the setup under which live
    migration is provably bit-exact (shared services collapse two
    per-shard views into one, which is convergent but not byte-equal)."""
    rng = np.random.default_rng(seed)
    records = []
    tick = 0.0
    for _ in range(rounds):
        for user_id in range(n_users):
            for service_id in range(
                user_id * per_user, (user_id + 1) * per_user
            ):
                tick += 1.0
                records.append(
                    QoSRecord(
                        timestamp=tick,
                        user_id=user_id,
                        service_id=service_id,
                        value=float(rng.uniform(0.05, 5.0)),
                    )
                )
    return records


def run_migration_kill_drill(seed: int, checkpoint_interval: int) -> int:
    """The kill-anything migration drill.  Returns a process exit code."""
    from repro.simulation.faults import run_migration_kill

    stream = make_migration_stream(seed)
    failed = 0
    for kill_target in ("source", "dest", "router"):
        for kill_phase in ("export", "transfer", "pre-commit"):
            with tempfile.TemporaryDirectory(prefix="qos-migration-") as root:
                report = run_migration_kill(
                    stream,
                    data_root=root,
                    kill_target=kill_target,
                    kill_phase=kill_phase,
                    rng=seed,
                    checkpoint_interval=checkpoint_interval,
                )
            print(f"--- kill {kill_target} at {kill_phase} ---")
            print(report.summary())
            if not (report.matches and report.metrics_ok):
                failed += 1
    if failed:
        print(f"migration kill drill FAILED ({failed} combinations diverged)")
        return 1
    print("migration kill drill PASSED (9/9 kill combinations converged)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=300,
                        help="stream length (default 300)")
    parser.add_argument("--crash-after", type=int, default=None,
                        help="records before the kill (default: 60%% of stream)")
    parser.add_argument("--checkpoint-interval", type=int, default=50,
                        help="observations per checkpoint (default 50)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--clean", action="store_true",
                        help="disable stream faults (pure crash/recovery)")
    parser.add_argument("--poison-flood", action="store_true",
                        help="run the combined poison + flood robustness "
                             "drill instead of the crash/recovery drill")
    parser.add_argument("--failover", action="store_true",
                        help="run the primary/standby failover drill "
                             "instead of the crash/recovery drill")
    parser.add_argument("--memory-pressure", action="store_true",
                        help="run the bounded-memory lifecycle drill "
                             "(allocation ceiling -> degrade, never die) "
                             "instead of the crash/recovery drill")
    parser.add_argument("--shard-kill", action="store_true",
                        help="run the sharded-fleet blast-radius drill "
                             "(kill one shard behind the router) instead "
                             "of the crash/recovery drill")
    parser.add_argument("--shards", type=int, default=3,
                        help="fleet size for --shard-kill (default 3)")
    parser.add_argument("--migration-kill", action="store_true",
                        help="run the live-migration crash drill (kill "
                             "source/dest/router at every migration phase; "
                             "each resumed migration must converge bit-exact "
                             "against an unkilled baseline) instead of the "
                             "crash/recovery drill")
    parser.add_argument("--bench-out", default=None,
                        help="JSON history file to append failover timing "
                             "figures to (e.g. BENCH_robustness.json)")
    args = parser.parse_args()

    if args.poison_flood:
        return run_poison_flood(args.seed, args.records)
    if args.migration_kill:
        return run_migration_kill_drill(args.seed, args.checkpoint_interval)
    if args.shard_kill:
        return run_shard_kill_drill(
            args.seed, args.records, args.shards, args.checkpoint_interval
        )
    if args.memory_pressure:
        return run_memory_pressure_drill(
            args.seed, args.records, args.checkpoint_interval
        )
    if args.failover:
        return run_failover_drill(
            args.seed,
            args.records,
            args.crash_after,
            args.checkpoint_interval,
            args.bench_out,
        )

    records = make_stream(args.records, args.seed)
    crash_after = (
        args.crash_after if args.crash_after is not None
        else int(args.records * 0.6)
    )
    faults = None if args.clean else FaultConfig(
        drop_rate=0.08,
        duplicate_rate=0.05,
        reorder_rate=0.05,
        corrupt_rate=0.03,
        corrupt_factor=1e4,
    )

    with tempfile.TemporaryDirectory(prefix="qos-chaos-") as data_dir:
        report = run_crash_recovery(
            records,
            crash_after=crash_after,
            data_dir=data_dir,
            rng=args.seed,
            checkpoint_interval=args.checkpoint_interval,
            faults=faults,
        )
    print(report.summary())
    return 0 if (report.matches and report.metrics_ok) else 1


if __name__ == "__main__":
    sys.exit(main())
