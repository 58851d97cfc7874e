#!/usr/bin/env python
"""Bounded-memory lifecycle benchmark: million-entity churn under an RSS cap.

Streams a high-churn workload (most observations introduce a brand-new
user, the rest revisit a Zipf-weighted recent tail) through two models:

* **bounded**   — :class:`TieredAMF` with small hot-tier caps and an
  on-disk :class:`SpillStore`; cold entities are demoted to sqlite and
  revived on re-touch.
* **unbounded** — the *same* ``TieredAMF`` code path with caps larger
  than the entity population (nothing ever demotes).  Using the tiered
  model for the baseline keeps the factor-init RNG draws aligned 1:1
  with entity first-touches, so the two runs produce **bit-identical**
  per-sample error streams — MAE parity is an equality check, not a
  tolerance dance.

Each phase runs in a subprocess so its peak memory (``VmPeak`` /
``ru_maxrss``) is its own, and so an address-space cap
(``RLIMIT_AS``) can kill the unbounded model without taking the
orchestrator down.  The headline claims, in run order:

1. the bounded model completes the full stream under a cap derived from
   its own uncapped peak;
2. the unbounded model **dies** under that same cap (and its uncapped
   peak exceeds the cap);
3. windowed mean relative error of the bounded run is within 2% of the
   unbounded baseline;
4. a kill-and-restart drill (:func:`run_crash_recovery` with tiering
   enabled) reproduces the uninterrupted run's checkpoint
   ``archive_digest`` byte-for-byte while entities sit spilled.

One record per run is appended to ``BENCH_lifecycle.json``::

    PYTHONPATH=src python scripts/bench_lifecycle.py
    PYTHONPATH=src python scripts/bench_lifecycle.py --observations 200000

Modes for CI:

* ``--smoke``    — tiny stream, the RLIMIT death phase is skipped (CI
  address-space headroom is unpredictable); the record is schema-checked
  but **not** appended; fails unless MAE parity and the digest check hold.
* ``--validate`` — schema-check an existing results file and exit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from benchlib import append_record, git_revision

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_lifecycle.json"

OBSERVATIONS = 1_300_000
N_SERVICES = 60_000
CHURN_PROB = 0.8  # P(observation introduces a never-seen user)
ZIPF_A = 1.3  # revisit-distance tail exponent
WINDOW = 50_000
HOT_USERS = 20_000
HOT_SERVICES = 8_000
CAP_HEADROOM = 1.25  # cap = bounded uncapped VmPeak * this


def vm_peak_bytes() -> "int | None":
    """Peak virtual size of this process (Linux; None elsewhere)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmPeak:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def make_stream_arrays(n: int, seed: int, n_services: int, churn_prob: float):
    """Vectorized churn stream: (users, services, values) arrays.

    With probability ``churn_prob`` an observation introduces the next
    never-seen sequential user id; otherwise it revisits a user a
    Zipf-distributed distance back in introduction order — recently
    introduced users are revisited while hot, older ones only after
    they have been demoted, which is exactly the revive traffic the
    bench wants to exercise.  Services are Zipf-weighted over a fixed
    catalogue.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    fresh = rng.random(n) < churn_prob
    fresh[0] = True
    introduced = np.cumsum(fresh)  # users introduced after sample k (>= 1)
    back = rng.zipf(ZIPF_A, size=n)  # 1, 2, 3, ... heavy-tailed
    users = np.where(fresh, introduced - 1, np.maximum(introduced - back, 0))
    weights = 1.0 / np.arange(1, n_services + 1) ** 1.1
    services = rng.choice(n_services, size=n, p=weights / weights.sum())
    values = rng.uniform(0.05, 5.0, size=n)
    return users.astype(np.int64), services, values


def run_phase(params: dict) -> dict:
    """One churn phase, executed inside a subprocess (see ``--phase``)."""
    import resource

    cap = params["cap_bytes"]
    if cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    import numpy as np  # noqa: F401 — imported before the stream, after rlimit

    from repro.datasets.schema import QoSRecord
    from repro.lifecycle import LifecycleConfig, SpillStore
    from repro.lifecycle.tiered import TieredAMF

    n = params["observations"]
    users, services, values = make_stream_arrays(
        n, params["seed"], params["n_services"], params["churn_prob"]
    )
    if params["bounded"]:
        lifecycle = LifecycleConfig(
            hot_users=params["hot_users"], hot_services=params["hot_services"]
        )
        spill = SpillStore(params["spill_path"])
    else:
        # Caps above the population: the tiered code path, zero demotions.
        lifecycle = LifecycleConfig(hot_users=n + 1, hot_services=n + 1)
        spill = SpillStore(":memory:")
    model = TieredAMF(rng=params["seed"], lifecycle=lifecycle, spill=spill)

    window = params["window"]
    window_maes: list[float] = []
    acc = 0.0
    count = 0
    start = time.perf_counter()
    for k in range(n):
        record = QoSRecord(
            timestamp=float(k),
            user_id=int(users[k]),
            service_id=int(services[k]),
            value=float(values[k]),
        )
        __, error = model.observe_reviving(record)
        acc += error
        count += 1
        if count == window:
            window_maes.append(acc / count)
            acc = 0.0
            count = 0
    wall = time.perf_counter() - start
    if count:
        window_maes.append(acc / count)

    status = model.lifecycle_status()
    result = {
        "completed": True,
        "observations": n,
        "distinct_users": len(model._u_slot_of) + len(model._spilled_users),
        "distinct_services": (
            len(model._s_slot_of) + len(model._spilled_services)
        ),
        "hot_users": len(model._u_slot_of),
        "spilled_users": len(model._spilled_users),
        "demotions": status["demoted_users"] + status["demoted_services"],
        "revivals": status["revived_users"] + status["revived_services"],
        "resident_bytes": model.resident_bytes(),
        "wall_seconds": round(wall, 3),
        "obs_per_sec": round(n / wall, 1) if wall > 0 else None,
        "window_maes": [round(m, 8) for m in window_maes],
        "mean_windowed_mae": round(sum(window_maes) / len(window_maes), 8),
        "vm_peak_bytes": vm_peak_bytes(),
        "ru_maxrss_bytes": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        ),
    }
    spill.close()
    Path(params["out_path"]).write_text(json.dumps(result))
    return result


def spawn_phase(params: dict, expect_death: bool = False) -> dict:
    """Run one phase in a child interpreter; parse its JSON result file.

    ``expect_death`` inverts success: the child must exit nonzero (the
    RLIMIT_AS cap killed it) without having written a completed result.
    """
    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".json", delete=False
    ) as handle:
        out_path = handle.name
    child_params = dict(params, out_path=out_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, __file__, "--phase", json.dumps(child_params)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    completed = None
    try:
        raw = Path(out_path).read_text()
        completed = json.loads(raw) if raw.strip() else None
    except (OSError, json.JSONDecodeError):
        completed = None
    finally:
        try:
            os.unlink(out_path)
        except OSError:
            pass

    if expect_death:
        died = proc.returncode != 0 and completed is None
        tail = (proc.stderr or "").strip().splitlines()[-3:]
        return {
            "died": died,
            "returncode": proc.returncode,
            "stderr_tail": tail,
            "memory_error": "MemoryError" in (proc.stderr or ""),
        }
    if proc.returncode != 0 or completed is None:
        raise SystemExit(
            f"phase {params.get('label', '?')} failed "
            f"(rc={proc.returncode}):\n{proc.stderr}"
        )
    return completed


def run_digest_check(seed: int) -> dict:
    """Crash-recovery digest equality with entities spilled at crash time.

    Small scale on purpose: the property being pinned is byte-equality of
    the persisted archive across kill-and-restart *while the spill store
    holds demoted entities*, which a few hundred observations over caps
    of 24 already forces.
    """
    from repro.lifecycle import LifecycleConfig, SpillStore
    from repro.simulation.faults import run_crash_recovery

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from chaos_check import make_stream

    records = make_stream(400, seed, n_users=80, n_services=40)
    server_kwargs = {"lifecycle": LifecycleConfig(hot_users=24, hot_services=24)}
    with tempfile.TemporaryDirectory(prefix="qos-lifecycle-digest-") as root:
        data_dir = os.path.join(root, "crash")
        baseline_dir = os.path.join(root, "baseline")
        report = run_crash_recovery(
            records,
            crash_after=260,
            data_dir=data_dir,
            rng=seed,
            checkpoint_interval=100,
            server_kwargs=server_kwargs,
            baseline_data_dir=baseline_dir,
        )
        spill = SpillStore(os.path.join(data_dir, "spill.sqlite"))
        spilled_users = spill.count("user")
        spilled_services = spill.count("service")
        spill.close()
    digests = report.detail.get("checkpoint_digests") or {}
    return {
        "matches": bool(report.matches),
        "digests_equal": bool(digests)
        and digests.get("recovered") == digests.get("baseline"),
        "digests": digests,
        "spilled_users": spilled_users,
        "spilled_services": spilled_services,
    }


def validate_record(record: dict) -> list[str]:
    """Schema check for one BENCH_lifecycle.json record; returns problems."""
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
            "observations",
            "n_services",
            "churn_prob",
            "hot_users",
            "hot_services",
            "window",
            "seed",
        ):
            require(key in config, f"config.{key} missing")
    for name in ("bounded", "unbounded"):
        phase = record.get(name)
        require(isinstance(phase, dict), f"missing {name} phase")
        if not isinstance(phase, dict):
            continue
        require(phase.get("completed") is True, f"{name}.completed is not true")
        for key in (
            "observations",
            "distinct_users",
            "wall_seconds",
            "window_maes",
            "mean_windowed_mae",
            "vm_peak_bytes",
            "ru_maxrss_bytes",
        ):
            require(key in phase, f"{name}.{key} missing")
    capped = record.get("capped_unbounded")
    require(isinstance(capped, dict), "missing capped_unbounded")
    if isinstance(capped, dict) and not capped.get("skipped"):
        require("died" in capped, "capped_unbounded.died missing")
    require(
        isinstance(record.get("cap_bytes"), int), "cap_bytes missing or not int"
    )
    parity = record.get("mae_parity")
    require(isinstance(parity, dict), "missing mae_parity")
    if isinstance(parity, dict):
        for key in ("bounded_mean", "unbounded_mean", "rel_diff"):
            require(
                isinstance(parity.get(key), (int, float)),
                f"mae_parity.{key} missing",
            )
    digest = record.get("digest_check")
    require(isinstance(digest, dict), "missing digest_check")
    if isinstance(digest, dict):
        require("matches" in digest, "digest_check.matches missing")
        require(
            isinstance(digest.get("spilled_users"), int),
            "digest_check.spilled_users missing",
        )
    require(isinstance(record.get("pass"), bool), "missing pass")
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
    parser.add_argument("--observations", type=int, default=OBSERVATIONS)
    parser.add_argument("--services", type=int, default=N_SERVICES)
    parser.add_argument("--churn", type=float, default=CHURN_PROB)
    parser.add_argument("--hot-users", type=int, default=HOT_USERS)
    parser.add_argument("--hot-services", type=int, default=HOT_SERVICES)
    parser.add_argument("--window", type=int, default=WINDOW)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--note", default="")
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny stream, skip the RLIMIT death phase, validate-not-append",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="schema-check an existing results file and exit",
    )
    parser.add_argument(
        "--phase", default=None, help=argparse.SUPPRESS
    )  # internal: JSON params for one subprocess phase
    args = parser.parse_args()

    if args.phase is not None:
        run_phase(json.loads(args.phase))
        return
    if args.validate:
        validate_file(args.output or RESULTS_PATH)
        return
    if args.smoke:
        args.observations = 6_000
        args.services = 400
        args.hot_users = 512
        args.hot_services = 256
        args.window = 1_500

    base = {
        "observations": args.observations,
        "n_services": args.services,
        "churn_prob": args.churn,
        "hot_users": args.hot_users,
        "hot_services": args.hot_services,
        "window": args.window,
        "seed": args.seed,
        "cap_bytes": None,
    }
    with tempfile.TemporaryDirectory(prefix="qos-lifecycle-bench-") as root:
        spill_path = os.path.join(root, "spill.sqlite")
        print("phase 1/3: bounded (tiered, uncapped — derives the cap) ...")
        bounded = spawn_phase(
            dict(base, bounded=True, spill_path=spill_path, label="bounded")
        )
        cap_bytes = int(bounded["vm_peak_bytes"] * CAP_HEADROOM)
        print(
            f"  {bounded['obs_per_sec']:,.0f} obs/s, "
            f"{bounded['distinct_users']:,} users "
            f"({bounded['spilled_users']:,} spilled), "
            f"VmPeak {bounded['vm_peak_bytes'] / 1e6:,.0f} MB "
            f"-> cap {cap_bytes / 1e6:,.0f} MB"
        )

        if args.smoke:
            # RLIMIT_AS death is a property of absolute scale; at smoke
            # scale the interpreter baseline dominates, so the phase is
            # skipped rather than made meaningless.
            capped_unbounded = {"skipped": True}
            print("phase 2/3: capped unbounded — skipped (--smoke)")
        else:
            print("phase 2/3: unbounded under the cap (must die) ...")
            capped_unbounded = spawn_phase(
                dict(
                    base,
                    bounded=False,
                    spill_path=":memory:",
                    cap_bytes=cap_bytes,
                    label="capped-unbounded",
                ),
                expect_death=True,
            )
            print(
                f"  died={capped_unbounded['died']} "
                f"(rc={capped_unbounded['returncode']}, "
                f"MemoryError={capped_unbounded['memory_error']})"
            )

        print("phase 3/3: unbounded, uncapped (MAE + peak baseline) ...")
        unbounded = spawn_phase(
            dict(base, bounded=False, spill_path=":memory:", label="unbounded")
        )
        print(
            f"  {unbounded['obs_per_sec']:,.0f} obs/s, "
            f"VmPeak {unbounded['vm_peak_bytes'] / 1e6:,.0f} MB"
        )

    bounded_mean = bounded["mean_windowed_mae"]
    unbounded_mean = unbounded["mean_windowed_mae"]
    rel_diff = (
        abs(bounded_mean - unbounded_mean) / unbounded_mean
        if unbounded_mean
        else 0.0
    )
    print(
        f"windowed mean relative error: bounded {bounded_mean:.6f} vs "
        f"unbounded {unbounded_mean:.6f} (rel diff {rel_diff:.2e})"
    )

    print("digest check: crash recovery with spilled entities ...")
    digest_check = run_digest_check(args.seed)
    print(
        f"  matches={digest_check['matches']} "
        f"digests_equal={digest_check['digests_equal']} "
        f"spilled at crash dir: {digest_check['spilled_users']} users, "
        f"{digest_check['spilled_services']} services"
    )

    checks = {
        "bounded_completed": bounded["completed"] is True,
        "mae_within_2pct": rel_diff <= 0.02,
        "digest_matches": digest_check["matches"]
        and digest_check["digests_equal"]
        and digest_check["spilled_users"] > 0,
    }
    if not args.smoke:
        checks["capped_unbounded_died"] = capped_unbounded["died"]
        checks["unbounded_peak_exceeds_cap"] = (
            unbounded["vm_peak_bytes"] > cap_bytes
        )
    failures = sorted(name for name, ok in checks.items() if not ok)

    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "revision": git_revision(),
        "config": {
            "observations": args.observations,
            "n_services": args.services,
            "churn_prob": args.churn,
            "zipf_a": ZIPF_A,
            "hot_users": args.hot_users,
            "hot_services": args.hot_services,
            "window": args.window,
            "cap_headroom": CAP_HEADROOM,
            "seed": args.seed,
            "smoke": bool(args.smoke),
        },
        "bounded": bounded,
        "unbounded": unbounded,
        "capped_unbounded": capped_unbounded,
        "cap_bytes": cap_bytes,
        "mae_parity": {
            "bounded_mean": bounded_mean,
            "unbounded_mean": unbounded_mean,
            "rel_diff": round(rel_diff, 10),
        },
        "digest_check": digest_check,
        "pass": not failures,
        "failures": failures,
        "note": args.note,
    }

    problems = validate_record(record)
    if problems:
        raise SystemExit("record failed its own schema: " + "; ".join(problems))
    if failures:
        raise SystemExit(f"lifecycle bench FAILED: {', '.join(failures)}")

    if args.smoke and args.output is None:
        print("smoke OK (record validated, not appended)")
        return
    output = args.output or RESULTS_PATH
    append_record(output, record)
    print(f"appended to {output}")


if __name__ == "__main__":
    main()
