"""The repository benchmark: one workload of the runtime adaptation loop
against real server processes.

    python3 perfbench/run.py --workload bind-burst --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each run builds its traffic from ``--seed``,
warms a data directory (untimed), then measures for ``--seconds`` seconds
and checks every answer.  With ``--trace 0`` it measures three rounds, each
on freshly launched processes, and reports the end-to-end metrics; with
``--trace 1`` it measures the nominal load untraced and traced (half the
time each) and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.  The exit code is 0 only when every
output check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: Rounds per run, each on freshly launched processes.  Timings and rates
#: are the median over rounds, which keeps a run steady when the machine
#: stalls for part of it.
ROUNDS = 3
#: Launches timed for ``setup_s`` alone, besides the one of each round;
#: ``setup_s`` is the median over all of them.
EXTRA_SETUPS = 2
#: Share of ``--seconds`` an open-loop run spends at its nominal rate.  Each
#: round then sends back to back for SATURATION_S (``saturation_rps``), and
#: what is left goes to the ``max_rate_rps`` search.
NOMINAL_SHARE = 0.6
SATURATION_S = 2.0
#: Back-to-back ops are generated at this multiple of the nominal rate, so
#: there are more than the workers can send.
SATURATION_OVERSUPPLY = 10
#: Requests per max-rate probe, its length clamped to the bounds below.
PROBE_REQUESTS = 500
PROBE_MIN_S = 1.5
PROBE_MAX_S = 3.0
PAGE_CACHE_NOTE = (
    "note: SIGKILL ends the server process but leaves the OS page cache "
    "intact, so this recovery check covers process crashes, not power loss"
)

#: The end-to-end metrics of the result line (see BENCHMARK.json).
UNITS = {
    "setup_s": "s",
    "rank_p50_ms": "ms",
    "observe_p50_ms": "ms",
    "observe_rps": "obs/s",
    "saturation_rps": "req/s",
    "rank_mae": "s",
    "model_answer_share": "ratio",
    "peak_rss_mb": "MB",
}


class Run:
    """Paths and processes of one benchmark run; ``close`` stops them all."""

    def __init__(self, root: str, workload, seconds: float, workers: int) -> None:
        self.root = root
        self.workload = workload
        self.seconds = seconds
        self.workers = workers
        base = os.path.join(root, ".perfbench")
        os.makedirs(base, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base)
        self.logs = os.path.join(self.dir, "logs")
        os.makedirs(self.logs)
        self.fleets: list = []
        self.violations: list[str] = []
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0

    def launch(self, dirs, warm=False, trace_dir=None):
        fleet = self.workload.launch(self.root, dirs, self.logs, warm=warm, trace_dir=trace_dir)
        self.fleets.append(fleet)
        return fleet

    def copy_warm(self, label: str) -> "list[str]":
        target = os.path.join(self.dir, label)
        shutil.copytree(os.path.join(self.dir, "warm"), target)
        return [os.path.join(target, name) for name in self.workload.data_dir_names()]

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.violations.append(message)

    def close(self) -> None:
        for fleet in self.fleets:
            fleet.kill()
        shutil.rmtree(self.dir, ignore_errors=True)


# -- phases -------------------------------------------------------------------
def warm_up(run: Run) -> None:
    """Untimed: feed the warm-up stream to a fresh deployment (fsync off),
    then SIGKILL it, leaving a checkpoint plus a WAL tail."""
    workload = run.workload
    started = time.perf_counter()
    dirs = [os.path.join(run.dir, "warm", name) for name in workload.data_dir_names()]
    fleet = run.launch(dirs, warm=True)
    channel = workload.warm_channel(fleet)
    records = workload.warm_records()
    from workloads import WARM_BATCH

    for start in range(0, len(records), WARM_BATCH):
        batch = records[start : start + WARM_BATCH]
        body = channel.report_observations_detailed(batch)
        if body["accepted"] != len(batch):
            raise RuntimeError(f"warm-up batch refused records: {body['rejected'][:3]}")
    channel.close()
    fleet.kill()
    run.notes.append(
        f"warm-up: {len(records)} observations in {time.perf_counter() - started:.1f} s (untimed)"
    )


def launch_measured(run: Run, label: str, trace_dir=None):
    """Launch on a fresh copy of the warm data; returns (fleet, seconds to
    the first successful ranking)."""
    dirs = run.copy_warm(label)
    started = time.perf_counter()
    fleet = run.launch(dirs, trace_dir=trace_dir)
    channel = run.workload.channel_factory(fleet)()
    run.workload.first_request(channel)
    elapsed = time.perf_counter() - started
    channel.close()
    return fleet, elapsed


def time_setup(run: Run, label: str) -> float:
    """Seconds from launch to the first ranking of a deployment that then
    serves nothing else."""
    fleet, elapsed = launch_measured(run, label)
    fleet.kill()
    shutil.rmtree(os.path.join(run.dir, label))
    return elapsed


def open_phase(run: Run, fleet, ops, label: "str | None"):
    from loadgen import open_loop

    workload = run.workload
    phase = open_loop(ops, workload.channel_factory(fleet), workload.execute, run.workers)
    account(run, phase, label)
    return phase


def account(run: Run, phase, label: "str | None") -> None:
    """Count the phase's requests.  Every sent request of a phase with a
    ``label`` must succeed; ``max_rate_rps`` probes pass ``None``, since
    overload is what they look for."""
    sent = [o for o in phase.outcomes if o.error != "unsent"]
    failures = [o for o in sent if not o.ok]
    run.attempted += len(sent)
    run.failed += len(failures)
    if label is not None and failures:
        run.violations.append(
            f"{len(failures)} of {len(sent)} requests failed in {label} "
            f"(first: {failures[0].kind}: {failures[0].error})"
        )
    for outcome in phase.outcomes:
        if outcome.ok and outcome.kind == "rank" and outcome.info[4] is not None:
            run.violations.append(outcome.info[4])


def probe_verdict(phase) -> bool:
    from stats import lateness_ms, probe_passes

    latencies: dict[str, list[float]] = {}
    for outcome in phase.outcomes:
        latencies.setdefault(outcome.kind, []).append(outcome.latency_ms)
    ordered = sorted(phase.outcomes, key=lambda o: o.due)
    lateness = lateness_ms([o.due for o in ordered], [o.sent for o in ordered])
    return probe_passes(latencies, len(phase.outcomes), phase.failed, lateness)


def saturation(run: Run, fleet) -> float:
    """Requests per second the generator's workers complete sending the
    workload's mix back to back: the ceiling no open loop with the same
    workers can sustain."""
    from loadgen import saturate

    workload = run.workload
    flood = workload.ops(workload.nominal_rate * SATURATION_OVERSUPPLY, SATURATION_S)
    phase = saturate(
        flood, workload.channel_factory(fleet), workload.execute, run.workers, SATURATION_S
    )
    account(run, phase, "the saturation phase")
    return sum(1 for o in phase.outcomes if o.ok) / phase.seconds


def search_max_rate(run: Run, fleet, nominal_passed: bool, ceiling: float, budget: float) -> str:
    """``max_rate_rps``, best effort: bisect open-loop probes between the
    nominal rate (when most rounds passed) and the saturation ceiling until
    they are within 5% or the budget runs out.  Reported, not gated: on the
    2-CPU machine this was built on, its spread across ten seeds was 21% on
    bind-burst and 38% on routed-churn."""
    from stats import RateBisection

    workload = run.workload
    deadline = time.perf_counter() + budget
    nominal = workload.nominal_rate
    if nominal_passed:
        search = RateBisection(nominal, max(ceiling, nominal))
    else:
        search = RateBisection(nominal / 4.0, nominal)
    probes = []
    while (rate := search.next_rate()) is not None:
        length = min(PROBE_MAX_S, max(PROBE_MIN_S, PROBE_REQUESTS / rate))
        if time.perf_counter() + length > deadline:
            break
        passed = probe_verdict(open_phase(run, fleet, workload.ops(rate, length), None))
        search.record(rate, passed)
        probes.append(f"{rate:.0f}:{'y' if passed else 'n'}")
    return (
        f"max_rate_rps = {search.passing:.6g} ops/s, below {search.failing:.6g} "
        f"(reported, not gated; probes ops/s:passed {', '.join(probes) or 'none'})"
    )


def closed_phase(run: Run, fleet, seconds: float, label: str):
    from loadgen import closed_loop

    workload = run.workload
    phase = closed_loop(
        workload.channel_factory(fleet), workload.session(), workload.reporters, seconds
    )
    account(run, phase, label)
    return phase


def report_checks(run: Run, phase, counters: dict) -> int:
    """Output checks of the reporting workload; returns acknowledged count."""
    batches = [o.info for o in phase.outcomes if o.ok and o.kind == "observe"]
    sent = sum(b[0] for b in batches)
    accepted = sum(b[1] for b in batches)
    rejected = sum(b[2] for b in batches)
    resent = sum(b[0] for b in batches if b[3])
    acked = sum(b[1] for b in batches if not b[3])
    dedup = counters["deduplicated"]
    run.check(accepted == sent - rejected, f"accepted {accepted} != sent {sent} - rejected {rejected}")
    run.check(
        acked == sent - rejected - dedup,
        f"acknowledged {acked} != sent {sent} - rejected {rejected} - deduplicated {dedup}",
    )
    run.check(dedup == resent, f"dedup.hits {dedup} != injected resends {resent}")
    run.notes.append(
        f"checks: sent {sent}, rejected {rejected}, deduplicated {dedup} "
        f"(resends injected {resent}), acknowledged {acked}"
    )
    return acked


def recovery_check(run: Run, fleet, seq_before: int, acked: int, how: str) -> None:
    """Restart the server on the same data dir after it was killed and check
    that every acknowledged observation is back in the WAL."""
    from repro.server.client import PredictionClient

    restarted = run.launch(fleet.data_dirs)
    with PredictionClient(restarted.entry.address, retries=0, transport="json") as client:
        durability = client.status()["durability"]
    restarted.kill()
    recovered = durability["wal_last_seq"] - seq_before
    run.check(
        recovered >= acked,
        f"after {how} + restart the WAL holds {recovered} new records < {acked} acknowledged",
    )
    run.notes.append(
        f"recovery after {how}: WAL advanced {recovered} >= {acked} acknowledged "
        f"(replayed {durability['recovery']['wal_replayed']} on restart)"
    )
    run.notes.append(PAGE_CACHE_NOTE)


# -- metrics ------------------------------------------------------------------
def scrape(fleet) -> dict:
    from repro.observability import parse_prometheus_text
    from repro.server.client import PredictionClient

    with PredictionClient(fleet.entry.address, retries=0, transport="json") as client:
        families = parse_prometheus_text(client.metrics())
    return {key: value for family in families.values() for key, value in family["samples"].items()}


def _total(samples: dict, name: str, **labels) -> float:
    return sum(
        value
        for (sample, sample_labels), value in samples.items()
        if sample == name and all(pair in sample_labels for pair in labels.items())
    )


COUNTERS = {
    "fsyncs": ("qos_wal_fsync_seconds_count", {}),
    "checkpoint_saves": ("qos_checkpoint_saves_total", {}),
    "quarantined": ("qos_gate_quarantined_total", {}),
    "deduplicated": ("qos_ingest_deduped_total", {}),
    "cache_hits": ("qos_predict_cache_hits_total", {}),
    "cache_misses": ("qos_predict_cache_misses_total", {}),
    "cache_stale_misses": ("qos_predict_cache_misses_total", {"reason": "stale"}),
    "predictions": ("qos_predictions_total", {}),
    "model_predictions": ("qos_predictions_total", {"source": "model"}),
    "revivals": ("qos_lifecycle_revivals_total", {}),
    "demotions": ("qos_lifecycle_demotions_total", {}),
}


def counter_deltas(before: dict, after: dict) -> dict:
    return {
        key: int(round(_total(after, name, **labels) - _total(before, name, **labels)))
        for key, (name, labels) in COUNTERS.items()
    }


def end_to_end(run: Run, phase) -> dict:
    """Latency, throughput and accuracy figures of one measured round."""
    from stats import lateness_ms, percentile, tail_level

    world = run.workload.world
    ranks = [o for o in phase.outcomes if o.kind == "rank"]
    observes = [o for o in phase.outcomes if o.kind == "observe"]
    good = [o.info for o in ranks if o.ok and o.info[4] is None]
    if run.workload.loop == "closed":
        acked = sum(o.info[1] for o in observes if o.ok and not o.info[3])
    else:
        acked = sum(1 for o in observes if o.ok)
    rank_ms = [o.latency_ms for o in ranks]
    observe_ms = [o.latency_ms for o in observes]
    lateness = lateness_ms([o.due for o in phase.outcomes], [o.sent for o in phase.outcomes])
    scored = [
        (pred, float(world.truth[user, best]))
        for user, best, pred, __, __ in good
        if world.truth[user, best] < world.timeout_value
    ]
    figures = {
        "rank_p50_ms": percentile(rank_ms, 50),
        "rank_tail_ms": percentile(rank_ms, tail_level(len(rank_ms))),
        "observe_p50_ms": percentile(observe_ms, 50),
        "observe_tail_ms": percentile(observe_ms, tail_level(len(observe_ms))),
        "observe_rps": acked / phase.seconds,
        "_abs_error": sum(abs(pred - truth) for pred, truth in scored),
        "_scored": len(scored),
        "_model_answers": sum(info[3] for info in good),
        "_rankings": len(good),
        "_tails": f"p{tail_level(len(rank_ms)):.2f} of {len(rank_ms)} rankings, "
        f"p{tail_level(len(observe_ms)):.2f} of {len(observe_ms)} observation requests; "
        f"generator lateness p50 {percentile(lateness, 50):.2f} ms, p99 {percentile(lateness, 99):.2f} ms",
        "_acked": acked,
    }
    if run.workload.loop == "closed":
        figures["saturation_rps"] = sum(1 for o in phase.outcomes if o.ok) / phase.seconds
    return figures


def pooled(rounds: "list[dict]") -> dict:
    """Timings and rates as the median over rounds; accuracy over all
    rankings of all rounds."""
    from stats import median

    names = [name for name in rounds[0] if not name.startswith("_")]
    figures = {name: median([r[name] for r in rounds]) for name in names}
    rankings = sum(r["_rankings"] for r in rounds)
    figures["rank_mae"] = sum(r["_abs_error"] for r in rounds) / max(
        1, sum(r["_scored"] for r in rounds)
    )
    figures["model_answer_share"] = sum(r["_model_answers"] for r in rounds) / max(
        1, 20 * rankings
    )
    figures["_acked"] = sum(r["_acked"] for r in rounds)
    return figures


def measure_round(run: Run, fleet, seconds: float, label: str, ops=None) -> "tuple[dict, object]":
    """One round at the workload's nominal load; ``ops`` replays a given
    open-loop schedule instead of a fresh one."""
    workload = run.workload
    if workload.loop == "closed":
        phase = closed_phase(run, fleet, seconds, label)
    else:
        if ops is None:
            ops = workload.ops(workload.nominal_rate, seconds)
        phase = open_phase(run, fleet, ops, label)
    return end_to_end(run, phase), phase


def environment(args, workload) -> dict:
    import numpy

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": revision or "unknown",
        "loop": workload.loop,
        "nominal_rate_ops_s": workload.nominal_rate or None,
        "simulated_commit_latency_ms": 1000.0 * getattr(workload, "fsync_delay", 0.0),
    }


def run_untraced(run: Run) -> dict:
    """``ROUNDS`` rounds, each on a fresh deployment launched from a copy of
    the warm data (timed for ``setup_s``, with ``EXTRA_SETUPS`` more
    launches); an open-loop run then searches ``max_rate_rps`` on the last
    deployment."""
    from stats import median

    workload = run.workload
    warm_up(run)
    setups = [time_setup(run, f"setup{index}") for index in range(EXTRA_SETUPS)]
    open_loop = workload.loop == "open"
    per_round = run.seconds * (NOMINAL_SHARE if open_loop else 1.0) / ROUNDS
    rounds = []
    verdicts = []
    acked = seq_before = 0
    for index in range(ROUNDS):
        fleet, setup = launch_measured(run, f"round{index}")
        if not open_loop:
            before = scrape(fleet)
            seq_before = status_seq(fleet)
        figures, phase = measure_round(run, fleet, per_round, f"round {index}")
        if open_loop:
            figures["saturation_rps"] = saturation(run, fleet)
        figures["setup_s"] = setup
        figures["peak_rss_mb"] = fleet.peak_rss_mb()
        rounds.append(figures)
        run.notes.append(
            f"round {index}: setup {setup:.3f} s, rank p50 {figures['rank_p50_ms']:.3f} ms, "
            f"observe p50 {figures['observe_p50_ms']:.3f} ms; tails are the {figures['_tails']}"
        )
        if open_loop:
            verdicts.append(probe_verdict(phase))
        else:
            acked = report_checks(run, phase, counter_deltas(before, scrape(fleet)))
        if index < ROUNDS - 1:
            fleet.kill()
    result = pooled(rounds)
    setups += [r["setup_s"] for r in rounds]
    result["setup_s"] = median(setups)
    run.notes.append(
        f"setup_s: median of {len(setups)} launches ({', '.join(f'{s:.3f}' for s in setups)} s)"
    )
    if open_loop:
        # Like the timings, the nominal verdict is the majority of rounds.
        budget = run.seconds * (1.0 - NOMINAL_SHARE) - ROUNDS * SATURATION_S
        run.notes.append(
            search_max_rate(
                run, fleet, 2 * sum(verdicts) > len(verdicts), result["saturation_rps"], budget
            )
        )
    else:
        fleet.kill()
        recovery_check(run, fleet, seq_before, acked, "SIGKILL")
    return result


def status_seq(fleet) -> int:
    from repro.server.client import PredictionClient

    with PredictionClient(fleet.entry.address, retries=0, transport="json") as client:
        return int(client.status()["durability"]["wal_last_seq"])


def run_traced(run: Run) -> dict:
    """Untraced then traced nominal phases on fresh processes; spans are
    written under ``.perfbench/traces/<workload>-<seed>``."""
    import summarize
    from stats import lateness_ms, percentile
    from tracing import Tracer, install_client

    workload = run.workload
    half = run.seconds / 2.0
    warm_up(run)
    # Both phases replay the same schedule, so their difference is the
    # tracing overhead and not a change of inputs.
    ops = workload.ops(workload.nominal_rate, half) if workload.loop == "open" else None
    fleet, __ = launch_measured(run, "untraced")
    plain, __ = measure_round(run, fleet, half, "the untraced phase", ops=ops)
    fleet.kill()

    trace_dir = os.path.join(run.root, ".perfbench", "traces", f"{workload.name}-{workload.seed}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    if workload.loop == "closed":
        # A fresh instance replays the reporters' streams from the start.
        workload = run.workload = type(workload)(workload.seed, horizon=run.seconds)
    fleet, __ = launch_measured(run, "traced", trace_dir=trace_dir)
    tracer = Tracer("client")
    install_client(tracer)
    seq_before = status_seq(fleet) if workload.loop == "closed" else 0
    before = scrape(fleet)
    traced, phase = measure_round(run, fleet, half, "the traced phase", ops=ops)
    counters = counter_deltas(before, scrape(fleet))
    spill_bytes = sum(
        os.path.getsize(os.path.join(path, entry))
        for path in fleet.data_dirs
        for entry in os.listdir(path)
        if entry.startswith("spill.sqlite")
    )
    fleet.stop()
    tracer.write(os.path.join(trace_dir, "client.json"))
    if workload.loop == "closed":
        acked = report_checks(run, phase, counters)
        recovery_check(run, fleet, seq_before, acked, "SIGTERM (exit without checkpoint)")
    ordered = sorted(phase.outcomes, key=lambda o: o.due)
    lag = lateness_ms([o.due for o in ordered], [o.sent for o in ordered])
    context = {
        "workload": workload.name,
        "counters": counters,
        "ops": len(phase.outcomes),
        "acked_observations": traced["_acked"],
        "lag_p99_ms": percentile(lag, 99) if workload.loop == "open" else 0.0,
        "spill_file_bytes": spill_bytes,
        "overhead": {
            "rank_p50_ms": traced["rank_p50_ms"] - plain["rank_p50_ms"],
            "observe_p50_ms": traced["observe_p50_ms"] - plain["observe_p50_ms"],
        },
        "untraced": {k: v for k, v in plain.items() if not k.startswith("_")},
        "traced": {k: v for k, v in traced.items() if not k.startswith("_")},
    }
    with open(os.path.join(trace_dir, "context.json"), "w", encoding="utf-8") as handle:
        json.dump(context, handle, indent=1)
    metrics = summarize.report(trace_dir)
    run.notes.append(f"trace files: {os.path.relpath(trace_dir, run.root)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    from fleet import split_cpus

    # Turn SIGTERM into a normal exit so that every process the run
    # started is stopped on the way out.
    signal.signal(signal.SIGTERM, _terminate)
    workload = WORKLOADS[args.workload](args.seed, horizon=args.seconds)
    # The benchmark process is the load generator: keep it off the CPUs
    # the servers run on.
    os.sched_setaffinity(0, split_cpus()[1])
    env = environment(args, workload)
    print("env: " + json.dumps(env, sort_keys=True), flush=True)

    run = Run(root, workload, args.seconds, workers=os.cpu_count() or 1)
    try:
        figures = run_traced(run) if args.trace else run_untraced(run)
    finally:
        run.close()
    for note in run.notes:
        print(note)
    for problem in run.violations:
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        from summarize import UNITS as PER_LAYER_UNITS

        metrics = {
            name: {"value": value, "unit": PER_LAYER_UNITS[name]} for name, value in figures.items()
        }
    else:
        metrics = {name: {"value": figures[name], "unit": unit} for name, unit in UNITS.items()}
        for name, entry in metrics.items():
            print(f"{name} = {entry['value']:.6g} {entry['unit']}")
        for name in ("rank_tail_ms", "observe_tail_ms"):
            print(f"{name} = {figures[name]:.6g} ms (reported, not gated; median over rounds)")
    print(f"failed_ratio = {run.failed / max(1, run.attempted):.6g} ratio "
          f"({run.failed} failed of {run.attempted} attempted)")
    correct = not run.violations and all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"]) for m in metrics.values()
    )
    print(
        json.dumps(
            {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    sys.exit(main())
