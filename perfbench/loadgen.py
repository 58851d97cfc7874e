"""Load generators: an open loop that sends on a schedule, a closed loop
whose callers wait for each reply, and a back-to-back sender.

All run in the benchmark process with one thread and one client channel
per worker.  Every request records when it was due, sent and answered, so
both its latency and the generator's lateness can be read off it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass
class Outcome:
    """One request as the generator saw it (times from ``perf_counter``)."""

    kind: str
    due: float
    sent: float
    done: float
    ok: bool
    info: object = None
    error: "str | None" = None

    @property
    def latency_ms(self) -> float:
        """From the send to the reply; failures count as infinitely late.
        The wait in the generator's queue before the send is ``sent - due``
        (see ``stats.lateness_ms``)."""
        if not self.ok:
            return float("inf")
        return (self.done - self.sent) * 1000.0


@dataclass
class PhaseResult:
    outcomes: "list[Outcome]" = field(default_factory=list)
    seconds: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)


def open_loop(ops, make_channel, execute, workers: int, grace: float = 1.0) -> PhaseResult:
    """Send ``ops`` (objects with ``due`` seconds from the start and a
    ``kind``) on schedule from ``workers`` threads.

    A request not sent by ``grace`` seconds after the schedule ends is
    recorded as failed without being sent, so a backlog shows up as misses
    rather than as an endless run.
    """
    ops = list(ops)
    outcomes: "list[Outcome | None]" = [None] * len(ops)
    lock = threading.Lock()
    cursor = [0]
    span = ops[-1].due if ops else 0.0
    channels = [make_channel() for __ in range(workers)]
    start = time.perf_counter() + 0.05
    cutoff = start + span + grace

    def worker(index: int, channel) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(ops):
                return
            op = ops[index]
            due = start + op.due
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                now = time.perf_counter()
            if now > cutoff:
                outcomes[index] = Outcome(op.kind, due, now, now, False, error="unsent")
                continue
            outcomes[index] = _call(execute, channel, op, due)

    _run_threads(worker, channels)
    return PhaseResult(list(outcomes), time.perf_counter() - start)


def saturate(ops, make_channel, execute, workers: int, seconds: float) -> PhaseResult:
    """Send ``ops`` back to back, ignoring their schedule, from ``workers``
    threads for ``seconds``: the most the workers can push through."""
    ops = list(ops)
    outcomes: "list[Outcome]" = []
    lock = threading.Lock()
    cursor = [0]
    channels = [make_channel() for __ in range(workers)]
    start = time.perf_counter()
    deadline = start + seconds

    def worker(index: int, channel) -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(ops):
                return
            outcome = timed_call(execute, channel, ops[index])
            with lock:
                outcomes.append(outcome)

    _run_threads(worker, channels)
    return PhaseResult(outcomes, time.perf_counter() - start)


def closed_loop(make_channel, session, workers: int, seconds: float) -> PhaseResult:
    """Run ``session(channel, worker_index, deadline, record)`` on each
    worker until ``deadline``; ``record(outcome)`` collects results."""
    outcomes: "list[Outcome]" = []
    lock = threading.Lock()
    channels = [make_channel() for __ in range(workers)]
    start = time.perf_counter()
    deadline = start + seconds

    def record(outcome: Outcome) -> None:
        with lock:
            outcomes.append(outcome)

    _run_threads(lambda index, channel: session(channel, index, deadline, record), channels)
    return PhaseResult(outcomes, time.perf_counter() - start)


def timed_call(execute, channel, op) -> Outcome:
    """One closed-loop request, timed from when it was sent."""
    return _call(execute, channel, op, time.perf_counter())


def _call(execute, channel, op, due: float) -> Outcome:
    sent = time.perf_counter()
    try:
        info = execute(channel, op)
    except Exception as exc:  # noqa: BLE001 — every failure is counted, not raised
        done = time.perf_counter()
        return Outcome(op.kind, due, sent, done, False, error=f"{type(exc).__name__}: {exc}")
    return Outcome(op.kind, due, sent, time.perf_counter(), True, info)


def _run_threads(target, channels) -> None:
    """Run ``target(index, channel)`` on one thread per channel, wait for
    all of them, then close the channels."""
    threads = [
        threading.Thread(target=target, args=pair, daemon=True)
        for pair in enumerate(channels)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for channel in channels:
        channel.close()
