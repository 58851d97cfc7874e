"""Pure arithmetic of the benchmark: percentiles, open-loop lateness, and
the ``max_rate_rps`` search.  No I/O, so the unit tests can pin it down."""

from __future__ import annotations

import math

#: A request type's p99 must stay at or under this for a rate to pass.
LATENCY_LIMIT_MS = 50.0
#: At most this share of a probe's requests may fail or be refused.
MAX_FAIL_RATIO = 0.01
#: ``max_rate_rps`` is found to within this factor.
SEARCH_PRECISION = 1.05
#: A tail percentile must have at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10
#: Backlog counts as growing when the generator's median lateness over the
#: last quarter of a probe exceeds the first quarter's by more than this.
BACKLOG_GROWTH_MS = 5.0


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation between
    closest ranks (numpy's default).  ``inf`` entries (failed requests)
    sort last, so a failure counts as missing every latency limit."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be within [0, 100], got {q}")
    position = (len(data) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high or data[low] == data[high]:
        return float(data[low])
    if math.isinf(data[high]):
        return math.inf
    return float(data[low] + (data[high] - data[low]) * (position - low))


def median(values) -> float:
    return percentile(values, 50.0)


def tail_level(count: int, ceiling: float = 99.0, beyond: int = TAIL_SAMPLES_BEYOND) -> float:
    """The highest percentile, up to ``ceiling``, that has at least
    ``beyond`` of ``count`` samples above it (never below the median)."""
    if count < 1:
        raise ValueError("tail of an empty sample")
    return max(50.0, min(ceiling, 100.0 * (1.0 - beyond / count)))


def lateness_ms(due, sent) -> list[float]:
    """How late the generator sent each request, in ms (never negative:
    a request sent early counts as on time)."""
    if len(due) != len(sent):
        raise ValueError("due and sent must pair up")
    return [max(0.0, (s - d) * 1000.0) for d, s in zip(due, sent)]


def backlog_grows(lateness, threshold_ms: float = BACKLOG_GROWTH_MS) -> bool:
    """True when lateness trends upward across a probe, i.e. requests
    arrive faster than the generator's workers can send them.  ``lateness``
    is in send order."""
    if len(lateness) < 8:
        return False
    quarter = len(lateness) // 4
    head = median(lateness[:quarter])
    tail = median(lateness[-quarter:])
    return tail - head > threshold_ms


def probe_passes(
    latencies_by_type: "dict[str, list[float]]",
    attempted: int,
    failed: int,
    lateness,
    limit_ms: float = LATENCY_LIMIT_MS,
    max_fail_ratio: float = MAX_FAIL_RATIO,
) -> bool:
    """The ``max_rate_rps`` verdict for one probe: every request type's
    p99 (failed requests as ``inf``) within the limit, at most
    ``max_fail_ratio`` of requests failed, and no growing backlog.
    Latencies run from the send; the wait before it is the generator's
    ``lateness``, judged by its trend, so a momentary stall that the
    generator catches up on does not fail a rate it can sustain."""
    if attempted < 1:
        return False
    if failed / attempted > max_fail_ratio:
        return False
    for samples in latencies_by_type.values():
        if samples and percentile(samples, 99.0) > limit_ms:
            return False
    return not backlog_grows(lateness)


class RateBisection:
    """Narrows ``max_rate_rps`` between a passing and a failing rate.

    Start from a rate known to pass (the nominal rate, when its rounds
    passed) and one known to fail (the back-to-back ceiling, which no open
    loop with the same workers can sustain).  Each probe goes to the
    geometric midpoint; the search ends once the two are within
    ``precision`` of each other, so the passing rate is within that factor
    of the highest passing rate.
    """

    def __init__(self, passing: float, failing: float, precision: float = SEARCH_PRECISION) -> None:
        if not 0.0 < passing or precision <= 1.0:
            raise ValueError("need passing > 0 and precision > 1")
        self.passing = float(passing)
        self.failing = float(failing)
        self.precision = float(precision)

    def next_rate(self) -> "float | None":
        if self.failing / self.passing <= self.precision:
            return None
        return math.sqrt(self.passing * self.failing)

    def record(self, rate: float, passed: bool) -> None:
        if passed:
            self.passing = max(self.passing, float(rate))
        else:
            self.failing = min(self.failing, float(rate))
