"""The three workloads: their data, deployments, request streams and
per-request checks.

The world is fixed, like a dataset: QoS values are a response-time tensor
from :class:`repro.datasets.WSDreamGenerator` (the synthetic twin of
WS-DREAM #2) drawn with ``WORLD_SEED``, and so are the candidate pools,
each user's workflow, user popularity, the warm-up history and, on
``routed-churn``, who joins or goes idle when.  Slice 0
feeds the untimed warm-up, slice 1 is the "now" that measured observations
report and that ranking accuracy is scored against.  Services form pools
of 20 functionally equivalent candidates (one pool per abstract task, as
in ``examples/runtime_adaptation.py``); each user runs a workflow of three
tasks.  The workload seed drives the traffic: which requests are sent,
when, and with which measured values.
"""

from __future__ import annotations

import math
import os

import numpy as np

from fleet import Fleet, Node

WORLD_SEED = 2014
POOL_SIZE = 20
TASKS_PER_USER = 3
N_SERVICES = 1000
#: Warm-up observations are sent in batches of this many records.
WARM_BATCH = 1000


def world_rng(stream: int):
    """A fixed random stream of the world (not of the workload seed)."""
    return np.random.default_rng([WORLD_SEED, stream])


class Op:
    __slots__ = ("due", "kind", "user", "services", "service", "value", "ts")

    def __init__(self, due, kind, user, services=None, service=-1, value=0.0, ts=0.0):
        self.due = due
        self.kind = kind
        self.user = user
        self.services = services
        self.service = service
        self.value = value
        self.ts = ts


class World:
    """Users, services, candidate pools and the true QoS of every pair."""

    def __init__(self, n_users: int, n_services: int = N_SERVICES) -> None:
        from repro.datasets import SyntheticConfig, WSDreamGenerator

        config = SyntheticConfig().scaled(n_users, n_services, n_slices=2)
        tensor = WSDreamGenerator(config, seed=WORLD_SEED).generate_response_time().tensor
        self.warm_truth = tensor[0]
        self.truth = tensor[1]
        #: Invocations that time out read exactly this (the 20 s ceiling).
        self.timeout_value = config.rt_max
        self.n_users = n_users
        self.n_services = n_services
        rng = np.random.default_rng([WORLD_SEED, 1])
        self.pools = rng.permutation(n_services).reshape(-1, POOL_SIZE)
        self.user_tasks = np.stack(
            [
                rng.choice(len(self.pools), TASKS_PER_USER, replace=False)
                for __ in range(n_users)
            ]
        )

    def pool(self, user: int, task: int) -> tuple:
        return tuple(int(s) for s in self.pools[self.user_tasks[user, task]])

    def bound_services(self, user: int) -> np.ndarray:
        return self.pools[self.user_tasks[user]].ravel()

    def warm_records(self, users, extra: int, rng) -> "list[dict]":
        """Every user's pool services once, plus ``extra`` random pairs so
        that every service is known; slice-0 values, time-ordered.

        The stream visits one candidate pool after another, so a tiered
        deployment revives each entity a few times during warm-up instead
        of on nearly every record (warm-up is untimed but bounds run time).
        """
        users = np.asarray(users)
        pairs = [(int(u), int(s)) for u in users for s in self.bound_services(u)]
        pairs += zip(
            rng.choice(users, extra).tolist(),
            rng.integers(0, self.n_services, extra).tolist(),
        )
        stamps = np.sort(rng.uniform(0.0, 900.0, len(pairs)))
        noise = np.exp(rng.normal(0.0, 0.1, len(pairs)))
        pool_of = np.empty(self.n_services, dtype=np.intp)
        pool_of[self.pools] = np.arange(len(self.pools))[:, None]
        pools = pool_of[[s for __, s in pairs]]
        order = np.lexsort((rng.random(len(pairs)), pools))
        return [
            {
                "timestamp": float(stamps[k]),
                "user_id": pairs[i][0],
                "service_id": pairs[i][1],
                "value": float(self.warm_truth[pairs[i]] * noise[k]),
            }
            for k, i in enumerate(order)
        ]

    def observed_value(self, user: int, service: int, rng) -> float:
        return float(self.truth[user, service] * math.exp(rng.normal(0.0, 0.1)))


def known_sources() -> frozenset:
    from repro.server.binary import SOURCE_CODES

    return frozenset(SOURCE_CODES)


def check_ranking(user, services, predictions: dict, sources: dict, known) -> tuple:
    """Validate one ranking; returns ``(user, best_service, best_prediction,
    model_answers, problem)`` where ``problem`` is ``None`` when valid."""
    problem = None
    if sorted(predictions) != sorted(services) or len(predictions) != POOL_SIZE:
        problem = f"ranking for user {user} answered {len(predictions)} of {POOL_SIZE}"
    elif not all(math.isfinite(v) for v in predictions.values()):
        problem = f"ranking for user {user} has a non-finite prediction"
    elif not all(sources.get(s) in known for s in predictions):
        problem = f"ranking for user {user} has an unknown source"
    if problem is not None:
        return user, -1, math.nan, 0, problem
    best = min(predictions, key=lambda s: (predictions[s], s))
    model = sum(1 for s in predictions if sources[s] == "model")
    return user, best, predictions[best], model, None


def poisson_dues(rate: float, seconds: float, rng) -> np.ndarray:
    count = int(rate * seconds * 1.2) + 16
    dues = np.cumsum(rng.exponential(1.0 / rate, count))
    while dues[-1] < seconds:
        dues = np.concatenate([dues, dues[-1] + np.cumsum(rng.exponential(1.0 / rate, count))])
    return dues[dues < seconds]


class Workload:
    """Shared shape: one deployment, a warm-up, a ranking call."""

    name = ""
    loop = "open"
    nominal_rate = 0.0
    n_users = 142
    #: ``setup_s`` ends at the first ranking, made for ``initial_users[0]``.
    initial_users = (0,)

    def __init__(self, seed: int, horizon: float = 30.0) -> None:
        self.seed = seed
        self.world = World(self.n_users)
        self.rng = np.random.default_rng([seed, 2])
        self.known = known_sources()

    # -- deployment ----------------------------------------------------------
    def server_spec(self, data_dir: str, warm: bool) -> dict:
        raise NotImplementedError

    def data_dir_names(self) -> "list[str]":
        return ["server"]

    def launch(self, root: str, dirs: "list[str]", logs: str, warm=False, trace_dir=None) -> Fleet:
        node = Node(
            root,
            "server",
            self.server_spec(dirs[0], warm),
            os.path.join(logs, "server.log"),
            _trace_path(trace_dir, "server"),
        )
        node.wait_ready()
        return Fleet([node], node, dirs)

    # -- traffic -------------------------------------------------------------
    def warm_records(self) -> "list[dict]":
        return self.world.warm_records(np.arange(self.n_users), 10000, world_rng(3))

    def warm_channel(self, fleet: Fleet):
        from repro.server.client import PredictionClient

        return PredictionClient(fleet.entry.address, timeout=60.0, retries=0, transport="json")

    def channel_factory(self, fleet: Fleet):
        raise NotImplementedError

    def first_request(self, channel) -> None:
        user = int(self.initial_users[0])
        self.rank(channel, user, self.world.pool(user, 0))

    def rank(self, channel, user: int, services: tuple) -> tuple:
        raise NotImplementedError

    def execute(self, channel, op):
        """One open-loop op: a ranking (checked) or a single observation."""
        if op.kind == "rank":
            return self.rank(channel, op.user, op.services)
        channel.report_observation(op.user, op.service, op.value, op.ts)
        return None


class BindBurst(Workload):
    """Many workflows binding at once: open loop, rankings over the binary
    transport, Zipf-popular users, one durable server."""

    name = "bind-burst"
    nominal_rate = 1000.0
    rank_share = 0.9
    zipf_s = 1.1

    def __init__(self, seed: int, horizon: float = 30.0) -> None:
        super().__init__(seed, horizon)
        ranks = np.arange(1, self.n_users + 1, dtype=float) ** -self.zipf_s
        self.user_order = world_rng(4).permutation(self.n_users)
        self.user_weights = ranks / ranks.sum()

    def server_spec(self, data_dir, warm):
        return {"data_dir": data_dir, "binary": True, "wal_fsync": not warm}

    def channel_factory(self, fleet):
        from repro.server.client import PredictionClient

        address, binary = fleet.entry.address, fleet.entry.binary_address
        return lambda: PredictionClient(
            address, timeout=10.0, retries=0, transport="binary", binary_address=binary
        )

    def ops(self, rate: float, seconds: float) -> "list[Op]":
        rng = self.rng
        dues = poisson_dues(rate, seconds, rng)
        users = self.user_order[rng.choice(self.n_users, len(dues), p=self.user_weights)]
        is_rank = rng.random(len(dues)) < self.rank_share
        tasks = rng.integers(0, TASKS_PER_USER, len(dues))
        picks = rng.integers(0, TASKS_PER_USER * POOL_SIZE, len(dues))
        ops = []
        for due, user, ranked, task, pick in zip(dues, users, is_rank, tasks, picks):
            user = int(user)
            if ranked:
                ops.append(Op(float(due), "rank", user, self.world.pool(user, int(task))))
            else:
                service = int(self.world.bound_services(user)[pick])
                value = self.world.observed_value(user, service, rng)
                ops.append(Op(float(due), "observe", user, service=service, value=value, ts=900.0 + float(due)))
        return ops

    def rank(self, channel, user, services):
        body = channel.predict_candidates_detailed(user, list(services))
        if body["transport"] != "binary":
            raise RuntimeError("ranking fell back from the binary transport")
        return check_ranking(user, services, body["predictions"], body["sources"], self.known)


class ReportSteady(Workload):
    """The loop's write-dominated steady state: closed-loop reporters send
    keyed JSON batches (with resends and poison) to a gated server whose
    commits take 2 ms, ranking once per 25 observations."""

    name = "report-steady"
    loop = "closed"
    reporters = 2
    mean_batch = 20
    max_batch = 50
    resend_share = 0.01
    poison_share = 0.02
    poison_factor = 50.0
    obs_per_rank = 25
    fsync_delay = 0.002

    def server_spec(self, data_dir, warm):
        return {
            "data_dir": data_dir,
            "gate": True,
            "wal_fsync": not warm,
            "fsync_delay": 0.0 if warm else self.fsync_delay,
        }

    def channel_factory(self, fleet):
        from repro.server.client import PredictionClient

        address = fleet.entry.address
        return lambda: PredictionClient(address, timeout=10.0, retries=0, transport="json")

    def rank(self, channel, user, services):
        body = channel.predict_candidates_detailed(user, list(services))
        return check_ranking(user, services, body["predictions"], body["sources"], self.known)

    def __init__(self, seed: int, horizon: float = 30.0) -> None:
        super().__init__(seed, horizon)
        # Streams continue from round to round, so each round reports new
        # observations and ranks new users.
        self.streams = [self.batches(reporter) for reporter in range(self.reporters)]
        self.rank_rngs = [
            np.random.default_rng([seed, 5, reporter]) for reporter in range(self.reporters)
        ]

    def batches(self, reporter: int):
        """Endless fresh batches of one reporter.  Sizes are 1 + Binomial(49,
        19/49): 1 to 50 records, mean 20, the sizes a collector that
        flushes near a size threshold sends."""
        rng = np.random.default_rng([self.seed, 4, reporter])
        world = self.world
        seq = 0
        clock = 900.0
        while True:
            size = 1 + int(rng.binomial(self.max_batch - 1, (self.mean_batch - 1) / (self.max_batch - 1)))
            records = []
            for __ in range(size):
                user = int(rng.integers(world.n_users))
                service = int(world.bound_services(user)[rng.integers(TASKS_PER_USER * POOL_SIZE)])
                value = world.observed_value(user, service, rng)
                if rng.random() < self.poison_share:
                    value *= self.poison_factor
                seq += 1
                clock += 0.001
                records.append(
                    {
                        "timestamp": clock,
                        "user_id": user,
                        "service_id": service,
                        "value": value,
                        "idempotency_key": f"r{reporter}-{seq}",
                    }
                )
            yield records

    def session(self):
        """The closed-loop body of one reporter (see ``loadgen.closed_loop``).
        A resend repeats a batch this deployment already acknowledged."""
        import time

        from loadgen import timed_call

        def report(channel, op):
            body = channel.report_observations_detailed(op.services)
            return body["accepted"], len(body["rejected"])

        def run(channel, reporter, deadline, record):
            rng = self.rank_rngs[reporter]
            acknowledged: list = []
            since_rank = 0
            while time.perf_counter() < deadline:
                resend = bool(acknowledged) and rng.random() < self.resend_share
                if resend:
                    records = acknowledged[int(rng.integers(len(acknowledged)))]
                else:
                    records = next(self.streams[reporter])
                outcome = timed_call(report, channel, Op(0.0, "observe", -1, services=records))
                if outcome.ok:
                    accepted, rejected = outcome.info
                    outcome.info = (len(records), accepted, rejected, resend)
                    if not resend:
                        acknowledged.append(records)
                record(outcome)
                since_rank += len(records)
                while since_rank >= self.obs_per_rank:
                    since_rank -= self.obs_per_rank
                    user = int(rng.integers(self.world.n_users))
                    task = int(rng.integers(TASKS_PER_USER))
                    op = Op(0.0, "rank", user, self.world.pool(user, task))
                    record(timed_call(lambda c, o: self.rank(c, o.user, o.services), channel, op))

        return run


class RoutedChurn(Workload):
    """The scale-out deployment: a router over two tiered shards while
    users join and go idle (``repro.simulation.churn``)."""

    name = "routed-churn"
    nominal_rate = 120.0
    rank_share = 0.5
    n_users = 400
    shards = ("s0", "s1")
    #: Per-shard hot tiers: about a third of the ~100 active users and of
    #: the ~1000 services each shard sees.
    hot_users = 32
    hot_services = 300

    def __init__(self, seed: int, horizon: float = 30.0) -> None:
        from repro.simulation.churn import ChurnEvent, ChurnSchedule

        super().__init__(seed, horizon)
        order = world_rng(4).permutation(self.n_users)
        half = self.n_users // 2
        self.initial_users = np.sort(order[:half])
        # Like the world, who joins and leaves when does not depend on the
        # seed: drawn from the seed, it doubled the spread of
        # ``model_answer_share`` across seeds.
        times = world_rng(5)
        joins = times.uniform(0.0, horizon, self.n_users - half)
        leaves = times.uniform(0.0, horizon, half)
        events = [
            ChurnEvent(float(t), "user", int(u), "join") for t, u in zip(joins, order[half:])
        ] + [
            ChurnEvent(float(t), "user", int(u), "leave")
            for t, u in zip(leaves, self.initial_users)
        ]
        self.schedule = ChurnSchedule(events)
        self.active = [int(u) for u in self.initial_users]
        self.clock = 0.0

    def data_dir_names(self):
        return list(self.shards)

    def server_spec(self, data_dir, warm):
        return {
            "data_dir": data_dir,
            "wal_fsync": not warm,
            "lifecycle": {"hot_users": self.hot_users, "hot_services": self.hot_services},
        }

    def launch(self, root, dirs, logs, warm=False, trace_dir=None):
        shards = [
            Node(
                root,
                "server",
                self.server_spec(path, warm),
                os.path.join(logs, f"{name}.log"),
                _trace_path(trace_dir, name),
            )
            for name, path in zip(self.shards, dirs)
        ]
        for node in shards:
            node.wait_ready()
        router = Node(
            root,
            "router",
            {"shards": [[name, *node.address] for name, node in zip(self.shards, shards)]},
            os.path.join(logs, "router.log"),
            _trace_path(trace_dir, "router"),
        )
        router.wait_ready()
        return Fleet(shards + [router], router, dirs)

    def warm_records(self):
        return self.world.warm_records(self.initial_users, 3000, world_rng(3))

    def warm_channel(self, fleet):
        from repro.cluster import ClusterClient

        return ClusterClient(fleet.entry.address, timeout=60.0, retries=0)

    def channel_factory(self, fleet):
        from repro.cluster import ClusterClient

        address = fleet.entry.address
        return lambda: ClusterClient(address, timeout=10.0, retries=0)

    def ops(self, rate, seconds):
        """Continues the churn clock across calls: users join and go idle
        as simulated time advances with each op."""
        rng = self.rng
        dues = poisson_dues(rate, seconds, rng)
        ops = []
        for due in dues:
            for event in self.schedule.pop_due(self.clock + float(due)):
                if event.action == "join":
                    self.active.append(event.entity_id)
                else:
                    self.active.remove(event.entity_id)
            user = self.active[int(rng.integers(len(self.active)))]
            if rng.random() < self.rank_share:
                task = int(rng.integers(TASKS_PER_USER))
                ops.append(Op(float(due), "rank", user, self.world.pool(user, task)))
            else:
                service = int(self.world.bound_services(user)[rng.integers(TASKS_PER_USER * POOL_SIZE)])
                value = self.world.observed_value(user, service, rng)
                ops.append(
                    Op(float(due), "observe", user, service=service, value=value,
                       ts=900.0 + self.clock + float(due))
                )
        self.clock += seconds
        return ops

    def rank(self, channel, user, services):
        body = channel.rank_candidates(user, list(services))
        ranked = body["ranked"]
        predictions = {int(e["service_id"]): float(e["prediction"]) for e in ranked}
        sources = {int(e["service_id"]): e["source"] for e in ranked}
        return check_ranking(user, services, predictions, sources, self.known)


def _trace_path(trace_dir, name):
    return None if trace_dir is None else os.path.join(trace_dir, f"{name}.json")


WORKLOADS = {cls.name: cls for cls in (BindBurst, ReportSteady, RoutedChurn)}
