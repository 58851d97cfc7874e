"""Where the workload mixes come from: count the ranking and observation
calls the paper's adaptation loop makes.

    PYTHONPATH=src python3 perfbench/provenance.py

Runs ``repro.adaptation.ExecutionEngine`` on the three-task, 20-candidate
workflow of ``examples/runtime_adaptation.py`` for 600 invocations under
``ThresholdPolicy`` and under ``GreedyReoptimizePolicy(period=900)``, and
prints how many rankings (``predict_candidates`` over a candidate pool)
each policy asked for per observation reported.  ``report-steady`` uses
the greedy ratio (about 1 ranking per 25 observations); ``bind-burst`` is
the opposite corner, the binding burst when many workflows start at once.
"""

from __future__ import annotations

import numpy as np

from repro.adaptation import (
    SLA,
    AbstractTask,
    ExecutionEngine,
    QoSPredictionService,
    ServiceRegistry,
    TensorQoSOracle,
    ThresholdPolicy,
    UserManager,
    Workflow,
)
from repro.adaptation.policies import GreedyReoptimizePolicy
from repro.core import AMFConfig
from repro.datasets import generate_dataset

N_TASKS = 3
CANDIDATES_PER_TASK = 20
EXECUTIONS = 200  # x 3 tasks = 600 invocations
SLA_THRESHOLD = 2.0
SEED = 7


class CountingPredictor(QoSPredictionService):
    """The in-process prediction service, counting the calls it serves."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rankings = 0
        self.observations = 0
        self.counting = False

    def report_observation(self, user_id, service_id, value, timestamp) -> None:
        self.observations += self.counting
        super().report_observation(user_id, service_id, value, timestamp)

    def predict_candidates(self, user_id, service_ids):
        self.rankings += self.counting
        return super().predict_candidates(user_id, service_ids)


def count_calls(policy) -> "tuple[int, int]":
    """``(rankings, observations)`` of one 600-invocation run."""
    data = generate_dataset(
        n_users=30, n_services=N_TASKS * CANDIDATES_PER_TASK, n_slices=8, seed=SEED
    )
    oracle = TensorQoSOracle(data, noise_sigma=0.1, rng=SEED)
    registry = ServiceRegistry()
    tasks = []
    for k in range(N_TASKS):
        task_type = f"task-{chr(ord('A') + k)}"
        tasks.append(AbstractTask(name=task_type, task_type=task_type))
        for j in range(CANDIDATES_PER_TASK):
            registry.register(k * CANDIDATES_PER_TASK + j, task_type)
    workflow = Workflow(name="order-pipeline", tasks=tasks)
    for k, task in enumerate(tasks):
        workflow.bind(task.name, k * CANDIDATES_PER_TASK)

    predictor = CountingPredictor(AMFConfig.for_response_time(), rng=SEED)
    rng = np.random.default_rng(SEED)
    for __ in range(3000):  # other users' uploads, as in the example
        u = int(rng.integers(1, 30))
        s = int(rng.integers(0, data.n_services))
        t = float(rng.random() * data.slice_seconds)
        predictor.report_observation(u, s, oracle.value(u, s, t), t)
    predictor.counting = True
    engine = ExecutionEngine(
        user_id=0,
        workflow=workflow,
        registry=registry,
        predictor=predictor,
        policy=policy,
        oracle=oracle,
        sla=SLA(attribute="response_time", threshold=SLA_THRESHOLD),
        users=UserManager(),
    )
    interval = data.slice_seconds * data.n_slices / EXECUTIONS
    engine.run(start=0.0, interval=interval, count=EXECUTIONS)
    return predictor.rankings, predictor.observations


def main() -> None:
    sla = SLA(attribute="response_time", threshold=SLA_THRESHOLD)
    for name, policy in (
        ("ThresholdPolicy", ThresholdPolicy(sla, improvement_margin=0.1)),
        ("GreedyReoptimizePolicy(period=900)", GreedyReoptimizePolicy(period=900.0)),
    ):
        rankings, observations = count_calls(policy)
        per = observations / rankings if rankings else float("inf")
        print(
            f"{name}: {observations} observations, {rankings} rankings "
            f"-> 1 ranking per {per:.1f} observations"
        )


if __name__ == "__main__":
    main()
