#!/usr/bin/env python
"""Poisoned-stream accuracy benchmark for the outlier gate.

Builds a structured synthetic QoS matrix (rank-2 + multiplicative noise),
streams samples from it with a configurable fraction corrupted (values
multiplied by a large factor — a broken collector, not random line
noise), trains gate-on and gate-off models over the identical stream, and
scores both against the clean ground truth (MAE and NPRE, Section V-B
metrics).  Writes one JSON record per run to ``BENCH_robustness.json`` at
the repo root::

    PYTHONPATH=src python scripts/bench_robustness.py
    PYTHONPATH=src python scripts/bench_robustness.py --records 8000 --seed 3

The acceptance bar (checked and recorded in the ``pass`` field): at every
corruption level >= 5% the gated model must score *strictly better* on
both MAE and NPRE, and on the clean stream the gate must cost nothing
(within ``--clean-tolerance``, default 5% relative).  Exits nonzero when
the bar is missed, so CI can run it as a regression check.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from benchlib import append_record, git_revision
from repro.core import AdaptiveMatrixFactorization, AMFConfig, StreamTrainer
from repro.datasets.schema import QoSRecord
from repro.metrics.errors import mae, npre
from repro.robustness import GateConfig, SanitizerGate

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_robustness.json"

N_USERS = 30
N_SERVICES = 50


def make_truth(rng: np.random.Generator) -> np.ndarray:
    """Rank-2 positive ground truth in a response-time-like range."""
    u = rng.uniform(0.4, 1.8, size=(N_USERS, 2))
    s = rng.uniform(0.3, 2.2, size=(N_SERVICES, 2))
    return np.clip(u @ s.T, 0.05, 15.0)


def make_stream(
    truth: np.ndarray,
    n_records: int,
    corruption: float,
    rng: np.random.Generator,
) -> list[QoSRecord]:
    """Noisy samples of ``truth``; a ``corruption`` fraction is multiplied
    by a large factor (the tail-corruption model of Ye et al., 2006.01287)."""
    records = []
    for k in range(n_records):
        u = int(rng.integers(N_USERS))
        s = int(rng.integers(N_SERVICES))
        value = float(truth[u, s] * (1.0 + rng.normal(0.0, 0.05)))
        if corruption and rng.random() < corruption:
            value *= float(rng.uniform(50.0, 500.0))
        records.append(
            QoSRecord(
                timestamp=float(k), user_id=u, service_id=s,
                value=max(value, 1e-3),
            )
        )
    return records


def score(model: AdaptiveMatrixFactorization, truth: np.ndarray) -> dict:
    predicted = model.predict_matrix()[:N_USERS, :N_SERVICES]
    flat_pred = [float(v) for v in predicted.ravel()]
    flat_true = [float(v) for v in truth.ravel()]
    return {
        "mae": float(mae(flat_pred, flat_true)),
        "npre": float(npre(flat_pred, flat_true)),
    }


def train(records: list[QoSRecord], gate_on: bool, seed: int) -> dict:
    model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=seed)
    gate = (
        SanitizerGate(GateConfig(), model.normalize_value, model.denormalize_value)
        if gate_on
        else None
    )
    trainer = StreamTrainer(model, gate=gate)
    report = trainer.process(records)
    result = score(model, truth=train.truth)
    result["quarantined"] = report.quarantined
    if gate is not None:
        result["gate_counts"] = dict(gate.counts)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=6000,
                        help="stream length per run (default 6000)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--corruption", type=float, nargs="*",
                        default=[0.0, 0.05, 0.10],
                        help="corrupted-sample fractions to sweep")
    parser.add_argument("--clean-tolerance", type=float, default=0.05,
                        help="max relative MAE penalty the gate may cost on "
                             "a clean stream (default 0.05)")
    parser.add_argument("--note", default="")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    truth = make_truth(rng)
    train.truth = truth

    levels = {}
    failures: list[str] = []
    for corruption in args.corruption:
        stream = make_stream(
            truth, args.records, corruption,
            np.random.default_rng(args.seed + 1),
        )
        gate_off = train(stream, gate_on=False, seed=args.seed)
        gate_on = train(stream, gate_on=True, seed=args.seed)
        levels[f"{corruption:.2f}"] = {"gate_off": gate_off, "gate_on": gate_on}
        tag = f"corruption {corruption:.0%}"
        print(f"{tag}: gate-off MAE {gate_off['mae']:.4f} NPRE "
              f"{gate_off['npre']:.4f} | gate-on MAE {gate_on['mae']:.4f} "
              f"NPRE {gate_on['npre']:.4f} "
              f"(quarantined {gate_on['quarantined']})")
        if corruption >= 0.05:
            if not (gate_on["mae"] < gate_off["mae"]):
                failures.append(f"{tag}: gate-on MAE not strictly better")
            if not (gate_on["npre"] < gate_off["npre"]):
                failures.append(f"{tag}: gate-on NPRE not strictly better")
        elif corruption == 0.0:
            ceiling = gate_off["mae"] * (1.0 + args.clean_tolerance)
            if gate_on["mae"] > ceiling:
                failures.append(
                    f"clean stream: gate-on MAE {gate_on['mae']:.4f} exceeds "
                    f"gate-off {gate_off['mae']:.4f} by more than "
                    f"{args.clean_tolerance:.0%}"
                )

    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "revision": git_revision(),
        "records": args.records,
        "seed": args.seed,
        "note": args.note,
        "clean_tolerance": args.clean_tolerance,
        "levels": levels,
        "pass": not failures,
        "failures": failures,
    }
    append_record(RESULTS_PATH, record)
    print(f"recorded to {RESULTS_PATH}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
