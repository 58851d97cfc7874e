"""Tiny runs of every workload through the benchmark command, with all of
its output checks, plus the traced run's layer attribution."""

import json

import pytest

import run
from conftest import ROOT
from summarize import UNITS as PER_LAYER_UNITS
from workloads import WORKLOADS, BindBurst


def bench(monkeypatch, capsys, workload, trace, seconds=2):
    monkeypatch.chdir(ROOT)
    code = run.main(
        ["--workload", workload, "--seed", "11", "--seconds", str(seconds), "--trace", str(trace)]
    )
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    return code, result, out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_passes_its_checks(monkeypatch, capsys, workload):
    code, result, out = bench(monkeypatch, capsys, workload, trace=0)
    assert code == 0, out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.UNITS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.UNITS[name]
        assert metric["value"] > 0, name
    if workload == "report-steady":
        assert "recovery after SIGKILL" in out


@pytest.mark.parametrize("workload", ["bind-burst", "routed-churn"])
def test_traced_run_attributes_router_and_tiering_layers(monkeypatch, capsys, workload):
    code, result, out = bench(monkeypatch, capsys, workload, trace=1)
    assert code == 0, out
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(PER_LAYER_UNITS)
    routed = [
        "router.self_ms_p50",
        "router.shard_calls_per_rank",
        "router.shard_calls_per_observe",
        "tiered.revives_per_op",
        "tiered.revive_ms_p50",
        "spill.ms_per_op",
        "spill.file_bytes",
    ]
    for name in routed:
        assert (metrics[name] > 0) == (workload == "routed-churn"), name
    assert (metrics["binary.self_us_p50"] > 0) == (workload == "bind-burst")
    assert metrics["wal.fsyncs_per_obs"] >= 1.0


class RefusedObservations(BindBurst):
    """bind-burst in which every tenth observation reports a negative
    value, which the server refuses with a 400."""

    def ops(self, rate, seconds):
        ops = super().ops(rate, seconds)
        for op in [o for o in ops if o.kind == "observe"][::10]:
            op.value = -1.0
        return ops


def test_requests_the_server_refuses_fail_the_run(monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, "bind-burst", RefusedObservations)
    code, result, out = bench(monkeypatch, capsys, "bind-burst", trace=0)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert "requests failed in round 0" in out


def test_refuses_to_run_outside_a_checkout(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "bind-burst", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
