"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``. They run
the benchmark from its command line, briefly, and check its output's shape,
its determinism for a seed, and how tracing treats a missing entry point.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run

run.import_package()

import wotble  # noqa: E402
from layers import WRAPPED, Tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def repeatable(result: dict) -> dict:
    """The per-layer values that must repeat exactly for a seed."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith(("calls_per_op", "trace_entries_per_op"))
            or name.startswith(("paper.", "radio.", "errors."))}


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_output_schema(workload, trace):
    result = bench(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_repeat_for_a_seed_and_change_with_another():
    first, again, other = (bench("poll-hot", seed, 1) for seed in (5, 5, 6))
    assert repeatable(first) == repeatable(again)
    changed = {k for k, v in repeatable(first).items() if repeatable(other)[k] != v}
    assert "paper.connect_ms_mean" in changed
    assert any(k.endswith("calls_per_op") for k in changed)
    # The criteria the benchmark is built to show at this commit.
    metrics = first["metrics"]
    assert metrics["codec.compile_pattern.calls_per_op"]["value"] > 0
    assert metrics["uris.parse_gatt_uri.calls_per_op"]["value"] >= 1

    e2e = [bench("session-churn", seed, 0)["metrics"]["radio_ms_per_op"]["value"]
           for seed in (5, 5, 6)]
    assert e2e[0] == e2e[1] != e2e[2]


def test_missing_entry_point_reads_zero():
    missing = ("codec", "wotble.codec", "no_such_function")
    absent_class = ("transport", "wotble.transport", "NoSuchClass.no_such_method")
    tracer = Tracer(WRAPPED + (missing, absent_class))
    tracer.install()
    try:
        workload = WORKLOADS["poll-hot"](1, run.ROOT)
        result = workload.round(workload.items[:50])
    finally:
        tracer.remove()
    metrics = run.call_metrics(tracer, result.attempted, result.speed)
    assert metrics["codec.no_such_function.calls_per_op"] == 0
    assert metrics["codec.no_such_function.us_p50"] == 0
    assert metrics["transport.no_such_method.calls_per_op"] == 0
    assert metrics["transport.read.calls_per_op"] > 0
    assert not hasattr(wotble.codec.encode, "__wrapped__")
    assert not hasattr(wotble.transport.SimTransport.read, "__wrapped__")


def test_a_wrong_value_is_a_failure(monkeypatch):
    monkeypatch.setitem(workloads.SENSOR_VALUES, "moisture", 43)
    workload = WORKLOADS["poll-hot"](1, run.ROOT)
    result = workload.round(workload.items[:200])
    reads = sum(1 for kind, arg in workload.items[:200] if arg == "moisture")
    assert reads and result.failures == {"check.read_value": reads}


def test_refuses_to_run_without_the_package(monkeypatch):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-dir")
    with pytest.raises(SystemExit):
        run.import_package()
