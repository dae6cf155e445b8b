"""Benchmark for the wotble package.

Usage, from the repository root:

    python3 perfbench/run.py --workload poll-hot --seed 1 --seconds 10 --trace 0

Workloads: ``poll-hot``, ``session-churn``, ``notify-mixed`` (see NOTES.md).
With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a separate traced round, the shipped paper harness's numbers, tails and the
run's failures by layer. Lines before it give the environment and a table.
The exit code is 0 only when a result was printed and no operation or check
failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from layers import CONSUMER_CALLS, KEYS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up probes per run; their median is ``setup_s``.
SETUP_PROBES = 7
#: Share of ``--seconds`` spent on untraced rounds in a traced run.
TRACE_BASELINE_SHARE = 0.5
#: How long a traced run waits for threads to end before counting them.
THREAD_GRACE_S = 0.5
#: Layers failures are attributed to; ``check`` is a wrong or missing result.
ERROR_LAYERS = ("td", "uris", "binding", "codec", "consumer", "transport",
                "clock", "check", "bench")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ok/attempted",
    "ops_per_s": "op/s",
    "op_us_p50": "us",
    "read_us_p50": "us",
    "write_us_p50": "us",
    "radio_ms_per_op": "ms/op",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for key in KEYS:
        units[f"{key}.calls_per_op"] = "call/op"
        units[f"{key}.us_p50"] = "us"
    units.update({
        "consumer.self_us_p50": "us",
        "transport.notify_hop_us_p50": "us",
        "transport.trace_entries_per_op": "entry/op",
        "py.gc_gen2_per_kop": "1/kop",
        "threads_alive_end": "count",
        "radio.discovery_ms_mean": "ms",
        "radio.setup_ms_mean": "ms",
        "radio.att_ms_mean": "ms",
        "radio.disconnect_ms_mean": "ms",
        "paper.connect_ms_mean": "ms",
        "paper.connect_ms_sem": "ms",
        "paper.disconnect_ms_mean": "ms",
        "paper.read_ms_mean": "ms",
        "session_us_p50": "us",
        "notify_us_p50": "us",
        "read_us_p99": "us",
        "write_us_p99": "us",
        "session_us_p99": "us",
        "notify_us_p99": "us",
        "gen.late_us_p50": "us",
        "error_ratio": "failed/attempted",
        "cpu.speed_ratio": "ratio",
        "trace_overhead_ratio": "ratio",
    })
    for layer in ERROR_LAYERS:
        units[f"errors.{layer}"] = "count"
    return units


# -- statistics -------------------------------------------------------------


def rounds_us(rounds, *kinds: str, column: int = 1) -> float:
    """Median over rounds of the mean of each round's p50 of ``kinds``, in µs.

    Column 2 gives the p99, column 3 the p50 in plain wall time. Rounds
    missing a sample of some kind are left out; zero when every round is.
    """
    values = [statistics.fmean(r.summary[k][column] for k in kinds) for r in rounds
              if all(r.summary[k][0] for k in kinds)]
    return statistics.median(values) / 1000.0 if values else 0.0


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


# -- set-up time ------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> int:
    """Child side: set up, run the first operation, say so, exit."""
    from workloads import WORKLOADS

    WORKLOADS[workload](seed, ROOT).first_op()
    print("ready", flush=True)
    return 0


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from spawning an interpreter to its first operation.

    Each probe is scaled to the reference CPU speed as the latencies are,
    by the calibration loop timed just before and after it.
    """
    from workloads import calibrate, speed_scale

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        before = calibrate()
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as child:
            line = child.stdout.readline()
            took = time.perf_counter() - start
            child.stdout.read()
            code = child.wait()
        if line != b"ready\n" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(took * speed_scale((before + calibrate()) / 2))
    return statistics.median(times)


# -- measurement ------------------------------------------------------------


def run_rounds(workload, seconds: float) -> list:
    """Run whole rounds until ``seconds`` have passed; at least two."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < 2 or time.perf_counter() < deadline:
        rounds.append(workload.round())
    return rounds


def end_to_end(rounds, workload, setup_s: float) -> dict[str, float]:
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": (attempted - failed) / attempted,
        # An open loop completes work at its schedule's rate, whatever the CPU.
        "ops_per_s": statistics.median(r.raw_rate if workload.open_loop else r.rate
                                       for r in rounds),
        "op_us_p50": rounds_us(rounds, *workload.op_kinds),
        "read_us_p50": rounds_us(rounds, "read"),
        "write_us_p50": rounds_us(rounds, "write"),
        "radio_ms_per_op": statistics.median(r.radio_s * 1000.0 / r.attempted
                                             for r in rounds),
    }


def traced(workload, seconds: float, seed: int) -> tuple[dict, list, list[str]]:
    """Per-layer metrics: an untraced baseline, one traced round, the paper run.

    Returns the metrics, every round run, and the causes of failed checks.
    """
    baseline = run_rounds(workload, seconds * TRACE_BASELINE_SHARE)
    tracer = Tracer()
    tracer.install()
    try:
        result = workload.round()
        ops = result.attempted
        metrics = call_metrics(tracer, ops, result.speed)
        metrics["transport.notify_hop_us_p50"] = rounds_us([result], "hop")
        metrics["transport.trace_entries_per_op"] = result.trace_entries / ops
        metrics["py.gc_gen2_per_kop"] = result.gc_gen2 / (ops / 1000.0)
        metrics.update(radio_phases(tracer))
        metrics.update(paper_numbers(seed))
    finally:
        tracer.remove()

    # The round's draws and the paper run's draws, all distinct.
    checks = [] if discovery_within_3_sem(tracer.discovery) else ["check.discovery_mean"]
    metrics["threads_alive_end"] = threads_alive_end()

    metrics["trace_overhead_ratio"] = (rounds_us([result], *workload.op_kinds)
                                       / rounds_us(baseline, *workload.op_kinds))

    metrics.update(latency_details(baseline))

    # Counts come from the traced round alone, so they repeat for a seed.
    failures = Counter(checks) + result.failures
    metrics["error_ratio"] = sum(failures.values()) / ops
    for layer in ERROR_LAYERS:
        metrics[f"errors.{layer}"] = sum(n for cause, n in failures.items()
                                         if cause.split(".")[0] == layer)
    return metrics, baseline + [result], checks


def latency_details(rounds) -> dict[str, float]:
    """Latencies that are reported but not gated: per-kind p50s and tails."""
    details = {"session_us_p50": rounds_us(rounds, "session"),
               "notify_us_p50": rounds_us(rounds, "notify"),
               "gen.late_us_p50": rounds_us(rounds, "late")}
    for kind in ("read", "write", "session", "notify"):
        details[f"{kind}_us_p99"] = rounds_us(rounds, kind, column=2)
    return details


def unscaled(rounds, workload) -> dict[str, float]:
    """The scaled end-to-end figures again, in plain wall time.

    Printed beside the result, so that every run shows what the scaling to
    the reference CPU speed changed.
    """
    return {
        "ops_per_s": statistics.median(r.raw_rate for r in rounds),
        "op_us_p50": rounds_us(rounds, *workload.op_kinds, column=3),
        "read_us_p50": rounds_us(rounds, "read", column=3),
        "write_us_p50": rounds_us(rounds, "write", column=3),
    }


def call_metrics(tracer, ops: int, speed: float) -> dict[str, float]:
    """Calls per operation and p50 µs of every wrapped entry point.

    Per-call times are scaled by the round's median speed, as a whole. An
    entry point the tracer could not wrap reads zero.
    """
    from workloads import percentile

    us = speed / 1000.0
    metrics = {"cpu.speed_ratio": speed}
    for key, calls in tracer.wall_ns.items():
        metrics[f"{key}.calls_per_op"] = len(calls) / ops
        metrics[f"{key}.us_p50"] = percentile(calls, 0.5) * us
    consumer_self = [s for key in CONSUMER_CALLS for s in tracer.self_ns.get(key, ())]
    metrics["consumer.self_us_p50"] = percentile(consumer_self, 0.5) * us
    return metrics


def radio_phases(tracer) -> dict[str, float]:
    discovery_ms = [d * 1000.0 for d, _, _ in tracer.discovery]
    connect_ms = tracer.radio_ms["transport.connect"]
    att = tracer.radio_ms["transport.read"] + tracer.radio_ms["transport.write"]
    return {
        "radio.discovery_ms_mean": mean(discovery_ms),
        "radio.setup_ms_mean": mean(connect_ms) - mean(discovery_ms) if connect_ms else 0.0,
        "radio.att_ms_mean": mean(att),
        "radio.disconnect_ms_mean": mean(tracer.radio_ms["transport.disconnect"]),
    }


def paper_numbers(seed: int) -> dict[str, float]:
    """The shipped harness on the fixture plan, on virtual time."""
    import wotble

    plan = wotble.load_bench_plan(ROOT / "fixtures" / "bench-plan.json")
    plan = dataclasses.replace(plan, seed=seed)
    stats = {s.operation: s for s in wotble.run_bench(plan, clock=wotble.VirtualClock())}
    return {
        "paper.connect_ms_mean": stats["connect"].mean_ms,
        "paper.connect_ms_sem": stats["connect"].sem_ms,
        "paper.disconnect_ms_mean": stats["disconnect"].mean_ms,
        "paper.read_ms_mean": stats["read"].mean_ms,
    }


def discovery_within_3_sem(draws) -> bool:
    """Discovery delays average half the advertising interval plus processing.

    Draws come from devices with different intervals, so the test is on each
    draw's distance from its own analytic mean.
    """
    residuals = [d * 1000.0 - (interval / 2.0 + processing)
                 for d, interval, processing in draws]
    if len(residuals) < 2:
        return True
    sem = statistics.stdev(residuals) / math.sqrt(len(residuals))
    return abs(statistics.fmean(residuals)) <= 3.0 * sem


def threads_alive_end() -> int:
    """Threads other than this one still alive after a short grace period."""
    deadline = time.monotonic() + THREAD_GRACE_S
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(max(0.0, deadline - time.monotonic()))
    return sum(t.is_alive() for t in threading.enumerate()) - 1


# -- main -------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import wotble from this checkout's source tree, and only from there."""
    if not (SRC / "wotble" / "__init__.py").is_file():
        raise SystemExit(f"no wotble source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import wotble

    if Path(wotble.__file__).resolve().parent != (SRC / "wotble").resolve():
        raise SystemExit(f"imported wotble from {wotble.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # Every thread of the run, and the set-up probes, share one CPU. The
    # calibration loop then times the CPU that runs all of the work, and a
    # notification does not wait for the host to wake a second virtual CPU,
    # which on a shared machine took from 0.1 to over 0.5 ms run by run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    checks: list[str] = []
    units = per_layer_units()
    if args.trace:
        metrics, rounds, checks = traced(workload, args.seconds, args.seed)
        shown = metrics
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        rounds = run_rounds(workload, args.seconds)
        metrics = end_to_end(rounds, workload, setup_s)
        shown = {**metrics, **latency_details(rounds),
                 "error_ratio": 1.0 - metrics["success_ratio"]}
        units = {**units, **END_TO_END_UNITS}

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds) + len(checks)
    failures = Counter(checks)
    for r in rounds:
        failures.update(r.failures)
    expected = END_TO_END_UNITS if not args.trace else units
    if set(metrics) != set(expected):
        raise RuntimeError(f"metrics differ from the declared: {set(metrics) ^ set(expected)}")

    env = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_used": len(os.sched_getaffinity(0)),
        "switchinterval_s": sys.getswitchinterval(),
        "seed": args.seed,
        "workload": args.workload,
        "ops_per_round": workload.ops,
        "rounds": len(rounds),
        "setup_probes": SETUP_PROBES,
    }
    print(json.dumps({"env": env}))
    if not args.trace:
        print(json.dumps({"unscaled": unscaled(rounds, workload)}))
    if failures:
        print(json.dumps({"failures": dict(failures)}))
    for name in sorted(shown):
        print(f"{name:40s} {shown[name]:14.4f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    # Any failed operation or check fails the run, not just its ``correct``.
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
