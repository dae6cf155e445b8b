"""Latency benchmark harness.

Times the three session operations the way a user experiences them, on
elapsed real time rather than process time:

* connect: from issuing the command until characteristics are usable, which
  covers finding the device, establishing the connection, and exploring the
  GATT structure;
* disconnect: from the command until the session is confirmed down;
* read: from the command until the decoded value is available.

Each operation runs a configurable number of repetitions after discarded
warmup runs; results report the arithmetic mean and the standard error of
the mean (sample standard deviation over the square root of the count).
"""

from __future__ import annotations

import io
import json
import math
import os
import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .clock import RealClock
from .consumer import ConnectionPolicy, ConsumedThing, consume
from .errors import AllSamplesFailed, NotConnected, PlanError, expect
from .td import parse_td_file
from .transport import MAX_TIMEOUT_MS, open_transport

BENCH_OPERATIONS = ("connect", "disconnect", "read")

CSV_HEADER = "operation,n,mean_ms,sem_ms"


@dataclass(frozen=True)
class BenchStats:
    """Summary of N timed runs of one operation.

    ``failure_causes`` holds ``(exception class name, count)`` pairs of the
    failed repetitions, sorted by name; their counts add up to ``failures``.
    """

    operation: str
    n: int
    mean_ms: float
    sem_ms: float
    samples: tuple[float, ...] = ()
    failures: int = 0
    failure_causes: tuple[tuple[str, int], ...] = ()

    @classmethod
    def from_samples(cls, operation: str, samples,
                     failure_causes: Mapping[str, int] | None = None) -> "BenchStats":
        """Summarize ``samples``; ``failure_causes`` counts failures by class name.

        With no samples it raises ``AllSamplesFailed``, which names the
        failed repetitions and each cause with its count.
        """
        samples = tuple(samples)
        causes = tuple(sorted((failure_causes or {}).items()))
        failures = sum(count for _, count in causes)
        if not samples:
            raise AllSamplesFailed(f"all {failures} {operation!r} repetitions failed"
                                   + _causes_text(causes))
        mean = statistics.fmean(samples)
        sem = statistics.stdev(samples) / math.sqrt(len(samples)) if len(samples) > 1 else 0.0
        return cls(operation=operation, n=len(samples), mean_ms=mean, sem_ms=sem,
                   samples=samples, failures=failures, failure_causes=causes)


@dataclass(frozen=True)
class BenchPlan:
    """What to measure: TD, operations, repetitions, transport, seed.

    The field defaults here are the only defaults, for a plan built in code
    and for a plan file alike. Building a plan checks every field and raises
    ``PlanError`` for any field of the wrong kind or value. ``operations``
    may be one name or a sequence of names, and is stored as a tuple;
    ``policy`` may be a ``ConnectionPolicy`` member or its value, and is
    stored as the member.
    """

    td_path: Path
    operations: tuple[str, ...] = BENCH_OPERATIONS
    repetitions: int = 25
    warmup: int = 1
    transport: str = "sim:network.sim.json"
    seed: int | None = None
    property: str | None = None
    policy: ConnectionPolicy = ConnectionPolicy.KEEP_CONNECTED
    timeout_ms: float = 10_000.0

    def __post_init__(self):
        if not isinstance(self.td_path, (str, os.PathLike)):
            raise PlanError(f"td must be a path, got {self.td_path!r}")
        expect(self.transport, str, PlanError, "transport")
        operations = self.operations
        if isinstance(operations, str):
            operations = (operations,)
        if (not isinstance(operations, (list, tuple)) or not operations
                or any(op not in BENCH_OPERATIONS for op in operations)):
            raise PlanError(f"operations must be a name or a non-empty array of names "
                            f"from {BENCH_OPERATIONS}, got {operations!r}")
        object.__setattr__(self, "operations", tuple(operations))
        if expect(self.repetitions, int, PlanError, "repetitions") < 1:
            raise PlanError("repetitions must be >= 1")
        if expect(self.warmup, int, PlanError, "warmup") < 0:
            raise PlanError("warmup must be >= 0")
        if self.seed is not None:
            expect(self.seed, int, PlanError, "seed")
        if self.property is not None:
            expect(self.property, str, PlanError, "property")
        if "read" in operations and not self.property:
            raise PlanError("a 'read' benchmark needs a property name")
        try:
            object.__setattr__(self, "policy", ConnectionPolicy(self.policy))
        except ValueError as exc:
            raise PlanError(f"unknown policy {self.policy!r}") from exc
        if not 0 < expect(self.timeout_ms, float, PlanError, "timeoutMs") <= MAX_TIMEOUT_MS:
            raise PlanError(f"timeoutMs must be > 0 and at most {MAX_TIMEOUT_MS:g}")


#: Plan file key -> ``BenchPlan`` field, for every key but ``td``.
_PLAN_KEYS = {"operations": "operations", "repetitions": "repetitions",
              "warmup": "warmup", "transport": "transport", "seed": "seed",
              "property": "property", "policy": "policy", "timeoutMs": "timeout_ms"}


def load_bench_plan(path) -> BenchPlan:
    """Read a plan file; relative td/config paths resolve against its folder.

    The file must be a JSON object with a ``td`` string. Every other key it
    sets is passed on to ``BenchPlan``, which checks it and defaults the rest
    (docs/bench-plan.md).
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8, not JSON
        raise PlanError(f"cannot read bench plan {path}: {exc}") from exc
    expect(raw, dict, PlanError, "bench plan")
    base = path.parent
    td_path = (base / expect(raw.get("td"), str, PlanError, "td")).resolve()
    fields = {field: raw[key] for key, field in _PLAN_KEYS.items() if key in raw}
    transport = fields.get("transport", BenchPlan.transport)
    if isinstance(transport, str) and transport.startswith("sim:"):
        fields["transport"] = "sim:" + str((base / transport[4:]).resolve())
    return BenchPlan(td_path=td_path, **fields)


def time_operation(operation: str, thing: ConsumedThing, clock,
                   property_name: str | None = None) -> float:
    """Time one run of an operation; returns elapsed milliseconds."""
    if operation == "connect":
        start = clock.monotonic()
        thing.connect()
    elif operation == "disconnect":
        if not thing.connected:
            raise NotConnected("disconnect timed while not connected")
        start = clock.monotonic()
        thing.disconnect()
    elif operation == "read":
        start = clock.monotonic()
        thing.read_property(property_name)
    else:
        raise PlanError(f"unknown benchmark operation {operation!r}")
    return (clock.monotonic() - start) * 1000.0


def _prepare(operation: str, thing: ConsumedThing) -> None:
    if operation == "connect":
        thing.disconnect()
    elif operation == "disconnect":
        thing.connect()


def run_bench(plan: BenchPlan, clock=None, transport=None) -> list[BenchStats]:
    """Execute a plan and return one BenchStats per operation.

    ``clock`` switches the simulated network (and the timers) onto virtual
    time; the default is the real monotonic clock. Failed repetitions are
    excluded from the statistics and counted separately, by exception class;
    an operation whose every repetition failed raises ``AllSamplesFailed``.
    """
    network = None
    if transport is None:
        transport = open_transport(plan.transport, clock=clock, seed=plan.seed,
                                   timeout_s=plan.timeout_ms / 1000.0)
        network = transport.network
    try:
        timer = getattr(transport, "clock", None) or clock or RealClock()
        thing = consume(parse_td_file(plan.td_path), transport, plan.policy)

        results: list[BenchStats] = []
        for operation in plan.operations:
            if operation == "read" and plan.policy is ConnectionPolicy.KEEP_CONNECTED:
                thing.connect()  # keep the timed window free of connection setup
            samples: list[float] = []
            causes: Counter = Counter()
            for index in range(plan.warmup + plan.repetitions):
                _prepare(operation, thing)
                try:
                    elapsed = time_operation(operation, thing, timer, plan.property)
                except Exception as exc:
                    if index >= plan.warmup:
                        causes[type(exc).__name__] += 1
                    continue
                if index >= plan.warmup:
                    samples.append(elapsed)
            results.append(BenchStats.from_samples(operation, samples, causes))
            thing.disconnect()
        return results
    finally:
        if network is not None:
            network.close()  # stops the delivery thread of the network built here


# --- output formats ------------------------------------------------------------


def format_table(stats: list[BenchStats], device: str) -> str:
    """Render the device row layout: one column per operation, mean ± sem."""
    by_op = {s.operation: s for s in stats}
    headers = ["Device"] + [f"{op.capitalize() if op != 'read' else op} / ms"
                            for op in BENCH_OPERATIONS if op in by_op]
    cells = [device]
    for op in BENCH_OPERATIONS:
        if op in by_op:
            s = by_op[op]
            cells.append(f"{s.mean_ms:.2f} ± {s.sem_ms:.2f}")
    widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "-+-".join("-" * w for w in widths),
        " | ".join(c.ljust(w) for c, w in zip(cells, widths)),
    ]
    footnotes = [f"{s.operation}: N={s.n}" + (f", failures={s.failures}" if s.failures else "")
                 + _causes_text(s.failure_causes) for s in stats]
    lines.append("(" + "; ".join(footnotes) + ")")
    return "\n".join(lines)


def _causes_text(causes: tuple[tuple[str, int], ...]) -> str:
    if not causes:
        return ""
    return " (" + ", ".join(f"{name} {count}" for name, count in causes) + ")"


def to_csv(stats: list[BenchStats]) -> str:
    """Machine-readable summary; floats use shortest round-trip repr."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for s in stats:
        out.write(f"{s.operation},{s.n},{s.mean_ms!r},{s.sem_ms!r}\n")
    return out.getvalue()


def from_csv(text: str) -> list[BenchStats]:
    lines = [line for line in text.strip().splitlines() if line]
    if not lines or lines[0] != CSV_HEADER:
        raise PlanError(f"expected CSV header {CSV_HEADER!r}")
    stats = []
    for line in lines[1:]:
        operation, n, mean_ms, sem_ms = line.split(",")
        stats.append(BenchStats(operation=operation, n=int(n),
                                mean_ms=float(mean_ms), sem_ms=float(sem_ms)))
    return stats


def to_json(stats: list[BenchStats]) -> str:
    return json.dumps([
        {
            "operation": s.operation,
            "n": s.n,
            "mean_ms": s.mean_ms,
            "sem_ms": s.sem_ms,
            "failures": s.failures,
            "failure_causes": dict(s.failure_causes),
            "samples_ms": list(s.samples),
        }
        for s in stats
    ], indent=2)
