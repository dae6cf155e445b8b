import json
import math
import random
import threading

import pytest

from wotble import BenchStats, SimTransport, VirtualClock, load_bench_plan, run_bench
from wotble.bench import BenchPlan, format_table, from_csv, time_operation, to_csv, to_json
from wotble.consumer import ConnectionPolicy, consume
from wotble.errors import AllSamplesFailed, NotConnected, PlanError, Timeout
from wotble.td import parse_td_file
from conftest import BENCH_PLAN, FIXTURES, SENSOR_TD, make_network


# Independent two-pass oracle for mean and standard error of the mean.
def two_pass_mean_sem(samples):
    n = len(samples)
    mean = sum(samples) / n
    if n < 2:
        return mean, 0.0
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    return mean, math.sqrt(variance) / math.sqrt(n)


def test_stats_match_two_pass_oracle_on_known_samples():
    stats = BenchStats.from_samples("read", [1.0, 2.0, 3.0])
    assert stats.mean_ms == pytest.approx(2.0, rel=1e-12)
    assert stats.sem_ms == pytest.approx(1.0 / math.sqrt(3), rel=1e-12)
    assert round(stats.sem_ms, 3) == 0.577


def test_constant_samples_have_zero_sem():
    stats = BenchStats.from_samples("read", [5.0, 5.0, 5.0, 5.0])
    assert stats.mean_ms == 5.0
    assert stats.sem_ms == 0.0


def test_single_sample_has_zero_sem():
    stats = BenchStats.from_samples("connect", [7.5])
    assert (stats.n, stats.mean_ms, stats.sem_ms) == (1, 7.5, 0.0)


def test_stats_match_oracle_on_random_sample_sets():
    rng = random.Random(4321)
    for _ in range(200):
        samples = [rng.uniform(0.0, 5000.0) for _ in range(rng.randint(2, 50))]
        stats = BenchStats.from_samples("read", samples)
        mean, sem = two_pass_mean_sem(samples)
        assert stats.mean_ms == pytest.approx(mean, rel=1e-9)
        assert stats.sem_ms == pytest.approx(sem, rel=1e-9)


def test_empty_samples_raise_naming_each_cause():
    with pytest.raises(AllSamplesFailed, match=r"^all 0 'read' repetitions failed$"):
        BenchStats.from_samples("read", [])
    with pytest.raises(AllSamplesFailed) as exc_info:
        BenchStats.from_samples("read", [], {"Timeout": 2, "BadValue": 1})
    assert str(exc_info.value) == "all 3 'read' repetitions failed (BadValue 1, Timeout 2)"


# --- plan loading --------------------------------------------------------------------

def test_load_plan_resolves_paths_relative_to_plan_file():
    plan = load_bench_plan(BENCH_PLAN)
    assert plan.td_path == (FIXTURES / "flower-sensor.td.json").resolve()
    assert plan.transport == f"sim:{(FIXTURES / 'network.sim.json').resolve()}"
    assert plan.repetitions == 25
    assert plan.warmup == 1
    assert plan.seed == 7
    assert plan.property == "moisture"


@pytest.mark.parametrize("overrides", [
    {"repetitions": 0},
    {"operations": ["connect", "teleport"]},
    {"operations": []},
    {"operations": ["read"], "property": None},
    {"transport": 5},
    {"timeoutMs": "5"},
    {"warmup": 1.5},
    {"repetitions": 2.5},
    {"seed": [1]},
    {"seed": True},
    {"property": 5},
    {"property": [1]},
    {"timeoutMs": 0},
    {"timeoutMs": float("nan")},
    {"timeoutMs": float("inf")},
    {"timeoutMs": 10**400},
    {"timeoutMs": 1e16},  # beyond the longest wait a thread can be given
    {"policy": "disconnect_after"},  # a removed policy
])
def test_invalid_plans_are_rejected(tmp_path, overrides):
    raw = json.loads(BENCH_PLAN.read_text())
    raw["td"] = str(SENSOR_TD)
    raw["transport"] = f"sim:{FIXTURES / 'network.sim.json'}"
    raw.update(overrides)
    if raw.get("property") is None:
        raw.pop("property", None)
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(raw))
    with pytest.raises(PlanError):
        load_bench_plan(plan_file)


def test_a_plan_file_with_only_td_and_property_loads_the_defaults(tmp_path):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({"td": str(SENSOR_TD), "property": "moisture"}))
    assert load_bench_plan(plan_file) == BenchPlan(
        td_path=SENSOR_TD.resolve(), property="moisture",
        transport=f"sim:{(tmp_path / 'network.sim.json').resolve()}")


@pytest.mark.parametrize("overrides", [
    {"transport": 5},
    {"td_path": 5},
    {"operations": 5},
    {"operations": None},
    {"operations": ()},
    {"policy": "bogus"},
    {"policy": None},
    {"policy": ["keep_connected"]},
])
def test_a_plan_built_in_code_is_checked(overrides):
    fields = {"td_path": SENSOR_TD, "property": "moisture", **overrides}
    with pytest.raises(PlanError):
        BenchPlan(**fields)


def test_one_operation_name_is_stored_as_a_tuple():
    plan = BenchPlan(td_path=SENSOR_TD, operations="read", property="moisture")
    assert plan.operations == ("read",)
    assert BenchPlan(td_path=str(SENSOR_TD), operations=["connect"]).operations == \
        ("connect",)


def test_a_policy_value_is_stored_as_its_member():
    plan = BenchPlan(td_path=SENSOR_TD, operations=("read",), repetitions=4, warmup=0,
                     transport=f"sim:{FIXTURES / 'network.sim.json'}", seed=7,
                     property="moisture", policy="keep_connected")
    assert plan.policy is ConnectionPolicy.KEEP_CONNECTED
    [stats] = run_bench(plan, clock=VirtualClock())
    assert stats.samples == (0.0, 0.0, 0.0, 0.0)  # no link setup in the first read


# --- timing windows ------------------------------------------------------------------

def test_time_operation_windows_on_virtual_clock():
    clock = VirtualClock()
    with make_network(clock=clock, seed=11, read_latency_ms=5.0,
                      disconnect_latency_ms=2.0) as net:
        thing = consume(parse_td_file(SENSOR_TD), SimTransport(net, timeout_s=60.0))

        connect_ms = time_operation("connect", thing, clock)
        assert 0.0 <= connect_ms <= 2000.0  # discovery phase within one interval

        read_ms = time_operation("read", thing, clock, "moisture")
        assert read_ms == pytest.approx(5.0)

        disconnect_ms = time_operation("disconnect", thing, clock)
        assert disconnect_ms == pytest.approx(2.0)


def test_read_duration_bounded_by_configured_latency_real_clock():
    from wotble.clock import RealClock
    with make_network(seed=11, read_latency_ms=5.0) as net:
        thing = consume(parse_td_file(SENSOR_TD), SimTransport(net, timeout_s=60.0))
        net.processing_delay_ms = 0.0
        thing.connect()
        elapsed = time_operation("read", thing, RealClock(), "moisture")
    assert 0.0 < elapsed < 5.0 + 10.0


def test_disconnect_while_disconnected_is_a_failed_sample():
    clock = VirtualClock()
    with make_network(clock=clock, seed=11) as net:
        thing = consume(parse_td_file(SENSOR_TD), SimTransport(net, timeout_s=60.0))
        with pytest.raises(NotConnected):
            time_operation("disconnect", thing, clock)


def test_an_unknown_operation_is_a_plan_error():
    with pytest.raises(PlanError, match="unknown benchmark operation 'teleport'"):
        time_operation("teleport", None, VirtualClock())


# --- run_bench -------------------------------------------------------------------------

def test_run_bench_is_deterministic_on_virtual_clock():
    plan = load_bench_plan(BENCH_PLAN)
    first = run_bench(plan, clock=VirtualClock())
    second = run_bench(plan, clock=VirtualClock())
    assert [s.samples for s in first] == [s.samples for s in second]
    assert [s.operation for s in first] == ["connect", "disconnect", "read"]
    assert all(s.n == 25 for s in first)


def test_run_bench_counts_failures_separately(tmp_path):
    # A read plan against a property whose characteristic forbids reads.
    doc = json.loads(SENSOR_TD.read_text())
    doc["properties"]["moisture"]["forms"][0]["href"] = (
        "gatt://C4-7C-8D-6A-10-2E/00001204-0000-1000-8000-00805f9b34fb/"
        "0000ffff-0000-1000-8000-00805f9b34fb"
    )
    td_file = tmp_path / "broken.td.json"
    td_file.write_text(json.dumps(doc))
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({
        "td": str(td_file),
        "operations": ["read"],
        "repetitions": 3,
        "warmup": 0,
        "transport": f"sim:{FIXTURES / 'network.sim.json'}",
        "seed": 3,
        "property": "moisture",
        "timeoutMs": 60000,
    }))
    with pytest.raises(AllSamplesFailed) as exc_info:
        run_bench(load_bench_plan(plan_file), clock=VirtualClock())
    assert str(exc_info.value) == "all 3 'read' repetitions failed (NoSuchAttribute 3)"


class EveryOtherReadFails(SimTransport):
    """A central whose second, fourth, ... read raises ``Timeout``."""

    reads = 0

    def read(self, uri, holder=None):
        self.reads += 1
        if self.reads % 2 == 0:
            raise Timeout("injected read failure")
        return super().read(uri, holder)


def test_run_bench_records_why_repetitions_failed():
    clock = VirtualClock()
    plan = BenchPlan(td_path=SENSOR_TD, operations=("read",), repetitions=6, warmup=0,
                     property="moisture")
    with make_network(clock=clock, seed=7) as net:
        [stats] = run_bench(plan, clock=clock,
                            transport=EveryOtherReadFails(net, timeout_s=60.0))
    assert (stats.n, stats.failures, stats.failure_causes) == (3, 3, (("Timeout", 3),))
    assert json.loads(to_json([stats]))[0]["failure_causes"] == {"Timeout": 3}
    assert format_table([stats], "sensor").splitlines()[-1] == \
        "(read: N=3, failures=3 (Timeout 3))"
    assert to_csv([stats]).splitlines()[1].count(",") == 3  # the columns stay


def test_run_bench_stops_only_the_network_it_built():
    before = set(threading.enumerate())
    run_bench(load_bench_plan(BENCH_PLAN), clock=VirtualClock())
    started = [t for t in threading.enumerate() if t not in before]
    for thread in started:
        thread.join(timeout=1.0)
    assert [t for t in started if t.is_alive()] == []

    clock = VirtualClock()
    net = make_network(clock=clock, seed=7)
    plan = load_bench_plan(BENCH_PLAN)
    run_bench(plan, clock=clock, transport=SimTransport(net, timeout_s=60.0))
    assert net._worker.is_alive()  # a caller's network stays up
    net.close()


# --- output formats ----------------------------------------------------------------------

def sample_stats():
    return [
        BenchStats.from_samples("connect", [800.25, 900.5, 850.125]),
        BenchStats.from_samples("disconnect", [10.0, 12.0]),
        BenchStats.from_samples("read", [1.5, 1.5, 1.5]),
    ]


def test_csv_round_trips_exactly():
    stats = sample_stats()
    parsed = from_csv(to_csv(stats))
    assert [(s.operation, s.n, s.mean_ms, s.sem_ms) for s in parsed] == \
           [(s.operation, s.n, s.mean_ms, s.sem_ms) for s in stats]


def test_csv_header_shape():
    lines = to_csv(sample_stats()).splitlines()
    assert lines[0] == "operation,n,mean_ms,sem_ms"
    assert len(lines) == 4


@pytest.mark.parametrize("text", ["", "op,n,mean,sem\nread,1,1.0,0.0\n"])
def test_csv_without_its_header_is_refused(text):
    with pytest.raises(PlanError, match="expected CSV header"):
        from_csv(text)


def test_table_layout_has_device_and_operation_columns():
    table = format_table(sample_stats(), "BLE RGB Controller")
    head, _, row, foot = table.splitlines()
    assert head.split(" | ")[0].strip() == "Device"
    assert "Connect / ms" in head and "Disconnect / ms" in head and "read / ms" in head
    assert row.startswith("BLE RGB Controller")
    assert "±" in row
    assert "N=3" in foot


def test_json_output_carries_samples():
    payload = json.loads(to_json(sample_stats()))
    assert payload[0]["operation"] == "connect"
    assert payload[0]["n"] == 3
    assert payload[0]["samples_ms"] == [800.25, 900.5, 850.125]
