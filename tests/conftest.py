import cProfile
import gc
import os
import pstats
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from wotble import GattMethod, SimTransport, TransportContract, load_sim_config
from wotble.transport import _Subscription
from wotble.uris import normalize_mac

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
FIXTURES = TESTS.parent / "fixtures"

LAMP_TD = FIXTURES / "ble-lamp.td.json"
SENSOR_TD = FIXTURES / "flower-sensor.td.json"
BEACON_TD = FIXTURES / "thermo-beacon.td.json"
NETWORK_CONFIG = FIXTURES / "network.sim.json"
BENCH_PLAN = FIXTURES / "bench-plan.json"

LAMP_MAC = "BE:58:30:00:CC:11"
LAMP_SERVICE = "0000fff0-0000-1000-8000-00805f9b34fb"
LAMP_CHAR = "0000fff3-0000-1000-8000-00805f9b34fb"
SENSOR_MAC = "C4:7C:8D:6A:10:2E"
BEACON_MAC = "D0:F0:18:44:23:02"
BEACON_SERVICE = "0000ffe0-0000-1000-8000-00805f9b34fb"
BEACON_CHAR = "0000ffe1-0000-1000-8000-00805f9b34fb"


def _one_device(**fields) -> dict:
    return {"devices": [{"mac": "AA:BB:CC:DD:EE:FF", **fields}]}


def _one_characteristic(**fields) -> dict:
    return _one_device(services={"180f": {"2a19": fields}})


#: Sim configs whose values have the wrong JSON type; each is InvalidConfig.
WRONG_TYPED_CONFIGS = [
    _one_device(connectable="false"),
    _one_device(services=[1]),
    _one_characteristic(valueHex=12),
    _one_characteristic(notifySequenceHex=[1]),
    _one_characteristic(allowed=5),
    _one_device(advertisingIntervalMs=True),
    {**_one_device(), "readLatencyMs": "5"},
]

DELIVERY_THREAD = "wotble-sim-delivery"


@pytest.fixture(autouse=True)
def no_leaked_delivery_threads():
    """Fail a test that leaves a SimNetwork it started unclosed."""
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate()
              if t.name == DELIVERY_THREAD and t not in before]
    if leaked:
        pytest.fail(f"{len(leaked)} {DELIVERY_THREAD} thread(s) still running: "
                    "close each SimNetwork the test builds", pytrace=False)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


class RecordingTransport(SimTransport):
    """A SimTransport that logs each call that returns to ``trace``.

    Entries are ``(operation, detail)`` tuples, appended after the call
    returns; a write also logs its payload as hex and whether it asked for a
    response. ``is_connected`` and an unsubscribe of a foreign handle are
    not logged.
    """

    def __init__(self, network, timeout_s: float = 10.0):
        super().__init__(network, timeout_s)
        self.trace: list[tuple] = []

    def connect(self, device_id, holder=None):
        super().connect(device_id, holder)
        self.trace.append(("connect", normalize_mac(device_id)))

    def disconnect(self, device_id, holder=None):
        super().disconnect(device_id, holder)
        self.trace.append(("disconnect", normalize_mac(device_id)))

    def discover_gatt(self, device_id):
        super().discover_gatt(device_id)
        self.trace.append(("discover_gatt", normalize_mac(device_id)))

    def read(self, uri, holder=None):
        value = super().read(uri, holder)
        self.trace.append(("read", uri.text))
        return value

    def write(self, uri, payload, with_response, holder=None):
        super().write(uri, payload, with_response, holder)
        self.trace.append(("write", uri.text, payload.hex(), with_response))

    def subscribe(self, uri, sink, holder=None):
        handle = super().subscribe(uri, sink, holder)
        self.trace.append(("subscribe", uri.text))
        return handle

    def unsubscribe(self, handle):
        super().unsubscribe(handle)
        if isinstance(handle, _Subscription) and handle.transport.network is self.network:
            self.trace.append(("unsubscribe", handle.uri.text))


class DropsTheLinkAfterItsCheck(RecordingTransport):
    """Fault injection: ``drops_left`` disconnects land right after
    subscribe's own link check, one per subscribe."""

    drops_left = 1

    def _attribute(self, uri, method, holder):
        char = super()._attribute(uri, method, holder)
        if method is GattMethod.NOTIFY and self.drops_left:
            self.drops_left -= 1
            self.disconnect(uri.device_id)
        return char


def _uncalled(name: str):
    def method(self, *args):
        pytest.fail(f"the transport's {name} was called", pytrace=False)
    method.__name__ = name
    return method


#: A transport for tests that build a thing and make no transport call: it
#: has every ``TransportContract`` method, and each one fails the test.
UncalledTransport = type("UncalledTransport", (TransportContract,), {
    name: _uncalled(name) for name in TransportContract.__abstractmethods__})


def writes(transport: RecordingTransport) -> list[tuple[bytes, bool]]:
    """``(payload, with_response)`` of each write ``transport`` logged, in order."""
    return [(bytes.fromhex(entry[2]), entry[3])
            for entry in transport.trace if entry[0] == "write"]


def calls_per(fn, n: int) -> float:
    """The Python calls that one ``fn(i)`` makes, averaged over ``i`` in ``range(n)``.

    Counted by ``cProfile``, so a call to a builtin counts as one, and a
    call to a class does not. ``fn`` is a Python function: its own frames,
    and the profiler's ``disable()``, are left out, so a lambda that wraps
    the call under test costs nothing. The garbage collector is paused
    meanwhile, after a collection: a callback it fires, such as a
    ``WeakSet``'s for a thread object an earlier test left, would count.
    """
    gc.collect()
    gc.disable()
    profile = cProfile.Profile()
    try:
        profile.enable()
        for i in range(n):
            fn(i)
        profile.disable()
    finally:
        gc.enable()
    return (pstats.Stats(profile).total_calls - n - 1) / n


def run_watched(module: str, scenario: str, timeout_s: float = 10.0) -> str:
    """Run ``module.scenario()`` in a child interpreter; return what it printed.

    A scenario that hangs, such as threads deadlocked on each other's locks,
    fails the calling test after ``timeout_s`` instead of stalling the run:
    the child is killed, where a deadlocked delivery thread in this process
    could never be joined by ``SimNetwork.close()``. The child imports
    ``wotble`` from this checkout and ``module`` from this directory; a
    scenario that raises fails the test with the child's traceback.
    """
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    try:
        done = subprocess.run([sys.executable, "-c", f"import {module}; {module}.{scenario}()"],
                              capture_output=True, text=True, timeout=timeout_s,
                              env={**os.environ, "PYTHONPATH": path})
    except subprocess.TimeoutExpired:
        pytest.fail(f"{module}.{scenario} hung: not done after {timeout_s} s", pytrace=False)
    if done.returncode:
        pytest.fail(f"{module}.{scenario} failed:\n{done.stderr}", pytrace=False)
    return done.stdout


def live_subscriptions(net) -> int:
    return sum(len(subs) for subs in net._subscriptions.values())


def make_network(clock=None, seed=0, auto_notify=True, **latencies):
    network = load_sim_config(NETWORK_CONFIG, clock=clock, seed=seed,
                              auto_notify=auto_notify)
    for name, value in latencies.items():
        setattr(network, name, value)
    return network


@pytest.fixture
def network():
    net = make_network()
    yield net
    net.close()


@pytest.fixture
def transport(network):
    return SimTransport(network, timeout_s=1.0)


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {outcome}", flush=True)
