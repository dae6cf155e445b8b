import gc
import itertools
import json
import os
import queue
import random
import re
import statistics
import sys
import threading
import time
import tracemalloc
import uuid

import pytest

from wotble import (
    ConnectionPolicy,
    GattMethod,
    GattUri,
    SimCharacteristic,
    SimNetwork,
    SimPeripheral,
    SimTransport,
    VirtualClock,
    consume,
    expand_uuid,
    load_sim_config,
    parse_gatt_uri,
    parse_td_file,
)
from wotble.transport import MAX_TIMEOUT_MS, open_transport
from wotble.codec import MAX_PAYLOAD_OCTETS
from wotble.errors import (
    BadDeviceId,
    BadUuid,
    BadValue,
    Busy,
    DuplicateDevice,
    InvalidConfig,
    MethodNotPermitted,
    NoSuchAttribute,
    NotConnectable,
    NotConnected,
    NotFound,
    Timeout,
    TransportUnavailable,
    ValueTooLong,
)
from wotble.uris import _CACHE_SIZE
from conftest import (
    BEACON_CHAR,
    BEACON_MAC,
    BEACON_SERVICE,
    BEACON_TD,
    LAMP_CHAR,
    LAMP_MAC,
    LAMP_SERVICE,
    NETWORK_CONFIG,
    SENSOR_MAC,
    SENSOR_TD,
    WRONG_TYPED_CONFIGS,
    DropsTheLinkAfterItsCheck,
    RecordingTransport,
    live_subscriptions,
    make_network,
    run_watched,
    writes,
)

LAMP_URI = parse_gatt_uri(f"gatt://{LAMP_MAC.replace(':', '-')}/{LAMP_SERVICE}/{LAMP_CHAR}")
FFF0 = uuid.UUID(LAMP_SERVICE)
BEACON_URI = parse_gatt_uri(
    f"gatt://{BEACON_MAC.replace(':', '-')}/{BEACON_SERVICE}/{BEACON_CHAR}"
)


def virtual_network(**kw):
    return make_network(clock=VirtualClock(), **kw)


def test_write_then_read_returns_written_octets():
    net = virtual_network()
    t = RecordingTransport(net, timeout_s=1.0)
    t.connect(LAMP_MAC)
    payload = bytes([0x7E, 0x00, 0x04, 0x01, 0x00, 0x00, 0x00, 0x00, 0xEF])
    t.write(LAMP_URI, payload, with_response=True)
    assert t.read(LAMP_URI) == payload
    assert writes(t) == [(payload, True)]
    assert net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR).value == payload
    net.close()


def test_operations_require_connection():
    net = virtual_network()
    t = SimTransport(net, timeout_s=1.0)
    with pytest.raises(NotConnected):
        t.read(LAMP_URI)
    with pytest.raises(NotConnected):
        t.write(LAMP_URI, b"\x01", with_response=True)
    with pytest.raises(NotConnected):
        t.subscribe(LAMP_URI, lambda p: None)
    with pytest.raises(NotConnected):
        t.disconnect(LAMP_MAC)
    net.close()


def test_method_gating_leaves_state_unchanged():
    net = virtual_network()
    t = RecordingTransport(net, timeout_s=10.0)
    sensor_uri = parse_gatt_uri(
        "gatt://C4-7C-8D-6A-10-2E/00001204-0000-1000-8000-00805f9b34fb/"
        "00001a01-0000-1000-8000-00805f9b34fb"
    )
    t.connect("C4:7C:8D:6A:10:2E")
    char = net.characteristic("C4:7C:8D:6A:10:2E", "1204", "1a01")
    before = bytes(char.value)
    with pytest.raises(MethodNotPermitted):
        t.write(sensor_uri, b"\x05", with_response=True)
    with pytest.raises(MethodNotPermitted):
        t.subscribe(sensor_uri, lambda p: None)
    assert char.value == before and writes(t) == []
    net.close()


@pytest.mark.parametrize("method", ["connect", "disconnect", "is_connected",
                                    "discover_gatt"])
@pytest.mark.parametrize("device_id", [None, 5, ["x"]])
def test_a_device_id_that_is_not_a_string_is_a_bad_device_id(method, device_id):
    with virtual_network() as net:
        t = SimTransport(net, timeout_s=1.0)
        with pytest.raises(BadDeviceId, match="must be a string"):
            getattr(t, method)(device_id)


def test_unknown_attribute():
    net = virtual_network()
    t = SimTransport(net, timeout_s=1.0)
    t.connect(LAMP_MAC)
    bogus = parse_gatt_uri(f"gatt://{LAMP_MAC}/1234/5678")
    with pytest.raises(NoSuchAttribute):
        t.read(bogus)
    net.close()


def test_value_too_long_on_write():
    net = virtual_network()
    t = SimTransport(net, timeout_s=1.0)
    t.connect(LAMP_MAC)
    t.write(LAMP_URI, bytes(512), with_response=True)  # boundary is fine
    with pytest.raises(ValueTooLong):
        t.write(LAMP_URI, bytes(513), with_response=True)
    net.close()


def test_single_connection_peripheral_second_central_busy():
    net = virtual_network()
    first = SimTransport(net, timeout_s=1.0)
    second = SimTransport(net, timeout_s=1.0)
    first.connect(LAMP_MAC)
    with pytest.raises(Busy):
        second.connect(LAMP_MAC)
    assert first.read(LAMP_URI)  # first session still usable
    first.disconnect(LAMP_MAC)
    second.connect(LAMP_MAC)  # freed up
    net.close()


def test_a_central_without_the_link_cannot_end_or_explore_it():
    with virtual_network(auto_notify=False) as net:
        holder, other = SimTransport(net, timeout_s=1.0), SimTransport(net, timeout_s=1.0)
        holder.connect(BEACON_MAC)
        received: queue.Queue = queue.Queue()
        subscription = holder.subscribe(BEACON_URI, received.put)
        for spelling in (BEACON_MAC, BEACON_MAC.lower()):
            for call in (other.disconnect, other.discover_gatt):
                with pytest.raises(NotConnected, match=f"^not connected to {BEACON_MAC}$"):
                    call(spelling)
        assert net.peripheral(BEACON_MAC).connected_by is holder
        assert holder.is_connected(BEACON_MAC) and not other.is_connected(BEACON_MAC)
        assert subscription.active and live_subscriptions(net) == 1
        net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x05")
        assert received.get(timeout=2.0) == b"\x05"
        holder.disconnect(BEACON_MAC)
        assert not subscription.active and live_subscriptions(net) == 0


def test_connect_by_the_holder_returns_at_once():
    net = virtual_network(processing_delay_ms=5, connect_setup_ms=7)
    t = SimTransport(net, timeout_s=1.0)
    t.connect(LAMP_MAC)
    before, rng_state = net.clock.monotonic(), net._rng.getstate()
    t.connect(LAMP_MAC)  # no Busy: this central holds the link
    assert net.clock.monotonic() == before
    assert net._rng.getstate() == rng_state
    assert t.is_connected(LAMP_MAC) and t.read(LAMP_URI) is not None
    net.close()


class InterleavingClock(VirtualClock):
    """A virtual clock that runs ``then`` once, at the end of the next sleep."""

    then = None

    def sleep(self, seconds):
        super().sleep(seconds)
        then, self.then = self.then, None
        if then is not None:
            then()


def test_connects_of_one_central_in_flight_together_both_succeed():
    clock = InterleavingClock()
    net = make_network(clock=clock)
    t = RecordingTransport(net, timeout_s=1.0)
    clock.then = lambda: t.connect(LAMP_MAC)  # inside the first discovery wait
    t.connect(LAMP_MAC)
    assert t.is_connected(LAMP_MAC)
    assert [entry for entry in t.trace if entry[0] == "connect"] == [("connect", LAMP_MAC)] * 2
    net.close()


def test_central_holds_sessions_to_many_devices():
    net = virtual_network()
    t = SimTransport(net, timeout_s=1.0)
    t.connect(LAMP_MAC)
    t.connect(BEACON_MAC)
    assert t.is_connected(LAMP_MAC) and t.is_connected(BEACON_MAC)
    net.close()


def test_connect_to_absent_mac_times_out_with_not_found():
    net = virtual_network()
    t = SimTransport(net, timeout_s=0.25)
    before = net.clock.monotonic()
    with pytest.raises(NotFound):
        t.connect("11:22:33:44:55:66")
    assert net.clock.monotonic() - before == pytest.approx(0.25)
    net.close()


def test_discovery_slower_than_timeout_raises_timeout():
    net = SimNetwork(clock=VirtualClock(), seed=1)
    net.define_peripheral(SimPeripheral("AA:AA:AA:AA:AA:01", 60_000))
    t = SimTransport(net, timeout_s=0.001)
    with pytest.raises(Timeout):
        t.connect("AA:AA:AA:AA:AA:01")
    net.close()


def test_not_connectable_peripheral():
    net = SimNetwork(clock=VirtualClock(), seed=1)
    net.define_peripheral(SimPeripheral("AA:AA:AA:AA:AA:02", 50, connectable=False))
    t = SimTransport(net, timeout_s=1.0)
    with pytest.raises(NotConnectable):
        t.connect("AA:AA:AA:AA:AA:02")
    net.close()


@pytest.mark.parametrize("interval_ms", [0, -5.0])
def test_a_peripheral_needs_a_positive_advertising_interval(interval_ms):
    with pytest.raises(InvalidConfig, match=f"^device AA:AA:AA:AA:AA:07: "
                                            f"advertisingIntervalMs must be > 0, "
                                            f"got {interval_ms}$"):
        SimPeripheral("aa-aa-aa-aa-aa-07", interval_ms)


@pytest.mark.parametrize("terms, field", [
    ({"advertising_interval_ms": "5"}, "advertisingIntervalMs"),
    ({"advertising_interval_ms": float("nan")}, "advertisingIntervalMs"),
    ({"advertising_interval_ms": float("inf")}, "advertisingIntervalMs"),
    ({"advertising_interval_ms": True}, "advertisingIntervalMs"),
    ({"advertising_interval_ms": 50, "connectable": "false"}, "connectable"),
    ({"advertising_interval_ms": 50, "connectable": 1}, "connectable"),
], ids=["interval-str", "interval-nan", "interval-inf", "interval-bool",
        "connectable-str", "connectable-int"])
def test_a_peripheral_built_in_code_is_checked_as_a_config_device(terms, field):
    with pytest.raises(InvalidConfig, match=f"^device AA:AA:AA:AA:AA:08: {field} must be "):
        SimPeripheral("aa-aa-aa-aa-aa-08", **terms)


def test_duplicate_device_definition():
    net = SimNetwork(clock=VirtualClock())
    net.define_peripheral(SimPeripheral("AA:AA:AA:AA:AA:03", 50))
    with pytest.raises(DuplicateDevice):
        net.define_peripheral(SimPeripheral("aa-aa-aa-aa-aa-03", 50))
    net.close()


def test_exploration_checks_the_link_and_services_stay_read_only():
    with virtual_network() as net:
        t = RecordingTransport(net, timeout_s=1.0)
        t.connect(LAMP_MAC)
        assert t.discover_gatt(LAMP_MAC) is None
        t.disconnect(LAMP_MAC)
        with pytest.raises(NotConnected):
            t.discover_gatt(LAMP_MAC)
        assert [entry[0] for entry in t.trace].count("discover_gatt") == 1
        with pytest.raises(TypeError):
            net.peripheral(LAMP_MAC).services[uuid.UUID(LAMP_SERVICE)] = {}


def test_discovery_latency_uniform_over_advertising_interval():
    # Mean of U(0, interval) converges to interval/2; +-10% at N=1000.
    interval_ms = 100.0
    net = SimNetwork(clock=VirtualClock(), seed=42)
    net.define_peripheral(SimPeripheral("AA:AA:AA:AA:AA:04", interval_ms))
    t = SimTransport(net, timeout_s=10.0)
    samples = []
    for _ in range(1000):
        start = net.clock.monotonic()
        t.connect("AA:AA:AA:AA:AA:04")
        samples.append((net.clock.monotonic() - start) * 1000.0)
        t.disconnect("AA:AA:AA:AA:AA:04")
    assert max(samples) <= interval_ms
    assert min(samples) >= 0.0
    mean = statistics.fmean(samples)
    assert abs(mean - interval_ms / 2) <= 0.1 * (interval_ms / 2)
    net.close()


def test_expected_discovery_delay_for_slow_advertiser():
    # Flower-Care-like interval of 2000 ms: uniform model has mean 1000 ms.
    net = SimNetwork(clock=VirtualClock(), seed=123)
    net.define_peripheral(SimPeripheral("AA:AA:AA:AA:AA:05", 2000.0))
    t = SimTransport(net, timeout_s=60.0)
    samples = []
    for _ in range(1000):
        start = net.clock.monotonic()
        t.connect("AA:AA:AA:AA:AA:05")
        samples.append((net.clock.monotonic() - start) * 1000.0)
        t.disconnect("AA:AA:AA:AA:AA:05")
    assert statistics.fmean(samples) == pytest.approx(1000.0, rel=0.1)
    net.close()


def test_processing_delay_adds_to_discovery():
    net = SimNetwork(clock=VirtualClock(), seed=5, processing_delay_ms=500.0)
    net.define_peripheral(SimPeripheral("AA:AA:AA:AA:AA:06", 10.0))
    t = SimTransport(net, timeout_s=10.0)
    start = net.clock.monotonic()
    t.connect("AA:AA:AA:AA:AA:06")
    elapsed_ms = (net.clock.monotonic() - start) * 1000.0
    assert 500.0 <= elapsed_ms <= 510.0
    net.close()


def test_a_discovery_delay_is_the_seeded_uniform_draw_bit_for_bit():
    seed, processing_ms = 20, 5.0
    with make_network(clock=VirtualClock(), seed=seed) as net:
        net.processing_delay_ms = processing_ms
        peripherals = net.peripherals()
        assert sorted(p.advertising_interval_ms for p in peripherals) == [50, 200, 2000]
        reference = random.Random(seed)
        expected, drawn = [], []
        for i in range(3000):
            peripheral = peripherals[i % len(peripherals)]
            interval = peripheral.advertising_interval_ms
            expected.append(((reference.uniform(0.0, interval) + processing_ms) / 1000.0).hex())
            drawn.append(net.discovery_delay_s(peripheral).hex())
    assert drawn == expected


class DrawLog(SimNetwork):
    """A network that keeps every discovery delay it draws."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.draws = []

    def discovery_delay_s(self, peripheral):
        delay_s = super().discovery_delay_s(peripheral)
        self.draws.append(delay_s)
        return delay_s


def test_concurrent_connects_take_each_discovery_draw_once():
    seed, interval_ms, threads, cycles = 9, 100.0, 4, 500
    net = DrawLog(clock=VirtualClock(), seed=seed)
    macs = [f"AA:AA:AA:AA:AB:{i:02X}" for i in range(threads)]
    for mac in macs:
        net.define_peripheral(SimPeripheral(mac, interval_ms))
    errors = []

    def cycle(mac):
        transport = SimTransport(net, timeout_s=1.0)
        try:
            for _ in range(cycles):
                transport.connect(mac)
                transport.disconnect(mac)
        except Exception as exc:
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=cycle, args=(mac,)) for mac in macs]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30.0)
    finally:
        sys.setswitchinterval(switch)
        net.close()
    assert not any(worker.is_alive() for worker in workers) and errors == []
    reference = random.Random(seed)
    sequential = [reference.uniform(0.0, interval_ms) / 1000.0 for _ in range(threads * cycles)]
    assert sorted(net.draws) == sorted(sequential)


# --- notifications ---------------------------------------------------------------------

def test_scripted_notifications_arrive_in_order():
    net = make_network(seed=0)  # real clock; delivery is thread-based
    t = SimTransport(net, timeout_s=1.0)
    t.connect(BEACON_MAC)
    received: queue.Queue = queue.Queue()
    t.subscribe(BEACON_URI, received.put)
    values = [received.get(timeout=2.0) for _ in range(3)]
    assert values == [b"\xfa", b"\x00", b"\x64"]
    net.close()


def test_nothing_delivered_after_unsubscribe_returns():
    net = make_network(seed=0, auto_notify=False)
    t = SimTransport(net, timeout_s=1.0)
    t.connect(BEACON_MAC)
    received: queue.Queue = queue.Queue()
    handle = t.subscribe(BEACON_URI, received.put)
    assert net.emit_next(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR) == b"\xfa"
    assert received.get(timeout=2.0) == b"\xfa"
    t.unsubscribe(handle)
    assert net.emit_next(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR) == b"\x00"
    with pytest.raises(queue.Empty):
        received.get(timeout=0.3)
    net.close()


def test_notification_delivery_is_not_on_subscriber_thread():
    net = make_network(seed=0)
    t = SimTransport(net, timeout_s=1.0)
    t.connect(BEACON_MAC)
    threads: queue.Queue = queue.Queue()
    t.subscribe(BEACON_URI, lambda p: threads.put(threading.get_ident()))
    assert threads.get(timeout=2.0) != threading.get_ident()
    net.close()


def test_failing_sink_does_not_stall_other_subscribers():
    net = make_network(seed=0)
    t = SimTransport(net, timeout_s=1.0)
    t.connect(BEACON_MAC)
    received: queue.Queue = queue.Queue()

    def bad_sink(payload):
        raise RuntimeError("sink exploded")

    t.subscribe(BEACON_URI, bad_sink)
    t.subscribe(BEACON_URI, received.put)
    assert [received.get(timeout=2.0) for _ in range(3)] == [b"\xfa", b"\x00", b"\x64"]
    net.close()


def test_auto_notify_script_goes_to_each_new_subscriber_alone():
    net = make_network(seed=0)
    t = SimTransport(net, timeout_s=1.0)
    t.connect(BEACON_MAC)
    first: queue.Queue = queue.Queue()
    second: queue.Queue = queue.Queue()
    t.subscribe(BEACON_URI, first.put)
    assert [first.get(timeout=2.0) for _ in range(3)] == [b"\xfa", b"\x00", b"\x64"]
    t.subscribe(BEACON_URI, second.put)
    assert [second.get(timeout=2.0) for _ in range(3)] == [b"\xfa", b"\x00", b"\x64"]
    # One delivery thread, in queue order: a copy for the first subscriber
    # would have been handed out before the second one's last value.
    assert first.empty()
    net.close()


def test_close_racing_subscribe_still_delivers_the_script(monkeypatch):
    closers: list[threading.Thread] = []
    put = SimNetwork._put

    def close_on_first_value(self, item):
        if item is not None and not closers:
            closers.append(threading.Thread(target=net.close))
            closers[0].start()
            closers[0].join(0.2)  # close() needs the lock the script is queued under
        put(self, item)

    monkeypatch.setattr(SimNetwork, "_put", close_on_first_value)
    net = make_network(seed=0)
    t = SimTransport(net, timeout_s=1.0)
    t.connect(BEACON_MAC)
    received = []
    t.subscribe(BEACON_URI, received.append)
    closers[0].join(5.0)
    assert not closers[0].is_alive()
    assert received == [b"\xfa", b"\x00", b"\x64"]  # none left behind the stop marker


#: Values a sink emits from the delivery thread: more wake-ups than a pipe holds.
FLOOD = 70_000


def a_sink_floods_its_own_delivery_thread() -> None:
    """Print, as JSON, whether a flood emitted by a sink arrived whole and in order.

    The sink emits ``FLOOD`` values while the delivery thread runs it, so no
    wake-up is read meanwhile and the pipe fills up. Run it through
    ``run_watched``: a wake-up lost to the full pipe would leave the main
    thread waiting.
    """
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        t = SimTransport(net, timeout_s=1.0)
        t.connect(BEACON_MAC)
        got, done, full = [], threading.Event(), []

        def sink(payload):
            if payload == b"go":
                for k in range(FLOOD):
                    net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, k.to_bytes(3, "big"))
                try:
                    os.write(net._wake_w, b"\0")
                except BlockingIOError:
                    full.append(True)
            else:
                got.append(int.from_bytes(payload, "big"))
                if len(got) == FLOOD:
                    done.set()

        t.subscribe(BEACON_URI, sink)
        net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"go")
        arrived = done.wait(8.0)
    print(json.dumps({"arrived": arrived, "in_order": got == list(range(FLOOD)),
                      "pipe_was_full": full == [True], "failures": net.sink_failures}))


def test_a_flood_past_the_pipe_s_size_is_delivered_whole_and_in_order():
    out = run_watched("test_transport", "a_sink_floods_its_own_delivery_thread", 20.0)
    assert json.loads(out) == {"arrived": True, "in_order": True, "pipe_was_full": True,
                               "failures": 0}


def test_values_emitted_past_the_pipe_s_size_while_a_sink_runs_all_arrive():
    with virtual_network(auto_notify=False) as net:
        t = SimTransport(net, timeout_s=1.0)
        t.connect(BEACON_MAC)
        held, release, done, got = threading.Event(), threading.Event(), threading.Event(), []

        def sink(payload):
            if payload == b"hold":
                held.set()
                release.wait(10.0)
            else:
                got.append(int.from_bytes(payload, "big"))
                if len(got) == FLOOD:
                    done.set()

        t.subscribe(BEACON_URI, sink)
        net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"hold")
        assert held.wait(5.0)
        try:
            for k in range(FLOOD):  # from this thread, while the delivery thread waits
                net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, k.to_bytes(3, "big"))
            with pytest.raises(BlockingIOError):
                os.write(net._wake_w, b"\0")
        finally:
            release.set()
        assert done.wait(10.0)
    assert got == list(range(FLOOD))


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_networks_opened_and_closed_leave_no_fd_open():
    before = open_fds()
    for _ in range(200):
        SimNetwork().close()
    assert open_fds() == before
    for _ in range(200):  # closed by a sink, on the delivery thread
        net = virtual_network(auto_notify=False)
        t = SimTransport(net, timeout_s=1.0)
        t.connect(BEACON_MAC)
        t.subscribe(BEACON_URI, lambda payload: net.close())
        net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x01")
        net._worker.join(5.0)
        assert not net._worker.is_alive()
    assert open_fds() == before


def test_dropping_a_link_after_close_raises_nothing_and_delivers_nothing():
    net = virtual_network(auto_notify=False)
    t = SimTransport(net, timeout_s=1.0)
    t.connect(BEACON_MAC)
    received = []
    handle = t.subscribe(BEACON_URI, received.append)
    net.close()
    t.disconnect(BEACON_MAC)  # its end notice is queued after close(): never written
    assert not handle.active and not t.is_connected(BEACON_MAC)
    assert received == [] and not net._queue


def test_disconnect_cancels_subscriptions():
    net = make_network(seed=0, auto_notify=False)
    t = SimTransport(net, timeout_s=1.0)
    t.connect(BEACON_MAC)
    received: queue.Queue = queue.Queue()
    t.subscribe(BEACON_URI, received.put)
    t.disconnect(BEACON_MAC)
    net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x99")
    assert received.get(timeout=2.0) is None  # the end notice, and nothing after it
    with pytest.raises(queue.Empty):
        received.get(timeout=0.3)
    net.close()


def test_a_subscription_cannot_outlive_the_link_it_was_made_on():
    with virtual_network(auto_notify=False) as net:
        t = DropsTheLinkAfterItsCheck(net, timeout_s=1.0)
        t.connect(BEACON_MAC)
        received = []
        with pytest.raises(NotConnected, match=f"^not connected to {BEACON_MAC}$"):
            t.subscribe(BEACON_URI, received.append)
        assert live_subscriptions(net) == 0
        other = SimTransport(net, timeout_s=1.0)
        other.connect(BEACON_MAC)
        other.disconnect(BEACON_MAC)
        net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x99")
    assert received == []  # closing delivered what was queued: nothing


def test_a_subscribe_during_the_disconnect_latency_does_not_outlive_the_link():
    clock = InterleavingClock()
    with make_network(clock=clock, auto_notify=False, disconnect_latency_ms=4.0) as net:
        t = SimTransport(net, timeout_s=1.0)
        t.connect(BEACON_MAC)
        received, outcome = [], []

        def subscribe():
            try:
                outcome.append(t.subscribe(BEACON_URI, received.append).active)
            except NotConnected:
                outcome.append("refused")

        clock.then = subscribe  # inside the disconnect's latency wait
        t.disconnect(BEACON_MAC)
        assert outcome == ["refused"] and not t.is_connected(BEACON_MAC)
        assert live_subscriptions(net) == 0
        net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x99")
    assert received == []  # closing delivered what was queued: nothing


def test_sink_failures_are_counted():
    with virtual_network(auto_notify=False) as net:
        t = SimTransport(net, timeout_s=1.0)
        t.connect(BEACON_MAC)
        received = []

        def bad_sink(payload):
            raise RuntimeError("sink exploded")

        t.subscribe(BEACON_URI, bad_sink)
        t.subscribe(BEACON_URI, received.append)
        for octet in range(3):
            net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, bytes([octet]))
    # Closing delivered what was queued.
    assert received == [b"\x00", b"\x01", b"\x02"] and net.sink_failures == 3


def test_an_exhausted_script_emits_nothing():
    with virtual_network(auto_notify=False) as net:
        received = beacon_subscriber(net)
        script = [net.emit_next(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR) for _ in range(4)]
    assert script == [b"\xfa", b"\x00", b"\x64", None]
    assert received == [b"\xfa", b"\x00", b"\x64"]


def test_a_refused_scripted_value_stays_next():
    net = virtual_network(auto_notify=False)
    char = net.characteristic(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR)
    notify = char.allowed
    char.allowed = frozenset({GattMethod.READ})
    with pytest.raises(MethodNotPermitted):
        net.emit_next(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR)
    char.allowed = notify
    assert net.emit_next(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR) == b"\xfa"
    net.close()
    with pytest.raises(TransportUnavailable):
        net.emit_next(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR)
    assert char._notify_cursor == 1


# --- emit resolves each spelling of an address once ------------------------------------

BEACON_SPELLINGS = [
    (BEACON_MAC.replace(":", "-").lower(), "ffe0", "ffe1"),
    (BEACON_MAC, BEACON_SERVICE, BEACON_CHAR),
    (BEACON_MAC, BEACON_SERVICE.upper(), "FFE1"),
    (BEACON_MAC, uuid.UUID(BEACON_SERVICE), uuid.UUID(BEACON_CHAR)),
]


def beacon_subscriber(net):
    """A central subscribed to the beacon; returns the list it receives into."""
    t = SimTransport(net, timeout_s=1.0)
    t.connect(BEACON_MAC)
    received = []
    t.subscribe(BEACON_URI, received.append)
    return received


def test_every_spelling_of_an_address_reaches_its_subscriber_once():
    with virtual_network(auto_notify=False) as net:
        received = beacon_subscriber(net)
        # Each spelling twice: resolved on the first emit, remembered after.
        for octet, address in enumerate(BEACON_SPELLINGS * 2):
            net.emit(*address, bytes([octet]))
        assert len(net._routes) == len(BEACON_SPELLINGS)
    assert received == [bytes([octet]) for octet in range(2 * len(BEACON_SPELLINGS))]


@pytest.mark.parametrize("address, error", [
    (("nope", "ffe0", "xyz"), BadUuid),  # checked before the device
    (("nope", "ffe0", "ffe1"), BadDeviceId),
    ((None, "ffe0", "ffe1"), BadDeviceId),
    ((5, "ffe0", "ffe1"), BadDeviceId),
    (([BEACON_MAC], "ffe0", "ffe1"), BadDeviceId),  # unhashable
    ((BEACON_MAC, 0xFFE0, "ffe1"), BadUuid),
    ((BEACON_MAC, "ffe0", None), BadUuid),
    (("AA:BB:CC:DD:EE:01", "ffe0", "ffe1"), NotFound),
    ((BEACON_MAC, "ffe0", "ffe9"), NoSuchAttribute),
])
def test_a_failed_emit_raises_anew_and_is_not_remembered(address, error):
    with virtual_network(auto_notify=False) as net:
        raised = []
        for _ in range(2):
            with pytest.raises(error) as info:
                net.emit(*address, b"\x01")
            raised.append(info.value)
        assert raised[0] is not raised[1] and str(raised[0]) == str(raised[1])
        assert net._routes == {}


def test_a_device_defined_after_a_failed_emit_is_found():
    address = ("aa-bb-cc-dd-ee-01", "180f", "2a19")
    with virtual_network(auto_notify=False) as net:
        with pytest.raises(NotFound):
            net.emit(*address, b"\x01")
        net.define_peripheral(SimPeripheral(address[0], 100.0, services={
            expand_uuid(0x180F): {
                expand_uuid(0x2A19): SimCharacteristic(allowed=[GattMethod.NOTIFY])}}))
        t = SimTransport(net, timeout_s=1.0)
        t.connect(address[0])
        received = []
        t.subscribe(parse_gatt_uri("gatt://{}/{}/{}".format(*address)), received.append)
        net.emit(*address, b"\x02")
    assert received == [b"\x02"]


def test_emit_reads_the_allowed_methods_on_every_call():
    with virtual_network(auto_notify=False) as net:
        received = beacon_subscriber(net)
        char = net.characteristic(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR)
        net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x01")
        notify = char.allowed
        char.allowed = frozenset({GattMethod.READ})
        with pytest.raises(MethodNotPermitted):
            net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x02")
        char.allowed = notify
        net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x03")
    assert received == [b"\x01", b"\x03"]


def test_read_and_write_check_the_link_the_attribute_and_its_allowed_methods():
    unknown = parse_gatt_uri(f"gatt://{LAMP_MAC}/{LAMP_SERVICE}/fff9")
    calls = {"read": lambda t, uri: t.read(uri),
             "write": lambda t, uri: t.write(uri, b"\x01", with_response=True),
             "write-without-response":
                 lambda t, uri: t.write(uri, b"\x02", with_response=False)}

    def message(call, t, uri, error) -> str:
        """The text of the ``error`` that ``calls[call]`` raises; pinned word for word."""
        with pytest.raises(error) as raised:
            calls[call](t, uri)
        return str(raised.value)

    with virtual_network(auto_notify=False) as net:
        t = SimTransport(net, timeout_s=1.0)
        char = net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR)
        for call in calls:
            assert message(call, t, LAMP_URI, NotConnected) == \
                "not connected to BE:58:30:00:CC:11"
        t.connect(LAMP_MAC)
        for call in calls:
            assert message(call, t, unknown, NoSuchAttribute) == (
                "BE:58:30:00:CC:11 has no characteristic "
                "0000fff9-0000-1000-8000-00805f9b34fb "
                "under service 0000fff0-0000-1000-8000-00805f9b34fb")
        assert message("write-without-response", t, LAMP_URI, MethodNotPermitted) == (
            "write-without-response not permitted on "
            "0000fff3-0000-1000-8000-00805f9b34fb; allowed: ['read', 'write']")
        t.write(LAMP_URI, b"\x03", with_response=True)
        assert t.read(LAMP_URI) == b"\x03"
        # The allowed methods are read anew on every call.
        char.allowed = frozenset({GattMethod.NOTIFY})
        for call in calls:
            assert message(call, t, LAMP_URI, MethodNotPermitted) == (
                f"{call} not permitted on 0000fff3-0000-1000-8000-00805f9b34fb; "
                "allowed: ['notify']")
        char.allowed = frozenset(GattMethod)
        for call in calls.values():
            call(t, LAMP_URI)
        assert char.value == b"\x02"


def case_spellings(text: str):
    """``text`` with every choice of case for its letters."""
    letters = [i for i, c in enumerate(text) if c.isalpha()]
    for mask in range(2 ** len(letters)):
        chars = list(text)
        for bit, i in enumerate(letters):
            if mask >> bit & 1:
                chars[i] = chars[i].swapcase()
        yield "".join(chars)


def test_the_route_table_stays_within_its_bound():
    macs = [*case_spellings(BEACON_MAC), *case_spellings(BEACON_MAC.replace(":", "-"))]
    addresses = itertools.product(macs, case_spellings(BEACON_SERVICE), ["ffe1"])
    with virtual_network(auto_notify=False) as net:
        received = beacon_subscriber(net)
        for k, address in enumerate(itertools.islice(addresses, 1000)):
            net.emit(*address, bytes([k % 256]))
            assert len(net._routes) <= _CACHE_SIZE
    assert received == [bytes([k % 256]) for k in range(1000)]


def test_unsubscribes_waiting_on_one_delivery_all_return():
    net = virtual_network(auto_notify=False)
    t = SimTransport(net, timeout_s=1.0)
    t.connect(BEACON_MAC)
    entered, release = threading.Event(), threading.Event()
    received = []

    def held_sink(payload):
        received.append(payload)
        entered.set()
        release.wait(5.0)

    handle = t.subscribe(BEACON_URI, held_sink)
    callers = [threading.Thread(target=t.unsubscribe, args=(handle,)) for _ in range(2)]
    try:
        net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x01")
        assert entered.wait(5.0)
        for caller in callers:
            caller.start()
        deadline = time.monotonic() + 5.0
        while handle.active and time.monotonic() < deadline:
            time.sleep(0.001)
        # Both wait for the held delivery, and nothing new reaches the sink.
        assert not handle.active and all(c.is_alive() for c in callers)
        net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x02")
    finally:
        release.set()
    for caller in callers:
        caller.join(5.0)
    assert not any(c.is_alive() for c in callers)
    net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x03")
    net.close()
    assert received == [b"\x01"]


def test_racing_emits_and_unsubscribes_keep_their_promises():
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with virtual_network(auto_notify=False) as net:
            t = SimTransport(net, timeout_s=1.0)
            t.connect(BEACON_MAC)
            received, late = [], []
            t.subscribe(BEACON_URI, received.append)

            def emit_all(index, address):
                for k in range(200):
                    net.emit(*address, bytes([index, k]))

            def churn():
                for _ in range(50):
                    ended = threading.Event()
                    handle = t.subscribe(
                        BEACON_URI, lambda p, ended=ended: ended.is_set() and late.append(p))
                    t.unsubscribe(handle)
                    ended.set()

            workers = [threading.Thread(target=emit_all, args=(i, address))
                       for i, address in enumerate(BEACON_SPELLINGS)]
            workers += [threading.Thread(target=churn) for _ in range(2)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30.0)
            assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(switch)
    # Each emitter's values arrive once and in order, and none reached a
    # sink after its unsubscribe returned.
    for index in range(len(BEACON_SPELLINGS)):
        assert [p[1] for p in received if p[0] == index] == list(range(200))
    assert len(received) == 200 * len(BEACON_SPELLINGS)
    assert late == []


# --- the payload boundary ----------------------------------------------------------------

@pytest.mark.parametrize("payload, error", [
    (3, BadValue),
    ([1, 2], BadValue),
    ("7e", BadValue),
    (None, BadValue),
    (2.5, BadValue),
    pytest.param(bytes(MAX_PAYLOAD_OCTETS + 1), ValueTooLong, id="bytes-too-long"),
    pytest.param(bytearray(MAX_PAYLOAD_OCTETS + 1), ValueTooLong, id="bytearray-too-long"),
    pytest.param(memoryview(bytes(MAX_PAYLOAD_OCTETS + 1)), ValueTooLong,
                 id="memoryview-too-long"),
])
def test_a_payload_must_be_raw_octets_within_the_att_cap(payload, error):
    message = ("payload is 513 octets, ATT allows at most 512" if error is ValueTooLong else
               f"a payload must be bytes, bytearray or memoryview, got {type(payload).__name__}")
    with virtual_network(auto_notify=False) as net:
        char = net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR)
        before = char.value
        transport = RecordingTransport(net, timeout_s=1.0)
        transport.connect(LAMP_MAC)
        for call in (lambda: transport.write(LAMP_URI, payload, True),
                     lambda: net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, payload)):
            with pytest.raises(error) as exc_info:
                call()
            assert type(exc_info.value) is error and str(exc_info.value) == message
        assert writes(transport) == [] and char.value is before


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_raw_octets_of_each_kind_are_copied_to_bytes(kind):
    octets = bytes(MAX_PAYLOAD_OCTETS)
    with virtual_network(auto_notify=False) as net:
        received = beacon_subscriber(net)
        transport = SimTransport(net, timeout_s=1.0)
        transport.connect(LAMP_MAC)
        transport.write(LAMP_URI, kind(octets), True)
        net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, kind(octets))
        value = net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR).value
    assert type(value) is bytes and value == octets
    assert (value is octets) == (kind is bytes)  # exact bytes are stored as they are
    assert [(type(p), p) for p in received] == [(bytes, octets)]


def test_a_read_returns_bytes_that_a_later_change_to_the_value_does_not_reach():
    with virtual_network(auto_notify=False) as net:
        transport = SimTransport(net, timeout_s=1.0)
        transport.connect(LAMP_MAC)
        char = net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR)
        char.value = bytearray(b"\x7e\x01")  # assigned directly, not through a write
        value = transport.read(LAMP_URI)
        char.value[1] = 0xFF
        assert type(value) is bytes and value == b"\x7e\x01"
        char.value = b"\x7e\x02"
        assert transport.read(LAMP_URI) is char.value  # bytes cannot change: no copy


# --- config loading -----------------------------------------------------------------------

def test_load_config_accepts_short_uuids_and_latency_knobs(tmp_path):
    config = tmp_path / "net.json"
    config.write_text("""{
      "devices": [{
        "mac": "0A-0B-0C-0D-0E-0F",
        "advertisingIntervalMs": 10,
        "services": {"180f": {"2a19": {"valueHex": "64", "allowed": ["read"]}}}
      }],
      "readLatencyMs": 5
    }""")
    net = load_sim_config(config, clock=VirtualClock(), seed=0)
    assert net.read_latency_ms == 5.0
    char = net.characteristic("0A:0B:0C:0D:0E:0F", expand_uuid(0x180F), expand_uuid(0x2A19))
    assert char.value == b"\x64"
    net.close()


@pytest.mark.parametrize("config", [
    {"devices": [{"mac": "nope"}]},
    {"devices": [{"mac": "AA:BB:CC:DD:EE:FF", "advertisingIntervalMs": 0}]},
    {"devices": [{"mac": "AA:BB:CC:DD:EE:FF",
                  "services": {"180f": {"2a19": {"valueHex": "xyz"}}}}]},
    {"devices": [{"mac": "AA:BB:CC:DD:EE:FF",
                  "services": {"180f": {"2a19": {"allowed": ["push"]}}}}]},
    {"devices": [{"mac": "AA:BB:CC:DD:EE:FF",
                  "services": {"not-a-uuid": {"2a19": {}}}}]},
    {"notdevices": []},
    *WRONG_TYPED_CONFIGS,
    "no-such.sim.json",
    {"devices": [{"mac": "AA:BB:CC:DD:EE:FF", "advertisingIntervalMs": float("nan")}]},
    {"devices": [{"mac": "AA:BB:CC:DD:EE:FF", "advertisingIntervalMs": float("inf")}]},
    {"devices": [{"mac": "AA:BB:CC:DD:EE:FF", "advertisingIntervalMs": 10**400}]},
    {"devices": [], "readLatencyMs": float("nan")},
    {"devices": [], "connectSetupMs": 10**400},
    pytest.param('{"devices": [], "readLatencyMs": ' + "1" * 5000 + "}",
                 id="digits-past-the-limit"),
    *(pytest.param({"devices": [], knob: -1}, id=f"negative-{knob}")
      for knob in ("processingDelayMs", "connectSetupMs", "readLatencyMs",
                   "writeLatencyMs", "disconnectLatencyMs")),
])
def test_invalid_configs_are_rejected(config):
    with pytest.raises(InvalidConfig):
        load_sim_config(config)


def test_a_config_file_nested_past_the_recursion_limit_is_invalid(tmp_path):
    path = tmp_path / "deep.sim.json"
    path.write_text("[" * 100_000)
    with pytest.raises(InvalidConfig, match="^config is not JSON: maximum recursion"):
        load_sim_config(path)


@pytest.mark.parametrize("value", [-1, "5", float("nan"), True])
@pytest.mark.parametrize("knob", ["processing_delay_ms", "connect_setup_ms",
                                  "read_latency_ms", "write_latency_ms",
                                  "disconnect_latency_ms"])
def test_a_network_rejects_a_latency_that_is_not_a_number_from_zero(knob, value):
    threads = threading.active_count()
    with pytest.raises(InvalidConfig, match=knob):
        SimNetwork(clock=VirtualClock(), **{knob: value})
    assert threading.active_count() == threads  # no delivery thread was started


@pytest.mark.parametrize("timeout_s", ["x", float("nan"), -1.0, 0, True,
                                       MAX_TIMEOUT_MS / 1000.0 * 2])
def test_a_transport_rejects_a_timeout_that_is_not_a_number_in_range(timeout_s):
    with virtual_network() as net:
        with pytest.raises(InvalidConfig, match="timeout_s"):
            SimTransport(net, timeout_s=timeout_s)
        assert SimTransport(net, timeout_s=MAX_TIMEOUT_MS / 1000.0).timeout_s > 0


def test_opening_a_transport_with_a_bad_timeout_stops_its_network():
    threads = threading.active_count()
    with pytest.raises(InvalidConfig, match="timeout_s"):
        open_transport(f"sim:{NETWORK_CONFIG}", timeout_s="x")
    assert threading.active_count() == threads  # the delivery thread was joined


@pytest.mark.parametrize("seconds", [float("nan"), 0, 0.0, -1.0])
def test_a_virtual_sleep_of_no_positive_length_leaves_the_time(seconds):
    clock = VirtualClock(5.0)
    clock.sleep(seconds)
    assert clock.monotonic() == 5.0
    clock.sleep(0.25)
    assert clock.monotonic() == 5.25


def test_characteristic_value_cap():
    with pytest.raises(InvalidConfig):
        SimCharacteristic(value=bytes(513))


@pytest.mark.parametrize("terms", [
    {"notify_source": (b"\x01", bytes(600))},
    {"value": 5},
    {"value": "7e"},
    {"notify_source": (3,)},
    {"notify_source": 5},
], ids=["script-600", "value-int", "value-str", "script-int", "script-not-iterable"])
def test_a_characteristic_takes_only_octets_within_the_att_cap(terms):
    with pytest.raises(InvalidConfig, match="^characteristic: "):
        SimCharacteristic(**terms)


@pytest.mark.parametrize("build, message", [
    (lambda: SimCharacteristic(b"", allowed=5),
     "^characteristic: allowed must hold GATT methods, got 5$"),
    (lambda: SimCharacteristic(b"", allowed=["push"]),
     r"^characteristic: allowed must hold GATT methods, got \['push'\]$"),
    (lambda: SimPeripheral("AA:AA:AA:AA:AA:01", 100, True, services=5),
     "^device AA:AA:AA:AA:AA:01: services must map service UUIDs to mappings of "
     "UUID to SimCharacteristic, got 5$"),
    (lambda: SimPeripheral("AA:AA:AA:AA:AA:01", 100, True, services={FFF0: 5}),
     "^device AA:AA:AA:AA:AA:01: services must map service UUIDs to mappings of "
     "UUID to SimCharacteristic, got " + re.escape(f"{{{FFF0!r}: 5}}") + "$"),
    (lambda: SimPeripheral("AA:AA:AA:AA:AA:01", 100, True,
                           services={"fff0": {"fff3": SimCharacteristic(b"\x01")}}),
     "^device AA:AA:AA:AA:AA:01: services must map service UUIDs to mappings of "
     "UUID to SimCharacteristic, got {'fff0': {'fff3': <"),
    (lambda: SimPeripheral("AA:AA:AA:AA:AA:01", 100, True,
                           services={FFF0: {"fff3": SimCharacteristic(b"\x01")}}),
     "^device AA:AA:AA:AA:AA:01: services must map service UUIDs to mappings of "
     "UUID to SimCharacteristic, got " + re.escape(f"{{{FFF0!r}: {{'fff3': <")),
], ids=["allowed-int", "allowed-unknown", "services-int", "services-of-int",
        "service-key-str", "characteristic-key-str"])
def test_a_device_built_in_code_takes_only_methods_and_characteristics(build, message):
    with pytest.raises(InvalidConfig, match=message):
        build()


def test_a_network_defines_only_peripherals():
    with virtual_network() as net:
        with pytest.raises(InvalidConfig,
                           match="^define_peripheral takes a SimPeripheral, got 5$"):
            net.define_peripheral(5)


def test_a_characteristic_keeps_each_allowed_method_as_its_member():
    char = SimCharacteristic(allowed=["read", GattMethod.NOTIFY])
    assert char.allowed == {GattMethod.READ, GattMethod.NOTIFY}
    assert all(method.__class__ is GattMethod for method in char.allowed)


def test_a_characteristic_keeps_octets_as_bytes():
    char = SimCharacteristic(bytearray(b"\x01"), notify_source=[memoryview(b"\x02")])
    assert char.value == b"\x01" and char.value.__class__ is bytes
    assert char.notify_source == (b"\x02",) and char.notify_source[0].__class__ is bytes


# --- subscription registry and network lifecycle -----------------------------------------

def beacon_thing(net, policy=ConnectionPolicy.RECONNECT_PER_OPERATION):
    return consume(parse_td_file(BEACON_TD), SimTransport(net, timeout_s=10.0), policy)


def test_registry_keeps_only_live_subscriptions_across_sessions():
    with virtual_network(auto_notify=False) as net:
        thing = beacon_thing(net)
        for _ in range(100):
            thing.unsubscribe_event(thing.subscribe_event("temperature", print))
            thing.disconnect()
        assert live_subscriptions(net) == 0 and net._subscriptions == {}


@pytest.mark.parametrize("beside", [False, True], ids=["alone", "beside-a-kept-lease"])
def test_no_lease_outlives_its_session(beside):
    sensor_td, beacon_td = parse_td_file(SENSOR_TD), parse_td_file(BEACON_TD)
    policy = ConnectionPolicy.RECONNECT_PER_OPERATION
    with virtual_network(auto_notify=False) as net:
        transport = SimTransport(net, timeout_s=10.0)
        kept = consume(sensor_td, transport)
        if beside:  # a lease that each session's lease on the sensor rides beside
            kept.connect()

        def session():
            sensor = consume(sensor_td, transport, policy)
            beacon = consume(beacon_td, transport, policy)
            assert sensor.read_property("moisture") == 42
            beacon.unsubscribe_event(beacon.subscribe_event("temperature", print))
            sensor.disconnect()
            beacon.disconnect()

        for _ in range(100):  # warm caches
            session()
        tracemalloc.start()
        try:
            gc.collect()  # a subscription and its sink form a cycle
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(1000):
                session()
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert net.peripheral(SENSOR_MAC).leases == ({kept: True} if beside else {})
        assert net.peripheral(BEACON_MAC).leases == {} and net._subscriptions == {}
        kept.disconnect()
    assert grown < 64 * 1024


def test_a_dropped_link_ends_every_lease_and_tells_each_subscriber_once():
    with virtual_network(auto_notify=False) as net:
        t = SimTransport(net, timeout_s=1.0)
        holders = ("first", "second")
        t.connect(BEACON_MAC)  # the central's own lease
        for holder in holders:
            t.connect(BEACON_MAC, holder)
        heard = {holder: [] for holder in holders}
        running, release = threading.Event(), threading.Event()

        def sink_of(holder):
            def sink(payload):
                heard[holder].append(payload)
                if holder == "first" and payload == b"\x01":
                    running.set()
                    release.wait(5.0)  # still running when the link drops
            return sink

        handles = [t.subscribe(BEACON_URI, sink_of(holder), holder) for holder in holders]
        for octet in (1, 2):  # each queued behind the first delivery
            net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, bytes([octet]))
        assert running.wait(5.0)
        t.disconnect(BEACON_MAC)  # waits for no delivery, not even the running one
        assert not any(handle.active for handle in handles)
        peripheral = net.peripheral(BEACON_MAC)
        assert peripheral.connected_by is None and peripheral.leases == {}
        assert not any(t.is_connected(BEACON_MAC, holder) for holder in (None, *holders))
        net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x03")  # reaches nobody
        assert heard["first"] == [b"\x01"]  # still running: no notice before it ends
        release.set()
    # close() handed out everything queued: each end notice once, and last.
    assert heard == {"first": [b"\x01", None], "second": [None]}


def test_a_release_leaves_the_link_and_its_subscriptions_to_the_other_holders():
    with virtual_network(auto_notify=False) as net:
        t = SimTransport(net, timeout_s=1.0)
        t.connect(BEACON_MAC, "first")
        t.connect(BEACON_MAC, "first")  # at most one lease per holder
        t.connect(BEACON_MAC, "second")
        received: queue.Queue = queue.Queue()
        handle = t.subscribe(BEACON_URI, received.put, "second")
        now = net.clock.monotonic()
        t.disconnect(BEACON_MAC, "first")
        assert net.clock.monotonic() == now  # no teardown: the link stays up
        assert handle.active and t.is_connected(BEACON_MAC, "second")
        assert not t.is_connected(BEACON_MAC, "first") and not t.is_connected(BEACON_MAC)
        with pytest.raises(NotConnected):
            t.read(BEACON_URI, "first")  # an operation runs on its holder's lease
        with pytest.raises(NotConnected):
            t.disconnect(BEACON_MAC, "first")
        net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x07")
        assert received.get(timeout=2.0) == b"\x07"
        t.disconnect(BEACON_MAC, "second")  # the last lease: the link ends
        assert received.get(timeout=2.0) is None and not handle.active
        assert net.peripheral(BEACON_MAC).connected_by is None


def test_unsubscribing_a_foreign_handle_changes_nothing():
    with virtual_network(auto_notify=False) as net, virtual_network(auto_notify=False) as other:
        t, foreign = SimTransport(net, timeout_s=1.0), SimTransport(other, timeout_s=1.0)
        foreign.connect(BEACON_MAC)
        handle = foreign.subscribe(BEACON_URI, print)
        t.unsubscribe(handle)
        assert handle.active and live_subscriptions(other) == 1 and net._subscriptions == {}
        foreign.unsubscribe(handle)
        assert not handle.active and other._subscriptions == {}


def test_disconnect_cancels_only_live_subscriptions(monkeypatch):
    with virtual_network(auto_notify=False) as net:
        thing = beacon_thing(net)
        for _ in range(99):
            thing.unsubscribe_event(thing.subscribe_event("temperature", print))
            thing.disconnect()
        thing.subscribe_event("temperature", print)
        thing.transport.subscribe(BEACON_URI, print, thing)  # a second live one
        cancels = []
        cancel = net.unsubscribe
        monkeypatch.setattr(net, "unsubscribe",
                            lambda sub, *notice: cancels.append(sub) or cancel(sub, *notice))
        live = live_subscriptions(net)
        thing.disconnect()  # the 100th
        assert len(cancels) == live == 2
        assert live_subscriptions(net) == 0


def test_value_queued_before_unsubscribe_is_not_delivered():
    net = make_network(seed=0, auto_notify=False)
    t = SimTransport(net, timeout_s=1.0)
    t.connect(BEACON_MAC)
    entered, release = threading.Event(), threading.Event()
    received = []

    def blocking_sink(payload):
        entered.set()
        release.wait(5.0)

    t.subscribe(BEACON_URI, blocking_sink)
    handle = t.subscribe(BEACON_URI, received.append)
    try:
        net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x01")
        assert entered.wait(5.0)  # the second delivery is queued behind this one
        t.unsubscribe(handle)
    finally:
        release.set()
        net.close()  # returns after the queue has drained
    assert received == []


def test_unsubscribe_after_disconnect_is_a_no_op():
    with virtual_network(auto_notify=False) as net:
        thing = beacon_thing(net, ConnectionPolicy.KEEP_CONNECTED)
        subscription = thing.subscribe_event("temperature", print)
        handle = thing.transport.subscribe(BEACON_URI, print, thing)  # on the thing's lease
        thing.disconnect()
        thing.unsubscribe_event(subscription)
        thing.transport.unsubscribe(handle)
        assert not subscription.active and not handle.active
        assert net._subscriptions == {}


def test_attribute_operations_do_not_renormalize_the_mac(monkeypatch):
    with virtual_network() as net:
        t = SimTransport(net, timeout_s=1.0)
        t.connect(LAMP_MAC)

        def refuse(text):
            raise AssertionError(f"normalize_mac({text!r}) on a canonical GattUri")

        monkeypatch.setattr("wotble.transport.normalize_mac", refuse)
        payload = bytes.fromhex("7e00040100000000ef")
        t.write(LAMP_URI, payload, with_response=True)
        assert t.read(LAMP_URI) == payload


def test_hand_built_uri_with_non_canonical_mac_is_not_connected():
    with virtual_network() as net:
        t = SimTransport(net, timeout_s=1.0)
        t.connect(LAMP_MAC)
        raw = GattUri(LAMP_MAC.lower(), LAMP_URI.service, LAMP_URI.characteristic)
        with pytest.raises(NotConnected):
            t.read(raw)


@pytest.mark.parametrize("spelling", [LAMP_MAC.lower(), LAMP_MAC.replace(":", "-")])
def test_session_calls_accept_any_mac_spelling(spelling):
    with virtual_network() as net:
        t = SimTransport(net, timeout_s=1.0)
        t.connect(spelling)
        assert net.peripheral(LAMP_MAC).connected_by is t
        assert t.is_connected(spelling)
        t.discover_gatt(spelling)
        t.disconnect(spelling)
        assert not t.is_connected(LAMP_MAC)
        assert net.peripheral(LAMP_MAC).connected_by is None


def delivery_threads():
    return sum(1 for t in threading.enumerate() if t.name == "wotble-sim-delivery")


def test_close_joins_the_delivery_thread_and_is_idempotent():
    baseline = delivery_threads()
    net = virtual_network()
    assert delivery_threads() == baseline + 1
    net.close()
    assert delivery_threads() == baseline and not net._worker.is_alive()
    net.close()  # a no-op
    with virtual_network() as net:
        assert delivery_threads() == baseline + 1
    assert delivery_threads() == baseline


def test_closed_network_refuses_subscribe_and_emit():
    net = virtual_network(auto_notify=False)
    t = SimTransport(net, timeout_s=1.0)
    t.connect(BEACON_MAC)
    net.close()
    with pytest.raises(TransportUnavailable):
        t.subscribe(BEACON_URI, print)
    with pytest.raises(TransportUnavailable):
        net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x01")
    assert net._subscriptions == {}


def test_sink_may_close_its_own_network():
    net = make_network(seed=0, auto_notify=False)
    t = SimTransport(net, timeout_s=1.0)
    t.connect(BEACON_MAC)
    errors = []

    def closing_sink(payload):
        try:
            net.close()  # on the delivery thread: must not join itself
        except Exception as exc:
            errors.append(exc)

    t.subscribe(BEACON_URI, closing_sink)
    net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x01")
    net._worker.join(5.0)
    assert not net._worker.is_alive() and errors == []
    net.close()
