import queue
import statistics
import threading
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
from wotble.errors import (
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
from conftest import (
    BEACON_CHAR,
    BEACON_MAC,
    BEACON_SERVICE,
    BEACON_TD,
    LAMP_CHAR,
    LAMP_MAC,
    LAMP_SERVICE,
    WRONG_TYPED_CONFIGS,
    live_subscriptions,
    make_network,
)

LAMP_URI = parse_gatt_uri(f"gatt://{LAMP_MAC.replace(':', '-')}/{LAMP_SERVICE}/{LAMP_CHAR}")
BEACON_URI = parse_gatt_uri(
    f"gatt://{BEACON_MAC.replace(':', '-')}/{BEACON_SERVICE}/{BEACON_CHAR}"
)


def virtual_network(**kw):
    return make_network(clock=VirtualClock(), **kw)


def test_write_then_read_returns_written_octets():
    net = virtual_network()
    t = SimTransport(net, timeout_s=1.0)
    t.connect(LAMP_MAC)
    payload = bytes([0x7E, 0x00, 0x04, 0x01, 0x00, 0x00, 0x00, 0x00, 0xEF])
    t.write(LAMP_URI, payload, with_response=True)
    assert t.read(LAMP_URI) == payload
    log = net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR).write_log
    assert [(r.payload, r.with_response) for r in log] == [(payload, True)]
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
    t = SimTransport(net, timeout_s=10.0)
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
    assert char.value == before and char.write_log == []
    net.close()


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


def test_duplicate_device_definition():
    net = SimNetwork(clock=VirtualClock())
    net.define_peripheral(SimPeripheral("AA:AA:AA:AA:AA:03", 50))
    with pytest.raises(DuplicateDevice):
        net.define_peripheral(SimPeripheral("aa-aa-aa-aa-aa-03", 50))
    net.close()


def test_gatt_tree_mirrors_definition():
    net = virtual_network()
    t = SimTransport(net, timeout_s=1.0)
    t.connect(LAMP_MAC)
    tree = t.discover_gatt(LAMP_MAC)
    service = uuid.UUID(LAMP_SERVICE)
    assert set(tree.services) == {service}
    chars = tree.characteristics(service)
    assert chars == ((uuid.UUID(LAMP_CHAR),
                      frozenset({GattMethod.READ, GattMethod.WRITE})),)
    net.close()


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

    class CloseOnFirstValue(queue.SimpleQueue):
        def put(self, item, *args, **kwargs):
            if item is not None and not closers:
                closers.append(threading.Thread(target=net.close))
                closers[0].start()
                closers[0].join(0.2)  # close() needs the lock the script is queued under
            super().put(item, *args, **kwargs)

    monkeypatch.setattr("wotble.transport.SimpleQueue", CloseOnFirstValue)
    net = make_network(seed=0)
    t = SimTransport(net, timeout_s=1.0)
    t.connect(BEACON_MAC)
    received = []
    t.subscribe(BEACON_URI, received.append)
    closers[0].join(5.0)
    assert not closers[0].is_alive()
    assert received == [b"\xfa", b"\x00", b"\x64"]  # none left behind the stop marker


def test_disconnect_cancels_subscriptions():
    net = make_network(seed=0, auto_notify=False)
    t = SimTransport(net, timeout_s=1.0)
    t.connect(BEACON_MAC)
    received: queue.Queue = queue.Queue()
    t.subscribe(BEACON_URI, received.put)
    t.disconnect(BEACON_MAC)
    net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x99")
    with pytest.raises(queue.Empty):
        received.get(timeout=0.3)
    net.close()


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
])
def test_invalid_configs_are_rejected(config):
    with pytest.raises(InvalidConfig):
        load_sim_config(config)


def test_characteristic_value_cap():
    with pytest.raises(InvalidConfig):
        SimCharacteristic(value=bytes(513))


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


def test_disconnect_cancels_only_live_subscriptions(monkeypatch):
    with virtual_network(auto_notify=False) as net:
        thing = beacon_thing(net)
        for _ in range(99):
            thing.unsubscribe_event(thing.subscribe_event("temperature", print))
            thing.disconnect()
        thing.subscribe_event("temperature", print)
        thing.transport.subscribe(BEACON_URI, print)  # a second live one
        cancels = []
        cancel = net.unsubscribe
        monkeypatch.setattr(net, "unsubscribe",
                            lambda sub: cancels.append(sub) or cancel(sub))
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
        handle = thing.transport.subscribe(BEACON_URI, print)
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
        assert set(t.discover_gatt(spelling).services) == {uuid.UUID(LAMP_SERVICE)}
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
