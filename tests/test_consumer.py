import json
import queue
import sys
import threading
from types import SimpleNamespace

import pytest

from wotble import (
    ConsumedThing,
    ConnectionPolicy,
    Endianess,
    GattMethod,
    SimPeripheral,
    SimTransport,
    VirtualClock,
    consume,
    parse_gatt_uri,
    parse_td,
    parse_td_file,
)
from wotble.codec import encode
from wotble.errors import (
    BadScheme,
    InvalidTd,
    MethodNotPermitted,
    MixedDevices,
    MultiPropertyError,
    OutOfRange,
    Timeout,
    UnknownAffordance,
    UnsupportedMediaType,
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
    LAMP_TD,
    SENSOR_MAC,
    SENSOR_TD,
    live_subscriptions,
    make_network,
)


def lamp_thing(net, **kw):
    transport = SimTransport(net, timeout_s=10.0)
    return consume(parse_td_file(LAMP_TD), transport, **kw), transport


def sensor_thing(net, **kw):
    transport = SimTransport(net, timeout_s=60.0)
    return consume(parse_td_file(SENSOR_TD), transport, **kw), transport


def test_consume_performs_no_io():
    net = make_network(clock=VirtualClock())
    thing, transport = lamp_thing(net)
    assert transport.trace == []
    assert not thing.connected
    net.close()


def test_consume_twice_yields_independent_things():
    net = make_network(clock=VirtualClock())
    transport = SimTransport(net, timeout_s=10.0)
    td = parse_td_file(LAMP_TD)
    a = consume(td, transport)
    b = consume(td, transport)
    assert a is not b
    assert a.transport is b.transport
    net.close()


def test_consume_rejects_invalid_td():
    doc = json.loads(LAMP_TD.read_text())
    doc["sbo:isConnectable"] = False
    with pytest.raises(InvalidTd) as exc_info:
        consume(parse_td(json.dumps(doc)), None)
    assert exc_info.value.diagnostics


def test_lamp_write_property_golden_payload():
    net = make_network(clock=VirtualClock())
    thing, _ = lamp_thing(net)
    thing.write_property("power", {"on": 1})
    log = net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR).write_log
    assert len(log) == 1
    assert log[0].payload == bytes.fromhex("7e00040100000000ef")
    assert log[0].with_response is True
    net.close()


def test_write_out_of_range_variable():
    net = make_network(clock=VirtualClock())
    thing, _ = lamp_thing(net)
    with pytest.raises(OutOfRange):
        thing.write_property("power", {"on": 2})
    assert net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR).write_log == []
    net.close()


@pytest.mark.parametrize("value", [-0.1, 10.1])
def test_write_outside_the_affordance_bounds_is_out_of_range(value):
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, transport = beacon_reader(net, ConnectionPolicy.KEEP_CONNECTED,
                                         minimum=0, maximum=10)
        with pytest.raises(OutOfRange):
            thing.write_property("temperature", value)
        thing.write_property("temperature", 10)
        writes = [entry[2] for entry in transport.trace if entry[0] == "write"]
        assert writes == ["64"]
        thing.disconnect()


def test_read_property_decodes_scalar():
    net = make_network(clock=VirtualClock())
    thing, _ = sensor_thing(net)
    assert thing.read_property("moisture") == 42
    assert thing.read_property("temperature") == pytest.approx(25.0)
    net.close()


def test_read_unknown_property():
    net = make_network(clock=VirtualClock())
    thing, _ = sensor_thing(net)
    for _ in range(2):  # a failed lookup is not remembered
        with pytest.raises(UnknownAffordance):
            thing.read_property("altitude")
    net.close()


SENSOR_VALUES = {"moisture": 42, "temperature": 25.0}


def test_interactions_reuse_what_the_first_call_resolved(monkeypatch):
    net = make_network(clock=VirtualClock())
    sensor, _ = sensor_thing(net)
    lamp, _ = lamp_thing(net)
    for name, value in SENSOR_VALUES.items():
        assert sensor.read_property(name) == pytest.approx(value)
    lamp.write_property("power", {"on": 0})

    def recomputed(*_args, **_kwargs):
        raise AssertionError("derived data recomputed after the first call")

    monkeypatch.setattr("wotble.binding.parse_gatt_uri", recomputed)
    monkeypatch.setattr("wotble.codec.compile_pattern", recomputed)
    monkeypatch.setattr("wotble.consumer.resolve_form", recomputed)
    log = net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR).write_log
    mixed_interactions(sensor, lamp, log)
    net.close()


def mixed_interactions(sensor, lamp, log) -> None:
    """100 sensor reads and lamp writes (1 in 5), checked against the fixture."""
    for i in range(100):
        if i % 5 == 4:
            on = i % 2
            lamp.write_property("power", {"on": on})
            assert log[-1].payload == bytes.fromhex(f"7e0004{on:02x}00000000ef")
        else:
            name = ("moisture", "temperature")[i % 2]
            assert sensor.read_property(name) == pytest.approx(SENSOR_VALUES[name])


def test_a_kept_link_rederives_nothing(monkeypatch):
    with make_network(clock=VirtualClock()) as net:
        sensor, sensor_link = sensor_thing(net)
        lamp, lamp_link = lamp_thing(net)
        for name, value in SENSOR_VALUES.items():
            assert sensor.read_property(name) == pytest.approx(value)
        lamp.write_property("power", {"on": 0})
        log = net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR).write_log
        entries = len(sensor_link.trace), len(lamp_link.trace)

        def rederived(*_args, **_kwargs):
            raise AssertionError("re-derived on a kept link")

        monkeypatch.setattr(ConsumedThing, "connect", rederived)
        monkeypatch.setattr(SimTransport, "is_connected", rederived)
        monkeypatch.setattr(Endianess, "byteorder", property(rederived))
        monkeypatch.setattr(SimPeripheral, "characteristic", rederived)
        mixed_interactions(sensor, lamp, log)
        # One trace entry per interaction, and no connect among them.
        assert {entry[0] for entry in sensor_link.trace[entries[0]:]} == {"read"}
        assert {entry[0] for entry in lamp_link.trace[entries[1]:]} == {"write"}
        assert len(sensor_link.trace) + len(lamp_link.trace) == sum(entries) + 100


def test_parsing_reuses_each_term_uuid_and_mac(monkeypatch):
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        fixtures = (LAMP_TD, SENSOR_TD, BEACON_TD)
        first = [parse_td_file(path) for path in fixtures]
        beacon = consume(first[2], SimTransport(net, timeout_s=60.0))
        received: queue.Queue = queue.Queue()
        beacon.subscribe_event("temperature", received.put)
        emit_beacon(net, 1)
        assert received.get(timeout=2.0) == pytest.approx(0.1)

        def recomputed(*_args, **_kwargs):
            raise AssertionError("parsed again after the first time")

        monkeypatch.setattr("wotble.uris.uuid", SimpleNamespace(UUID=recomputed))
        monkeypatch.setattr("wotble.td._CURIE_RE", SimpleNamespace(match=recomputed))
        monkeypatch.setattr("wotble.codec.compile_pattern", recomputed)
        assert [parse_td_file(path) for path in fixtures] == first
        emit_beacon(net, 2)
        assert received.get(timeout=2.0) == pytest.approx(0.2)
        beacon.disconnect()


def non_gatt_first_form(form: dict) -> None:
    form["href"] = "http://example.com/moisture"


def plain_text_form(form: dict) -> None:
    form["contentType"] = "text/plain"


@pytest.mark.parametrize("edit, error", [
    (non_gatt_first_form, BadScheme),
    (plain_text_form, UnsupportedMediaType),
])
def test_failed_resolution_raises_again_on_every_call(edit, error):
    net = make_network(clock=VirtualClock())
    transport = SimTransport(net, timeout_s=60.0)
    doc = json.loads(SENSOR_TD.read_text())
    forms = doc["properties"]["moisture"]["forms"]
    forms.insert(0, dict(forms[0]))
    edit(forms[0])
    thing = consume(parse_td(json.dumps(doc)), transport)
    for _ in range(2):
        with pytest.raises(error):
            thing.read_property("moisture")
    assert transport.trace == []  # both fail before connecting
    if error is UnsupportedMediaType:
        assert thing.read_raw("moisture") == bytes([42])  # no codec needed
    net.close()


def writable_sensor_doc() -> dict:
    # The fixture's forms are read-only; widen them for write-path tests.
    doc = json.loads(SENSOR_TD.read_text())
    for prop in doc["properties"].values():
        prop["forms"][0]["op"] = ["readproperty", "writeproperty"]
        prop["forms"][0].pop("sbo:methodName", None)
    return doc


def test_write_to_read_only_characteristic():
    net = make_network(clock=VirtualClock())
    transport = SimTransport(net, timeout_s=60.0)
    thing = consume(parse_td(json.dumps(writable_sensor_doc())), transport)
    with pytest.raises(MethodNotPermitted):
        thing.write_property("moisture", 7)
    net.close()


def test_action_uses_write_without_response():
    net = make_network(clock=VirtualClock())
    lamp_char = net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR)
    lamp_char.allowed = lamp_char.allowed | {GattMethod.WRITE_WITHOUT_RESPONSE}
    transport = SimTransport(net, timeout_s=10.0)
    doc = json.loads(LAMP_TD.read_text())
    doc["actions"] = {
        "blink": {
            "type": "integer",
            "bdo:bytelength": 1,
            "forms": [{
                "href": doc["properties"]["power"]["forms"][0]["href"],
                "op": "invokeaction",
                "sbo:methodName": "sbo:write-without-response",
                "contentType": "application/x.binary-data-stream",
            }],
        },
    }
    thing = consume(parse_td(json.dumps(doc)), transport)
    thing.invoke_action("blink", 3)
    log = net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR).write_log
    assert log[-1].with_response is False

    with pytest.raises(UnknownAffordance):
        thing.invoke_action("explode", 1)
    with pytest.raises(ValueTooLong):
        thing.write_raw("power", bytes(513))
    net.close()


def test_mixed_device_tds_are_rejected_on_connect():
    doc = json.loads(SENSOR_TD.read_text())
    doc["properties"]["temperature"]["forms"][0]["href"] = (
        "gatt://01-02-03-04-05-06/00001204-0000-1000-8000-00805f9b34fb/"
        "00001a02-0000-1000-8000-00805f9b34fb"
    )
    net = make_network(clock=VirtualClock())
    thing = consume(parse_td(json.dumps(doc)), SimTransport(net, timeout_s=60.0))
    with pytest.raises(MixedDevices):
        thing.connect()
    net.close()


def test_disconnect_when_not_connected_is_a_noop():
    net = make_network(clock=VirtualClock())
    thing, transport = sensor_thing(net)
    thing.disconnect()
    assert transport.trace == []
    net.close()


def test_connect_targets_the_td_device():
    net = make_network(clock=VirtualClock())
    thing, transport = lamp_thing(net)
    thing.connect()
    assert ("connect", LAMP_MAC) in transport.trace
    assert thing.device_id == LAMP_MAC
    net.close()


# --- connection policies -----------------------------------------------------------

def connect_count(transport):
    return sum(1 for entry in transport.trace if entry[0] == "connect")


def disconnect_count(transport):
    return sum(1 for entry in transport.trace if entry[0] == "disconnect")


def test_keep_connected_reuses_one_connection():
    net = make_network(clock=VirtualClock())
    thing, transport = sensor_thing(net, policy=ConnectionPolicy.KEEP_CONNECTED)
    thing.read_property("moisture")
    thing.read_property("moisture")
    assert connect_count(transport) == 1
    assert disconnect_count(transport) == 0
    net.close()


def test_reconnect_per_operation_cycles_the_connection():
    net = make_network(clock=VirtualClock())
    thing, transport = sensor_thing(net, policy=ConnectionPolicy.RECONNECT_PER_OPERATION)
    thing.read_property("moisture")
    thing.read_property("moisture")
    assert connect_count(transport) == 2
    assert disconnect_count(transport) == 2
    net.close()


def test_disconnect_after_reuses_then_drops():
    net = make_network(clock=VirtualClock())
    thing, transport = sensor_thing(net, policy=ConnectionPolicy.DISCONNECT_AFTER)
    thing.connect()
    thing.read_property("moisture")
    assert connect_count(transport) == 1
    assert disconnect_count(transport) == 1
    assert not thing.connected
    net.close()


class FirstExplorationTimesOut(SimTransport):
    """Fault injection: the first GATT exploration fails after the link is up."""

    failures_left = 1

    def discover_gatt(self, device_id):
        if self.failures_left:
            self.failures_left -= 1
            raise Timeout("injected GATT exploration timeout")
        return super().discover_gatt(device_id)


def test_failed_gatt_exploration_releases_the_link():
    with make_network(clock=VirtualClock()) as net:
        transport = FirstExplorationTimesOut(net, timeout_s=60.0)
        thing = consume(parse_td_file(SENSOR_TD), transport)
        with pytest.raises(Timeout):
            thing.read_property("moisture")
        assert not thing.connected and not transport.is_connected(SENSOR_MAC)
        assert thing.read_property("moisture") == 42  # no Busy on the retry
        thing.disconnect()
        assert net.peripheral(SENSOR_MAC).connected_by is None


# --- the transport's link is the thing's only record of it ---------------------------

def test_the_next_operation_recovers_a_dropped_link():
    with make_network(clock=VirtualClock()) as net:
        thing, transport = sensor_thing(net)
        assert thing.read_property("moisture") == 42
        transport.disconnect(SENSOR_MAC)
        assert not thing.connected
        entries = len(transport.trace)
        assert thing.read_property("moisture") == 42
        assert [entry[0] for entry in transport.trace[entries:]] == [
            "connect", "discover_gatt", "read"]
        thing.disconnect()


def test_an_operation_ends_the_subscriptions_a_dropped_link_took():
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, transport = beacon_reader(net, ConnectionPolicy.DISCONNECT_AFTER)
        subscription = thing.subscribe_event("temperature", print)
        transport.disconnect(BEACON_MAC)
        assert subscription.active  # nothing has told the thing yet
        entries = len(transport.trace)
        assert thing.read_property("temperature") == pytest.approx(25.0)
        assert not subscription.active and thing._subscriptions == []
        # Unpinned again: the policy drops the link after the read.
        assert [entry[0] for entry in transport.trace[entries:]] == [
            "connect", "discover_gatt", "read", "disconnect"]
        assert not thing.connected and live_subscriptions(net) == 0
        thing.unsubscribe_event(subscription)  # a no-op
        assert transport.trace[-1][0] == "disconnect"


def test_things_on_one_transport_share_their_device_link():
    with make_network(clock=VirtualClock()) as net:
        transport = SimTransport(net, timeout_s=60.0)
        first, second = (consume(parse_td_file(SENSOR_TD), transport) for _ in range(2))
        assert first.read_property("moisture") == 42
        assert second.read_property("moisture") == 42  # no Busy
        assert second.connected and connect_count(transport) == 1
        second.disconnect()
        assert not first.connected
        assert first.read_property("moisture") == 42
        first.disconnect()


# --- events ---------------------------------------------------------------------------

def test_subscription_decodes_through_bdo_spec():
    net = make_network(seed=0)
    transport = SimTransport(net, timeout_s=10.0)
    thing = consume(parse_td_file(BEACON_TD), transport)
    received: queue.Queue = queue.Queue()
    subscription = thing.subscribe_event("temperature", received.put)
    values = [received.get(timeout=2.0) for _ in range(3)]
    assert values == [pytest.approx(25.0), pytest.approx(0.0), pytest.approx(10.0)]
    thing.unsubscribe_event(subscription)
    net.close()


def test_unsubscribe_stops_delivery():
    net = make_network(seed=0, auto_notify=False)
    transport = SimTransport(net, timeout_s=10.0)
    thing = consume(parse_td_file(BEACON_TD), transport)
    received: queue.Queue = queue.Queue()
    subscription = thing.subscribe_event("temperature", received.put)
    net.emit_next("D0:F0:18:44:23:02", "ffe0", "ffe1")
    assert received.get(timeout=2.0) == pytest.approx(25.0)
    thing.unsubscribe_event(subscription)
    net.emit_next("D0:F0:18:44:23:02", "ffe0", "ffe1")
    with pytest.raises(queue.Empty):
        received.get(timeout=0.3)
    net.close()


def test_throwing_listener_does_not_break_subscription():
    net = make_network(seed=0)
    transport = SimTransport(net, timeout_s=10.0)
    thing = consume(parse_td_file(BEACON_TD), transport)
    received: queue.Queue = queue.Queue()
    calls = []

    def listener(value):
        calls.append(value)
        received.put(value)
        raise RuntimeError("listener bug")

    thing.subscribe_event("temperature", listener)
    assert [received.get(timeout=2.0) for _ in range(3)] == [
        pytest.approx(25.0), pytest.approx(0.0), pytest.approx(10.0)]
    net.close()


def test_an_undecodable_notification_skips_only_the_listener():
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, _ = beacon_reader(net, ConnectionPolicy.KEEP_CONNECTED)
        received: queue.Queue = queue.Queue()
        subscription = thing.subscribe_event("temperature", received.put)
        net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"")  # too short to decode
        emit_beacon(net, 4)
        assert received.get(timeout=2.0) == pytest.approx(0.4)
        assert received.empty() and subscription.active
        thing.unsubscribe_event(subscription)
        thing.disconnect()


def test_subscribe_to_unknown_event():
    net = make_network(clock=VirtualClock())
    transport = SimTransport(net, timeout_s=10.0)
    thing = consume(parse_td_file(BEACON_TD), transport)
    with pytest.raises(UnknownAffordance):
        thing.subscribe_event("humidity", lambda v: None)
    net.close()


# --- a live subscription pins the link -------------------------------------------------

def beacon_reader(net, policy, **terms):
    """The beacon TD plus a read/write property on the event's characteristic.

    The characteristic only notifies and reads; it is widened to take writes.
    ``terms`` are added to the property.
    """
    beacon_char = net.characteristic(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR)
    beacon_char.allowed = beacon_char.allowed | {GattMethod.WRITE}
    doc = json.loads(BEACON_TD.read_text())
    event = doc["events"]["temperature"]
    doc["properties"] = {"temperature": {
        key: value for key, value in event.items() if key != "forms"}}
    doc["properties"]["temperature"]["forms"] = [{
        "href": event["forms"][0]["href"],
        "op": ["readproperty", "writeproperty"],
        "contentType": "application/x.binary-data-stream",
    }]
    doc["properties"]["temperature"].update(terms)
    transport = SimTransport(net, timeout_s=10.0)
    return consume(parse_td(json.dumps(doc)), transport, policy), transport


def emit_beacon(net, octet: int) -> None:
    net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, bytes([octet]))


@pytest.mark.parametrize("policy", [ConnectionPolicy.RECONNECT_PER_OPERATION,
                                    ConnectionPolicy.DISCONNECT_AFTER])
def test_subscription_survives_reads_and_writes_under_teardown_policies(policy):
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, _ = beacon_reader(net, policy)
        received: queue.Queue = queue.Queue()
        subscription = thing.subscribe_event("temperature", received.put)
        assert thing.read_property("temperature") == pytest.approx(25.0)
        thing.write_property("temperature", 3.0)
        assert thing.read_raw("temperature") == bytes([30])
        emit_beacon(net, 1)
        emit_beacon(net, 2)
        assert [received.get(timeout=2.0) for _ in range(2)] == [
            pytest.approx(0.1), pytest.approx(0.2)]
        assert subscription.active and thing.connected
        assert live_subscriptions(net) == 1
        thing.unsubscribe_event(subscription)


def test_second_subscription_keeps_the_first_delivering():
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, transport = beacon_reader(net, ConnectionPolicy.RECONNECT_PER_OPERATION)
        first: queue.Queue = queue.Queue()
        second: queue.Queue = queue.Queue()
        subscriptions = [thing.subscribe_event("temperature", first.put),
                         thing.subscribe_event("temperature", second.put)]
        emit_beacon(net, 3)
        assert first.get(timeout=2.0) == pytest.approx(0.3)
        assert second.get(timeout=2.0) == pytest.approx(0.3)
        assert connect_count(transport) == 1 and disconnect_count(transport) == 0
        for subscription in subscriptions:
            thing.unsubscribe_event(subscription)


def test_explicit_disconnect_ends_subscriptions_at_once():
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, transport = beacon_reader(net, ConnectionPolicy.KEEP_CONNECTED)
        subscriptions = [thing.subscribe_event("temperature", print) for _ in range(2)]
        thing.disconnect()
        assert [s.active for s in subscriptions] == [False, False]
        assert live_subscriptions(net) == 0
        thing.unsubscribe_event(subscriptions[0])  # a no-op
        assert not any(entry[0] == "unsubscribe" for entry in transport.trace)


def test_listener_may_call_back_while_disconnect_runs(monkeypatch):
    net = make_network(clock=VirtualClock(), auto_notify=False)
    thing, transport = beacon_reader(net, ConnectionPolicy.KEEP_CONNECTED)
    in_listener, at_transport = threading.Event(), threading.Event()
    seen = []

    def listener(value):
        in_listener.set()
        at_transport.wait(5.0)
        seen.append(thing.connected)  # takes the thing's lock

    def reaching_the_transport(call):
        def spy(*args):
            at_transport.set()
            return call(*args)
        return spy

    # The listener calls back once disconnect() has reached the transport.
    for name in ("unsubscribe", "disconnect"):
        monkeypatch.setattr(transport, name,
                            reaching_the_transport(getattr(transport, name)))
    subscription = thing.subscribe_event("temperature", listener)
    emit_beacon(net, 1)
    assert in_listener.wait(5.0)
    worker = threading.Thread(target=thing.disconnect, daemon=True)
    worker.start()
    worker.join(5.0)
    assert not worker.is_alive(), "disconnect() and the listener deadlocked"
    assert seen == [True]
    assert not subscription.active and not thing.connected
    assert live_subscriptions(net) == 0
    # Not in a finally: close() would join a deadlocked delivery thread.
    net.close()


def test_concurrent_disconnects_let_listeners_call_back():
    net = make_network(clock=VirtualClock(), auto_notify=False)
    thing, _ = beacon_reader(net, ConnectionPolicy.KEEP_CONNECTED)
    errors, subscriptions = [], []

    def listener(value):
        try:
            assert thing.read_property("temperature") == pytest.approx(25.0)
        except Exception as exc:
            errors.append(exc)

    def churn():
        try:
            for _ in range(50):
                subscriptions.append(thing.subscribe_event("temperature", listener))
                emit_beacon(net, 1)
                thing.disconnect()
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn, daemon=True) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers), "deadlocked"
    assert errors == [] and thing._subscriptions == [] and net._subscriptions == {}
    assert not any(s.active or s._listening for s in subscriptions)
    # Not in a finally: close() would join a deadlocked delivery thread.
    net.close()


def test_disconnect_accepts_a_link_dropped_underneath():
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        sensor, sensor_link = sensor_thing(net)
        beacon, beacon_link = beacon_reader(net, ConnectionPolicy.KEEP_CONNECTED)
        assert sensor.read_property("moisture") == 42
        subscription = beacon.subscribe_event("temperature", print)
        sensor_link.disconnect(SENSOR_MAC)
        beacon_link.disconnect(BEACON_MAC)
        for thing in (sensor, beacon):
            thing.disconnect()
            assert not thing.connected
        assert not subscription.active and beacon._subscriptions == []
        assert sensor.read_property("moisture") == 42
        assert beacon.read_property("temperature") == pytest.approx(25.0)
        beacon.disconnect()


@pytest.mark.parametrize("policy, cycles", [
    (ConnectionPolicy.RECONNECT_PER_OPERATION, (2, 2)),
    (ConnectionPolicy.DISCONNECT_AFTER, (1, 1)),
])
def test_last_unsubscribe_restores_the_policy(policy, cycles):
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, transport = beacon_reader(net, policy)
        subscriptions = [thing.subscribe_event("temperature", print) for _ in range(2)]
        thing.read_property("temperature")
        thing.unsubscribe_event(subscriptions[0])
        thing.read_property("temperature")  # still pinned by the second
        assert (connect_count(transport), disconnect_count(transport)) == (1, 0)
        thing.unsubscribe_event(subscriptions[1])
        thing.read_property("temperature")
        assert (connect_count(transport), disconnect_count(transport)) == cycles
        assert not thing.connected


CYCLE = ("connect", "discover_gatt")
#: Trace operations of a read, a write and a raw read under each policy.
POLICY_TRACES = {
    (ConnectionPolicy.KEEP_CONNECTED, False):
        CYCLE + ("read", "write", "read"),
    (ConnectionPolicy.RECONNECT_PER_OPERATION, False):
        CYCLE + ("read", "disconnect") + CYCLE + ("write", "disconnect")
        + CYCLE + ("read", "disconnect"),
    (ConnectionPolicy.DISCONNECT_AFTER, False):
        CYCLE + ("read", "disconnect") + CYCLE + ("write", "disconnect")
        + CYCLE + ("read", "disconnect"),
    (ConnectionPolicy.KEEP_CONNECTED, True):
        CYCLE + ("subscribe", "read", "write", "read"),
    (ConnectionPolicy.RECONNECT_PER_OPERATION, True):
        CYCLE + ("subscribe", "read", "write", "read"),
    (ConnectionPolicy.DISCONNECT_AFTER, True):
        CYCLE + ("subscribe", "read", "write", "read"),
}


@pytest.mark.parametrize("policy, pinned", list(POLICY_TRACES))
def test_each_policy_gives_its_connect_sequence(policy, pinned):
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, transport = beacon_reader(net, policy)
        if pinned:
            thing.subscribe_event("temperature", print)
        assert thing.read_property("temperature") == pytest.approx(25.0)
        thing.write_property("temperature", 3.0)
        assert thing.read_raw("temperature") == bytes([30])
        assert tuple(entry[0] for entry in transport.trace) == POLICY_TRACES[policy, pinned]
        thing.disconnect()


def test_concurrent_subscribers_leave_no_pin_behind():
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, _ = beacon_reader(net, ConnectionPolicy.RECONNECT_PER_OPERATION)
        errors = []

        def churn():
            try:
                for _ in range(50):
                    subscription = thing.subscribe_event("temperature", print)
                    thing.read_property("temperature")
                    if not subscription.handle.active:
                        errors.append("a read cancelled a live subscription")
                    thing.unsubscribe_event(subscription)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=churn) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == [] and thing._subscriptions == [] and net._subscriptions == {}
        thing.read_property("temperature")  # unpinned: the policy drops the link
        assert net.peripheral(BEACON_MAC).connected_by is None


# --- multi-property operations -----------------------------------------------------------

def test_read_all_properties_in_declaration_order():
    net = make_network(clock=VirtualClock())
    thing, _ = sensor_thing(net)
    values = thing.read_all_properties()
    assert list(values) == ["moisture", "temperature"]
    assert values["moisture"] == 42
    assert values["temperature"] == pytest.approx(25.0)
    net.close()


def test_read_multiple_properties_empty_is_empty():
    net = make_network(clock=VirtualClock())
    thing, transport = sensor_thing(net)
    assert thing.read_multiple_properties([]) == {}
    assert transport.trace == []
    net.close()


def test_read_multiple_wraps_failures_with_partial_results():
    net = make_network(clock=VirtualClock())
    thing, _ = sensor_thing(net)
    with pytest.raises(MultiPropertyError) as exc_info:
        thing.read_multiple_properties(["moisture", "altitude"])
    assert exc_info.value.name == "altitude"
    assert exc_info.value.partial == {"moisture": 42}
    assert isinstance(exc_info.value.cause, UnknownAffordance)
    net.close()


def test_write_multiple_bad_name_leaves_prior_writes_visible():
    net = make_network(clock=VirtualClock())
    transport = SimTransport(net, timeout_s=60.0)
    moisture_char = net.characteristic(SENSOR_MAC, "1204", "1a01")
    moisture_char.allowed = moisture_char.allowed | {GattMethod.WRITE}
    thing = consume(parse_td(json.dumps(writable_sensor_doc())), transport)
    with pytest.raises(MultiPropertyError) as exc_info:
        thing.write_multiple_properties({"moisture": 9, "altitude": 1})
    assert exc_info.value.name == "altitude"
    log = net.characteristic(SENSOR_MAC, "1204", "1a01").write_log
    assert [r.payload for r in log] == [b"\x09"]
    net.close()


def test_write_all_requires_values_for_every_property():
    net = make_network(clock=VirtualClock())
    thing, _ = sensor_thing(net)
    with pytest.raises(MultiPropertyError) as exc_info:
        thing.write_all_properties({"moisture": 1})
    assert exc_info.value.name in ("moisture", "temperature")
    net.close()


# --- raw escape hatch and no-leakage property ------------------------------------------------

def test_raw_escape_hatch_round_trip():
    net = make_network(clock=VirtualClock())
    transport = SimTransport(net, timeout_s=10.0)
    doc = json.loads(LAMP_TD.read_text())
    form = doc["properties"]["power"]["forms"][0]
    form["op"] = ["readproperty", "writeproperty"]
    del form["sbo:methodName"]
    thing = consume(parse_td(json.dumps(doc)), transport)
    payload = bytes.fromhex("7e00040100000000ef")
    thing.write_raw("power", payload)
    assert thing.read_raw("power") == payload
    net.close()


def test_every_logged_payload_is_reproducible_from_public_inputs():
    net = make_network(clock=VirtualClock())
    thing, _ = lamp_thing(net)
    inputs = [{"on": 1}, {"on": 0}, {"on": 1}]
    for value in inputs:
        thing.write_property("power", value)
    spec = thing.td.properties["power"].bdo
    log = net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR).write_log
    assert [r.payload for r in log] == [encode(v, spec) for v in inputs]
    net.close()


# --- low-level/high-level parity ----------------------------------------------------------

def test_listing_parity_raw_script_equals_consumed_thing():
    net = make_network(clock=VirtualClock())

    # Raw script: discovery, connect, explore, read, manual decode.
    raw = SimTransport(net, timeout_s=60.0)
    raw.start_discovery()
    raw.connect(SENSOR_MAC)
    raw.stop_discovery()
    tree = raw.discover_gatt(SENSOR_MAC)
    uri = parse_gatt_uri(
        f"gatt://{SENSOR_MAC.replace(':', '-')}/00001204-0000-1000-8000-00805f9b34fb/"
        "00001a01-0000-1000-8000-00805f9b34fb"
    )
    assert uri.service in tree.services
    buffer = raw.read(uri)
    raw_status = int.from_bytes(buffer[0:1], "little")
    raw.disconnect(SENSOR_MAC)

    # High-level path over the same peripheral.
    thing, _ = sensor_thing(net)
    thing.connect()
    status = thing.read_property("moisture")
    thing.disconnect()

    assert status == raw_status == 42
    net.close()
