import cProfile
import gc
import json
import pstats
import queue
import re
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace
from itertools import repeat
from types import SimpleNamespace

import pytest

from wotble import (
    ConsumedThing,
    ConnectionPolicy,
    Endianess,
    GattMethod,
    Severity,
    SimPeripheral,
    SimTransport,
    TransportContract,
    VirtualClock,
    consume,
    parse_td,
    parse_td_file,
    validate_td,
)
from wotble.codec import decode, encode
from wotble.errors import (
    AttLengthExceeded,
    BadArgument,
    BadScheme,
    BadValue,
    ConsumerError,
    InvalidPolicy,
    InvalidTd,
    MethodNotPermitted,
    MixedDevices,
    MultiPropertyError,
    NotConnected,
    OutOfRange,
    Timeout,
    UnknownAffordance,
    UnsupportedMediaType,
    WotBleError,
)
from test_mutation import mutants
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
    DropsTheLinkAfterItsCheck,
    RecordingTransport,
    UncalledTransport,
    calls_per,
    live_subscriptions,
    make_network,
    run_watched,
    writes,
)


def lamp_thing(net, **kw):
    transport = RecordingTransport(net, timeout_s=10.0)
    return consume(parse_td_file(LAMP_TD), transport, **kw), transport


def sensor_thing(net, **kw):
    transport = RecordingTransport(net, timeout_s=60.0)
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


def test_a_policy_is_a_member_or_the_value_of_one():
    td = parse_td_file(LAMP_TD)
    for policy in ConnectionPolicy:
        assert consume(td, UncalledTransport(), policy).policy is policy
        assert consume(td, UncalledTransport(), policy.value).policy is policy


@pytest.mark.parametrize("policy", ["nope", None, 3])
def test_an_unknown_policy_is_rejected(policy):
    # No transport at all: the policy is checked first.
    with pytest.raises(InvalidPolicy, match="unknown connection policy") as exc_info:
        consume(parse_td_file(LAMP_TD), None, policy)
    assert isinstance(exc_info.value, ValueError)


def test_consume_rejects_invalid_td():
    doc = json.loads(LAMP_TD.read_text())
    doc["sbo:isConnectable"] = False
    with pytest.raises(InvalidTd) as exc_info:
        consume(parse_td(json.dumps(doc)), UncalledTransport())
    assert exc_info.value.diagnostics


def test_a_href_with_a_trailing_newline_is_refused_at_consume():
    doc = json.loads(LAMP_TD.read_text())
    doc["properties"]["power"]["forms"][0]["href"] += "\n"
    td = parse_td(json.dumps(doc))
    assert td.properties["power"].forms[0].uri is None
    with pytest.raises(InvalidTd) as exc_info:
        consume(td, UncalledTransport())
    assert [d.code.value for d in exc_info.value.diagnostics] == ["bad-href"]


# --- consume's walk over the forms

def _parent_walk(td):
    """The device id a thing resolved by its own walk, or the error class."""
    macs = {form.uri.device_id
            for category in (td.properties, td.actions, td.events)
            for affordance in category.values()
            for form in affordance.forms
            if form.uri is not None}
    if len(macs) > 1:
        return MixedDevices
    return macs.pop() if macs else InvalidTd


def _consume_outcome(td):
    """The device id of the thing ``consume`` built, the error class when
    it found none, or "invalid" when ``validate_td``'s errors stopped it."""
    try:
        return consume(td, UncalledTransport()).device_id
    except MixedDevices:
        return MixedDevices
    except InvalidTd as exc:
        return "invalid" if exc.diagnostics else InvalidTd


@pytest.mark.parametrize("fixture", [LAMP_TD, SENSOR_TD, BEACON_TD],
                         ids=lambda path: path.name)
def test_consume_agrees_with_validate_td_on_every_parsed_mutant(fixture):
    outcomes = set()
    for label, doc in mutants(json.loads(fixture.read_text())):
        try:
            td = parse_td(json.dumps(doc))
        except WotBleError:
            continue
        invalid = any(d.severity is Severity.ERROR for d in validate_td(td))
        outcome = _consume_outcome(td)
        assert outcome == ("invalid" if invalid else _parent_walk(td)), label
        outcomes.add(outcome)
    assert {"invalid", InvalidTd} <= outcomes and len(outcomes) > 2, outcomes


def _sensor_with_hrefs(hrefs=(), **metadata):
    """The sensor TD with its first forms' hrefs replaced by ``hrefs``, in
    order, and fields of its metadata by ``metadata``."""
    td = parse_td_file(SENSOR_TD)
    hrefs = iter(hrefs)
    properties = {name: replace(affordance, forms=tuple(
                      replace(form, href=next(hrefs, form.href))
                      for form in affordance.forms))
                  for name, affordance in td.properties.items()}
    return replace(td, properties=properties,
                   metadata=replace(td.metadata, **metadata))


NOT_GATT = "http://example.com/x"
OTHER_DEVICE = "gatt://01-02-03-04-05-06/1204/1a02"

#: Hand-built TDs: (the builder, what consume raises or None).
HAND_BUILT = {
    "non-gatt-scheme": (lambda: _sensor_with_hrefs([NOT_GATT]), None),
    "bad-href": (lambda: _sensor_with_hrefs(["gatt://AA:BB:CC:DD:EE:FF/fff0"]), InvalidTd),
    "not-connectable": (lambda: _sensor_with_hrefs(is_connectable=False), InvalidTd),
    "mixed-devices": (lambda: _sensor_with_hrefs([OTHER_DEVICE]), MixedDevices),
    "no-gatt-forms": (lambda: _sensor_with_hrefs(repeat(NOT_GATT)), InvalidTd),
    "no-affordances": (lambda: replace(parse_td_file(SENSOR_TD), properties={}), InvalidTd),
}


@pytest.mark.parametrize("case", HAND_BUILT)
def test_a_hand_built_td_is_consumed_as_validate_td_reports_it(case):
    build, consume_error = HAND_BUILT[case]
    td = build()
    errors = [d for d in validate_td(td) if d.severity is Severity.ERROR]
    with make_network(clock=VirtualClock()) as net:
        transport = RecordingTransport(net, timeout_s=60.0)
        if consume_error is not None:
            with pytest.raises(consume_error) as exc_info:
                consume(td, transport)
            # Only validate_td's errors carry diagnostics; a TD that names
            # no single device has none.
            assert getattr(exc_info.value, "diagnostics", []) == errors
            assert transport.trace == []
            return
        assert not errors
        thing = consume(td, transport)
        assert thing.device_id == SENSOR_MAC
        thing.connect()
        assert thing.connected
        thing.disconnect()


#: Hand-built TDs whose fields are not of the kinds a parsed TD has.
def _wrong_kind_tds():
    td = parse_td_file(SENSOR_TD)
    moisture = td.properties["moisture"]
    return {
        "properties-a-list": replace(td, properties=[]),
        "properties-none": replace(td, properties=None),
        "affordance-a-str": replace(td, properties={"moisture": "moisture"}),
        "forms-none": replace(td, properties={"moisture": replace(moisture, forms=None)}),
        "form-a-str": replace(td, properties={"moisture": replace(
            moisture, forms=(moisture.forms[0].href,))}),
        "metadata-none": replace(td, metadata=None),
    }


@pytest.mark.parametrize("case", list(_wrong_kind_tds()))
def test_a_td_with_wrong_kind_fields_is_an_invalid_td(case):
    td = _wrong_kind_tds()[case]
    for call in (validate_td, lambda td: consume(td, UncalledTransport()),
                 lambda td: ConsumedThing(td, UncalledTransport())):
        with pytest.raises(InvalidTd, match="not a well-formed ThingDescription"):
            call(td)


@pytest.mark.parametrize("td", [{"title": "x"}, None], ids=repr)
def test_anything_but_a_td_is_an_invalid_td(td):
    with pytest.raises(InvalidTd, match="^validate_td takes a parsed ThingDescription"):
        validate_td(td)
    for build in (consume, ConsumedThing):  # one path, so one message
        with pytest.raises(InvalidTd, match="^consume takes a parsed ThingDescription"):
            build(td, UncalledTransport())


def test_lamp_write_property_golden_payload():
    net = make_network(clock=VirtualClock())
    thing, transport = lamp_thing(net)
    thing.write_property("power", {"on": 1})
    golden = bytes.fromhex("7e00040100000000ef")
    assert writes(transport) == [(golden, True)]
    assert net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR).value == golden
    net.close()


def test_write_out_of_range_variable():
    net = make_network(clock=VirtualClock())
    char = net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR)
    before = char.value
    thing, transport = lamp_thing(net)
    with pytest.raises(OutOfRange):
        thing.write_property("power", {"on": 2})
    assert writes(transport) == [] and char.value == before
    net.close()


# CPython refuses to turn an int of more than 4 300 digits into text, so the
# message names such a value by its size.
@pytest.mark.parametrize("value, match", [
    (-0.1, "-0.1 below minimum 0"), (10.1, "10.1 above maximum 10"),
    (10**5000, "an integer of 16610 bits above maximum 10"),
    (-10**5000, "an integer of 16610 bits below minimum 0")],
    ids=["-0.1", "10.1", "past-the-digit-limit", "past-the-digit-limit-negative"])
def test_write_outside_the_affordance_bounds_is_out_of_range(value, match):
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, transport = beacon_reader(net, ConnectionPolicy.KEEP_CONNECTED,
                                         minimum=0, maximum=10)
        with pytest.raises(OutOfRange, match=match):
            thing.write_property("temperature", value)
        thing.write_property("temperature", 10)
        writes = [entry[2] for entry in transport.trace if entry[0] == "write"]
        assert writes == ["64"]
        thing.disconnect()


@pytest.mark.parametrize("value", ["5", True, None], ids=repr)
def test_a_non_number_on_a_bounded_property_is_left_to_the_codec(value):
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, transport = beacon_reader(net, ConnectionPolicy.KEEP_CONNECTED,
                                         minimum=0, maximum=10)
        with pytest.raises(BadValue, match="expected a numeric value"):
            thing.write_property("temperature", value)
        assert [entry for entry in transport.trace if entry[0] == "write"] == []
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
    mixed_interactions(sensor, lamp, net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR))
    net.close()


def mixed_interactions(sensor, lamp, lamp_char) -> None:
    """100 sensor reads and lamp writes (1 in 5), checked against the fixture."""
    for i in range(100):
        if i % 5 == 4:
            on = i % 2
            lamp.write_property("power", {"on": on})
            assert lamp_char.value == bytes.fromhex(f"7e0004{on:02x}00000000ef")
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
        lamp_char = net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR)
        entries = len(sensor_link.trace), len(lamp_link.trace)

        def rederived(*_args, **_kwargs):
            raise AssertionError("re-derived on a kept link")

        monkeypatch.setattr(ConsumedThing, "connect", rederived)
        # A kept link's call goes from the public method straight to the
        # transport, and the transport finds the characteristic inline.
        monkeypatch.setattr(ConsumedThing, "_resolve", rederived)
        monkeypatch.setattr(ConsumedThing, "_run", rederived)
        monkeypatch.setattr(SimTransport, "_attribute", rederived)
        monkeypatch.setattr(SimTransport, "is_connected", rederived)
        monkeypatch.setattr(Endianess, "byteorder", property(rederived))
        monkeypatch.setattr(SimPeripheral, "characteristic", rederived)
        mixed_interactions(sensor, lamp, lamp_char)
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
    transport = RecordingTransport(net, timeout_s=60.0)
    doc = json.loads(SENSOR_TD.read_text())
    forms = doc["properties"]["moisture"]["forms"]
    forms.insert(0, dict(forms[0]))
    edit(forms[0])
    thing = consume(parse_td(json.dumps(doc)), transport)
    for _ in range(2):
        with pytest.raises(error):
            thing.read_property("moisture")
    assert transport.trace == []  # both fail before connecting
    net.close()


def text_plain_sensor_td():
    """The sensor with a writable, bounded moisture and an action, each on a
    ``text/plain`` form, which no codec handles."""
    doc = writable_sensor_doc()
    moisture = doc["properties"]["moisture"]
    moisture.update(minimum=0, maximum=100)
    moisture["forms"][0]["contentType"] = "text/plain"
    doc["actions"] = {"water": {
        key: value for key, value in moisture.items() if key != "forms"}}
    doc["actions"]["water"]["forms"] = [dict(moisture["forms"][0], op="invokeaction")]
    return parse_td(json.dumps(doc))


@pytest.mark.parametrize("value", [7, 1000], ids=["in-range", "out-of-range"])
@pytest.mark.parametrize("call", [
    lambda thing, value: thing.write_property("moisture", value),
    lambda thing, value: thing.invoke_action("water", value),
], ids=["write_property", "invoke_action"])
def test_a_form_no_codec_handles_refuses_every_write_first(call, value):
    # A transport call would fail the test.
    thing = consume(text_plain_sensor_td(), UncalledTransport())
    for _ in range(2):
        with pytest.raises(UnsupportedMediaType, match="text/plain"):
            call(thing, value)
    assert thing._writes == {} and thing._invokes == {}  # nothing kept


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
    transport = RecordingTransport(net, timeout_s=10.0)
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
    assert writes(transport)[-1][1] is False

    with pytest.raises(UnknownAffordance):
        thing.invoke_action("explode", 1)
    net.close()


@pytest.mark.parametrize("build", [consume, ConsumedThing], ids=["consume", "ConsumedThing"])
def test_mixed_device_tds_are_rejected_when_built(build):
    doc = json.loads(SENSOR_TD.read_text())
    doc["properties"]["temperature"]["forms"][0]["href"] = (
        "gatt://01-02-03-04-05-06/00001204-0000-1000-8000-00805f9b34fb/"
        "00001a02-0000-1000-8000-00805f9b34fb"
    )
    with make_network(clock=VirtualClock()) as net:
        transport = RecordingTransport(net, timeout_s=60.0)
        with pytest.raises(MixedDevices, match="01:02:03:04:05:06, " + SENSOR_MAC):
            build(parse_td(json.dumps(doc)), transport)
        assert transport.trace == []


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


def test_reconnect_per_operation_reuses_a_held_lease_then_drops_it():
    # A lease the thing holds, here from connect(), is not released and
    # taken again before the read; the read's teardown releases it.
    net = make_network(clock=VirtualClock())
    thing, transport = sensor_thing(net, policy=ConnectionPolicy.RECONNECT_PER_OPERATION)
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


@pytest.mark.parametrize("policy", list(ConnectionPolicy))
def test_failed_gatt_exploration_releases_the_link(policy):
    with make_network(clock=VirtualClock()) as net:
        transport = FirstExplorationTimesOut(net, timeout_s=60.0)
        thing = consume(parse_td_file(SENSOR_TD), transport, policy)
        with pytest.raises(Timeout):
            thing.read_property("moisture")
        assert not thing.connected and not transport.is_connected(SENSOR_MAC)
        assert thing.read_property("moisture") == 42  # no Busy on the retry
        thing.disconnect()
        assert net.peripheral(SENSOR_MAC).connected_by is None


@pytest.mark.parametrize("call, op", [
    (lambda thing: thing.read_property("temperature"), "read"),
    (lambda thing: thing.write_property("temperature", 3.0), "write"),
])
def test_a_fresh_lease_leaves_the_link_a_sibling_thing_holds(call, op):
    # The thing takes a lease of its own and releases it; the radio link is
    # cycled only when the thing held its only lease.
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, transport = beacon_reader(net, ConnectionPolicy.RECONNECT_PER_OPERATION)
        sibling = consume(thing.td, transport)
        sibling.connect()
        entries, now = len(transport.trace), net.clock.monotonic()
        call(thing)
        assert [entry[0] for entry in transport.trace[entries:]] == [*CYCLE, op, "disconnect"]
        assert net.clock.monotonic() == now  # no discovery wait: the link stayed up
        assert sibling.connected and not thing.connected
        sibling.disconnect()
        assert net.peripheral(BEACON_MAC).connected_by is None


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
        thing, transport = beacon_reader(net, ConnectionPolicy.RECONNECT_PER_OPERATION)
        subscription = thing.subscribe_event("temperature", print)
        transport.disconnect(BEACON_MAC)
        assert not subscription.active  # it ended with the link
        entries = len(transport.trace)
        assert thing.read_property("temperature") == pytest.approx(25.0)
        assert not subscription.active and thing._subscriptions == []
        # Unpinned again: the policy drops the link after the read.
        assert [entry[0] for entry in transport.trace[entries:]] == [
            "connect", "discover_gatt", "read", "disconnect"]
        assert not thing.connected and live_subscriptions(net) == 0
        thing.unsubscribe_event(subscription)  # a no-op
        assert transport.trace[-1][0] == "disconnect"


@pytest.mark.parametrize("end", ["unsubscribe", "link-drop"])
def test_an_ended_subscription_and_its_thing_are_freed_by_reference_counting(end):
    # The cyclic collector is paused: a reference cycle through the
    # subscription's sink would keep both alive.
    gc.collect()
    gc.disable()
    try:
        with make_network(clock=VirtualClock(), auto_notify=False) as net:
            transport = SimTransport(net, timeout_s=10.0)
            thing = consume(parse_td_file(BEACON_TD), transport,
                            ConnectionPolicy.RECONNECT_PER_OPERATION)
            subscription = thing.subscribe_event("temperature", print)
            if end == "unsubscribe":
                thing.unsubscribe_event(subscription)
            else:
                transport.disconnect(BEACON_MAC)
                net.close()  # returns once the end notice is delivered
            thing.disconnect()
            refs = [weakref.ref(thing), weakref.ref(subscription)]
            del thing, subscription
            assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_things_on_one_transport_share_their_device_link():
    with make_network(clock=VirtualClock()) as net:
        transport = RecordingTransport(net, timeout_s=60.0)
        first, second = (consume(parse_td_file(SENSOR_TD), transport) for _ in range(2))
        assert first.read_property("moisture") == 42
        linked_at = net.clock.monotonic()
        assert second.read_property("moisture") == 42  # no Busy
        assert net.clock.monotonic() == linked_at  # a lease on the link that is up
        assert first.connected and second.connected
        second.disconnect()  # releases its own lease only
        assert first.connected and not second.connected
        entries = len(transport.trace)
        assert first.read_property("moisture") == 42
        assert [entry[0] for entry in transport.trace[entries:]] == ["read"]
        first.disconnect()  # the last lease: the link ends
        assert net.peripheral(SENSOR_MAC).connected_by is None


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
        assert (subscription.decode_failures, subscription.listener_failures) == (1, 0)
        thing.unsubscribe_event(subscription)
        thing.disconnect()


def test_undecodable_notifications_are_counted():
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, _ = beacon_reader(net, ConnectionPolicy.KEEP_CONNECTED)
        received = []
        subscription = thing.subscribe_event("temperature", received.append)
        for payload in (b"", b"\x01", b""):
            net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, payload)
    # Closing delivered what was queued.
    assert received == [pytest.approx(0.1)]
    assert (subscription.decode_failures, subscription.listener_failures) == (2, 0)
    assert net.sink_failures == 0


def test_listener_failures_are_counted():
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, _ = beacon_reader(net, ConnectionPolicy.KEEP_CONNECTED)
        calls = []

        def listener(value):
            calls.append(value)
            raise RuntimeError("listener bug")

        subscription = thing.subscribe_event("temperature", listener)
        for octet in range(3):
            emit_beacon(net, octet)
    assert len(calls) == 3
    assert (subscription.decode_failures, subscription.listener_failures) == (0, 3)
    assert net.sink_failures == 0


def test_subscribe_to_unknown_event():
    net = make_network(clock=VirtualClock())
    transport = SimTransport(net, timeout_s=10.0)
    thing = consume(parse_td_file(BEACON_TD), transport)
    with pytest.raises(UnknownAffordance):
        thing.subscribe_event("humidity", lambda v: None)
    net.close()


@pytest.mark.parametrize("category, call", [
    ("property", lambda thing: thing.read_property("nope")),
    ("action", lambda thing: thing.invoke_action("nope", 1)),
    ("event", lambda thing: thing.subscribe_event("nope", print)),
])
def test_an_unknown_affordance_is_named_with_its_category(category, call):
    with make_network(clock=VirtualClock()) as net:
        thing, _ = sensor_thing(net)
        with pytest.raises(UnknownAffordance) as exc_info:
            call(thing)
    assert str(exc_info.value) == f"TD 'Flower Care Sensor' has no {category} named 'nope'"


#: Each single-affordance entry point, called with an affordance ``name``.
ENTRY_POINTS = {
    "read_property": lambda thing, name: thing.read_property(name),
    "write_property": lambda thing, name: thing.write_property(name, 1),
    "invoke_action": lambda thing, name: thing.invoke_action(name, 1),
    "subscribe_event": lambda thing, name: thing.subscribe_event(name, print),
}


@pytest.mark.parametrize("name", [["x"], {"x": 1}], ids=["list", "dict"])
@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_an_unhashable_name_is_an_unknown_affordance(entry_point, name):
    with make_network(clock=VirtualClock()) as net:
        thing, transport = lamp_thing(net)
        with pytest.raises(UnknownAffordance, match=re.escape(f"named {name!r}")):
            ENTRY_POINTS[entry_point](thing, name)
        assert transport.trace == []


#: Misuse of consume or a thing: (the error, the call).
MISUSE = {
    "consume-a-dict": (InvalidTd, lambda thing: consume({"title": "x"}, thing.transport)),
    "unsubscribe-an-object": (BadArgument, lambda thing: thing.unsubscribe_event(object())),
    "read-multiple-of-a-number": (BadArgument,
                                  lambda thing: thing.read_multiple_properties(5)),
    "read-multiple-of-a-name": (BadArgument,
                                lambda thing: thing.read_multiple_properties("power")),
    "subscribe-a-non-callable": (BadArgument, lambda thing: thing.subscribe_event("power", 5)),
    "write-all-of-a-number": (BadArgument, lambda thing: thing.write_all_properties(5)),
    "write-multiple-of-pairs": (BadArgument, lambda thing: thing.write_multiple_properties(
        [("power", {"on": 1})])),
}


@pytest.mark.parametrize("case", MISUSE)
def test_misuse_raises_a_consumer_error_before_any_transport_call(case):
    error, call = MISUSE[case]
    with make_network(clock=VirtualClock()) as net:
        thing, transport = lamp_thing(net)
        with pytest.raises(error) as exc_info:
            call(thing)
        assert transport.trace == []
    assert isinstance(exc_info.value, ConsumerError)


def test_a_listener_that_is_not_callable_is_refused_at_subscribe_time():
    with make_network(clock=VirtualClock()) as net:
        transport = RecordingTransport(net)
        beacon = consume(parse_td_file(BEACON_TD), transport)
        with pytest.raises(BadArgument, match="callable listener, got int"):
            beacon.subscribe_event("temperature", 5)
        assert transport.trace == [] and live_subscriptions(net) == 0


CONTRACT_METHODS = sorted(TransportContract.__abstractmethods__)


def faulty(method: str, fault: str) -> type:
    """An ``UncalledTransport`` whose ``method`` is missing or not callable."""
    methods = {name: getattr(UncalledTransport, name) for name in CONTRACT_METHODS}
    if fault == "missing":
        del methods[method]
    else:
        methods[method] = None
    return type(f"{fault.title().replace('-', '')}{method.title().replace('_', '')}",
                (), methods)


@pytest.mark.parametrize("build", [consume, ConsumedThing], ids=["consume", "ConsumedThing"])
@pytest.mark.parametrize("fault", ["missing", "not-callable"])
@pytest.mark.parametrize("method", CONTRACT_METHODS)
def test_a_transport_without_a_callable_contract_method_is_refused_when_built(
        method, fault, build):
    transport_class = faulty(method, fault)
    with pytest.raises(BadArgument) as exc_info:
        build(parse_td_file(SENSOR_TD), transport_class())  # any call fails the test
    assert str(exc_info.value) == (
        f"the transport, a {transport_class.__name__}, has no {method} method")


def shadowed() -> UncalledTransport:
    """An ``UncalledTransport`` whose own ``read`` attribute hides its class's method."""
    transport = UncalledTransport()
    transport.read = None
    return transport


@pytest.mark.parametrize("transport, named", [
    (None, CONTRACT_METHODS),
    (object(), CONTRACT_METHODS),
    (type("OnlyReads", (), {"read": UncalledTransport.read})(),
     [name for name in CONTRACT_METHODS if name != "read"]),
    (type("Lopsided", (UncalledTransport,), {"unsubscribe": None, "read": "read"})(),
     ["read", "unsubscribe"]),
    (shadowed(), ["read"]),
], ids=["none", "object", "only-reads", "lopsided", "shadowed"])
@pytest.mark.parametrize("build", [consume, ConsumedThing], ids=["consume", "ConsumedThing"])
def test_a_refused_transport_is_named_with_every_method_it_cannot_call(build, transport,
                                                                       named):
    with pytest.raises(BadArgument) as exc_info:
        build(parse_td_file(SENSOR_TD), transport)
    assert str(exc_info.value) == (f"the transport, a {type(transport).__name__}, "
                                   f"has no {' or '.join(named)} method")


@pytest.mark.parametrize("build", [consume, ConsumedThing], ids=["consume", "ConsumedThing"])
@pytest.mark.parametrize("policy", list(ConnectionPolicy))
def test_a_transport_is_refused_before_any_link_under_every_policy(policy, build):
    transport_class = type("UnsubscribeLess", (RecordingTransport,), {"unsubscribe": None})
    with make_network(clock=VirtualClock()) as net:
        transport = transport_class(net, timeout_s=60.0)
        with pytest.raises(BadArgument, match="a UnsubscribeLess, has no unsubscribe method$"
                           ) as exc_info:
            build(parse_td_file(BEACON_TD), transport, policy.value)
        assert exc_info.value.__context__ is None
        assert transport.trace == [] and live_subscriptions(net) == 0


@pytest.mark.parametrize("build", [consume, ConsumedThing], ids=["consume", "ConsumedThing"])
def test_a_duck_typed_transport_with_every_method_is_accepted(build):
    with make_network(clock=VirtualClock()) as net:
        recording = RecordingTransport(net, timeout_s=60.0)
        # Not a TransportContract: the contract's methods are instance attributes.
        transport = SimpleNamespace(**{name: getattr(recording, name)
                                       for name in CONTRACT_METHODS})
        sensor = build(parse_td_file(SENSOR_TD), transport)
        assert sensor.read_property("moisture") == 42
        sensor.disconnect()
    assert [entry[0] for entry in recording.trace] == [
        "connect", "discover_gatt", "read", "disconnect"]


def test_an_invalid_td_is_reported_before_a_refused_transport():
    doc = json.loads(LAMP_TD.read_text())
    doc["sbo:isConnectable"] = False
    with pytest.raises(InvalidTd) as exc_info:
        consume(parse_td(json.dumps(doc)), None)
    assert exc_info.value.diagnostics


#: Each ``TransportContract`` method and a call on a fresh thing that reaches it:
#: (the TD, the call).
CONTRACT_CALLS = {
    "read": (SENSOR_TD, lambda thing: thing.read_property("moisture")),
    "write": (LAMP_TD, lambda thing: thing.write_property("power", {"on": 1})),
    "is_connected": (SENSOR_TD, lambda thing: thing.connected),
    "connect": (SENSOR_TD, lambda thing: thing.connect()),
    "discover_gatt": (SENSOR_TD, lambda thing: thing.connect()),
    "disconnect": (SENSOR_TD, lambda thing: (thing.connect(), thing.disconnect())),
    "subscribe": (BEACON_TD, lambda thing: thing.subscribe_event("temperature", print)),
    "unsubscribe": (BEACON_TD, lambda thing: thing.unsubscribe_event(
        thing.subscribe_event("temperature", print))),
}


def test_the_contract_calls_cover_every_transport_method():
    assert set(CONTRACT_CALLS) == TransportContract.__abstractmethods__


def replaced(method: str, replacement):
    """A ``SimTransport`` subclass whose ``method`` is ``replacement``."""
    return type(f"{method.title().replace('_', '')}Replaced", (SimTransport,),
                {method: replacement})


@pytest.mark.parametrize("failing, error, message", [
    (lambda transport: transport.missing_attribute, AttributeError,
     "'{cls}' object has no attribute 'missing_attribute'"),
    (lambda transport: transport.network.read, AttributeError,
     "'SimNetwork' object has no attribute 'read'"),
    (lambda transport: transport.timeout_s(), TypeError, "'float' object is not callable"),
    (lambda transport: len(transport), TypeError, "object of type '{cls}' has no len()"),
], ids=["own-attribute", "contract-name-on-another-object", "not-callable-inside",
        "type-error-inside"])
@pytest.mark.parametrize("policy", list(ConnectionPolicy))
@pytest.mark.parametrize("method", CONTRACT_CALLS)
def test_an_error_inside_a_transport_method_passes_through(method, policy, failing, error,
                                                           message):
    td_path, call = CONTRACT_CALLS[method]
    transport_class = replaced(method, lambda self, *args: failing(self))
    with make_network(clock=VirtualClock()) as net:
        thing = consume(parse_td_file(td_path), transport_class(net, timeout_s=60.0), policy)
        with pytest.raises(error) as exc_info:
            call(thing)
    assert type(exc_info.value) is error
    assert str(exc_info.value) == message.format(cls=transport_class.__name__)


#: The contract methods a call reaches on a thing that already holds a lease.
HELD_LEASE_METHODS = [method for method in CONTRACT_CALLS
                      if method not in ("connect", "discover_gatt")]


@pytest.mark.parametrize("failing, error, message", [
    (lambda transport: transport.missing_attribute, AttributeError,
     "'{cls}' object has no attribute 'missing_attribute'"),
    (lambda transport: transport.network.read, AttributeError,
     "'SimNetwork' object has no attribute 'read'"),
    (lambda transport: transport.timeout_s(), TypeError, "'float' object is not callable"),
    (lambda transport: len(transport), TypeError, "object of type '{cls}' has no len()"),
], ids=["own-attribute", "contract-name-on-another-object", "not-callable-inside",
        "type-error-inside"])
@pytest.mark.parametrize("policy", list(ConnectionPolicy))
@pytest.mark.parametrize("method", HELD_LEASE_METHODS)
def test_an_error_inside_a_transport_method_passes_through_on_a_held_lease(
        method, policy, failing, error, message):
    # The thing takes its lease through connect() before the method fails, so
    # no operation opens the link first. The method fails only once armed.
    td_path, call = CONTRACT_CALLS[method]
    real = getattr(SimTransport, method)

    def armed(self, *args):
        return failing(self) if self.armed else real(self, *args)

    transport_class = type(f"{method.title().replace('_', '')}Armed", (SimTransport,),
                           {method: armed, "armed": False})
    with make_network(clock=VirtualClock()) as net:
        transport = transport_class(net, timeout_s=60.0)
        thing = consume(parse_td_file(td_path), transport, policy)
        thing.connect()
        transport.armed = True
        with pytest.raises(error) as exc_info:
            call(thing)
        transport.armed = False
        # An operation's teardown releases the lease also when its call raised.
        released = (policy is ConnectionPolicy.RECONNECT_PER_OPERATION
                    and method in ("read", "write", "subscribe"))
        assert thing.connected is not released
        thing.disconnect()
        assert net.peripheral(thing.device_id).connected_by is None
    assert type(exc_info.value) is error
    assert str(exc_info.value) == message.format(cls=transport_class.__name__)


def test_a_single_name_is_not_a_collection_of_names():
    with make_network(clock=VirtualClock()) as net:
        sensor, transport = sensor_thing(net)
        with pytest.raises(BadArgument, match="collection of names.*'moisture'"):
            sensor.read_multiple_properties("moisture")
        assert sensor.read_multiple_properties(("moisture",)) == {"moisture": 42}
        assert [entry[0] for entry in transport.trace] == ["connect", "discover_gatt", "read"]


@pytest.mark.parametrize("value,error", [
    (float("nan"), BadValue), (float("inf"), OutOfRange), (10**400, OutOfRange)],
    ids=["nan", "inf", "huge-int"])
def test_writing_a_value_no_integer_holds_is_a_codec_error(value, error):
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, transport = beacon_reader(net, ConnectionPolicy.KEEP_CONNECTED)
        with pytest.raises(error):
            thing.write_property("temperature", value)
        assert transport.trace == []


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
    transport = RecordingTransport(net, timeout_s=10.0)
    return consume(parse_td(json.dumps(doc)), transport, policy), transport


def emit_beacon(net, octet: int) -> None:
    net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, bytes([octet]))


def test_subscription_survives_reads_and_writes_under_reconnect_per_operation():
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, _ = beacon_reader(net, ConnectionPolicy.RECONNECT_PER_OPERATION)
        received: queue.Queue = queue.Queue()
        subscription = thing.subscribe_event("temperature", received.put)
        assert thing.read_property("temperature") == pytest.approx(25.0)
        thing.write_property("temperature", 3.0)
        assert thing.read_property("temperature") == pytest.approx(3.0)
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
        entries = len(transport.trace)
        thing.unsubscribe_event(subscriptions[0])  # a no-op
        assert len(transport.trace) == entries


def test_a_listener_may_unsubscribe_its_own_subscription():
    """On the delivery thread, unsubscribe must not wait for its own delivery.

    The scenario runs under a watchdog thread, so a deadlock fails the test
    instead of hanging the run.
    """
    net = make_network(clock=VirtualClock(), auto_notify=False)
    thing, _ = beacon_reader(net, ConnectionPolicy.KEEP_CONNECTED)
    received, subscriptions = [], []

    def listener(value):
        received.append(value)
        thing.unsubscribe_event(subscriptions[0])

    subscriptions.append(thing.subscribe_event("temperature", listener))

    def scenario():
        emit_beacon(net, 1)
        emit_beacon(net, 2)  # may be queued behind the delivery that unsubscribes
        net.close()  # delivers what was queued, then joins the delivery thread

    watchdog = threading.Thread(target=scenario, daemon=True)
    watchdog.start()
    watchdog.join(5.0)
    assert not watchdog.is_alive(), "a listener's unsubscribe waited for itself"
    assert received == [pytest.approx(0.1)] and not subscriptions[0].active


@pytest.mark.parametrize("listening", [False, True])
def test_a_pinned_disconnect_ends_each_subscription_then_the_link(monkeypatch, listening):
    net = make_network(clock=VirtualClock(), auto_notify=False)
    thing, transport = beacon_reader(net, ConnectionPolicy.KEEP_CONNECTED)
    in_listener, at_transport = threading.Event(), threading.Event()

    def listener(value):
        in_listener.set()
        at_transport.wait(5.0)  # still running when disconnect() unsubscribes

    unsubscribe = transport.unsubscribe

    def spy(handle):
        at_transport.set()
        unsubscribe(handle)

    monkeypatch.setattr(transport, "unsubscribe", spy)
    subscriptions = [thing.subscribe_event("temperature", listener) for _ in range(2)]
    if listening:
        emit_beacon(net, 1)
        assert in_listener.wait(5.0)
    entries = len(transport.trace)
    worker = threading.Thread(target=thing.disconnect, daemon=True)
    worker.start()
    worker.join(5.0)
    assert not worker.is_alive(), "disconnect() and the listener deadlocked"
    assert [entry[0] for entry in transport.trace[entries:]] == [
        "unsubscribe", "unsubscribe", "disconnect"]
    assert not any(s.active for s in subscriptions) and not thing.connected
    assert thing._subscriptions == [] and live_subscriptions(net) == 0
    # Not in a finally: close() would join a deadlocked delivery thread.
    net.close()


def test_another_things_disconnect_leaves_a_subscription_live():
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        transport = SimTransport(net, timeout_s=60.0)
        owner, other = (consume(parse_td_file(BEACON_TD), transport) for _ in range(2))
        received: queue.Queue = queue.Queue()
        subscription = owner.subscribe_event("temperature", received.put)
        other.connect()  # the link is up already: a second lease on it
        other.disconnect()  # releases that lease, and not the owner's
        assert subscription.active and owner.connected and not other.connected
        emit_beacon(net, 1)
        assert received.get(timeout=2.0) == pytest.approx(0.1)
        owner.disconnect()
        assert not subscription.active and net.peripheral(BEACON_MAC).connected_by is None
        emit_beacon(net, 2)
        net.close()  # hands out whatever was queued before it
        assert received.empty()


def test_a_kept_link_outlives_a_sibling_things_teardown(monkeypatch):
    # A RECONNECT_PER_OPERATION thing reads beside a KEEP_CONNECTED one on one
    # transport: its teardown releases its own lease and leaves the kept one.
    with make_network(clock=VirtualClock(), seed=1, connect_setup_ms=30.0) as net:
        draws, draw = [], net.discovery_delay_s

        def counted_draw(peripheral):
            draws.append(draw(peripheral))
            return draws[-1]

        monkeypatch.setattr(net, "discovery_delay_s", counted_draw)
        transport = SimTransport(net, timeout_s=60.0)
        td = parse_td_file(SENSOR_TD)
        sometimes = consume(td, transport, ConnectionPolicy.RECONNECT_PER_OPERATION)
        kept = consume(td, transport, ConnectionPolicy.KEEP_CONNECTED)
        for _ in range(10):
            assert sometimes.read_property("moisture") == 42
            assert kept.read_property("moisture") == 42
            assert kept.connected and not sometimes.connected
        # The link was set up twice: for the first read, which held its only
        # lease, and for the kept thing's; every later lease rode on that one.
        assert len(draws) == 2
        assert net.clock.monotonic() == pytest.approx(sum(draws) + 2 * 0.030)
        kept.disconnect()
        assert net.peripheral(SENSOR_MAC).leases == {}


def listener_reads_through_a_thing_in_its_teardown() -> None:
    """Print, as JSON, what a read of thing A and a listener of thing B got.

    A (``RECONNECT_PER_OPERATION``) and B (``KEEP_CONNECTED``) share the beacon's
    link on one transport. B's listener reads a property through A once A's
    policy teardown has reached the transport, so it waits for A's lock
    while A tears down. Run it through ``run_watched``: if A's teardown
    waited for B's delivery, both would wait for good.
    """
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        a, transport = beacon_reader(net, ConnectionPolicy.RECONNECT_PER_OPERATION)
        b = consume(a.td, transport)
        in_listener, in_teardown = threading.Event(), threading.Event()
        heard = []

        def listener(value):
            in_listener.set()
            in_teardown.wait(5.0)
            heard.append([value, a.read_property("temperature")])

        disconnect = transport.disconnect

        def teardown(*args):
            in_teardown.set()
            disconnect(*args)

        subscription = b.subscribe_event("temperature", listener)
        emit_beacon(net, 1)
        assert in_listener.wait(5.0)
        transport.disconnect = teardown
        read = a.read_property("temperature")
        state = {"read": read, "active": subscription.active, "b": b.connected}
    print(json.dumps({**state, "heard": heard}))  # the network's close delivered all


def test_a_listener_reads_through_a_thing_while_its_teardown_runs():
    out = run_watched("test_consumer", "listener_reads_through_a_thing_in_its_teardown")
    assert json.loads(out) == {"read": pytest.approx(25.0), "active": True, "b": True,
                               "heard": [[pytest.approx(0.1), pytest.approx(25.0)]]}


def test_a_subscribe_that_loses_its_link_subscribes_again():
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        transport = DropsTheLinkAfterItsCheck(net, timeout_s=60.0)
        thing = consume(parse_td_file(BEACON_TD), transport)
        thing.connect()
        received: queue.Queue = queue.Queue()
        subscription = thing.subscribe_event("temperature", received.put)
        assert [entry[0] for entry in transport.trace] == [
            *CYCLE, "disconnect", *CYCLE, "subscribe"]
        assert subscription.active and thing.connected and live_subscriptions(net) == 1
        emit_beacon(net, 100)
        assert received.get(timeout=2.0) == pytest.approx(10.0)
        thing.disconnect()
        assert not subscription.active and live_subscriptions(net) == 0


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
    assert not any(s.active for s in subscriptions)
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


def test_last_unsubscribe_restores_the_policy():
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, transport = beacon_reader(net, ConnectionPolicy.RECONNECT_PER_OPERATION)
        subscriptions = [thing.subscribe_event("temperature", print) for _ in range(2)]
        thing.read_property("temperature")
        thing.unsubscribe_event(subscriptions[0])
        thing.read_property("temperature")  # still pinned by the second
        assert (connect_count(transport), disconnect_count(transport)) == (1, 0)
        thing.unsubscribe_event(subscriptions[1])
        thing.read_property("temperature")
        assert (connect_count(transport), disconnect_count(transport)) == (2, 2)
        assert not thing.connected


CYCLE = ("connect", "discover_gatt")
#: Trace operations of a read, a write and a second read under each policy.
POLICY_TRACES = {
    (ConnectionPolicy.KEEP_CONNECTED, False):
        CYCLE + ("read", "write", "read"),
    (ConnectionPolicy.RECONNECT_PER_OPERATION, False):
        CYCLE + ("read", "disconnect") + CYCLE + ("write", "disconnect")
        + CYCLE + ("read", "disconnect"),
    (ConnectionPolicy.KEEP_CONNECTED, True):
        CYCLE + ("subscribe", "read", "write", "read"),
    (ConnectionPolicy.RECONNECT_PER_OPERATION, True):
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
        assert thing.read_property("temperature") == pytest.approx(3.0)
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


def test_unsubscribing_through_another_thing_ends_the_owners_pin():
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        owner, owner_link = beacon_reader(net, ConnectionPolicy.RECONNECT_PER_OPERATION)
        other, other_link = beacon_reader(net, ConnectionPolicy.KEEP_CONNECTED)
        subscription = owner.subscribe_event("temperature", print)
        other.unsubscribe_event(subscription)
        assert not subscription.active and owner._subscriptions == []
        assert net._subscriptions == {} and other_link.trace == []
        assert owner.read_property("temperature") == pytest.approx(25.0)
        assert not owner.connected  # unpinned: the policy dropped the link
        assert [entry[0] for entry in owner_link.trace] == [
            *CYCLE, "subscribe", "unsubscribe", "disconnect", *CYCLE, "read", "disconnect"]


def test_the_last_unsubscribe_frees_the_link_for_another_central():
    # Each thing is its own central: the second one's subscribe met Busy while
    # the first one's ended subscription left its link up.
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        td = parse_td_file(BEACON_TD)
        for _ in range(2):
            thing = consume(td, SimTransport(net, timeout_s=10.0),
                            ConnectionPolicy.RECONNECT_PER_OPERATION)
            thing.unsubscribe_event(thing.subscribe_event("temperature", print))
            assert not thing.connected
        assert net.peripheral(BEACON_MAC).connected_by is None


class LinkCallLog(SimTransport):
    """A transport that logs each link call a consumer makes of it."""

    def __init__(self, net):
        super().__init__(net, timeout_s=60.0)
        self.calls = []

    def connect(self, device_id, holder=None):
        self.calls.append("connect")
        super().connect(device_id, holder)

    def disconnect(self, device_id, holder=None):
        self.calls.append("disconnect")
        super().disconnect(device_id, holder)

    def is_connected(self, device_id, holder=None):
        self.calls.append("is_connected")
        return super().is_connected(device_id, holder)


#: Link calls of a read, then an explicit disconnect(), on a fresh thing.
#: Each teardown asks ``is_connected`` once and disconnects at most once.
TEARDOWN_CALLS = {
    ConnectionPolicy.KEEP_CONNECTED:
        ("is_connected", "connect", "is_connected", "disconnect"),
    ConnectionPolicy.RECONNECT_PER_OPERATION:
        ("is_connected", "connect", "is_connected", "disconnect", "is_connected"),
}


@pytest.mark.parametrize("policy", list(TEARDOWN_CALLS))
def test_an_unpinned_teardown_asks_the_transport_once(policy):
    with make_network(clock=VirtualClock()) as net:
        transport = LinkCallLog(net)
        thing = consume(parse_td_file(SENSOR_TD), transport, policy)
        assert thing.read_property("moisture") == 42
        thing.disconnect()
        assert tuple(transport.calls) == TEARDOWN_CALLS[policy]


#: Calls of a fresh thing's first read under ``RECONNECT_PER_OPERATION``: a
#: connect, a GATT exploration, a read and a disconnect, through the binding.
#: A canonical MAC reaches the network as is, so a normalization put back fails.
#: Measured 41.0: one frame drops and reopens the link, and one draws the
#: discovery delay, with no lock; the transport's connect, disconnect and
#: GATT exploration check the link themselves.
SESSION_READ_CALL_BUDGET = 41


def test_a_session_read_stays_within_its_call_budget():
    td = parse_td_file(SENSOR_TD)
    policy = ConnectionPolicy.RECONNECT_PER_OPERATION
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        consume(td, SimTransport(net), policy).read_property("moisture")  # warm caches
        things = [consume(td, SimTransport(net), policy) for _ in range(100)]
        calls = calls_per(lambda i: things[i].read_property("moisture"), len(things))
    assert calls <= SESSION_READ_CALL_BUDGET, f"{calls} calls per session read"


#: One interaction per fixture kind, as a whole session runs it.
SESSION_INTERACTIONS = {
    "sensor-read": (SENSOR_TD, lambda thing: thing.read_property("moisture")),
    "lamp-write": (LAMP_TD, lambda thing: thing.write_property("power", {"on": 1})),
    "beacon-subscribe": (BEACON_TD, lambda thing: thing.unsubscribe_event(
        thing.subscribe_event("temperature", lambda value: None))),
}

#: Calls of a whole session per fixture kind, on the radio latencies of the
#: benchmark: parse the TD, consume it, one interaction, then disconnect.
#: Measured 130.0, 121.0 and 140.0: one of them is the ``all`` of the
#: transport check at construction. The beacon's unsubscribe ends the
#: subscription's pin, so its policy teardown drops the link there.
SESSION_CALL_BUDGETS = {"sensor-read": 130, "lamp-write": 121, "beacon-subscribe": 140}


@pytest.mark.parametrize("kind", SESSION_CALL_BUDGETS)
def test_a_whole_session_stays_within_its_call_budget(kind):
    td_path, interact = SESSION_INTERACTIONS[kind]
    text = td_path.read_text()
    policy = ConnectionPolicy.RECONNECT_PER_OPERATION
    with make_network(clock=VirtualClock(), auto_notify=False, processing_delay_ms=5.0,
                      connect_setup_ms=30.0, read_latency_ms=8.0, write_latency_ms=12.0,
                      disconnect_latency_ms=4.0) as net:
        transport = SimTransport(net)

        def session(i):
            thing = consume(parse_td(text), transport, policy)
            interact(thing)
            thing.disconnect()

        session(0)  # warm caches
        calls = calls_per(session, 50)
        assert live_subscriptions(net) == 0
    assert calls <= SESSION_CALL_BUDGETS[kind], f"{calls} calls per {kind} session"


KEPT_LINK_INTERACTIONS = {
    "sensor-read": (SENSOR_TD, lambda thing, i: thing.read_property("moisture")),
    "lamp-write": (LAMP_TD, lambda thing, i: thing.write_property("power", {"on": i % 2})),
}


@pytest.mark.parametrize("interaction", KEPT_LINK_INTERACTIONS)
def test_kept_link_interactions_leave_memory_flat(interaction):
    """Neither the transport nor the simulated device keeps a record of calls."""
    td_path, interact = KEPT_LINK_INTERACTIONS[interaction]
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing = consume(parse_td_file(td_path), SimTransport(net, timeout_s=60.0))
        tracemalloc.start()
        try:
            for i in range(100):  # warm caches
                interact(thing, i)
            before = tracemalloc.get_traced_memory()[0]
            for i in range(20_000):
                interact(thing, i)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        thing.disconnect()
    assert grown < 64 * 1024


#: Calls per kept-link interaction, on the ATT latencies of the benchmark, so
#: that the virtual clock's sleep is profiled too. Measured 12.0 and 12.0:
#: a write stores its value itself.
KEPT_LINK_CALL_BUDGETS = {"sensor-read": 12, "lamp-write": 12}


@pytest.mark.parametrize("interaction", KEPT_LINK_CALL_BUDGETS)
def test_a_kept_link_interaction_stays_within_its_call_budget(interaction):
    td_path, interact = KEPT_LINK_INTERACTIONS[interaction]
    n = 100
    with make_network(clock=VirtualClock(), auto_notify=False,
                      read_latency_ms=8.0, write_latency_ms=12.0) as net:
        thing = consume(parse_td_file(td_path), SimTransport(net, timeout_s=60.0))
        for i in range(10):  # connect and warm caches
            interact(thing, i)
        calls = calls_per(lambda i: interact(thing, i), n)
        thing.disconnect()
    # The binding, the codec, the transport and the clock's sleep, and no lock
    # of the thing's; the interaction's own lambda counts as one.
    assert calls <= KEPT_LINK_CALL_BUDGETS[interaction], f"{calls} calls per {interaction}"


def test_a_notification_stays_within_its_call_budget():
    n = 100
    caller, worker = cProfile.Profile(), cProfile.Profile()
    delivered = threading.Event()
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing = consume(parse_td_file(BEACON_TD), SimTransport(net))
        count = iter(range(n + 2))

        def listener(value):
            # Profiles the delivery thread from the first value's listener to
            # the last one's: n deliveries.
            k = next(count)
            if k == 1:
                worker.enable()
            elif k == n + 1:
                worker.disable()
                delivered.set()

        thing.subscribe_event("temperature", listener)
        emit_beacon(net, 0)  # warm the route
        caller.enable()
        for octet in range(n + 1):
            emit_beacon(net, octet)
        caller.disable()
        assert delivered.wait(5.0)
    # emit_beacon, emit and its queue hand-off; on the delivery thread the
    # sink, the decode and the listener.
    calls = (pstats.Stats(caller).total_calls / (n + 1)
             + pstats.Stats(worker).total_calls / n)
    assert calls <= 22, f"{calls} calls per notification"


# --- a kept link takes no lock of the thing's --------------------------------------------

def test_kept_link_reads_and_writes_run_while_another_thread_holds_the_lock():
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        sensor, _ = sensor_thing(net)
        lamp, lamp_link = lamp_thing(net)
        assert sensor.read_property("moisture") == 42
        lamp.write_property("power", {"on": 0})  # both links are up
        done = []

        def interact():
            done.append(sensor.read_property("moisture"))
            lamp.write_property("power", {"on": 1})
            done.append(writes(lamp_link)[-1][0])

        worker = threading.Thread(target=interact, daemon=True)
        with sensor._lock, lamp._lock:
            worker.start()
            worker.join(5.0)
            finished = not worker.is_alive()
        worker.join(5.0)  # released: a waiting worker ends now
        assert finished, "a kept-link operation waited for the thing's lock"
        assert done == [42, bytes.fromhex("7e00040100000000ef")]
        sensor.disconnect()
        lamp.disconnect()


class LockWitness(RecordingTransport):
    """Records, per call after a ``NotConnected`` on the same thread, and per
    connect, whether the calling thread held ``thing``'s lock."""

    def __init__(self, net):
        super().__init__(net, timeout_s=60.0)
        self.thing = None
        self.retries: list[bool] = []
        self.connects: list[bool] = []
        self._failed = threading.local()

    def connect(self, device_id, holder=None):
        self.connects.append(self.thing._lock._is_owned())
        super().connect(device_id, holder)

    def read(self, uri, holder=None):
        return self._witness(super().read, uri, holder)

    def write(self, uri, payload, with_response, holder=None):
        return self._witness(super().write, uri, payload, with_response, holder)

    def _witness(self, call, *args):
        if getattr(self._failed, "value", False):
            self.retries.append(self.thing._lock._is_owned())
        try:
            result = call(*args)
        except NotConnected:
            self._failed.value = True
            raise
        self._failed.value = False
        return result


def test_kept_link_reads_recover_under_the_lock_from_a_disconnect_loop():
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        transport = LockWitness(net)
        thing = transport.thing = consume(parse_td_file(SENSOR_TD), transport)
        values, errors = [], []
        stop = threading.Event()

        def read():
            try:
                for _ in range(200):
                    values.append(thing.read_property("moisture"))
            except Exception as exc:
                errors.append(exc)

        def disconnect_loop():
            try:
                while not stop.is_set():
                    thing.disconnect()
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read, daemon=True) for _ in range(4)]
            churn = threading.Thread(target=disconnect_loop, daemon=True)
            for worker in (*readers, churn):
                worker.start()
            for worker in readers:
                worker.join(30.0)
            stop.set()
            churn.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in (*readers, churn)), "deadlocked"
        assert errors == [] and values == [42] * 800
        # The fresh thing's first read raises NotConnected, so there is a retry.
        assert transport.retries and all(transport.retries)
        assert transport.connects and all(transport.connects)
        thing.disconnect()


def test_kept_link_writes_recover_under_the_lock_from_a_disconnect_loop():
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        transport = LockWitness(net)
        thing = transport.thing = consume(parse_td_file(LAMP_TD), transport)
        lamp_char = net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR)
        done, errors = [], []
        stop = threading.Event()

        def write():
            try:
                for i in range(200):  # each writer's last write turns the lamp on
                    thing.write_property("power", {"on": i % 2})
                    done.append(i)
            except Exception as exc:
                errors.append(exc)

        def disconnect_loop():
            try:
                while not stop.is_set():
                    thing.disconnect()
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [threading.Thread(target=write, daemon=True) for _ in range(4)]
            churn = threading.Thread(target=disconnect_loop, daemon=True)
            for worker in (*writers, churn):
                worker.start()
            for worker in writers:
                worker.join(30.0)
            stop.set()
            churn.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in (*writers, churn)), "deadlocked"
        assert errors == [] and len(done) == 800
        # Each write reached the lamp once: a retry follows only a failed call.
        assert len(writes(transport)) == 800
        assert lamp_char.value == bytes.fromhex("7e00040100000000ef")
        # The fresh thing's first write raises NotConnected, so there is a retry.
        assert transport.retries and all(transport.retries)
        assert transport.connects and all(transport.connects)
        thing.disconnect()


def test_racing_first_reads_of_a_fresh_thing_connect_once():
    meet = threading.Barrier(4, timeout=5.0)
    met = threading.local()

    class FirstReadsMeet(RecordingTransport):
        def read(self, uri, holder=None):
            if not getattr(met, "value", False):  # all four reach the transport
                met.value = True
                meet.wait()
            return super().read(uri, holder)

    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        transport = FirstReadsMeet(net, timeout_s=60.0)
        thing = consume(parse_td_file(SENSOR_TD), transport)
        values, errors = [], []

        def read():
            try:
                values.append(thing.read_property("moisture"))
            except Exception as exc:
                errors.append(exc)

        readers = [threading.Thread(target=read, daemon=True) for _ in range(4)]
        for worker in readers:
            worker.start()
        for worker in readers:
            worker.join(30.0)
        assert not any(worker.is_alive() for worker in readers), "deadlocked"
        assert errors == [] and values == [42] * 4
        assert [entry[0] for entry in transport.trace].count("connect") == 1
        thing.disconnect()


def test_a_kept_link_subscribe_waits_for_the_things_lock():
    with make_network(clock=VirtualClock(), auto_notify=False) as net:
        thing, transport = beacon_reader(net, ConnectionPolicy.KEEP_CONNECTED)
        thing.connect()
        subscribed = []
        worker = threading.Thread(
            target=lambda: subscribed.append(thing.subscribe_event("temperature", print)),
            daemon=True)
        with thing._lock:
            worker.start()
            worker.join(0.2)
            waited = worker.is_alive() and not subscribed
        worker.join(5.0)
        assert waited, "subscribe_event did not wait for the thing's lock"
        assert not worker.is_alive() and subscribed[0].active
        assert [entry[0] for entry in transport.trace] == [*CYCLE, "subscribe"]
        thing.disconnect()


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
    transport = RecordingTransport(net, timeout_s=60.0)
    moisture_char = net.characteristic(SENSOR_MAC, "1204", "1a01")
    moisture_char.allowed = moisture_char.allowed | {GattMethod.WRITE}
    thing = consume(parse_td(json.dumps(writable_sensor_doc())), transport)
    with pytest.raises(MultiPropertyError) as exc_info:
        thing.write_multiple_properties({"moisture": 9, "altitude": 1})
    assert exc_info.value.name == "altitude"
    assert [payload for payload, _ in writes(transport)] == [b"\x09"]
    assert moisture_char.value == b"\x09"
    net.close()


@pytest.mark.parametrize("values, name, cause", [
    ({"bogus": 1}, "power", "no value supplied for property 'power'"),
    ({"power": {"on": 1}, "bogus": 1}, "bogus",
     "TD 'BLE RGB Controller' has no property named 'bogus'"),
], ids=["missing-name", "extra-name"])
def test_write_all_checks_every_name_before_its_first_write(values, name, cause):
    with make_network(clock=VirtualClock()) as net:
        thing, transport = lamp_thing(net)
        char = net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR)
        before = char.value
        with pytest.raises(MultiPropertyError) as exc_info:
            thing.write_all_properties(values)
        assert (exc_info.value.name, str(exc_info.value.cause)) == (name, cause)
        assert exc_info.value.partial == {}
        assert writes(transport) == [] and char.value == before
        thing.write_all_properties({"power": {"on": 1}})
        assert writes(transport) == [(bytes.fromhex("7e00040100000000ef"), True)]


def test_write_all_requires_values_for_every_property():
    net = make_network(clock=VirtualClock())
    thing, _ = sensor_thing(net)
    with pytest.raises(MultiPropertyError) as exc_info:
        thing.write_all_properties({"moisture": 1})
    assert exc_info.value.name in ("moisture", "temperature")
    net.close()


# --- raw octets and no-leakage property ------------------------------------------------

@pytest.mark.parametrize("octets", [bytes, bytearray, memoryview])
def test_an_octet_stream_form_carries_raw_octets_both_ways(octets):
    doc = json.loads(LAMP_TD.read_text())
    form = doc["properties"]["power"]["forms"][0]
    form["op"] = ["readproperty", "writeproperty"]
    form["contentType"] = "application/octet-stream"
    del form["sbo:methodName"]
    sensor_doc = json.loads(SENSOR_TD.read_text())
    sensor_doc["properties"]["moisture"]["forms"][0]["contentType"] = "application/octet-stream"
    with make_network(clock=VirtualClock()) as net:
        transport = RecordingTransport(net, timeout_s=10.0)
        lamp = consume(parse_td(json.dumps(doc)), transport)
        payload = bytes.fromhex("7e00040100000000ef")
        lamp.write_property("power", octets(payload))
        assert writes(transport) == [(payload, True)]
        value = lamp.read_property("power")
        assert type(value) is bytes and value == payload
        with pytest.raises(AttLengthExceeded):  # the codec's cap, before the transport's
            lamp.write_property("power", octets(bytes(513)))
        assert len(writes(transport)) == 1
        sensor = consume(parse_td(json.dumps(sensor_doc)), transport)
        assert sensor.read_property("moisture") == bytes([42])


def test_every_logged_payload_is_reproducible_from_public_inputs():
    net = make_network(clock=VirtualClock())
    thing, transport = lamp_thing(net)
    inputs = [{"on": 1}, {"on": 0}, {"on": 1}]
    for value in inputs:
        thing.write_property("power", value)
    spec = thing.td.properties["power"].bdo
    assert [payload for payload, _ in writes(transport)] == [encode(v, spec) for v in inputs]
    net.close()


# --- low-level/high-level parity ----------------------------------------------------------

def test_a_session_read_spends_the_radio_time_of_the_raw_calls():
    """The binding adds library time only: radio time equals the raw sequence's."""
    knobs = dict(processing_delay_ms=5.0, connect_setup_ms=30.0,
                 read_latency_ms=7.5, disconnect_latency_ms=12.0)
    moisture = parse_td_file(SENSOR_TD).properties["moisture"]
    with make_network(clock=VirtualClock(), seed=11, **knobs) as bound_net, \
            make_network(clock=VirtualClock(), seed=11, **knobs) as raw_net:
        thing = consume(parse_td_file(SENSOR_TD), SimTransport(bound_net, timeout_s=60.0),
                        ConnectionPolicy.RECONNECT_PER_OPERATION)
        raw = SimTransport(raw_net, timeout_s=60.0)
        for _ in range(5):
            start = bound_net.clock.monotonic()
            value = thing.read_property("moisture")
            bound_s = bound_net.clock.monotonic() - start

            start = raw_net.clock.monotonic()
            raw.connect(SENSOR_MAC)
            raw.discover_gatt(SENSOR_MAC)
            buffer = raw.read(moisture.forms[0].uri)
            raw.disconnect(SENSOR_MAC)
            raw_s = raw_net.clock.monotonic() - start

            assert bound_s == raw_s > sum(knobs.values()) / 1000.0
            assert decode(buffer, moisture.bdo) == value == 42
