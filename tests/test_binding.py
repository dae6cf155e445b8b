from dataclasses import replace

import pytest

from wotble import Form, GattMethod, WotOperation, map_operation, parse_td_file, resolve_form
from wotble.binding import parse_method, parse_operation
from wotble.errors import MethodOpConflict, NoMatchingForm
from conftest import LAMP_TD

# The full default mapping: operation -> method when no method name is given.
DEFAULT_MAPPING = {
    WotOperation.READPROPERTY: GattMethod.READ,
    WotOperation.WRITEPROPERTY: GattMethod.WRITE,
    WotOperation.INVOKEACTION: GattMethod.WRITE,
    WotOperation.READALLPROPERTIES: GattMethod.READ,
    WotOperation.WRITEALLPROPERTIES: GattMethod.WRITE,
    WotOperation.READMULTIPLEPROPERTIES: GattMethod.READ,
    WotOperation.WRITEMULTIPLEPROPERTIES: GattMethod.WRITE,
    WotOperation.SUBSCRIBEEVENT: GattMethod.NOTIFY,
    WotOperation.UNSUBSCRIBEEVENT: GattMethod.NOTIFY,
}


def test_default_mapping_is_total_over_all_nine_operations():
    assert set(DEFAULT_MAPPING) == set(WotOperation)
    assert {op: map_operation(op) for op in WotOperation} == DEFAULT_MAPPING


@pytest.mark.parametrize("op", [
    WotOperation.WRITEPROPERTY,
    WotOperation.INVOKEACTION,
    WotOperation.WRITEALLPROPERTIES,
    WotOperation.WRITEMULTIPLEPROPERTIES,
])
@pytest.mark.parametrize("method", [GattMethod.WRITE, GattMethod.WRITE_WITHOUT_RESPONSE])
def test_write_operations_accept_both_write_methods(op, method):
    assert map_operation(op, method) is method


def test_read_operation_with_explicit_read_method():
    assert map_operation(WotOperation.READPROPERTY, GattMethod.READ) is GattMethod.READ


def test_subscribe_operations_accept_notify():
    assert map_operation(WotOperation.SUBSCRIBEEVENT, GattMethod.NOTIFY) is GattMethod.NOTIFY
    assert map_operation(WotOperation.UNSUBSCRIBEEVENT) is GattMethod.NOTIFY


@pytest.mark.parametrize("op,method", [
    (WotOperation.READPROPERTY, GattMethod.WRITE),
    (WotOperation.READPROPERTY, GattMethod.NOTIFY),
    (WotOperation.WRITEPROPERTY, GattMethod.READ),
    (WotOperation.WRITEPROPERTY, GattMethod.NOTIFY),
    (WotOperation.SUBSCRIBEEVENT, GattMethod.READ),
    (WotOperation.SUBSCRIBEEVENT, GattMethod.WRITE_WITHOUT_RESPONSE),
    ("bogus", None),  # not an operation
    (None, None),
    (["x"], None),  # not even hashable
    (WotOperation.READPROPERTY, "write"),  # a method's text, of another category
    (WotOperation.READPROPERTY, "bogus"),  # not a method
    (WotOperation.READPROPERTY, ["x"]),  # not even hashable
])
def test_category_conflicts_are_rejected(op, method):
    with pytest.raises(MethodOpConflict):
        map_operation(op, method)


def test_a_method_given_as_its_text_is_accepted():
    assert map_operation(WotOperation.WRITEPROPERTY, "write-without-response") == \
        GattMethod.WRITE_WITHOUT_RESPONSE
    assert map_operation("readproperty", "read") == GattMethod.READ
    with pytest.raises(MethodOpConflict,
                       match="^method 'read' conflicts with operation 'writeproperty'$"):
        map_operation("writeproperty", "read")


@pytest.mark.parametrize("text", ["observeproperty", "unobserveproperty", "nonsense"])
def test_unsupported_operations_are_rejected(text):
    with pytest.raises(MethodOpConflict):
        parse_operation(text)


@pytest.mark.parametrize("text,expected", [
    ("write", GattMethod.WRITE),
    ("sbo:read", GattMethod.READ),  # prefix stripped upstream; bare accepted too
    ("write-without-response", GattMethod.WRITE_WITHOUT_RESPONSE),
    ("writeWithoutResponse", GattMethod.WRITE_WITHOUT_RESPONSE),
    ("notify", GattMethod.NOTIFY),
])
def test_method_name_spellings(text, expected):
    name = text.split(":")[-1]
    assert parse_method(name) is expected


@pytest.mark.parametrize("parse", [parse_operation, parse_method])
@pytest.mark.parametrize("text", [5, None, ["read"], b"read"])
def test_names_that_are_not_text_are_rejected(parse, text):
    with pytest.raises(MethodOpConflict):
        parse(text)


def test_resolve_form_on_lamp_power():
    td = parse_td_file(LAMP_TD)
    request = resolve_form(td.properties["power"], WotOperation.WRITEPROPERTY)
    assert request.uri.device_id == "BE:58:30:00:CC:11"
    assert str(request.uri.service) == "0000fff0-0000-1000-8000-00805f9b34fb"
    assert str(request.uri.characteristic) == "0000fff3-0000-1000-8000-00805f9b34fb"
    assert request.method is GattMethod.WRITE
    assert request.spec.pattern == "7e0004{on}00000000ef"
    assert request.operation is WotOperation.WRITEPROPERTY
    assert request.content_type == "application/x.binary-data-stream"


def test_resolve_form_without_matching_op():
    td = parse_td_file(LAMP_TD)
    with pytest.raises(NoMatchingForm):
        resolve_form(td.properties["power"], WotOperation.READPROPERTY)


def test_resolve_form_words_an_operation_given_as_its_text_that_no_form_lists():
    power = parse_td_file(LAMP_TD).properties["power"]
    with pytest.raises(NoMatchingForm, match="has no form for operation 'readproperty'$"):
        resolve_form(power, "readproperty")


@pytest.mark.parametrize("op", ["bogus", None, ["x"]], ids=["unknown", "none", "unhashable"])
def test_resolve_form_refuses_what_is_not_an_operation(op):
    with pytest.raises(MethodOpConflict, match="is not supported by the GATT binding$"):
        resolve_form(parse_td_file(LAMP_TD).properties["power"], op)


@pytest.mark.parametrize("method", [GattMethod.READ, "read", "bogus", ["x"]],
                         ids=["member", "text", "unknown", "unhashable"])
def test_resolve_form_refuses_a_named_method_of_another_category(method):
    with pytest.raises(MethodOpConflict):
        resolve_form(lamp_power_named(method), WotOperation.WRITEPROPERTY)


def test_resolve_form_takes_a_named_method_given_as_its_text():
    request = resolve_form(lamp_power_named("write-without-response"),
                           WotOperation.WRITEPROPERTY)
    assert request.method == GattMethod.WRITE_WITHOUT_RESPONSE


def lamp_power_named(method):
    """The lamp's power property with one hand-built form naming ``method``."""
    power = parse_td_file(LAMP_TD).properties["power"]
    form = power.forms[0]
    return replace(power, forms=(Form(form.href, form.op, method),))


def test_resolution_is_deterministic_first_match_wins():
    td = parse_td_file(LAMP_TD)
    first = resolve_form(td.properties["power"], WotOperation.WRITEPROPERTY)
    second = resolve_form(td.properties["power"], WotOperation.WRITEPROPERTY)
    assert first == second


def test_unsubscribe_resolution_maps_to_notify():
    from conftest import BEACON_TD
    td = parse_td_file(BEACON_TD)
    request = resolve_form(td.events["temperature"], WotOperation.UNSUBSCRIBEEVENT)
    assert request.method is GattMethod.NOTIFY
    assert request.operation is WotOperation.UNSUBSCRIBEEVENT
