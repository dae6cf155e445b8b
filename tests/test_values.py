"""The contract of the immutable value types a session builds.

Each type is a frozen dataclass with a hand-written ``__init__``. These
tests pin what the generated one gave: the parameters, immutability,
equality and hashing, ``dataclasses.replace`` recomputing each derived
field, and the repr.
"""

import dataclasses
import inspect
from dataclasses import FrozenInstanceError, replace

import pytest

from wotble import (
    Affordance,
    BdoSpec,
    BleMetadata,
    Endianess,
    Form,
    ResolvedRequest,
    ThingDescription,
    VariableSpec,
    WotOperation,
    compile_pattern,
    parse_gatt_uri,
    parse_td_file,
    resolve_form,
)
from conftest import BEACON_TD, LAMP_TD, SENSOR_TD

LAMP = parse_td_file(LAMP_TD)
SENSOR = parse_td_file(SENSOR_TD)
POWER = LAMP.properties["power"]
TEMPERATURE = SENSOR.properties["temperature"]
READ_TEMPERATURE = resolve_form(TEMPERATURE, WotOperation.READPROPERTY)

#: One example of each type, as a parse or a first resolve builds it.
EXAMPLES = {
    ThingDescription: LAMP,
    BleMetadata: LAMP.metadata,
    Affordance: POWER,
    Form: POWER.forms[0],
    BdoSpec: TEMPERATURE.bdo,
    VariableSpec: POWER.bdo.variables["on"],
    ResolvedRequest: READ_TEMPERATURE,
}

#: Values with no mutable field hash; a dict field makes the others unhashable.
HASHABLE = [LAMP.metadata, POWER.forms[0], POWER.bdo.variables["on"],
            replace(READ_TEMPERATURE, spec=None)]
UNHASHABLE = [LAMP, POWER, TEMPERATURE.bdo, POWER.bdo, READ_TEMPERATURE]

#: ``repr`` of each fixture TD as the generated ``__init__`` left it.
FIXTURE_REPRS = {
    "lamp": (
        "ThingDescription(title='BLE RGB Controller', "
        "context_prefixes={'sbo': 'https://freumi.inrupt.net/SimpleBluetoothOntology.ttl#"
        "', 'bdo': 'https://freumi.inrupt.net/BinaryDataOntology.ttl#', "
        "'rdf': 'http://www.w3.org/1999/02/22-rdf-syntax-ns#', "
        "'qudt': 'http://qudt.org/schema/qudt/'}, "
        "metadata=BleMetadata(gap_role=<GapRole.PERIPHERAL: 'peripheral'>, "
        "is_connectable=True, has_gatt_layer=True, advertising_interval_ms=50.0, "
        "scan_window_ms=None, scan_interval_ms=None), "
        "properties={'power': Affordance(name='power', "
        "forms=(Form(href='gatt://BE-58-30-00-CC-11/0000fff0-0000-1000-8000-00805f9b34fb/"
        "0000fff3-0000-1000-8000-00805f9b34fb', "
        "op=(<WotOperation.WRITEPROPERTY: 'writeproperty'>,), "
        "method_name=<GattMethod.WRITE: 'write'>, "
        "content_type='application/x.binary-data-stream'),), data_type='string', "
        "format='hex', bdo=BdoSpec(bytelength=None, signed=False, "
        "endianess=<Endianess.LITTLE: 'littleEndian'>, offset=0, scale=1.0, "
        "pattern='7e0004{on}00000000ef', variables={'on': VariableSpec(name='on', "
        "data_type=<VariableType.INTEGER: 'integer'>, bytelength=1, signed=False, "
        "endianess=<Endianess.LITTLE: 'littleEndian'>, minimum=0, maximum=1)}), "
        "minimum=None, maximum=None, extensions={})}, actions={}, events={}, extensions={})"),
    "sensor": (
        "ThingDescription(title='Flower Care Sensor', "
        "context_prefixes={'sbo': 'https://freumi.inrupt.net/SimpleBluetoothOntology.ttl#"
        "', 'bdo': 'https://freumi.inrupt.net/BinaryDataOntology.ttl#'}, "
        "metadata=BleMetadata(gap_role=<GapRole.PERIPHERAL: 'peripheral'>, "
        "is_connectable=True, has_gatt_layer=True, advertising_interval_ms=2000.0, "
        "scan_window_ms=None, scan_interval_ms=None), "
        "properties={'moisture': Affordance(name='moisture', "
        "forms=(Form(href='gatt://C4-7C-8D-6A-10-2E/00001204-0000-1000-8000-00805f9b34fb/"
        "00001a01-0000-1000-8000-00805f9b34fb', "
        "op=(<WotOperation.READPROPERTY: 'readproperty'>,), "
        "method_name=<GattMethod.READ: 'read'>, "
        "content_type='application/x.binary-data-stream'),), data_type='integer', "
        "format=None, bdo=BdoSpec(bytelength=1, signed=False, "
        "endianess=<Endianess.LITTLE: 'littleEndian'>, offset=0, scale=1.0, pattern=None, "
        "variables={}), minimum=None, maximum=None, extensions={}), "
        "'temperature': Affordance(name='temperature', "
        "forms=(Form(href='gatt://C4-7C-8D-6A-10-2E/00001204-0000-1000-8000-00805f9b34fb/"
        "00001a02-0000-1000-8000-00805f9b34fb', "
        "op=(<WotOperation.READPROPERTY: 'readproperty'>,), method_name=None, "
        "content_type='application/x.binary-data-stream'),), data_type='number', "
        "format=None, bdo=BdoSpec(bytelength=2, signed=True, "
        "endianess=<Endianess.LITTLE: 'littleEndian'>, offset=0, scale=0.1, pattern=None, "
        "variables={}), minimum=None, maximum=None, extensions={})}, actions={}, "
        "events={}, extensions={})"),
    "beacon": (
        "ThingDescription(title='Thermo Beacon', "
        "context_prefixes={'sbo': 'https://freumi.inrupt.net/SimpleBluetoothOntology.ttl#"
        "', 'bdo': 'https://freumi.inrupt.net/BinaryDataOntology.ttl#', "
        "'rdf': 'http://www.w3.org/1999/02/22-rdf-syntax-ns#', "
        "'qudt': 'http://qudt.org/schema/qudt/'}, "
        "metadata=BleMetadata(gap_role=<GapRole.PERIPHERAL: 'peripheral'>, "
        "is_connectable=True, has_gatt_layer=True, advertising_interval_ms=200.0, "
        "scan_window_ms=None, scan_interval_ms=None), properties={}, actions={}, "
        "events={'temperature': Affordance(name='temperature', "
        "forms=(Form(href='gatt://D0-F0-18-44-23-02/0000ffe0-0000-1000-8000-00805f9b34fb/"
        "0000ffe1-0000-1000-8000-00805f9b34fb', "
        "op=(<WotOperation.SUBSCRIBEEVENT: 'subscribeevent'>, "
        "<WotOperation.UNSUBSCRIBEEVENT: 'unsubscribeevent'>), "
        "method_name=<GattMethod.NOTIFY: 'notify'>, "
        "content_type='application/x.binary-data-stream'),), data_type='number', "
        "format=None, bdo=BdoSpec(bytelength=1, signed=False, "
        "endianess=<Endianess.LITTLE: 'littleEndian'>, offset=0, scale=0.1, pattern=None, "
        "variables={}), minimum=None, maximum=None, extensions={})}, extensions={})"),
}

ids = [cls.__name__ for cls in EXAMPLES]


@pytest.mark.parametrize("cls", EXAMPLES, ids=ids)
def test_init_takes_the_init_fields_in_order_with_their_defaults(cls):
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    expected = []
    for f in dataclasses.fields(cls):
        if f.init:
            default = f.default
            if f.default_factory is not dataclasses.MISSING:
                default = None  # stands for a fresh value of the factory
            elif default is dataclasses.MISSING:
                default = inspect.Parameter.empty
            expected.append((f.name, default))
    assert [(p.name, p.default) for p in params] == expected
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


@pytest.mark.parametrize("cls", EXAMPLES, ids=ids)
def test_init_fills_every_field(cls):
    value = EXAMPLES[cls]
    assert set(vars(value)) == {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("cls", EXAMPLES, ids=ids)
def test_fields_can_be_neither_set_nor_deleted(cls):
    value = EXAMPLES[cls]
    for f in dataclasses.fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(value, f.name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, f.name)
    with pytest.raises(FrozenInstanceError):
        value.undeclared = 1


@pytest.mark.parametrize("cls", EXAMPLES, ids=ids)
def test_a_replaced_copy_is_equal(cls):
    value = EXAMPLES[cls]
    copy = replace(value)
    assert copy == value and copy is not value
    assert vars(copy) == vars(value)


@pytest.mark.parametrize("value", HASHABLE, ids=lambda v: type(v).__name__)
def test_equal_values_hash_alike(value):
    assert hash(replace(value)) == hash(value)


@pytest.mark.parametrize("value", UNHASHABLE, ids=lambda v: type(v).__name__)
def test_values_with_a_dict_field_stay_unhashable(value):
    with pytest.raises(TypeError):
        hash(value)


def test_replace_recomputes_the_spec_derived_fields():
    spec = TEMPERATURE.bdo
    assert spec._scalar == (0, 2, "little", True, 0.1, -0x8000, 0x7FFF)
    assert replace(spec, endianess=Endianess.BIG)._scalar[2] == "big"
    assert replace(spec, offset=3)._scalar[:2] == (3, 5)
    assert replace(spec, scale=1)._scalar[4] is None
    assert replace(spec, signed=False)._scalar[5:] == (0, 0xFFFF)
    assert replace(spec, bytelength=1)._scalar[5:] == (-0x80, 0x7F)
    assert replace(spec, bytelength=None, pattern="00{on}",
                   variables=POWER.bdo.variables)._scalar is None
    pattern = POWER.bdo
    other = replace(pattern, pattern="ff{on}")
    assert other._plan[0] == compile_pattern("ff{on}", pattern.variables).total_octets == 2
    assert pattern._plan[0] == compile_pattern(pattern.pattern, pattern.variables).total_octets
    var = pattern.variables["on"]
    assert replace(var, endianess=Endianess.BIG)._byteorder == "big"
    assert (replace(var, signed=True)._lo, replace(var, bytelength=2)._hi) == (-0x80, 0xFFFF)
    assert other._plan[1][0] == b"\xff" and other._plan[1][1][0] == "on"


def test_replace_reparses_a_form_href():
    form = POWER.forms[0]
    href = "gatt://AA-BB-CC-DD-EE-FF/fff0/fff1"
    assert replace(form, href=href).uri == parse_gatt_uri(href)
    assert replace(form, href="http://x").uri is None
    with pytest.raises(ValueError):
        replace(form, uri=None)  # a derived field is not an argument


@pytest.mark.parametrize("cls, args, name", [
    (Affordance, ("a", ()), "extensions"),
    (ThingDescription, ("t", {}, BleMetadata(), {}, {}, {}), "extensions"),
    (BdoSpec, (1,), "variables"),
], ids=["Affordance", "ThingDescription", "BdoSpec"])
def test_an_absent_mapping_is_a_fresh_empty_dict(cls, args, name):
    a, b = cls(*args), cls(*args, **{name: None})
    assert getattr(a, name) == getattr(b, name) == {}
    assert getattr(a, name) is not getattr(b, name)


@pytest.mark.parametrize("name, path", [
    ("lamp", LAMP_TD), ("sensor", SENSOR_TD), ("beacon", BEACON_TD),
])
def test_fixture_reprs_are_unchanged(name, path):
    assert repr(parse_td_file(path)) == FIXTURE_REPRS[name]
