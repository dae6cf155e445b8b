import json

import pytest

import wotble.td as td_module

from wotble import (
    BdoSpec,
    BleMetadata,
    DiagnosticCode,
    Endianess,
    GapRole,
    GattMethod,
    Severity,
    VariableType,
    WotOperation,
    parse_gatt_uri,
    parse_td,
    parse_td_file,
    validate_td,
)
from wotble.errors import (
    MalformedDocument,
    MethodOpConflict,
    MissingRequired,
    UnknownPrefix,
    UnsupportedUnit,
)
from conftest import LAMP_TD, SENSOR_TD, BEACON_TD

CONTEXT = [
    "https://www.w3.org/2022/wot/td/v1",
    {
        "sbo": "https://freumi.inrupt.net/SimpleBluetoothOntology.ttl#",
        "bdo": "https://freumi.inrupt.net/BinaryDataOntology.ttl#",
        "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
        "qudt": "http://qudt.org/schema/qudt/",
    },
]

HREF = ("gatt://AA-BB-CC-DD-EE-FF/0000fff0-0000-1000-8000-00805f9b34fb/"
        "0000fff3-0000-1000-8000-00805f9b34fb")


def td_doc(**overrides) -> str:
    doc = {
        "@context": CONTEXT,
        "title": "Test Thing",
        "properties": {
            "level": {
                "type": "integer",
                "bdo:bytelength": 2,
                "forms": [{
                    "href": HREF,
                    "op": "readproperty",
                    "contentType": "application/x.binary-data-stream",
                }],
            },
        },
    }
    doc.update(overrides)
    return json.dumps(doc)


# --- golden lamp fixture ---------------------------------------------------------

def test_lamp_fixture_parses_to_expected_model():
    td = parse_td_file(LAMP_TD)
    assert td.title == "BLE RGB Controller"
    assert td.metadata.gap_role is GapRole.PERIPHERAL
    assert td.metadata.is_connectable is True
    assert td.metadata.has_gatt_layer is True
    assert td.metadata.advertising_interval_ms == 50.0

    power = td.properties["power"]
    assert power.data_type == "string"
    assert power.format == "hex"
    assert power.bdo.pattern == "7e0004{on}00000000ef"
    on = power.bdo.variables["on"]
    assert on.data_type is VariableType.INTEGER
    assert on.bytelength == 1
    assert (on.minimum, on.maximum) == (0, 1)

    form = power.forms[0]
    assert form.op == (WotOperation.WRITEPROPERTY,)
    assert form.method_name is GattMethod.WRITE
    assert form.content_type == "application/x.binary-data-stream"
    assert not td.actions and not td.events


def test_sensor_fixture_scalar_specs():
    td = parse_td_file(SENSOR_TD)
    assert td.metadata.advertising_interval_ms == 2000.0
    moisture = td.properties["moisture"].bdo
    assert moisture == BdoSpec(bytelength=1)
    temperature = td.properties["temperature"].bdo
    assert temperature.bytelength == 2
    assert temperature.signed is True
    assert temperature.scale == 0.1


def test_beacon_fixture_event():
    td = parse_td_file(BEACON_TD)
    event = td.events["temperature"]
    assert event.forms[0].op == (
        WotOperation.SUBSCRIBEEVENT, WotOperation.UNSUBSCRIBEEVENT,
    )
    assert event.forms[0].method_name is GattMethod.NOTIFY


# --- defaults ----------------------------------------------------------------------

def test_bdo_defaults_are_applied():
    td = parse_td(td_doc())
    spec = td.properties["level"].bdo
    assert spec.bytelength == 2
    assert spec.signed is False
    assert spec.endianess is Endianess.LITTLE
    assert spec.offset == 0
    assert spec.scale == 1.0


def test_empty_affordance_maps_are_valid():
    td = parse_td(json.dumps({
        "@context": CONTEXT,
        "title": "Empty Thing",
        "properties": {},
        "actions": {},
        "events": {},
    }))
    assert td.properties == {} and td.actions == {} and td.events == {}


# --- errors ---------------------------------------------------------------------------

def test_non_json_document_is_malformed():
    with pytest.raises(MalformedDocument):
        parse_td("this is not json {")


def test_non_object_document_is_malformed():
    with pytest.raises(MalformedDocument):
        parse_td("[1, 2, 3]")


def test_affordance_without_forms_is_missing_required():
    doc = json.loads(td_doc())
    del doc["properties"]["level"]["forms"]
    with pytest.raises(MissingRequired):
        parse_td(json.dumps(doc))


def test_pattern_without_variables_is_missing_required():
    doc = json.loads(td_doc())
    doc["properties"]["level"] = {
        "bdo:pattern": "7e{on}ef",
        "forms": doc["properties"]["level"]["forms"],
    }
    with pytest.raises(MissingRequired):
        parse_td(json.dumps(doc))


def test_pattern_placeholder_without_matching_variable():
    doc = json.loads(td_doc())
    doc["properties"]["level"] = {
        "bdo:pattern": "7e{on}{off}ef",
        "bdo:variable": {"on": {"type": "integer", "bdo:bytelength": 1}},
        "forms": doc["properties"]["level"]["forms"],
    }
    with pytest.raises(MissingRequired):
        parse_td(json.dumps(doc))


def test_undeclared_prefix_is_rejected():
    doc = json.loads(td_doc())
    doc["@context"] = ["https://www.w3.org/2022/wot/td/v1", {"bdo": CONTEXT[1]["bdo"]}]
    doc["sbo:isConnectable"] = True
    raised = []
    for _ in range(2):  # the failure is not remembered: it is raised anew
        with pytest.raises(UnknownPrefix) as exc_info:
            parse_td(json.dumps(doc))
        raised.append(exc_info.value)
    assert raised[0] is not raised[1] and str(raised[0]) == str(raised[1])


def test_missing_bytelength_is_required():
    doc = json.loads(td_doc())
    doc["properties"]["level"]["bdo:scale"] = 0.5
    del doc["properties"]["level"]["bdo:bytelength"]
    with pytest.raises(MissingRequired):
        parse_td(json.dumps(doc))


@pytest.mark.parametrize("in_form, term, value", [
    (True, "sbo:methodName", ["sbo:write"]),
    (True, "contentType", 5),
    (False, "bdo:bytelength", "1"),
    (False, "bdo:scale", "0.1"),
    (False, "bdo:variable", {"on": {"bdo:bytelength": "1"}}),
    (False, "bdo:signed", "no"),
    (False, "bdo:bytelength", True),
    (False, "bdo:bytelength", 1.5),
    (False, "bdo:offset", 1.5),
    (False, "bdo:scale", True),
    (False, "minimum", "0"),
    (False, "bdo:variable", {"on": {"bdo:bytelength": 1, "minimum": "x"}}),
    (False, "bdo:variable", {"on": {"bdo:bytelength": 1, "maximum": "x"}}),
    (False, "bdo:variable", {"on": {"bdo:bytelength": 1, "signed": "no"}}),
    (False, "bdo:variable", {"on": {"bdo:bytelength": 1.5}}),
])
def test_wrong_typed_terms_are_malformed(in_form, term, value):
    doc = json.loads(td_doc())
    level = doc["properties"]["level"]
    (level["forms"][0] if in_form else level)[term] = value
    with pytest.raises(MalformedDocument):
        parse_td(json.dumps(doc))


def test_missing_td_file_is_malformed(tmp_path):
    with pytest.raises(MalformedDocument):
        parse_td_file(tmp_path / "no-such.td.json")


def test_unsupported_operation_is_rejected():
    doc = json.loads(td_doc())
    doc["properties"]["level"]["forms"][0]["op"] = "observeproperty"
    with pytest.raises(MethodOpConflict):
        parse_td(json.dumps(doc))


# --- units --------------------------------------------------------------------------

def test_qudt_milliseconds_duration():
    td = parse_td(td_doc(**{
        "sbo:hasAdvertisingInterval": {"rdf:value": 50, "qudt:unit": "qudt:MilliSEC"},
    }))
    assert td.metadata.advertising_interval_ms == 50.0


def test_qudt_seconds_normalize_to_milliseconds():
    td = parse_td(td_doc(**{
        "sbo:hasAdvertisingInterval": {"rdf:value": 2, "qudt:unit": "qudt:SEC"},
    }))
    assert td.metadata.advertising_interval_ms == 2000.0


def test_plain_number_duration_is_milliseconds():
    td = parse_td(td_doc(**{"sbo:hasAdvertisingInterval": 125}))
    assert td.metadata.advertising_interval_ms == 125.0


def test_unknown_units_error():
    with pytest.raises(UnsupportedUnit):
        parse_td(td_doc(**{
            "sbo:hasAdvertisingInterval": {"rdf:value": 1, "qudt:unit": "qudt:HR"},
        }))


def test_nonpositive_intervals_are_rejected():
    with pytest.raises(MalformedDocument):
        parse_td(td_doc(**{"sbo:hasAdvertisingInterval": 0}))


def test_scan_window_and_interval():
    td = parse_td(td_doc(**{
        "sbo:hasScanWindow": 30,
        "sbo:hasScanInterval": {"rdf:value": 60, "qudt:unit": "qudt:MilliSEC"},
    }))
    assert td.metadata.scan_window_ms == 30.0
    assert td.metadata.scan_interval_ms == 60.0


# --- open-world term handling ----------------------------------------------------------

def test_unknown_terms_are_preserved_in_extensions():
    td = parse_td(td_doc(**{
        "id": "urn:dev:mac:aabbccddeeff",
        "sbo:hasMysteryCapability": 3,
    }))
    assert td.extensions["id"] == "urn:dev:mac:aabbccddeeff"
    assert td.extensions["sbo:hasMysteryCapability"] == 3


def test_renamed_prefix_resolves_by_iri():
    doc = json.loads(td_doc())
    doc["@context"] = [
        "https://www.w3.org/2022/wot/td/v1",
        {"bt": CONTEXT[1]["sbo"], "bin": CONTEXT[1]["bdo"]},
    ]
    doc["bt:isConnectable"] = True
    level = doc["properties"]["level"]
    level["bin:bytelength"] = level.pop("bdo:bytelength")
    td = parse_td(json.dumps(doc))
    assert td.metadata.is_connectable is True
    assert td.properties["level"].bdo.bytelength == 2


def test_prefix_bindings_stay_with_their_document():
    fixtures = (LAMP_TD, SENSOR_TD, BEACON_TD)
    for path in fixtures:
        assert parse_td_file(path).metadata.is_connectable is True
    doc = json.loads(td_doc())
    doc["@context"] = [CONTEXT[0], {**CONTEXT[1], "sbo": "https://example.com/other#"}]
    doc["sbo:isConnectable"] = False
    doc["sbo:hasGAPRole"] = "sbo:peripheral"
    doc["properties"]["level"]["forms"][0]["sbo:methodName"] = "sbo:read"
    td = parse_td(json.dumps(doc))
    assert td.metadata == BleMetadata()
    assert td.extensions == {"sbo:isConnectable": False, "sbo:hasGAPRole": "sbo:peripheral"}
    assert td.properties["level"].forms[0].method_name is None
    for path in fixtures:  # nor does the foreign binding reach the fixtures
        assert parse_td_file(path).metadata.gap_role is GapRole.PERIPHERAL


def test_term_caches_stay_bounded():
    doc = json.loads(td_doc())
    doc.update({f"sbo:term{i}": i for i in range(1_000)})
    assert len(parse_td(json.dumps(doc)).extensions) == 1_000
    for split in (td_module._split_curie, td_module._split_vocab):
        info = split.cache_info()
        assert 0 < info.currsize <= info.maxsize


def test_method_name_resolution():
    doc = json.loads(td_doc())
    doc["properties"]["level"]["forms"][0]["op"] = "writeproperty"
    doc["properties"]["level"]["forms"][0]["sbo:methodName"] = "sbo:write-without-response"
    td = parse_td(json.dumps(doc))
    assert td.properties["level"].forms[0].method_name is GattMethod.WRITE_WITHOUT_RESPONSE


# --- validation --------------------------------------------------------------------------

def test_lamp_fixture_is_valid():
    assert validate_td(parse_td_file(LAMP_TD)) == []


def test_non_connectable_device_with_forms_conflicts():
    td = parse_td(td_doc(**{"sbo:isConnectable": False}))
    diagnostics = validate_td(td)
    assert [d.code for d in diagnostics] == [DiagnosticCode.CONNECTABILITY_CONFLICT]
    assert diagnostics[0].severity is Severity.ERROR


@pytest.mark.parametrize("path", [LAMP_TD, SENSOR_TD, BEACON_TD])
def test_forms_carry_their_parsed_href(path):
    td = parse_td_file(path)
    forms = [form for category in (td.properties, td.actions, td.events)
             for affordance in category.values() for form in affordance.forms]
    assert forms
    for form in forms:
        assert form.uri == parse_gatt_uri(form.href)


def test_non_gatt_href_is_flagged():
    doc = json.loads(td_doc())
    doc["properties"]["level"]["forms"][0]["href"] = "http://x"
    td = parse_td(json.dumps(doc))
    assert td.properties["level"].forms[0].uri is None
    diagnostics = validate_td(td)
    assert [d.code for d in diagnostics] == [DiagnosticCode.BAD_URI_SCHEME]
    assert diagnostics[0].severity is Severity.WARNING


def test_malformed_gatt_href_is_an_error():
    doc = json.loads(td_doc())
    doc["properties"]["level"]["forms"][0]["href"] = "gatt://AA:BB:CC:DD:EE:FF/fff0"
    td = parse_td(json.dumps(doc))
    assert td.properties["level"].forms[0].uri is None
    diagnostics = validate_td(td)
    assert [d.code for d in diagnostics] == [DiagnosticCode.BAD_HREF]
    assert diagnostics[0].severity is Severity.ERROR


def test_write_form_without_layout_is_flagged():
    doc = json.loads(td_doc())
    level = doc["properties"]["level"]
    del level["bdo:bytelength"]
    level["forms"][0]["op"] = ["readproperty", "writeproperty"]
    diagnostics = validate_td(parse_td(json.dumps(doc)))
    assert [d.code for d in diagnostics] == [DiagnosticCode.NOT_ENCODABLE]
    assert diagnostics[0].severity is Severity.WARNING
