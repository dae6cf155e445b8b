import random
import uuid

import pytest

from wotble import GattUri, expand_uuid, format_gatt_uri, parse_gatt_uri
from wotble.errors import BadDeviceId, BadScheme, BadStructure, BadUuid
from wotble.uris import normalize_mac, parse_uuid

FULL_FFF0 = "0000fff0-0000-1000-8000-00805f9b34fb"
FULL_FFF3 = "0000fff3-0000-1000-8000-00805f9b34fb"


def test_parses_dash_separated_mac_and_full_uuids():
    uri = parse_gatt_uri(f"gatt://BE-58-30-00-CC-11/{FULL_FFF0}/{FULL_FFF3}")
    assert uri.device_id == "BE:58:30:00:CC:11"
    assert str(uri.service) == FULL_FFF0
    assert str(uri.characteristic) == FULL_FFF3


def test_short_uuids_expand_against_base_uuid():
    uri = parse_gatt_uri("gatt://AA:BB:CC:DD:EE:FF/fff0/fff3")
    assert str(uri.service) == FULL_FFF0
    assert str(uri.characteristic) == FULL_FFF3


def test_wrong_scheme_is_rejected():
    with pytest.raises(BadScheme):
        parse_gatt_uri("http://AA:BB:CC:DD:EE:FF/fff0/fff3")


@pytest.mark.parametrize("bad", [
    "gatt://AA:BB:CC:DD:EE/fff0/fff3",          # 5 octets
    "gatt://AA:BB:CC:DD:EE:FF:00/fff0/fff3",    # 7 octets
    "gatt://nonsense/fff0/fff3",
])
def test_bad_device_ids_are_rejected(bad):
    with pytest.raises(BadDeviceId):
        parse_gatt_uri(bad)


@pytest.mark.parametrize("bad", [
    "gatt://AA:BB:CC:DD:EE:FF/fff/fff3",        # 3 hex digits
    "gatt://AA:BB:CC:DD:EE:FF/fff0/zzzz",
    f"gatt://AA:BB:CC:DD:EE:FF/0000fff0-0000-1000-8000-00805f9b/{FULL_FFF3}",
])
def test_bad_uuids_are_rejected(bad):
    with pytest.raises(BadUuid):
        parse_gatt_uri(bad)


@pytest.mark.parametrize("bad", [
    "gatt://AA:BB:CC:DD:EE:FF/fff0",
    "gatt://AA:BB:CC:DD:EE:FF/fff0/fff3/extra",
    "gatt://AA:BB:CC:DD:EE:FF//fff3",
    "not a uri at all",
])
def test_bad_structure_is_rejected(bad):
    with pytest.raises(BadStructure):
        parse_gatt_uri(bad)


@pytest.mark.parametrize("parse, text, error", [
    (normalize_mac, "BE:58:30:00:CC:11\n", BadDeviceId),
    (parse_uuid, "fff3\n", BadUuid),
    (parse_uuid, f"{FULL_FFF3}\n", BadUuid),
], ids=["mac", "short-uuid", "full-uuid"])
def test_a_trailing_newline_is_not_part_of_a_segment(parse, text, error):
    with pytest.raises(error, match="^not a "):
        parse(text)


@pytest.mark.parametrize("short,expected", [
    (0xFFF3, "0000fff3-0000-1000-8000-00805f9b34fb"),
    (0x0000, "00000000-0000-1000-8000-00805f9b34fb"),
    (0x180F, "0000180f-0000-1000-8000-00805f9b34fb"),
])
def test_expand_uuid(short, expected):
    assert str(expand_uuid(short)) == expected


def test_expand_uuid_range_check():
    with pytest.raises(BadUuid):
        expand_uuid(0x10000)
    with pytest.raises(BadUuid):
        expand_uuid(-1)


@pytest.mark.parametrize("short", [None, "ff", 1.5, True], ids=repr)
def test_expand_uuid_of_anything_but_an_int_is_a_bad_uuid(short):
    with pytest.raises(BadUuid, match="short UUID must be an int"):
        expand_uuid(short)


def test_format_emits_canonical_dash_form():
    uri = GattUri("BE:58:30:00:CC:11", expand_uuid(0xFFF0), expand_uuid(0xFFF3))
    assert format_gatt_uri(uri) == (
        f"gatt://BE-58-30-00-CC-11/{FULL_FFF0}/{FULL_FFF3}"
    )
    assert str(uri) == uri.text == format_gatt_uri(uri)


def test_zero_mac_round_trips():
    uri = GattUri("00:00:00:00:00:00", expand_uuid(0), expand_uuid(0))
    assert parse_gatt_uri(format_gatt_uri(uri)) == uri


def _random_uri(rng: random.Random) -> GattUri:
    mac = ":".join(f"{rng.randrange(256):02X}" for _ in range(6))
    if rng.random() < 0.5:
        service = expand_uuid(rng.randrange(0x10000))
    else:
        service = uuid.UUID(bytes=rng.randbytes(16))
    characteristic = uuid.UUID(bytes=rng.randbytes(16))
    return GattUri(mac, service, characteristic)


def test_round_trip_property_over_random_uris():
    rng = random.Random(20_240_101)
    for _ in range(1000):
        uri = _random_uri(rng)
        assert parse_gatt_uri(format_gatt_uri(uri)) == uri


def test_dash_and_colon_spellings_are_equivalent():
    rng = random.Random(7)
    for _ in range(100):
        octets = [f"{rng.randrange(256):02x}" for _ in range(6)]
        dashed = parse_gatt_uri(f"gatt://{'-'.join(octets)}/fff0/fff3")
        coloned = parse_gatt_uri(f"gatt://{':'.join(octets)}/fff0/fff3")
        assert dashed == coloned


def test_short_and_expanded_spellings_are_equivalent():
    rng = random.Random(8)
    for _ in range(100):
        short = rng.randrange(0x10000)
        expanded = str(expand_uuid(short))
        a = parse_gatt_uri(f"gatt://AA:BB:CC:DD:EE:FF/{short:04x}/{short:04X}")
        b = parse_gatt_uri(f"gatt://AA:BB:CC:DD:EE:FF/{expanded}/{expanded.upper()}")
        assert a == b


# --- each text is parsed once per process ----------------------------------------

@pytest.mark.parametrize("parse, text, error, message", [
    (normalize_mac, "AA:BB:CC:DD:EE", BadDeviceId, "not a 6-octet MAC"),
    (parse_uuid, "fff", BadUuid, "not a 4-hex short UUID"),
    (parse_gatt_uri, "gatt://AA:BB:CC:DD:EE:FF/fff0/xyz", BadUuid, "not a 4-hex"),
    (normalize_mac, ["AA:BB:CC:DD:EE:FF"], BadDeviceId, "must be a string"),
    (parse_uuid, None, BadUuid, "must be a string"),
    (parse_uuid, b"ffe1", BadUuid, "must be a string"),
    (parse_gatt_uri, None, BadStructure, "must be a string"),
    (parse_gatt_uri, 5, BadStructure, "must be a string"),
])
def test_invalid_input_raises_anew_on_every_call(parse, text, error, message):
    size = parse.cache_info().currsize
    raised = []
    for _ in range(2):
        with pytest.raises(error, match=message) as exc_info:
            parse(text)
        raised.append(exc_info.value)
    assert raised[0] is not raised[1] and str(raised[0]) == str(raised[1])
    assert parse.cache_info().currsize == size


def test_parsed_values_are_shared():
    text = f"gatt://be-58-30-00-cc-11/{FULL_FFF0}/fff3"
    uri = parse_gatt_uri(text)
    assert parse_gatt_uri(text) is uri
    assert parse_gatt_uri(text).text is uri.text


def test_caches_stay_bounded():
    for i in range(10_000):
        mac = "-".join(f"{octet:02x}" for octet in i.to_bytes(6, "big"))
        parse_gatt_uri(f"gatt://{mac}/fff0/{i % 0x10000:04x}")
    for parse in (normalize_mac, parse_uuid, parse_gatt_uri):
        info = parse.cache_info()
        assert 0 < info.currsize <= info.maxsize
