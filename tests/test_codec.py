import random

import pytest

import wotble.codec as codec_module

from wotble import BdoSpec, Endianess, VariableSpec, VariableType, compile_pattern
from wotble.codec import (
    LiteralSegment,
    VariableSegment,
    decode,
    encode,
    get_codec,
    BINARY_DATA_STREAM,
)
from wotble.errors import (
    AttLengthExceeded,
    BadHexPattern,
    BadValue,
    MissingVariable,
    OutOfRange,
    PatternMismatch,
    TooShort,
    UnsupportedMediaType,
)

LAMP_PATTERN = "7e0004{on}00000000ef"
LAMP_VARS = {"on": VariableSpec("on", bytelength=1, minimum=0, maximum=1)}


# --- independent oracle: positional base-256 arithmetic -------------------------

def oracle_value(payload: bytes, signed: bool, little: bool) -> int:
    digits = payload if little else payload[::-1]
    raw = sum(b * 256 ** i for i, b in enumerate(digits))
    if signed and raw >= 256 ** len(payload) // 2:
        raw -= 256 ** len(payload)
    return raw


def oracle_payload(value: int, bytelength: int, signed: bool, little: bool) -> bytes:
    raw = value + 256 ** bytelength if (signed and value < 0) else value
    digits = [(raw // 256 ** i) % 256 for i in range(bytelength)]
    if not little:
        digits.reverse()
    return bytes(digits)


# --- frozen scalar examples -------------------------------------------------------

def test_encode_zero_single_octet():
    assert encode(0, BdoSpec(bytelength=1)) == bytes([0x00])


def test_encode_12345_little_endian():
    assert encode(12345, BdoSpec(bytelength=2)) == bytes([0x39, 0x30])


def test_decode_12345_little_endian():
    assert decode(bytes([0x39, 0x30]), BdoSpec(bytelength=2)) == 12345


def test_encode_scaled_value():
    # 25.0 / 0.1 rounds to 250 = 0xFA
    assert encode(25.0, BdoSpec(bytelength=1, scale=0.1)) == bytes([0xFA])


def test_decode_applies_scale_and_returns_float():
    value = decode(bytes([0xFA]), BdoSpec(bytelength=1, scale=0.1))
    assert value == pytest.approx(25.0)
    assert isinstance(value, float)


def test_decode_with_unit_scale_returns_int():
    value = decode(bytes([0xFA]), BdoSpec(bytelength=1))
    assert value == 250
    assert isinstance(value, int)


def test_decode_skips_offset_octets():
    assert decode(bytes([0xAA, 0x01, 0x00]), BdoSpec(bytelength=2, offset=1)) == 1


def test_encode_places_value_after_offset():
    assert encode(1, BdoSpec(bytelength=2, offset=1)) == bytes([0x00, 0x01, 0x00])


def test_decode_signed_twos_complement():
    assert decode(bytes([0xFF]), BdoSpec(bytelength=1, signed=True)) == -1


def test_non_integer_inputs_are_rounded_half_even():
    assert encode(2.5, BdoSpec(bytelength=1)) == bytes([0x02])
    assert encode(3.5, BdoSpec(bytelength=1)) == bytes([0x04])


def test_out_of_range_values_are_rejected():
    with pytest.raises(OutOfRange):
        encode(256, BdoSpec(bytelength=1))
    with pytest.raises(OutOfRange):
        encode(128, BdoSpec(bytelength=1, signed=True))
    with pytest.raises(OutOfRange):
        encode(-1, BdoSpec(bytelength=1))


def test_decode_too_short_payload():
    with pytest.raises(TooShort):
        decode(bytes([0x01]), BdoSpec(bytelength=2))
    with pytest.raises(TooShort):
        decode(bytes([0x01, 0x02]), BdoSpec(bytelength=2, offset=1))


# --- pattern path ----------------------------------------------------------------

def test_lamp_pattern_layout():
    layout = compile_pattern(LAMP_PATTERN, LAMP_VARS)
    assert layout.segments == (
        LiteralSegment(bytes([0x7E, 0x00, 0x04])),
        VariableSegment("on", 1),
        LiteralSegment(bytes([0x00, 0x00, 0x00, 0x00, 0xEF])),
    )
    assert layout.total_octets == 9


def test_single_variable_pattern_layout():
    layout = compile_pattern("{x}", {"x": VariableSpec("x", bytelength=2)})
    assert layout.segments == (VariableSegment("x", 2),)
    assert layout.total_octets == 2


def test_odd_literal_run_is_rejected():
    with pytest.raises(BadHexPattern):
        compile_pattern("7e0", {})


@pytest.mark.parametrize("pattern", ["7e{on", "7e}on{", "{}", "7e{on}}"])
def test_malformed_placeholders_are_rejected(pattern):
    with pytest.raises(BadHexPattern):
        compile_pattern(pattern, LAMP_VARS)


def test_placeholder_without_spec_is_rejected():
    with pytest.raises(MissingVariable):
        compile_pattern("7e{off}ef", LAMP_VARS)


def lamp_spec() -> BdoSpec:
    return BdoSpec(pattern=LAMP_PATTERN, variables=LAMP_VARS)


def test_spec_keeps_its_compiled_layout():
    spec = lamp_spec()
    assert spec.layout() is spec.layout()
    assert spec.layout() == compile_pattern(LAMP_PATTERN, LAMP_VARS)
    # The kept layout is derived data: not part of equality or repr.
    other = BdoSpec(pattern=LAMP_PATTERN, variables=LAMP_VARS)
    object.__setattr__(other, "_layout", None)
    assert other == spec
    assert "layout" not in repr(spec)


def test_equal_patterns_share_one_compiled_layout(monkeypatch):
    spec = lamp_spec()
    # Only the pattern and each variable's bytelength shape the layout.
    same_sizes = BdoSpec(pattern=LAMP_PATTERN,
                         variables={"on": VariableSpec("on", bytelength=1, signed=True)})
    assert same_sizes.layout() is spec.layout()
    wider = BdoSpec(pattern=LAMP_PATTERN, variables={"on": VariableSpec("on", bytelength=2)})
    assert wider.layout().total_octets == spec.layout().total_octets + 1

    def recompiled(*_args, **_kwargs):
        raise AssertionError("pattern compiled again")

    monkeypatch.setattr("wotble.codec.compile_pattern", recompiled)
    assert lamp_spec().layout() is spec.layout()


@pytest.mark.parametrize("pattern, error", [
    ("7e{off}ef", MissingVariable),
    ("7e0{on}", BadHexPattern),
])
def test_failed_pattern_compiles_raise_anew(pattern, error):
    raised = []
    for _ in range(2):
        with pytest.raises(error) as exc_info:
            BdoSpec(pattern=pattern, variables=LAMP_VARS)
        raised.append(exc_info.value)
    assert raised[0] is not raised[1] and str(raised[0]) == str(raised[1])


def test_compiled_layout_cache_stays_bounded():
    for index in range(codec_module._LAYOUT_CACHE_SIZE + 50):
        BdoSpec(pattern=f"{index:04x}{{on}}", variables=LAMP_VARS)
    info = codec_module._layout_of.cache_info()
    assert info.currsize <= info.maxsize == codec_module._LAYOUT_CACHE_SIZE


@pytest.mark.parametrize("scale", [1, 0.1])
@pytest.mark.parametrize("offset", [0, 2])
@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("endianess", list(Endianess))
def test_scalar_codec_matches_int_bytes(endianess, signed, offset, scale):
    spec = BdoSpec(bytelength=2, signed=signed, endianess=endianess, offset=offset,
                   scale=scale)
    byteorder = "little" if endianess is Endianess.LITTLE else "big"
    lo, hi = (-0x8000, 0x7FFF) if signed else (0, 0xFFFF)
    for raw in (lo, lo + 1, 0, 1, 0x1234, hi - 1, hi):
        payload = bytes(offset) + raw.to_bytes(2, byteorder, signed=signed)
        value = decode(payload, spec)
        assert value == (raw if scale == 1 else pytest.approx(raw * scale))
        assert encode(value, spec) == payload
        assert int.from_bytes(payload[offset:], byteorder, signed=signed) == raw
    with pytest.raises(TooShort, match=rf"reads octets \[{offset}, {offset + 2}\)"):
        decode(bytes(offset + 1), spec)


def test_derived_fields_take_no_part_in_equality_or_repr():
    spec = BdoSpec(bytelength=2, endianess=Endianess.BIG, offset=2)
    var = VariableSpec("x", endianess=Endianess.BIG)
    assert (spec._byteorder, spec._end, var._byteorder) == ("big", 4, "big")
    twin = BdoSpec(bytelength=2, endianess=Endianess.BIG, offset=2)
    twin_var = VariableSpec("x", endianess=Endianess.BIG)
    object.__setattr__(twin, "_byteorder", "little")
    object.__setattr__(twin, "_end", None)
    object.__setattr__(twin_var, "_byteorder", "little")
    assert twin == spec and twin_var == var and hash(twin_var) == hash(var)
    for text in (repr(spec), repr(var)):
        assert "_byteorder" not in text and "_end" not in text


def test_encode_substitutes_variable_into_pattern():
    payload = encode({"on": 1}, lamp_spec())
    assert payload == bytes([0x7E, 0x00, 0x04, 0x01, 0x00, 0x00, 0x00, 0x00, 0xEF])


def test_decode_extracts_variable_from_pattern():
    payload = bytes([0x7E, 0x00, 0x04, 0x01, 0x00, 0x00, 0x00, 0x00, 0xEF])
    assert decode(payload, lamp_spec()) == {"on": 1}


def test_pattern_round_trip():
    spec = lamp_spec()
    assert decode(encode({"on": 0}, spec), spec) == {"on": 0}


def test_variable_bounds_are_enforced():
    with pytest.raises(OutOfRange):
        encode({"on": 2}, lamp_spec())


def test_missing_variable_value():
    with pytest.raises(MissingVariable):
        encode({}, lamp_spec())


def test_pattern_requires_mapping_value():
    with pytest.raises(BadValue):
        encode(1, lamp_spec())
    with pytest.raises(BadValue):
        encode({"on": 1}, BdoSpec(bytelength=1))


def test_decode_rejects_literal_mismatch():
    payload = bytes([0x7F, 0x00, 0x04, 0x01, 0x00, 0x00, 0x00, 0x00, 0xEF])
    with pytest.raises(PatternMismatch):
        decode(payload, lamp_spec())


def test_decode_rejects_wrong_pattern_length():
    spec = lamp_spec()
    with pytest.raises(TooShort):
        decode(bytes(5), spec)
    with pytest.raises(PatternMismatch):
        decode(bytes(10), spec)


def test_repeated_placeholder_encodes_once_decodes_consistently():
    variables = {"x": VariableSpec("x", bytelength=1)}
    spec = BdoSpec(pattern="{x}ff{x}", variables=variables)
    payload = encode({"x": 0xAB}, spec)
    assert payload == bytes([0xAB, 0xFF, 0xAB])
    assert decode(payload, spec) == {"x": 0xAB}
    with pytest.raises(PatternMismatch):
        decode(bytes([0xAB, 0xFF, 0xAC]), spec)


def test_string_hex_variable_round_trip():
    variables = {"mac": VariableSpec("mac", data_type=VariableType.STRING_HEX,
                                     bytelength=3)}
    spec = BdoSpec(pattern="01{mac}02", variables=variables)
    payload = encode({"mac": "A1B2C3"}, spec)
    assert payload == bytes([0x01, 0xA1, 0xB2, 0xC3, 0x02])
    assert decode(payload, spec) == {"mac": "a1b2c3"}


def test_string_hex_variable_validation():
    variables = {"v": VariableSpec("v", data_type=VariableType.STRING_HEX, bytelength=2)}
    spec = BdoSpec(pattern="{v}", variables=variables)
    with pytest.raises(OutOfRange):
        encode({"v": "aa"}, spec)  # 1 octet, spec says 2
    with pytest.raises(BadValue):
        encode({"v": "zzzz"}, spec)


def test_per_variable_endianess_overrides_spec_default():
    variables = {"x": VariableSpec("x", bytelength=2, endianess=Endianess.BIG)}
    spec = BdoSpec(pattern="{x}", variables=variables)
    assert encode({"x": 0x1234}, spec) == bytes([0x12, 0x34])


# --- ATT length cap ---------------------------------------------------------------

def test_att_cap_is_a_hard_boundary():
    ok = BdoSpec(bytelength=8, offset=504)  # exactly 512
    assert len(encode(0, ok)) == 512
    too_long = BdoSpec(bytelength=8, offset=505)  # 513
    with pytest.raises(AttLengthExceeded):
        encode(0, too_long)


def test_att_cap_applies_to_patterns():
    ok = BdoSpec(pattern="00" * 512, variables={})
    assert len(encode({}, ok)) == 512
    too_long = BdoSpec(pattern="00" * 513, variables={})
    with pytest.raises(AttLengthExceeded):
        encode({}, too_long)


@pytest.mark.parametrize("offset", [10**6, pytest.param(10**400, id="huge")])
def test_att_cap_is_checked_before_the_offset_is_built(offset):
    with pytest.raises(AttLengthExceeded):
        encode(0, BdoSpec(bytelength=1, offset=offset))


# --- invalid specs -----------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(),                                   # neither bytelength nor pattern
    dict(bytelength=0),
    dict(bytelength=1, offset=-1),
    dict(bytelength=1, scale=0.0),
    dict(bytelength=1, scale=float("nan")),
    dict(bytelength=513),
    dict(pattern="00", bytelength=513),
])
def test_invalid_specs_are_rejected(kwargs):
    with pytest.raises(BadValue):
        BdoSpec(**kwargs)


def test_pattern_spec_requires_variables():
    with pytest.raises(MissingVariable):
        BdoSpec(pattern="7e{on}ef", variables={})


# --- oracle equivalence and properties ---------------------------------------------

@pytest.mark.parametrize("bytelength", [1, 2])
@pytest.mark.parametrize("endianess", [Endianess.LITTLE, Endianess.BIG])
@pytest.mark.parametrize("signed", [False, True])
def test_exhaustive_oracle_equivalence(bytelength, endianess, signed):
    spec = BdoSpec(bytelength=bytelength, signed=signed, endianess=endianess)
    little = endianess is Endianess.LITTLE
    for raw in range(256 ** bytelength):
        payload = raw.to_bytes(bytelength, "big")  # enumerate all payloads
        expected = oracle_value(payload, signed, little)
        assert decode(payload, spec) == expected
        assert encode(expected, spec) == payload
        assert oracle_payload(expected, bytelength, signed, little) == payload


def test_round_trip_property_random_specs():
    rng = random.Random(999)
    scales = [0.1, 0.5, 2.0, 0.01, 10.0]
    for _ in range(10_000):
        scale = 1.0 if rng.random() < 0.5 else rng.choice(scales)
        # Doubles cannot resolve scale/2 above ~2^42 raw; scaled trials
        # stay within 5 octets, exact trials cover the full 8.
        bytelength = rng.randint(1, 8 if scale == 1.0 else 5)
        signed = rng.random() < 0.5
        endianess = rng.choice([Endianess.LITTLE, Endianess.BIG])
        spec = BdoSpec(bytelength=bytelength, signed=signed, endianess=endianess,
                       scale=scale, offset=rng.randint(0, 3))
        lo = -(256 ** bytelength // 2) if signed else 0
        hi = 256 ** bytelength // 2 - 1 if signed else 256 ** bytelength - 1
        raw = rng.randint(lo, hi)
        if scale == 1.0:
            assert decode(encode(raw, spec), spec) == raw
        else:
            value = raw * scale + rng.uniform(-0.499, 0.499) * scale
            assert abs(decode(encode(value, spec), spec) - value) <= scale / 2


def test_big_endian_is_octet_reversal_of_little_endian():
    rng = random.Random(321)
    for _ in range(500):
        bytelength = rng.randint(1, 8)
        value = rng.randint(0, 256 ** bytelength - 1)
        le = encode(value, BdoSpec(bytelength=bytelength))
        be = encode(value, BdoSpec(bytelength=bytelength, endianess=Endianess.BIG))
        assert be == le[::-1]


def test_payload_length_law():
    rng = random.Random(555)
    for _ in range(200):
        bytelength = rng.randint(1, 8)
        offset = rng.randint(0, 16)
        spec = BdoSpec(bytelength=bytelength, offset=offset)
        assert len(encode(0, spec)) == offset + bytelength


# --- codec registry ------------------------------------------------------------------

def test_registry_returns_binary_data_stream_codec():
    codec = get_codec(BINARY_DATA_STREAM)
    assert codec.encode(1, BdoSpec(bytelength=1)) == bytes([0x01])


def test_unknown_application_subtype_falls_back_to_octet_stream():
    codec = get_codec("application/x.some-unknown-subtype")
    assert codec.decode(b"\x01\x02", None) == b"\x01\x02"
    assert codec.encode(b"\x01\x02", None) == b"\x01\x02"


def test_octet_stream_passthrough_enforces_att_cap():
    codec = get_codec("application/octet-stream")
    with pytest.raises(AttLengthExceeded):
        codec.encode(bytes(513))


def test_non_application_types_are_rejected():
    with pytest.raises(UnsupportedMediaType):
        get_codec("text/plain")
