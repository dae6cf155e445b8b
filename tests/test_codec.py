import math
import random
from collections.abc import Mapping
from dataclasses import replace
from types import MappingProxyType

import pytest

import wotble.codec as codec_module

from wotble import (
    BdoSpec,
    Endianess,
    VariableSpec,
    VariableType,
    compile_pattern,
    parse_td,
    parse_td_file,
)
from wotble.codec import (
    MAX_PAYLOAD_OCTETS,
    decode,
    encode,
    get_codec,
    BINARY_DATA_STREAM,
)
from wotble.errors import (
    AttLengthExceeded,
    BadHexPattern,
    BadValue,
    CodecError,
    MissingVariable,
    OutOfRange,
    PatternMismatch,
    TooShort,
    UnsupportedMediaType,
)
from conftest import LAMP_TD, SENSOR_TD, calls_per

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


#: An int past CPython's 4 300-digit limit on int-to-text conversion.
HUGE = 10**5000


@pytest.mark.parametrize("value, bound", [(HUGE, "above maximum 1"), (-HUGE, "below minimum 0")],
                         ids=["huge", "huge-negative"])
def test_a_variable_value_past_the_digit_limit_is_out_of_range_by_its_size(value, bound):
    spec = BdoSpec(pattern=LAMP_PATTERN, variables=LAMP_VARS)
    with pytest.raises(OutOfRange, match=f"'on': an integer of 16610 bits {bound}"):
        encode({"on": value}, spec)
    unbounded = BdoSpec(pattern="{on}", variables={"on": VariableSpec("on")})
    with pytest.raises(OutOfRange, match="an integer of 16610 bits not representable"):
        encode({"on": value}, unbounded)


def test_decode_too_short_payload():
    with pytest.raises(TooShort):
        decode(bytes([0x01]), BdoSpec(bytelength=2))
    with pytest.raises(TooShort):
        decode(bytes([0x01, 0x02]), BdoSpec(bytelength=2, offset=1))


# --- pattern path ----------------------------------------------------------------

def test_lamp_pattern_layout():
    layout = compile_pattern(LAMP_PATTERN, LAMP_VARS)
    assert layout.total_octets == 9
    assert layout.steps == (bytes([0x7E, 0x00, 0x04]), "on",
                            bytes([0x00, 0x00, 0x00, 0x00, 0xEF]))


def test_single_variable_pattern_layout():
    layout = compile_pattern("{x}", {"x": VariableSpec("x", bytelength=2)})
    assert layout.total_octets == 2
    assert layout.steps == ("x",)


def test_odd_literal_run_is_rejected():
    with pytest.raises(BadHexPattern):
        compile_pattern("7e0", {})


def test_a_literal_run_ending_in_a_newline_is_rejected():
    with pytest.raises(BadHexPattern, match="non-hex characters"):
        compile_pattern("7e0\n{on}", LAMP_VARS)


@pytest.mark.parametrize("pattern", ["7e{on", "7e}on{", "{}", "7e{on}}", "7e{{on}00"])
def test_malformed_placeholders_are_rejected(pattern):
    with pytest.raises(BadHexPattern):
        compile_pattern(pattern, LAMP_VARS)


@pytest.mark.parametrize("pattern", [None, b"7e{on}ef", 7], ids=["none", "octets", "int"])
def test_a_pattern_that_is_not_text_is_rejected(pattern):
    with pytest.raises(BadValue, match="^pattern must be text, got "):
        compile_pattern(pattern, LAMP_VARS)


def test_placeholder_without_spec_is_rejected():
    with pytest.raises(MissingVariable):
        compile_pattern("7e{off}ef", LAMP_VARS)


def lamp_spec() -> BdoSpec:
    return BdoSpec(pattern=LAMP_PATTERN, variables=LAMP_VARS)


def plan_names(spec: BdoSpec) -> tuple:
    """The spec's plan steps with each variable's facts cut back to its name."""
    return tuple([step if step.__class__ is bytes else step[0] for step in spec._plan[1]])


def test_spec_keeps_its_compiled_plan():
    spec = lamp_spec()
    layout = compile_pattern(LAMP_PATTERN, LAMP_VARS)
    assert (spec._plan[0], plan_names(spec)) == (layout.total_octets, layout.steps)
    # The kept plan is derived data: not part of equality or repr.
    other = BdoSpec(pattern=LAMP_PATTERN, variables=LAMP_VARS)
    object.__setattr__(other, "_plan", None)
    assert other == spec
    assert "_plan" not in repr(spec)


def test_equal_patterns_share_one_compiled_plan(monkeypatch):
    spec = lamp_spec()
    # Equal variable facts give one plan, built once; another size gives its own.
    twin = BdoSpec(pattern=LAMP_PATTERN,
                   variables={"on": VariableSpec("on", bytelength=1, minimum=0, maximum=1)})
    assert twin._plan is spec._plan
    wider = BdoSpec(pattern=LAMP_PATTERN, variables={"on": VariableSpec("on", bytelength=2)})
    assert wider._plan[0] == spec._plan[0] + 1

    def recompiled(*_args, **_kwargs):
        raise AssertionError("pattern compiled again")

    monkeypatch.setattr("wotble.codec.compile_pattern", recompiled)
    assert lamp_spec()._plan is spec._plan


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


def test_compiled_plan_cache_stays_bounded():
    for index in range(codec_module._PLAN_CACHE_SIZE + 50):
        BdoSpec(pattern=f"{index:04x}{{on}}", variables=LAMP_VARS)
    info = codec_module._plan_of.cache_info()
    assert info.currsize <= info.maxsize == codec_module._PLAN_CACHE_SIZE


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
    var = VariableSpec("x", endianess=Endianess.BIG, signed=True)
    assert (spec._scalar, var._byteorder) == ((2, 4, "big", False, None, 0, 0xFFFF), "big")
    assert BdoSpec(bytelength=1, signed=True, scale=0.5)._scalar == (
        0, 1, "little", True, 0.5, -0x80, 0x7F)
    assert (spec._plan, var._lo, var._hi) == (None, -0x80, 0x7F)
    pattern_only = BdoSpec(pattern="00")
    assert (pattern_only._scalar, pattern_only._plan) == (None, (1, (b"\x00",)))
    twin = BdoSpec(bytelength=2, endianess=Endianess.BIG, offset=2)
    pattern_twin = BdoSpec(pattern="00")
    twin_var = VariableSpec("x", endianess=Endianess.BIG, signed=True)
    object.__setattr__(twin, "_scalar", None)
    object.__setattr__(pattern_twin, "_plan", None)
    for name in ("_byteorder", "_lo", "_hi"):
        object.__setattr__(twin_var, name, None)
    assert twin == spec and pattern_twin == pattern_only
    assert twin_var == var and hash(twin_var) == hash(var)
    for text in (repr(spec), repr(pattern_only), repr(var)):
        assert "_byteorder" not in text and "_scalar" not in text and "_plan" not in text
        assert "_lo" not in text and "_hi" not in text


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
    # Any Mapping will do, not only a dict; a scalar spec refuses one as well.
    assert encode(MappingProxyType({"on": 1}), lamp_spec()) == encode({"on": 1}, lamp_spec())
    with pytest.raises(BadValue):
        encode(MappingProxyType({"on": 1}), BdoSpec(bytelength=1))


@pytest.mark.parametrize("payload", ["ab", None, 5, [0x39, 0x30], 12.5])
@pytest.mark.parametrize("spec", [BdoSpec(bytelength=2), lamp_spec()], ids=["scalar", "pattern"])
def test_decode_rejects_payloads_that_are_not_octets(payload, spec):
    with pytest.raises(BadValue, match="bytes, bytearray or memoryview"):
        decode(payload, spec)


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_decode_takes_any_octet_buffer(wrap):
    lamp = bytes([0x7E, 0x00, 0x04, 0x01, 0x00, 0x00, 0x00, 0x00, 0xEF])
    assert decode(wrap(lamp), lamp_spec()) == {"on": 1}
    assert decode(wrap(bytes([0x39, 0x30])), BdoSpec(bytelength=2)) == 12345


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


def test_pattern_encode_checks_every_variable_before_the_att_cap():
    spec = BdoSpec(pattern="00" * 512 + "{on}", variables=LAMP_VARS)
    with pytest.raises(MissingVariable):
        encode({}, spec)
    with pytest.raises(OutOfRange):
        encode({"on": 2}, spec)
    with pytest.raises(AttLengthExceeded, match="payload is 513 octets"):
        encode({"on": 1}, spec)


def test_scalar_encode_checks_mapping_then_att_cap_then_value_then_range():
    too_long = BdoSpec(bytelength=1, offset=MAX_PAYLOAD_OCTETS)
    with pytest.raises(BadValue, match="mapping"):
        encode({"on": 1}, too_long)
    with pytest.raises(AttLengthExceeded):
        encode(True, too_long)
    with pytest.raises(BadValue, match="numeric"):
        encode(True, BdoSpec(bytelength=1))
    with pytest.raises(OutOfRange, match="256 not representable in 1 octet"):
        encode(256, BdoSpec(bytelength=1))


@pytest.mark.parametrize("value,scale,error,match", [
    (float("nan"), 0.1, BadValue, "got NaN"),
    (float("nan"), 1, BadValue, "got NaN"),
    (float("inf"), 0.1, OutOfRange, "infinite or too large"),
    (float("-inf"), 1, OutOfRange, "infinite or too large"),
    (10**400, 0.1, OutOfRange, "too large for a float; .* in 2 octet.* at scale 0.1"),
    (1e308, 0.1, OutOfRange, "too large for a float"),  # finite until scaled
    (HUGE, 1, OutOfRange, "an integer of 16610 bits not representable in 2 octet"),
], ids=["nan", "nan-unscaled", "inf", "minus-inf-unscaled", "huge-int", "finite-until-scaled",
        "past-the-digit-limit"])
def test_scalar_encode_of_a_value_no_integer_holds_is_a_codec_error(value, scale, error, match):
    spec = BdoSpec(bytelength=2, signed=True, scale=scale)
    with pytest.raises(error, match=match):
        encode(value, spec)
    with pytest.raises(BadValue, match="numeric"):  # the type is checked first
        encode("nan", spec)


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
    # A field of the wrong type is a BadValue too, not a bare Python error.
    dict(bytelength="2"),
    dict(bytelength=2, offset="1"),
    dict(bytelength=2, scale="x"),
    dict(bytelength=1, endianess="bigEndian"),
    dict(pattern=b"7e{on}ef", variables=LAMP_VARS),
    dict(pattern="7e{on}ef", variables=[("on", LAMP_VARS["on"])]),
    dict(pattern="7e{on}ef", variables={"on": 1}),
    # A number that is not an integer would reach shifts and slices.
    dict(bytelength=1.5),
    dict(bytelength=2.0),
    dict(pattern="7e{on}ef", variables=LAMP_VARS, bytelength=1.5),
    dict(bytelength=1, offset=1.0),
    dict(bytelength=1, offset=float("nan")),
    dict(bytelength=1, offset=float("inf")),
])
def test_invalid_specs_are_rejected(kwargs):
    with pytest.raises(BadValue):
        BdoSpec(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(bytelength=0),
    dict(bytelength=MAX_PAYLOAD_OCTETS + 1),
    dict(bytelength="1"),
    dict(endianess="bigEndian"),
    dict(bytelength=1.5),
    dict(bytelength=2.0),
])
def test_invalid_variable_specs_are_rejected(kwargs):
    with pytest.raises(BadValue, match="variable 'a'"):
        VariableSpec("a", **kwargs)


def test_pattern_spec_requires_variables():
    with pytest.raises(MissingVariable):
        BdoSpec(pattern="7e{on}ef", variables={})


def test_absent_variables_are_an_empty_mapping_to_a_pattern():
    with pytest.raises(MissingVariable):
        BdoSpec(pattern="7e{on}ef", variables=None)


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


@pytest.mark.parametrize("scale", [1, 1.0, 0.1, -2], ids=["1", "1.0", "0.1", "-2"])
def test_scalar_decode_reads_its_octets_from_every_kind_and_length_of_payload(scale):
    rng = random.Random(2401)
    for bytelength in range(1, 9):
        for offset in range(4):
            for signed in (False, True):
                for endianess in (Endianess.LITTLE, Endianess.BIG):
                    spec = BdoSpec(bytelength=bytelength, signed=signed, endianess=endianess,
                                   offset=offset, scale=scale)
                    byteorder = "little" if endianess is Endianess.LITTLE else "big"
                    end = offset + bytelength
                    exact = rng.randbytes(end)
                    for payload in (exact, exact + rng.randbytes(rng.randint(1, 3))):
                        raw = int.from_bytes(payload[offset:end], byteorder, signed=signed)
                        expected = raw if scale == 1 else raw * scale
                        for kind in (bytes, bytearray, memoryview):
                            value = decode(kind(payload), spec)
                            assert type(value) is type(expected) and value == expected
                        if scale == 1:
                            assert type(value) is int
                    short = exact[:-1]
                    for kind in (bytes, bytearray, memoryview):
                        with pytest.raises(TooShort) as exc_info:
                            decode(kind(short), spec)
                        assert str(exc_info.value) == (f"payload has {end - 1} octet(s), "
                                                       f"spec reads octets [{offset}, {end})")


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


# --- pattern oracle ------------------------------------------------------------------

def oracle_hex(text: str) -> bytes:
    return bytes(int(text[i:i + 2], 16) for i in range(0, len(text), 2))


def random_hex(rng: random.Random, octets: int) -> str:
    text = "".join(rng.choice("0123456789abcdef") for _ in range(2 * octets))
    return text.upper() if rng.random() < 0.3 else text


def random_pattern_case(rng: random.Random):
    """Pieces of a random pattern, its variables and a valid value for each.

    A piece is ``("hex", literal text)`` or ``("var", name)``; one of the one
    to three variables has two placeholders.
    """
    names = rng.sample("abcdef", rng.randint(1, 3))
    variables, values = {}, {}
    for name in names:
        bytelength = rng.randint(1, 4)
        endianess = rng.choice(list(Endianess))
        if rng.random() < 0.3:
            variables[name] = VariableSpec(name, VariableType.STRING_HEX, bytelength,
                                           endianess=endianess)
            values[name] = random_hex(rng, bytelength)
            continue
        signed = rng.random() < 0.5
        lo = -(256 ** bytelength // 2) if signed else 0
        hi = lo + 256 ** bytelength - 1
        minimum = rng.randint(lo, hi) if rng.random() < 0.3 else None
        maximum = rng.randint(minimum or lo, hi) if rng.random() < 0.3 else None
        variables[name] = VariableSpec(name, bytelength=bytelength, signed=signed,
                                       endianess=endianess, minimum=minimum, maximum=maximum)
        values[name] = rng.randint(lo if minimum is None else minimum,
                                   hi if maximum is None else maximum)
    order = names + [rng.choice(names)]
    rng.shuffle(order)
    pieces = []
    for name in order:
        pieces += [("hex", random_hex(rng, rng.randint(0, 3))), ("var", name)]
    pieces.append(("hex", random_hex(rng, rng.randint(0, 3))))
    return pieces, variables, values


def oracle_pattern_payload(pieces, variables, values) -> bytes:
    out = b""
    for kind, text in pieces:
        if kind == "hex":
            out += oracle_hex(text)
            continue
        var, value = variables[text], values[text]
        if var.data_type is VariableType.STRING_HEX:
            out += oracle_hex(value)
        else:
            out += oracle_payload(value, var.bytelength, var.signed,
                                  var.endianess is Endianess.LITTLE)
    return out


MISSING = object()


def random_bad_value(rng: random.Random, var: VariableSpec):
    """A value that ``var``'s placeholder refuses, and the error it raises."""
    n = var.bytelength
    if var.data_type is VariableType.STRING_HEX:
        return rng.choice([(MISSING, MissingVariable), (1, BadValue), ("zz" * n, BadValue),
                           ("abc", BadValue), ("ab" * (n + 1), OutOfRange)])
    lo = -(256 ** n // 2) if var.signed else 0
    hi = lo + 256 ** n - 1
    choices = [(MISSING, MissingVariable), (True, BadValue), (1.0, BadValue),
               ("1", BadValue), (lo - 1, OutOfRange), (hi + 1, OutOfRange)]
    if var.minimum is not None and var.minimum > lo:
        choices.append((var.minimum - 1, OutOfRange))
    if var.maximum is not None and var.maximum < hi:
        choices.append((var.maximum + 1, OutOfRange))
    return rng.choice(choices)


def test_pattern_codec_matches_oracle_on_random_patterns():
    rng = random.Random(2211)
    for _ in range(2000):
        pieces, variables, values = random_pattern_case(rng)
        pattern = "".join(text if kind == "hex" else f"{{{text}}}" for kind, text in pieces)
        spec = BdoSpec(pattern=pattern, variables=variables)
        expected = oracle_pattern_payload(pieces, variables, values)
        given = values if rng.random() < 0.7 else MappingProxyType(values)
        payload = encode(given, spec)
        assert payload == expected, pattern
        assert decode(payload, spec) == {
            name: value.lower() if isinstance(value, str) else value
            for name, value in values.items()
        }

        # Break up to two variables: the earliest placeholder of either decides.
        broken = dict(values)
        errors = {}
        for name in rng.sample(list(variables), min(2, len(variables))):
            bad, errors[name] = random_bad_value(rng, variables[name])
            if bad is MISSING:
                del broken[name]
            else:
                broken[name] = bad
        first = next(text for kind, text in pieces if kind == "var" and text in errors)
        with pytest.raises(CodecError) as raised:
            encode(broken, spec)
        assert type(raised.value) is errors[first], (pattern, broken)
        if "variable" in str(raised.value):
            assert repr(first) in str(raised.value)


def test_pattern_decode_checks_literals_and_repeats_on_random_patterns():
    rng = random.Random(2212)
    for _ in range(500):
        pieces, variables, values = random_pattern_case(rng)
        pattern = "".join(text if kind == "hex" else f"{{{text}}}" for kind, text in pieces)
        spec = BdoSpec(pattern=pattern, variables=variables)
        payload = bytearray(oracle_pattern_payload(pieces, variables, values))
        with pytest.raises(TooShort):
            decode(bytes(payload[:-1]), spec)
        with pytest.raises(PatternMismatch):
            decode(bytes(payload) + b"\x00", spec)
        # Flip one octet: in a literal, or in the second span of the repeated variable.
        spans, pos = [], 0
        for kind, text in pieces:
            size = len(text) // 2 if kind == "hex" else variables[text].bytelength
            spans.append((kind, text, pos, size))
            pos += size
        seen, targets = set(), []
        for kind, text, start, size in spans:
            if kind == "hex" and size or text in seen:
                targets.append(start + rng.randrange(size))
            if kind == "var":
                seen.add(text)
        at = rng.choice(targets)
        payload[at] ^= 1 << rng.randrange(8)
        with pytest.raises(PatternMismatch):
            decode(bytes(payload), spec)


# --- the plan against a reference step walk --------------------------------------------

def int_range(bytelength: int, signed: bool) -> tuple[int, int]:
    lo = -(256 ** bytelength // 2) if signed else 0
    return lo, lo + 256 ** bytelength - 1


def reference_octets(value, pattern: str, variables) -> bytes:
    """A pattern payload built by walking the layout's steps, each placeholder
    reading its variable's fields: the reference the plan is checked against.
    Every check but the ATT cap runs, in the module docstring's order."""
    if not isinstance(value, Mapping):
        raise BadValue("pattern spec requires a mapping of variable values")
    out = b""
    for step in compile_pattern(pattern, variables).steps:
        if isinstance(step, bytes):
            out += step
            continue
        if step not in value:
            raise MissingVariable(f"no value supplied for variable {step!r}")
        var, item = variables[step], value[step]
        size, where = var.bytelength, f"variable {var.name!r}"
        if var.data_type is VariableType.STRING_HEX:
            if not isinstance(item, str):
                raise BadValue(f"{where} expects hex text")
            try:
                octets = bytes.fromhex(item)
            except ValueError:
                raise BadValue(f"{where}: invalid hex text {item!r}") from None
            if len(octets) != size:
                raise OutOfRange(f"{where}: hex value is {len(octets)} octet(s), "
                                 f"spec says {size}")
            out += octets
            continue
        if isinstance(item, bool) or not isinstance(item, int):
            raise BadValue(f"{where} expects an integer")
        if var.minimum is not None and item < var.minimum:
            raise OutOfRange(f"{where}: {item} below minimum {var.minimum}")
        if var.maximum is not None and item > var.maximum:
            raise OutOfRange(f"{where}: {item} above maximum {var.maximum}")
        lo, hi = int_range(size, var.signed)
        if not lo <= item <= hi:
            kind = "signed" if var.signed else "unsigned"
            raise OutOfRange(f"{item} not representable in {size} octet(s) ({kind})")
        out += item.to_bytes(size, var.endianess.byteorder, signed=var.signed)
    return out


def reference_encode(value, pattern: str, variables) -> bytes:
    out = reference_octets(value, pattern, variables)
    if len(out) > MAX_PAYLOAD_OCTETS:
        raise AttLengthExceeded(
            f"payload is {len(out)} octets, ATT allows at most {MAX_PAYLOAD_OCTETS}")
    return out


def reference_decode(payload: bytes, pattern: str, variables) -> dict:
    """A pattern payload read by walking the layout's steps."""
    layout = compile_pattern(pattern, variables)
    size, total = len(payload), layout.total_octets
    if size < total:
        raise TooShort(f"payload has {size} octet(s), pattern needs {total}")
    if size > total:
        raise PatternMismatch(f"payload has {size} octet(s), pattern describes exactly {total}")
    values, pos = {}, 0
    for step in layout.steps:
        if isinstance(step, bytes):
            got = payload[pos:pos + len(step)]
            if got != step:
                raise PatternMismatch(f"literal octets differ at offset {pos}: expected "
                                      f"{step.hex()}, got {got.hex()}")
            pos += len(step)
            continue
        var = variables[step]
        octets = payload[pos:pos + var.bytelength]
        if var.data_type is VariableType.STRING_HEX:
            item = octets.hex()
        else:
            item = int.from_bytes(octets, var.endianess.byteorder, signed=var.signed)
        if step in values and values[step] != item:
            raise PatternMismatch(f"repeated variable {step!r} decodes to conflicting values")
        values[step] = item
        pos += var.bytelength
    return values


def outcome(call, *args):
    """What ``call`` returns, or the class and message of the codec error it raises."""
    try:
        return call(*args)
    except CodecError as exc:
        return type(exc), str(exc)


def random_plan_case(rng: random.Random):
    """A pattern with one to four placeholders, its variables and a valid value
    for each.

    Placeholders may repeat a name. Sizes run from 1 to 8 octets, with now
    and then 16, 256 or 512, so that some patterns pass the ATT cap. About a
    third of the variables are string-hex. An integer variable's minimum and
    maximum are each set about half the time, now and then as a float, and
    its name differs now and then from its placeholder's.
    """
    count = rng.randint(1, 4)
    names = rng.sample("uvwxyz", rng.randint(1, count))
    order = names + [rng.choice(names) for _ in range(count - len(names))]
    rng.shuffle(order)
    variables, values = {}, {}
    for name in names:
        size = rng.randint(1, 8) if rng.random() < 0.9 else rng.choice((16, 256, 512))
        signed, endianess = rng.random() < 0.5, rng.choice(list(Endianess))
        label = name if rng.random() < 0.8 else name.upper()
        if rng.random() < 0.3:
            variables[name] = VariableSpec(label, VariableType.STRING_HEX, size, signed,
                                           endianess)
            values[name] = random_hex(rng, size)
            continue
        lo, hi = int_range(size, signed)
        minimum = rng.randint(lo, hi) if rng.random() < 0.5 else None
        maximum = (rng.randint(lo if minimum is None else minimum, hi)
                   if rng.random() < 0.5 else None)
        if size <= 4 and rng.random() < 0.3:  # a float holds these exactly
            minimum, maximum = (None if m is None else float(m) for m in (minimum, maximum))
        variables[name] = VariableSpec(label, bytelength=size, signed=signed,
                                       endianess=endianess, minimum=minimum, maximum=maximum)
        values[name] = rng.randint(lo if minimum is None else math.ceil(minimum),
                                   hi if maximum is None else math.floor(maximum))
    pattern = "".join(random_hex(rng, rng.randint(0, 2)) + f"{{{name}}}" for name in order)
    return pattern + random_hex(rng, rng.randint(0, 2)), variables, values


def refused_values(var: VariableSpec) -> list:
    """One value of each kind that ``var``'s placeholder refuses."""
    n = var.bytelength
    if var.data_type is VariableType.STRING_HEX:
        return [MISSING, 1, None, b"ab" * n, "zz" * n, "abc", "ab" * (n + 1), "ab" * (n - 1)]
    lo, hi = int_range(n, var.signed)
    refused = [MISSING, True, False, 1.0, "1", None, lo - 1, hi + 1]
    if var.minimum is not None:
        refused.append(math.floor(var.minimum) - 1)
    if var.maximum is not None:
        refused.append(math.ceil(var.maximum) + 1)
    return refused


def test_the_plan_encodes_and_decodes_as_the_reference_walk_does():
    rng = random.Random(2211_1293)
    for _ in range(1500):
        pattern, variables, values = random_plan_case(rng)
        spec = BdoSpec(pattern=pattern, variables=variables)
        given = values if rng.random() < 0.7 else MappingProxyType(values)
        assert outcome(encode, given, spec) == outcome(reference_encode, values, pattern,
                                                       variables), pattern
        for value in (1, None, [("u", 1)], "u"):  # not a mapping
            assert outcome(encode, value, spec) == outcome(reference_encode, value, pattern,
                                                           variables)
        for name, var in variables.items():
            for bad in refused_values(var):
                broken = {key: item for key, item in values.items() if key != name}
                if bad is not MISSING:
                    broken[name] = bad
                expected = outcome(reference_encode, broken, pattern, variables)
                assert outcome(encode, broken, spec) == expected, (pattern, name, bad)
                assert expected.__class__ is tuple  # every one of them is refused

        payload = reference_octets(values, pattern, variables)
        flipped = bytearray(payload)
        flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
        for octets in (payload, payload[:-1], payload + b"\x00", bytes(flipped),
                       rng.randbytes(len(payload))):
            assert outcome(decode, octets, spec) == outcome(reference_decode, octets, pattern,
                                                            variables), (pattern, octets)


def test_two_parses_of_the_lamp_share_one_plan():
    text = LAMP_TD.read_text()
    first, second = (parse_td(text).properties["power"].bdo for _ in range(2))
    assert first is not second
    assert first._plan is second._plan
    assert "_plan" not in repr(first)


@pytest.mark.parametrize("tag, change", [(0xA1, {"minimum": 1}), (0xA2, {"signed": True}),
                                         (0xA3, {"endianess": Endianess.BIG})],
                         ids=["minimum", "signed", "endianess"])
def test_specs_that_differ_in_one_variable_fact_keep_their_own_plans(tag, change):
    """A plan shared by name and size alone would hand one spec the other's checks."""
    base = {"x": VariableSpec("x", bytelength=2, maximum=0xFFF0)}
    variant = {"x": replace(base["x"], **change)}
    # Either spec built first, each time on a pattern no earlier spec used.
    for order, pair in enumerate([(base, variant), (variant, base)]):
        pattern = f"{tag:02x}{order:02x}{{x}}"
        specs = [BdoSpec(pattern=pattern, variables=variables) for variables in pair]
        assert specs[0]._plan is not specs[1]._plan
        assert plan_names(specs[0]) == plan_names(specs[1])
        for spec, variables in zip(specs, pair):
            for value in (-1, 0, 1, 0x7FFF, 0x8000, 0xFFF0, 0xFFFF):
                assert outcome(encode, {"x": value}, spec) == outcome(
                    reference_encode, {"x": value}, pattern, variables)
            for octets in (b"\x01\x00", b"\xff\xff"):
                payload = bytes.fromhex(pattern[:4]) + octets
                assert outcome(decode, payload, spec) == outcome(
                    reference_decode, payload, pattern, variables)


def test_bounds_that_are_equal_numbers_share_a_plan_but_not_a_message():
    ints = BdoSpec(pattern="ab{x}", variables={"x": VariableSpec("x", minimum=1, maximum=2)})
    floats = BdoSpec(pattern="ab{x}",
                     variables={"x": VariableSpec("x", minimum=1.0, maximum=2.0)})
    assert ints._plan is floats._plan
    for spec, low, high in ((ints, "1", "2"), (floats, "1.0", "2.0")):
        with pytest.raises(OutOfRange) as below:
            encode({"x": 0}, spec)
        with pytest.raises(OutOfRange) as above:
            encode({"x": 3}, spec)
        assert str(below.value) == f"variable 'x': 0 below minimum {low}"
        assert str(above.value) == f"variable 'x': 3 above maximum {high}"


# --- call budget -----------------------------------------------------------------------

LAMP_POWER = parse_td_file(LAMP_TD).properties["power"].bdo
SENSOR_TEMPERATURE = parse_td_file(SENSOR_TD).properties["temperature"].bdo

#: One codec call per fixture spec, with the most Python calls it may make.
CODEC_CALL_BUDGETS = {
    "lamp-encode": (encode, {"on": 1}, LAMP_POWER, 2),
    "lamp-decode": (decode, bytes.fromhex("7e00040100000000ef"), LAMP_POWER, 6),
    "temperature-encode": (encode, 21.5, SENSOR_TEMPERATURE, 7),
    "temperature-decode": (decode, bytes([0xD7, 0x00]), SENSOR_TEMPERATURE, 3),
}


@pytest.mark.parametrize("case", CODEC_CALL_BUDGETS)
def test_codec_stays_within_its_call_budget(case):
    """Per-layout work happens once, when the spec is built, not on each call."""
    call, value, spec, budget = CODEC_CALL_BUDGETS[case]
    call(value, spec)  # fill the ABC caches first
    calls = calls_per(lambda i: call(value, spec), 100)
    assert calls <= budget, f"{calls} calls per {case}"


# --- codec registry ------------------------------------------------------------------

@pytest.mark.parametrize("media_type", [BINARY_DATA_STREAM, "Application/X.Binary-Data-Stream"])
def test_registry_returns_binary_data_stream_codec(media_type):
    codec = get_codec(media_type)
    assert codec.encode(1, BdoSpec(bytelength=1)) == bytes([0x01])
    # The codec's calls are the module's functions: no wrapper frame.
    assert (codec.encode, codec.decode) == (encode, decode)


@pytest.mark.parametrize("call, message", [
    (lambda: encode("not a number", None), "no binary layout declared"),
    (lambda: encode({"on": 1}, None), "no binary layout declared"),
    (lambda: decode("not octets", None), "no binary layout declared"),
    (lambda: decode(b"", None), "no binary layout declared"),
    (lambda: encode(1, 5), "^expected a BdoSpec, got int$"),
    (lambda: decode(b"\x01", 5), "^expected a BdoSpec, got int$"),
], ids=["encode-bad-value", "encode-mapping", "decode-bad-payload", "decode-empty",
        "encode-int-spec", "decode-int-spec"])
def test_a_missing_layout_is_the_first_error_of_the_codec(call, message):
    with pytest.raises(BadValue, match=message):
        call()


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


@pytest.mark.parametrize("media_type", [5, None, b"application/octet-stream"])
def test_content_types_that_are_not_text_are_rejected(media_type):
    with pytest.raises(UnsupportedMediaType):
        get_codec(media_type)
