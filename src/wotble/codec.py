"""The application/x.binary-data-stream codec.

Converts between application values and octet payloads as described by a
:class:`BdoSpec`. Two shapes are supported:

* scalar: one integer value at ``offset`` octets into the payload, scaled,
  sign-extended, and byte-ordered per the spec;
* pattern: a hex template such as ``"7e0004{on}00000000ef"`` whose ``{name}``
  placeholders stand for independently described variables.

A small registry maps content-type strings to codecs. Unrecognized
``application/*`` subtypes fall back to a plain octet passthrough.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Mapping, Union

from .errors import (
    AttLengthExceeded,
    BadHexPattern,
    BadValue,
    MissingVariable,
    OutOfRange,
    PatternMismatch,
    TooShort,
    UnsupportedMediaType,
)

#: Media type string this codec registers under.
BINARY_DATA_STREAM = "application/x.binary-data-stream"

#: ATT caps attribute values at 512 octets.
MAX_PAYLOAD_OCTETS = 512

Scalar = Union[int, float]
Value = Union[Scalar, Mapping[str, Union[int, str]]]


class Endianess(str, Enum):
    LITTLE = "littleEndian"
    BIG = "bigEndian"

    @property
    def byteorder(self) -> str:
        return "little" if self is Endianess.LITTLE else "big"


class VariableType(str, Enum):
    INTEGER = "integer"
    STRING_HEX = "string-hex"


_STRING_HEX = VariableType.STRING_HEX


@dataclass(frozen=True)
class VariableSpec:
    """Description of one ``{name}`` placeholder inside a pattern.

    ``_byteorder`` is derived: ``endianess`` as ``int.to_bytes`` spells it,
    set once at construction and left out of equality and repr.
    """

    name: str
    data_type: VariableType = VariableType.INTEGER
    bytelength: int = 1
    signed: bool = False
    endianess: Endianess = Endianess.LITTLE
    minimum: int | None = None
    maximum: int | None = None
    _byteorder: str = field(default="little", init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.bytelength <= MAX_PAYLOAD_OCTETS:
            raise BadValue(f"variable {self.name!r}: bytelength must be 1 to "
                           f"{MAX_PAYLOAD_OCTETS}")
        object.__setattr__(self, "_byteorder", self.endianess.byteorder)


@dataclass(frozen=True)
class BdoSpec:
    """Binary layout of a characteristic value.

    Defaults follow the binary-data vocabulary: unsigned, little-endian,
    offset 0, scale 1.0. ``bytelength`` is required unless a pattern supplies
    the layout; when a pattern is present every placeholder must have an
    entry in ``variables``.

    Three fields are derived once at construction, for every later encode
    and decode, and take no part in equality or repr: ``_layout``, the
    compiled pattern (None without one); ``_byteorder``, ``endianess`` as
    ``int.to_bytes`` spells it; and ``_end``, ``offset + bytelength``, where
    a scalar value's octets end (None without a bytelength).
    """

    bytelength: int | None = None
    signed: bool = False
    endianess: Endianess = Endianess.LITTLE
    offset: int = 0
    scale: float = 1.0
    pattern: str | None = None
    variables: Mapping[str, VariableSpec] = field(default_factory=dict)
    _layout: "PatternLayout | None" = field(default=None, init=False, compare=False,
                                            repr=False)
    _byteorder: str = field(default="little", init=False, compare=False, repr=False)
    _end: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.pattern is None and self.bytelength is None:
            raise BadValue("spec needs a bytelength or a pattern")
        if self.bytelength is not None and not 1 <= self.bytelength <= MAX_PAYLOAD_OCTETS:
            raise BadValue(f"bytelength must be 1 to {MAX_PAYLOAD_OCTETS}")
        if self.offset < 0:
            raise BadValue("offset must be >= 0")
        if not math.isfinite(self.scale) or self.scale == 0:
            raise BadValue("scale must be finite and nonzero")
        if self.pattern is not None:
            # Validates placeholder coverage and literal runs up front, and
            # keeps the result for every later encode and decode.
            object.__setattr__(self, "_layout", _shared_layout(self.pattern, self.variables))
        object.__setattr__(self, "_byteorder", self.endianess.byteorder)
        if self.bytelength is not None:
            object.__setattr__(self, "_end", self.offset + self.bytelength)

    def layout(self) -> "PatternLayout":
        if self._layout is None:
            raise BadValue("spec has no pattern")
        return self._layout


@dataclass(frozen=True)
class LiteralSegment:
    octets: bytes


@dataclass(frozen=True)
class VariableSegment:
    name: str
    bytelength: int


@dataclass(frozen=True)
class PatternLayout:
    """Ordered literal/variable segments compiled from a pattern string."""

    segments: tuple[LiteralSegment | VariableSegment, ...]

    @property
    def total_octets(self) -> int:
        return sum(
            len(s.octets) if isinstance(s, LiteralSegment) else s.bytelength
            for s in self.segments
        )


_PLACEHOLDER_RE = re.compile(r"\{([^{}]*)\}")
_HEX_RUN_RE = re.compile(r"^[0-9A-Fa-f]*$")


def compile_pattern(pattern: str, variables: Mapping[str, VariableSpec]) -> PatternLayout:
    """Split a hex template into literal and variable segments.

    Literal runs must contain an even number of hex digits. A placeholder may
    repeat, in which case both spans carry the same variable.
    """
    segments: list[LiteralSegment | VariableSegment] = []
    pos = 0
    for m in _PLACEHOLDER_RE.finditer(pattern):
        _append_literal(segments, pattern[pos:m.start()])
        name = m.group(1)
        if not name:
            raise BadHexPattern("empty placeholder {} in pattern")
        if name not in variables:
            raise MissingVariable(f"pattern placeholder {{{name}}} has no variable spec")
        segments.append(VariableSegment(name, variables[name].bytelength))
        pos = m.end()
    tail = pattern[pos:]
    if "{" in tail or "}" in tail:
        raise BadHexPattern(f"unbalanced braces in pattern {pattern!r}")
    _append_literal(segments, tail)
    return PatternLayout(tuple(segments))


#: Distinct (pattern, variable sizes) pairs whose layout is kept.
_LAYOUT_CACHE_SIZE = 256


def _shared_layout(pattern: str, variables: Mapping[str, VariableSpec]) -> PatternLayout:
    """``compile_pattern``, run once per pattern text and variable sizes.

    A layout depends only on the pattern and each variable's bytelength, so
    specs that agree on those share one. Failures are not kept: they raise
    anew on every call. A pattern that is not a ``str`` skips the cache, so
    it fails exactly as ``compile_pattern`` makes it fail.
    """
    if type(pattern) is not str:
        return compile_pattern(pattern, variables)
    return _layout_of(pattern, tuple((name, var.bytelength)
                                     for name, var in variables.items()))


@lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _layout_of(pattern: str, sizes: tuple) -> PatternLayout:
    return compile_pattern(pattern, {name: VariableSpec(name, bytelength=bytelength)
                                     for name, bytelength in sizes})


def _append_literal(segments: list, run: str) -> None:
    if not run:
        return
    if "{" in run or "}" in run:
        raise BadHexPattern(f"malformed placeholder in pattern near {run!r}")
    if not _HEX_RUN_RE.match(run):
        raise BadHexPattern(f"non-hex characters in pattern literal {run!r}")
    if len(run) % 2 != 0:
        raise BadHexPattern(f"odd-length hex literal {run!r}")
    segments.append(LiteralSegment(bytes.fromhex(run)))


def _int_bounds(bytelength: int, signed: bool) -> tuple[int, int]:
    if signed:
        half = 1 << (8 * bytelength - 1)
        return -half, half - 1
    return 0, (1 << (8 * bytelength)) - 1


def _to_raw_integer(value: Scalar, scale: float) -> int:
    """Apply the encode-side scale: divide and round half to even."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadValue(f"expected a numeric value, got {type(value).__name__}")
    if scale == 1:
        # Integer fast path; keeps 8-octet values exact.
        return value if isinstance(value, int) else round(value)
    return round(value / scale)


def _encode_integer(raw: int, bytelength: int, signed: bool, byteorder: str) -> bytes:
    lo, hi = _int_bounds(bytelength, signed)
    if not lo <= raw <= hi:
        raise OutOfRange(
            f"{raw} not representable in {bytelength} octet(s) "
            f"({'signed' if signed else 'unsigned'})"
        )
    return raw.to_bytes(bytelength, byteorder, signed=signed)


def _encode_variable(var: VariableSpec, value) -> bytes:
    if var.data_type is _STRING_HEX:
        if not isinstance(value, str):
            raise BadValue(f"variable {var.name!r} expects hex text")
        try:
            octets = bytes.fromhex(value)
        except ValueError as exc:
            raise BadValue(f"variable {var.name!r}: invalid hex text {value!r}") from exc
        if len(octets) != var.bytelength:
            raise OutOfRange(
                f"variable {var.name!r}: hex value is {len(octets)} octet(s), "
                f"spec says {var.bytelength}"
            )
        return octets
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadValue(f"variable {var.name!r} expects an integer")
    if var.minimum is not None and value < var.minimum:
        raise OutOfRange(f"variable {var.name!r}: {value} below minimum {var.minimum}")
    if var.maximum is not None and value > var.maximum:
        raise OutOfRange(f"variable {var.name!r}: {value} above maximum {var.maximum}")
    return _encode_integer(value, var.bytelength, var.signed, var._byteorder)


def _decode_variable(var: VariableSpec, octets: bytes):
    if var.data_type is _STRING_HEX:
        return octets.hex()
    return int.from_bytes(octets, var._byteorder, signed=var.signed)


def encode(value: Value, spec: BdoSpec) -> bytes:
    """Encode an application value into an octet payload.

    Scalar specs take a number; pattern specs take a mapping that supplies
    every variable. The result never exceeds 512 octets.
    """
    if spec.pattern is not None:
        if not isinstance(value, Mapping):
            raise BadValue("pattern spec requires a mapping of variable values")
        payload = _encode_pattern(value, spec)
        _check_att_length(len(payload))
        return payload
    if isinstance(value, Mapping):
        raise BadValue("scalar spec got a mapping; no pattern is defined")
    _check_att_length(spec._end)  # before the offset's zero octets are built
    raw = _to_raw_integer(value, spec.scale)
    body = _encode_integer(raw, spec.bytelength, spec.signed, spec._byteorder)
    return bytes(spec.offset) + body


def _check_att_length(octets: int) -> None:
    if octets > MAX_PAYLOAD_OCTETS:
        raise AttLengthExceeded(
            f"payload is {octets} octets, ATT allows at most {MAX_PAYLOAD_OCTETS}"
        )


def _encode_pattern(values: Mapping, spec: BdoSpec) -> bytes:
    out = bytearray()
    for segment in spec.layout().segments:
        if isinstance(segment, LiteralSegment):
            out += segment.octets
            continue
        if segment.name not in values:
            raise MissingVariable(f"no value supplied for variable {segment.name!r}")
        out += _encode_variable(spec.variables[segment.name], values[segment.name])
    return bytes(out)


def decode(payload: bytes, spec: BdoSpec) -> Value:
    """Decode an octet payload back into an application value.

    Scalar specs return ``raw * scale`` (an int when scale is 1, a float
    otherwise); pattern specs verify the literal octets and return a
    name-to-value mapping. Hex-string variables decode to lowercase hex text.
    """
    if spec.pattern is not None:
        return _decode_pattern(payload, spec)
    end = spec._end
    if len(payload) < end:
        raise TooShort(
            f"payload has {len(payload)} octet(s), spec reads octets "
            f"[{spec.offset}, {end})"
        )
    raw = int.from_bytes(payload[spec.offset:end], spec._byteorder, signed=spec.signed)
    if spec.scale == 1:
        return raw
    return raw * spec.scale


def _decode_pattern(payload: bytes, spec: BdoSpec) -> dict:
    layout = spec.layout()
    if len(payload) < layout.total_octets:
        raise TooShort(
            f"payload has {len(payload)} octet(s), pattern needs {layout.total_octets}"
        )
    if len(payload) > layout.total_octets:
        raise PatternMismatch(
            f"payload has {len(payload)} octet(s), pattern describes exactly "
            f"{layout.total_octets}"
        )
    values: dict = {}
    pos = 0
    for segment in layout.segments:
        if isinstance(segment, LiteralSegment):
            span = payload[pos:pos + len(segment.octets)]
            if span != segment.octets:
                raise PatternMismatch(
                    f"literal octets differ at offset {pos}: expected "
                    f"{segment.octets.hex()}, got {span.hex()}"
                )
            pos += len(segment.octets)
            continue
        span = payload[pos:pos + segment.bytelength]
        decoded = _decode_variable(spec.variables[segment.name], span)
        if segment.name in values and values[segment.name] != decoded:
            raise PatternMismatch(
                f"repeated variable {segment.name!r} decodes to conflicting values"
            )
        values[segment.name] = decoded
        pos += segment.bytelength
    return values


# --- codec registry ----------------------------------------------------------


class BinaryDataStreamCodec:
    """Codec object for application/x.binary-data-stream."""

    media_type = BINARY_DATA_STREAM

    def encode(self, value: Value, spec: BdoSpec) -> bytes:
        if spec is None:
            raise BadValue("no binary layout declared for this affordance")
        return encode(value, spec)

    def decode(self, payload: bytes, spec: BdoSpec) -> Value:
        if spec is None:
            raise BadValue("no binary layout declared for this affordance")
        return decode(payload, spec)


class OctetStreamCodec:
    """Raw passthrough; the RFC 1521 fallback for unknown application subtypes."""

    media_type = "application/octet-stream"

    def encode(self, value, spec=None) -> bytes:
        if not isinstance(value, (bytes, bytearray)):
            raise BadValue("octet-stream passthrough takes raw bytes")
        payload = bytes(value)
        _check_att_length(len(payload))
        return payload

    def decode(self, payload: bytes, spec=None) -> bytes:
        return bytes(payload)


_REGISTRY = {
    BINARY_DATA_STREAM: BinaryDataStreamCodec(),
    "application/octet-stream": OctetStreamCodec(),
}


def register_codec(media_type: str, codec) -> None:
    _REGISTRY[media_type.lower()] = codec


def get_codec(media_type: str):
    """Look up the codec for a content type.

    Unrecognized ``application/*`` subtypes are interpreted as octet-stream;
    anything else is an error.
    """
    normalized = media_type.split(";")[0].strip().lower()
    codec = _REGISTRY.get(normalized)
    if codec is not None:
        return codec
    if normalized.startswith("application/"):
        return _REGISTRY["application/octet-stream"]
    raise UnsupportedMediaType(f"no codec for content type {media_type!r}")
