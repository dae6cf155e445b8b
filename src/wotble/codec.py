"""The application/x.binary-data-stream codec.

Converts between application values and octet payloads as described by a
:class:`BdoSpec`. Two shapes are supported:

* scalar: one integer value at ``offset`` octets into the payload, scaled,
  sign-extended, and byte-ordered per the spec;
* pattern: a hex template such as ``"7e0004{on}00000000ef"`` whose ``{name}``
  placeholders stand for independently described variables.

Everything that depends only on a layout is worked out once, when the spec
is built, and kept in one derived field per shape. A pattern spec keeps
``_plan``: the pattern's total octets and its steps, each literal run as
its octets and each placeholder as its variable's facts (bytelength, kind,
``minimum``/``maximum``, integer bounds, byte order, sign), so no check
reads a variable again. Plans are shared between specs through one bounded
``lru_cache`` table per pattern and variable facts (``_plan_of``), so a
fresh parse of a known TD reuses them. A scalar spec keeps its ``_scalar``
tuple of ``(offset, end, byteorder, signed, scale, lo, hi)``, with
``scale`` None when it is 1 and ``lo``/``hi`` its integer bounds.
:func:`encode` walks the plan in its own frame, calling out only for a
string-hex variable, and :func:`decode` walks the same plan or unpacks that
tuple; each makes only the checks that depend on the value. Each first raises
``BadValue`` for a spec of None (no layout declared), or for any other
object that is not a :class:`BdoSpec`, then checks, in this order:

* pattern encode: the mapping check (``BadValue``), then each placeholder in
  pattern order (``MissingVariable``, then the variable's own ``BadValue`` or
  ``OutOfRange``), then ``AttLengthExceeded``, once the payload is built;
* scalar encode: the mapping check (``BadValue``), ``AttLengthExceeded`` on
  ``offset + bytelength``, ``BadValue`` for a value that is not a number,
  then ``BadValue`` for NaN, then ``OutOfRange`` for an infinity or an int
  that a scale other than 1 turns into a float too large, then
  ``OutOfRange`` for a raw integer that ``bytelength`` octets do not hold;
* decode: ``BadValue`` for a payload that is not ``bytes``, ``bytearray`` or
  ``memoryview``, then ``TooShort``, then (patterns) ``PatternMismatch``.

:func:`get_codec` maps a content-type string to one of two fixed codecs:
this module itself, whose :func:`encode` and :func:`decode` a caller then
calls directly, or, for any other ``application/*`` subtype, a plain octet
passthrough.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Union

from .errors import (
    AttLengthExceeded,
    BadHexPattern,
    BadValue,
    MissingVariable,
    OutOfRange,
    PatternMismatch,
    TooShort,
    UnsupportedMediaType,
    shown,
)

#: Media type string of this codec.
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
_LITTLE = Endianess.LITTLE
_BIG = Endianess.BIG

#: A finite float lies in [-_FLOAT_MAX, _FLOAT_MAX], and so does an int that
#: a float holds, but for a sliver just past it. A range test costs no call,
#: so it passes the common number, and one outside goes to the full check.
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True, init=False)
class VariableSpec:
    """Description of one ``{name}`` placeholder inside a pattern.

    Three fields are derived in ``__init__``, for every later encode and
    decode, and take no part in equality or repr: ``_byteorder``,
    ``endianess`` as ``int.to_bytes`` spells it; and ``_lo`` and ``_hi``, the
    least and greatest integer that ``bytelength`` octets hold, signed or
    not. A ``bytelength`` that is not an integer, or an ``endianess`` that
    is not an ``Endianess``, raises ``BadValue``.

    Encoding an integer variable checks, in this order: the value's type
    (``BadValue``), ``minimum`` and ``maximum``, then ``_lo``/``_hi`` (each
    ``OutOfRange``). A string-hex variable checks the type and the hex text
    (``BadValue``), then the octet count (``OutOfRange``).
    """

    name: str
    data_type: VariableType = VariableType.INTEGER
    bytelength: int = 1
    signed: bool = False
    endianess: Endianess = Endianess.LITTLE
    minimum: int | None = None
    maximum: int | None = None
    _byteorder: str = field(default="little", init=False, compare=False, repr=False)
    _lo: int = field(default=0, init=False, compare=False, repr=False)
    _hi: int = field(default=0xFF, init=False, compare=False, repr=False)

    # Hand-written: the generated __init__ of a frozen dataclass makes one
    # call per field to get past the frozen __setattr__, and takes twice as long.
    def __init__(self, name, data_type=VariableType.INTEGER, bytelength=1, signed=False,
                 endianess=Endianess.LITTLE, minimum=None, maximum=None):
        try:
            if not 1 <= bytelength <= MAX_PAYLOAD_OCTETS:
                raise BadValue(f"variable {name!r}: bytelength must be 1 to "
                               f"{MAX_PAYLOAD_OCTETS}")
            # The bounds and Endianess.byteorder, worked out inline: this runs
            # for every variable of every TD parsed.
            half = 1 << (8 * bytelength - 1)  # a TypeError unless an integer
            lo, hi = (-half, half - 1) if signed else (0, 2 * half - 1)
            byteorder = ("little" if endianess is _LITTLE else "big" if endianess is _BIG
                         else endianess.byteorder)  # an AttributeError unless an Endianess
        except (TypeError, AttributeError) as exc:
            raise BadValue(f"variable {name!r}: field of the wrong type ({exc})") from None
        self.__dict__.update(name=name, data_type=data_type, bytelength=bytelength,
                             signed=signed, endianess=endianess, minimum=minimum,
                             maximum=maximum, _byteorder=byteorder, _lo=lo, _hi=hi)


@dataclass(frozen=True, init=False)
class BdoSpec:
    """Binary layout of a characteristic value.

    Defaults follow the binary-data vocabulary: unsigned, little-endian,
    offset 0, scale 1.0. ``bytelength`` is required unless a pattern supplies
    the layout; when a pattern is present every placeholder must have an
    entry in ``variables`` (None stands for a fresh empty mapping). A field
    of the wrong type, such as a ``bytelength`` or ``offset`` that is not an
    integer, raises ``BadValue``.

    Two fields are derived in ``__init__``, for every later encode and
    decode, and take no part in equality or repr: ``_plan``, the pattern's
    total octets and its steps with each variable's facts in place of its
    name (None without a pattern; see ``_plan_of``); and ``_scalar``, the
    scalar layout as the plain tuple ``(offset, end, byteorder, signed,
    scale, lo, hi)``, where ``end`` is ``offset + bytelength``,
    ``byteorder`` is ``endianess`` as ``int.to_bytes`` spells it, ``scale``
    is None when it equals 1, and ``lo`` and ``hi`` are the least and
    greatest raw integer that ``bytelength`` octets hold, signed or not
    (None without a bytelength).
    """

    bytelength: int | None = None
    signed: bool = False
    endianess: Endianess = Endianess.LITTLE
    offset: int = 0
    scale: float = 1.0
    pattern: str | None = None
    variables: Mapping[str, VariableSpec] = field(default_factory=dict)
    _plan: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _scalar: tuple | None = field(default=None, init=False, compare=False, repr=False)

    # Hand-written for the reason VariableSpec's is.
    def __init__(self, bytelength=None, signed=False, endianess=Endianess.LITTLE, offset=0,
                 scale=1.0, pattern=None, variables=None):
        variables = {} if variables is None else variables
        if pattern is None and bytelength is None:
            raise BadValue("spec needs a bytelength or a pattern")
        try:
            if bytelength is not None and not 1 <= bytelength <= MAX_PAYLOAD_OCTETS:
                raise BadValue(f"bytelength must be 1 to {MAX_PAYLOAD_OCTETS}")
            if offset < 0:
                raise BadValue("offset must be >= 0")
            if offset.__class__ is not int and not isinstance(offset, int):
                raise BadValue(f"offset must be an integer, got {type(offset).__name__}")
            # Bounds, math.isfinite and Endianess.byteorder inline, as in
            # VariableSpec.
            if bytelength is not None:
                half = 1 << (8 * bytelength - 1)  # a TypeError unless an integer
                lo, hi = (-half, half - 1) if signed else (0, 2 * half - 1)
            finite = (-_FLOAT_MAX <= scale <= _FLOAT_MAX if scale.__class__ is float
                      else math.isfinite(scale))
            if not finite or scale == 0:
                raise BadValue("scale must be finite and nonzero")
            # Validates placeholder coverage and literal runs up front, and
            # keeps the result for every later encode and decode. Each
            # variable's facts are its plan step (see _plan_of).
            plan = None if pattern is None else _plan_of(pattern, tuple(
                [(name, var.bytelength, var.data_type is _STRING_HEX, var.minimum,
                  var.maximum, var._lo, var._hi, var._byteorder, var.signed)
                 for name, var in variables.items()]))
            byteorder = ("little" if endianess is _LITTLE else "big" if endianess is _BIG
                         else endianess.byteorder)
        except (TypeError, AttributeError) as exc:
            raise BadValue(f"spec field of the wrong type ({exc})") from None
        scalar = None if bytelength is None else (
            offset, offset + bytelength, byteorder, signed, None if scale == 1 else scale, lo, hi)
        self.__dict__.update(bytelength=bytelength, signed=signed, endianess=endianess,
                             offset=offset, scale=scale, pattern=pattern, variables=variables,
                             _plan=plan, _scalar=scalar)


@dataclass(frozen=True)
class PatternLayout:
    """A pattern string compiled for encode and decode to walk.

    ``steps`` has one entry per literal run or placeholder, in pattern
    order: a literal run's octets (``bytes``) or a placeholder's variable
    name (``str``). ``total_octets`` is the length of every payload the
    pattern describes.
    """

    steps: tuple[bytes | str, ...]
    total_octets: int


_PLACEHOLDER_RE = re.compile(r"\{([^{}]*)\}")
_HEX_RUN_RE = re.compile(r"[0-9A-Fa-f]*")


def compile_pattern(pattern: str, variables: Mapping[str, VariableSpec]) -> PatternLayout:
    """Split a hex template into literal octets and variable names.

    Literal runs must contain an even number of hex digits. A placeholder may
    repeat, in which case both spans carry the same variable.
    """
    steps: list[bytes | str] = []
    pos = 0
    for m in _PLACEHOLDER_RE.finditer(pattern):
        _append_literal(steps, pattern[pos:m.start()])
        name = m.group(1)
        if not name:
            raise BadHexPattern("empty placeholder {} in pattern")
        if name not in variables:
            raise MissingVariable(f"pattern placeholder {{{name}}} has no variable spec")
        steps.append(name)
        pos = m.end()
    tail = pattern[pos:]
    if "{" in tail or "}" in tail:
        raise BadHexPattern(f"unbalanced braces in pattern {pattern!r}")
    _append_literal(steps, tail)
    total = sum([len(step) if step.__class__ is bytes else variables[step].bytelength
                 for step in steps])
    return PatternLayout(tuple(steps), total)


#: Plans the cache keeps, one per pattern and variable facts.
_PLAN_CACHE_SIZE = 256


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan_of(pattern: str, facts: tuple) -> tuple:
    """The total octets of ``pattern`` and its plan, built once per pattern and facts.

    ``facts`` holds one ``(name, bytelength, hexed, minimum, maximum, lo, hi,
    byteorder, signed)`` per variable, ``hexed`` true for string-hex. The
    plan is ``compile_pattern``'s steps with each name replaced by its facts,
    so a placeholder carries what its checks read. Specs with equal facts
    share one plan; a minimum of ``0`` and of ``0.0`` check alike, and each
    error message reads the spec's own variable. Failures are not kept: they
    raise anew on every call.
    """
    steps = {fact[0]: fact for fact in facts}
    layout = compile_pattern(pattern, {name: VariableSpec(name, bytelength=fact[1])
                                       for name, fact in steps.items()})
    return layout.total_octets, tuple([step if step.__class__ is bytes else steps[step]
                                       for step in layout.steps])


def _append_literal(steps: list, run: str) -> None:
    if not run:
        return
    if "{" in run or "}" in run:
        raise BadHexPattern(f"malformed placeholder in pattern near {run!r}")
    if not _HEX_RUN_RE.fullmatch(run):
        raise BadHexPattern(f"non-hex characters in pattern literal {run!r}")
    if len(run) % 2 != 0:
        raise BadHexPattern(f"odd-length hex literal {run!r}")
    steps.append(bytes.fromhex(run))


def _out_of_range(raw: int, bytelength: int, signed: bool) -> OutOfRange:
    return OutOfRange(f"{shown(raw)} not representable in {bytelength} octet(s) "
                      f"({'signed' if signed else 'unsigned'})")


def _to_raw_integer(value: Scalar, scale: float | None) -> int:
    """Apply the encode-side scale, None for 1: divide and round half to even."""
    kind = value.__class__  # an exact int or float makes no isinstance call
    if kind is not int and kind is not float and (
            isinstance(value, bool) or not isinstance(value, (int, float))):
        raise BadValue(f"expected a numeric value, got {type(value).__name__}")
    if scale is None:
        # Integer fast path; keeps 8-octet values exact.
        return value if isinstance(value, int) else round(value)
    return round(value / scale)


def _hex_octets(var: VariableSpec, value) -> bytes:
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


def encode(value: Value, spec: BdoSpec | None) -> bytes:
    """Encode an application value into an octet payload.

    Scalar specs take a number; pattern specs take a mapping that supplies
    every variable. The result never exceeds 512 octets. The checks run in
    the order the module docstring gives.
    """
    try:
        plan = spec._plan
    except AttributeError:
        raise _not_a_spec(spec) from None
    if plan is not None:
        if value.__class__ is not dict and not isinstance(value, Mapping):
            raise BadValue("pattern spec requires a mapping of variable values")
        # The plan's walk, in this frame: a check that fails reads the
        # spec's own variable for its message.
        payload = b""
        for step in plan[1]:
            if step.__class__ is bytes:
                payload += step
                continue
            name, size, hexed, minimum, maximum, lo, hi, byteorder, signed = step
            if name not in value:
                raise MissingVariable(f"no value supplied for variable {name!r}")
            number = value[name]
            if hexed:
                payload += _hex_octets(spec.variables[name], number)
                continue
            if number.__class__ is not int and (isinstance(number, bool)
                                                or not isinstance(number, int)):
                raise BadValue(f"variable {spec.variables[name].name!r} expects an integer")
            if minimum is not None and number < minimum:
                var = spec.variables[name]
                raise OutOfRange(f"variable {var.name!r}: {shown(number)} below minimum "
                                 f"{var.minimum}")
            if maximum is not None and number > maximum:
                var = spec.variables[name]
                raise OutOfRange(f"variable {var.name!r}: {shown(number)} above maximum "
                                 f"{var.maximum}")
            if not lo <= number <= hi:
                raise _out_of_range(number, spec.variables[name].bytelength, signed)
            payload += number.to_bytes(size, byteorder, signed=signed)
        if plan[0] > MAX_PAYLOAD_OCTETS:  # the payload's length
            raise _too_long(plan[0])
        return payload
    if value.__class__ is dict or isinstance(value, Mapping):
        raise BadValue("scalar spec got a mapping; no pattern is defined")
    offset, end, byteorder, signed, scale, lo, hi = spec._scalar
    if end > MAX_PAYLOAD_OCTETS:  # before the offset's zero octets are built
        raise _too_long(end)
    try:
        raw = _to_raw_integer(value, scale)
    except ValueError:  # round() of a NaN
        raise BadValue("expected a number, got NaN") from None
    except OverflowError:  # round() of an infinity, or an int past a float
        raise OutOfRange(f"value is infinite or too large for a float; not representable "
                         f"in {spec.bytelength} octet(s) at scale {spec.scale}") from None
    if not lo <= raw <= hi:
        raise _out_of_range(raw, spec.bytelength, signed)
    return bytes(offset) + raw.to_bytes(end - offset, byteorder, signed=signed)


def _not_a_spec(spec) -> BadValue:
    """The first error for a ``spec`` without a plan: None, or not a BdoSpec."""
    return BadValue("no binary layout declared for this affordance" if spec is None
                    else f"expected a BdoSpec, got {type(spec).__name__}")


def _too_long(octets: int) -> AttLengthExceeded:
    return AttLengthExceeded(f"payload is {octets} octets, ATT allows at most "
                             f"{MAX_PAYLOAD_OCTETS}")


_OCTET_TYPES = (bytes, bytearray, memoryview)


def decode(payload: bytes, spec: BdoSpec | None) -> Value:
    """Decode an octet payload back into an application value.

    The payload must be ``bytes``, ``bytearray`` or ``memoryview``. Scalar
    specs return ``raw * scale`` (an int when scale is 1, a float
    otherwise); pattern specs verify the length and the literal octets and
    return a name-to-value mapping. Hex-string variables decode to lowercase
    hex text.
    """
    try:
        plan = spec._plan
    except AttributeError:
        raise _not_a_spec(spec) from None
    if payload.__class__ is not bytes and not isinstance(payload, _OCTET_TYPES):
        raise BadValue("a payload must be bytes, bytearray or memoryview, "
                       f"got {type(payload).__name__}")
    if plan is not None:
        return _decode_pattern(payload, plan[0], plan[1])
    offset, end, byteorder, signed, scale, _, _ = spec._scalar
    size = len(payload)
    if size < end:
        raise TooShort(f"payload has {size} octet(s), spec reads octets [{offset}, {end})")
    # A payload that is exactly the value's octets is read as it is, unsliced.
    raw = int.from_bytes(payload if size == end and not offset else payload[offset:end],
                         byteorder, signed=signed)
    return raw if scale is None else raw * scale


def _decode_pattern(payload: bytes, total: int, steps: tuple) -> dict:
    size = len(payload)
    if size < total:
        raise TooShort(f"payload has {size} octet(s), pattern needs {total}")
    if size > total:
        raise PatternMismatch(f"payload has {size} octet(s), pattern describes exactly {total}")
    values: dict = {}
    pos = 0
    for step in steps:
        if step.__class__ is bytes:
            end = pos + len(step)
            if payload[pos:end] != step:
                raise PatternMismatch(
                    f"literal octets differ at offset {pos}: expected "
                    f"{step.hex()}, got {payload[pos:end].hex()}"
                )
            pos = end
            continue
        name, octets, hexed, _, _, _, _, byteorder, signed = step
        end = pos + octets
        if hexed:
            decoded = payload[pos:end].hex()
        else:
            decoded = int.from_bytes(payload[pos:end], byteorder, signed=signed)
        if name in values and values[name] != decoded:
            raise PatternMismatch(f"repeated variable {name!r} decodes to conflicting values")
        values[name] = decoded
        pos = end
    return values


# --- codec lookup ------------------------------------------------------------


class OctetStreamCodec:
    """Raw passthrough; the RFC 1521 fallback for unknown application subtypes.

    ``encode`` takes ``bytes``, ``bytearray`` or ``memoryview``, as a
    transport's ``write`` does, and returns ``bytes``.
    """

    def encode(self, value, spec=None) -> bytes:
        if not isinstance(value, _OCTET_TYPES):
            raise BadValue("octet-stream passthrough takes bytes, bytearray or memoryview, "
                           f"got {type(value).__name__}")
        payload = bytes(value)
        if len(payload) > MAX_PAYLOAD_OCTETS:
            raise _too_long(len(payload))
        return payload

    def decode(self, payload: bytes, spec=None) -> bytes:
        return bytes(payload)


_REGISTRY = {
    BINARY_DATA_STREAM: sys.modules[__name__],  # this module's encode and decode
    "application/octet-stream": OctetStreamCodec(),
}


def get_codec(media_type: str):
    """Look up the codec for a content type.

    Unrecognized ``application/*`` subtypes are interpreted as octet-stream;
    anything else, a value that is not a ``str`` included, is an error.
    """
    if media_type.__class__ is str:
        codec = _REGISTRY.get(media_type)  # a registered type, spelled as registered
        if codec is not None:
            return codec
    elif not isinstance(media_type, str):
        raise UnsupportedMediaType(f"no codec for content type {media_type!r}")
    normalized = media_type.split(";")[0].strip().lower()
    codec = _REGISTRY.get(normalized)
    if codec is not None:
        return codec
    if normalized.startswith("application/"):
        return _REGISTRY["application/octet-stream"]
    raise UnsupportedMediaType(f"no codec for content type {media_type!r}")
