"""Exception hierarchy shared by all wotble modules."""

from __future__ import annotations

import math


class WotBleError(Exception):
    """Base class for every error raised by this package."""


# --- JSON field kinds ----------------------------------------------------------

# The Python types ``json`` gives each kind, and how a message names it.
# ``float`` stands for any finite JSON number, integers included.
_JSON_KINDS = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a finite number"),
    str: (str, "a string"),
    list: (list, "an array"),
    dict: (dict, "an object"),
}


def expect(value, kind: type, error: type, what: str, *args):
    """Return ``value`` if it has the JSON ``kind``; raise ``error`` otherwise.

    ``kind`` is ``bool``, ``int``, ``float`` (any number a float holds
    finitely: not NaN, not infinite, no integer too large to convert),
    ``str``, ``list`` or ``dict``. A JSON ``true`` or ``false`` has no kind
    but ``bool``, although Python counts it as an ``int``. The message names
    the field: ``what``, %-formatted with ``args`` only when the check fails.
    """
    if value.__class__ is kind and (kind is not float or math.isfinite(value)):
        return value  # exactly the type json gives the kind: the common case
    types, name = _JSON_KINDS[kind]
    if (isinstance(value, types) and (kind is bool or value.__class__ is not bool)
            and (kind is not float or _finite(value))):
        return value
    raise error(f"{what % args if args else what} must be {name}, got {value!r}")


def shown(value) -> str:
    """``value`` as a message shows it: an int too long for CPython to
    convert to text (past 4 300 digits) is named by its size instead."""
    try:
        return f"{value}"
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _finite(number) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:  # an int too large for a float
        return False


# --- Thing Description parsing ---------------------------------------------

class TdError(WotBleError):
    """A Thing Description document could not be parsed or is invalid."""


class MalformedDocument(TdError):
    """Input is not JSON, not a TD object, or a field has the wrong shape."""


class MissingRequired(TdError):
    """A required TD element is absent (forms, pattern variables, bytelength)."""


class UnknownPrefix(TdError):
    """A prefixed term uses a prefix not declared in the @context."""


class UnsupportedUnit(TdError):
    """A qudt duration uses a unit other than MilliSEC or SEC."""


# --- gatt:// URIs -----------------------------------------------------------

class UriError(WotBleError, ValueError):
    """A gatt:// URI could not be parsed."""


class BadScheme(UriError):
    pass


class BadDeviceId(UriError):
    pass


class BadUuid(UriError):
    pass


class BadStructure(UriError):
    pass


# --- binary-data-stream codec -----------------------------------------------

class CodecError(WotBleError):
    """Encoding or decoding a payload failed."""


class OutOfRange(CodecError):
    """Value exceeds its representable integer range or declared bounds."""


class MissingVariable(CodecError):
    """A pattern placeholder has no variable spec or no supplied value."""


class AttLengthExceeded(CodecError):
    """Encoded payload would exceed the 512-octet ATT value limit."""


class BadHexPattern(CodecError):
    """Pattern text has an odd-length literal run or a malformed placeholder."""


class BadValue(CodecError):
    """Supplied value has the wrong type or is not valid hex text."""


class TooShort(CodecError):
    """Payload is shorter than the spec's offset + bytelength window."""


class PatternMismatch(CodecError):
    """Payload disagrees with the pattern's literal octets or total length."""


class UnsupportedMediaType(CodecError):
    """No codec is registered for the content type and no fallback applies."""


# --- operation binding --------------------------------------------------------

class BindingError(WotBleError):
    pass


class MethodOpConflict(BindingError):
    """A GATT method is incompatible with the WoT operation's category."""


class NoMatchingForm(BindingError):
    """No form of the affordance lists the requested operation."""


# --- transport ----------------------------------------------------------------

class TransportError(WotBleError):
    pass


class DuplicateDevice(TransportError):
    pass


class InvalidConfig(TransportError):
    """Simulated network definition is structurally invalid."""


class NotFound(TransportError):
    """Device was never observed advertising within the timeout."""


class Busy(TransportError):
    """Peripheral already holds its single allowed connection."""


class NotConnectable(TransportError):
    pass


class Timeout(TransportError):
    pass


class NotConnected(TransportError):
    pass


class NoSuchAttribute(TransportError):
    """Service or characteristic does not exist on the device."""


class MethodNotPermitted(TransportError):
    """Requested GATT method is not in the characteristic's allowed set."""


class ValueTooLong(TransportError):
    """Write payload exceeds the 512-octet ATT value limit."""


class TransportUnavailable(TransportError):
    """The simulated network behind the transport is closed."""


# --- consumer -------------------------------------------------------------------

class ConsumerError(WotBleError):
    pass


class InvalidTd(ConsumerError):
    """validate_td reported error-severity diagnostics, a TD's fields are not
    of the kinds a parsed one has, or its forms name no device."""

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class InvalidPolicy(ConsumerError, ValueError):
    """A connection policy is neither a ConnectionPolicy member nor its value."""


class UnknownAffordance(ConsumerError):
    pass


class BadArgument(ConsumerError, TypeError):
    """An argument to a ConsumedThing call is not of the kind it takes."""


class MixedDevices(ConsumerError):
    """Forms of one TD reference more than one device MAC."""


class MultiPropertyError(ConsumerError):
    """A multi-property operation failed partway through.

    Carries the failing affordance name, the partial results gathered before
    the failure, and the underlying cause.
    """

    def __init__(self, name: str, partial: dict, cause: Exception):
        super().__init__(f"operation failed at {name!r}: {cause}")
        self.name = name
        self.partial = partial
        self.cause = cause


# --- benchmark -------------------------------------------------------------------

class BenchError(WotBleError):
    pass


class PlanError(BenchError):
    pass


class AllSamplesFailed(BenchError):
    """Every timed repetition of an operation raised an error."""
