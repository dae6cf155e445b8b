"""Join abstract WoT operations to concrete GATT methods.

The nine well-known operations fall into three categories: reading maps to
``read``, writing maps to ``write`` or ``write-without-response``, and event
subscription maps to ``notify``. ``write`` waits for the server's
confirmation; ``write-without-response`` completes on send, so the method
actually used for a write-category operation follows the form's declared
method name when one is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .errors import MethodOpConflict, NoMatchingForm
from .uris import GattUri, parse_gatt_uri

if TYPE_CHECKING:
    from .codec import BdoSpec
    from .td import Affordance


class WotOperation(str, Enum):
    READPROPERTY = "readproperty"
    WRITEPROPERTY = "writeproperty"
    INVOKEACTION = "invokeaction"
    READALLPROPERTIES = "readallproperties"
    WRITEALLPROPERTIES = "writeallproperties"
    READMULTIPLEPROPERTIES = "readmultipleproperties"
    WRITEMULTIPLEPROPERTIES = "writemultipleproperties"
    SUBSCRIBEEVENT = "subscribeevent"
    UNSUBSCRIBEEVENT = "unsubscribeevent"


class GattMethod(str, Enum):
    READ = "read"
    WRITE = "write"
    WRITE_WITHOUT_RESPONSE = "write-without-response"
    NOTIFY = "notify"


READ_OPERATIONS = frozenset({
    WotOperation.READPROPERTY,
    WotOperation.READALLPROPERTIES,
    WotOperation.READMULTIPLEPROPERTIES,
})

WRITE_OPERATIONS = frozenset({
    WotOperation.WRITEPROPERTY,
    WotOperation.INVOKEACTION,
    WotOperation.WRITEALLPROPERTIES,
    WotOperation.WRITEMULTIPLEPROPERTIES,
})

SUBSCRIBE_OPERATIONS = frozenset({
    WotOperation.SUBSCRIBEEVENT,
    WotOperation.UNSUBSCRIBEEVENT,
})


#: Each operation's default GATT method, and the methods its category allows.
_METHODS_OF = {
    **{op: (GattMethod.READ, frozenset({GattMethod.READ})) for op in READ_OPERATIONS},
    **{op: (GattMethod.WRITE, frozenset({GattMethod.WRITE, GattMethod.WRITE_WITHOUT_RESPONSE}))
       for op in WRITE_OPERATIONS},
    **{op: (GattMethod.NOTIFY, frozenset({GattMethod.NOTIFY})) for op in SUBSCRIBE_OPERATIONS},
}


def parse_operation(text: str) -> WotOperation:
    """Map an op string from a TD form onto the closed operation vocabulary."""
    try:
        return WotOperation(text)
    except ValueError:
        raise MethodOpConflict(
            f"operation {text!r} is not supported by the GATT binding"
        ) from None


_METHOD_ALIASES = {
    "read": GattMethod.READ,
    "write": GattMethod.WRITE,
    "write-without-response": GattMethod.WRITE_WITHOUT_RESPONSE,
    "writewithoutresponse": GattMethod.WRITE_WITHOUT_RESPONSE,
    "notify": GattMethod.NOTIFY,
}


def parse_method(text: str) -> GattMethod:
    """Parse an sbo method name; accepts hyphenated or camelCase spellings."""
    if not isinstance(text, str):
        raise MethodOpConflict(f"GATT method name must be a string, got {text!r}")
    key = text.strip().lower().replace("_", "-")
    method = _METHOD_ALIASES.get(key) or _METHOD_ALIASES.get(key.replace("-", ""))
    if method is None:
        raise MethodOpConflict(f"unknown GATT method name {text!r}")
    return method


def map_operation(op: WotOperation, method_name: GattMethod | None = None) -> GattMethod:
    """Resolve the GATT method for a WoT operation.

    Without an explicit method name, read-category operations use ``read``,
    write-category operations default to the confirmation-bearing ``write``,
    and both subscribe operations use ``notify``. An explicit method name must
    belong to the operation's category. An ``op`` that is not an operation,
    hashable or not, raises ``MethodOpConflict`` too.
    """
    try:
        default, allowed = _METHODS_OF[op]
    except (KeyError, TypeError):  # not an operation, or not even hashable
        raise MethodOpConflict(f"unmapped operation {op!r}") from None
    if method_name is None:
        return default
    try:
        if method_name in allowed:
            return method_name
    except TypeError:  # not even hashable
        pass
    method = method_name.value if isinstance(method_name, GattMethod) else method_name
    raise MethodOpConflict(
        f"method {method!r} conflicts with operation {WotOperation(op).value!r}")


@dataclass(frozen=True, init=False)
class ResolvedRequest:
    """Everything needed to execute one interaction over the transport."""

    uri: GattUri
    method: GattMethod
    spec: "BdoSpec | None"
    operation: WotOperation
    content_type: str

    # Fills __dict__ in one update; the generated __init__ of a frozen
    # dataclass makes one call per field to get past the frozen __setattr__.
    def __init__(self, uri, method, spec, operation, content_type):
        self.__dict__.update(uri=uri, method=method, spec=spec, operation=operation,
                             content_type=content_type)


def resolve_form(affordance: "Affordance", op: WotOperation) -> ResolvedRequest:
    """Pick the first form listing ``op`` and resolve it into a request.

    ``NoMatchingForm`` when no form lists ``op``, or ``MethodOpConflict``
    when ``op`` is neither a :class:`WotOperation` nor its text, such as None.
    """
    for form in affordance.forms:
        if op not in form.op:
            continue
        method = form.method_name
        # The operation's default, or a named method its category allows, as
        # map_operation gives them but with no frame; map_operation is called
        # only for a method it refuses, to raise its error.
        if method is None:
            method = _METHODS_OF[op][0]
        else:
            try:
                allowed = method in _METHODS_OF[op][1]
            except (KeyError, TypeError):  # not an operation, or not hashable
                allowed = False
            if not allowed:
                map_operation(op, method)  # raises MethodOpConflict
        return ResolvedRequest(
            form.uri if form.uri is not None else parse_gatt_uri(form.href),
            method, affordance.bdo, op, form.content_type)
    op = parse_operation(op)  # MethodOpConflict unless an operation or its text
    raise NoMatchingForm(
        f"affordance {affordance.name!r} has no form for operation {op.value!r}"
    )
