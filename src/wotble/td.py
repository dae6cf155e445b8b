"""Thing Description data model and parser.

Parses JSON Thing Descriptions that carry Bluetooth metadata (``sbo:`` terms)
and binary-layout annotations (``bdo:`` terms). Prefixes are resolved by
literal string matching against the ``@context`` array, not by a full JSON-LD
processor: a term like ``sbo:methodName`` is recognized when its declared
prefix IRI is the Simple Bluetooth Ontology, whatever the prefix is named.
Unknown terms are kept in a raw-extensions map rather than rejected. A
known term whose value has the wrong JSON type raises ``MalformedDocument``
(``MissingRequired`` for a required ``title``, ``forms`` or ``href``); a
JSON ``true`` or ``false`` is never a number.

A ``str`` document goes straight to the C scanner of a default JSON decoder;
only a text the scanner refuses, or one with more after its value, and a
document that is not exactly a ``str`` go to ``json.loads``, which words the
error. JSON nested too deeply for the interpreter is ``MalformedDocument``
too. Each affordance is read in one walk: its own terms, then each of its
forms in full, in order, then its layout and bounds.

Each key and CURIE value is resolved once per full prefix->IRI binding: the
result goes into that binding's term table (``_Context``), which every
document declaring the same binding shares. The tables are few and each is
bounded; an undeclared prefix raises ``UnknownPrefix`` anew on every lookup,
as failures are never kept. Nothing is cached per document text, so each
call still reads and checks the whole document.

Each field's JSON kind is checked where the field is read, in the parsing
function itself: an exact-class test (``value.__class__ is dict``), plus a
range test for a number, passes the common case without a call, and only a
value that fails it goes to ``errors.expect``, which accepts it or raises
with the message. GAP roles, ``op`` strings and ``sbo:methodName`` values
are looked up in module dicts by their exact text, and ``parse_operation``
or ``parse_method`` runs only for a text that misses, so every error stays
as they raise it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from pathlib import Path

from .binding import (
    _METHOD_ALIASES,
    GattMethod,
    WotOperation,
    WRITE_OPERATIONS,
    parse_method,
    parse_operation,
)
from .codec import (
    _FLOAT_MAX,
    BINARY_DATA_STREAM,
    BdoSpec,
    Endianess,
    VariableSpec,
    VariableType,
)
from .errors import (
    BadScheme,
    CodecError,
    InvalidTd,
    MalformedDocument,
    MissingRequired,
    MissingVariable,
    UnknownPrefix,
    UnsupportedUnit,
    UriError,
    expect,
)
from .uris import GattUri, _CACHE_SIZE, parse_gatt_uri

SBO_IRI = "https://freumi.inrupt.net/SimpleBluetoothOntology.ttl#"
BDO_IRI = "https://freumi.inrupt.net/BinaryDataOntology.ttl#"
RDF_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
QUDT_IRI = "http://qudt.org/schema/qudt/"

_CURIE_RE = re.compile(r"([A-Za-z][A-Za-z0-9_.-]*):(?!//)(.+)")


class GapRole(str, Enum):
    PERIPHERAL = "peripheral"
    CENTRAL = "central"
    BROADCASTER = "broadcaster"
    OBSERVER = "observer"


# Each frozen value type below has a hand-written __init__ that fills
# __dict__ in one update. The generated __init__ of a frozen dataclass makes
# one call per field to get past the frozen __setattr__, which makes a parse
# about a fifth slower.


@dataclass(frozen=True, init=False)
class BleMetadata:
    """Device-level Bluetooth capabilities; fields are None when undeclared."""

    gap_role: GapRole | None = None
    is_connectable: bool | None = None
    has_gatt_layer: bool | None = None
    advertising_interval_ms: float | None = None
    scan_window_ms: float | None = None
    scan_interval_ms: float | None = None

    def __init__(self, gap_role=None, is_connectable=None, has_gatt_layer=None,
                 advertising_interval_ms=None, scan_window_ms=None, scan_interval_ms=None):
        self.__dict__.update(gap_role=gap_role, is_connectable=is_connectable,
                             has_gatt_layer=has_gatt_layer,
                             advertising_interval_ms=advertising_interval_ms,
                             scan_window_ms=scan_window_ms, scan_interval_ms=scan_interval_ms)


@dataclass(frozen=True, init=False)
class Form:
    """One way to perform an affordance's operations.

    ``uri`` is ``href`` parsed once, in ``__init__``. It is None when
    ``href`` is not a valid gatt:// URI, or not a ``str``; readers that need
    the reason parse ``href`` again and get the error. It takes no part in
    equality. Forms with the same ``href`` share one immutable ``GattUri``.
    """

    href: str
    op: tuple[WotOperation, ...]
    method_name: GattMethod | None = None
    content_type: str = BINARY_DATA_STREAM
    uri: GattUri | None = field(default=None, init=False, compare=False, repr=False)

    def __init__(self, href, op, method_name=None, content_type=BINARY_DATA_STREAM):
        try:
            uri = parse_gatt_uri(href)
        except UriError:
            uri = None
        self.__dict__.update(href=href, op=op, method_name=method_name,
                             content_type=content_type, uri=uri)


@dataclass(frozen=True, init=False)
class Affordance:
    """One named interaction capability: a property, action, or event.

    ``extensions`` None stands for a fresh empty dict.
    """

    name: str
    forms: tuple[Form, ...]
    data_type: str | None = None
    format: str | None = None
    bdo: BdoSpec | None = None
    minimum: float | None = None
    maximum: float | None = None
    extensions: dict = field(default_factory=dict)

    def __init__(self, name, forms, data_type=None, format=None, bdo=None, minimum=None,
                 maximum=None, extensions=None):
        self.__dict__.update(name=name, forms=forms, data_type=data_type, format=format,
                             bdo=bdo, minimum=minimum, maximum=maximum,
                             extensions={} if extensions is None else extensions)


@dataclass(frozen=True, init=False)
class ThingDescription:
    """A parsed TD; ``extensions`` None stands for a fresh empty dict."""

    title: str
    context_prefixes: dict
    metadata: BleMetadata
    properties: dict
    actions: dict
    events: dict
    extensions: dict = field(default_factory=dict)

    def __init__(self, title, context_prefixes, metadata, properties, actions, events,
                 extensions=None):
        self.__dict__.update(title=title, context_prefixes=context_prefixes, metadata=metadata,
                             properties=properties, actions=actions, events=events,
                             extensions={} if extensions is None else extensions)


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


class DiagnosticCode(str, Enum):
    CONNECTABILITY_CONFLICT = "connectability-conflict"
    BAD_URI_SCHEME = "bad-uri-scheme"
    BAD_HREF = "bad-href"
    NOT_ENCODABLE = "not-encodable"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    code: DiagnosticCode
    message: str
    path: str = ""

    def __str__(self) -> str:
        where = f" at {self.path}" if self.path else ""
        return f"{self.severity.value}: {self.code.value}{where}: {self.message}"


# --- context and term resolution ---------------------------------------------

_VOCABULARIES = (SBO_IRI, BDO_IRI, RDF_IRI, QUDT_IRI)

#: Distinct prefix bindings whose term tables are kept, and the texts one
#: table holds before it starts afresh.
_BINDINGS_KEPT = 32
_TERMS_KEPT = _CACHE_SIZE


class _Context(dict):
    """The term table of one full prefix->IRI binding: text -> (vocabulary, name).

    For a CURIE that expands into a known vocabulary, ``vocabulary`` is that
    vocabulary's IRI (the module constant itself, so ``is`` tells them
    apart) and ``name`` is the local name. Otherwise ``vocabulary`` is None
    and ``name`` is the CURIE's expansion, or the text itself when it is not
    a CURIE. So ``ctx[key]`` says which term a key is, and ``ctx[value][1]``
    is a CURIE value's local name.

    A text is resolved on its first lookup and kept. The table serves every
    document that declares the same binding (see ``_context``), so it
    depends on the whole binding, never on a prefix name alone, and never on
    a document's text. A CURIE whose prefix the binding lacks raises
    ``UnknownPrefix`` on every lookup: failures are not kept. A full table
    is emptied before it takes another text.
    """

    def __init__(self, binding: frozenset):
        self.prefixes = dict(binding)

    def __missing__(self, text: str) -> tuple:
        curie = _CURIE_RE.fullmatch(text)
        if curie is None:
            entry = (None, text)
        else:
            prefix, local = curie.groups()
            iri = self.prefixes.get(prefix)
            if iri is None:
                raise UnknownPrefix(f"prefix {prefix!r} is not declared in @context")
            iri += local
            entry = (None, iri)
            for vocab in _VOCABULARIES:
                if iri.startswith(vocab):
                    entry = (vocab, iri[len(vocab):])
                    break
        if len(self) >= _TERMS_KEPT:
            self.clear()
        self[text] = entry
        return entry


@lru_cache(maxsize=_BINDINGS_KEPT)
def _context(binding: frozenset) -> _Context:
    """The term table of ``binding``, the set of (prefix, IRI) pairs declared."""
    return _Context(binding)


def _parse_context(raw) -> dict:
    prefixes: dict = {}
    for entry in raw if type(raw) is list else (raw,):
        if type(entry) is dict:
            for prefix, iri in entry.items():
                if type(iri) is str and not prefix.startswith("@"):
                    prefixes[prefix] = iri
    return prefixes


def _duration_ms(value, ctx: _Context, term: str) -> float:
    """Normalize a duration to milliseconds.

    Accepts a plain number (already milliseconds) or the qudt structure
    ``{"rdf:value": n, "qudt:unit": "qudt:MilliSEC"}``. Only MilliSEC and SEC
    are recognized, bare or as a CURIE in the qudt vocabulary.
    """
    number, unit, what = value, "MilliSEC", "%s"
    if value.__class__ is dict:
        number = unit = None
        what = "%s: rdf:value"
        for key, val in value.items():
            vocab, local = ctx[key]
            if vocab is None:
                local = key
            if local == "value":
                number = val
            elif local == "unit":
                unit = val
    if (number.__class__ is not int and number.__class__ is not float
            or not -_FLOAT_MAX <= number <= _FLOAT_MAX):
        expect(number, float, MalformedDocument, what, term)
    if unit.__class__ is not str:
        expect(unit, str, UnsupportedUnit, "%s: qudt:unit", term)
    vocab, unit_name = ctx[unit]
    if vocab is not QUDT_IRI:  # a bare name, or a CURIE outside qudt
        unit_name = unit
    if unit_name not in ("MilliSEC", "SEC"):
        raise UnsupportedUnit(f"{term}: unit {unit!r} is not MilliSEC or SEC")
    ms = float(number) * 1000.0 if unit_name == "SEC" else float(number)
    if not 0 < ms < math.inf:  # SEC can overflow a finite value
        raise MalformedDocument(f"{term}: duration must be finite and > 0, got {ms}")
    return ms


#: sbo device metadata term -> (``BleMetadata`` field, JSON kind of its value):
#: ``bool``, ``float`` for a duration, or ``str`` for a GAP role.
_METADATA = {
    "hasGAPRole": ("gap_role", str),
    "isConnectable": ("is_connectable", bool),
    "hasGATTLayer": ("has_gatt_layer", bool),
    "hasAdvertisingInterval": ("advertising_interval_ms", float),
    "hasScanWindow": ("scan_window_ms", float),
    "scanWindow": ("scan_window_ms", float),
    "hasScanInterval": ("scan_interval_ms", float),
    "scanInterval": ("scan_interval_ms", float),
}

#: GAP roles and operations by value, to look one up without calling the Enum.
_GAP_ROLES = {role.value: role for role in GapRole}
_OPERATIONS = {op.value: op for op in WotOperation}

#: JSON kind of each binary-layout term, on an affordance or a pattern
#: variable; ``minimum`` and ``maximum`` bound an affordance's value too.
_LAYOUT_KINDS = {
    "bytelength": int,
    "offset": int,
    "signed": bool,
    "scale": float,
    "minimum": float,
    "maximum": float,
    "pattern": str,
}
_SPEC_TERMS = ("bytelength", "offset", "signed", "scale", "pattern")
_VARIABLE_TERMS = ("bytelength", "signed", "minimum", "maximum")


# --- document parsing ----------------------------------------------------------

#: The C scanner of a default JSON decoder, and the matcher of the whitespace
#: that ``json.loads`` skips around a value. Neither runs Python code, so
#: threads share them as they share ``json.loads``'s decoder.
_scan_json = json.decoder.JSONDecoder().scan_once
_skip_space = json.decoder.WHITESPACE.match


def parse_td(document: str) -> ThingDescription:
    """Parse a Thing Description from JSON text.

    Applies the binary-data vocabulary defaults (unsigned, little-endian,
    offset 0, scale 1.0) to every layout the document leaves partial, and
    keeps unknown terms in the extensions maps.

    A ``str`` goes straight to the C scanner of a default JSON decoder,
    between the whitespace that ``json.loads`` skips. Anything else, and a
    text that the scanner refuses or that has more after its value, goes to
    ``json.loads``, whose error gives the message. Each affordance is then
    read in one walk: its terms, then each of its forms in full, in order.
    """
    end = None
    if document.__class__ is str:
        try:
            doc, end = _scan_json(document, _skip_space(document).end())
            end = _skip_space(document, end).end()
        except (StopIteration, ValueError, RecursionError):
            pass  # json.loads words the error
    if end is None or end != len(document):
        try:
            doc = json.loads(document)
        except (ValueError, RecursionError) as exc:  # not JSON, too many digits, too deep
            raise MalformedDocument(f"document is not JSON: {exc}") from exc
        except TypeError:  # not text: a dict, a list, a number, None
            raise MalformedDocument(f"document must be JSON text (str, bytes or bytearray), "
                                    f"got {type(document).__name__}") from None
    if doc.__class__ is not dict:
        expect(doc, dict, MalformedDocument, "top-level JSON value")

    prefixes = _parse_context(doc.get("@context"))
    ctx = _context(frozenset(prefixes.items()))

    title = doc.get("title")
    if title.__class__ is not str:
        expect(title, str, MissingRequired, "title")
    if not title:
        raise MissingRequired("TD has no title")

    meta: dict = {}
    extensions: dict = {}
    categories: dict = {"properties": {}, "actions": {}, "events": {}}

    for key, value in doc.items():
        if key in categories:
            if value.__class__ is not dict:
                expect(value, dict, MalformedDocument, key)
            affordances = categories[key]
            for name, body in value.items():
                affordances[name] = _parse_affordance(name, body, ctx, key)
            continue
        if key == "@context" or key == "title":
            continue
        vocab, term = ctx[key]
        if vocab is not SBO_IRI or term not in _METADATA:
            extensions[key] = value
            continue
        field_name, kind = _METADATA[term]
        if kind is float:
            value = _duration_ms(value, ctx, key)
        else:
            if value.__class__ is not kind:
                expect(value, kind, MalformedDocument, key)
            if kind is str:
                role = _GAP_ROLES.get(ctx[value][1])
                if role is None:
                    raise MalformedDocument(f"unknown GAP role {value!r}")
                value = role
        meta[field_name] = value

    return ThingDescription(
        title=title,
        context_prefixes=prefixes,
        metadata=BleMetadata(**meta),
        properties=categories["properties"],
        actions=categories["actions"],
        events=categories["events"],
        extensions=extensions,
    )


def parse_td_file(path) -> ThingDescription:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedDocument(f"cannot read TD {path}: {exc}") from exc
    return parse_td(text)


_DEFAULT_OPS = {
    "properties": (WotOperation.READPROPERTY, WotOperation.WRITEPROPERTY),
    "actions": (WotOperation.INVOKEACTION,),
    "events": (WotOperation.SUBSCRIBEEVENT, WotOperation.UNSUBSCRIBEEVENT),
}


def _parse_affordance(name: str, body, ctx: _Context, category: str) -> Affordance:
    if body.__class__ is not dict:
        expect(body, dict, MalformedDocument, "affordance %r", name)
    bdo_terms: dict = {}
    extensions: dict = {}
    data_type = None
    fmt = None
    minimum = maximum = None
    forms_raw = None

    for key, value in body.items():
        vocab, term = ctx[key]
        if vocab is BDO_IRI:
            bdo_terms[term] = value
        elif key == "forms":
            forms_raw = value
        elif key == "type" and value in ("integer", "number", "string"):
            data_type = value
        elif key == "format":
            if value.__class__ is not str:
                expect(value, str, MalformedDocument, "%r: format", name)
            fmt = value
        elif key == "minimum":  # checked below
            minimum = value
        elif key == "maximum":
            maximum = value
        else:
            extensions[key] = value

    if forms_raw.__class__ is not list:
        expect(forms_raw, list, MissingRequired, "affordance %r: forms", name)
    if not forms_raw:
        raise MissingRequired(f"affordance {name!r} has no forms")
    forms = []
    for form in forms_raw:
        if form.__class__ is not dict:
            expect(form, dict, MalformedDocument, "form of %r", name)
        href = form.get("href")
        if href.__class__ is not str:
            expect(href, str, MissingRequired, "form of %r: href", name)
        if not href:
            raise MissingRequired(f"form of {name!r} has no href")

        op_raw = form.get("op")
        if op_raw is None:
            ops = _DEFAULT_OPS[category]
        elif op_raw.__class__ is not list:
            op = _OPERATIONS.get(op_raw) if op_raw.__class__ is str else None
            ops = (op if op is not None else parse_operation(op_raw),)
        elif op_raw:
            ops = tuple([_OPERATIONS.get(item) if item.__class__ is str else None
                         for item in op_raw])
            if None in ops:  # parse_operation raises for the first that is not an op
                ops = tuple([parse_operation(item) for item in op_raw])
        else:
            raise MissingRequired(f"form of {name!r} has an empty op list")

        method_name = None
        for key, value in form.items():
            vocab, term = ctx[key]
            if term == "methodName" and vocab is SBO_IRI:
                if value.__class__ is not str:
                    expect(value, str, MalformedDocument, "form of %r: sbo:methodName", name)
                local = ctx[value][1]
                method_name = _METHOD_ALIASES.get(local) or parse_method(local)

        content_type = form.get("contentType", BINARY_DATA_STREAM)
        if content_type.__class__ is not str:
            expect(content_type, str, MalformedDocument, "form of %r: contentType", name)
        forms.append(Form(href, ops, method_name, content_type))

    bdo = _build_bdo_spec(bdo_terms, ctx, name) if bdo_terms else None
    # A bound is checked only when the body has it: a JSON null is no number.
    for term, bound in (("minimum", minimum), ("maximum", maximum)):
        if term in body and (bound.__class__ is not int and bound.__class__ is not float
                             or not -_FLOAT_MAX <= bound <= _FLOAT_MAX):
            expect(bound, float, MalformedDocument, "%r: %s", name, term)
    return Affordance(name, tuple(forms), data_type, fmt, bdo, minimum, maximum, extensions)


def _build_bdo_spec(terms: dict, ctx: _Context, name: str) -> BdoSpec:
    """Assemble a BdoSpec from the affordance's bdo:* terms, with defaults."""
    variables = {}
    if "variable" in terms:
        raw_vars = terms["variable"]
        if raw_vars.__class__ is not dict:
            expect(raw_vars, dict, MalformedDocument, "%r: bdo:variable", name)
        for var_name, var_body in raw_vars.items():
            variables[var_name] = _parse_variable(var_name, var_body, ctx)
    pattern = terms.get("pattern")
    if pattern is not None and not variables:
        raise MissingRequired(
            f"{name!r}: bdo:pattern is present but bdo:variable is missing"
        )
    if pattern is None and terms.get("bytelength") is None:
        raise MissingRequired(f"{name!r}: bdo:bytelength is required")
    fields = {}
    for term in _SPEC_TERMS:
        if term in terms:
            value = fields[term] = terms[term]
            kind = _LAYOUT_KINDS[term]
            # The exact class, or for a number an int or a float in range,
            # passes; anything else goes to expect, which decides.
            if (value.__class__ is not kind and not (kind is float and value.__class__ is int)
                    or kind is float and not -_FLOAT_MAX <= value <= _FLOAT_MAX):
                expect(value, kind, MalformedDocument, "%r: bdo:%s", name, term)
    if "endianess" in terms:
        fields["endianess"] = _parse_endianess(terms["endianess"], ctx, name)
    try:
        return BdoSpec(variables=variables, **fields)
    except MissingVariable as exc:
        raise MissingRequired(f"{name!r}: {exc}") from exc
    except CodecError as exc:
        raise MalformedDocument(f"{name!r}: {exc}") from exc


def _parse_variable(var_name: str, body, ctx: _Context) -> VariableSpec:
    if body.__class__ is not dict:
        expect(body, dict, MalformedDocument, "variable %r", var_name)
    terms: dict = {}
    for key, value in body.items():
        vocab, term = ctx[key]
        terms[term if vocab is BDO_IRI else key] = value
    fields: dict = {}
    data_type = terms.get("type", "integer")
    if data_type == "string":
        fields["data_type"] = VariableType.STRING_HEX
    elif data_type != "integer":
        raise MalformedDocument(f"variable {var_name!r}: unsupported type {data_type!r}")
    if "endianess" in terms:
        fields["endianess"] = _parse_endianess(terms["endianess"], ctx, var_name)
    if "bytelength" not in terms:
        raise MissingRequired(f"variable {var_name!r} has no bdo:bytelength")
    for term in _VARIABLE_TERMS:
        if term in terms:
            value = fields[term] = terms[term]
            kind = _LAYOUT_KINDS[term]
            if (value.__class__ is not kind and not (kind is float and value.__class__ is int)
                    or kind is float and not -_FLOAT_MAX <= value <= _FLOAT_MAX):
                expect(value, kind, MalformedDocument, "variable %r: %s", var_name, term)
    try:
        return VariableSpec(name=var_name, **fields)
    except CodecError as exc:  # its message names the variable
        raise MalformedDocument(str(exc)) from exc


def _parse_endianess(value, ctx: _Context, name: str) -> Endianess:
    local = ctx[expect(value, str, MalformedDocument, "%r: endianess", name)][1]
    try:
        return Endianess(local)
    except ValueError:
        raise MalformedDocument(f"{name!r}: unknown endianess {value!r}") from None


# --- validation ------------------------------------------------------------------


def validate_td(td: ThingDescription) -> list[Diagnostic]:
    """Check a parsed TD for problems the parser tolerates.

    Error-severity diagnostics block consumption; warnings do not. An empty
    list means the TD is fully usable with this binding. Anything but a
    ``ThingDescription``, and one whose fields are not of the kinds a parsed
    one has, such as a list for ``properties``, raises ``InvalidTd``.
    """
    if not isinstance(td, ThingDescription):
        raise InvalidTd(f"validate_td takes a parsed ThingDescription, "
                        f"got {type(td).__name__}")
    diagnostics: list[Diagnostic] = []

    def report(severity: Severity, code: DiagnosticCode, message: str) -> None:
        # The common form has nothing to report, so the path of the form
        # being checked is formatted only here.
        diagnostics.append(Diagnostic(severity, code, message,
                                      f"{category}/{name}/forms/{index}"))

    try:
        connectable = td.metadata.is_connectable
        for category in ("properties", "actions", "events"):
            for name, affordance in getattr(td, category).items():
                for index, form in enumerate(affordance.forms):
                    try:
                        if form.uri is None:
                            parse_gatt_uri(form.href)  # raises, saying why
                    except BadScheme:
                        report(Severity.WARNING, DiagnosticCode.BAD_URI_SCHEME,
                               f"href {form.href!r} is not a gatt:// URI; "
                               "this binding will not use it")
                    except UriError as exc:
                        report(Severity.ERROR, DiagnosticCode.BAD_HREF,
                               f"href {form.href!r}: {exc}")
                    else:
                        if connectable is False:
                            report(Severity.ERROR, DiagnosticCode.CONNECTABILITY_CONFLICT,
                                   "device is not connectable but the form requires "
                                   "a GATT connection")
                    if affordance.bdo is None and not WRITE_OPERATIONS.isdisjoint(form.op):
                        report(Severity.WARNING, DiagnosticCode.NOT_ENCODABLE,
                               f"affordance {name!r} allows writes but declares no "
                               "binary layout")
    except (AttributeError, TypeError) as exc:
        raise _not_well_formed(td, exc) from None
    return diagnostics


def _not_well_formed(td: ThingDescription, exc: Exception) -> InvalidTd:
    """The error for a TD whose fields are not of the kinds a parsed one has."""
    title = getattr(td, "title", None)
    return InvalidTd(f"TD {title!r} is not a well-formed ThingDescription: {exc}")
