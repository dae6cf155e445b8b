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
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from pathlib import Path

from .binding import (
    GattMethod,
    WotOperation,
    WRITE_OPERATIONS,
    parse_method,
    parse_operation,
)
from .codec import BINARY_DATA_STREAM, BdoSpec, Endianess, VariableSpec, VariableType
from .errors import (
    BadScheme,
    CodecError,
    MalformedDocument,
    MissingRequired,
    MissingVariable,
    UnknownPrefix,
    UnsupportedUnit,
    UriError,
    expect,
)
from .uris import GattUri, _CACHE_SIZE, _memoised, parse_gatt_uri

SBO_IRI = "https://freumi.inrupt.net/SimpleBluetoothOntology.ttl#"
BDO_IRI = "https://freumi.inrupt.net/BinaryDataOntology.ttl#"
RDF_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
QUDT_IRI = "http://qudt.org/schema/qudt/"

_CURIE_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_.-]*):(?!//)(.+)$")


class GapRole(str, Enum):
    PERIPHERAL = "peripheral"
    CENTRAL = "central"
    BROADCASTER = "broadcaster"
    OBSERVER = "observer"


@dataclass(frozen=True)
class BleMetadata:
    """Device-level Bluetooth capabilities; fields are None when undeclared."""

    gap_role: GapRole | None = None
    is_connectable: bool | None = None
    has_gatt_layer: bool | None = None
    advertising_interval_ms: float | None = None
    scan_window_ms: float | None = None
    scan_interval_ms: float | None = None


@dataclass(frozen=True)
class Form:
    """One way to perform an affordance's operations.

    ``uri`` is ``href`` parsed once, when the form is built. It is None when
    ``href`` is not a valid gatt:// URI; readers that need the reason parse
    ``href`` again and get the error. It takes no part in equality. Forms
    with the same ``href`` share one immutable ``GattUri``.
    """

    href: str
    op: tuple[WotOperation, ...]
    method_name: GattMethod | None = None
    content_type: str = BINARY_DATA_STREAM
    uri: GattUri | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "uri", parse_gatt_uri(self.href))
        except UriError:
            pass


@dataclass(frozen=True)
class Affordance:
    """One named interaction capability: a property, action, or event."""

    name: str
    forms: tuple[Form, ...]
    data_type: str | None = None
    format: str | None = None
    bdo: BdoSpec | None = None
    minimum: float | None = None
    maximum: float | None = None
    extensions: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ThingDescription:
    title: str
    context_prefixes: dict
    metadata: BleMetadata
    properties: dict
    actions: dict
    events: dict
    extensions: dict = field(default_factory=dict)


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


# Both splits depend on their text alone, never on a TD's prefix bindings,
# so one process-wide cache serves every TD.
@_memoised
def _split_curie(term: str) -> tuple[str, str] | None:
    """``(prefix, local part)`` of a CURIE; None for a plain term or an IRI."""
    m = _CURIE_RE.match(term)
    return None if m is None else m.groups()


@lru_cache(maxsize=_CACHE_SIZE)  # given expanded IRIs only, so always a str
def _split_vocab(iri: str) -> tuple[str, str] | None:
    """``(vocabulary IRI, local name)`` for an IRI in a known vocabulary."""
    for vocab in (SBO_IRI, BDO_IRI, RDF_IRI, QUDT_IRI):
        if iri.startswith(vocab):
            return vocab, iri[len(vocab):]
    return None


class _Context:
    def __init__(self, prefixes: dict):
        self.prefixes = prefixes

    def expand(self, term: str) -> str | None:
        """Expand a CURIE against declared prefixes; None for plain terms."""
        curie = _split_curie(term)
        if curie is None:
            return None
        prefix, local = curie
        iri = self.prefixes.get(prefix)
        if iri is None:
            raise UnknownPrefix(f"prefix {prefix!r} is not declared in @context")
        return iri + local

    def vocab_term(self, key: str) -> tuple[str, str] | None:
        """Return (vocab IRI, local name) for keys in a known vocabulary."""
        expanded = self.expand(key)
        return None if expanded is None else _split_vocab(expanded)

    def local_name(self, value: str) -> str:
        """Strip a declared prefix off a CURIE value; bare names pass through."""
        expanded = self.expand(value)
        if expanded is None:
            return value
        resolved = _split_vocab(expanded)
        return expanded if resolved is None else resolved[1]


def _parse_context(raw) -> dict:
    prefixes: dict = {}
    if raw is None:
        return prefixes
    entries = raw if isinstance(raw, list) else [raw]
    for entry in entries:
        if isinstance(entry, dict):
            for prefix, iri in entry.items():
                if isinstance(iri, str) and not prefix.startswith("@"):
                    prefixes[prefix] = iri
    return prefixes


def _duration_ms(value, ctx: _Context, term: str) -> float:
    """Normalize a duration to milliseconds.

    Accepts a plain number (already milliseconds) or the qudt structure
    ``{"rdf:value": n, "qudt:unit": "qudt:MilliSEC"}``. Only MilliSEC and SEC
    are recognized.
    """
    if isinstance(value, dict):
        number = None
        unit = None
        for key, val in value.items():
            resolved = ctx.vocab_term(key)
            local = resolved[1] if resolved else key
            if local == "value":
                number = val
            elif local == "unit":
                unit = val
        ms = float(expect(number, float, MalformedDocument, "%s: rdf:value", term))
        unit_name = ctx.local_name(expect(unit, str, UnsupportedUnit, "%s: qudt:unit", term))
        if unit_name == "SEC":
            ms *= 1000.0
        elif unit_name != "MilliSEC":
            raise UnsupportedUnit(f"{term}: unit {unit!r} is not MilliSEC or SEC")
    else:
        ms = float(expect(value, float, MalformedDocument, term))
    if ms <= 0:
        raise MalformedDocument(f"{term}: duration must be > 0, got {ms}")
    return ms


def _gap_role(value, ctx: _Context, term: str) -> GapRole:
    try:
        return GapRole(ctx.local_name(expect(value, str, MalformedDocument, term)))
    except ValueError:
        raise MalformedDocument(f"unknown GAP role {value!r}") from None


def _boolean(value, ctx: _Context, term: str) -> bool:
    return expect(value, bool, MalformedDocument, term)


#: sbo device metadata term -> (``BleMetadata`` field, reader of its value).
_METADATA = {
    "hasGAPRole": ("gap_role", _gap_role),
    "isConnectable": ("is_connectable", _boolean),
    "hasGATTLayer": ("has_gatt_layer", _boolean),
    "hasAdvertisingInterval": ("advertising_interval_ms", _duration_ms),
    "hasScanWindow": ("scan_window_ms", _duration_ms),
    "scanWindow": ("scan_window_ms", _duration_ms),
    "hasScanInterval": ("scan_interval_ms", _duration_ms),
    "scanInterval": ("scan_interval_ms", _duration_ms),
}

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
_BOUNDS = ("minimum", "maximum")


def _layout_fields(terms: dict, names: tuple, what: str, owner: str) -> dict:
    """The terms in ``names`` that ``terms`` declares, each checked for its kind.

    ``what`` names a field in a message, formatted with ``owner`` and the term.
    """
    return {term: expect(terms[term], _LAYOUT_KINDS[term], MalformedDocument,
                         what, owner, term)
            for term in names if term in terms}


# --- document parsing ----------------------------------------------------------


def parse_td(document: str) -> ThingDescription:
    """Parse a Thing Description from JSON text.

    Applies the binary-data vocabulary defaults (unsigned, little-endian,
    offset 0, scale 1.0) to every layout the document leaves partial, and
    keeps unknown terms in the extensions maps.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"document is not JSON: {exc}") from exc
    expect(doc, dict, MalformedDocument, "top-level JSON value")

    prefixes = _parse_context(doc.get("@context"))
    ctx = _Context(prefixes)

    title = doc.get("title")
    if not expect(title, str, MissingRequired, "title"):
        raise MissingRequired("TD has no title")

    meta: dict = {}
    extensions: dict = {}
    categories: dict = {"properties": {}, "actions": {}, "events": {}}

    for key, value in doc.items():
        if key in ("@context", "title"):
            continue
        if key in categories:
            for name, body in expect(value, dict, MalformedDocument, key).items():
                categories[key][name] = _parse_affordance(name, body, ctx, key)
            continue
        resolved = ctx.vocab_term(key)
        entry = _METADATA.get(resolved[1]) if resolved and resolved[0] == SBO_IRI else None
        if entry is None:
            extensions[key] = value
        else:
            field_name, read = entry
            meta[field_name] = read(value, ctx, key)

    return ThingDescription(
        title=title,
        context_prefixes=dict(prefixes),
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
    expect(body, dict, MalformedDocument, "affordance %r", name)
    bdo_terms: dict = {}
    extensions: dict = {}
    data_type = None
    fmt = None
    forms_raw = None

    for key, value in body.items():
        if key == "forms":
            forms_raw = value
            continue
        if key == "type":
            data_type = value if value in ("integer", "number", "string") else None
            if data_type is None:
                extensions[key] = value
            continue
        if key == "format":
            fmt = value
            continue
        if key in _BOUNDS:  # read below
            continue
        resolved = ctx.vocab_term(key)
        if resolved and resolved[0] == BDO_IRI:
            bdo_terms[resolved[1]] = value
        else:
            extensions[key] = value

    if not expect(forms_raw, list, MissingRequired, "affordance %r: forms", name):
        raise MissingRequired(f"affordance {name!r} has no forms")
    forms = tuple(_parse_form(f, ctx, category, name) for f in forms_raw)

    bdo = _build_bdo_spec(bdo_terms, ctx, name) if bdo_terms else None
    return Affordance(
        name=name,
        forms=forms,
        data_type=data_type,
        format=fmt,
        bdo=bdo,
        extensions=extensions,
        **_layout_fields(body, _BOUNDS, "%r: %s", name),
    )


def _parse_form(body, ctx: _Context, category: str, name: str) -> Form:
    expect(body, dict, MalformedDocument, "form of %r", name)
    href = body.get("href")
    if not expect(href, str, MissingRequired, "form of %r: href", name):
        raise MissingRequired(f"form of {name!r} has no href")

    op_raw = body.get("op")
    if op_raw is None:
        ops = _DEFAULT_OPS[category]
    else:
        items = op_raw if isinstance(op_raw, list) else [op_raw]
        if not items:
            raise MissingRequired(f"form of {name!r} has an empty op list")
        ops = tuple(parse_operation(item) for item in items)

    method_name = None
    for key, value in body.items():
        resolved = ctx.vocab_term(key)
        if resolved and resolved == (SBO_IRI, "methodName"):
            method_name = parse_method(ctx.local_name(expect(
                value, str, MalformedDocument, "form of %r: sbo:methodName", name)))

    content_type = expect(body.get("contentType", BINARY_DATA_STREAM), str,
                          MalformedDocument, "form of %r: contentType", name)
    return Form(href=href, op=ops, method_name=method_name, content_type=content_type)


def _build_bdo_spec(terms: dict, ctx: _Context, name: str) -> BdoSpec:
    """Assemble a BdoSpec from the affordance's bdo:* terms, with defaults."""
    variables = {}
    if "variable" in terms:
        raw_vars = expect(terms["variable"], dict, MalformedDocument, "%r: bdo:variable", name)
        variables = {var_name: _parse_variable(var_name, var_body, ctx)
                     for var_name, var_body in raw_vars.items()}
    if terms.get("pattern") is not None and not variables:
        raise MissingRequired(
            f"{name!r}: bdo:pattern is present but bdo:variable is missing"
        )
    if terms.get("bytelength") is None and terms.get("pattern") is None:
        raise MissingRequired(f"{name!r}: bdo:bytelength is required")
    fields = _layout_fields(terms, _SPEC_TERMS, "%r: bdo:%s", name)
    if "endianess" in terms:
        fields["endianess"] = _parse_endianess(terms["endianess"], ctx, name)
    try:
        return BdoSpec(variables=variables, **fields)
    except MissingVariable as exc:
        raise MissingRequired(f"{name!r}: {exc}") from exc
    except CodecError as exc:
        raise MalformedDocument(f"{name!r}: {exc}") from exc


def _parse_variable(var_name: str, body, ctx: _Context) -> VariableSpec:
    terms: dict = {}
    for key, value in expect(body, dict, MalformedDocument, "variable %r", var_name).items():
        resolved = ctx.vocab_term(key)
        terms[resolved[1] if resolved and resolved[0] == BDO_IRI else key] = value
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
    fields.update(_layout_fields(terms, _VARIABLE_TERMS, "variable %r: %s", var_name))
    try:
        return VariableSpec(name=var_name, **fields)
    except CodecError as exc:  # its message names the variable
        raise MalformedDocument(str(exc)) from exc


def _parse_endianess(value, ctx: _Context, name: str) -> Endianess:
    local = ctx.local_name(expect(value, str, MalformedDocument, "%r: endianess", name))
    try:
        return Endianess(local)
    except ValueError:
        raise MalformedDocument(f"{name!r}: unknown endianess {value!r}") from None


# --- validation ------------------------------------------------------------------


def validate_td(td: ThingDescription) -> list[Diagnostic]:
    """Check a parsed TD for problems the parser tolerates.

    Error-severity diagnostics block consumption; warnings do not. An empty
    list means the TD is fully usable with this binding.
    """
    diagnostics: list[Diagnostic] = []
    for category in ("properties", "actions", "events"):
        for name, affordance in getattr(td, category).items():
            path = f"{category}/{name}"
            for index, form in enumerate(affordance.forms):
                form_path = f"{path}/forms/{index}"
                try:
                    if form.uri is None:
                        parse_gatt_uri(form.href)  # raises, saying why
                except BadScheme:
                    diagnostics.append(Diagnostic(
                        Severity.WARNING,
                        DiagnosticCode.BAD_URI_SCHEME,
                        f"href {form.href!r} is not a gatt:// URI; "
                        "this binding will not use it",
                        form_path,
                    ))
                except UriError as exc:
                    diagnostics.append(Diagnostic(
                        Severity.ERROR,
                        DiagnosticCode.BAD_HREF,
                        f"href {form.href!r}: {exc}",
                        form_path,
                    ))
                else:
                    if td.metadata.is_connectable is False:
                        diagnostics.append(Diagnostic(
                            Severity.ERROR,
                            DiagnosticCode.CONNECTABILITY_CONFLICT,
                            "device is not connectable but the form requires "
                            "a GATT connection",
                            form_path,
                        ))
                if affordance.bdo is None and any(op in WRITE_OPERATIONS for op in form.op):
                    diagnostics.append(Diagnostic(
                        Severity.WARNING,
                        DiagnosticCode.NOT_ENCODABLE,
                        f"affordance {name!r} allows writes but declares no "
                        "binary layout",
                        form_path,
                    ))
    return diagnostics
