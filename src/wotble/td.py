"""Thing Description data model and parser.

Parses JSON Thing Descriptions that carry Bluetooth metadata (``sbo:`` terms)
and binary-layout annotations (``bdo:`` terms). Prefixes are resolved by
literal string matching against the ``@context`` array, not by a full JSON-LD
processor: a term like ``sbo:methodName`` is recognized when its declared
prefix IRI is the Simple Bluetooth Ontology, whatever the prefix is named.
Unknown terms are kept in a raw-extensions map rather than rejected.
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
    if isinstance(value, bool):
        raise MalformedDocument(f"{term}: expected a duration, got a boolean")
    if isinstance(value, (int, float)):
        ms = float(value)
    elif isinstance(value, dict):
        number = None
        unit = None
        for key, val in value.items():
            resolved = ctx.vocab_term(key)
            local = resolved[1] if resolved else key
            if local == "value":
                number = val
            elif local == "unit":
                unit = val
        if not isinstance(number, (int, float)) or isinstance(number, bool):
            raise MalformedDocument(f"{term}: qudt duration lacks a numeric rdf:value")
        unit_name = ctx.local_name(unit) if isinstance(unit, str) else None
        if unit_name == "MilliSEC":
            ms = float(number)
        elif unit_name == "SEC":
            ms = float(number) * 1000.0
        else:
            raise UnsupportedUnit(f"{term}: unit {unit!r} is not MilliSEC or SEC")
    else:
        raise MalformedDocument(f"{term}: expected a number or qudt duration object")
    if ms <= 0:
        raise MalformedDocument(f"{term}: duration must be > 0, got {ms}")
    return ms


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
    if not isinstance(doc, dict):
        raise MalformedDocument("top-level JSON value is not a TD object")

    prefixes = _parse_context(doc.get("@context"))
    ctx = _Context(prefixes)

    title = doc.get("title")
    if not isinstance(title, str) or not title:
        raise MissingRequired("TD has no title")

    meta: dict = {}
    extensions: dict = {}
    categories: dict = {"properties": {}, "actions": {}, "events": {}}

    for key, value in doc.items():
        if key in ("@context", "title"):
            continue
        if key in categories:
            if not isinstance(value, dict):
                raise MalformedDocument(f"{key} must be an object")
            for name, body in value.items():
                categories[key][name] = _parse_affordance(name, body, ctx, key)
            continue
        resolved = ctx.vocab_term(key)
        if resolved and resolved[0] == SBO_IRI:
            _apply_metadata_term(meta, resolved[1], value, ctx)
            if resolved[1] in _METADATA_TERMS:
                continue
        extensions[key] = value

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
    return parse_td(Path(path).read_text(encoding="utf-8"))


_METADATA_TERMS = {
    "hasGAPRole",
    "isConnectable",
    "hasGATTLayer",
    "hasAdvertisingInterval",
    "hasScanWindow",
    "scanWindow",
    "hasScanInterval",
    "scanInterval",
}


def _apply_metadata_term(meta: dict, local: str, value, ctx: _Context) -> None:
    if local == "hasGAPRole":
        name = ctx.local_name(value) if isinstance(value, str) else value
        try:
            meta["gap_role"] = GapRole(name)
        except ValueError:
            raise MalformedDocument(f"unknown GAP role {value!r}") from None
    elif local == "isConnectable":
        meta["is_connectable"] = _require_bool(value, "sbo:isConnectable")
    elif local == "hasGATTLayer":
        meta["has_gatt_layer"] = _require_bool(value, "sbo:hasGATTLayer")
    elif local == "hasAdvertisingInterval":
        meta["advertising_interval_ms"] = _duration_ms(value, ctx, "advertisingInterval")
    elif local in ("hasScanWindow", "scanWindow"):
        meta["scan_window_ms"] = _duration_ms(value, ctx, "scanWindow")
    elif local in ("hasScanInterval", "scanInterval"):
        meta["scan_interval_ms"] = _duration_ms(value, ctx, "scanInterval")


def _require_bool(value, term: str) -> bool:
    if not isinstance(value, bool):
        raise MalformedDocument(f"{term}: expected true/false, got {value!r}")
    return value


_DEFAULT_OPS = {
    "properties": (WotOperation.READPROPERTY, WotOperation.WRITEPROPERTY),
    "actions": (WotOperation.INVOKEACTION,),
    "events": (WotOperation.SUBSCRIBEEVENT, WotOperation.UNSUBSCRIBEEVENT),
}


def _parse_affordance(name: str, body, ctx: _Context, category: str) -> Affordance:
    if not isinstance(body, dict):
        raise MalformedDocument(f"affordance {name!r} must be an object")

    bdo_terms: dict = {}
    extensions: dict = {}
    data_type = None
    fmt = None
    minimum = None
    maximum = None
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
        if key == "minimum":
            minimum = value
            continue
        if key == "maximum":
            maximum = value
            continue
        resolved = ctx.vocab_term(key)
        if resolved and resolved[0] == BDO_IRI:
            bdo_terms[resolved[1]] = value
        else:
            extensions[key] = value

    if not isinstance(forms_raw, list) or not forms_raw:
        raise MissingRequired(f"affordance {name!r} has no forms")
    forms = tuple(_parse_form(f, ctx, category, name) for f in forms_raw)

    bdo = _build_bdo_spec(bdo_terms, ctx, name) if bdo_terms else None
    return Affordance(
        name=name,
        forms=forms,
        data_type=data_type,
        format=fmt,
        bdo=bdo,
        minimum=minimum,
        maximum=maximum,
        extensions=extensions,
    )


def _parse_form(body, ctx: _Context, category: str, name: str) -> Form:
    if not isinstance(body, dict):
        raise MalformedDocument(f"form of {name!r} must be an object")
    href = body.get("href")
    if not isinstance(href, str) or not href:
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
            if not isinstance(value, str):
                raise MalformedDocument(f"form of {name!r}: sbo:methodName must be a string")
            method_name = parse_method(ctx.local_name(value))

    content_type = body.get("contentType", BINARY_DATA_STREAM)
    if not isinstance(content_type, str):
        raise MalformedDocument(f"form of {name!r}: contentType must be a string")
    return Form(href=href, op=ops, method_name=method_name, content_type=content_type)


def _build_bdo_spec(terms: dict, ctx: _Context, name: str) -> BdoSpec:
    """Assemble a BdoSpec from the affordance's bdo:* terms, with defaults."""
    pattern = terms.get("pattern")
    variables = {}
    if "variable" in terms:
        raw_vars = terms["variable"]
        if not isinstance(raw_vars, dict):
            raise MalformedDocument(f"{name!r}: bdo:variable must be an object")
        for var_name, var_body in raw_vars.items():
            variables[var_name] = _parse_variable(var_name, var_body, ctx)
    if pattern is not None and not variables:
        raise MissingRequired(
            f"{name!r}: bdo:pattern is present but bdo:variable is missing"
        )

    bytelength = terms.get("bytelength")
    if bytelength is None and pattern is None:
        raise MissingRequired(f"{name!r}: bdo:bytelength is required")

    try:
        return BdoSpec(
            bytelength=bytelength,
            signed=terms.get("signed", False),
            endianess=_parse_endianess(terms.get("endianess"), ctx, name),
            offset=terms.get("offset", 0),
            scale=terms.get("scale", 1.0),
            pattern=pattern,
            variables=variables,
        )
    except MissingVariable as exc:
        raise MissingRequired(f"{name!r}: {exc}") from exc
    except CodecError as exc:
        raise MalformedDocument(f"{name!r}: {exc}") from exc
    except TypeError as exc:
        raise MalformedDocument(f"{name!r}: a bdo term has the wrong type: {exc}") from exc


def _parse_variable(var_name: str, body, ctx: _Context) -> VariableSpec:
    if not isinstance(body, dict):
        raise MalformedDocument(f"variable {var_name!r} must be an object")
    fields: dict = {}
    for key, value in body.items():
        resolved = ctx.vocab_term(key)
        local = resolved[1] if resolved and resolved[0] == BDO_IRI else key
        if local == "type":
            if value == "integer":
                fields["data_type"] = VariableType.INTEGER
            elif value == "string":
                fields["data_type"] = VariableType.STRING_HEX
            else:
                raise MalformedDocument(
                    f"variable {var_name!r}: unsupported type {value!r}"
                )
        elif local == "bytelength":
            fields["bytelength"] = value
        elif local == "signed":
            fields["signed"] = value
        elif local == "endianess":
            fields["endianess"] = _parse_endianess(value, ctx, var_name)
        elif local == "minimum":
            fields["minimum"] = value
        elif local == "maximum":
            fields["maximum"] = value
    if "bytelength" not in fields:
        raise MissingRequired(f"variable {var_name!r} has no bdo:bytelength")
    try:
        return VariableSpec(name=var_name, **fields)
    except CodecError as exc:  # its message names the variable
        raise MalformedDocument(str(exc)) from exc
    except TypeError as exc:
        raise MalformedDocument(
            f"variable {var_name!r}: a bdo term has the wrong type: {exc}"
        ) from exc


def _parse_endianess(value, ctx: _Context, name: str) -> Endianess:
    if value is None:
        return Endianess.LITTLE
    local = ctx.local_name(value) if isinstance(value, str) else value
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
