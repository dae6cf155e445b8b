"""gatt:// URI scheme: locate a characteristic on a device.

Grammar (see docs/uri-scheme.md):

    gatt://<deviceID>/<service>/<characteristic>

The device segment is a 6-octet MAC address with ``:`` or ``-`` separators;
the service and characteristic segments are full 128-bit UUIDs or 4-hex-digit
short UUIDs that expand against the Bluetooth Base UUID.
"""

from __future__ import annotations

import re
import uuid
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps

from .errors import BadDeviceId, BadScheme, BadStructure, BadUuid

#: 128-bit base against which 16-bit short UUIDs are expanded.
BLUETOOTH_BASE_UUID = uuid.UUID("00000000-0000-1000-8000-00805f9b34fb")

_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*)://")
# Matched with fullmatch: a ``$`` would also match before a final newline.
_MAC_RE = re.compile(r"[0-9A-Fa-f]{2}(?:[:-][0-9A-Fa-f]{2}){5}")
_UUID128_RE = re.compile(
    r"[0-9A-Fa-f]{8}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{12}"
)
_UUID16_RE = re.compile(r"[0-9A-Fa-f]{4}")

#: Distinct texts each parser remembers; beyond that the least recent go.
_CACHE_SIZE = 256


def _memoised(parse):
    """Wrap a pure text parser so each text is parsed once per process.

    Only results are kept, and they are immutable, so callers share them.
    Invalid text raises anew on every call. Input that is not a ``str``
    skips the cache, so it fails exactly as ``parse`` makes it fail.
    """
    cached = lru_cache(maxsize=_CACHE_SIZE)(parse)

    @wraps(parse)
    def parse_once(text):
        return cached(text) if type(text) is str else parse(text)

    parse_once.cache_info = cached.cache_info
    return parse_once


@dataclass(frozen=True)
class GattUri:
    """A parsed gatt:// resource locator.

    ``device_id`` is the canonical uppercase colon-separated MAC; ``service``
    and ``characteristic`` are full 128-bit UUIDs. ``parse_gatt_uri`` hands
    every caller of one text the same value, so its ``text`` is formatted
    once rather than once per caller; the value is immutable and safe to
    share.
    """

    device_id: str
    service: uuid.UUID
    characteristic: uuid.UUID

    @cached_property
    def text(self) -> str:
        """The canonical text, formatted once per value."""
        return format_gatt_uri(self)

    def __str__(self) -> str:
        return self.text


@_memoised
def normalize_mac(text: str) -> str:
    """Return the canonical ``HH:HH:HH:HH:HH:HH`` uppercase form of a MAC."""
    if not isinstance(text, str):
        raise BadDeviceId(f"device id must be a string, got {text!r}")
    if not _MAC_RE.fullmatch(text):
        raise BadDeviceId(f"not a 6-octet MAC address: {text!r}")
    return text.replace("-", ":").upper()


def expand_uuid(short: int) -> uuid.UUID:
    """Expand a 16-bit short UUID into the Bluetooth Base UUID.

    ``short`` is an ``int`` (not a ``bool``) from 0 to 0xFFFF; anything else
    raises ``BadUuid``.
    """
    if short.__class__ is not int:
        raise BadUuid(f"short UUID must be an int, got {short!r}")
    if not 0 <= short <= 0xFFFF:
        raise BadUuid(f"short UUID out of 16-bit range: {short:#x}")
    return uuid.UUID(f"0000{short:04x}-0000-1000-8000-00805f9b34fb")


@_memoised
def parse_uuid(text: str) -> uuid.UUID:
    """Parse a UUID segment: canonical 128-bit form or 4-hex-digit short form."""
    if not isinstance(text, str):
        raise BadUuid(f"UUID must be a string, got {text!r}")
    if _UUID16_RE.fullmatch(text):
        return expand_uuid(int(text, 16))
    if _UUID128_RE.fullmatch(text):
        return uuid.UUID(text.lower())
    raise BadUuid(f"not a 4-hex short UUID or canonical 128-bit UUID: {text!r}")


@_memoised
def parse_gatt_uri(text: str) -> GattUri:
    """Parse a gatt:// URI into its device, service, and characteristic."""
    if not isinstance(text, str):
        raise BadStructure(f"URI must be a string, got {text!r}")
    m = _SCHEME_RE.match(text)
    if m is None:
        raise BadStructure(f"no URI scheme in {text!r}")
    if m.group(1).lower() != "gatt":
        raise BadScheme(f"expected scheme 'gatt', got {m.group(1)!r}")
    segments = text[m.end():].split("/")
    if len(segments) != 3 or any(s == "" for s in segments):
        raise BadStructure(
            "expected gatt://<deviceID>/<service>/<characteristic>, "
            f"got {len(segments)} segment(s)"
        )
    device, service, characteristic = segments
    return GattUri(
        device_id=normalize_mac(device),
        service=parse_uuid(service),
        characteristic=parse_uuid(characteristic),
    )


def format_gatt_uri(uri: GattUri) -> str:
    """Serialize to canonical text: dash-separated MAC, full lowercase UUIDs.

    Dashes keep the device segment clear of the URI authority's ``:`` port
    syntax; ``parse_gatt_uri(format_gatt_uri(u)) == u`` for every valid value.
    """
    device = uri.device_id.replace(":", "-")
    return f"gatt://{device}/{uri.service}/{uri.characteristic}"
