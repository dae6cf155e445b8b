"""Per-layer tracing, done from outside the package.

``Tracer.install`` wraps the public entry points of each wotble layer, listed
in ``WRAPPED``, and ``Tracer.remove`` puts the originals back. A wrapped
function is replaced in every ``wotble`` module that holds it, so calls made
through ``from .x import f`` bindings are seen too. A name missing from its
module is skipped: its metrics read zero.

Each call records its wall duration and its self time (the duration minus
the wrapped calls nested in it, per thread). Transport calls also record how
far they moved the virtual clock, which splits radio time into phases.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time

#: (layer, module, attribute) for every wrapped entry point.
WRAPPED = (
    ("td", "wotble.td", "parse_td"),
    ("td", "wotble.td", "validate_td"),
    ("uris", "wotble.uris", "parse_gatt_uri"),
    ("uris", "wotble.uris", "format_gatt_uri"),
    ("binding", "wotble.binding", "resolve_form"),
    ("codec", "wotble.codec", "compile_pattern"),
    ("codec", "wotble.codec", "get_codec"),
    ("codec", "wotble.codec", "encode"),
    ("codec", "wotble.codec", "decode"),
    ("consumer", "wotble.consumer", "consume"),
    ("consumer", "wotble.consumer", "ConsumedThing.read_property"),
    ("consumer", "wotble.consumer", "ConsumedThing.write_property"),
    ("consumer", "wotble.consumer", "ConsumedThing.subscribe_event"),
    ("transport", "wotble.transport", "SimTransport.connect"),
    ("transport", "wotble.transport", "SimTransport.disconnect"),
    ("transport", "wotble.transport", "SimTransport.discover_gatt"),
    ("transport", "wotble.transport", "SimTransport.read"),
    ("transport", "wotble.transport", "SimTransport.write"),
    ("transport", "wotble.transport", "SimTransport.subscribe"),
    ("transport", "wotble.transport", "SimTransport.unsubscribe"),
    ("transport", "wotble.transport", "SimNetwork.emit"),
    ("transport", "wotble.transport", "SimNetwork.discovery_delay_s"),
    ("clock", "wotble.clock", "VirtualClock.sleep"),
    ("clock", "wotble.clock", "VirtualClock.monotonic"),
)

#: Transport calls whose virtual-clock movement is a radio phase.
RADIO_CALLS = ("transport.connect", "transport.disconnect", "transport.read",
               "transport.write")
#: Consumer calls whose self time is ``consumer.self_us_p50``.
CONSUMER_CALLS = ("consumer.read_property", "consumer.write_property",
                  "consumer.subscribe_event")

_MISSING = object()


def key_of(layer: str, attribute: str) -> str:
    return f"{layer}.{attribute.rpartition('.')[2]}"


KEYS = tuple(key_of(layer, attr) for layer, _, attr in WRAPPED)


def _virtual_now():
    """The unwrapped ``VirtualClock.monotonic``, or None if it is gone."""
    try:
        return importlib.import_module("wotble.clock").VirtualClock.monotonic
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Wraps the entry points of ``wrapped`` and keeps what the calls took."""

    def __init__(self, wrapped=WRAPPED):
        self.wrapped = wrapped
        keys = [key_of(layer, attr) for layer, _, attr in wrapped]
        self.wall_ns: dict[str, list[int]] = {k: [] for k in keys}
        self.self_ns: dict[str, list[int]] = {k: [] for k in keys}
        self.radio_ms: dict[str, list[float]] = {k: [] for k in RADIO_CALLS}
        #: (delay s, advertising interval ms, processing delay ms) per draw.
        self.discovery: list[tuple[float, float, float]] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        virtual_now = _virtual_now()
        for layer, module_name, attribute in self.wrapped:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_name, _, name = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, name, None)
            if original is None:
                continue
            wrapper = self._wrap(key_of(layer, attribute), original, virtual_now)
            if owner_name:
                self._undo.append((owner, name, owner.__dict__.get(name, _MISSING)))
                setattr(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "wotble" or mod_name.startswith("wotble.")) and \
                        getattr(mod, name, None) is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._undo.clear()

    def _wrap(self, key: str, fn, virtual_now):
        wall, own = self.wall_ns[key], self.self_ns[key]
        radio = self.radio_ms.get(key) if virtual_now else None
        discovery = self.discovery if key == "transport.discovery_delay_s" else None
        local = self._local
        clock_ns = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            stack.append(0)
            if radio is not None:
                clock = args[0].clock
                v0 = virtual_now(clock)
            start = clock_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock_ns() - start
                children = stack.pop()
                if stack:
                    stack[-1] += took
                wall.append(took)
                own.append(took - children)
            if radio is not None:
                radio.append((virtual_now(clock) - v0) * 1000.0)
            if discovery is not None:
                network, peripheral = args[0], args[1]
                discovery.append((result, peripheral.advertising_interval_ms,
                                  network.processing_delay_ms))
            return result

        wrapper.__wrapped__ = fn
        return wrapper
